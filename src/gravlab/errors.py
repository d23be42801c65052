"""Exception hierarchy shared by all gravlab modules, and one Rule per kind of setting.

The CLI maps ConfigError to exit code 1 (user/usage problem) and every
other GravlabError to exit code 2 (numerical or data problem). A config
key, the CLI flag that mirrors it and the settings-dataclass field it
fills check one Rule, so they refuse the same values in the same words.
A number is an int or float (numpy's too) in the float range: never a
bool, NaN or +-inf.
"""

import sys
from numbers import Integral, Real
from typing import Callable, NamedTuple


class GravlabError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GravlabError):
    """Invalid configuration: unknown key, bad type, violated invariant."""


class DomainError(GravlabError):
    """Arguments outside the documented domain of an operation."""


class DataError(GravlabError):
    """Input data that cannot be analyzed (empty, malformed, inconsistent)."""


class NumericalError(GravlabError):
    """An integrator, optimizer or quadrature failed to converge."""


class CalibrationError(GravlabError):
    """Requested noise targets are infeasible for the Gaussian model."""


class FitError(NumericalError):
    """Nonlinear fit did not converge; carries best-so-far diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class Rule(NamedTuple):
    """What a setting must be: a test of its value, and the words an error quotes after "must be"."""

    test: Callable[[object], bool]
    words: str


def _number(v) -> bool:  # NaN compares false; an int beyond the float range is refused, not converted
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


NUMBER = Rule(_number, "a finite number")
POSITIVE = Rule(lambda v: _number(v) and v > 0, "a finite number > 0")
DURATION = POSITIVE._replace(words="a duration in seconds > 0")
NON_NEGATIVE = Rule(lambda v: _number(v) and v >= 0, "a finite number >= 0")
AT_LEAST_ONE = Rule(lambda v: _number(v) and v >= 1, "a finite number >= 1")
FRACTION = Rule(lambda v: _number(v) and 0 < v <= 1, "a number in (0, 1]")
NUMBER_OR_NULL = Rule(lambda v: v is None or _number(v), "a finite number or null")
SIZE = Rule(lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= 0, "an integer >= 0")
COUNT = Rule(lambda v: SIZE.test(v) and v >= 1, "an integer >= 1")
SEED = Rule(lambda v: SIZE.test(v) and v < 2**64, "an integer in [0, 2^64)")  # a word of the Philox key
FLAG = Rule(lambda v: isinstance(v, bool), "true or false")
PATH = Rule(lambda v: isinstance(v, str) and v != "", "a non-empty path")


def check_fields(owner, **rules: Rule) -> None:
    """Raise ConfigError naming the first field of `owner` that breaks its rule, with its value."""
    for name, rule in rules.items():
        if not rule.test(value := getattr(owner, name)):
            raise ConfigError(f"{type(owner).__name__}.{name} must be {rule.words}, got {value!r}")
