"""Exception hierarchy shared by all gravlab modules, and one Rule per kind of value.

The CLI maps ConfigError to exit code 1 (user/usage problem) and every
other GravlabError to exit code 2 (numerical or data problem). A config
key, the CLI flag that mirrors it and the settings-dataclass field it
fills check one Rule, so they refuse the same values in the same words;
a public function's scalar arguments check the same Rules through
`require`, which raises DomainError. A number is an int or float
(numpy's too) in the float range: never a bool, string, NaN or +-inf.
`as_numbers` reads an array argument, `require_finite` and `require_each`
check it element by element, and `in_float_range` refuses a result of
finite arguments that leaves the float range.
"""

import math
from contextlib import suppress
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np


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


def _number(v) -> bool:  # isfinite reads v as a float, in no narrower numpy type
    try:
        return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


NUMBER = Rule(_number, "a finite number")
POSITIVE = Rule(lambda v: _number(v) and v > 0, "a finite number > 0")
DURATION = POSITIVE._replace(words="a duration in seconds > 0")
NON_NEGATIVE = Rule(lambda v: _number(v) and v >= 0, "a finite number >= 0")
AT_LEAST_ONE = Rule(lambda v: _number(v) and v >= 1, "a finite number >= 1")
FRACTION = Rule(lambda v: _number(v) and 0 < v <= 1, "a number in (0, 1]")
SIZE = Rule(lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= 0, "an integer >= 0")
COUNT = Rule(lambda v: SIZE.test(v) and v >= 1, "an integer >= 1")
# the Philox key of every shot of a campaign
SEED = Rule(lambda v: SIZE.test(v) and v < 2**64, "an integer in [0, 2^64)")
FLAG = Rule(lambda v: isinstance(v, bool), "true or false")
PATH = Rule(lambda v: isinstance(v, str) and v != "", "a non-empty path")


def require(rule: Rule, name: str, value, error: type[GravlabError] = DomainError) -> None:
    """Raise `error` saying what `name` must be and what it got, unless `value` passes `rule`."""
    if not rule.test(value):
        raise error(f"{name} must be {rule.words}, got {value!r}")


def as_numbers(name: str, value, shape: tuple[int, ...] | None = None, kinds: str = "iufc") -> np.ndarray:
    """`value` as the numpy array it reads as, of `shape` if one is given; DomainError naming `name` for
    a ragged sequence, an array whose dtype is not of `kinds` (never bool, str, object), or another shape."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged sequence
        raise DomainError(f"{name} must be an array of numbers, got a ragged sequence") from None
    if array.dtype.kind not in kinds:
        raise DomainError(f"{name} must be an array of numbers, got dtype {array.dtype}")
    if shape is not None and array.shape != shape:
        raise DomainError(f"{name} must have shape {shape}")
    return array


def _refuse_first(name: str, words: str, values: np.ndarray, passes: np.ndarray) -> None:
    """Raise DomainError saying `name` must `words`, with its first element that fails `passes`, by its index."""
    if (bad := np.flatnonzero(~passes)).size:
        index = bad[0] if values.ndim == 1 else tuple(int(i) for i in np.unravel_index(bad[0], values.shape))
        raise DomainError(f"{name} must {words}, got {values.flat[bad[0]]} at index {index}")


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise DomainError naming `name` and its first element that is NaN or +-inf, if any, by its index (a tuple if n-d)."""
    _refuse_first(name, "hold finite numbers", values, np.isfinite(values))


def require_each(rule: Rule, name: str, value, test: Callable[[np.ndarray], np.ndarray]):
    """`value` checked once: a number by `rule`, as `require` does, or else a real array (see as_numbers)
    by `test`, the rule for all its elements at once, naming the first that fails; returned as read."""
    if not isinstance(value, (np.ndarray, list, tuple)):
        require(rule, name, value)
        return value
    values = as_numbers(name, value, kinds="iuf")
    _refuse_first(name, f"be {rule.words}", values, test(values))
    return values


def float_or_array(result):
    """A result that holds one number as a float, else the array: a number in, a float out."""
    return float(result) if np.ndim(result) == 0 else result


def in_float_range(what: str, compute: Callable[[], float | np.ndarray], **arguments) -> float | np.ndarray:
    """compute(), or DomainError naming `arguments` if `what` leaves the float range: OverflowError,
    +-inf, NaN, or a math domain error on a value that left it (log10 of an underflowed 0, cos of inf).
    An array leaves it at its first element that is not finite, and each array argument is named by its element there."""
    at = 0
    with suppress(OverflowError, ValueError), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(value := compute(), float):  # Python's or np.float64: no numpy call
            if math.isfinite(value):
                return value
        elif (finite := np.isfinite(value)).all():
            return value
        else:
            at = int(finite.argmin())
    shown = ", ".join(f"{k}={v.flat[at].item() if isinstance(v, np.ndarray) else v!r}" for k, v in arguments.items())
    raise DomainError(f"{what} leaves the float range at {shown}")


def check_fields(owner, **rules: Rule) -> None:
    """Raise ConfigError naming the first field of `owner` that breaks its rule, with its value."""
    for name, rule in rules.items():
        require(rule, f"{type(owner).__name__}.{name}", getattr(owner, name), ConfigError)
