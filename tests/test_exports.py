"""The package's export list, and the guards of its public entry points
against NaN and infinity."""

import math

import numpy as np
import pytest

import gravlab
from gravlab import (
    ConfigError,
    DomainError,
    FockSpace,
    PhysicalConstants,
    PulseShape,
    SequenceTiming,
    allan_deviation,
    averaged_transfer,
    phase_noise_budget,
    transfer_probability,
)


def test_every_exported_name_resolves():
    missing = [name for name in gravlab.__all__ if not hasattr(gravlab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from gravlab import *", namespace)
    assert set(gravlab.__all__) <= set(namespace)


SHAPE = PulseShape()
SERIES = np.zeros(30)


# each call as written, so that it is its own test id
@pytest.mark.parametrize(
    "call, error",
    [
        ("averaged_transfer(SHAPE, 0.0, nan)", DomainError),
        ("averaged_transfer(SHAPE, 0.0, inf)", DomainError),
        ("averaged_transfer(SHAPE, nan, 1.0)", DomainError),
        ("averaged_transfer(SHAPE, -inf, 1.0)", DomainError),
        ("transfer_probability(SHAPE, nan)", DomainError),
        ("transfer_probability(SHAPE, inf)", DomainError),
        ("allan_deviation(SERIES, nan)", DomainError),
        ("allan_deviation(SERIES, inf)", DomainError),
        ("phase_noise_budget(nan, 6000.0)", DomainError),
        ("phase_noise_budget(inf, 6000.0)", DomainError),
        ("phase_noise_budget(1e-3, nan)", DomainError),
        ("phase_noise_budget(1e-3, inf)", DomainError),
        ("SequenceTiming(pulse_s=nan)", ConfigError),
        ("SequenceTiming(separation_s=inf)", ConfigError),
        ("SequenceTiming(free_evolution_s=nan)", ConfigError),
        ("SequenceTiming(start_s=inf)", ConfigError),
        ("SequenceTiming(start_s=nan)", ConfigError),
        ("PhysicalConstants(k_eff_per_m=nan)", ConfigError),
        ("PhysicalConstants(k_eff_per_m=inf)", ConfigError),
        ("FockSpace(n_max=nan)", ConfigError),
        ("FockSpace(n_max=4.5)", ConfigError),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_public_guard_refuses_nan_and_infinity(call, error):
    with pytest.raises(error, match="finite number|integer"):
        eval(call, globals() | {"nan": math.nan, "inf": math.inf})
