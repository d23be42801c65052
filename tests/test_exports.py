"""The package's export list, and the guards of its public entry points
against NaN, infinity and other values outside their rules."""

import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import gravlab
from gravlab import (
    CampaignConfig,
    ConfigError,
    DomainError,
    FockSpace,
    FringeFit,
    HamiltonianParams,
    NoiseConfig,
    PhysicalConstants,
    PulseShape,
    SequenceTiming,
    SparseOperator,
    SqueezingModel,
    accumulated_area,
    allan_deviation,
    averaged_transfer,
    calibrate_model,
    coherent_model,
    delta_p,
    envelope,
    estimate_g,
    evolve,
    fit_fringe,
    fringe_intersection,
    gravity_from_delta_p,
    gravity_sensitivity,
    mean_occupations,
    metrological_squeezing,
    mode_transform,
    occupation_distribution,
    phase_noise_budget,
    pulse_sensitivity,
    pump_block,
    run_campaign,
    scale_factor,
    simulate_shot,
    squeezing_from_pairs,
    squeezing_parameter,
    tomography_variance,
    transfer_probability,
    vacuum_state,
)
from gravlab.errors import NUMBER
from sector_oracle import as_operator


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
    with pytest.raises(error, match="finite number|integer|a duration in seconds > 0"):
        eval(call, globals() | {"nan": math.nan, "inf": math.inf})


TIMING, CONST = SequenceTiming(), PhysicalConstants()
NOISE = NoiseConfig(squeezing=SqueezingModel())
SHOTS = run_campaign(CampaignConfig(n_pairs=20), TIMING, CONST, NOISE)
PAIRED = delta_p(SHOTS)
MODEL = SqueezingModel(strength=1.1)
SPACE = FockSpace(n_max=4)
H, PSI = as_operator(np.diag([1.0, 2.0])), np.array([1.0, 0.0])
HUGE = 10**400  # an int beyond the float range
FITS = [FringeFit(0.5, 0.49, scale, 0.3, 0.0, np.zeros((4, 4))) for scale in (-1.42, -0.767)]

# (call with "x" in the argument's place, the argument's name, values
# outside its rule besides NaN, +-inf, a bool and a string)
ARGUMENTS = [
    ("gravity_from_delta_p(x, 0.98, -1.42, -0.767, 1.58e8, CONST)", "delta_p_mean", [HUGE]),
    ("gravity_from_delta_p(1e-4, x, -1.42, -0.767, 1.58e8, CONST)", "contrast", [0.0, 1.5]),
    ("gravity_from_delta_p(1e-4, 0.98, x, -0.767, 1.58e8, CONST)", "scale1_s2_per_m", [HUGE]),
    ("gravity_from_delta_p(1e-4, 0.98, -1.42, x, 1.58e8, CONST)", "scale2_s2_per_m", [HUGE]),
    ("gravity_from_delta_p(1e-4, 0.98, -1.42, -0.767, x, CONST)", "alpha_rad_per_s2", [HUGE]),
    ("squeezing_from_pairs(SERIES + 1.0, x, 1.0)", "mean_atoms_sum", [0.0, -1.0]),
    ("squeezing_from_pairs(SERIES + 1.0, 100.0, x)", "contrast", [0.0, 1.5]),
    ("metrological_squeezing(PAIRED, contrast=x)", "contrast", [0.0, 1.5]),
    ("allan_deviation(SERIES, x)", "tau0_s", [0.0, -1.0]),
    ("phase_noise_budget(x, 6000.0)", "sigma_phi_rad", [-1e-3]),
    ("phase_noise_budget(1e-3, x)", "atoms", [0.0]),
    ("envelope(SHAPE, x)", "t", [-1e-9, SHAPE.duration_s + 1e-9]),
    ("accumulated_area(SHAPE, x)", "t", [-1e-9, SHAPE.duration_s + 1e-9]),
    ("pulse_sensitivity(SHAPE, x)", "t", [-1e-9, SHAPE.duration_s + 1e-9]),
    ("transfer_probability(SHAPE, x)", "detuning_rad_s", [HUGE]),
    ("transfer_probability(SHAPE, 0.0, x)", "detuning_model", ["quadratic"]),
    ("averaged_transfer(SHAPE, x, 1.0)", "detuning_mean_rad_s", [HUGE]),
    ("averaged_transfer(SHAPE, 0.0, x)", "detuning_sigma_rad_s", [-1.0]),
    ("averaged_transfer(SHAPE, 0.0, 1.0, x)", "detuning_model", ["quadratic"]),
    ("gravity_sensitivity(TIMING, x)", "t", [HUGE]),
    ("simulate_shot(CampaignConfig(n_pairs=2), TIMING, CONST, NOISE, x)", "shot index", [-1, 2**63]),
    ("tomography_variance(MODEL, x)", "phi_rad", [HUGE]),
    ("squeezing_parameter(x, 6000.0)", "variance_atoms2", [0.0]),
    ("squeezing_parameter(1500.0, x)", "atom_number", [0.0]),
    ("calibrate_model(x, 9.9, 6000.0)", "min_db", [HUGE]),
    ("calibrate_model(-5.4, x, 6000.0)", "max_db", [HUGE]),
    ("calibrate_model(-5.4, 9.9, x)", "atom_number", [0.0]),
    ("coherent_model(x)", "atom_number", [0.0]),
    ("evolve(H, PSI, x)", "duration", [HUGE]),
    ("occupation_distribution(vacuum_state(SPACE), SPACE, x)", "mode", [2, -1]),
    ("fringe_intersection(FITS, CONST, x)", "alpha_center_rad_per_s2", [HUGE]),
]


def refusal_cases():
    for call, name, outside in ARGUMENTS:
        for value in [math.nan, math.inf, -math.inf, True, "1", *outside]:
            label = "10**400" if value is HUGE else repr(value)
            yield pytest.param(call, name, value, id=f"{call.split('(')[0]}-{name}-{label}")


@pytest.mark.parametrize("call, name, value", refusal_cases())
def test_public_function_refuses_a_bad_scalar_naming_it(call, name, value):
    error = ConfigError if name == "detuning_model" else DomainError
    with pytest.raises(error, match=f"^{re.escape(name)} must be .+, got {re.escape(repr(value))}$"):
        eval(call, globals() | {"x": value})


# (call with "x" in the argument's place, the argument's name, a value inside its
# rule, values outside it besides NaN and +-inf) of the arguments that take an
# array of numbers as well as a number
ARRAY_ARGUMENTS = [
    ("envelope(SHAPE, x)", "t", SHAPE.duration_s / 2, [-1e-9, SHAPE.duration_s + 1e-9]),
    ("accumulated_area(SHAPE, x)", "t", SHAPE.duration_s / 2, [-1e-9, SHAPE.duration_s + 1e-9]),
    ("pulse_sensitivity(SHAPE, x)", "t", SHAPE.duration_s / 2, [-1e-9, SHAPE.duration_s + 1e-9]),
    ("tomography_variance(MODEL, x)", "phi_rad", 1.0, []),
    ("squeezing_parameter(x, 6000.0)", "variance_atoms2", 1500.0, [0.0, -1.0]),
]


def array_refusal_cases():
    for call, name, inside, outside in ARRAY_ARGUMENTS:
        for value in [math.nan, math.inf, -math.inf, *outside]:
            yield pytest.param(call, name, inside, value, id=f"{call.split('(')[0]}-{name}-{value!r}")


@pytest.mark.parametrize("call, name, inside, value", array_refusal_cases())
def test_public_function_refuses_an_array_with_one_bad_element_naming_it(call, name, inside, value):
    # the words of the refusal of that one value (see the scalar test above), then the element's index
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must ") as alone:
        eval(call, globals() | {"x": value})
    with pytest.raises(DomainError, match=f"^{re.escape(str(alone.value))} at index 2$"):
        eval(call, globals() | {"x": np.array([inside, inside, value, inside])})


# (value, whether it is a number): numpy floats of every width, ints at the
# edge of the float range, and what is never a number
NUMBERS = [
    *[(kind(1.3), True) for kind in (np.float16, np.float32, np.float64, np.longdouble)],
    *[(kind(-np.finfo(kind).max), True) for kind in (np.float16, np.float32)],
    (np.float64(sys.float_info.max), True),
    (np.longdouble("1e400"), False),  # finite in its own type, beyond the float range
    *[(kind(v), False) for kind in (np.float16, np.float32, np.float64, np.longdouble) for v in ("nan", "inf", "-inf")],
    (np.int64(-3), True),
    (10**308, True),
    (10**309, False),
    (-(10**309), False),
    (math.nan, False),
    (math.inf, False),
    (-math.inf, False),
    (True, False),
    (False, False),
    (np.True_, False),
]


@pytest.mark.parametrize("value, passes", NUMBERS, ids=[f"{type(v).__name__}-{str(v)[:12]}" for v, _ in NUMBERS])
def test_a_number_of_any_width_is_judged_without_a_warning(value, passes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert NUMBER.test(value) == passes
        if passes:
            HamiltonianParams(zeeman_q_rad_s=value)
        else:
            with pytest.raises(ConfigError, match="zeeman_q_rad_s must be a finite number"):
                HamiltonianParams(zeeman_q_rad_s=value)


# finite arguments whose result leaves the float range: (call, the result
# named, the arguments as the error lists them)
OVERFLOWS = [
    (
        "tomography_variance(SqueezingModel(strength=400.0), 1.0)",
        "the imbalance variance",
        f"model={SqueezingModel(strength=400.0)!r}, phi_rad=1.0",
    ),
    ("calibrate_model(1e6, 1e6, 6000.0)", "10^(max_db/10)", "min_db=1000000.0, max_db=1000000.0"),
    ("phase_noise_budget(1e200, 6000.0)", "atoms * sigma_phi_rad^2", "sigma_phi_rad=1e+200, atoms=6000.0"),
    ("squeezing_parameter(1e300, 1e-300)", "4 Var / N", "variance_atoms2=1e+300, atom_number=1e-300"),
    # 4 Var / N underflows to 0, whose log10 is a math domain error
    ("squeezing_parameter(1e-300, 1e300)", "4 Var / N", "variance_atoms2=1e-300, atom_number=1e+300"),
    # phi_rad - optimal_phase_rad overflows, and cos(inf) is NaN
    (
        "tomography_variance(SqueezingModel(strength=1.0, optimal_phase_rad=-1.7e308), 1.7e308)",
        "the imbalance variance",
        f"model={SqueezingModel(strength=1.0, optimal_phase_rad=-1.7e308)!r}, phi_rad=1.7e+308",
    ),
    # d N / 4 overflows before its square root
    ("calibrate_model(3000.0, 3000.0, 1e10)", "sigma_det", "min_db=3000.0, max_db=3000.0, atom_number=10000000000.0"),
    # N is no float; then (N + 1)(N + 2) under the block's square root overflows
    ("pump_block(SPACE, HamiltonianParams(pump_atoms=HUGE))", "(N + 1)(N + 2)", f"pump_atoms={HUGE!r}"),
    ("pump_block(SPACE, HamiltonianParams(pump_atoms=10**200))", "(N + 1)(N + 2)", f"pump_atoms={10**200!r}"),
    # e^(2r) is a float, its product with N/4 and sin^2 is not
    (
        "tomography_variance(SqueezingModel(strength=354.0), 1.0)",
        "the imbalance variance",
        f"model={SqueezingModel(strength=354.0)!r}, phi_rad=1.0",
    ),
    # the squares overflow; then they underflow to 0, which nonzero differences are not
    ("squeezing_from_pairs(np.array([1e200, 2e200]), 100.0, 1.0)", "the squeezing",
     "max_abs_imbalance_diff=2e+200, mean_atoms_sum=100.0, contrast=1.0"),
    ("squeezing_from_pairs(np.array([1e-200, 2e-200]), 100.0, 1.0)", "the squeezing",
     "max_abs_imbalance_diff=2e-200, mean_atoms_sum=100.0, contrast=1.0"),
    # m tau0 at m = 2; then a deviation of 2 * 1.7e308 / sqrt(2) at m = 1
    ("allan_deviation(np.arange(40.0), 1e308)", "tau_s", "m=2, tau0_s=1e+308"),
    ("allan_deviation(np.array([1.7e308, -1.7e308] * 20), 1.0)", "the Allan deviation", "m=1, max_abs_series=1.7e+308"),
    # finite mean and width, but mean + sqrt(2) sigma x at the widest Gauss-Hermite node x is not
    (
        "averaged_transfer(SHAPE, 1e308, 1e308)",
        "the widest quadrature detuning",
        "detuning_mean_rad_s=1e+308, detuning_sigma_rad_s=1e+308",
    ),
    # the sum of the window's two ends at a centre near the float limit
    ("fringe_intersection(FITS, CONST, 1.7e308)", "the one-beat window",
     "scales=[-1.42, -0.767], alpha_center_rad_per_s2=1.7e+308"),
    # k_eff times the two lobe sums
    (
        "scale_factor(SequenceTiming(pulse_s=1e200), PhysicalConstants())",
        "scale_s2_per_m",
        f"pulse_s=1e+200, separation_s={SequenceTiming().separation_s!r}, "
        f"free_evolution_s={SequenceTiming().free_evolution_s!r}, k_eff_per_m={PhysicalConstants().k_eff_per_m!r}",
    ),
]


NAMES = [call.split("(")[0] for call, _, _ in OVERFLOWS]
IDS = [f"{n}-{NAMES[:k].count(n) + 1}" if n in NAMES[:k] else n for k, n in enumerate(NAMES)]  # squeezing_parameter-2


@pytest.mark.parametrize("call, result, arguments", OVERFLOWS, ids=IDS)
def test_a_result_beyond_the_float_range_is_a_domain_error_naming_the_arguments(call, result, arguments):
    with pytest.raises(DomainError, match=f"^{re.escape(result)} leaves the float range at {re.escape(arguments)}$"):
        eval(call)


DELTAS = replace(delta_p(SHOTS[:10]), values=np.array([1e-3, 2e-3, 0.0, math.nan, 1e-3]))
# a fringe fit_fringe fits: 40 (alpha, p) points over 1.4 periods of S = -1.42 s^2/m
FRINGE_X = np.linspace(9.8126 - 3.1, 9.8126 + 3.1, 40)
FRINGE = np.column_stack([FRINGE_X * CONST.k_eff_per_m, 0.5 + 0.49 * np.cos(-1.42 * FRINGE_X + 0.3)])


def spoiled(row, col, value):
    """FRINGE with one element set to `value`."""
    points = FRINGE.copy()
    points[row, col] = value
    return points


@pytest.mark.parametrize(
    "call, name, element, index",
    [
        ("allan_deviation(np.r_[math.nan, np.zeros(40)], 1.0)", "series", "nan", 0),
        ("allan_deviation(np.r_[np.zeros(20), -math.inf, np.zeros(20)], 1.0)", "series", "-inf", 20),
        ("squeezing_from_pairs(np.array([1.0, math.nan, 2.0]), 100.0, 1.0)", "imbalance_diff", "nan", 1),
        ("squeezing_from_pairs(np.array([1.0, 2.0, math.inf]), 100.0, 1.0)", "imbalance_diff", "inf", 2),
        ("estimate_g(DELTAS, 0.98, -1.42, -0.767, 1.58e8, CONST)", "deltas.values", "nan", 3),
        # the first bad element of fit_fringe's (n, 2) points, as (row, column)
        ("fit_fringe(spoiled(3, 0, math.nan), CONST)", "points", "nan", (3, 0)),
        ("fit_fringe(spoiled(0, 0, math.inf), CONST)", "points", "inf", (0, 0)),
        ("fit_fringe(spoiled(39, 0, -math.inf), CONST)", "points", "-inf", (39, 0)),
        ("fit_fringe(spoiled(5, 1, math.nan), CONST)", "points", "nan", (5, 1)),
        ("fit_fringe(spoiled(0, 1, math.inf), CONST)", "points", "inf", (0, 1)),
        ("fit_fringe(spoiled(39, 1, -math.inf), CONST)", "points", "-inf", (39, 1)),
        ("evolve(H, np.array([math.nan, 0.0]), 1.0)", "state", "nan", 0),
        ("evolve(H, np.array([1.0, -math.inf]), 1.0)", "state", "-inf", 1),
        # the entries H stores, in row order: the diagonal of np.diag, the upper entry first
        ("as_operator(np.diag([1.0, math.nan]))", "SparseOperator.data", "nan", 1),
        ("as_operator(np.array([[1.0, math.inf], [math.inf, 2.0]]))", "SparseOperator.data", "inf", 1),
        ("as_operator(np.diag([-math.inf, 1.0]))", "SparseOperator.data", "-inf", 0),
    ],
    ids=lambda v: v.split("(")[0] if isinstance(v, str) and "(" in v else None,
)
def test_an_array_argument_is_checked_element_by_element(call, name, element, index):
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must hold finite numbers, got {element} at index {re.escape(str(index))}$"):
        eval(call)


@pytest.mark.parametrize(
    "call, message",
    [
        ("evolve(H, np.array([1.0]), 1.0)", "state must have shape (2,)"),
        ("evolve(H, np.zeros((2, 1)), 1.0)", "state must have shape (2,)"),
        ("evolve(H, np.zeros(3), 1.0)", "state must have shape (2,)"),
        ("SparseOperator((2, 3), [], [], [], [0, 0])", "SparseOperator.shape must be square, got (2, 3)"),
        ("SparseOperator((3, 2), [], [], [], [0, 0, 0])", "SparseOperator.shape must be square, got (3, 2)"),
        # coordinate arrays that are no indices of H, or labels that are not one per index
        ("SparseOperator((2, 2), [0, 2], [0, 1], [1.0, 1.0], [0, 0])", "SparseOperator.rows must hold indices in [0, 2)"),
        ("SparseOperator((2, 2), [0, 1], [0, -1], [1.0, 1.0], [0, 0])", "SparseOperator.cols must hold indices in [0, 2)"),
        # read before the copy to int32, where 2**32 would wrap to index 0
        ("SparseOperator((2, 2), [0, 2**32], [0, 1], [1.0, 1.0], [0, 0])", "SparseOperator.rows must hold indices in [0, 2)"),
        ("SparseOperator((2, 2), [0, 1], [0], [1.0, 1.0], [0, 0])", "SparseOperator.cols must have shape (2,)"),
        ("SparseOperator((2, 2), [0, 1], [0, 1], [1.0], [0, 0])", "SparseOperator.data must have shape (2,)"),
        ("SparseOperator((2, 2), [0, 1], [0, 1], [1.0, 1.0], [0])", "SparseOperator.sector must have shape (2,)"),
        ("SparseOperator((2, 2), [0.0, 1.0], [0, 1], [1.0, 1.0], [0, 0])", "SparseOperator.rows must be 1-d integers, got float64 (2,)"),
        ("SparseOperator((2, 2), [0, 1], [0, 1], [1.0, 1.0], [0.5, 0.5])", "SparseOperator.sector must be 1-d integers, got float64 (2,)"),
        ("SparseOperator((2, 2), [0, 1], [0, 1], [1.0, [2.0]], [0, 0])", "SparseOperator.data must be an array of numbers, got a ragged sequence"),
        ("SparseOperator((2, 2), [0, 1], [1, 0], [1.0, 1.0], [0, 1])", "SparseOperator entry at (0, 1) joins sectors 0 and 1"),
        # a state numpy reads as no array of numbers
        ("evolve(H, [[1.0], [0.0, 1.0]], 1.0)", "state must be an array of numbers, got a ragged sequence"),
        ("evolve(H, [1.0, [0.0]], 1.0)", "state must be an array of numbers, got a ragged sequence"),
        ("evolve(H, ['1.0', '0.0'], 1.0)", "state must be an array of numbers, got dtype <U3"),
        ("evolve(H, [None, 0.0], 1.0)", "state must be an array of numbers, got dtype object"),
        ("evolve(H, [True, False], 1.0)", "state must be an array of numbers, got dtype bool"),
        ("mode_transform([[1.0], [0.0, 1.0]], SPACE)", "state must be an array of numbers, got a ragged sequence"),
        ("mode_transform(['a'] * SPACE.dim, SPACE)", "state must be an array of numbers, got dtype <U1"),
        ("occupation_distribution(np.zeros(5), FockSpace(n_max=4))", "state must have shape (25,)"),
        ("mean_occupations(np.zeros((5, 5)), SPACE)", "state must have shape (25,)"),
        # the array arguments of the analysis, read by the same helper
        ("allan_deviation([[1.0], [2.0, 3.0]] * 20, 1.0)", "series must be an array of numbers, got a ragged sequence"),
        ("allan_deviation(['a'] * 40, 1.0)", "series must be an array of numbers, got dtype <U1"),
        ("fit_fringe([[1.0, 0.5], [2.0]] * 8, CONST)", "points must be an array of numbers, got a ragged sequence"),
        ("fit_fringe([['1.0', '0.5']] * 8, CONST)", "points must be an array of numbers, got dtype <U3"),
        ("squeezing_from_pairs([[1.0], [2.0, 3.0]], 100.0, 1.0)", "imbalance_diff must be an array of numbers, got a ragged sequence"),
        ("squeezing_from_pairs([True, False], 100.0, 1.0)", "imbalance_diff must be an array of numbers, got dtype bool"),
    ],
    ids=[
        "state-of-1", "column-state", "state-of-3", "hamiltonian-2x3", "hamiltonian-3x2",
        "row-past-the-end", "negative-col", "row-beyond-int32", "short-cols", "short-data", "short-sector", "float-rows",
        "float-sector", "ragged-data", "entry-across-sectors",
        "ragged-state", "ragged-nested-state", "string-state", "none-state", "bool-state",
        "transform-ragged-state", "transform-string-state", "distribution-state-of-5", "occupations-square-state",
        "allan-ragged-series", "allan-string-series", "fringe-ragged-points", "fringe-string-points",
        "pairs-ragged-diffs", "pairs-bool-diffs",
    ],
)
def test_an_argument_of_the_wrong_shape_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        eval(call)


def test_a_state_is_read_as_an_array():
    # a list, a tuple or an int array is the numpy array it reads as
    want = evolve(H, PSI, 1.0)
    for state in ([1.0, 0.0], (1.0, 0.0), np.array([1, 0])):
        assert evolve(H, state, 1.0).tobytes() == want.tobytes()
    psi = np.arange(SPACE.dim) / np.linalg.norm(np.arange(SPACE.dim))
    assert mode_transform(psi.tolist(), SPACE).tobytes() == mode_transform(psi, SPACE).tobytes()

