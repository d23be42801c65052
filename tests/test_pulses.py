"""Pulse-level mathematics: envelope, areas, sensitivity ramp, transfer.

Expected numbers come from independent routes wherever the value is
not trivially known: a closed-form generalized-Rabi expression (exact
for the envelope-following detuning model, where the Hamiltonian
direction is time-independent), a hand-rolled fixed-step RK4 integrator
that shares no code with the production solver, scipy's DOP853 at a tight
tolerance, first-order perturbation theory far from resonance, and scipy's
expm of the constant Hamiltonian of a square pulse.
"""

import math
import re
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gravlab import (
    ConfigError,
    DomainError,
    PulseShape,
    accumulated_area,
    averaged_transfer,
    envelope,
    pulse_sensitivity,
    transfer_probability,
)
from gravlab.pulses import TRANSFER_NODES

TAU_EFF = 64.8e-6  # effective pi-pulse duration used in the transfer checks

# frozen outputs of the DOP853 solver at rtol=1e-9, recorded once and
# cross-checked below against the closed form / RK4 routes
FROZEN_P_ENVELOPE_2500 = 0.9816131451203984
FROZEN_P_CONSTANT_2500 = 0.9704719876320549
FROZEN_P_ENVELOPE_50K = 0.11600727241571594
FROZEN_AVG_MEAN = 0.980904279722175
FROZEN_AVG_STD = 0.007358689385495265


def blackman_literal(x):
    return 0.42 - 0.5 * np.cos(2 * np.pi * x) + 0.08 * np.cos(4 * np.pi * x)


def rabi_closed_form(shape: PulseShape, detuning: float) -> float:
    """Exact transfer for the envelope model: Rabi rate and detuning share
    the window, so the rotation axis is fixed and only the accumulated
    generalized area matters."""
    om0 = shape.peak_rabi_rad_s
    w = math.hypot(om0, detuning)
    area = w * 0.42 * shape.duration_s
    return (om0 / w) ** 2 * math.sin(area / 2.0) ** 2


def rk4_transfer(shape: PulseShape, detuning: float, model: str, steps: int = 6000) -> float:
    """Independent fixed-step RK4 oracle for the two-level transfer."""
    om0 = shape.peak_rabi_rad_s
    tau = shape.duration_s

    def rhs(t, y):
        w = float(blackman_literal(t / tau))
        om = om0 * w
        de = detuning * w if model == "envelope" else detuning
        cg, ce = y
        return np.array(
            [
                -1j * (-0.5 * de * cg + 0.5 * om * ce),
                -1j * (0.5 * om * cg + 0.5 * de * ce),
            ]
        )

    y = np.array([1.0 + 0j, 0.0 + 0j])
    h = tau / steps
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return abs(y[1]) ** 2


class TestEnvelope:
    def test_endpoint_zeros_are_exact(self):
        for tau in (1e-6, 60e-6, 64.8e-6, 1e-3):
            sh = PulseShape(duration_s=tau)
            assert envelope(sh, 0.0) == 0.0
            assert envelope(sh, tau) == 0.0

    def test_peak_is_exactly_one_at_center(self):
        sh = PulseShape(duration_s=60e-6)
        assert envelope(sh, 30e-6) == 1.0

    def test_matches_literal_three_term_form(self):
        sh = PulseShape(duration_s=60e-6)
        ts = np.linspace(0, 60e-6, 1001)[1:-1]
        ours = np.array([envelope(sh, float(t)) for t in ts])
        assert np.max(np.abs(ours - blackman_literal(ts / 60e-6))) < 5e-16

    def test_nonnegative_everywhere(self):
        sh = PulseShape(duration_s=123e-6)
        ts = np.linspace(0, 123e-6, 2000)
        assert all(envelope(sh, float(t)) >= 0.0 for t in ts)

    def test_outside_support_raises(self):
        sh = PulseShape()
        with pytest.raises(DomainError):
            envelope(sh, -1e-9)
        with pytest.raises(DomainError):
            envelope(sh, sh.duration_s + 1e-9)

    def test_square_envelope_is_flat(self):
        sh = PulseShape(kind="square", duration_s=10e-6)
        assert envelope(sh, 0.0) == 1.0
        assert envelope(sh, 5e-6) == 1.0


class TestAccumulatedArea:
    @pytest.mark.parametrize("tau", [1e-6, 17e-6, 60e-6, 1e-3])
    def test_reaches_sensitivity_area_exactly(self, tau):
        sh = PulseShape(duration_s=tau)
        assert accumulated_area(sh, tau) == math.pi / 2

    def test_starts_at_zero(self):
        sh = PulseShape()
        assert accumulated_area(sh, 0.0) == 0.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(11)
        for tau in rng.uniform(1e-6, 1e-3, size=20):
            sh = PulseShape(duration_s=float(tau))
            ts = np.linspace(0, tau, 400)
            areas = [accumulated_area(sh, float(t)) for t in ts]
            assert all(b >= a for a, b in zip(areas, areas[1:]))

    def test_square_pulse_area_is_linear(self):
        sh = PulseShape(kind="square", duration_s=80e-6)
        assert accumulated_area(sh, 40e-6) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_matches_trapezoid_of_envelope(self):
        # independent route: numerically integrate the envelope itself
        sh = PulseShape(duration_s=60e-6)
        ts = np.linspace(0, 60e-6, 200001)
        w = envelope(sh, ts)
        total = np.trapezoid(w, ts)
        mid = np.trapezoid(w[:100001], ts[:100001])
        expect = (math.pi / 2) * mid / total
        assert accumulated_area(sh, 30e-6) == pytest.approx(expect, abs=1e-9)


class TestSensitivityRamp:
    def test_endpoints(self):
        sh = PulseShape()
        assert pulse_sensitivity(sh, 0.0) == 0.0
        assert pulse_sensitivity(sh, sh.duration_s) == 1.0

    def test_in_unit_interval_and_nondecreasing(self):
        sh = PulseShape(duration_s=77e-6)
        ts = np.linspace(0, 77e-6, 500)
        vals = [pulse_sensitivity(sh, float(t)) for t in ts]
        assert min(vals) >= 0.0 and max(vals) <= 1.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


PULSE_FUNCTIONS = [envelope, accumulated_area, pulse_sensitivity]


class TestArrayCalls:
    """A time is a batch of one: an array call gives the bits of one scalar call per element."""

    @pytest.mark.parametrize("kind", ["blackman", "square"])
    @pytest.mark.parametrize("function", PULSE_FUNCTIONS, ids=lambda f: f.__name__)
    def test_array_call_gives_the_bits_of_scalar_calls(self, kind, function):
        sh = PulseShape(kind=kind, duration_s=64.8e-6)
        # the exact endpoints and centre, a grid, and every float just inside each end
        ts = np.r_[0.0, sh.duration_s / 2, sh.duration_s, np.linspace(0.0, sh.duration_s, 1001)]
        ts = np.r_[ts, np.nextafter(0.0, 1.0), np.nextafter(sh.duration_s, 0.0)]
        scalars = [function(sh, t) for t in ts.tolist()]
        assert all(type(v) is float for v in scalars)
        got = function(sh, ts)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == ts.shape
        assert got.tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("function", PULSE_FUNCTIONS, ids=lambda f: f.__name__)
    def test_list_and_int_times_read_as_arrays(self, function):
        sh = PulseShape(duration_s=2.0)
        assert function(sh, [0, 1, 2]).tobytes() == np.array([function(sh, t) for t in (0, 1, 2)]).tobytes()
        grid = np.array([[0.0, 0.5], [1.5, 2.0]])
        assert function(sh, grid).tobytes() == np.array([function(sh, t) for t in grid.ravel().tolist()]).tobytes()

    @pytest.mark.parametrize("function", PULSE_FUNCTIONS, ids=lambda f: f.__name__)
    def test_an_empty_array_gives_an_empty_result(self, function):
        got = function(PulseShape(), np.array([]))
        assert got.shape == (0,) and got.dtype == np.float64

    # one bad element of a 1-d array: tests/test_exports.py, with every other array argument
    @pytest.mark.parametrize("function", PULSE_FUNCTIONS, ids=lambda f: f.__name__)
    def test_the_first_bad_element_of_an_n_d_array_is_named_by_row_and_column(self, function):
        sh = PulseShape()
        ts = np.zeros((2, 3))
        ts[1, 2], ts[1, 0] = math.nan, -1.0
        with pytest.raises(DomainError, match=re.escape("got -1.0 at index (1, 0)") + "$"):
            function(sh, ts)

    @pytest.mark.parametrize("function", PULSE_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("times", [np.array([True, False]), np.array([1e-6 + 0j]), ["1e-6"], [[0.0], [0.0, 1e-6]]])
    def test_an_array_that_is_not_real_numbers_is_refused(self, function, times):
        with pytest.raises(DomainError, match="^t must be an array of numbers, got "):
            function(PulseShape(), times)


class TestShapeValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            PulseShape(kind="hann")

    def test_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            PulseShape(duration_s=0.0)

    def test_nonpositive_area(self):
        with pytest.raises(ConfigError):
            PulseShape(area_rad=-1.0)

    @pytest.mark.parametrize(
        "kind, area, duration",
        [("blackman", 1e308, 60e-6), ("square", 1e308, 1e-6), ("square", 1.0, 1e-320), ("blackman", math.pi, 5e-324)],
    )
    def test_peak_rabi_beyond_float_range_names_area_and_duration(self, kind, area, duration):
        with pytest.raises(DomainError, match=re.escape(f"pulse area {area} rad over {duration} s")):
            PulseShape(kind=kind, area_rad=area, duration_s=duration)

    def test_peak_rabi_realizes_area(self):
        sh = PulseShape(duration_s=60e-6)
        # integral of peak * window over the pulse equals the physical area
        assert sh.peak_rabi_rad_s * 0.42 * sh.duration_s == pytest.approx(math.pi, rel=1e-15)


def dop853_transfer(shape: PulseShape, deltas: np.ndarray) -> np.ndarray:
    """Constant-detuning transfer by scipy's DOP853 at rtol 1e-13, all detunings in one solve."""
    om0, tau, n = shape.peak_rabi_rad_s, shape.duration_s, len(deltas)

    def rhs(t, y):
        om = om0 * blackman_literal(t / tau)
        cg, ce = y[:n], y[n:]
        return np.concatenate((-1j * (-0.5 * deltas * cg + 0.5 * om * ce), -1j * (0.5 * om * cg + 0.5 * deltas * ce)))

    y0 = np.concatenate((np.ones(n), np.zeros(n))).astype(complex)
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=1e-13, atol=1e-16)
    assert sol.success, sol.message
    return np.abs(sol.y[n:, -1]) ** 2


def first_order_transfer(shape: PulseShape, detuning: float) -> float:
    """|integral of Omega(t)/2 exp(i delta t) dt|^2 over the pulse, by 8-node
    Gauss-Legendre quadrature on panels of at most one radian of detuning phase."""
    x, w = np.polynomial.legendre.leggauss(8)
    panels = max(1000, math.ceil(abs(detuning) * shape.duration_s))
    half = shape.duration_s / panels / 2
    t = (2 * np.arange(panels) + 1)[:, None] * half + half * x
    f = 0.5 * shape.peak_rabi_rad_s * blackman_literal(t / shape.duration_s) * np.exp(1j * detuning * t)
    return abs(half * np.sum(w * f)) ** 2


class TestTransfer:
    def test_resonant_pi_pulse_is_complete(self):
        sh = PulseShape(duration_s=TAU_EFF)
        assert transfer_probability(sh, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_envelope_model_matches_closed_form(self):
        sh = PulseShape(duration_s=TAU_EFF)
        for f in (500.0, 2500.0, 10e3, 50e3):
            got = transfer_probability(sh, 2 * math.pi * f)
            assert got == pytest.approx(rabi_closed_form(sh, 2 * math.pi * f), abs=2e-9)

    def test_envelope_model_frozen_values(self):
        sh = PulseShape(duration_s=TAU_EFF)
        assert transfer_probability(sh, 2 * math.pi * 2500.0) == pytest.approx(
            FROZEN_P_ENVELOPE_2500, abs=1e-8
        )
        assert transfer_probability(sh, 2 * math.pi * 50e3) == pytest.approx(
            FROZEN_P_ENVELOPE_50K, abs=1e-8
        )

    def test_constant_model_frozen_value_and_rk4(self):
        sh = PulseShape(duration_s=TAU_EFF)
        got = transfer_probability(sh, 2 * math.pi * 2500.0, detuning_model="constant")
        assert got == pytest.approx(FROZEN_P_CONSTANT_2500, abs=1e-8)
        assert got == pytest.approx(
            rk4_transfer(sh, 2 * math.pi * 2500.0, "constant"), abs=1e-8
        )

    def test_envelope_model_against_rk4(self):
        sh = PulseShape(duration_s=TAU_EFF)
        got = transfer_probability(sh, 2 * math.pi * 7000.0)
        assert got == pytest.approx(rk4_transfer(sh, 2 * math.pi * 7000.0, "envelope"), abs=1e-8)

    def test_detuning_sign_symmetry(self):
        sh = PulseShape(duration_s=TAU_EFF)
        d = 2 * math.pi * 3000.0
        assert transfer_probability(sh, d) == pytest.approx(
            transfer_probability(sh, -d), abs=1e-10
        )

    def test_unknown_model_rejected(self):
        sh = PulseShape()
        with pytest.raises(ConfigError):
            transfer_probability(sh, 0.0, detuning_model="quadratic")

    @pytest.mark.parametrize("model", ["envelope", "constant"])
    def test_square_pulse_matches_expm(self, model):
        # a square pulse has a constant Hamiltonian under either model
        for tau, area, f in ((20e-6, math.pi, 7000.0), (64.8e-6, math.pi / 2, 2500.0), (5e-6, 3.0, -40e3)):
            sh = PulseShape(kind="square", duration_s=tau, area_rad=area)
            om, d = sh.peak_rabi_rad_s, 2 * math.pi * f
            ham = 0.5 * np.array([[-d, om], [om, d]])
            excited = (expm(-1j * ham * tau) @ np.array([1.0, 0.0]))[1]
            assert transfer_probability(sh, d, model) == pytest.approx(abs(excited) ** 2, abs=1e-12)


class TestConstantDetuningMagnus:
    # areas from a quarter of pi to 10 pi, each at delta / Omega0 from 0 to 10
    @pytest.mark.parametrize("area", [math.pi / 4, math.pi, 3 * math.pi, 10 * math.pi])
    def test_matches_dop853_within_1e_9(self, area):
        sh = PulseShape(area_rad=area)
        deltas = sh.peak_rabi_rad_s * np.array([0.0, 0.01, -0.1, 0.3, 1.0, -3.0, 10.0])
        got = np.array([transfer_probability(sh, float(d), "constant") for d in deltas])
        assert np.abs(got - dop853_transfer(sh, deltas)).max() <= 1e-9

    # 400.5 and 9600.5 turns over the 60 us pulse: a fixed grid of 400 steps
    # would alias them to half a turn per pulse and err by 3e-6 and 6e-9; a
    # half turn is where the first-order transfer peaks
    @pytest.mark.parametrize("detuning", [2 * math.pi * 400.5 / 60e-6, 2 * math.pi * 9600.5 / 60e-6, 1e9])
    def test_far_detuning_matches_first_order_theory(self, detuning):
        sh = PulseShape()
        start = time.process_time()
        got = transfer_probability(sh, detuning, "constant")
        assert time.process_time() - start < 1.0
        # 1e-12 absolute, a thousandth of the 1e-9 bound: first-order theory
        # leaves out the light shift, about 1 % of transfers below 1e-17 here
        assert got == pytest.approx(first_order_transfer(sh, detuning), abs=1e-12)

    @pytest.mark.parametrize("detuning", [1e160, 1e300])
    def test_envelope_model_at_a_huge_detuning_is_negligible(self, detuning):
        # the transfer is below (Omega0 / delta)^2 < 1e-310
        assert 0.0 <= transfer_probability(PulseShape(), detuning) <= 1e-300

    @pytest.mark.parametrize("detuning", [1e160, 1e300, 1e12])
    def test_constant_model_beyond_the_step_budget_names_the_detuning(self, detuning):
        # at most one radian of detuning phase per step: delta * 60 us > 2^22 steps
        with pytest.raises(DomainError, match=f"^detuning {re.escape(repr(detuning))} rad/s over PulseShape"):
            transfer_probability(PulseShape(), detuning, "constant")

    def test_area_beyond_the_step_budget_is_refused(self):
        with pytest.raises(DomainError, match="needs more than 4194304 Magnus steps"):
            transfer_probability(PulseShape(area_rad=1e5), 0.0, "constant")

    @pytest.mark.parametrize("model", ["envelope", "constant"])
    def test_largest_finite_detuning(self, model):
        with pytest.raises(DomainError, match="1.7976931348623157e\\+308"):
            transfer_probability(PulseShape(), 1.7976931348623157e308, model)


class TestAveragedTransfer:
    def test_frozen_reference_point(self):
        sh = PulseShape(duration_s=TAU_EFF)
        mean, std = averaged_transfer(sh, 2 * math.pi * 2500.0, 2 * math.pi * 500.0)
        assert mean == pytest.approx(FROZEN_AVG_MEAN, abs=1e-8)
        assert std == pytest.approx(FROZEN_AVG_STD, abs=1e-8)

    def test_matches_monte_carlo(self):
        # independent route: brute-force Gaussian sampling of the closed form
        sh = PulseShape(duration_s=TAU_EFF)
        rng = np.random.default_rng(3)
        draws = 2 * math.pi * (2500.0 + 500.0 * rng.standard_normal(40000))
        probs = np.array([rabi_closed_form(sh, d) for d in draws])
        mean, std = averaged_transfer(sh, 2 * math.pi * 2500.0, 2 * math.pi * 500.0)
        assert mean == pytest.approx(float(np.mean(probs)), abs=4 * float(np.std(probs)) / 200.0)
        assert std == pytest.approx(float(np.std(probs)), rel=0.05)

    def test_constant_model_equals_node_by_node_sum(self):
        # one ODE solve carries every node; it must give what solving each
        # node on its own gives
        sh = PulseShape(duration_s=TAU_EFF)
        x, w = np.polynomial.hermite.hermgauss(TRANSFER_NODES)
        deltas = 2 * math.pi * (2500.0 + math.sqrt(2.0) * 500.0 * x)
        probs = np.array([transfer_probability(sh, float(d), "constant") for d in deltas])
        mean = float(np.sum(w * probs)) / math.sqrt(math.pi)
        got, _ = averaged_transfer(sh, 2 * math.pi * 2500.0, 2 * math.pi * 500.0, "constant")
        assert got == pytest.approx(mean, abs=1e-9)

    def test_zero_sigma_degenerates_to_point_value(self):
        sh = PulseShape(duration_s=TAU_EFF)
        mean, std = averaged_transfer(sh, 2 * math.pi * 2500.0, 0.0)
        assert std == 0.0
        assert mean == pytest.approx(transfer_probability(sh, 2 * math.pi * 2500.0), abs=1e-12)

    def test_negative_sigma_rejected(self):
        sh = PulseShape(duration_s=TAU_EFF)
        with pytest.raises(DomainError):
            averaged_transfer(sh, 0.0, -1.0)
