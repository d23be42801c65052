"""Pulse-level mathematics: envelope, areas, sensitivity ramp, transfer.

Expected numbers come from independent routes wherever the value is
not trivially known: a closed-form generalized-Rabi expression (exact
for the envelope-following detuning model, where the Hamiltonian
direction is time-independent), a hand-rolled fixed-step RK4 integrator
that shares no code with the production solver, and scipy's expm of the
constant Hamiltonian of a square pulse.
"""

import math

import numpy as np
import pytest
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
        w = np.array([envelope(sh, float(t)) for t in ts])
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

    def test_oversized_sensitivity_area_rejected(self):
        sh = PulseShape(sensitivity_area_rad=0.6 * math.pi)
        with pytest.raises(ConfigError):
            pulse_sensitivity(sh, 0.0)


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

    def test_peak_rabi_realizes_area(self):
        sh = PulseShape(duration_s=60e-6)
        # integral of peak * window over the pulse equals the physical area
        assert sh.peak_rabi_rad_s * 0.42 * sh.duration_s == pytest.approx(math.pi, rel=1e-15)


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
        x, w = np.polynomial.hermite.hermgauss(15)
        deltas = 2 * math.pi * (2500.0 + math.sqrt(2.0) * 500.0 * x)
        probs = np.array([transfer_probability(sh, float(d), "constant") for d in deltas])
        mean = float(np.sum(w * probs)) / math.sqrt(math.pi)
        got, _ = averaged_transfer(sh, 2 * math.pi * 2500.0, 2 * math.pi * 500.0, "constant", nodes=15)
        assert got == pytest.approx(mean, abs=1e-9)

    def test_zero_sigma_degenerates_to_point_value(self):
        sh = PulseShape(duration_s=TAU_EFF)
        mean, std = averaged_transfer(sh, 2 * math.pi * 2500.0, 0.0)
        assert std == 0.0
        assert mean == pytest.approx(transfer_probability(sh, 2 * math.pi * 2500.0), abs=1e-12)

    def test_node_floor_enforced(self):
        sh = PulseShape(duration_s=TAU_EFF)
        with pytest.raises(ConfigError):
            averaged_transfer(sh, 0.0, 1.0, nodes=10)

    def test_negative_sigma_rejected(self):
        sh = PulseShape(duration_s=TAU_EFF)
        with pytest.raises(DomainError):
            averaged_transfer(sh, 0.0, -1.0)
