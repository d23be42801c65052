"""Sequence sensitivity function and scale factor.

net_area and scale_factor are closed forms that follow from the ramp
symmetry: each lobe of the sensitivity function carries an area of
exactly +-(pulse + separation), and the time-weighted integral reduces to
the product of the lobe area and the lobe center separation. The
independent route is a piecewise scipy quad of gravity_sensitivity itself.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gravlab import (
    ConfigError,
    PhysicalConstants,
    SequenceTiming,
    gravity_sensitivity,
    net_area,
    phase_signal,
    scale_factor,
)

FROZEN_SCALE_T1 = 1.4386255468000027  # quadrature output at T = 455 us, defaults
FROZEN_SCALE_T2 = 0.7766812767999999  # quadrature output at T = 155 us


def quad_sensitivity(timing: SequenceTiming, weight, lo: float, hi: float) -> float:
    """Integral of g(t) * weight(t) over [lo, hi], split at the epoch edges
    so that each piece is smooth."""
    cuts = sorted({lo, hi, *[e for e in timing.breakpoints if lo < e < hi]})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, err = quad(
            lambda t: gravity_sensitivity(timing, t) * weight(t), a, b,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        assert err < 1e-8
        total += val
    return total


def random_timing(rng, start=True) -> SequenceTiming:
    return SequenceTiming(
        pulse_s=float(rng.uniform(5e-6, 120e-6)),
        separation_s=float(rng.uniform(10e-6, 250e-6)),
        free_evolution_s=float(rng.uniform(50e-6, 1.2e-3)),
        start_s=float(rng.uniform(-5e-3, 5e-3)) if start else 0.0,
    )


class TestPiecewiseShape:
    def test_epoch_values(self):
        tm = SequenceTiming()
        b = tm.breakpoints
        g = lambda t: gravity_sensitivity(tm, t)
        assert g(b[0]) == 0.0
        assert g((b[0] + b[1]) / 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert g(b[1]) == 1.0
        assert g((b[1] + b[2]) / 2) == 1.0
        assert g(b[3]) == pytest.approx(0.0, abs=1e-15)
        assert g((b[3] + b[4]) / 2) == 0.0
        assert g((b[4] + b[5]) / 2) == pytest.approx(-math.sqrt(0.5), abs=1e-12)
        assert g(b[5]) == -1.0
        assert g((b[5] + b[6]) / 2) == -1.0
        assert g(b[7]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_outside_sequence(self):
        tm = SequenceTiming(start_s=0.5)
        assert gravity_sensitivity(tm, 0.499) == 0.0
        assert gravity_sensitivity(tm, 0.5 + (tm.breakpoints[-1] - tm.start_s) + 1e-9) == 0.0

    def test_continuity_at_breakpoints(self):
        tm = SequenceTiming(pulse_s=33e-6, separation_s=81e-6, free_evolution_s=300e-6)
        eps = 1e-13
        for b in tm.breakpoints:
            left = gravity_sensitivity(tm, b - eps)
            right = gravity_sensitivity(tm, b + eps)
            assert left == pytest.approx(right, abs=1e-6)

    def test_second_lobe_is_negated_translate_of_first(self):
        # this translation antisymmetry is what makes the time-weighted
        # integral equal lobe_area * lobe_separation exactly
        tm = SequenceTiming()
        shift = 2 * tm.pulse_s + tm.separation_s + tm.free_evolution_s
        for t in np.linspace(0.0, 2 * tm.pulse_s + tm.separation_s, 157):
            assert gravity_sensitivity(tm, t + shift) == pytest.approx(
                -gravity_sensitivity(tm, float(t)), abs=1e-12
            )

    def test_translation_by_start_time(self):
        a = SequenceTiming(start_s=0.0)
        b = SequenceTiming(start_s=0.125)
        for t in np.linspace(0, a.breakpoints[-1] - a.start_s, 53):
            assert gravity_sensitivity(a, float(t)) == pytest.approx(
                gravity_sensitivity(b, float(t) + 0.125), abs=1e-12
            )


class TestAreas:
    def test_net_area_vanishes_default(self):
        tm = SequenceTiming()
        assert abs(net_area(tm)) < 1e-9 * (tm.pulse_s + tm.separation_s)

    def test_net_area_vanishes_for_random_timings(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            tm = random_timing(rng)
            assert abs(net_area(tm)) < 1e-9 * (tm.pulse_s + tm.separation_s)

    def test_net_area_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for tm in [SequenceTiming()] + [random_timing(rng) for _ in range(10)]:
            b = tm.breakpoints
            assert net_area(tm) == pytest.approx(
                quad_sensitivity(tm, lambda t: 1.0, b[0], b[7]), abs=1e-10
            )

    def test_positive_lobe_area_exact(self):
        tm = SequenceTiming()
        lobe_end = tm.start_s + 2 * tm.pulse_s + tm.separation_s
        area = quad_sensitivity(tm, lambda t: 1.0, tm.start_s, lobe_end)
        assert area == pytest.approx(tm.pulse_s + tm.separation_s, abs=1e-10)

    def test_negative_lobe_area_exact(self):
        tm = SequenceTiming()
        lobe_start = tm.start_s + 2 * tm.pulse_s + tm.separation_s + tm.free_evolution_s
        area = quad_sensitivity(tm, lambda t: 1.0, lobe_start, tm.start_s + (tm.breakpoints[-1] - tm.start_s))
        assert area == pytest.approx(-(tm.pulse_s + tm.separation_s), abs=1e-10)


class TestScaleFactor:
    def test_frozen_values(self):
        const = PhysicalConstants()
        s1 = scale_factor(SequenceTiming(free_evolution_s=455e-6), const)
        s2 = scale_factor(SequenceTiming(free_evolution_s=155e-6), const)
        assert s1 == pytest.approx(FROZEN_SCALE_T1, rel=1e-12)
        assert s2 == pytest.approx(FROZEN_SCALE_T2, rel=1e-12)

    def test_quadrature_matches_closed_form(self):
        const = PhysicalConstants()
        rng = np.random.default_rng(77)
        for _ in range(10):
            tm = random_timing(rng)
            b = tm.breakpoints
            weighted = quad_sensitivity(tm, lambda t: t - tm.start_s, b[0], b[7])
            assert scale_factor(tm, const) == pytest.approx(
                const.k_eff_per_m * abs(weighted), rel=1e-10
            )

    def test_linearity_identity_two_unrelated_pairs(self):
        const = PhysicalConstants()
        for t_a, t_b in ((455e-6, 155e-6), (821e-6, 97e-6)):
            sa = scale_factor(SequenceTiming(free_evolution_s=t_a), const)
            sb = scale_factor(SequenceTiming(free_evolution_s=t_b), const)
            tm = SequenceTiming()
            expect = const.k_eff_per_m * (tm.pulse_s + tm.separation_s) * (t_a - t_b)
            assert (sa - sb) == pytest.approx(expect, rel=1e-6)

    def test_independent_of_start_time(self):
        const = PhysicalConstants()
        s0 = scale_factor(SequenceTiming(start_s=0.0), const)
        s1 = scale_factor(SequenceTiming(start_s=3.25), const)
        assert s0 == pytest.approx(s1, rel=1e-9)


class TestPhaseSignal:
    def test_compensating_chirp_zeroes_phase(self):
        const = PhysicalConstants()
        s = scale_factor(SequenceTiming(), const)
        g = 9.812637
        assert phase_signal(g, g * const.k_eff_per_m, s, const) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_acceleration_offset(self):
        const = PhysicalConstants()
        s = scale_factor(SequenceTiming(), const)
        base = phase_signal(9.8126, 9.8126 * const.k_eff_per_m, s, const)
        bumped = phase_signal(9.8126 + 1e-6, 9.8126 * const.k_eff_per_m, s, const)
        assert bumped - base == pytest.approx(1e-6 * s, rel=1e-9)


class TestValidation:
    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ConfigError):
            SequenceTiming(pulse_s=0.0)
        with pytest.raises(ConfigError):
            SequenceTiming(separation_s=-1e-6)
        with pytest.raises(ConfigError):
            SequenceTiming(free_evolution_s=0.0)

    def test_bad_wavevector_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalConstants(k_eff_per_m=0.0)

    def test_breakpoints_strictly_increasing(self):
        b = SequenceTiming().breakpoints
        assert all(y > x for x, y in zip(b, b[1:]))
