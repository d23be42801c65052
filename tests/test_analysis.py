"""Estimation chain: pairing, gravity, squeezing factor, fringes, Allan."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from gravlab import (
    CampaignConfig,
    DataError,
    DomainError,
    FitError,
    FringeFit,
    NoiseConfig,
    PhysicalConstants,
    SequenceTiming,
    allan_deviation,
    calibrate_model,
    coherent_model,
    delta_p,
    estimate_g,
    fit_fringe,
    fringe_intersection,
    gravity_from_delta_p,
    metrological_squeezing,
    phase_noise_budget,
    run_campaign,
    squeezing_from_pairs,
)
from gravlab.analysis import DeltaPSeries

CONST = PhysicalConstants()
TIMING = SequenceTiming()
G_TRUE = 9.812637
ALPHA_COMP = G_TRUE * CONST.k_eff_per_m

# frozen: (2 / 0.98) * 2.56e-4 / (-1.42 + 0.767) + 9.8126, evaluated once
# with mpmath at 50 digits and rounded to double
FROZEN_G_ARITHMETIC = 9.811799924992968
# frozen: 10 * log10(6000 * (1.2e-3)**2)
FROZEN_BUDGET_DB = -20.634862575211066


@functools.lru_cache(maxsize=None)
def coherent_campaign(n_pairs=5000, seed=42):
    noise = NoiseConfig(squeezing=coherent_model(6000.0), contrast=1.0)
    camp = CampaignConfig(n_pairs=n_pairs, seed=seed, alpha_rad_per_s2=ALPHA_COMP)
    return tuple(run_campaign(camp, TIMING, CONST, noise))


class TestDeltaP:
    def test_pairing_values_and_times(self):
        recs = list(coherent_campaign(50))
        out = delta_p(recs)
        assert out.n_dropped == 0 and out.n_skipped == 0
        assert len(out.values) == 50
        for k in range(50):
            a, b = recs[2 * k], recs[2 * k + 1]
            pa = a.count_f2 / (a.count_f1 + a.count_f2)
            pb = b.count_f2 / (b.count_f1 + b.count_f2)
            assert out.values[k] == pa - pb
            assert out.times_s[k] == a.wall_time_s

    def test_trailing_shot_dropped(self):
        recs = list(coherent_campaign(10))[:-1]
        out = delta_p(recs)
        assert out.n_dropped == 1
        assert len(out.values) == 9

    def test_zero_atom_pair_skipped(self):
        recs = list(coherent_campaign(10))
        recs[4] = replace(recs[4], count_f1=0, count_f2=0)
        out = delta_p(recs)
        assert out.n_skipped == 1
        assert len(out.values) == 9

    def test_all_pairs_skipped_rejected(self):
        recs = [replace(r, count_f1=0, count_f2=0) for r in coherent_campaign(3)]
        with pytest.raises(DataError):
            delta_p(recs)

    def test_broken_alternation_rejected(self):
        recs = list(coherent_campaign(5))
        recs[3] = replace(recs[3], free_evolution_s=recs[2].free_evolution_s)
        with pytest.raises(DataError, match="alternation"):
            delta_p(recs)

    def test_non_alternating_start_rejected(self):
        recs = list(coherent_campaign(5))
        recs[1] = replace(recs[1], free_evolution_s=recs[0].free_evolution_s)
        with pytest.raises(DataError):
            delta_p(recs)

    def test_too_few_records(self):
        with pytest.raises(DataError):
            delta_p(list(coherent_campaign(5))[:1])


class TestGravityFormula:
    def test_published_operating_point(self):
        alpha = 9.8126 * CONST.k_eff_per_m
        g = gravity_from_delta_p(2.56e-4, 0.98, -1.42, -0.767, alpha, CONST)
        assert g == pytest.approx(FROZEN_G_ARITHMETIC, abs=1e-12)

    def test_sign_flip_invariance_is_exact(self):
        args = (3.1e-4, 0.93, -1.37, -0.74)
        g_plus = gravity_from_delta_p(args[0], args[1], args[2], args[3], ALPHA_COMP, CONST)
        g_minus = gravity_from_delta_p(-args[0], args[1], -args[2], -args[3], ALPHA_COMP, CONST)
        assert g_plus == g_minus

    def test_zero_delta_p_returns_chirp_equivalent(self):
        g = gravity_from_delta_p(0.0, 0.98, -1.42, -0.767, ALPHA_COMP, CONST)
        assert g == ALPHA_COMP / CONST.k_eff_per_m

    def test_equal_scales_rejected(self):
        with pytest.raises(DomainError):
            gravity_from_delta_p(1e-4, 0.98, -1.0, -1.0, ALPHA_COMP, CONST)

    def test_contrast_bounds(self):
        with pytest.raises(DomainError):
            gravity_from_delta_p(1e-4, 0.0, -1.42, -0.767, ALPHA_COMP, CONST)
        with pytest.raises(DomainError):
            gravity_from_delta_p(1e-4, 1.5, -1.42, -0.767, ALPHA_COMP, CONST)


class TestEstimateG:
    def series(self, values):
        vals = np.asarray(values, dtype=float)
        return DeltaPSeries(
            times_s=np.arange(len(vals)) * 104.0, values=vals, n_dropped=0, n_skipped=0
        )

    def test_mean_and_sem_propagation(self):
        vals = [2.0e-4, 3.0e-4, 2.5e-4, 2.7e-4, 2.1e-4]
        est = estimate_g(self.series(vals), 0.98, -1.42, -0.767, ALPHA_COMP, CONST)
        mean = float(np.mean(vals))
        sem = float(np.std(vals, ddof=1)) / math.sqrt(5)
        assert est.delta_p_mean == mean
        assert est.n_pairs == 5
        assert est.g_exp_m_s2 == gravity_from_delta_p(
            mean, 0.98, -1.42, -0.767, ALPHA_COMP, CONST
        )
        assert est.sigma_g_m_s2 == pytest.approx(
            (2.0 / 0.98) * sem / abs(-1.42 + 0.767), rel=1e-14
        )

    def test_calibration_uncertainties_add_in_quadrature(self):
        vals = [2.0e-4, 3.0e-4, 2.5e-4, 2.7e-4]
        base = estimate_g(self.series(vals), 0.98, -1.42, -0.767, ALPHA_COMP, CONST)
        wide = estimate_g(
            self.series(vals),
            0.98,
            -1.42,
            -0.767,
            ALPHA_COMP,
            CONST,
            sigma_contrast=0.02,
            sigma_scale1=0.01,
            sigma_scale2=0.01,
        )
        inertial = base.g_exp_m_s2 - ALPHA_COMP / CONST.k_eff_per_m
        extra = (inertial * 0.02 / 0.98) ** 2 + (inertial / (-1.42 + 0.767)) ** 2 * 2e-4
        assert wide.g_exp_m_s2 == base.g_exp_m_s2
        assert wide.sigma_g_m_s2 == pytest.approx(
            math.sqrt(base.sigma_g_m_s2**2 + extra), rel=1e-12
        )

    def test_single_pair_rejected(self):
        with pytest.raises(DataError):
            estimate_g(self.series([1e-4]), 0.98, -1.42, -0.767, ALPHA_COMP, CONST)


class TestSqueezingFromPairs:
    def test_projection_limit_arithmetic(self):
        # one pair difference of 3 atoms against (N1+N2)/4 = 9
        assert squeezing_from_pairs(np.array([3.0, -3.0]), 36.0, 1.0) == 1.0

    def test_duplicate_and_negate_invariance_is_exact(self):
        rng = np.random.default_rng(8)
        d = rng.normal(0.0, 30.0, 400)
        a = squeezing_from_pairs(d, 12000.0, 0.98)
        b = squeezing_from_pairs(np.concatenate([d, -d]), 12000.0, 0.98)
        assert a == b

    def test_static_offset_counts_as_noise(self):
        # second moment about zero, not a central variance: a constant
        # difference series still reads as noise power
        d = np.full(100, 5.0)
        assert squeezing_from_pairs(d, 12000.0, 1.0) == pytest.approx(
            4.0 * 25.0 / 12000.0, rel=1e-15
        )

    def test_variance_doubling_is_three_db(self):
        rng = np.random.default_rng(9)
        d = rng.normal(0.0, 30.0, 500)
        a = squeezing_from_pairs(d, 12000.0, 1.0)
        b = squeezing_from_pairs(math.sqrt(2.0) * d, 12000.0, 1.0)
        assert 10.0 * math.log10(b / a) == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_contrast_correction(self):
        d = np.array([10.0, -12.0, 8.0])
        assert squeezing_from_pairs(d, 12000.0, 0.5) == pytest.approx(
            4.0 * squeezing_from_pairs(d, 12000.0, 1.0), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(DataError):
            squeezing_from_pairs(np.array([1.0]), 100.0, 1.0)
        with pytest.raises(DomainError):
            squeezing_from_pairs(np.array([1.0, 2.0]), 0.0, 1.0)


class TestMetrologicalSqueezing:
    def test_bootstrap_is_deterministic(self):
        recs = list(coherent_campaign(400))
        a = metrological_squeezing(recs)
        b = metrological_squeezing(recs)
        assert a == b

    def test_coherent_campaign_sits_at_unity(self):
        recs = list(coherent_campaign(5000))
        est = metrological_squeezing(recs)
        assert est.ci_low_db < 0.0 < est.ci_high_db
        assert abs(est.db) < 0.3

    def test_zero_atom_pairs_skipped_like_delta_p(self):
        recs = list(coherent_campaign(400))
        for k in range(0, 400, 20):
            i = 2 * k + k % 2  # either shot of every 20th pair
            recs[i] = replace(recs[i], count_f1=0, count_f2=0, imbalance=0.0)
        assert len(delta_p(recs).values) == 380
        assert metrological_squeezing(recs).n_pairs == 380

    def test_broken_alternation_rejected(self):
        recs = list(coherent_campaign(50))
        recs[10] = replace(recs[10], free_evolution_s=recs[11].free_evolution_s)
        with pytest.raises(DataError, match="alternation broken"):
            metrological_squeezing(recs)

    def test_odd_record_trimmed(self):
        recs = list(coherent_campaign(10))  # 10 pairs = 20 shots
        assert metrological_squeezing(recs[:-1]).n_pairs == 9

    def test_too_few_records(self):
        with pytest.raises(DataError):
            metrological_squeezing(list(coherent_campaign(10))[:3])


class TestBootstrapCoverage:
    def test_95_percent_ci_covers_the_analytic_squeezing(self):
        # Gaussian readout at the compensating chirp: each shot's imbalance
        # has variance N/4 e^{-2r} + sigma_det^2, plus 1/12 from rounding to
        # whole atoms, and a pair difference twice that
        model = calibrate_model(-5.4, 9.9, 6000.0)
        contrast = 0.98
        shot_var = 6000.0 / 4.0 * math.exp(-2.0 * model.strength) + model.detection_noise_atoms**2 + 1.0 / 12.0
        true_db = 10.0 * math.log10((4.0 / contrast**2) * 2.0 * shot_var / (2.0 * 6000.0))
        assert true_db == pytest.approx(-5.22, abs=0.005)

        noise = NoiseConfig(squeezing=model, contrast=contrast, sigma_ac_rad=0.0)
        covered = 0
        for seed in range(200):
            camp = CampaignConfig(n_pairs=500, seed=seed, alpha_rad_per_s2=ALPHA_COMP)
            est = metrological_squeezing(run_campaign(camp, TIMING, CONST, noise), contrast=contrast)
            covered += est.ci_low_db <= true_db <= est.ci_high_db
        # for a true 95% rate, P(covered <= 179) = 0.12% and P(covered = 200) = 3.5e-5
        assert 180 <= covered <= 199, covered


def synth_fringe(offset, amp, scale, phase0, n=60, x0=9.8126, periods=1.4, noise=0.0, seed=0):
    """(alpha, p) table for p = offset + amp*cos(scale*alpha/k + phase0)."""
    span = periods * 2.0 * math.pi / abs(scale)
    x = np.linspace(x0 - span / 2, x0 + span / 2, n)
    p = offset + amp * np.cos(scale * x + phase0)
    if noise:
        p = p + np.random.default_rng(seed).normal(0.0, noise, n)
    return np.column_stack([x * CONST.k_eff_per_m, p])


class TestFitFringe:
    def test_noiseless_round_trip_over_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            offset = rng.uniform(0.4, 0.6)
            amp = rng.uniform(0.2, 0.5)
            scale = rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.5)
            phase0 = rng.uniform(0.1, math.pi - 0.1)
            pts = synth_fringe(offset, amp, scale, phase0, periods=rng.uniform(1.2, 3.0))
            fit = fit_fringe(pts, CONST)
            assert fit.offset == pytest.approx(offset, abs=1e-8)
            assert fit.amplitude == pytest.approx(amp, abs=1e-8)
            assert fit.scale_s2_per_m == pytest.approx(scale, rel=1e-6)
            assert fit.phase0_rad == pytest.approx(phase0, abs=1e-6)
            assert fit.residual_rms < 1e-8
            assert fit.contrast == 2.0 * fit.amplitude

    def test_canonical_form(self):
        fit = fit_fringe(synth_fringe(0.5, 0.4, -1.42, 2.0), CONST)
        assert fit.amplitude >= 0.0
        assert 0.0 <= fit.phase0_rad < math.pi

    def test_noisy_scale_errors_match_reported_covariance(self):
        misses = 0
        for seed in range(40):
            pts = synth_fringe(0.5, 0.45, -1.42, 1.3, n=120, periods=2.0, noise=0.01, seed=seed)
            fit = fit_fringe(pts, CONST)
            sigma = math.sqrt(fit.covariance[2, 2])
            if abs(fit.scale_s2_per_m - (-1.42)) > 3.0 * sigma:
                misses += 1
        assert misses <= 2

    def test_constant_data_raises_fit_error_with_diagnostics(self):
        pts = np.column_stack([np.linspace(1e8, 2e8, 20), np.full(20, 0.5)])
        with pytest.raises(FitError) as info:
            fit_fringe(pts, CONST)
        assert "p_variance" in info.value.diagnostics

    def test_zero_alpha_span_rejected(self):
        pts = np.column_stack([np.full(20, 1.5e8), np.linspace(0.1, 0.9, 20)])
        with pytest.raises(DomainError):
            fit_fringe(pts, CONST)

    def test_sub_period_span_rejected(self):
        pts = synth_fringe(0.5, 0.4, -1.42, 1.0, periods=0.9)
        with pytest.raises(DomainError, match="period"):
            fit_fringe(pts, CONST)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_fringe(synth_fringe(0.5, 0.4, -1.42, 1.0, n=7), CONST)


def analytic_fit(scale, alpha_star, amp=0.49):
    """Exact FringeFit whose curve peaks at the chirp rate alpha_star."""
    phase0 = (-scale * alpha_star / CONST.k_eff_per_m) % (2.0 * math.pi)
    return FringeFit(
        offset=0.5,
        amplitude=amp,
        scale_s2_per_m=scale,
        phase0_rad=phase0,
        residual_rms=0.0,
        covariance=np.zeros((4, 4)),
    )


class TestFringeIntersection:
    def window(self, scales, center):
        mags = sorted((abs(s) for s in scales), reverse=True)
        half = math.pi / (mags[0] + mags[1]) * CONST.k_eff_per_m
        return (center - half, center + half)

    def test_noiseless_crossing_recovers_truth(self):
        scales = (-1.42, -0.767)
        fits = [analytic_fit(s, ALPHA_COMP) for s in scales]
        got = fringe_intersection(fits, CONST, self.window(scales, ALPHA_COMP + 2e5))
        assert got / CONST.k_eff_per_m == pytest.approx(G_TRUE, abs=1e-7)

    def test_three_noisy_fringes_cover_truth(self):
        scales = (-1.42, -0.767, -1.1)
        estimates = []
        for seed in range(16):
            fits = []
            for k, s in enumerate(scales):
                phase0 = (-s * ALPHA_COMP / CONST.k_eff_per_m) % (2.0 * math.pi)
                pts = synth_fringe(
                    0.5, 0.49, s, phase0, n=120, periods=2.0, noise=0.01, seed=100 * seed + k
                )
                fits.append(fit_fringe(pts, CONST))
            alpha = fringe_intersection(fits, CONST, self.window(scales, ALPHA_COMP))
            estimates.append(alpha / CONST.k_eff_per_m)
        err = np.asarray(estimates) - G_TRUE
        sem = float(np.std(err, ddof=1)) / math.sqrt(len(err))
        assert abs(float(np.mean(err))) < 3.0 * sem

    def test_parallel_fringes_rejected(self):
        fits = [analytic_fit(-1.0, ALPHA_COMP), analytic_fit(-1.0, ALPHA_COMP)]
        with pytest.raises(DomainError, match="parallel"):
            fringe_intersection(fits, CONST, (ALPHA_COMP - 1e6, ALPHA_COMP + 1e6))

    def test_single_fit_rejected(self):
        with pytest.raises(DomainError):
            fringe_intersection([analytic_fit(-1.0, ALPHA_COMP)], CONST, (0.0, 1.0))

    def test_empty_window_rejected(self):
        fits = [analytic_fit(-1.42, ALPHA_COMP), analytic_fit(-0.767, ALPHA_COMP)]
        with pytest.raises(DomainError):
            fringe_intersection(fits, CONST, (1.0, 1.0))


class TestAllanDeviation:
    def test_constant_series_is_exactly_zero(self):
        # dyadic constant, so the running sums stay exact
        out = allan_deviation(np.full(64, 0.25), 1.0)
        assert np.all(out.adev == 0.0)

    def test_general_constant_is_zero_to_rounding(self):
        out = allan_deviation(np.full(64, 3.7), 1.0)
        assert np.all(out.adev < 1e-12)

    def test_linear_drift_closed_form(self):
        tau0 = 2.0
        d = 1.3e-5  # drift rate per unit time
        x = d * tau0 * np.arange(512)
        out = allan_deviation(x, tau0)
        expect = d * out.tau_s / math.sqrt(2.0)
        assert out.adev == pytest.approx(expect, rel=1e-9)

    def test_white_noise_follows_inverse_root_m(self):
        m_values = None
        acc = []
        for seed in range(32):
            x = np.random.default_rng(seed).normal(0.0, 1.0, 1024)
            out = allan_deviation(x, 1.0)
            m = np.round(out.tau_s).astype(int)
            keep = m <= 1024 // 10
            acc.append(out.adev[keep])
            m_values = m[keep]
        mean_adev = np.mean(acc, axis=0)
        expect = 1.0 / np.sqrt(m_values)
        assert np.all(np.abs(mean_adev / expect - 1.0) < 0.10)

    def test_offset_invariance(self):
        x = np.random.default_rng(3).normal(0.0, 1.0, 256)
        a = allan_deviation(x, 1.0)
        b = allan_deviation(x + 123.456, 1.0)
        assert b.adev == pytest.approx(a.adev, rel=1e-9)

    def test_octave_spacing_and_error_bars(self):
        x = np.random.default_rng(5).normal(0.0, 1.0, 300)
        out = allan_deviation(x, 0.5)
        m = np.round(out.tau_s / 0.5).astype(int)
        assert list(m) == [1, 2, 4, 8, 16, 32, 64]  # last octave <= 300 // 3
        assert out.n_samples == 300
        for mi, ad, er in zip(m, out.adev, out.err):
            assert er == ad / math.sqrt(300 - 2 * mi + 1)

    def test_validation(self):
        with pytest.raises(DataError):
            allan_deviation(np.zeros(15), 1.0)
        with pytest.raises(DataError):
            allan_deviation(np.zeros((4, 8)), 1.0)
        with pytest.raises(DomainError):
            allan_deviation(np.zeros(64), 0.0)


class TestPhaseNoiseBudget:
    def test_reference_operating_point(self):
        out = phase_noise_budget(1.2e-3, 6000.0)
        assert out.delta_jz_atoms == pytest.approx(3.6, abs=1e-12)
        assert out.db_vs_sql == pytest.approx(FROZEN_BUDGET_DB, abs=1e-12)

    def test_zero_noise_is_negligible(self):
        out = phase_noise_budget(0.0, 6000.0)
        assert out.delta_jz_atoms == 0.0
        assert out.db_vs_sql == -math.inf

    def test_quadrupling_sigma_adds_twelve_db(self):
        lo = phase_noise_budget(5e-4, 3000.0)
        hi = phase_noise_budget(2e-3, 3000.0)
        assert hi.db_vs_sql - lo.db_vs_sql == pytest.approx(10.0 * math.log10(16.0), abs=1e-9)
        assert hi.delta_jz_atoms == pytest.approx(4.0 * lo.delta_jz_atoms, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            phase_noise_budget(-1e-3, 3000.0)
        with pytest.raises(DomainError):
            phase_noise_budget(1e-3, 0.0)
