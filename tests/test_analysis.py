"""Estimation chain: pairing, gravity, squeezing factor, fringes, Allan."""

import functools
import math
import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

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
    parse_config,
    phase_noise_budget,
    run_campaign,
    scale_factor,
    squeezing_from_pairs,
)
from gravlab import analysis
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
    return run_campaign(camp, TIMING, CONST, noise)  # read-only columns: safe to share


def edited(shots, rows, **values):
    """A copy of the table with each named column set to its value at `rows`."""
    columns = {name: getattr(shots, name).copy() for name in values}
    for name, value in values.items():
        columns[name][rows] = value
    return replace(shots, **columns)


class TestDeltaP:
    def test_pairing_values_and_times(self):
        recs = coherent_campaign(50)
        out = delta_p(recs)
        assert out.n_dropped == 0 and out.n_skipped == 0
        assert len(out.values) == 50
        f1, f2, wall = recs.count_f1.tolist(), recs.count_f2.tolist(), recs.wall_time_s.tolist()
        for k in range(50):
            a, b = 2 * k, 2 * k + 1
            pa = f2[a] / (f1[a] + f2[a])
            pb = f2[b] / (f1[b] + f2[b])
            assert out.values[k] == pa - pb
            assert out.times_s[k] == wall[a]

    def test_trailing_shot_dropped(self):
        recs = coherent_campaign(10)[:-1]
        out = delta_p(recs)
        assert out.n_dropped == 1
        assert len(out.values) == 9

    def test_zero_atom_pair_skipped(self):
        recs = edited(coherent_campaign(10), 4, count_f1=0, count_f2=0)
        out = delta_p(recs)
        assert out.n_skipped == 1
        assert len(out.values) == 9

    def test_all_pairs_skipped_rejected(self):
        recs = edited(coherent_campaign(3), slice(None), count_f1=0, count_f2=0)
        with pytest.raises(DataError):
            delta_p(recs)

    def test_broken_alternation_rejected(self):
        recs = coherent_campaign(5)
        recs = edited(recs, 3, free_evolution_s=recs.free_evolution_s[2])
        with pytest.raises(DataError, match="alternation"):
            delta_p(recs)

    def test_non_alternating_start_rejected(self):
        recs = coherent_campaign(5)
        recs = edited(recs, 1, free_evolution_s=recs.free_evolution_s[0])
        with pytest.raises(DataError):
            delta_p(recs)

    def test_too_few_records(self):
        with pytest.raises(DataError):
            delta_p(coherent_campaign(5)[:1])


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

    @pytest.mark.parametrize("contrast", [0.0, -0.5, 1.5, math.nan])
    def test_contrast_outside_unit_interval_refused(self, contrast):
        with pytest.raises(DomainError, match="contrast"):
            squeezing_from_pairs(np.array([1.0, 2.0]), 100.0, contrast)

    def test_contrast_whose_square_underflows_refused(self):
        # 4 / contrast^2 divides by an underflowed 0 below ~1.5e-154
        with pytest.raises(DomainError, match="contrast=1e-200: its square underflows to 0"):
            squeezing_from_pairs(np.array([0.1, -0.2, 0.3]), 100.0, 1e-200)
        assert squeezing_from_pairs(np.array([3.0, -3.0]), 36.0, 1.5e-154) == pytest.approx(1.5e-154**-2, rel=1e-15)

    def test_all_zero_differences_refused(self):
        with pytest.raises(DomainError, match="zero"):
            squeezing_from_pairs(np.zeros(10), 100.0, 1.0)


class TestMetrologicalSqueezing:
    def test_estimate_is_deterministic(self):
        recs = coherent_campaign(400)
        a = metrological_squeezing(recs)
        b = metrological_squeezing(recs)
        assert a == b

    def test_coherent_campaign_sits_at_unity(self):
        recs = coherent_campaign(5000)
        est = metrological_squeezing(recs)
        assert est.ci_low_db < 0.0 < est.ci_high_db
        assert abs(est.db) < 0.3

    def test_zero_atom_pairs_skipped_like_delta_p(self):
        k = np.arange(0, 400, 20)
        rows = 2 * k + k % 2  # either shot of every 20th pair
        recs = edited(coherent_campaign(400), rows, count_f1=0, count_f2=0, imbalance=0.0)
        assert len(delta_p(recs).values) == 380
        assert metrological_squeezing(recs).n_pairs == 380

    def test_broken_alternation_rejected(self):
        recs = coherent_campaign(50)
        recs = edited(recs, 10, free_evolution_s=recs.free_evolution_s[11])
        with pytest.raises(DataError, match="alternation broken"):
            metrological_squeezing(recs)

    def test_odd_record_trimmed(self):
        recs = coherent_campaign(10)  # 10 pairs = 20 shots
        assert metrological_squeezing(recs[:-1]).n_pairs == 9

    def test_too_few_records(self):
        with pytest.raises(DataError):
            metrological_squeezing(coherent_campaign(10)[:3])

    @pytest.mark.parametrize("contrast", [0.0, -0.5, 1.5, math.nan])
    def test_contrast_outside_unit_interval_refused(self, contrast):
        with pytest.raises(DomainError, match="contrast"):
            metrological_squeezing(coherent_campaign(50), contrast=contrast)

    @pytest.mark.parametrize("n_bootstrap", [0, 1, 2.5, "many"])
    def test_n_bootstrap_has_no_effect(self, n_bootstrap):
        recs = coherent_campaign(50)
        assert metrological_squeezing(recs, n_bootstrap=n_bootstrap) == metrological_squeezing(recs)

    def test_contrast_whose_square_underflows_refused(self):
        with pytest.raises(DomainError, match="contrast=1e-200: its square underflows to 0"):
            metrological_squeezing(coherent_campaign(50), contrast=1e-200)

    def test_all_zero_differences_refused(self):
        recs = coherent_campaign(50)
        with pytest.raises(DomainError, match="zero"):
            metrological_squeezing(replace(recs, imbalance=np.zeros(len(recs))))

    def test_one_nonzero_difference_gives_finite_ends(self):
        # one nonzero difference in 16 pairs: the interval is still db
        # plus the two chi-square ratios of 16 degrees of freedom
        recs = coherent_campaign(16)
        imbalance = np.zeros(len(recs))
        imbalance[0] = 40.0
        est = metrological_squeezing(replace(recs, imbalance=imbalance))
        assert est.ci_low_db == pytest.approx(est.db + 10.0 * math.log10(16 / chi2.ppf(0.975, 16)), abs=1e-9)
        assert est.ci_high_db == pytest.approx(est.db + 10.0 * math.log10(16 / chi2.ppf(0.025, 16)), abs=1e-9)

    def test_counts_whose_squared_differences_overflow_scale_exactly(self):
        # 2^1000 times every count and imbalance: the squared differences overflow, the
        # squeezing (2^1000)^2 / 2^1000 times the unscaled one does not, and is exact
        recs = coherent_campaign(50)
        huge = replace(recs, **{k: np.ldexp(getattr(recs, k), 1000) for k in ("count_f1", "count_f2", "imbalance")})
        small, big = metrological_squeezing(recs), metrological_squeezing(huge)
        assert big.linear == math.ldexp(small.linear, 1000)
        shift_db = 10.0 * 1000 * math.log10(2.0)
        assert big.ci_low_db == pytest.approx(small.ci_low_db + shift_db, abs=1e-9)
        assert big.ci_high_db == pytest.approx(small.ci_high_db + shift_db, abs=1e-9)

    def test_squeezing_near_the_float_limit_has_finite_ends(self):
        # atom counts of ~1e-305 put the squeezing just below the float limit: its upper
        # CI end, ~1e308 times a ratio above 1 in linear terms, is a finite number of dB
        recs = coherent_campaign(50)
        tiny = replace(recs, count_f1=recs.count_f1 * 5.62e-309, count_f2=recs.count_f2 * 5.62e-309)
        est = metrological_squeezing(tiny)
        assert est.linear > 1e307
        assert est.ci_low_db < est.db < est.ci_high_db
        assert math.isfinite(est.ci_high_db) and est.ci_high_db > 10.0 * math.log10(sys.float_info.max)


def pair_columns(shots):
    """Pair differences and the campaign-mean atom sum, as the estimator
    forms them from a strictly alternating table with no empty shots."""
    j, n = shots.imbalance, shots.count_f1 + shots.count_f2
    return j[0::2] - j[1::2], float(np.mean(n[0::2]) + np.mean(n[1::2]))


class TestChiSquareInterval:
    @pytest.mark.parametrize("q", [0.001, 0.025, 0.16, 0.5, 0.84, 0.975, 0.999])
    def test_quantile_matches_scipy(self, q):
        # every dof from 2 to 300, and 40 from 10^3 to 10^6
        dofs = [*range(2, 301), *np.unique(np.geomspace(1e3, 1e6, 40).round().astype(int)).tolist()]
        for dof in dofs:
            assert analysis._chi2_quantile(q, dof) == pytest.approx(chi2.ppf(q, dof), rel=1e-9, abs=0.0), dof

    def test_quantile_at_two_dof_is_the_exponential_law(self):
        # chi2_2 is exponential with mean 2: its q quantile is -2 ln(1 - q)
        for q in np.linspace(0.001, 0.999, 999):
            assert analysis._chi2_quantile(q, 2) == pytest.approx(-2.0 * math.log1p(-q), rel=1e-12, abs=0.0), q

    def test_quantile_at_two_million_dof(self):
        for q in (0.025, 0.975):
            assert analysis._chi2_quantile(q, 2_000_000) == pytest.approx(chi2.ppf(q, 2_000_000), rel=1e-9, abs=0.0)

    def test_quantile_rises_with_q_and_with_dof(self):
        qs = np.linspace(0.01, 0.99, 99)
        for dof in (2, 3, 16, 500, 50_000):
            row = [analysis._chi2_quantile(q, dof) for q in qs]
            assert all(a < b for a, b in zip(row, row[1:])), dof
        for q in (0.025, 0.975):
            col = [analysis._chi2_quantile(q, dof) for dof in range(2, 200)]
            assert all(a < b for a, b in zip(col, col[1:])), q

    def test_ci_offsets_from_db_do_not_depend_on_the_readout_scale(self):
        # the interval is db shifted by amounts fixed by n alone: doubling
        # every imbalance moves db and both ends by the same 6.02 dB
        shots = coherent_campaign(200)
        est = metrological_squeezing(shots)
        scaled = metrological_squeezing(edited(shots, slice(None), imbalance=2.0 * shots.imbalance))
        assert scaled.db == pytest.approx(est.db + 20.0 * math.log10(2.0), abs=1e-9)
        assert scaled.ci_low_db - scaled.db == pytest.approx(est.ci_low_db - est.db, abs=1e-12)
        assert scaled.ci_high_db - scaled.db == pytest.approx(est.ci_high_db - est.db, abs=1e-12)

    def test_ci_brackets_db_and_narrows_with_more_pairs(self):
        shots = coherent_campaign(5000)
        widths = []
        for n_pairs in (2, 3, 4, 8, 16, 50, 500, 5000):
            est = metrological_squeezing(shots[: 2 * n_pairs])
            assert est.ci_low_db < est.db < est.ci_high_db, n_pairs
            widths.append(est.ci_high_db - est.ci_low_db)
        assert all(a > b for a, b in zip(widths, widths[1:])), widths

    @pytest.mark.parametrize("n_pairs", [2, 3, 16, 500, 5000])
    def test_interval_is_db_plus_the_chi_square_ratios(self, n_pairs):
        shots = coherent_campaign(5000)[: 2 * n_pairs]
        samples, atoms_sum = pair_columns(shots)
        est = metrological_squeezing(shots, contrast=0.98)
        assert est.n_pairs == n_pairs
        assert est.linear == squeezing_from_pairs(samples, atoms_sum, 0.98)
        assert est.db == 10.0 * math.log10(est.linear)
        assert est.ci_low_db == pytest.approx(est.db + 10.0 * math.log10(n_pairs / chi2.ppf(0.975, n_pairs)), abs=1e-9)
        assert est.ci_high_db == pytest.approx(est.db + 10.0 * math.log10(n_pairs / chi2.ppf(0.025, n_pairs)), abs=1e-9)

    def test_two_pairs_give_the_wide_exact_interval(self):
        # chi2_2(0.025) = 0.0506: the upper end sits 15.97 dB above db, where
        # the Wilson-Hilferty approximation of that quantile (-48 %) would put
        # it 2.9 dB higher
        est = metrological_squeezing(coherent_campaign(2))
        assert est.db - est.ci_low_db == pytest.approx(5.67, abs=0.005)
        assert est.ci_high_db - est.db == pytest.approx(15.97, abs=0.005)


def analytic_squeezing_db(model, contrast):
    """Squeezing of the Gaussian readout at the compensating chirp: each
    shot's imbalance has variance N/4 e^{-2r} + sigma_det^2, plus 1/12 from
    rounding to whole atoms, and a pair difference twice that."""
    shot_var = 6000.0 / 4.0 * math.exp(-2.0 * model.strength) + model.detection_noise_atoms**2 + 1.0 / 12.0
    return 10.0 * math.log10((4.0 / contrast**2) * 2.0 * shot_var / (2.0 * 6000.0))


class TestSqueezingCoverage:
    # for a true 95% rate over 200 campaigns, P(covered <= 179) = 0.12% and
    # P(covered = 200) = 3.5e-5
    BAND = (180, 199)

    def coverage(self, n_pairs):
        model, contrast = calibrate_model(-5.4, 9.9, 6000.0), 0.98
        true_db = analytic_squeezing_db(model, contrast)
        assert true_db == pytest.approx(-5.22, abs=0.005)
        noise = NoiseConfig(squeezing=model, contrast=contrast, sigma_ac_rad=0.0)
        covered = 0
        for seed in range(200):
            camp = CampaignConfig(n_pairs=n_pairs, seed=seed, alpha_rad_per_s2=ALPHA_COMP)
            est = metrological_squeezing(run_campaign(camp, TIMING, CONST, noise), contrast=contrast)
            covered += est.ci_low_db <= true_db <= est.ci_high_db
        return covered

    @pytest.mark.parametrize("n_pairs", [2, 4, 8, 16, 50, 500])
    def test_95_percent_ci_covers_the_analytic_squeezing(self, n_pairs):
        covered = self.coverage(n_pairs)
        assert self.BAND[0] <= covered <= self.BAND[1], covered

    def test_95_percent_ci_covers_the_analytic_squeezing_at_5000_pairs(self):
        covered = self.coverage(5000)
        assert self.BAND[0] <= covered <= self.BAND[1], covered


class TestGravityCoverage:
    def test_sigma_g_interval_covers_g_true(self):
        # the built-in config at 500 pairs: g +- 1.96 sigma_g against the
        # simulated truth, which the default chirp does not compensate
        cfg = parse_config("")
        c = cfg.constants
        t1, t2 = cfg.campaign.t1_s, cfg.campaign.t2_s
        s1, s2 = (scale_factor(replace(cfg.timing, free_evolution_s=t), c) for t in (t1, t2))
        covered = 0
        for seed in range(400):
            camp = replace(cfg.campaign, n_pairs=500, seed=seed)
            deltas = delta_p(run_campaign(camp, cfg.timing, c, cfg.noise))
            grav = estimate_g(deltas, cfg.noise.effective_contrast, s1, s2, camp.alpha_rad_per_s2, c)
            covered += abs(grav.g_exp_m_s2 - camp.g_true_m_per_s2) <= 1.96 * grav.sigma_g_m_s2
        # for a true 95% rate, P(covered < 367 or covered > 393) = 0.23%
        assert 367 <= covered <= 393, covered


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

    @pytest.mark.parametrize("distinct", [1, 2, 3])
    def test_fewer_distinct_alphas_than_fit_parameters_rejected(self, distinct):
        # 12 points on 1 to 3 chirps cannot fix offset, amplitude, scale and
        # phase; one chirp is a zero alpha span
        alphas = np.resize(1.5e8 + 1e6 * np.arange(distinct), 12)
        pts = np.column_stack([alphas, 0.5 + 0.4 * np.cos(alphas / 3e5)])
        with pytest.raises(DomainError, match=f"^need at least 4 distinct alpha values for the 4 fit parameters, got {distinct}$"):
            fit_fringe(pts, CONST)

    def test_zero_alpha_span_rejected(self):
        pts = np.column_stack([np.full(20, 1.5e8), np.linspace(0.1, 0.9, 20)])
        with pytest.raises(DomainError):
            fit_fringe(pts, CONST)

    def test_fit_that_does_not_converge_raises_fit_error_with_diagnostics(self, monkeypatch):
        # one damped Gauss-Newton step cannot bring a noisy scan's step norm below 1e-10
        monkeypatch.setattr(analysis, "FIT_MAX_ITER", 1)
        with pytest.raises(FitError, match="^fringe fit did not converge$") as info:
            fit_fringe(synth_fringe(0.5, 0.4, -1.42, 1.0, noise=0.01, seed=3), CONST)
        assert len(info.value.diagnostics["theta"]) == 4
        assert info.value.diagnostics["sse"] > 0

    def test_sub_period_span_rejected(self):
        pts = synth_fringe(0.5, 0.4, -1.42, 1.0, periods=0.9)
        with pytest.raises(DomainError, match="period"):
            fit_fringe(pts, CONST)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_fringe(synth_fringe(0.5, 0.4, -1.42, 1.0, n=7), CONST)

    def test_long_scan_fits_in_bounded_memory(self):
        # the frequency scan is solved in blocks of FIT_SCAN_PAIRS: all 400
        # trial frequencies at once would peak near 550 MB at 20 000 points
        pts = synth_fringe(0.5, 0.45, -1.42, 1.3, n=20_000, periods=4.0, noise=0.01, seed=3)
        tracemalloc.start()
        try:
            fit = fit_fringe(pts, CONST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert fit.scale_s2_per_m == pytest.approx(-1.42, rel=1e-3)


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
        assert got.alpha_rad_per_s2 / CONST.k_eff_per_m == pytest.approx(G_TRUE, abs=1e-7)
        assert got.sigma_alpha_rad_per_s2 == 0.0  # exact fits carry no covariance

    def test_noiseless_scan_sets_cross_at_the_generating_chirp(self):
        # built like the benchmark's scans: the scales of T = 455, 305 and
        # 155 us on one 90-point grid over 1.25 periods of the slowest
        # fringe, p = offset - amp cos(S (x - g0)), and the window the
        # fringes command uses around the scan center
        rng = random.Random(2024)
        scales = [scale_factor(replace(TIMING, free_evolution_s=t), CONST) for t in (455e-6, 305e-6, 155e-6)]
        span = 1.25 * 2.0 * math.pi / min(scales)
        worst = 0.0
        for _ in range(50):
            g0 = 9.8126 + rng.uniform(-2e-4, 2e-4)
            center, offset, amp = g0 + rng.uniform(-0.1, 0.1), rng.uniform(0.45, 0.55), rng.uniform(0.3, 0.45)
            x = center + span * (np.arange(90) / 89 - 0.5)
            fits = [
                fit_fringe(np.column_stack([x * CONST.k_eff_per_m, offset - amp * np.cos(s * (x - g0))]), CONST)
                for s in scales
            ]
            star = fringe_intersection(fits, CONST, self.window(scales, float(np.median(x)) * CONST.k_eff_per_m))
            worst = max(worst, abs(star.alpha_rad_per_s2 / CONST.k_eff_per_m - g0))
        assert worst <= 1e-10, worst

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
            alpha = fringe_intersection(fits, CONST, self.window(scales, ALPHA_COMP)).alpha_rad_per_s2
            estimates.append(alpha / CONST.k_eff_per_m)
        err = np.asarray(estimates) - G_TRUE
        sem = float(np.std(err, ddof=1)) / math.sqrt(len(err))
        assert abs(float(np.mean(err))) < 3.0 * sem

    def test_interval_covers_the_crossing(self):
        # the +-1.96 sigma interval against the true crossing over 200
        # noisy three-scan sets
        scales = (-1.42, -0.767, -1.1)
        window = self.window(scales, ALPHA_COMP)
        covered = 0
        for seed in range(200):
            fits = []
            for k, s in enumerate(scales):
                phase0 = (-s * ALPHA_COMP / CONST.k_eff_per_m) % (2.0 * math.pi)
                pts = synth_fringe(0.5, 0.49, s, phase0, n=120, periods=2.0, noise=0.01, seed=1000 * seed + k)
                fits.append(fit_fringe(pts, CONST))
            star = fringe_intersection(fits, CONST, window)
            covered += abs(star.alpha_rad_per_s2 - ALPHA_COMP) <= 1.96 * star.sigma_alpha_rad_per_s2
        # for a true 95% rate, P(covered <= 179) = 0.12% and P(covered = 200) = 3.5e-5
        assert 180 <= covered <= 199, covered

    @pytest.mark.parametrize("scales", [(-1.0, -1.0), (-1.0, 1.0)], ids=["same-sign", "opposite-sign"])
    def test_parallel_fringes_rejected(self, scales):
        # a fit folds the sign of the cosine into its scale, so S and -S
        # are the same fringe slope
        fits = [analytic_fit(s, ALPHA_COMP) for s in scales]
        with pytest.raises(DomainError, match="parallel"):
            fringe_intersection(fits, CONST, (ALPHA_COMP - 1e6, ALPHA_COMP + 1e6))

    def test_crossing_outside_window_rejected(self):
        # the true crossing lies half a beat period beyond the right edge
        scales = (-1.42, -0.767)
        lo, hi = self.window(scales, ALPHA_COMP)
        fits = [analytic_fit(s, ALPHA_COMP) for s in scales]
        with pytest.raises(DomainError, match="outside"):
            fringe_intersection(fits, CONST, (lo - 0.5 * (hi - lo), lo - 1.0))

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
        for mi, ad, er in zip(m, out.adev, out.err):
            assert er == ad / math.sqrt(300 - 2 * mi + 1)

    @pytest.mark.parametrize("k", [-600, -560, 530, 560])
    def test_power_of_two_units_scale_bit_for_bit(self, k):
        # 2^-560 z is ~1e-169, whose squared differences underflow to 0; 2^560 z is ~1e169,
        # whose squares overflow
        z = np.random.default_rng(1).standard_normal(300)
        assert allan_deviation(np.ldexp(z, k), 1.0).adev.tobytes() == np.ldexp(allan_deviation(z, 1.0).adev, k).tobytes()

    def test_alternating_series_beyond_the_squares_float_range(self):
        out = allan_deviation(np.array([1e200, -1e200] * 20), 1.0)
        assert out.adev[0] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)  # second differences of 2e200
        assert np.all(out.adev[1:] == 0.0)  # running sums of an even length cancel

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

    def test_noise_whose_square_underflows_is_negligible(self):
        out = phase_noise_budget(1e-200, 6000.0)  # 6000 * 1e-400 rounds to 0
        assert out.delta_jz_atoms == pytest.approx(3e-197, rel=1e-15)
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
