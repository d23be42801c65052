"""Shot generator: determinism, draw accounting, statistics, log I/O."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gravlab import (
    CampaignConfig,
    ConfigError,
    DataError,
    DomainError,
    NoiseConfig,
    PhysicalConstants,
    SequenceTiming,
    calibrate_model,
    coherent_model,
    read_shot_log,
    run_campaign,
    simulate_shot,
    write_shot_log,
)
from gravlab.shots import echo_residual_phase

TIMING = SequenceTiming()
CONST = PhysicalConstants()
G_TRUE = 9.812637
ALPHA_COMP = G_TRUE * CONST.k_eff_per_m  # chirp exactly compensating g_true


def quiet_noise(**overrides) -> NoiseConfig:
    kw = dict(squeezing=coherent_model(6000.0), contrast=1.0)
    kw.update(overrides)
    return NoiseConfig(**kw)


def calibrated_noise(**overrides) -> NoiseConfig:
    kw = dict(squeezing=calibrate_model(-5.4, 9.9, 6000.0), contrast=0.98)
    kw.update(overrides)
    return NoiseConfig(**kw)


class TestDeterminism:
    def test_campaign_reruns_identically(self):
        camp = CampaignConfig(n_pairs=50, seed=9)
        a = run_campaign(camp, TIMING, CONST, calibrated_noise(sigma_ac_rad=0.01))
        b = run_campaign(camp, TIMING, CONST, calibrated_noise(sigma_ac_rad=0.01))
        assert a == b

    def test_single_shot_regenerates_out_of_context(self):
        camp = CampaignConfig(n_pairs=20, seed=31)
        noise = calibrated_noise(sigma_ac_rad=0.02, atom_number_sigma=150.0)
        records = run_campaign(camp, TIMING, CONST, noise)
        lone = simulate_shot(
            replace(TIMING, free_evolution_s=camp.t2_s),
            CONST,
            noise,
            camp.g_true_m_per_s2,
            camp.alpha_rad_per_s2,
            seed=31,
            index=7,
            cycle_time_s=camp.cycle_time_s,
        )
        assert lone == records[7]

    def test_different_seeds_differ(self):
        noise = calibrated_noise()
        a = run_campaign(CampaignConfig(n_pairs=5, seed=1), TIMING, CONST, noise)
        b = run_campaign(CampaignConfig(n_pairs=5, seed=2), TIMING, CONST, noise)
        assert a != b

    def test_zero_sigma_channels_still_consume_the_stream(self):
        # turning a channel's sigma to zero must not shift later draws:
        # the imbalance draw stays identical in both configs
        base = calibrated_noise(sigma_ac_rad=0.0)
        also = calibrated_noise(sigma_ac_rad=1e-300)
        a = simulate_shot(TIMING, CONST, base, G_TRUE, ALPHA_COMP, seed=3, index=0)
        b = simulate_shot(TIMING, CONST, also, G_TRUE, ALPHA_COMP, seed=3, index=0)
        assert a.imbalance == b.imbalance


class TestCampaignLayout:
    def test_single_pair_order(self):
        camp = CampaignConfig(n_pairs=1, seed=5)
        recs = run_campaign(camp, TIMING, CONST, quiet_noise())
        assert len(recs) == 2
        assert recs[0].free_evolution_s == camp.t1_s
        assert recs[1].free_evolution_s == camp.t2_s

    def test_alternation_and_wall_time(self):
        camp = CampaignConfig(n_pairs=8, seed=5, cycle_time_s=52.0)
        recs = run_campaign(camp, TIMING, CONST, quiet_noise())
        for i, rec in enumerate(recs):
            assert rec.index == i
            assert rec.stream_id == i
            assert rec.wall_time_s == i * 52.0
            assert rec.free_evolution_s == (camp.t1_s if i % 2 == 0 else camp.t2_s)

    def test_counts_sum_to_even_atom_number(self):
        camp = CampaignConfig(n_pairs=40, seed=12)
        recs = run_campaign(camp, TIMING, CONST, calibrated_noise(atom_number_sigma=333.0))
        for rec in recs:
            total = rec.count_f1 + rec.count_f2
            assert total % 2 == 0
            assert rec.count_f1 >= 0 and rec.count_f2 >= 0
            assert rec.imbalance == (rec.count_f2 - rec.count_f1) / 2

    def test_imbalance_integer_quantized(self):
        recs = run_campaign(CampaignConfig(n_pairs=30, seed=4), TIMING, CONST, calibrated_noise())
        assert all(float(r.imbalance).is_integer() for r in recs)


class TestNoiseOffLimits:
    def test_exact_null_measurement(self):
        # compensating chirp, no noise channels, analog readout: a null
        # measurement with p exactly one half
        noise = quiet_noise(projection_noise=False)
        rec = simulate_shot(TIMING, CONST, noise, G_TRUE, ALPHA_COMP, seed=1, index=0)
        assert rec.imbalance == 0.0
        assert rec.count_f2 / (rec.count_f1 + rec.count_f2) == 0.5

    def test_analog_mean_matches_phase_model(self):
        # the deterministic readout equals (N/2) C sin(S (g - alpha/k))
        from gravlab import scale_factor

        noise = quiet_noise(projection_noise=False, contrast=0.9)
        alpha = 9.8126 * CONST.k_eff_per_m
        rec = simulate_shot(TIMING, CONST, noise, G_TRUE, alpha, seed=1, index=0)
        s = scale_factor(TIMING, CONST)
        phi = (G_TRUE - alpha / CONST.k_eff_per_m) * s
        assert rec.imbalance == pytest.approx(3000.0 * 0.9 * math.sin(phi), rel=1e-12)

    def test_simulator_mean_tracks_analytic_slope(self):
        # Monte-Carlo mean of Jz vs the analytic linear response
        from gravlab import scale_factor

        noise = quiet_noise()
        dg = 2.0e-6
        alpha = (G_TRUE - dg) * CONST.k_eff_per_m
        n_shots = 3000
        jz = [
            simulate_shot(TIMING, CONST, noise, G_TRUE, alpha, seed=77, index=i).imbalance
            for i in range(n_shots)
        ]
        s = scale_factor(TIMING, CONST)
        expect = 3000.0 * math.sin(dg * s)
        sem = math.sqrt(6000.0 / 4.0) / math.sqrt(n_shots)
        assert np.mean(jz) == pytest.approx(expect, abs=3 * sem)


class TestStatistics:
    def test_projection_limit_recovered(self):
        recs = run_campaign(
            CampaignConfig(n_pairs=5000, seed=42, alpha_rad_per_s2=ALPHA_COMP),
            TIMING,
            CONST,
            quiet_noise(),
        )
        jz = np.array([r.imbalance for r in recs])
        var = float(np.var(jz, ddof=1))
        se = 1500.0 * math.sqrt(2.0 / (len(jz) - 1))
        assert abs(var - 1500.0) < 3 * se

    def test_calibrated_variance_at_compensating_chirp(self):
        # variance of the squeezed readout = (N/4) 10^(-0.54), the
        # calibrated tomography minimum (detection noise included)
        recs = run_campaign(
            CampaignConfig(n_pairs=5000, seed=41, alpha_rad_per_s2=ALPHA_COMP),
            TIMING,
            CONST,
            calibrated_noise(),
        )
        jz = np.array([r.imbalance for r in recs])
        target = 1500.0 * 10.0**-0.54
        assert float(np.var(jz, ddof=1)) == pytest.approx(target, rel=0.05)

    def test_mean_p_is_half_at_compensating_chirp(self):
        recs = run_campaign(
            CampaignConfig(n_pairs=4000, seed=40, alpha_rad_per_s2=ALPHA_COMP),
            TIMING,
            CONST,
            quiet_noise(),
        )
        p = np.array([r.count_f2 / (r.count_f1 + r.count_f2) for r in recs])
        sem = float(np.std(p, ddof=1)) / math.sqrt(len(p))
        assert abs(float(np.mean(p)) - 0.5) < 3 * sem

    @pytest.mark.parametrize(
        "channel,values",
        [
            ("sigma_ac_rad", (0.0, 0.004, 0.012)),
            ("sigma_raman_phase_rad", (0.0, 0.004, 0.012)),
            ("sigma_accel_m_s2", (0.0, 5e-3, 2e-2)),
            ("atom_number_sigma", (0.0, 100.0, 400.0)),
        ],
    )
    def test_delta_p_variance_monotone_in_sigma(self, channel, values):
        def dp_var(noise):
            recs = run_campaign(CampaignConfig(n_pairs=600, seed=7), TIMING, CONST, noise)
            p = np.array([r.count_f2 / (r.count_f1 + r.count_f2) for r in recs])
            return float(np.var(p[0::2] - p[1::2], ddof=1))

        got = [dp_var(calibrated_noise(**{channel: v})) for v in values]
        assert got[0] <= got[1] * (1 + 1e-9) and got[1] <= got[2] * (1 + 1e-9)

    def test_delta_p_variance_monotone_in_detection_noise(self):
        def dp_var(sigma_det):
            model = replace(calibrate_model(-5.4, 9.9, 6000.0), detection_noise_atoms=sigma_det)
            recs = run_campaign(
                CampaignConfig(n_pairs=600, seed=7),
                TIMING,
                CONST,
                NoiseConfig(squeezing=model, contrast=0.98),
            )
            p = np.array([r.count_f2 / (r.count_f1 + r.count_f2) for r in recs])
            return float(np.var(p[0::2] - p[1::2], ddof=1))

        got = [dp_var(v) for v in (0.0, 16.6, 40.0)]
        assert got == sorted(got)


class TestEchoResidual:
    def test_symmetric_halves_cancel_exactly(self):
        assert echo_residual_phase(2 * math.pi * 123.0, 5e-3, 5e-3) == 0.0

    def test_duration_imbalance_leaves_linear_phase(self):
        got = echo_residual_phase(2 * math.pi * 10.0, 1.1e-3, 1.0e-3)
        assert got == pytest.approx(2 * math.pi * 10.0 * 1e-4, rel=1e-12)

    def test_zero_offset(self):
        assert echo_residual_phase(0.0, 1.0, 2.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            echo_residual_phase(1.0, -1e-3, 1e-3)


class TestShotLogIO:
    def test_round_trip_is_exact(self, tmp_path):
        recs = run_campaign(
            CampaignConfig(n_pairs=25, seed=13), TIMING, CONST, calibrated_noise(sigma_ac_rad=0.01)
        )
        path = tmp_path / "shots.jsonl"
        write_shot_log(recs, path)
        assert read_shot_log(path) == recs

    def test_empty_log_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            read_shot_log(path)

    def test_malformed_line_reported_with_number(self, tmp_path):
        recs = run_campaign(CampaignConfig(n_pairs=1, seed=13), TIMING, CONST, quiet_noise())
        path = tmp_path / "bad.jsonl"
        write_shot_log(recs, path)
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        with pytest.raises(DataError, match="line 3"):
            read_shot_log(path)

    @pytest.mark.parametrize(
        "field, value, why",
        [
            ("count_f1", float("nan"), "count_f1 is nan"),
            ("wall_time_s", float("inf"), "wall_time_s is inf"),
            ("count_f2", -2.0, "negative count"),
            ("imbalance", 1e3, "imbalance 1000.0 is not"),
        ],
    )
    def test_invalid_record_reported_with_file_and_line(self, tmp_path, field, value, why):
        recs = run_campaign(CampaignConfig(n_pairs=2, seed=13), TIMING, CONST, quiet_noise())
        recs[2] = replace(recs[2], **{field: value})
        path = tmp_path / "bad.jsonl"
        write_shot_log(recs, path)
        with pytest.raises(DataError, match=f"bad.jsonl: bad shot record on line 3: {why}"):
            read_shot_log(path)

    def test_analog_readout_log_reads_back(self, tmp_path):
        # unquantized counts n/2 -+ jz agree with the imbalance only to rounding
        recs = run_campaign(
            CampaignConfig(n_pairs=25, seed=13), TIMING, CONST,
            quiet_noise(projection_noise=False, sigma_ac_rad=0.3),
        )
        path = tmp_path / "analog.jsonl"
        write_shot_log(recs, path)
        assert read_shot_log(path) == recs

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"index": 0}) + "\n")
        with pytest.raises(DataError):
            read_shot_log(path)


class TestValidation:
    def test_noise_config_bounds(self):
        with pytest.raises(ConfigError):
            quiet_noise(contrast=0.0)
        with pytest.raises(ConfigError):
            quiet_noise(contrast=1.2)
        with pytest.raises(ConfigError):
            quiet_noise(raman_efficiency=0.0)
        with pytest.raises(ConfigError):
            quiet_noise(sigma_ac_rad=-1.0)
        with pytest.raises(ConfigError):
            quiet_noise(atom_number_mean=0.5)

    def test_effective_contrast_folds_pulse_efficiency(self):
        noise = quiet_noise(contrast=0.98, raman_efficiency=0.99)
        assert noise.effective_contrast == pytest.approx(0.98 * 0.99**4, rel=1e-15)

    def test_campaign_bounds(self):
        with pytest.raises(ConfigError):
            CampaignConfig(n_pairs=0)
        with pytest.raises(ConfigError):
            CampaignConfig(t1_s=1e-4, t2_s=1e-4)
        with pytest.raises(ConfigError):
            CampaignConfig(cycle_time_s=0.0)
