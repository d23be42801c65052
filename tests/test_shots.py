"""Shot generator: determinism, draw accounting, statistics, log I/O."""

import io
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Philox

from gravlab import (
    CampaignConfig,
    ConfigError,
    DataError,
    DomainError,
    NoiseConfig,
    PhysicalConstants,
    SequenceTiming,
    ShotTable,
    SqueezingModel,
    calibrate_model,
    coherent_model,
    parse_config,
    read_shot_log,
    run_campaign,
    scale_factor,
    simulate_shot,
    tomography_variance,
    write_shot_log,
)
from gravlab.shots import (
    CAMPAIGN_BLOCK_SHOTS,
    LOG_CHUNK_LINES,
    N_CHANNELS,
    SHOT_FIELDS,
    _standard_normals,
)

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


def edited(shots, rows, **values):
    """A copy of the table with each named column set to its value at `rows`."""
    columns = {name: getattr(shots, name).copy() for name in values}
    for name, value in values.items():
        columns[name][rows] = value
    return replace(shots, **columns)


class TestDeterminism:
    def test_campaign_reruns_identically(self):
        camp = CampaignConfig(n_pairs=50, seed=9)
        a = run_campaign(camp, TIMING, CONST, calibrated_noise(sigma_ac_rad=0.01))
        b = run_campaign(camp, TIMING, CONST, calibrated_noise(sigma_ac_rad=0.01))
        assert a == b

    def test_stream_version_3_golden_shots(self):
        # literal counts of the first shots under the built-in config: a
        # change in numpy's Philox or in the counter layout moves them
        cfg = parse_config("")
        shots = run_campaign(CampaignConfig(n_pairs=2, seed=7), cfg.timing, cfg.constants, cfg.noise)
        assert shots.count_f1.tolist() == [3030.0, 2937.0, 2965.0, 3010.0]
        assert shots.count_f2.tolist() == [2970.0, 3063.0, 3035.0, 2990.0]
        assert shots.imbalance.tolist() == [-30.0, 63.0, 35.0, -10.0]

    def test_every_shot_regenerates_alone(self):
        # every index of a campaign, then the edges of the generation blocks
        noise = calibrated_noise(
            sigma_ac_rad=0.3, sigma_raman_phase_rad=0.1, atom_number_sigma=900.0, sigma_accel_m_s2=1e-3
        )
        camp = CampaignConfig(n_pairs=150, seed=2**64 - 3)
        records = run_campaign(camp, TIMING, CONST, noise)
        for i in range(len(records)):
            lone = simulate_shot(camp, TIMING, CONST, noise, index=i)
            assert lone == records[i], i
            # even indices run the long T, odd ones the short T
            assert lone.free_evolution_s[0] == (camp.t2_s if i % 2 else camp.t1_s)
        camp = CampaignConfig(n_pairs=CAMPAIGN_BLOCK_SHOTS + 3, seed=17)
        records = run_campaign(camp, TIMING, CONST, noise)
        assert len(records) == 2 * camp.n_pairs > CAMPAIGN_BLOCK_SHOTS
        for i in (0, CAMPAIGN_BLOCK_SHOTS - 1, CAMPAIGN_BLOCK_SHOTS, len(records) - 1):
            assert simulate_shot(camp, TIMING, CONST, noise, index=i) == records[i], i

    def test_scale_factor_beyond_the_float_range_is_refused(self):
        # a 1e200 s pulse: the scale factor overflows, where the phases once read NaN
        with pytest.raises(DomainError, match="^scale_s2_per_m leaves the float range at pulse_s=1e\\+200, "):
            run_campaign(CampaignConfig(n_pairs=5, seed=1), SequenceTiming(pulse_s=1e200), CONST, calibrated_noise())

    @pytest.mark.parametrize(
        "model",
        # e^(2r) at r = 400 is no float; at r = 354 it is, and its product with N/4 at 1e300 atoms is not
        [SqueezingModel(strength=400.0), SqueezingModel(atom_number=1e300, strength=354.0)],
        ids=["exponential", "product"],
    )
    def test_variance_beyond_the_float_range_is_refused_as_the_tomography_refuses_it(self, model):
        words = re.escape(f"the imbalance variance leaves the float range at model={model!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{words}$"):
                run_campaign(CampaignConfig(n_pairs=5, seed=1), TIMING, CONST, NoiseConfig(squeezing=model))
            with pytest.raises(DomainError, match=f"^{words}, phi_rad=1.0$"):
                tomography_variance(model, 1.0)

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
        camp = CampaignConfig(g_true_m_per_s2=G_TRUE, alpha_rad_per_s2=ALPHA_COMP, seed=3)
        a = simulate_shot(camp, TIMING, CONST, base, index=0)
        b = simulate_shot(camp, TIMING, CONST, also, index=0)
        assert a.imbalance == b.imbalance


def numpy_philox_block(seed, index, channel):
    """numpy's Philox4x64-10 block for one channel of one shot, built
    alone; numpy increments the counter before it generates, so this is
    block N_CHANNELS * index + channel + 1 under key seed."""
    return Philox(key=seed, counter=N_CHANNELS * index + channel).random_raw(4)


def box_muller(w0, w1):
    """The generator's Box-Muller map of words 0 and 1, in numpy."""
    u1 = ((w0 >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (w1 >> np.uint64(11)) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


class TestPhiloxKernel:
    # (seed, first shot, shots): index 0, top-bit seeds, the shot whose
    # channel-0 counter is 2^64 - 1 (its next block carries into word 1),
    # indices >= 2^62 (every counter past 2^64) and the last index 2^63 - 1
    RANGES = [(0, 0, 3), (7, 0, 4), (2**64 - 1, 5, 2), (3, 2**64 // N_CHANNELS - 1, 3),
              (2**63 + 5, 2**62, 2), (2**64 - 2, 2**63 - 3, 3)]
    rng = np.random.default_rng(2011)
    RANGES += [(int(s), int(i), 2) for s, i in zip(rng.integers(0, 2**64, 20, dtype=np.uint64),
                                                   rng.integers(0, 2**63 - 1, 20, dtype=np.int64))]

    def test_blocks_bit_exact_against_numpy(self):
        for seed, first, n in self.RANGES:
            blocks = np.array([[numpy_philox_block(seed, first + k, c) for k in range(n)] for c in range(N_CHANNELS)])
            want = box_muller(blocks[..., 0], blocks[..., 1])
            assert np.array_equal(_standard_normals(seed, first, n), want), (seed, first)
        assert N_CHANNELS * (2**64 // N_CHANNELS) == 2**64 - 1  # the carry range's middle shot starts there

    def test_gaussians_are_box_muller_of_words_0_and_1(self):
        seed = 2**63 + 17
        for first in (0, 2**40, 2**62, 2**63 - 3):
            got = _standard_normals(seed, first, 3)
            for c in range(N_CHANNELS):
                for k in range(3):
                    w0, w1, _, _ = (int(w) for w in numpy_philox_block(seed, first + k, c))
                    u1 = ((w0 >> 11) + 1) * 2.0**-53
                    u2 = (w1 >> 11) * 2.0**-53
                    want = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                    assert got[c, k] == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_gaussian_moments(self):
        z = _standard_normals(99, 0, 40000)
        assert z.shape == (N_CHANNELS, 40000)
        se = 1.0 / math.sqrt(40000)
        assert np.all(np.abs(z.mean(axis=1)) < 4 * se)
        assert np.all(np.abs(z.var(axis=1) - 1.0) < 4 * math.sqrt(2.0) * se)
        corr = np.corrcoef(z)
        assert np.all(np.abs(corr - np.eye(N_CHANNELS)) < 4 * se)


def scalar_shot(z, noise, g_true, alpha, scale):
    """One shot's counts from its five normals, shot by shot in Python
    floats: the reference for the array arithmetic of the generator."""
    n = max(1, int(round(noise.squeezing.atom_number + noise.atom_number_sigma * z[0])))
    n -= n % 2
    phi = (
        (g_true + noise.sigma_accel_m_s2 * z[1] - alpha / CONST.k_eff_per_m) * scale
        + noise.sigma_ac_rad * z[2]
        + noise.sigma_raman_phase_rad * z[3]
    )
    mean_jz = 0.5 * n * noise.effective_contrast * math.sin(phi)
    if not noise.projection_noise:
        return n / 2.0 - mean_jz, n / 2.0 + mean_jz
    r = noise.squeezing.strength
    var = (n / 4.0) * (
        math.exp(-2.0 * r) * math.cos(phi) ** 2 + math.exp(2.0 * r) * math.sin(phi) ** 2
    ) + noise.squeezing.detection_noise_atoms**2
    x = mean_jz + math.sqrt(var) * z[4]
    jz = min(max(math.copysign(math.floor(abs(x) + 0.5), x), -n / 2.0), n / 2.0)
    return n / 2.0 - jz, n / 2.0 + jz


class TestArrayArithmetic:
    @pytest.mark.parametrize(
        "noise",
        [
            calibrated_noise(sigma_ac_rad=0.4, sigma_raman_phase_rad=0.2, atom_number_sigma=700.0, sigma_accel_m_s2=1e-4),
            # a few atoms: zero-atom shots, half-way roundings and clamps
            calibrated_noise(squeezing=replace(calibrate_model(-5.4, 9.9, 6000.0), atom_number=2.0), atom_number_sigma=1.5),
            quiet_noise(projection_noise=False, sigma_ac_rad=0.3, atom_number_sigma=50.0),
        ],
        ids=["noisy", "few-atoms", "analog"],
    )
    def test_counts_match_the_scalar_reference(self, noise):
        camp = CampaignConfig(n_pairs=400, seed=17)
        recs = run_campaign(camp, TIMING, CONST, noise)
        z = _standard_normals(camp.seed, 0, len(recs))
        scales = {t: scale_factor(replace(TIMING, free_evolution_s=t), CONST) for t in (camp.t1_s, camp.t2_s)}
        for i, t in enumerate(recs.free_evolution_s.tolist()):
            f1, f2 = scalar_shot(z[:, i], noise, camp.g_true_m_per_s2, camp.alpha_rad_per_s2, scales[t])
            # the counts are whole atoms, or the analog mean for the last case
            assert recs.count_f1[i] == pytest.approx(f1, rel=1e-12, abs=1e-9)
            assert recs.count_f2[i] == pytest.approx(f2, rel=1e-12, abs=1e-9)


class TestCampaignLayout:
    def test_single_pair_order(self):
        camp = CampaignConfig(n_pairs=1, seed=5)
        recs = run_campaign(camp, TIMING, CONST, quiet_noise())
        assert len(recs) == 2
        assert recs.free_evolution_s.tolist() == [camp.t1_s, camp.t2_s]

    @pytest.mark.parametrize("n_pairs", [1, 7, 300])
    def test_length_counts_shots(self, n_pairs):
        recs = run_campaign(CampaignConfig(n_pairs=n_pairs, seed=5), TIMING, CONST, quiet_noise())
        assert len(recs) == 2 * n_pairs
        assert all(len(getattr(recs, name)) == 2 * n_pairs for name in SHOT_FIELDS)

    def test_alternation_and_wall_time(self):
        camp = CampaignConfig(n_pairs=8, seed=5, cycle_time_s=52.0)
        recs = run_campaign(camp, TIMING, CONST, quiet_noise())
        assert recs.index.tolist() == list(range(16))
        assert recs.wall_time_s.tolist() == [i * 52.0 for i in range(16)]
        assert recs.free_evolution_s.tolist() == [camp.t1_s, camp.t2_s] * 8

    def test_counts_sum_to_even_atom_number(self):
        camp = CampaignConfig(n_pairs=40, seed=12)
        recs = run_campaign(camp, TIMING, CONST, calibrated_noise(atom_number_sigma=333.0))
        total = recs.count_f1 + recs.count_f2
        assert np.all(total % 2 == 0)
        assert np.all(recs.count_f1 >= 0) and np.all(recs.count_f2 >= 0)
        assert np.array_equal(recs.imbalance, (recs.count_f2 - recs.count_f1) / 2)

    def test_imbalance_integer_quantized(self):
        recs = run_campaign(CampaignConfig(n_pairs=30, seed=4), TIMING, CONST, calibrated_noise())
        assert np.array_equal(recs.imbalance, np.round(recs.imbalance))


class TestNoiseOffLimits:
    def test_exact_null_measurement(self):
        # compensating chirp, no noise channels, analog readout: a null
        # measurement with p exactly one half
        noise = quiet_noise(projection_noise=False)
        camp = CampaignConfig(g_true_m_per_s2=G_TRUE, alpha_rad_per_s2=ALPHA_COMP, seed=1)
        rec = simulate_shot(camp, TIMING, CONST, noise, index=0)
        assert len(rec) == 1
        assert rec.imbalance[0] == 0.0
        assert rec.count_f2[0] / (rec.count_f1[0] + rec.count_f2[0]) == 0.5

    def test_analog_mean_matches_phase_model(self):
        # the deterministic readout equals (N/2) C sin(S (g - alpha/k))
        from gravlab import scale_factor

        noise = quiet_noise(projection_noise=False, contrast=0.9)
        alpha = 9.8126 * CONST.k_eff_per_m
        camp = CampaignConfig(g_true_m_per_s2=G_TRUE, alpha_rad_per_s2=alpha, seed=1)
        rec = simulate_shot(camp, TIMING, CONST, noise, index=0)  # even: the long T, t1_s
        s = scale_factor(replace(TIMING, free_evolution_s=camp.t1_s), CONST)
        phi = (G_TRUE - alpha / CONST.k_eff_per_m) * s
        assert rec.imbalance[0] == pytest.approx(3000.0 * 0.9 * math.sin(phi), rel=1e-12)

    def test_simulator_mean_tracks_analytic_slope(self):
        # Monte-Carlo mean of Jz vs the analytic linear response
        from gravlab import scale_factor

        noise = quiet_noise()
        dg = 2.0e-6
        alpha = (G_TRUE - dg) * CONST.k_eff_per_m
        n_shots = 3000
        camp = CampaignConfig(g_true_m_per_s2=G_TRUE, alpha_rad_per_s2=alpha, seed=77)
        jz = [simulate_shot(camp, TIMING, CONST, noise, index=i).imbalance[0] for i in range(n_shots)]
        # each shot's own response: odd indices run the short T
        s = [scale_factor(replace(TIMING, free_evolution_s=t), CONST) for t in (camp.t1_s, camp.t2_s)]
        expect = np.mean([3000.0 * math.sin(dg * s[i % 2]) for i in range(n_shots)])
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
        jz = recs.imbalance
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
        jz = recs.imbalance
        target = 1500.0 * 10.0**-0.54
        assert float(np.var(jz, ddof=1)) == pytest.approx(target, rel=0.05)

    def test_mean_p_is_half_at_compensating_chirp(self):
        recs = run_campaign(
            CampaignConfig(n_pairs=4000, seed=40, alpha_rad_per_s2=ALPHA_COMP),
            TIMING,
            CONST,
            quiet_noise(),
        )
        p = recs.count_f2 / (recs.count_f1 + recs.count_f2)
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
            p = recs.count_f2 / (recs.count_f1 + recs.count_f2)
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
            p = recs.count_f2 / (recs.count_f1 + recs.count_f2)
            return float(np.var(p[0::2] - p[1::2], ddof=1))

        got = [dp_var(v) for v in (0.0, 16.6, 40.0)]
        assert got == sorted(got)


class TestShotTable:
    def shots(self):
        return run_campaign(CampaignConfig(n_pairs=5, seed=3), TIMING, CONST, calibrated_noise())

    def test_column_types(self):
        shots = self.shots()
        for name in SHOT_FIELDS:
            column = getattr(shots, name)
            assert column.shape == (10,)
            assert column.dtype == (np.int64 if name == "index" else np.float64)

    def test_rows_select_every_column(self):
        shots = self.shots()
        assert shots[-1] == shots[9:10] == shots[np.array([9])]
        assert len(shots[-1]) == 1
        picked = shots[shots.index % 3 == 0]
        assert picked.index.tolist() == [0, 3, 6, 9]
        assert picked.imbalance.tolist() == shots.imbalance[::3].tolist()
        with pytest.raises(IndexError):
            shots[10]

    def test_columns_are_read_only(self):
        counts = np.arange(4.0)
        shots = ShotTable(np.arange(4), np.zeros(4), np.zeros(4), counts, counts, np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            shots.count_f1[0] = 5.0
        counts[0] = 5.0  # the caller's array stays writable
        assert shots.count_f1[0] == 5.0

    def test_equality_compares_every_value(self):
        shots = self.shots()
        assert shots == self.shots()
        assert shots != edited(shots, 7, wall_time_s=np.nextafter(shots.wall_time_s[7], np.inf))
        assert shots != shots[:-1]
        assert shots != list(shots)

    def test_ragged_columns_rejected(self):
        with pytest.raises(DataError):
            replace(self.shots(), count_f1=np.zeros(9))
        with pytest.raises(DataError):
            replace(self.shots(), count_f1=np.zeros((10, 1)))


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
        recs = edited(recs, 2, **{field: value})
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

    @staticmethod
    def json_lines(shots):
        rows = zip(*(getattr(shots, name).tolist() for name in SHOT_FIELDS))
        return "".join(json.dumps(dict(zip(SHOT_FIELDS, row)), separators=(",", ":")) + "\n" for row in rows)

    @pytest.mark.parametrize(
        "noise",
        [calibrated_noise(sigma_ac_rad=0.01, atom_number_sigma=300.0), quiet_noise(projection_noise=False, sigma_ac_rad=0.3)],
        ids=["quantized", "analog"],
    )
    def test_writer_bytes_equal_json_dumps(self, noise):
        # more shots than one chunk, and a partial last chunk
        recs = run_campaign(CampaignConfig(n_pairs=LOG_CHUNK_LINES + 7, seed=21), TIMING, CONST, noise)
        out = io.StringIO()
        write_shot_log(recs, out)
        assert out.getvalue() == self.json_lines(recs)

    def test_writer_spells_special_values_like_json(self):
        recs = run_campaign(CampaignConfig(n_pairs=3, seed=21), TIMING, CONST, quiet_noise())
        special = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -5e-324, 2**53 + 1]
        whole = [0, -1, 2**53 + 1, 2**63 - 1]
        edits = [(f, v) for f in SHOT_FIELDS for v in (whole if f == "index" else special)]
        recs = recs[np.arange(len(edits)) % 6]
        columns = {name: getattr(recs, name).copy() for name in SHOT_FIELDS}
        for k, (field, value) in enumerate(edits):
            columns[field][k] = value
        recs = ShotTable(**columns)
        out = io.StringIO()
        write_shot_log(recs, out)
        assert out.getvalue() == self.json_lines(recs)
        assert ":NaN," in out.getvalue() and ":-Infinity}" in out.getvalue()

    def test_special_values_on_both_sides_of_a_chunk_edge(self, tmp_path):
        # rows LOG_CHUNK_LINES - 1 and LOG_CHUNK_LINES end the first chunk and
        # make up the second: each holds NaN, +-inf, -0.0, 5e-324 and 1e300
        # among its float fields, in another order on each row
        edge = LOG_CHUNK_LINES
        recs = run_campaign(CampaignConfig(n_pairs=edge // 2 + 1, seed=21), TIMING, CONST, quiet_noise())[: edge + 1]
        special = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]
        columns = {name: getattr(recs, name).copy() for name in SHOT_FIELDS}
        for row in (edge - 1, edge):
            for k, name in enumerate(SHOT_FIELDS[1:]):
                columns[name][row] = special[(k + row) % len(special)]
        special_rows, out = ShotTable(**columns), io.StringIO()
        write_shot_log(special_rows, out)
        assert out.getvalue().splitlines() == self.json_lines(special_rows).splitlines()

        # finite rows a reader accepts: zero imbalances of equal counts, extreme times
        finite = edited(recs, [edge - 1, edge], count_f1=[5e-324, 1e300], count_f2=[5e-324, 1e300],
                        imbalance=[-0.0, -0.0], free_evolution_s=[1e300, 5e-324], wall_time_s=[1e300, -0.0])
        path = tmp_path / "edge.jsonl"
        write_shot_log(finite, path)
        back = read_shot_log(path)
        for name in SHOT_FIELDS:
            assert getattr(back, name).view(np.int64).tolist() == getattr(finite, name).view(np.int64).tolist(), name

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage\n")
        with pytest.raises(DataError, match="not UTF-8"):
            read_shot_log(path)

    @pytest.mark.parametrize(
        "value, why",
        [
            (1.5, "index is '1.5', not an integer"),
            (-1e300, "index is '-1e+300', not an integer"),
            (2**63, "index 9.223372036854776e+18 is not a whole number in the int64 range"),
        ],
    )
    def test_fractional_or_huge_index_rejected(self, tmp_path, value, why):
        recs = run_campaign(CampaignConfig(n_pairs=2, seed=13), TIMING, CONST, quiet_noise())
        lines = self.json_lines(recs).splitlines()
        row = json.loads(lines[1])
        row["index"] = value
        lines[1] = json.dumps(row, separators=(",", ":"))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"line 2: {why}")):
            read_shot_log(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"index": 0}, separators=(",", ":")) + "\n")
        with pytest.raises(DataError, match="line 1: missing key 'free_evolution_s'"):
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
            quiet_noise(squeezing=coherent_model(0.5))

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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make, field",
        [
            (CampaignConfig, "t1_s"),
            (CampaignConfig, "t2_s"),
            (CampaignConfig, "alpha_rad_per_s2"),
            (CampaignConfig, "g_true_m_per_s2"),
            (CampaignConfig, "cycle_time_s"),
            (quiet_noise, "sigma_ac_rad"),
            (quiet_noise, "sigma_raman_phase_rad"),
            (quiet_noise, "atom_number_sigma"),
            (quiet_noise, "sigma_accel_m_s2"),
            (SqueezingModel, "atom_number"),
            (SqueezingModel, "strength"),
            (SqueezingModel, "optimal_phase_rad"),
            (SqueezingModel, "detection_noise_atoms"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_non_finite_number_refused_on_construction(self, make, field, value):
        with pytest.raises(ConfigError, match="must be (a finite number|a duration in seconds > 0)"):
            make(**{field: value})

    def test_zero_atom_shots_without_detection_noise(self):
        # an empty shot has zero readout variance; it is generated, then
        # counted and skipped by the analysis, as with detection noise on
        model = SqueezingModel(atom_number=1, strength=0.5, detection_noise_atoms=0)
        noise = NoiseConfig(squeezing=model, atom_number_sigma=2)
        camp = CampaignConfig(n_pairs=200)
        shots = run_campaign(camp, TIMING, CONST, noise)
        empty = shots.count_f1 + shots.count_f2 == 0
        assert empty.any() and not shots.imbalance[empty].any()
        noisy = run_campaign(camp, TIMING, CONST, replace(noise, squeezing=replace(model, detection_noise_atoms=1e-3)))
        assert np.array_equal(noisy.count_f1 + noisy.count_f2 == 0, empty)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, True, "7", None])
    def test_campaign_refuses_a_seed_that_is_not_a_key_word(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer in"):
            CampaignConfig(seed=seed)

    @pytest.mark.parametrize("n_pairs", [2.5, 0, -3, True, "8"])
    def test_campaign_refuses_a_pair_count_that_is_not_a_whole_number(self, n_pairs):
        with pytest.raises(ConfigError, match=r"n_pairs must be an integer in \[1, 500000\]"):
            CampaignConfig(n_pairs=n_pairs)

    def test_campaign_takes_numpy_integers_as_python_ints(self):
        noise = quiet_noise()
        a = run_campaign(CampaignConfig(n_pairs=np.int64(3), seed=np.uint64(2**64 - 1)), TIMING, CONST, noise)
        assert a == run_campaign(CampaignConfig(n_pairs=3, seed=2**64 - 1), TIMING, CONST, noise)

    # an index at or above 2^63 would wrap in the int64 index column
    @pytest.mark.parametrize("index", [1.5, -1, 2**63, 2**64 - 1, 2**64, True, "1", np.float64(1.0)])
    def test_simulate_shot_refuses_an_index_that_is_not_a_shot_index(self, index):
        with pytest.raises(DomainError, match=r"shot index must be an integer in \[0, 2\^63\)"):
            simulate_shot(CampaignConfig(n_pairs=2), TIMING, CONST, quiet_noise(), index=index)

    def test_simulate_shot_takes_the_last_shot_index(self, tmp_path):
        shot = simulate_shot(CampaignConfig(seed=3), TIMING, CONST, quiet_noise(), index=2**63 - 1)
        write_shot_log(shot, tmp_path / "shot.jsonl")
        assert shot.index.tolist() == read_shot_log(tmp_path / "shot.jsonl").index.tolist() == [2**63 - 1]
