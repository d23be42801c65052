"""Acceptance gate: every headline claim of the toolkit, one test each.

Each test prints a single PASS/FAIL line with the measured numbers to
the real stdout (bypassing capture) so a full run reads as a checklist.
Tolerances are the shipped ones; nothing here is loosened to force a
green run, and a genuine physics limit is allowed to show up as FAIL.
A basis-size limit is not one: a claim is checked on a basis that can
hold the state, and the truncation error of the smaller default basis
is reported alongside.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gravlab import (
    CampaignConfig,
    FockSpace,
    HamiltonianParams,
    NoiseConfig,
    PhysicalConstants,
    PulseShape,
    SequenceTiming,
    allan_deviation,
    averaged_transfer,
    build_hamiltonians,
    calibrate_model,
    coherent_model,
    delta_p,
    estimate_g,
    evolve,
    gravity_from_delta_p,
    mean_occupations,
    metrological_squeezing,
    net_area,
    phase_noise_budget,
    run_campaign,
    scale_factor,
    squeezing_parameter,
    tomography_variance,
    vacuum_state,
    write_shot_log,
)

CONST = PhysicalConstants()
TIMING = SequenceTiming()  # tau 60 us, separation 77 us, T 455 us


def campaign_estimates(squeezed: bool, n_pairs: int, seed: int):
    """Simulate one campaign and run the full estimation chain on it."""
    model = calibrate_model(-5.4, 9.9, 6000.0)
    if not squeezed:
        model = replace(model, strength=0.0)
    noise = NoiseConfig(squeezing=model, contrast=0.98, sigma_ac_rad=0.007816159981487004)
    camp = CampaignConfig(n_pairs=n_pairs, seed=seed)
    records = run_campaign(camp, TIMING, CONST, noise)
    s1 = scale_factor(replace(TIMING, free_evolution_s=camp.t1_s), CONST)
    s2 = scale_factor(replace(TIMING, free_evolution_s=camp.t2_s), CONST)
    deltas = delta_p(records)
    grav = estimate_g(deltas, 0.98, s1, s2, camp.alpha_rad_per_s2, CONST)
    squeeze = metrological_squeezing(deltas, contrast=0.98)
    return records, deltas, grav, squeeze


class TestAcceptance:
    @pytest.fixture(autouse=True)
    def _live_output(self, capsys):
        # the checklist lines must reach the terminal even for passing
        # tests, and pytest captures at the file-descriptor level
        self._capsys = capsys

    def report(self, num: int, ok: bool, detail: str):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
        with self._capsys.disabled():
            print(line, flush=True)
        assert ok, line

    def test_criterion_01_scale_factors(self):
        t0 = time.perf_counter()
        s1 = scale_factor(TIMING, CONST)
        s2 = scale_factor(replace(TIMING, free_evolution_s=155e-6), CONST)
        runtime = time.perf_counter() - t0
        e1 = abs(s1 - 1.4290) / 1.4290
        e2 = abs(s2 - 0.7707) / 0.7707
        ok = e1 <= 0.015 and e2 <= 0.015 and runtime < 1.0
        self.report(
            1,
            ok,
            f"S(455us) = {s1:.4f} s^2/m (ref 1.4290, {e1:.2%} off), "
            f"S(155us) = {s2:.4f} s^2/m (ref 0.7707, {e2:.2%} off), {runtime * 1e3:.0f} ms",
        )

    def test_criterion_02_linearity_and_zero_area(self):
        span = CONST.k_eff_per_m * (TIMING.pulse_s + TIMING.separation_s)
        s1 = scale_factor(TIMING, CONST)
        s2 = scale_factor(replace(TIMING, free_evolution_s=155e-6), CONST)
        lin_err = abs((s1 - s2) - span * (455e-6 - 155e-6)) / abs(s1 - s2)

        rng = np.random.default_rng(123)
        worst_area = 0.0
        for _ in range(100):
            timing = SequenceTiming(
                pulse_s=rng.uniform(20e-6, 90e-6),
                separation_s=rng.uniform(30e-6, 150e-6),
                free_evolution_s=rng.uniform(100e-6, 800e-6),
                start_s=rng.uniform(-1e-3, 1e-3),
            )
            tol_scale = timing.pulse_s + timing.separation_s
            worst_area = max(worst_area, abs(net_area(timing)) / tol_scale)
        ok = lin_err <= 1e-6 and worst_area <= 1e-9
        self.report(
            2,
            ok,
            f"linearity residual {lin_err:.2e} (tol 1e-6), "
            f"worst |net area| {worst_area:.2e} x (tau+sep) over 100 random timings (tol 1e-9)",
        )

    def test_criterion_03_pulse_transfer(self):
        shape = PulseShape(kind="blackman", duration_s=64.8e-6)
        mean, std = averaged_transfer(shape, 2 * math.pi * 2500.0, 2 * math.pi * 500.0)
        ok = abs(mean - 0.981) <= 0.010 and abs(std - 0.007) <= 0.004
        self.report(
            3,
            ok,
            f"transfer {mean:.4f} (ref 0.981 +- 0.010), spread {std:.4f} (ref 0.007 +- 0.004)",
        )

    def test_criterion_04_hamiltonian_algebra_and_evolution(self):
        h12 = build_hamiltonians(FockSpace(n_max=12), HamiltonianParams())
        two_mode, h_s, h_a = (m.toarray() for m in (h12.two_mode, h12.symmetric_mode, h12.antisymmetric_mode))
        algebra_err = float(np.max(np.abs(two_mode - (h_s - h_a))))

        def occupation_errors(n_max: int, strengths: tuple) -> list:
            space = FockSpace(n_max=n_max)
            h = build_hamiltonians(space, HamiltonianParams(interaction_rad_s=1.0))
            errors = []
            for r in strengths:
                n_plus, _ = mean_occupations(evolve(h.two_mode, vacuum_state(space), r), space)
                errors.append((abs(n_plus - math.sinh(r) ** 2), r))
            return errors

        # the r = 1.5 state needs n_max >= 80 for 1e-6 (README, numerical
        # limits); 100 leaves margin
        worst_err, worst_r = max(occupation_errors(100, (0.5, 1.0, 1.5)))
        # reported, not asserted: the documented truncation limit of the
        # default 40-level ladder
        [(err_40, _)] = occupation_errors(40, (1.5,))
        ok = algebra_err < 1e-10 and worst_err < 1e-6
        self.report(
            4,
            ok,
            f"mode-split residual {algebra_err:.1e} (tol 1e-10); "
            f"occupation error {worst_err:.1e} at r = {worst_r} on n_max = 100 (tol 1e-6). "
            f"Truncation limit: n_max = 40 gives {err_40:.1e} at r = 1.5, where the "
            f"ideal state has 2.8e-4 of its population beyond n = 40 and the "
            f"truncated evolution puts 2.1e-4 in the top level; 1e-6 needs "
            f"n_max ~ 80 (see README, numerical limits)",
        )

    def test_criterion_05_tomography_calibration(self):
        model = calibrate_model(-5.4, 9.9, 6000.0)
        db_min = squeezing_parameter(
            tomography_variance(model, model.optimal_phase_rad), 6000.0
        )[1]
        db_max = squeezing_parameter(
            tomography_variance(model, model.optimal_phase_rad + math.pi / 2), 6000.0
        )[1]
        coherent = coherent_model(6000.0)
        flat = [
            squeezing_parameter(tomography_variance(coherent, phi), 6000.0)[1]
            for phi in np.linspace(0.0, 2 * math.pi, 37)
        ]
        ok = (
            abs(db_min - (-5.4)) < 1e-9
            and abs(db_max - 9.9) < 1e-9
            and abs(model.strength - 1.131) < 1e-3
            and abs(model.detection_noise_atoms - 16.6) < 0.05
            and all(db == 0.0 for db in flat)
        )
        self.report(
            5,
            ok,
            f"calibrated extremes {db_min:+.4f} / {db_max:+.4f} dB (targets -5.4 / +9.9), "
            f"r = {model.strength:.4f} (~1.131), sigma_det = {model.detection_noise_atoms:.2f} "
            f"(~16.6); coherent flat at 0 dB over 37 angles",
        )

    def test_criterion_06_end_to_end_gravity(self):
        t0 = time.perf_counter()
        _, _, grav, squeeze_s = campaign_estimates(squeezed=True, n_pairs=5000, seed=7)
        _, _, _, squeeze_c = campaign_estimates(squeezed=False, n_pairs=5000, seed=8)
        runtime = time.perf_counter() - t0
        g_err = abs(grav.g_exp_m_s2 - 9.812637)
        ok = (
            g_err <= 2.0 * grav.sigma_g_m_s2
            and abs(squeeze_s.db - (-1.7)) <= 0.3
            and abs(squeeze_c.db - 2.2) <= 0.3
            and runtime < 120.0
        )
        self.report(
            6,
            ok,
            f"g = {grav.g_exp_m_s2:.6f} +- {grav.sigma_g_m_s2:.6f} m/s^2 "
            f"(|g - g_true| = {g_err:.2e}, limit {2 * grav.sigma_g_m_s2:.2e}); "
            f"squeezed {squeeze_s.db:+.2f} dB (ref -1.7 +- 0.3), "
            f"coherent {squeeze_c.db:+.2f} dB (ref +2.2 +- 0.3); {runtime:.1f} s",
        )

    def test_criterion_07_gravity_formula(self):
        g = gravity_from_delta_p(2.56e-4, 0.98, -1.42, -0.767, 9.8126 * CONST.k_eff_per_m, CONST)
        err = abs(g - 9.8118)
        ok = err <= 1e-4
        self.report(7, ok, f"g from the published operating point = {g:.6f} m/s^2 (|err| = {err:.1e}, tol 1e-4)")

    def test_criterion_08_allan_behavior(self):
        # averaging-time advantage of the squeezed campaign
        recs_s, deltas_s, _, _ = campaign_estimates(squeezed=True, n_pairs=10000, seed=7)
        recs_c, deltas_c, _, _ = campaign_estimates(squeezed=False, n_pairs=10000, seed=8)
        tau0 = float(deltas_s.times_s[1] - deltas_s.times_s[0])
        allan_s = allan_deviation(deltas_s.values, tau0)
        allan_c = allan_deviation(deltas_c.values, tau0)
        ratio = float((allan_c.adev[0] / allan_s.adev[0]) ** 2)
        target = 10.0**0.39
        ratio_ok = abs(ratio - target) <= 0.2 * target

        # white noise follows sigma / sqrt(m), averaged over realizations
        acc, m_kept = [], None
        for seed in range(32):
            x = np.random.default_rng(seed).normal(0.0, 1.0, 1024)
            out = allan_deviation(x, 1.0)
            m = np.round(out.tau_s).astype(int)
            keep = m <= 1024 // 10
            acc.append(out.adev[keep])
            m_kept = m[keep]
        white_dev = float(np.max(np.abs(np.mean(acc, axis=0) * np.sqrt(m_kept) - 1.0)))
        white_ok = white_dev < 0.10

        # closed forms: constant series reads zero, linear drift reads
        # rate * tau / sqrt(2)
        const_max = float(np.max(allan_deviation(np.full(64, 0.25), 1.0).adev))
        drift = allan_deviation(1.3e-5 * 2.0 * np.arange(512), 2.0)
        drift_err = float(
            np.max(np.abs(drift.adev / (1.3e-5 * drift.tau_s / math.sqrt(2.0)) - 1.0))
        )
        closed_ok = const_max == 0.0 and drift_err < 1e-9

        ok = ratio_ok and white_ok and closed_ok
        self.report(
            8,
            ok,
            f"time-to-instability ratio {ratio:.2f} (target {target:.2f} +- 20%); "
            f"white-noise ADEV within {white_dev:.1%} of sigma/sqrt(m) for m <= M/10 (tol 10%); "
            f"constant series ADEV = {const_max}, drift closed form off by {drift_err:.1e}",
        )

    def test_criterion_09_phase_noise_budget(self):
        budget = phase_noise_budget(1.2e-3, 6000.0)
        ok = abs(budget.delta_jz_atoms - 3.6) <= 0.1 and abs(budget.db_vs_sql - (-20.6)) <= 0.1
        self.report(
            9,
            ok,
            f"1.2 mrad on 6000 atoms -> {budget.delta_jz_atoms:.2f} atoms "
            f"(ref 3.6, rounded to 4 in print), {budget.db_vs_sql:.2f} dB (ref -20.6)",
        )

    def test_criterion_10_determinism(self, tmp_path):
        camp = CampaignConfig(n_pairs=500, seed=7)
        noise = NoiseConfig(squeezing=calibrate_model(-5.4, 9.9, 6000.0), contrast=0.98)
        a = run_campaign(camp, TIMING, CONST, noise)
        b = run_campaign(camp, TIMING, CONST, noise)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_shot_log(a, pa)
        write_shot_log(b, pb)
        ok = a == b and pa.read_bytes() == pb.read_bytes()
        self.report(
            10,
            ok,
            "re-run with the same seed is byte-identical; every shot is a pure "
            "function of (seed, index), so the result cannot depend on execution order",
        )
