"""Each benchmark check accepts gravlab's real output and rejects a copy
with one number (or one byte) changed, and a copy with one number NaN.

    PYTHONPATH=src python3 -m pytest -q bench

The outputs come from gravlab itself, run in-process on small inputs.
"""

import json
import math

import numpy as np
import pytest

import checks
import run
from gravlab import squeezing as sq
from gravlab.cli import main as gravlab

K_EFF, TAU, SEP = 1.61057e7, 60e-6, 77e-6


def _replace_value(text, key, transform):
    """A quantity,value CSV with the value of ``key`` replaced."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == key:
            cells[1] = repr(transform(float(cells[1])))
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise KeyError(key)


def _replace_cell(text, row, column, transform):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(transform(float(cells[j])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _flip_byte(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


# ---------------------------------------------------------------------------
# reproduce


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep")
    assert gravlab(["reproduce", "--output-dir", str(out), "--pairs", "300", "--seed", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    return out, manifest, files


def test_summary_accepted(reproduced):
    _, manifest, files = reproduced
    assert checks.check_summary(checks.quantity_table(files["summary.csv"].decode()), manifest["config"]) == []


@pytest.mark.parametrize("key, transform", [
    ("transfer_mean", lambda v: v + 1e-7),
    ("transfer_std", lambda v: v + 1e-7),
    ("scale_factor_long_T", lambda v: v * (1 + 1e-5)),
    ("tomography_min_db", lambda v: v + 1e-8),
    ("tomography_max_db", lambda v: v - 1e-8),
    ("g_exp", lambda v: v + 0.05),
    ("squeezed_metrological_db", lambda v: abs(v) + 0.1),
    ("coherent_metrological_db", lambda v: -abs(v) - 0.1),
    *((key, lambda v: math.nan) for key in (
        "transfer_mean", "transfer_std", "scale_factor_long_T", "scale_factor_short_T", "tomography_min_db",
        "tomography_max_db", "g_exp", "sigma_g", "squeezed_metrological_db", "coherent_metrological_db")),
])
def test_summary_rejects_one_changed_number(reproduced, key, transform):
    _, manifest, files = reproduced
    text = _replace_value(files["summary.csv"].decode(), key, transform)
    assert checks.check_summary(checks.quantity_table(text), manifest["config"])


@pytest.fixture(scope="module")
def arm_reference(reproduced):
    out, manifest, files = reproduced
    i = checks.config_inputs(manifest["config"])
    ref = checks.log_reference(out / "shots_squeezed.jsonl", i["contrast"], *i["scales"], i["k_eff"])
    return ref, files["analysis_squeezed.csv"].decode()


def test_recomputation_accepts_analysis(arm_reference):
    ref, text = arm_reference
    assert checks.check_recomputed(checks.quantity_table(text), ref) == []


@pytest.mark.parametrize("key", ["g_exp_m_s2", "sigma_g_m_s2", "squeezing_db", "n_pairs"])
def test_recomputation_rejects_one_changed_number(arm_reference, key):
    ref, text = arm_reference
    bad = _replace_value(text, key, lambda v: v + 1 if key == "n_pairs" else v * (1 + 1e-8))
    assert checks.check_recomputed(checks.quantity_table(bad), ref)
    nan = _replace_value(text, key, lambda v: math.nan)
    assert checks.check_recomputed(checks.quantity_table(nan), ref)


def test_manifest_accepts_and_rejects_one_byte(reproduced):
    _, manifest, files = reproduced
    assert checks.check_manifest(manifest, files) == []
    for name in ("shots_squeezed.jsonl", "summary.csv"):
        bad = dict(files, **{name: _flip_byte(files[name], len(files[name]) // 2)})
        assert checks.check_manifest(manifest, bad)
    unfinished = dict(manifest, finished_utc=None)
    assert checks.check_manifest(unfinished, files)


def test_byte_identity_rejects_one_byte(reproduced):
    _, _, files = reproduced
    first = {k: checks.blake2b64(v) for k, v in files.items()}
    assert checks.check_identical(first, dict(first)) == []
    again = dict(first, **{"allan_squeezed.csv": checks.blake2b64(_flip_byte(files["allan_squeezed.csv"], 20))})
    assert checks.check_identical(first, again)


# ---------------------------------------------------------------------------
# commands


@pytest.fixture(scope="module")
def stored_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("log")
    log = out / "shots.jsonl"
    assert gravlab(["simulate", "--pairs", "400", "--seed", "3", "--output-dir", str(out), "--out", "shots.jsonl"]) == 0
    assert gravlab(["analyze", "--shots", str(log), "--output-dir", str(out)]) == 0
    assert gravlab(["allan", "--shots", str(log), "--output-dir", str(out)]) == 0
    i = checks.config_inputs(json.loads((out / "shots.jsonl.manifest.json").read_text())["config"])
    ref = checks.log_reference(log, i["contrast"], *i["scales"], i["k_eff"])
    return out, ref


def test_analyze_checked_against_log(stored_log):
    out, ref = stored_log
    text = (out / "analysis.csv").read_text()
    assert checks.check_recomputed(checks.quantity_table(text), ref) == []
    bad = _replace_value(text, "squeezing_db", lambda v: v + 1e-6)
    assert checks.check_recomputed(checks.quantity_table(bad), ref)
    nan = _replace_value(text, "squeezing_db", lambda v: math.nan)
    assert checks.check_recomputed(checks.quantity_table(nan), ref)


@pytest.mark.parametrize("column", ["tau_s", "adev", "err"])
def test_allan_rejects_one_changed_number(stored_log, column):
    out, ref = stored_log
    allan_ref = checks.allan_reference(ref["delta_p"], ref["tau0_s"])
    text = (out / "allan.csv").read_text()
    assert checks.check_allan(checks.csv_rows(text), allan_ref) == []
    bad = _replace_cell(text, 2, column, lambda v: v * (1 + 1e-8))
    assert checks.check_allan(checks.csv_rows(bad), allan_ref)
    nan = _replace_cell(text, 2, column, lambda v: math.nan)
    assert checks.check_allan(checks.csv_rows(nan), allan_ref)


def test_allan_reference_is_the_overlapping_sum():
    # x_j = (-1)^j: at m = 1 every term is +-2; at even m every block
    # sums to 0
    x = np.array([(-1.0) ** j for j in range(48)])
    ref = checks.allan_reference(x, 2.0)
    assert [t for t, _, _ in ref] == [2.0, 4.0, 8.0, 16.0, 32.0]
    assert ref[0][1] == pytest.approx(math.sqrt(4.0 / 2.0))  # every term is +-2
    assert [a for _, a, _ in ref[1:]] == [0.0] * 4


@pytest.fixture(scope="module")
def fringes(tmp_path_factory):
    out = tmp_path_factory.mktemp("fringes")
    scans, truth = run.fringe_scans(K_EFF, TAU, SEP, 9.81265, 9.8, 0.5, 0.4)
    for name, text in scans.items():
        (out / name).write_text(text)
    return out, scans, truth


def test_fringes_checked_against_generating_fringes(fringes, capsys):
    out, scans, truth = fringes
    capsys.readouterr()
    assert gravlab(["fringes", "--output-dir", str(out), *(str(out / n) for n in scans)]) == 0
    stdout = capsys.readouterr().out
    fits = (out / "fringes.csv").read_text()
    assert checks.check_fringes(stdout, checks.csv_rows(fits), truth) == []

    crossing = [ln for ln in stdout.splitlines() if ln.startswith("alpha_star_over_keff_m_s2,")][0]
    moved = float(crossing.split(",")[1]) + 2e-6
    bad = stdout.replace(crossing, f"alpha_star_over_keff_m_s2,{moved!r}")
    assert checks.check_fringes(bad, checks.csv_rows(fits), truth)
    bad_fits = _replace_cell(fits, 1, "scale_s2_per_m", lambda v: v * (1 + 1e-5))
    assert checks.check_fringes(stdout, checks.csv_rows(bad_fits), truth)

    nan = stdout.replace(crossing, "alpha_star_over_keff_m_s2,nan")
    assert checks.check_fringes(nan, checks.csv_rows(fits), truth)
    nan_fits = _replace_cell(fits, 1, "scale_s2_per_m", lambda v: math.nan)
    assert checks.check_fringes(stdout, checks.csv_rows(nan_fits), truth)


def test_scale_factor_checked(capsys):
    capsys.readouterr()
    assert gravlab(["scale-factor"]) == 0
    text = capsys.readouterr().out
    assert checks.check_scale_factor(text, K_EFF, TAU, SEP, 455e-6) == []
    assert checks.check_scale_factor(_replace_value(text, "net_area_s", lambda v: 1e-12), K_EFF, TAU, SEP, 455e-6)
    assert checks.check_scale_factor(_replace_value(text, "scale_s2_per_m", lambda v: v * (1 + 1e-5)),
                                     K_EFF, TAU, SEP, 455e-6)
    for key in ("net_area_s", "scale_s2_per_m"):
        assert checks.check_scale_factor(_replace_value(text, key, lambda v: math.nan), K_EFF, TAU, SEP, 455e-6)


def test_pulse_checked(capsys):
    capsys.readouterr()
    p = run.PULSE
    assert gravlab(["pulse", "--tau-s", repr(p["tau_s"]), "--detuning-hz", repr(p["detuning_hz"]),
                    "--detuning-sigma-hz", repr(p["sigma_hz"])]) == 0
    text = capsys.readouterr().out
    ref = checks.transfer_closed_form(p["tau_s"], p["detuning_hz"], p["sigma_hz"])
    assert checks.check_pulse(text, ref) == []
    for column in ("transfer_mean", "transfer_std"):
        assert checks.check_pulse(_replace_cell(text, 0, column, lambda v: v + 1e-7), ref)
        assert checks.check_pulse(_replace_cell(text, 0, column, lambda v: math.nan), ref)


# ---------------------------------------------------------------------------
# fock


def test_fock_evolution_checked():
    space = sq.FockSpace(n_max=40)
    chain = sq.build_hamiltonians(space, sq.HamiltonianParams())
    state = sq.evolve(chain.two_mode, sq.vacuum_state(space), 0.5)
    first = (np.abs(state.reshape(41, 41)) ** 2).sum(axis=1)
    n_plus, norm = float(first @ np.arange(41)), float(np.sqrt(first.sum()))
    assert checks.check_fock_evolution(0.5, n_plus, norm) == []
    assert checks.check_fock_evolution(0.5, n_plus + 2e-6, norm)
    assert checks.check_fock_evolution(0.5, n_plus, norm + 2e-8)
    assert checks.check_fock_evolution(0.5, math.nan, norm)
    assert checks.check_fock_evolution(0.5, n_plus, math.nan)


def test_mode_transform_marginal_checked():
    space = sq.FockSpace(n_max=20)
    chain = sq.build_hamiltonians(space, sq.HamiltonianParams())
    out = sq.mode_transform(sq.evolve(chain.two_mode, sq.vacuum_state(space), 0.5), space)
    marginal = (np.abs(out.reshape(21, 21)) ** 2).sum(axis=1)
    assert checks.check_marginal(marginal, 0.5) == []
    bad = marginal.copy()
    bad[4] += 2e-4
    assert checks.check_marginal(bad, 0.5)
    nan = marginal.copy()
    nan[4] = math.nan
    assert checks.check_marginal(nan, 0.5)


def test_squeezed_vacuum_marginal_sums_to_one():
    p = checks.squeezed_vacuum_marginal(1.13, 400)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p[1::2] == 0.0)
    assert p @ np.arange(401) == pytest.approx(math.sinh(1.13) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------


def test_unreadable_output_fails_its_check(tmp_path):
    def check(proc):
        return checks.check_recomputed(checks.quantity_table((tmp_path / "analysis.csv").read_text()), {})

    assert run.Bench.run_check(check, None)
    (tmp_path / "analysis.csv").write_text("quantity,value\n")
    assert run.Bench.run_check(check, None)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
