"""Each command and layer loads only the libraries it calls."""

import math
import os
import subprocess
import sys
import textwrap

import gravlab

SRC = os.path.dirname(os.path.dirname(gravlab.__file__))


def run_fresh(body: str) -> tuple[list[str], set[str]]:
    """Stdout lines of a fresh interpreter that runs `body`, and the names
    of the modules it has loaded by then: this test session has long since
    imported scipy, PyYAML and hashlib. No GRAVLAB_CONFIG reaches it."""
    code = textwrap.dedent(body) + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("GRAVLAB_CONFIG", None)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], set(lines[-1].split())


def run_cli(argv) -> tuple[list[str], set[str]]:
    return run_fresh(f"import gravlab.cli\nassert gravlab.cli.main({argv!r}) == 0")


def scipy_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


def fringe_scans(tmp_path) -> list[str]:
    scans = []
    for scale in (-1.42, -0.767):
        path = tmp_path / f"scan{len(scans)}.csv"
        xs = [9.8 + 0.05 * i for i in range(-120, 121)]  # alpha / k_eff, crossing at 9.8126
        rows = [f"{x * 1.61057e7!r},{0.5 + 0.49 * math.cos(scale * (x - 9.8126))!r}" for x in xs]
        path.write_text("\n".join(["alpha_rad_per_s2,p", *rows]) + "\n")
        scans.append(str(path))
    return scans


def test_reproduce_loads_no_scipy(tmp_path):
    _, modules = run_cli(["reproduce", "--pairs", "16", "--output-dir", str(tmp_path)])
    assert scipy_modules(modules) == []
    assert (tmp_path / "summary.csv").exists()


def test_fringes_loads_no_scipy(tmp_path):
    lines, modules = run_cli(["fringes", *fringe_scans(tmp_path), "--output-dir", str(tmp_path)])
    assert scipy_modules(modules) == []
    assert any(line.startswith("sigma_alpha_star_over_keff_m_s2,") for line in lines)


def test_fringes_loads_no_numpy_ma(tmp_path):
    # np.median would load it, through its NaN check
    lines, modules = run_cli(["fringes", *fringe_scans(tmp_path), "--output-dir", str(tmp_path)])
    assert "numpy.ma" not in modules
    assert any(line.startswith("alpha_star_rad_per_s2,") for line in lines)


def test_analyze_and_reproduce_load_no_numpy_ma(tmp_path):
    # np.percentile would load it, through np.unique's masked-array check
    _, modules = run_cli(["reproduce", "--pairs", "16", "--output-dir", str(tmp_path)])
    assert "numpy.ma" not in modules
    log = tmp_path / "shots_squeezed.jsonl"
    _, modules = run_cli(["analyze", "--shots", str(log), "--output-dir", str(tmp_path), "--out", "a.csv"])
    assert "numpy.ma" not in modules
    assert (tmp_path / "a.csv").exists()


def test_scale_factor_without_config_loads_no_yaml_or_hashlib():
    lines, modules = run_cli(["scale-factor"])
    assert lines
    assert {"yaml", "hashlib"}.isdisjoint(modules)


def test_fock_layer_runs_without_scipy():
    # sys.modules["scipy"] = None makes every import of scipy or of a
    # scipy module raise ImportError
    lines, modules = run_fresh(
        """
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from gravlab import squeezing as sq
        space = sq.FockSpace(n_max=12)
        chain = sq.build_hamiltonians(space, sq.HamiltonianParams())
        moved = sq.mode_transform(sq.evolve(chain.two_mode, sq.vacuum_state(space), 0.8), space)
        block = sq.pump_block(space, sq.HamiltonianParams(pump_atoms=6000))
        pumped = sq.evolve(block, np.eye(block.shape[0])[0], 0.8)
        print(chain.two_mode.nnz, block.nnz, *(round(float(np.linalg.norm(v)), 12) for v in (moved, pumped)))
        """
    )
    assert lines == ["288 36 1.0 1.0"]
    assert scipy_modules(modules) == ["scipy"]  # the blocking entry, no module


def test_every_command_runs_without_scipy(tmp_path):
    # the runtime needs numpy and PyYAML only: each command, the constant-detuning
    # pulse included, runs with every import of scipy blocked
    out = str(tmp_path)
    log = str(tmp_path / "s.jsonl")
    commands = [
        ["reproduce", "--pairs", "16", "--output-dir", str(tmp_path / "reproduce")],
        ["simulate", "--pairs", "20", "--output-dir", out, "--out", "s.jsonl"],
        ["analyze", "--shots", log, "--output-dir", out, "--out", "a.csv"],
        ["allan", "--shots", log, "--output-dir", out, "--out", "adev.csv"],
        ["fringes", *fringe_scans(tmp_path), "--output-dir", out],
        ["scale-factor"],
        ["tomography", "--points", "8"],
        ["tomography", "--coherent", "--points", "8"],
        ["pulse", "--samples", "5"],
        ["pulse", "--detuning-hz", "2500", "--detuning-sigma-hz", "500"],
        ["pulse", "--detuning-hz", "2500", "--detuning-sigma-hz", "500", "--model", "constant"],
    ]
    _, modules = run_fresh(
        f"""
        import sys
        sys.modules["scipy"] = None
        import gravlab.cli
        for argv in {commands!r}:
            assert gravlab.cli.main(argv) == 0, argv
        """
    )
    assert scipy_modules(modules) == ["scipy"]  # the blocking entry, no module
