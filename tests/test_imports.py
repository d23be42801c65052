"""The CLI loads scipy only where a command calls it."""

import math
import os
import subprocess
import sys
import textwrap

import gravlab

SRC = os.path.dirname(os.path.dirname(gravlab.__file__))


def stdout_lines_listing_scipy(argv):
    """Stdout lines of a fresh interpreter that runs the CLI on `argv` and
    then lists its scipy modules: this test session has long since
    imported scipy."""
    code = textwrap.dedent(
        f"""
        import sys
        import gravlab.cli
        assert gravlab.cli.main({argv!r}) == 0
        print("scipy modules:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_reproduce_loads_no_scipy(tmp_path):
    lines = stdout_lines_listing_scipy(["reproduce", "--pairs", "16", "--output-dir", str(tmp_path)])
    assert lines[-1] == "scipy modules: []"
    assert (tmp_path / "summary.csv").exists()


def test_fringes_loads_no_scipy(tmp_path):
    scans = []
    for scale in (-1.42, -0.767):
        path = tmp_path / f"scan{len(scans)}.csv"
        xs = [9.8 + 0.05 * i for i in range(-120, 121)]  # alpha / k_eff, crossing at 9.8126
        rows = [f"{x * 1.61057e7!r},{0.5 + 0.49 * math.cos(scale * (x - 9.8126))!r}" for x in xs]
        path.write_text("\n".join(["alpha_rad_per_s2,p", *rows]) + "\n")
        scans.append(str(path))
    lines = stdout_lines_listing_scipy(["fringes", *scans, "--output-dir", str(tmp_path)])
    assert lines[-1] == "scipy modules: []"
    assert any(line.startswith("sigma_alpha_star_over_keff_m_s2,") for line in lines)
