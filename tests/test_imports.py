"""The CLI loads scipy only where a command calls it."""

import os
import subprocess
import sys
import textwrap

import gravlab

SRC = os.path.dirname(os.path.dirname(gravlab.__file__))


def test_reproduce_loads_no_scipy(tmp_path):
    # a fresh interpreter: this test session has long since imported scipy
    code = textwrap.dedent(
        f"""
        import sys
        import gravlab.cli
        assert gravlab.cli.main(["reproduce", "--pairs", "16", "--output-dir", {str(tmp_path)!r}]) == 0
        print("scipy modules:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "scipy modules: []"
    assert (tmp_path / "summary.csv").exists()
