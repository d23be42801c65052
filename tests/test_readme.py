"""The README's Python examples run as written, so they cannot drift from
the API they show."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_python_block_runs(k, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write their files here
    monkeypatch.delenv("GRAVLAB_CONFIG", raising=False)  # the built-in config, as the examples assume
    exec(compile(BLOCKS[k], f"{README.name} python block {k + 1}", "exec"), {"__name__": "__readme__"})
