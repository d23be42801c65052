"""Golden outputs: the command set of regenerate_golden.py writes, row for
row, what tests/golden/ holds. A change that moves an output on purpose
reruns that script and says which files changed and why."""

import math
import os
import shutil

import pytest

from regenerate_golden import GOLDEN, PLATFORM_RTOL, PLATFORM_TOLERANT, generate

STORED = sorted(
    os.path.relpath(os.path.join(root, name), GOLDEN) for root, _, names in os.walk(GOLDEN) for name in names
)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    generate(directory)
    return directory


def same_row(name, want, got) -> bool:
    """The same text, or for a PLATFORM_TOLERANT file the same fields with
    each number within PLATFORM_RTOL of the stored one."""
    if want == got or name not in PLATFORM_TOLERANT:
        return want == got
    return want.count(",") == got.count(",") and all(map(is_close, want.split(","), got.split(",")))


def is_close(want: str, got: str) -> bool:
    """The same field, or two numbers within PLATFORM_RTOL of each other."""
    try:
        return want == got or math.isclose(float(want), float(got), rel_tol=PLATFORM_RTOL, abs_tol=0.0)
    except ValueError:
        return False


def mismatch(stored, fresh, name):
    """None if the file `name` holds the same rows under both directories,
    else a line naming the file and its first differing row (1 = the first line)."""
    with open(os.path.join(stored, name), encoding="utf-8") as fh:
        want = fh.read().split("\n")
    with open(os.path.join(fresh, name), encoding="utf-8") as fh:
        got = fh.read().split("\n")
    for row, (w, g) in enumerate(zip(want, got), start=1):
        if not same_row(name, w, g):
            return f"{name} row {row}: stored {w!r}, now {g!r}"
    if len(want) != len(got):
        return f"{name}: {len(want) - 1} stored rows, now {len(got) - 1}"
    return None


def test_the_command_set_writes_the_stored_files(fresh):
    now = sorted(os.path.relpath(os.path.join(root, name), fresh) for root, _, names in os.walk(fresh) for name in names)
    assert now == STORED


@pytest.mark.parametrize("name", STORED)
def test_output_matches_its_golden_file(fresh, name):
    problem = mismatch(GOLDEN, fresh, name)
    assert problem is None, problem


@pytest.mark.parametrize("name", ["reproduce/summary.csv", "pulse/blackman.csv", "simulate/shots.jsonl.blake2b16"])
def test_one_changed_digit_names_the_file_and_row(fresh, tmp_path, name):
    shutil.copytree(GOLDEN, tmp_path / "edited")
    path = tmp_path / "edited" / name
    lines = path.read_text(encoding="utf-8").split("\n")
    # the last decimal digit on the third line (the first for a digest)
    row = 0 if len(lines) < 4 else 2
    at = max(k for k, char in enumerate(lines[row]) if char.isdigit())
    lines[row] = lines[row][:at] + str((int(lines[row][at]) + 1) % 10) + lines[row][at + 1 :]
    path.write_text("\n".join(lines), encoding="utf-8")
    assert mismatch(tmp_path / "edited", fresh, name).startswith(f"{name} row {row + 1}: stored ")
    assert mismatch(GOLDEN, fresh, name) is None


def test_a_platform_tolerant_value_is_held_to_its_tolerance(fresh, tmp_path):
    name = "fringes/fringes.csv"
    assert name in PLATFORM_TOLERANT
    shutil.copytree(GOLDEN, tmp_path / "edited")
    path = tmp_path / "edited" / name
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[1].split(",")
    value = float(fields[1])
    for factor, caught in ((1 + PLATFORM_RTOL / 10, False), (1 + PLATFORM_RTOL * 10, True)):
        lines[1] = ",".join([*fields[:1], repr(value * factor), *fields[2:]])
        path.write_text("\n".join(lines), encoding="utf-8")
        problem = mismatch(tmp_path / "edited", fresh, name)
        assert (problem is not None and problem.startswith(f"{name} row 2: stored ")) is caught, problem
