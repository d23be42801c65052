"""Shot log reader: a log in the writer's layout reads back exactly, and
any other line, or a record that cannot be analyzed, is refused with the
file, the line and the field named, across read chunks."""

import json
import re

import numpy as np
import pytest

from gravlab import (
    CampaignConfig,
    DataError,
    NoiseConfig,
    PhysicalConstants,
    SequenceTiming,
    calibrate_model,
    read_shot_log,
    run_campaign,
    write_shot_log,
)
from gravlab import shots as shots_module

TIMING = SequenceTiming()
CONST = PhysicalConstants()
NOISE = NoiseConfig(squeezing=calibrate_model(-5.4, 9.9, 6000.0), contrast=0.98, sigma_ac_rad=0.01)


def campaign(n_pairs, **overrides):
    return run_campaign(CampaignConfig(n_pairs=n_pairs, seed=13, **overrides), TIMING, CONST, NOISE)


def writer_lines(shots, tmp_path):
    path = tmp_path / "writer.jsonl"
    write_shot_log(shots, path)
    return path.read_text().splitlines()


def reversed_keys(line, separators=(", ", ": ")):
    """The same record with its keys reversed; json's default separators
    put a space after each."""
    return json.dumps(dict(reversed(list(json.loads(line).items()))), separators=separators)


def former_layout(line, layout):
    """The record as written while the shots carried a g_true_m_per_s2
    column (the simulated truth, after the chirp) and, before that, also
    a stream_id column (always equal to index, before wall_time_s)."""
    line = re.sub(r'("chirp_rad_per_s2":[^,]*,)', r'\1"g_true_m_per_s2":9.812637,', line)
    if layout == "stream_id":
        line = re.sub(r'("index":([0-9]+),.*),("wall_time_s":)', r'\1,"stream_id":\2,\3', line)
    return line


# a log rewritten out of the writer's layout, and the line and the
# reason its refusal names
OTHER_LAYOUTS = {
    "reordered-keys-and-spaces": (lambda lines: [reversed_keys(ln) for ln in lines], 1, "key 'index' out of place"),
    "reordered-keys": (lambda lines: [reversed_keys(ln, (",", ":")) for ln in lines], 1, "key 'index' out of place"),
    "spaces": (lambda lines: [json.dumps(json.loads(ln)) for ln in lines], 1, "index is ' 0', not an integer"),
    "mixed": (
        lambda lines: [reversed_keys(ln) if k % 7 == 3 else ln for k, ln in enumerate(lines)],
        4,
        "key 'index' out of place",
    ),
    "g_true": (lambda lines: [former_layout(ln, "g_true") for ln in lines], 1, "key 'count_f1' out of place"),
    "stream_id": (lambda lines: [former_layout(ln, "stream_id") for ln in lines], 1, "key 'count_f1' out of place"),
    "blank-lines": (lambda lines: ["", *lines, "  "], 1, "blank line"),
    "whitespace-last": (lambda lines: [*lines, "  "], 41, "blank line"),
    "text-after-the-record": (lambda lines: [ln + "}" for ln in lines], 1, "'}}' after wall_time_s, not '}'"),
    "float-index": (
        lambda lines: [ln.replace('"index":1,', '"index":1.0,') for ln in lines],
        2,
        "index is '1.0', not an integer",
    ),
}


@pytest.fixture(params=[None, 700], ids=["default-chunks", "small-chunks"])
def chunk_chars(request, monkeypatch):
    """Read with the default chunk size, and with chunks of a few lines."""
    if request.param is not None:
        monkeypatch.setattr(shots_module, "LOG_READ_CHARS", request.param, raising=False)
    return request.param


class TestOtherLayouts:
    @pytest.mark.parametrize("layout", list(OTHER_LAYOUTS))
    def test_other_layout_refused_naming_line_and_field(self, tmp_path, chunk_chars, layout):
        rewrite, line_no, reason = OTHER_LAYOUTS[layout]
        path = tmp_path / "other.jsonl"
        path.write_text("\n".join(rewrite(writer_lines(campaign(20), tmp_path))) + "\n")
        pattern = f"{re.escape(str(path))}: bad shot record on line {line_no}: {re.escape(reason)}$"
        with pytest.raises(DataError, match=pattern):
            read_shot_log(path)

    @pytest.mark.parametrize("spelling", ["0.00001", "1E-5", "1.0e-05", "10e-6", "1e-5"])
    def test_number_spellings_read_back_equal(self, tmp_path, spelling, chunk_chars):
        shots = campaign(10, t2_s=1e-05)
        log = tmp_path / "writer.jsonl"
        write_shot_log(shots, log)
        text = log.read_text()
        assert '"free_evolution_s":1e-05,' in text
        path = tmp_path / "spelled.jsonl"
        path.write_text(text.replace('"free_evolution_s":1e-05,', f'"free_evolution_s":{spelling},'))
        assert read_shot_log(path) == read_shot_log(log) == shots

    def test_integral_counts_written_as_ints(self, tmp_path):
        shots = campaign(5)
        text = "\n".join(writer_lines(shots, tmp_path))
        path = tmp_path / "ints.jsonl"
        path.write_text(re.sub(r'"(count_f1|count_f2|imbalance|wall_time_s)":(-?[0-9]+)\.0([,}])', r'"\1":\2\3', text))
        assert re.search(r'"count_f1":[0-9]+,', path.read_text())
        assert read_shot_log(path) == shots

    def test_windows_line_ends_and_no_final_newline(self, tmp_path, chunk_chars):
        shots = campaign(12)
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("\r\n".join(writer_lines(shots, tmp_path)).encode())
        assert read_shot_log(path) == shots


class TestFloatSpellings:
    """With one parse path, a float spelling that the value pattern missed
    would be an error: every form repr gives must read back equal."""

    @pytest.mark.parametrize("chirp", [5e-324, -0.0, 1e16, 1.5e-7, -1.7976931348623157e308, 158038791.82])
    def test_every_repr_spelling_reads_back_equal(self, tmp_path, chunk_chars, chirp):
        shots = campaign(50)
        # wall_time_s takes any finite float, free_evolution_s any > 0;
        # the rest of each column is random bit patterns, subnormals included
        wall = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e300, 52.0, 1e15, 1e22, 2.0**60, -1234.5, 1.7976931348623157e308]
        t_free = [5e-324, 2.2250738585072014e-308, 1e-300, 1e-05, 1e-07, 1.5, 1.0, 1e16, 1e22, 1e300]
        rng = np.random.default_rng(11)
        drawn = rng.integers(1, 0x7FF0000000000000, size=(2, len(shots)), dtype=np.int64).view(float)  # > 0, finite
        drawn[1] *= rng.choice([-1.0, 1.0], size=len(shots))
        columns = {name: getattr(shots, name) for name in shots_module.SHOT_FIELDS}
        columns["free_evolution_s"] = np.concatenate([t_free, drawn[0, len(t_free) :]])
        columns["wall_time_s"] = np.concatenate([wall, drawn[1, len(wall) :]])
        columns["chirp_rad_per_s2"] = np.full(len(shots), chirp)
        shots = shots_module.ShotTable(**columns)
        path = tmp_path / "spellings.jsonl"
        write_shot_log(shots, path)
        assert read_shot_log(path) == shots


def test_patterns_compile_on_python_3_10():
    # possessive quantifiers and atomic groups are new in Python 3.11's re
    for token in ("*+", "++", "?+", "}+", "(?>"):
        assert token not in shots_module._WRITER_LINE.pattern


class TestWholeColumns:
    @pytest.mark.parametrize("value", [2**53 + 1, 2**63 - 1, -(2**63)])
    @pytest.mark.parametrize("field", ["index"])
    def test_large_ints_read_back_exactly(self, tmp_path, chunk_chars, value, field):
        shots = campaign(3)
        columns = {name: getattr(shots, name).copy() for name in shots_module.SHOT_FIELDS}
        columns[field][4] = value
        shots = shots_module.ShotTable(**columns)
        path = tmp_path / "large.jsonl"
        write_shot_log(shots, path)
        back = read_shot_log(path)
        assert getattr(back, field)[4] == value
        assert back == shots

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("9223372036854775808", "index 9.223372036854776e+18 is not a whole number in the int64 range"),
            ("-9223372036854775809", "index -9.223372036854776e+18 is not a whole number in the int64 range"),
            ("1" * 400, "index is inf"),
            ("1e19", "index is '1e19', not an integer"),
            ("2.5", "index is '2.5', not an integer"),
        ],
        ids=["2^63", "-2^63-1", "400-digits", "1e19", "2.5"],
    )
    def test_outside_int64_or_fractional_refused(self, tmp_path, chunk_chars, value, reason):
        lines = writer_lines(campaign(3), tmp_path)
        lines[3] = re.sub(r'"index":[^,]*', f'"index":{value}', lines[3])
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line 4: {re.escape(reason)}$"):
            read_shot_log(path)


class TestLongLog:
    def test_log_longer_than_a_read_chunk_round_trips(self, tmp_path, chunk_chars):
        shots = campaign(2000)
        path = tmp_path / "long.jsonl"
        write_shot_log(shots, path)
        assert path.stat().st_size > 2 * (1 << 18)  # three default chunks
        assert read_shot_log(path) == shots


def bad_line(line, problem):
    """`line` with one problem put in, keeping its layout."""
    if problem == "missing key":
        return re.sub(r',"count_f2":[^,]*', "", line)
    field, value = {
        "NaN": ("count_f1", "NaN"),
        "Infinity": ("wall_time_s", "Infinity"),
        "negative count": ("count_f2", "-2.0"),
        "bad imbalance": ("imbalance", "1000.0"),
        "T not > 0": ("free_evolution_s", "0.0"),
        "chirp varies": ("chirp_rad_per_s2", "1.0"),
    }[problem]
    return re.sub(rf'"{field}":[^,}}]*', f'"{field}":{value}', line)


REASONS = {
    "NaN": "count_f1 is nan",
    "Infinity": "wall_time_s is inf",
    "negative count": "negative count",
    "bad imbalance": "imbalance 1000.0 is not",
    "T not > 0": "free_evolution_s 0.0 is not > 0",
    "chirp varies": "chirp varies within the log: 1.0 here, 158038791.82 on the first record",
    "missing key": "missing key 'count_f2'",
}


class TestProblemsNamed:
    @pytest.mark.parametrize("problem", list(REASONS))
    @pytest.mark.parametrize("blank_before", [False, True], ids=["no-blank", "blank-before"])
    def test_problem_names_file_and_line(self, tmp_path, chunk_chars, problem, blank_before):
        row = 33  # past the first few small chunks
        lines = writer_lines(campaign(20), tmp_path)
        broken = bad_line(lines[row], problem)
        assert broken != lines[row]
        lines[row] = broken
        if blank_before:  # the blank line comes first, so it is the one refused
            lines.insert(row, "")
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        reason = "blank line" if blank_before else REASONS[problem]
        pattern = f"{re.escape(str(path))}: bad shot record on line {row + 1}: {re.escape(reason)}"
        with pytest.raises(DataError, match=pattern):
            read_shot_log(path)

    def test_first_bad_line_wins_across_layouts(self, tmp_path, chunk_chars):
        # a bad writer line before a line that is not JSON at all
        lines = writer_lines(campaign(10), tmp_path)
        lines[4] = bad_line(lines[4], "negative count")
        lines[6] = "{not json}"
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 5: negative count"):
            read_shot_log(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{not json}", "missing key 'index'"),
            ("[1, 2]", "missing key 'index'"),
            ('{"index": "0"}', "index is ' \"0\"', not an integer"),
            ('{"index":0}', "missing key 'free_evolution_s'"),
            ("null", "missing key 'index'"),
            ("[" * 100_000, "missing key 'index'"),
        ],
        ids=["{not json}", "[1, 2]", '{"index": "0"}', "index-only", "null", "nested-too-deeply"],
    )
    def test_not_a_record(self, tmp_path, text, reason, chunk_chars):
        lines = writer_lines(campaign(3), tmp_path)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[:4] + [text] + lines[4:]) + "\n")
        pattern = f"{re.escape(str(path))}: bad shot record on line 5: {re.escape(reason)}$"
        with pytest.raises(DataError, match=pattern):
            read_shot_log(path)


class TestNoRecords:
    @pytest.mark.parametrize(
        "text, reason",
        [("", "no shot records"), ("\n", "line 1: blank line"), ("\n  \n\n", "line 1: blank line")],
        ids=["empty", "newline", "blank-lines"],
    )
    def test_log_without_records_refused(self, tmp_path, text, reason):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(DataError, match=reason):
            read_shot_log(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(DataError, match="cannot read shot log"):
            read_shot_log(tmp_path / "absent.jsonl")
