"""Shot log reader: lines in the writer's layout and lines in any other
JSON layout read back the same values and fail the same checks, with the
file and line named, across read chunks."""

import json
import re

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


def other_layout(line):
    """The same record with its keys reversed and spaces after the separators."""
    row = json.loads(line)
    return json.dumps(dict(reversed(list(row.items()))))


@pytest.fixture(params=[None, 700], ids=["default-chunks", "small-chunks"])
def chunk_chars(request, monkeypatch):
    """Read with the default chunk size, and with chunks of a few lines."""
    if request.param is not None:
        monkeypatch.setattr(shots_module, "LOG_READ_CHARS", request.param, raising=False)
    return request.param


class TestOtherLayouts:
    def test_reordered_keys_and_spaces_read_back_equal(self, tmp_path, chunk_chars):
        shots = campaign(20)
        lines = writer_lines(shots, tmp_path)
        path = tmp_path / "other.jsonl"
        path.write_text("".join(other_layout(ln) + "\n" for ln in lines))
        assert read_shot_log(path) == shots

    def test_mixed_layouts_read_back_equal(self, tmp_path, chunk_chars):
        shots = campaign(40)
        lines = writer_lines(shots, tmp_path)
        mixed = [other_layout(ln) if k % 7 == 3 else ln for k, ln in enumerate(lines)]
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(mixed) + "\n")
        assert read_shot_log(path) == shots

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

    @pytest.mark.parametrize("layout", ["g_true", "stream_id"])
    def test_log_in_a_former_layout_reads_back_equal(self, tmp_path, chunk_chars, layout):
        # logs written while the shots carried a g_true_m_per_s2 column
        # (the simulated truth, after the chirp) and, before that, also a
        # stream_id column (always equal to index, before wall_time_s)
        # take the per-line path
        shots = campaign(30)
        lines = writer_lines(shots, tmp_path)
        old = [re.sub(r'("chirp_rad_per_s2":[^,]*,)', r'\1"g_true_m_per_s2":9.812637,', ln) for ln in lines]
        if layout == "stream_id":
            old = [re.sub(r'("index":([0-9]+),.*),("wall_time_s":)', r'\1,"stream_id":\2,\3', ln) for ln in old]
            assert all(f'"stream_id":{k},' in ln for k, ln in enumerate(old))
        assert all(len(json.loads(ln)) == {"g_true": 8, "stream_id": 9}[layout] for ln in old)
        path = tmp_path / "former.jsonl"
        path.write_text("\n".join(old) + "\n")
        assert read_shot_log(path) == shots

    def test_blank_lines_skipped(self, tmp_path, chunk_chars):
        shots = campaign(12)
        lines = writer_lines(shots, tmp_path)
        path = tmp_path / "blank.jsonl"
        path.write_text("\n" + "\n\n".join(lines) + "\n  \n")
        assert read_shot_log(path) == shots


def test_patterns_compile_on_python_3_10():
    # possessive quantifiers and atomic groups are new in Python 3.11's re
    for token in ("*+", "++", "?+", "}+", "(?>"):
        assert token not in shots_module._WRITER_LINE.pattern


class TestWholeColumns:
    @pytest.mark.parametrize("value", [2**53 + 1, 2**63 - 1, -(2**63)])
    @pytest.mark.parametrize("field", ["index"])
    @pytest.mark.parametrize("layout", ["writer", "other"])
    def test_large_ints_read_back_exactly(self, tmp_path, chunk_chars, value, field, layout):
        shots = campaign(3)
        columns = {name: getattr(shots, name).copy() for name in shots_module.SHOT_FIELDS}
        columns[field][4] = value
        shots = shots_module.ShotTable(**columns)
        lines = writer_lines(shots, tmp_path)
        if layout == "other":
            lines = [other_layout(ln) for ln in lines]
        path = tmp_path / "large.jsonl"
        path.write_text("\n".join(lines) + "\n")
        back = read_shot_log(path)
        assert getattr(back, field)[4] == value
        assert back == shots

    @pytest.mark.parametrize("value", ["9223372036854775808", "-9223372036854775809", "1e19", "2.5"])
    @pytest.mark.parametrize("layout", ["writer", "other"])
    def test_outside_int64_or_fractional_refused(self, tmp_path, chunk_chars, value, layout):
        lines = writer_lines(campaign(3), tmp_path)
        lines[3] = re.sub(r'"index":[^,]*', f'"index":{value}', lines[3])
        if layout == "other":
            lines[3] = other_layout(lines[3])
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 4: index .* is not a whole number in the int64 range"):
            read_shot_log(path)

    def test_whole_float_spelling_accepted(self, tmp_path):
        shots = campaign(2)
        lines = writer_lines(shots, tmp_path)
        lines[1] = lines[1].replace('"index":1,', '"index":1.0,')
        path = tmp_path / "float_index.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert read_shot_log(path) == shots


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
    "missing key": "count_f2",
}


class TestProblemsNamed:
    @pytest.mark.parametrize("problem", list(REASONS))
    @pytest.mark.parametrize("layout", ["writer", "other"])
    @pytest.mark.parametrize("blank_before", [False, True], ids=["no-blank", "blank-before"])
    def test_problem_names_file_and_line(self, tmp_path, chunk_chars, problem, layout, blank_before):
        row = 33  # past the first few small chunks
        lines = writer_lines(campaign(20), tmp_path)
        broken = bad_line(lines[row], problem)
        assert broken != lines[row]
        if layout == "other":  # keys reversed: not the writer's layout
            reordered = dict(reversed(list(json.loads(lines[row]).items())))
            broken = bad_line(json.dumps(reordered, separators=(",", ":")), problem)
        lines[row] = broken
        if blank_before:
            lines.insert(row, "")
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        line_no = row + 1 + blank_before
        pattern = f"{re.escape(str(path))}: bad shot record on line {line_no}: .*{REASONS[problem]}"
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
        "text", ["{not json}", "[1, 2]", '{"index": "0"}', "null", pytest.param("[" * 100_000, id="nested-too-deeply")],
    )
    def test_not_a_record(self, tmp_path, text, chunk_chars):
        lines = writer_lines(campaign(3), tmp_path)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[:4] + [text] + lines[4:]) + "\n")
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: bad shot record on line 5"):
            read_shot_log(path)


class TestNoRecords:
    @pytest.mark.parametrize("text", ["", "\n", "\n  \n\n"], ids=["empty", "newline", "blank-lines"])
    def test_log_without_records_refused(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(DataError, match="no shot records"):
            read_shot_log(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(DataError, match="cannot read shot log"):
            read_shot_log(tmp_path / "absent.jsonl")
