"""Monte-Carlo shot generation for the alternating two-T protocol.

Each shot is one interferometer cycle: draw the technical noise for the
cycle, accumulate the phase through the sequence scale factor, then draw
the atomic imbalance from the Gaussian readout model (squeezing's
SqueezingModel), which reads the squeezed quadrature at mid-fringe. A
campaign is one array computation over all shot indices, and a single
shot is a batch of one.

The draws are counter-based (numpy's Philox4x64-10 keyed by the seed,
with the shot index in the counter), so any subset of shots can be
regenerated independently. Each draw has its own counter, one per
channel: atom number, acceleration offset, light-shift phase,
Raman-laser phase, imbalance. Switching a channel off therefore never
shifts another.

A CampaignConfig (seed, the two free-evolution times, chirp, g and cycle
time) is the key of every shot: shot i runs t1_s if i is even and t2_s if
it is odd, so simulate_shot(campaign, ..., i) is run_campaign(campaign,
...)[i], computed alone.
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import AT_LEAST_ONE, COUNT, DURATION, FLAG, FRACTION, NON_NEGATIVE, NUMBER, SEED, SIZE
from .errors import ConfigError, DataError, Rule, check_fields, in_float_range, require
from .sensitivity import PhysicalConstants, SequenceTiming, phase_signal, scale_factor
from .squeezing import SqueezingModel, readout_variance

# pairs a campaign may hold: 10^6 shots (602 days of 52 s cycles) take ~3.5 s CPU and ~136 MB to simulate
MAX_PAIRS = 500_000
PAIRS = Rule(lambda v: COUNT.test(v) and v <= MAX_PAIRS, f"an integer in [1, {MAX_PAIRS}]")


@dataclass(frozen=True)
class NoiseConfig:
    """Per-shot noise budget of the simulator. The mean atom number per shot is
    squeezing.atom_number (at least 1), the one the tomography reads."""

    squeezing: SqueezingModel
    contrast: float = 0.98
    raman_efficiency: float = 1.0   # per-pulse; enters contrast as eff^4
    sigma_ac_rad: float = 0.0       # differential light-shift phase, per shot
    sigma_raman_phase_rad: float = 0.0
    atom_number_sigma: float = 0.0
    sigma_accel_m_s2: float = 0.0   # common acceleration noise, per shot
    projection_noise: bool = True   # False: deterministic mean readout

    def __post_init__(self):
        check_fields(
            self, contrast=FRACTION, raman_efficiency=FRACTION, sigma_ac_rad=NON_NEGATIVE,
            sigma_raman_phase_rad=NON_NEGATIVE, atom_number_sigma=NON_NEGATIVE, sigma_accel_m_s2=NON_NEGATIVE,
            projection_noise=FLAG,
        )
        require(AT_LEAST_ONE, "NoiseConfig.squeezing.atom_number", self.squeezing.atom_number, ConfigError)

    @property
    def effective_contrast(self) -> float:
        return self.contrast * self.raman_efficiency**4


@dataclass(frozen=True)
class CampaignConfig:
    """Alternating-T campaign layout."""

    t1_s: float = 455e-6
    t2_s: float = 155e-6
    # default chirp compensates 9.8126 m/s^2 at the default wavevector
    alpha_rad_per_s2: float = 9.8126 * PhysicalConstants.k_eff_per_m
    g_true_m_per_s2: float = 9.812637
    n_pairs: int = 5000
    cycle_time_s: float = 52.0
    seed: int = 7

    def __post_init__(self):
        check_fields(
            self, t1_s=DURATION, t2_s=DURATION, alpha_rad_per_s2=NUMBER, g_true_m_per_s2=NUMBER, n_pairs=PAIRS,
            cycle_time_s=DURATION, seed=SEED,
        )
        if self.t1_s == self.t2_s:
            raise ConfigError("t1_s and t2_s must differ")


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Interferometer shots as columns: one read-only numpy array per
    field (index int64, the rest float64), one row per shot; a single
    shot is a table of one row. The fields in order are SHOT_FIELDS, a log line's keys."""

    index: np.ndarray
    free_evolution_s: np.ndarray
    chirp_rad_per_s2: np.ndarray
    count_f1: np.ndarray
    count_f2: np.ndarray
    imbalance: np.ndarray  # (count_f2 - count_f1)/2
    wall_time_s: np.ndarray

    def __post_init__(self):
        for name in SHOT_FIELDS:
            column = np.asarray(getattr(self, name), dtype=np.int64 if name == "index" else float)
            column = column.view()  # read-only without freezing the caller's array
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shapes = {getattr(self, name).shape for name in SHOT_FIELDS}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise DataError("shot columns must be 1-d and of one length")

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows) -> ShotTable:
        """The shots at `rows` (an int, a slice, an index array or a
        mask), as a table."""
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return ShotTable(*(getattr(self, name)[rows] for name in SHOT_FIELDS))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShotTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in SHOT_FIELDS)


SHOT_FIELDS = tuple(f.name for f in fields(ShotTable))

# channel c of shot i is block N_CHANNELS*i + c + 1 of numpy's Philox4x64-10
# under key seed, in the draw order of the module docstring
N_CHANNELS = 5
STREAM_VERSION = 3
# a shot's place in the Philox counter, held as int64 by ShotTable and the log
SHOT_INDEX = Rule(lambda v: SIZE.test(v) and v < 2**63, "an integer in [0, 2^63)")
_SHIFT_11 = np.uint64(11)


def _standard_normals(seed: int, first: int, n: int) -> np.ndarray:
    """One standard normal per channel of shots first .. first + n - 1,
    shape (N_CHANNELS, n).

    numpy increments the counter before it generates, so the blocks
    from counter N_CHANNELS*first on are the shots' channels in order.
    Words 0 and 1 of each block give u1 = ((w0 >> 11) + 1) 2^-53 in
    (0, 1] and u2 = (w1 >> 11) 2^-53, and Box-Muller maps them to
    sqrt(-2 ln u1) cos(2 pi u2).
    """
    raw = np.random.Philox(key=seed, counter=N_CHANNELS * first).random_raw(4 * N_CHANNELS * n)
    words = raw.reshape(n, N_CHANNELS, 4).T
    u1 = ((words[0] >> _SHIFT_11) + np.uint64(1)) * 2.0**-53
    u2 = (words[1] >> _SHIFT_11) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _simulate(
    campaign: CampaignConfig,
    timing: SequenceTiming,
    constants: PhysicalConstants,
    noise: NoiseConfig,
    first: int,
    count: int,
) -> ShotTable:
    """Shots first .. first + count - 1 of `campaign`. Even indices run the
    long free evolution t1_s and odd ones the short t2_s; every shot
    depends only on the seed and its own counters."""
    indices = first + np.arange(count, dtype=np.int64)
    parity = indices % 2
    t_free = np.array([campaign.t1_s, campaign.t2_s])
    scale = np.array([scale_factor(replace(timing, free_evolution_s=float(t)), constants) for t in t_free])
    z_atoms, z_accel, z_ac, z_raman, z_readout = _standard_normals(campaign.seed, first, count)

    n = np.maximum(1.0, np.rint(noise.squeezing.atom_number + noise.atom_number_sigma * z_atoms))
    n -= n % 2.0  # even split keeps integer counts; may drop to 0

    g = campaign.g_true_m_per_s2 + noise.sigma_accel_m_s2 * z_accel
    phi = (
        phase_signal(g, campaign.alpha_rad_per_s2, scale[parity], constants)
        + noise.sigma_ac_rad * z_ac
        + noise.sigma_raman_phase_rad * z_raman
    )
    mean_jz = 0.5 * n * noise.effective_contrast * np.sin(phi)

    if noise.projection_noise:
        # the readout quadrature rotates with the accumulated phase: mid-fringe reads the squeezed one
        # its variance is 0 only for a zero-atom shot without detection noise, and refused as the tomography's is
        var = in_float_range("the imbalance variance", lambda: readout_variance(noise.squeezing, n, phi), model=noise.squeezing)
        jz = mean_jz + np.sqrt(var) * z_readout
        jz = np.copysign(np.floor(np.abs(jz) + 0.5), jz)  # round half away from 0
        jz = np.clip(jz, -n / 2.0, n / 2.0)
    else:
        jz = mean_jz  # exact analog mean, not quantized

    return ShotTable(
        index=indices,
        free_evolution_s=t_free[parity],
        chirp_rad_per_s2=np.broadcast_to(campaign.alpha_rad_per_s2, count),
        count_f1=n / 2.0 - jz,
        count_f2=n / 2.0 + jz,
        imbalance=jz,
        wall_time_s=indices * campaign.cycle_time_s,
    )


def simulate_shot(
    campaign: CampaignConfig,
    timing: SequenceTiming,
    constants: PhysicalConstants,
    noise: NoiseConfig,
    index: int,
) -> ShotTable:
    """Shot `index` of the campaign, regenerated from its own counters
    alone: run_campaign(...)[index], a campaign of one."""
    require(SHOT_INDEX, "shot index", index)
    return _simulate(campaign, timing, constants, noise, int(index), 1)


CAMPAIGN_BLOCK_SHOTS = 4096  # shots generated at once: bounds the numpy temporaries


def run_campaign(
    campaign: CampaignConfig,
    timing: SequenceTiming,
    constants: PhysicalConstants,
    noise: NoiseConfig,
) -> ShotTable:
    """The campaign's 2 n_pairs shots, ordered by index.

    The shots are generated in blocks of CAMPAIGN_BLOCK_SHOTS indices,
    which cannot change them, since each depends only on the seed and its
    own counters.
    """
    n_shots = 2 * campaign.n_pairs
    blocks = [
        _simulate(campaign, timing, constants, noise, start, min(CAMPAIGN_BLOCK_SHOTS, n_shots - start))
        for start in range(0, n_shots, CAMPAIGN_BLOCK_SHOTS)
    ]
    return ShotTable(*(np.concatenate([getattr(b, name) for b in blocks]) for name in SHOT_FIELDS))


def shot_diagnostics(shots: ShotTable) -> dict:
    """Numerical-health counts of a campaign: shots the even split left
    with no atoms, and shots with atoms whose imbalance sits at the
    clamp +-n/2, so that one output port counts 0."""
    empty = shots.count_f1 + shots.count_f2 == 0
    one_port = (shots.count_f1 == 0) | (shots.count_f2 == 0)
    return {"zero_atom_shots": int(empty.sum()), "clamped_imbalances": int((one_port & ~empty).sum())}


# ---------------------------------------------------------------------------
# shot log I/O (JSON lines, one shot per line)


LOG_CHUNK_LINES = 1000  # lines joined per write: bounds the text held at once
# each key of a line with the "{" or "," before it: the layout the writer fills and the reader matches
_KEYS = [("," if k else "{") + f'"{name}":' for k, name in enumerate(SHOT_FIELDS)]
_JSON_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # of the non-finite reprs


def _reprs(column: np.ndarray) -> list[str]:
    """The values of a column as json spells them: the repr of each int
    or finite float, and NaN, Infinity or -Infinity. Each distinct float
    is spelled once (by bit pattern, so -0.0 stays apart from 0.0): a
    campaign repeats its chirp and T on every line."""
    if column.dtype.kind != "f":
        return list(map(repr, column.tolist()))
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    spelled = [_JSON_SPELLINGS.get(r, r) for r in map(repr, bits.view(float).tolist())]
    return np.array(spelled, dtype=object)[inverse].tolist()


def write_shot_log(shots: ShotTable, out) -> None:
    """Write the shots as JSON lines to `out`, a path or an open text
    stream, each line byte for byte json.dumps of the shot's SHOT_FIELDS
    with separators (",", ":"). A chunk of lines is one list of _KEYS and
    value strings, joined once."""
    columns = [getattr(shots, name) for name in SHOT_FIELDS]
    line = [part for key in _KEYS for part in (key, "")] + ["}\n"]
    with nullcontext(out) if hasattr(out, "write") else open(out, "w", encoding="utf-8") as fh:
        for start in range(0, len(shots), LOG_CHUNK_LINES):
            parts = line * min(LOG_CHUNK_LINES, len(shots) - start)
            for k, column in enumerate(columns):
                parts[2 * k + 1 :: len(line)] = _reprs(column[start : start + LOG_CHUNK_LINES])
            fh.write("".join(parts))


LOG_READ_CHARS = 1 << 18  # text parsed at once: bounds the memory of a read
# a JSON number, or one of json's non-finite spellings; each optional
# part is spelled (?:...|) rather than (?:...)?, which matches the same
# text but is ~1.4x slower in CPython 3.11's re
_NUMBER = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)|NaN|-?Infinity)"
_INTEGER = r"(-?(?:0|[1-9][0-9]*))"  # the index: the repr of a Python int
_VALUES = [_INTEGER] + [_NUMBER] * (len(SHOT_FIELDS) - 1)
# a line exactly as write_shot_log writes it, capturing the values in
# SHOT_FIELDS order
_WRITER_LINE = re.compile("^" + "".join(map(str.__add__, _KEYS, _VALUES)) + "}$", re.M)


def _layout_problem(line: str) -> str:
    """Why a line is not in the writer's layout: the first field that is
    missing, out of place or not a number there."""
    if not line.strip():
        return "blank line"
    pos = 0
    for name, key, value in zip(SHOT_FIELDS, _KEYS, _VALUES):
        if not line.startswith(key, pos):
            return f"key {name!r} out of place" if key[1:] in line else f"missing key {name!r}"
        pos += len(key)
        match = re.match(value + "(?=[,}]|$)", line[pos:])  # a "," or "}" ends a value
        if match is None:
            what = "an integer" if name == "index" else "a number"
            return f"{name} is {re.match('[^,}]*', line[pos:])[0]!r}, not {what}"
        pos += match.end()
    return f"{line[pos:]!r} after {name}, not '}}'"


def _index_column(rows, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index column (the first) of a chunk as int64, and a mask of
    the values outside the int64 range (0 in the column). Below 2^53 a
    value is exact as a float; any larger finite one is read again from
    its digits, so that none is lost."""
    small = np.abs(values[:, 0]) < 2.0**53
    ints = np.where(small, values[:, 0], 0.0).astype(np.int64)
    out_of_range = np.zeros(len(ints), dtype=bool)
    for r in np.flatnonzero(~small & np.isfinite(values[:, 0])):  # too many digits for a float: inf
        value = int(rows[r][0])
        out_of_range[r] = not -(2**63) <= value < 2**63
        ints[r] = 0 if out_of_range[r] else value
    return ints, out_of_range


def _first_problem(values: np.ndarray, out_of_range: np.ndarray, chirp: float | None) -> tuple[int, str] | None:
    """The first row of `values` (one shot per row, in SHOT_FIELDS
    order) that cannot be analyzed and why, or None; `out_of_range`
    marks the indices outside the int64 range, and `chirp` is the first
    record's chirp, which every record must share."""
    finite = np.isfinite(values)
    _, t, alpha, f1, f2, imb, _ = values.T  # in SHOT_FIELDS order
    with np.errstate(invalid="ignore"):
        negative = (f1 < 0) | (f2 < 0)
        # the generator writes the counts as n/2 -+ imbalance, so the two
        # agree to the rounding of a sum of that size
        mismatch = ~(np.abs(imb - 0.5 * (f2 - f1)) <= 1e-9 * (f1 + f2))
    # every record shares the first one's chirp: g takes one alpha/k_eff
    bad = ~finite.all(axis=1) | out_of_range | negative | mismatch | ~(t > 0) | (alpha != chirp)
    if not bad.any():
        return None
    r = int(bad.argmax())
    row = dict(zip(SHOT_FIELDS, values[r].tolist()))
    if not finite[r].all():
        name = SHOT_FIELDS[int(finite[r].argmin())]
        return r, f"{name} is {row[name]}"
    if out_of_range[r]:
        return r, f"index {row['index']} is not a whole number in the int64 range"
    if negative[r]:
        return r, f"negative count ({row['count_f1']}, {row['count_f2']})"
    if mismatch[r]:
        expected = 0.5 * (row["count_f2"] - row["count_f1"])
        return r, f"imbalance {row['imbalance']} is not (count_f2 - count_f1)/2 = {expected}"
    if not row["free_evolution_s"] > 0:
        return r, f"free_evolution_s {row['free_evolution_s']} is not > 0"
    return r, f"chirp varies within the log: {row['chirp_rad_per_s2']} here, {chirp} on the first record"


def read_shot_log(path) -> ShotTable:
    """Read a shot log in write_shot_log's layout. A line in any other
    layout is refused, and so is a record with a non-finite number, a
    negative count, an index outside int64, an imbalance that is not
    (count_f2 - count_f1)/2, a free evolution not > 0 or a chirp unlike
    the first record's; the error names the file, the line and the field.
    Each chunk of about LOG_READ_CHARS characters is parsed by one regex
    and one float conversion; the index reads back exactly as int64.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read shot log {path}: {exc}") from exc
    blocks = []
    first_line = 1
    chirp = None
    with fh:
        try:
            while text := fh.read(LOG_READ_CHARS):
                text += fh.readline()  # end the chunk at a line end
                n_lines = text.count("\n") + (not text.endswith("\n"))
                rows = _WRITER_LINE.findall(text)
                failure = None
                if len(rows) != n_lines:  # keep the rows above the first line out of layout
                    lines = text.split("\n")
                    bad = next(k for k, line in enumerate(lines) if not _WRITER_LINE.fullmatch(line))
                    rows, failure = rows[:bad], (bad, _layout_problem(lines[bad]))
                values = np.array(rows, dtype=float).reshape(-1, len(SHOT_FIELDS))
                index, out_of_range = _index_column(rows, values)
                if chirp is None and len(values):
                    chirp = float(values[0, SHOT_FIELDS.index("chirp_rad_per_s2")])
                failure = _first_problem(values, out_of_range, chirp) or failure
                if failure is not None:
                    raise DataError(f"{path}: bad shot record on line {first_line + failure[0]}: {failure[1]}")
                blocks.append((values.T, index))
                first_line += n_lines
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not blocks:
        raise DataError(f"{path}: no shot records")
    columns = dict(zip(SHOT_FIELDS, np.concatenate([values for values, _ in blocks], axis=1)))
    columns["index"] = np.concatenate([index for _, index in blocks])
    return ShotTable(**columns)
