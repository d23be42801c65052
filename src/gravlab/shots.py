"""Monte-Carlo shot generation for the alternating two-T protocol.

Each shot is one interferometer cycle: draw the technical noise for the
cycle, accumulate the phase through the sequence scale factor, then draw
the atomic imbalance from the Gaussian readout model. A campaign is one
array computation over all shot indices, and a single shot is a batch of
one.

The draws are counter-based (Philox4x64-10 keyed by (seed, shot index)),
so any subset of shots can be regenerated independently. Each draw has
its own counter, one per channel: atom number, acceleration offset,
light-shift phase, Raman-laser phase, imbalance. Switching a channel off
therefore never shifts another.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .sensitivity import PhysicalConstants, SequenceTiming, phase_signal, scale_factor
from .squeezing import SqueezingModel

SHOT_FIELDS = (
    "index",
    "free_evolution_s",
    "chirp_rad_per_s2",
    "g_true_m_per_s2",
    "count_f1",
    "count_f2",
    "imbalance",
    "stream_id",
    "wall_time_s",
)


@dataclass(frozen=True)
class NoiseConfig:
    """Per-shot noise budget of the simulator."""

    squeezing: SqueezingModel
    contrast: float = 0.98
    raman_efficiency: float = 1.0   # per-pulse; enters contrast as eff^4
    sigma_ac_rad: float = 0.0       # differential light-shift phase, per shot
    sigma_raman_phase_rad: float = 0.0
    atom_number_mean: float = 6000.0
    atom_number_sigma: float = 0.0
    sigma_accel_m_s2: float = 0.0   # common acceleration noise, per shot
    projection_noise: bool = True   # False: deterministic mean readout

    def __post_init__(self):
        if not 0.0 < self.contrast <= 1.0:
            raise ConfigError("contrast must be in (0, 1]")
        if not 0.0 < self.raman_efficiency <= 1.0:
            raise ConfigError("raman_efficiency must be in (0, 1]")
        for name in ("sigma_ac_rad", "sigma_raman_phase_rad", "atom_number_sigma", "sigma_accel_m_s2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.atom_number_mean < 1:
            raise ConfigError("atom_number_mean must be >= 1")

    @property
    def effective_contrast(self) -> float:
        return self.contrast * self.raman_efficiency**4


@dataclass(frozen=True)
class CampaignConfig:
    """Alternating-T campaign layout."""

    t1_s: float = 455e-6
    t2_s: float = 155e-6
    # default chirp compensates 9.8126 m/s^2 at the default wavevector
    alpha_rad_per_s2: float = 9.8126 * 1.61057e7
    g_true_m_per_s2: float = 9.812637
    n_pairs: int = 5000
    cycle_time_s: float = 52.0
    seed: int = 7

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ConfigError("n_pairs must be >= 1")
        if self.t1_s == self.t2_s:
            raise ConfigError("t1_s and t2_s must differ")
        if self.cycle_time_s <= 0:
            raise ConfigError("cycle_time_s must be > 0")


@dataclass(frozen=True)
class ShotRecord:
    """One interferometer realization."""

    index: int
    free_evolution_s: float
    chirp_rad_per_s2: float
    g_true_m_per_s2: float
    count_f1: float
    count_f2: float
    imbalance: float  # (count_f2 - count_f1)/2
    stream_id: int
    wall_time_s: float


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): round multipliers and Weyl key increments
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT_32 = np.uint64(32)
_SHIFT_11 = np.uint64(11)

# channel c of shot i is the Philox block at counter (c + 1, 0, 0, 0) under
# key (seed, i), in the draw order of the module docstring
N_CHANNELS = 5
STREAM_VERSION = 2


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * x, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT_32
    lo_lo = x_lo * m_lo
    hi_lo = x_hi * m_lo
    # at most 3 (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1: no carry is lost
    cross = (lo_lo >> _SHIFT_32) + (hi_lo & _LOW32) + x_lo * m_hi
    return x_hi * m_hi + (hi_lo >> _SHIFT_32) + (cross >> _SHIFT_32), x * np.uint64(m)


def philox4x64(counter, key) -> tuple[np.ndarray, ...]:
    """The four output words of Philox4x64-10 at each counter and key.

    `counter` holds four and `key` two uint64 words; each word is a
    scalar or an array, and all of them broadcast together.
    """
    c0, c1, c2, c3 = (np.asarray(w, dtype=np.uint64) for w in counter)
    k0, k1 = (np.asarray(w, dtype=np.uint64) for w in key)
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _standard_normals(seed: int, indices: np.ndarray) -> np.ndarray:
    """One standard normal per channel and shot, shape (N_CHANNELS, n).

    Words 0 and 1 of each block give u1 = ((w0 >> 11) + 1) 2^-53 in
    (0, 1] and u2 = (w1 >> 11) 2^-53, and Box-Muller maps them to
    sqrt(-2 ln u1) cos(2 pi u2).
    """
    channel = np.arange(1, N_CHANNELS + 1, dtype=np.uint64)[:, None]
    w0, w1, _, _ = philox4x64((channel, 0, 0, 0), (np.uint64(seed), indices))
    u1 = ((w0 >> _SHIFT_11) + np.uint64(1)) * 2.0**-53
    u2 = (w1 >> _SHIFT_11) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _simulate(
    constants: PhysicalConstants,
    noise: NoiseConfig,
    g_true: float,
    alpha: float,
    seed: int,
    indices: np.ndarray,
    free_evolution_s: np.ndarray,
    scale_s2_per_m: np.ndarray,
    cycle_time_s: float,
) -> list[ShotRecord]:
    """The shots at `indices`, with the free evolution and scale factor of
    each; every shot depends only on (seed, its index)."""
    z_atoms, z_accel, z_ac, z_raman, z_readout = _standard_normals(seed, indices)

    n = np.maximum(1.0, np.rint(noise.atom_number_mean + noise.atom_number_sigma * z_atoms))
    n -= n % 2.0  # even split keeps integer counts; may drop to 0

    phi = (
        phase_signal(g_true + noise.sigma_accel_m_s2 * z_accel, alpha, scale_s2_per_m, constants)
        + noise.sigma_ac_rad * z_ac
        + noise.sigma_raman_phase_rad * z_raman
    )
    mean_jz = 0.5 * n * noise.effective_contrast * np.sin(phi)

    model = noise.squeezing
    if noise.projection_noise:
        # readout quadrature rotates with the accumulated phase
        var = (n / 4.0) * (
            math.exp(-2.0 * model.strength) * np.cos(phi) ** 2
            + math.exp(2.0 * model.strength) * np.sin(phi) ** 2
        ) + model.detection_noise_atoms**2
        if not np.all(var > 0.0):
            raise ConfigError("shot variance must be > 0 with projection noise on")
        jz = mean_jz + np.sqrt(var) * z_readout
        jz = np.copysign(np.floor(np.abs(jz) + 0.5), jz)  # round half away from 0
        jz = np.clip(jz, -n / 2.0, n / 2.0)
    else:
        jz = mean_jz  # exact analog mean, not quantized

    return [
        ShotRecord(
            index=i,
            free_evolution_s=t,
            chirp_rad_per_s2=alpha,
            g_true_m_per_s2=g_true,
            count_f1=f1,
            count_f2=f2,
            imbalance=j,
            stream_id=i,
            wall_time_s=w,
        )
        for i, t, f1, f2, j, w in zip(
            indices.tolist(),
            np.broadcast_to(free_evolution_s, indices.shape).tolist(),
            (n / 2.0 - jz).tolist(),
            (n / 2.0 + jz).tolist(),
            jz.tolist(),
            (indices * cycle_time_s).tolist(),
        )
    ]


def simulate_shot(
    timing: SequenceTiming,
    constants: PhysicalConstants,
    noise: NoiseConfig,
    g_true: float,
    alpha: float,
    seed: int,
    index: int,
    cycle_time_s: float = 52.0,
    scale_s2_per_m: float | None = None,
) -> ShotRecord:
    """Generate one shot from its (seed, index) counters: a campaign of one.

    The free-evolution time comes from `timing`; pass the precomputed
    scale factor to avoid recomputing it.
    """
    if scale_s2_per_m is None:
        scale_s2_per_m = scale_factor(timing, constants)
    (record,) = _simulate(
        constants,
        noise,
        g_true,
        alpha,
        seed,
        np.array([index], dtype=np.uint64),
        timing.free_evolution_s,
        scale_s2_per_m,
        cycle_time_s,
    )
    return record


def run_campaign(
    campaign: CampaignConfig,
    timing: SequenceTiming,
    constants: PhysicalConstants,
    noise: NoiseConfig,
) -> list[ShotRecord]:
    """2 n_pairs shots alternating the long and short free evolution.

    Deterministic in (seed, config); records come back ordered by index.
    """
    scale_1 = scale_factor(replace(timing, free_evolution_s=campaign.t1_s), constants)
    scale_2 = scale_factor(replace(timing, free_evolution_s=campaign.t2_s), constants)
    indices = np.arange(2 * campaign.n_pairs, dtype=np.uint64)
    long_t = indices % 2 == 0
    return _simulate(
        constants,
        noise,
        campaign.g_true_m_per_s2,
        campaign.alpha_rad_per_s2,
        campaign.seed,
        indices,
        np.where(long_t, campaign.t1_s, campaign.t2_s),
        np.where(long_t, scale_1, scale_2),
        campaign.cycle_time_s,
    )


def shot_diagnostics(records: list[ShotRecord]) -> dict:
    """Numerical-health counts of a campaign: shots the even split left
    with no atoms, and shots with atoms whose imbalance sits at the
    clamp +-n/2, so that one output port counts 0."""
    zero_atom = clamped = 0
    for rec in records:
        if rec.count_f1 + rec.count_f2 == 0:
            zero_atom += 1
        elif rec.count_f1 == 0 or rec.count_f2 == 0:
            clamped += 1
    return {"zero_atom_shots": zero_atom, "clamped_imbalances": clamped}


def echo_residual_phase(
    detuning_offset_rad_s: float, first_half_s: float, second_half_s: float
) -> float:
    """Net phase a constant common detuning leaves across an echo pair.

    The echo flips the sign of the accumulated detuning phase, so equal
    half-durations cancel exactly and only the duration imbalance
    survives.
    """
    if first_half_s < 0 or second_half_s < 0:
        raise DomainError("half durations must be >= 0")
    return detuning_offset_rad_s * (first_half_s - second_half_s)


# ---------------------------------------------------------------------------
# shot log I/O (JSON lines, one record per line)


def write_shot_log(records: list[ShotRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_shot_log(records, fh)


LOG_CHUNK_LINES = 1000  # lines joined per write: bounds the text held at once


def dump_shot_log(records: list[ShotRecord], fh) -> None:
    """Write the records as JSON lines to an open text stream.

    Each line is byte for byte json.dumps of the record's SHOT_FIELDS
    with separators (",", ":"), spelled out as an f-string: numbers in
    their repr, non-finite floats as json's NaN, Infinity and -Infinity.
    The fields must hold Python ints and floats, as in every record that
    gravlab generates or reads.
    """
    for start in range(0, len(records), LOG_CHUNK_LINES):
        text = "".join(
            f'{{"index":{r.index!r},"free_evolution_s":{r.free_evolution_s!r},'
            f'"chirp_rad_per_s2":{r.chirp_rad_per_s2!r},"g_true_m_per_s2":{r.g_true_m_per_s2!r},'
            f'"count_f1":{r.count_f1!r},"count_f2":{r.count_f2!r},"imbalance":{r.imbalance!r},'
            f'"stream_id":{r.stream_id!r},"wall_time_s":{r.wall_time_s!r}}}\n'
            for r in records[start : start + LOG_CHUNK_LINES]
        )
        # a value follows each ":", and no finite repr holds "nan" or "inf"
        fh.write(text.replace(":nan", ":NaN").replace(":inf", ":Infinity").replace(":-inf", ":-Infinity"))


def _record_problem(rec: ShotRecord) -> str | None:
    """Why a record read from a log cannot be analyzed, or None."""
    # spelled out field by field: a loop over SHOT_FIELDS costs twice as
    # much, and every shot of a log passes through here
    f1, f2, imb = rec.count_f1, rec.count_f2, rec.imbalance
    finite = math.isfinite
    if not (
        finite(f1) and finite(f2) and finite(imb) and finite(rec.wall_time_s)
        and finite(rec.free_evolution_s) and finite(rec.chirp_rad_per_s2)
        and finite(rec.g_true_m_per_s2)
    ):
        name = next(k for k in SHOT_FIELDS if not finite(getattr(rec, k)))
        return f"{name} is {getattr(rec, name)}"
    if f1 < 0 or f2 < 0:
        return f"negative count ({f1}, {f2})"
    # the generator writes the counts as n/2 -+ imbalance, so the two agree
    # to the rounding of a sum of that size
    if not abs(imb - 0.5 * (f2 - f1)) <= 1e-9 * (f1 + f2):
        return f"imbalance {imb} is not (count_f2 - count_f1)/2 = {0.5 * (f2 - f1)}"
    return None


def read_shot_log(path) -> list[ShotRecord]:
    """Read a JSONL shot log, rejecting a record that is malformed, holds
    a non-finite number or a negative count, or whose imbalance is not
    (count_f2 - count_f1)/2; the error names the file and line."""
    records = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read shot log {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                rec = ShotRecord(**{k: row[k] for k in SHOT_FIELDS})
                problem = _record_problem(rec)
            except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
                raise DataError(f"{path}: bad shot record on line {lineno}: {exc}") from exc
            if problem is not None:
                raise DataError(f"{path}: bad shot record on line {lineno}: {problem}")
            records.append(rec)
    if not records:
        raise DataError(f"{path}: no shot records")
    return records
