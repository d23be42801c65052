"""Monte-Carlo shot generation for the alternating two-T protocol.

Each shot is one interferometer cycle: draw the technical noise for the
cycle, accumulate the phase through the sequence scale factor, then draw
the atomic imbalance from the Gaussian readout model. Shots are keyed by
(seed, index) counter-based RNG substreams, so any subset can be
regenerated independently and campaign output never depends on
execution order.

Fixed draw order inside a shot (kept stable so configs stay
reproducible): atom number, acceleration offset, light-shift phase,
Raman-laser phase, imbalance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

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


def shot_stream(seed: int, index: int) -> Generator:
    """Counter-based substream for one shot; order-independent."""
    return Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))


def _round_half_away(x: float) -> float:
    return math.copysign(math.floor(abs(x) + 0.5), x)


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
    """Generate one shot from its (seed, index) substream.

    The free-evolution time comes from `timing`; pass the precomputed
    scale factor to avoid recomputing it per shot.
    """
    if scale_s2_per_m is None:
        scale_s2_per_m = scale_factor(timing, constants)
    rng = shot_stream(seed, index)

    # fixed draw order; sigma=0 draws still consume the stream
    n_raw = rng.normal(noise.atom_number_mean, noise.atom_number_sigma)
    accel = rng.normal(0.0, noise.sigma_accel_m_s2)
    phi_ac = rng.normal(0.0, noise.sigma_ac_rad)
    phi_raman = rng.normal(0.0, noise.sigma_raman_phase_rad)

    n = max(1, int(round(n_raw)))
    n -= n % 2  # even split keeps integer counts; may drop to 0

    phi = phase_signal(g_true + accel, alpha, scale_s2_per_m, constants) + phi_ac + phi_raman

    mean_jz = 0.5 * n * noise.effective_contrast * math.sin(phi)

    model = noise.squeezing
    if noise.projection_noise:
        # readout quadrature rotates with the accumulated phase
        var = (n / 4.0) * (
            math.exp(-2.0 * model.strength) * math.cos(phi) ** 2
            + math.exp(2.0 * model.strength) * math.sin(phi) ** 2
        ) + model.detection_noise_atoms**2
        if var <= 0.0:
            raise ConfigError("shot variance must be > 0 with projection noise on")
        jz = _round_half_away(rng.normal(mean_jz, math.sqrt(var)))
        jz = min(max(jz, -n / 2.0), n / 2.0)
    else:
        rng.normal(0.0, 0.0)  # keep the stream layout identical
        jz = mean_jz  # exact analog mean, not quantized

    return ShotRecord(
        index=index,
        free_evolution_s=timing.free_evolution_s,
        chirp_rad_per_s2=alpha,
        g_true_m_per_s2=g_true,
        count_f1=n / 2.0 - jz,
        count_f2=n / 2.0 + jz,
        imbalance=jz,
        stream_id=index,
        wall_time_s=index * cycle_time_s,
    )


def run_campaign(
    campaign: CampaignConfig,
    timing: SequenceTiming,
    constants: PhysicalConstants,
    noise: NoiseConfig,
) -> list[ShotRecord]:
    """2 n_pairs shots alternating the long and short free evolution.

    Deterministic in (seed, config) regardless of how generation is
    scheduled; records come back ordered by index.
    """
    timing_1 = replace(timing, free_evolution_s=campaign.t1_s)
    timing_2 = replace(timing, free_evolution_s=campaign.t2_s)
    scale_1 = scale_factor(timing_1, constants)
    scale_2 = scale_factor(timing_2, constants)

    records = []
    for pair in range(campaign.n_pairs):
        for offset, tim, sc in ((0, timing_1, scale_1), (1, timing_2, scale_2)):
            records.append(
                simulate_shot(
                    tim,
                    constants,
                    noise,
                    campaign.g_true_m_per_s2,
                    campaign.alpha_rad_per_s2,
                    campaign.seed,
                    2 * pair + offset,
                    campaign.cycle_time_s,
                    scale_s2_per_m=sc,
                )
            )
    return records


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


def dump_shot_log(records: list[ShotRecord], fh) -> None:
    """Write the records as JSON lines to an open text stream."""
    for rec in records:
        row = {name: getattr(rec, name) for name in SHOT_FIELDS}
        fh.write(json.dumps(row, separators=(",", ":")) + "\n")


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
