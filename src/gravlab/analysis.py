"""Estimation chain from shot records to physics results.

Fringe fitting, pair differencing, gravity extraction, the metrological
squeezing factor, overlapping Allan deviation and the phase-noise
budget conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, FitError
from .sensitivity import PhysicalConstants
from .shots import ShotRecord


@dataclass(frozen=True)
class FringeFit:
    """p(alpha) = offset + amplitude * cos(scale * alpha/k_eff + phase0)."""

    offset: float
    amplitude: float
    scale_s2_per_m: float  # signed, as fitted
    phase0_rad: float
    residual_rms: float
    covariance: np.ndarray  # 4x4, parameter order as above

    @property
    def contrast(self) -> float:
        return 2.0 * self.amplitude


@dataclass(frozen=True)
class DeltaPSeries:
    """Per-pair population differences in acquisition order."""

    times_s: np.ndarray
    values: np.ndarray
    n_dropped: int   # trailing unpaired shots
    n_skipped: int   # pairs lost to zero-atom shots


@dataclass(frozen=True)
class GravityEstimate:
    g_exp_m_s2: float
    sigma_g_m_s2: float
    delta_p_mean: float
    n_pairs: int


@dataclass(frozen=True)
class SqueezingEstimate:
    linear: float
    db: float
    ci_low_db: float
    ci_high_db: float
    n_pairs: int


@dataclass(frozen=True)
class AllanSeries:
    tau_s: np.ndarray
    adev: np.ndarray
    err: np.ndarray
    n_samples: int
    tau0_s: float


@dataclass(frozen=True)
class PhaseNoiseBudget:
    delta_jz_atoms: float
    db_vs_sql: float  # -inf means negligible


# ---------------------------------------------------------------------------
# fringe fitting


def _design(x: np.ndarray, freq: float):
    return np.column_stack([np.ones_like(x), np.cos(freq * x), np.sin(freq * x)])


def _linear_trial(x: np.ndarray, p: np.ndarray, freq: float):
    a, *_ = np.linalg.lstsq(_design(x, freq), p, rcond=None)
    resid = p - _design(x, freq) @ a
    return a, float(resid @ resid)


def _model(theta, x):
    off, amp, freq, ph = theta
    return off + amp * np.cos(freq * x + ph)


def _jacobian(theta, x):
    off, amp, freq, ph = theta
    arg = freq * x + ph
    s = np.sin(arg)
    return np.column_stack([np.ones_like(x), np.cos(arg), -amp * s * x, -amp * s])


def fit_fringe(points, constants: PhysicalConstants, max_iter: int = 200) -> FringeFit:
    """Least-squares sinusoid fit of normalized population vs chirp rate.

    Initialization scans a coarse frequency grid with a linear solve in
    the cos/sin basis, then a damped Gauss-Newton refines all four
    parameters until the step norm drops below 1e-10. The (scale,
    phase0) sign degeneracy of the cosine is resolved by canonicalizing
    phase0 into [0, pi).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
        raise DomainError("need at least 8 (alpha, p) points")
    x = pts[:, 0] / constants.k_eff_per_m
    p = pts[:, 1]
    span = float(x.max() - x.min())
    if span <= 0:
        raise DomainError("degenerate fringe data: no alpha span")
    if float(np.var(p)) < 1e-16:
        raise FitError(
            "constant data: no fringe to fit",
            diagnostics={"p_variance": float(np.var(p)), "n_points": int(len(p))},
        )

    # frequency grid: at least one period over the span, below Nyquist
    dx = np.diff(np.sort(x))
    min_dx = float(dx[dx > 0].min())
    f_lo = 0.5 * 2.0 * math.pi / span
    f_hi = math.pi / min_dx
    if f_hi <= f_lo:
        f_hi = 10.0 * f_lo
    freqs = np.geomspace(f_lo, f_hi, 400)
    best = None
    for f in freqs:
        a, sse = _linear_trial(x, p, f)
        if best is None or sse < best[2]:
            best = (f, a, sse)
    f0, a0, _ = best
    amp0 = math.hypot(a0[1], a0[2])
    theta = np.array([a0[0], amp0, f0, math.atan2(-a0[2], a0[1])])

    # damped Gauss-Newton
    lam = 0.0
    sse_prev = float(np.sum((_model(theta, x) - p) ** 2))
    converged = False
    for _ in range(max_iter):
        r = _model(theta, x) - p
        jac = _jacobian(theta, x)
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + lam * np.eye(4), -jac.T @ r)
        cand = theta + step
        sse = float(np.sum((_model(cand, x) - p) ** 2))
        if sse <= sse_prev + 1e-18:
            theta, sse_prev = cand, sse
            lam = max(lam / 4.0, 0.0)
            if float(np.linalg.norm(step)) < 1e-10:
                converged = True
                break
        else:
            lam = 1e-6 if lam == 0.0 else lam * 8.0
            if lam > 1e12:
                break
    if not converged:
        raise FitError(
            "fringe fit did not converge",
            diagnostics={"theta": theta.tolist(), "sse": sse_prev},
        )

    off, amp, freq, ph = theta
    if amp < 0:
        amp, ph = -amp, ph + math.pi
    ph = ph % (2.0 * math.pi)
    if ph >= math.pi - 1e-12:  # cosine parity: (f, ph) ~ (-f, -ph)
        freq, ph = -freq, (2.0 * math.pi - ph) % (2.0 * math.pi)
    theta = np.array([off, amp, freq, ph])

    if span * abs(freq) < 0.98 * 2.0 * math.pi:
        raise DomainError("alpha span covers less than one fringe period")

    r = _model(theta, x) - p
    jac = _jacobian(theta, x)
    dof = max(len(x) - 4, 1)
    s2 = float(r @ r) / dof
    try:
        cov = s2 * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = s2 * np.linalg.pinv(jac.T @ jac)

    return FringeFit(
        offset=float(off),
        amplitude=float(amp),
        scale_s2_per_m=float(freq),
        phase0_rad=float(ph),
        residual_rms=math.sqrt(float(r @ r) / len(x)),
        covariance=cov,
    )


def fringe_intersection(
    fits: list[FringeFit],
    constants: PhysicalConstants,
    alpha_window: tuple[float, float],
) -> float:
    """Chirp rate where all fitted fringes agree (least-squares crossing).

    At the compensating chirp the inertial phase vanishes for every T,
    so every fringe passes through the same point; minimizing the
    spread of the fitted curves over the window finds it.
    """
    if len(fits) < 2:
        raise DomainError("need at least 2 fringe fits")
    scales = [f.scale_s2_per_m for f in fits]
    if max(scales) - min(scales) < 1e-12 * max(abs(s) for s in scales):
        raise DomainError("fringes are parallel (equal scales); no crossing")

    def spread(alpha):
        vals = np.array(
            [
                f.offset + f.amplitude * math.cos(f.scale_s2_per_m * alpha / constants.k_eff_per_m + f.phase0_rad)
                for f in fits
            ]
        )
        return float(np.sum((vals - vals.mean()) ** 2))

    lo, hi = alpha_window
    if hi <= lo:
        raise DomainError("empty alpha window")
    from scipy.optimize import minimize_scalar  # deferred: its import costs ~0.3 s
    grid = np.linspace(lo, hi, 2001)
    coarse = min(grid, key=spread)
    width = (hi - lo) / 2000.0
    # xatol scales with the window, not with |alpha|: the crossing must be
    # located to a small fraction of a fringe even when alpha ~ 1e8 rad/s^2
    res = minimize_scalar(
        spread,
        bounds=(max(lo, coarse - 2 * width), min(hi, coarse + 2 * width)),
        method="bounded",
        options={"xatol": max(1e-9 * (hi - lo), 1e-15)},
    )
    return float(res.x)


# ---------------------------------------------------------------------------
# pairing and gravity


def _pairs(records: list[ShotRecord]):
    """Usable (long-T, short-T) pairs of an alternating log.

    Requires strict alternation starting on the long-T shot. Returns the
    first and second shots of every pair in which both shots hold atoms,
    the number of trailing unpaired shots dropped and the number of pairs
    skipped for a zero-atom shot.
    """
    if len(records) < 2:
        raise DataError("need at least one full pair of shots")
    t1 = records[0].free_evolution_s
    t2 = records[1].free_evolution_s
    if t1 == t2:
        raise DataError("first two shots share the same T; not an alternating log")

    firsts, seconds = [], []
    n_skipped = 0
    for i in range(0, len(records) - 1, 2):
        first, second = records[i], records[i + 1]
        if first.free_evolution_s != t1 or second.free_evolution_s != t2:
            raise DataError(
                f"alternation broken at records {i},{i + 1}: "
                f"({first.free_evolution_s}, {second.free_evolution_s})"
            )
        if first.count_f1 + first.count_f2 <= 0 or second.count_f1 + second.count_f2 <= 0:
            n_skipped += 1
            continue
        firsts.append(first)
        seconds.append(second)
    if not firsts:
        raise DataError("no usable pairs (all skipped)")
    return firsts, seconds, len(records) % 2, n_skipped


def _population(rec: ShotRecord) -> float:
    return rec.count_f2 / (rec.count_f1 + rec.count_f2)


def delta_p(records: list[ShotRecord]) -> DeltaPSeries:
    """Per consecutive pair, p(long T) - p(short T).

    Pairs come from the shared pairing validator: a trailing unpaired
    shot is dropped (counted), zero-atom pairs are skipped (counted
    separately).
    """
    first, second, n_dropped, n_skipped = _pairs(records)
    return DeltaPSeries(
        times_s=np.asarray([a.wall_time_s for a in first]),
        values=np.asarray([_population(a) - _population(b) for a, b in zip(first, second)]),
        n_dropped=n_dropped,
        n_skipped=n_skipped,
    )


def gravity_from_delta_p(
    delta_p_mean: float,
    contrast: float,
    scale1_s2_per_m: float,
    scale2_s2_per_m: float,
    alpha_rad_per_s2: float,
    constants: PhysicalConstants,
) -> float:
    """Invert the two-T difference signal to an acceleration.

    g = (2/C) * delta_p / (S1 - S2) + alpha/k_eff; invariant under
    flipping the signs of (S1, S2, delta_p) together.
    """
    if scale1_s2_per_m == scale2_s2_per_m:
        raise DomainError("scale factors must differ")
    if not 0.0 < contrast <= 1.0:
        raise DomainError("contrast must be in (0, 1]")
    return (
        (2.0 / contrast) * delta_p_mean / (scale1_s2_per_m - scale2_s2_per_m)
        + alpha_rad_per_s2 / constants.k_eff_per_m
    )


def estimate_g(
    deltas: DeltaPSeries,
    contrast: float,
    scale1_s2_per_m: float,
    scale2_s2_per_m: float,
    alpha_rad_per_s2: float,
    constants: PhysicalConstants,
    sigma_contrast: float = 0.0,
    sigma_scale1: float = 0.0,
    sigma_scale2: float = 0.0,
) -> GravityEstimate:
    """Gravity estimate with uncertainty from the delta-p standard error.

    Contrast and scale factors are treated as exact by default; pass
    their uncertainties to fold them into sigma_g in quadrature.
    """
    vals = deltas.values
    if len(vals) < 2:
        raise DataError("need at least 2 pairs for an uncertainty")
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    g = gravity_from_delta_p(
        mean, contrast, scale1_s2_per_m, scale2_s2_per_m, alpha_rad_per_s2, constants
    )
    span = scale1_s2_per_m - scale2_s2_per_m
    var_g = ((2.0 / contrast) * sem / abs(span)) ** 2
    inertial = g - alpha_rad_per_s2 / constants.k_eff_per_m
    if sigma_contrast:
        var_g += (inertial * sigma_contrast / contrast) ** 2
    if sigma_scale1 or sigma_scale2:
        var_g += (inertial / span) ** 2 * (sigma_scale1**2 + sigma_scale2**2)
    return GravityEstimate(
        g_exp_m_s2=g, sigma_g_m_s2=math.sqrt(var_g), delta_p_mean=mean, n_pairs=len(vals)
    )


# ---------------------------------------------------------------------------
# metrological squeezing


def squeezing_from_pairs(
    imbalance_diff: np.ndarray, mean_atoms_sum: float, contrast: float
) -> float:
    """Linear metrological squeezing: pair-difference variance over the
    two-measurement projection limit (N1 + N2)/4, contrast-corrected."""
    diffs = np.asarray(imbalance_diff, dtype=float)
    if len(diffs) < 2:
        raise DataError("need at least 2 pairs")
    if mean_atoms_sum <= 0:
        raise DomainError("atom number sum must be > 0")
    # second moment about zero, the ideal mid-fringe operating point:
    # exactly symmetric under negating the difference series, and any
    # static fringe offset is counted as noise rather than absorbed
    var = float(np.mean(diffs * diffs))
    return (4.0 / contrast**2) * var / mean_atoms_sum


def metrological_squeezing(
    records: list[ShotRecord],
    contrast: float = 1.0,
    n_bootstrap: int = 1000,
    bootstrap_seed: int = 1234567,
) -> SqueezingEstimate:
    """Squeezing of the two-T difference signal, in dB, with a seeded
    percentile bootstrap confidence interval.

    Uses the pairs delta_p uses: strict alternation, a trailing shot
    dropped, zero-atom pairs skipped. The denominator is the sum of the
    campaign-mean atom numbers of the two arms.
    """
    first, second, _, _ = _pairs(records)
    j1 = np.array([r.imbalance for r in first])
    j2 = np.array([r.imbalance for r in second])
    n1 = np.array([r.count_f1 + r.count_f2 for r in first])
    n2 = np.array([r.count_f1 + r.count_f2 for r in second])

    atoms_sum = float(np.mean(n1) + np.mean(n2))
    samples = j1 - j2
    linear = squeezing_from_pairs(samples, atoms_sum, contrast)

    rng = np.random.default_rng(bootstrap_seed)
    n = len(samples)
    boots = np.empty(n_bootstrap)
    for k in range(n_bootstrap):
        idx = rng.integers(0, n, n)
        boots[k] = squeezing_from_pairs(samples[idx], atoms_sum, contrast)
    lo, hi = np.percentile(boots, [2.5, 97.5])

    return SqueezingEstimate(
        linear=linear,
        db=10.0 * math.log10(linear),
        ci_low_db=10.0 * math.log10(max(lo, 1e-300)),
        ci_high_db=10.0 * math.log10(max(hi, 1e-300)),
        n_pairs=n,
    )


# ---------------------------------------------------------------------------
# Allan deviation

MIN_ALLAN_SAMPLES = 16


def allan_deviation(series, tau0_s: float) -> AllanSeries:
    """Overlapping Allan deviation at octave-spaced averaging factors.

    sigma(m tau0)^2 = (1 / (2 m^2 (M - 2m + 1))) *
        sum_j (sum_{i=j+m}^{j+2m-1} x_i - sum_{i=j}^{j+m-1} x_i)^2
    for m = 1, 2, 4, ... up to M/3, with naive 1/sqrt(dof) error bars.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < MIN_ALLAN_SAMPLES:
        raise DataError(f"need a 1-d series of at least {MIN_ALLAN_SAMPLES} samples")
    if tau0_s <= 0:
        raise DomainError("tau0 must be > 0")
    m_max = len(x) // 3
    csum = np.concatenate(([0.0], np.cumsum(x)))

    taus, adevs, errs = [], [], []
    m = 1
    while m <= m_max:
        block = csum[m:] - csum[:-m]  # running sums of length m
        d = block[m:] - block[:-m]    # second difference, M - 2m + 1 terms
        n_terms = len(d)
        avar = float(np.sum(d * d)) / (2.0 * m * m * n_terms)
        taus.append(m * tau0_s)
        adevs.append(math.sqrt(avar))
        errs.append(math.sqrt(avar) / math.sqrt(n_terms))
        m *= 2
    return AllanSeries(
        tau_s=np.asarray(taus),
        adev=np.asarray(adevs),
        err=np.asarray(errs),
        n_samples=len(x),
        tau0_s=tau0_s,
    )


def phase_noise_budget(sigma_phi_rad: float, atoms: float) -> PhaseNoiseBudget:
    """Small-angle conversion of interferometer phase noise to an
    imbalance std and its level relative to the projection limit."""
    if sigma_phi_rad < 0 or atoms <= 0:
        raise DomainError("sigma_phi must be >= 0 and atoms > 0")
    delta_jz = 0.5 * atoms * sigma_phi_rad
    if sigma_phi_rad == 0.0:
        return PhaseNoiseBudget(delta_jz_atoms=0.0, db_vs_sql=-math.inf)
    return PhaseNoiseBudget(
        delta_jz_atoms=delta_jz,
        db_vs_sql=10.0 * math.log10(atoms * sigma_phi_rad**2),
    )
