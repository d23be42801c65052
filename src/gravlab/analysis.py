"""Estimation chain from shot tables to physics results.

Fringe fitting, pair differencing, gravity extraction, the metrological
squeezing factor with its exact chi-square confidence interval,
overlapping Allan deviation and the phase-noise budget conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FRACTION, NON_NEGATIVE, NUMBER, POSITIVE, require
from .errors import DataError, DomainError, FitError, as_numbers, in_float_range, require_finite

if TYPE_CHECKING:  # annotations only: the estimators call neither layer
    from .sensitivity import PhysicalConstants
    from .shots import ShotTable


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
class FringeCrossing:
    """Common crossing of several fringes and its standard uncertainty."""

    alpha_rad_per_s2: float
    sigma_alpha_rad_per_s2: float  # 0 when the fits are exact


@dataclass(frozen=True)
class DeltaPSeries:
    """A log's usable (long-T, short-T) pairs in order, and all else the estimators and tables read."""

    times_s: np.ndarray          # wall time of each pair's long-T shot
    values: np.ndarray           # p(long T) - p(short T)
    imbalance_diff: np.ndarray   # imbalance(long T) - imbalance(short T)
    mean_atoms_sum: float        # mean atom number of the long-T shots plus that of the short-T ones
    t1_s: float                  # the long (first) free-evolution time
    t2_s: float
    chirp_rad_per_s2: float      # the first shot's: one for the whole log, as read_shot_log checks
    tau0_s: float | None         # pair spacing wall_time_s[2] - wall_time_s[0]; None for a two-shot log
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


@dataclass(frozen=True)
class PhaseNoiseBudget:
    delta_jz_atoms: float
    db_vs_sql: float  # -inf means negligible


# ---------------------------------------------------------------------------
# fringe fitting

FIT_MAX_ITER = 200  # damped Gauss-Newton steps before fit_fringe gives up
# (trial frequency, point) pairs of the frequency scan summed at once:
# bounds each of its arrays to 2 MB, whatever the scan's length
FIT_SCAN_PAIRS = 1 << 18


def _design(x: np.ndarray, freq):
    """(1, cos fx, sin fx) columns; one (n, 3) block per frequency in `freq`."""
    arg = np.multiply.outer(freq, x)
    return np.stack([np.ones_like(arg), np.cos(arg), np.sin(arg)], axis=-1)


def _best_frequency(x: np.ndarray, p: np.ndarray, freqs: np.ndarray) -> float:
    """Trial frequency whose linear least-squares fit of p in the (1, cos fx, sin fx) basis
    leaves the smallest residual, from sums over the points: the generalized Lomb-Scargle
    form (Zechmeister & Kuerster, A&A 496, 577, 2009). With C, S and Y the centred cos fx,
    sin fx and p, and CC = sum C C and so on, the fit removes (SS YC^2 + CC YS^2 - 2 CS YC YS) / D
    of the squared residual, D = CC SS - CS^2. A frequency whose C and S are collinear to
    1e-9 (D <= 1e-9 CC SS, as at the Nyquist frequency of an even grid) has no three-term fit
    and is never picked. The sums run over blocks of FIT_SCAN_PAIRS // len(x) frequencies;
    each frequency's are its own, so the block size cannot change them."""
    y = p - p.mean()
    step = max(1, FIT_SCAN_PAIRS // len(x))
    removed = np.empty(len(freqs))
    for start in range(0, len(freqs), step):
        arg = np.multiply.outer(freqs[start : start + step], x)
        c, s = np.cos(arg), np.sin(arg)
        c -= c.mean(axis=1, keepdims=True)
        s -= s.mean(axis=1, keepdims=True)
        cc, ss, cs = (np.einsum("fn,fn->f", a, b) for a, b in ((c, c), (s, s), (c, s)))
        yc, ys = c @ y, s @ y
        det = cc * ss - cs * cs
        fitted = det > 1e-9 * cc * ss
        fit = np.divide(ss * yc * yc + cc * ys * ys - 2.0 * cs * yc * ys, det, out=np.zeros_like(det), where=fitted)
        removed[start : start + step] = np.where(fitted, fit, -np.inf)
    return float(freqs[np.argmax(removed)])


def _model(theta, x):
    off, amp, freq, ph = theta
    return off + amp * np.cos(freq * x + ph)


def _jacobian(theta, x):
    off, amp, freq, ph = theta
    arg = freq * x + ph
    s = np.sin(arg)
    return np.column_stack([np.ones_like(x), np.cos(arg), -amp * s * x, -amp * s])


def fit_fringe(points, constants: PhysicalConstants) -> FringeFit:
    """Least-squares sinusoid fit of normalized population vs chirp rate.

    Initialization scans a coarse frequency grid with a linear solve in
    the cos/sin basis, then a damped Gauss-Newton refines all four
    parameters until the step norm drops below 1e-10. The (scale,
    phase0) sign degeneracy of the cosine is resolved by canonicalizing
    phase0 into [0, pi).
    """
    pts = as_numbers("points", points).astype(float, copy=False)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
        raise DomainError("need at least 8 (alpha, p) points")
    require_finite("points", pts)
    x = pts[:, 0] / constants.k_eff_per_m
    p = pts[:, 1]
    dx = np.diff(np.sort(x))
    distinct = 1 + int(np.count_nonzero(dx))
    if distinct < 4:
        raise DomainError(f"need at least 4 distinct alpha values for the 4 fit parameters, got {distinct}")
    span = float(x.max() - x.min())
    if float(np.var(p)) < 1e-16:
        raise FitError(
            "constant data: no fringe to fit",
            diagnostics={"p_variance": float(np.var(p)), "n_points": int(len(p))},
        )

    # frequency grid: at least one period over the span, below Nyquist;
    # 4 distinct values put the smallest spacing below a third of the span
    f_lo = 0.5 * 2.0 * math.pi / span
    f_hi = math.pi / float(dx[dx > 0].min())
    f0 = _best_frequency(x, p, np.geomspace(f_lo, f_hi, 400))
    # the winner's coefficients from lstsq, not from the scan's sums: on
    # noisy data the Gauss-Newton stopping point moves by ~1e-10 with the
    # last bits of its start
    a0, *_ = np.linalg.lstsq(_design(x, f0), p, rcond=None)
    amp0 = math.hypot(a0[1], a0[2])
    theta = np.array([a0[0], amp0, f0, math.atan2(-a0[2], a0[1])])

    # damped Gauss-Newton
    lam = 0.0
    sse_prev = float(np.sum((_model(theta, x) - p) ** 2))
    converged = False
    for _ in range(FIT_MAX_ITER):
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


def fringes_parallel(fits: list[FringeFit]) -> bool:
    """Whether the fits' |S| agree to 1e-12 of the largest (one fit, or flat ones, too): such
    fringes keep one phase difference at every chirp, so they have no crossing."""
    mags = np.abs([f.scale_s2_per_m for f in fits])
    return bool(mags.max() - mags.min() <= 1e-12 * mags.max())


# largest phase residual psi_i + |S_i| delta - c a crossing of three or more fits may leave: noisy
# fits leave < 0.01 rad, the next phase agreement of two fringes (an alias) leaves > 2 rad
MAX_PHASE_RESIDUAL_RAD = 0.5


def fringe_intersection(
    fits: list[FringeFit],
    constants: PhysicalConstants,
    alpha_center_rad_per_s2: float,
) -> FringeCrossing:
    """Chirp rate where the phases of all fitted fringes agree, and its
    standard uncertainty (chirp-scan method, Peters, Chung & Chu, Nature
    400, 849, 1999).

    At the compensating chirp the inertial phase vanishes for every T, so
    the phases psi_i(x) = |S_i| x + sign(S_i) phase0_i, x = alpha/k_eff,
    agree there mod 2 pi. The crossing is sought in one beat period
    2 pi/(|S_a| + |S_b|) of the two steepest fringes, centred on
    `alpha_center_rad_per_s2` (the scan centre): narrower than the
    2 pi/||S_i| - |S_j|| spacing of phase agreements, so the window holds
    at most one. Taken at the window midpoint x_m and unwrapped to the
    branch nearest the first fit's, psi_i + |S_i| delta = c is solved for
    (delta, c), weighted by 1/Var psi_i from each fit's (scale, phase0)
    covariance; sigma comes from (A^T W A)^-1. If any fit has zero
    variance (an exact fit), the weights are equal and sigma is 0.
    DomainError for fits of equal |S| (two flat ones too), a window that
    leaves the float range, a crossing outside the window, or, for three
    or more fits, a phase residual above MAX_PHASE_RESIDUAL_RAD: a point
    where not all phases agree, which two fits cannot tell apart.
    """
    if len(fits) < 2:
        raise DomainError("need at least 2 fringe fits")
    if fringes_parallel(fits):
        raise DomainError("fringes are parallel (equal |scale|); no crossing")
    scales = np.array([f.scale_s2_per_m for f in fits])
    mags = np.abs(scales)
    require(NUMBER, "alpha_center_rad_per_s2", alpha_center_rad_per_s2)
    center = float(alpha_center_rad_per_s2)

    k = constants.k_eff_per_m
    steepest = sorted(mags.tolist(), reverse=True)
    half = math.pi / (steepest[0] + steepest[1]) * k  # in Python floats, so tiny scales give inf, not a warning
    lo, hi = center - half, center + half
    x_mid = in_float_range("the one-beat window", lambda: 0.5 * (lo + hi) / k, scales=scales.tolist(),
                           alpha_center_rad_per_s2=center)
    psi = mags * x_mid + np.sign(scales) * np.array([f.phase0_rad for f in fits])
    psi -= 2.0 * math.pi * np.round((psi - psi[0]) / (2.0 * math.pi))
    grad = np.array([x_mid, 1.0])  # d psi / d(scale, phase0), up to sign(S_i)
    var = np.einsum("i,fij,j->f", grad, np.array([f.covariance[2:, 2:] for f in fits]), grad)
    var_min = max(float(var.min()), 0.0)
    # weights relative to the best-determined phase: W = weights / var_min
    weights = np.ones(len(fits)) if var_min == 0.0 else var_min / var
    design = np.column_stack([-mags, np.ones(len(fits))])  # unknowns (delta, c)
    normal_inv = np.linalg.inv(design.T @ (weights[:, None] * design))
    solution = normal_inv @ (design.T @ (weights * psi))
    delta = float(solution[0])

    alpha = (x_mid + delta) * k
    if not lo <= alpha <= hi:
        raise DomainError(f"crossing {alpha!r} rad/s^2 lies outside the window [{lo!r}, {hi!r}]")
    residual = float(np.abs(psi - design @ solution).max())
    if len(fits) > 2 and residual > MAX_PHASE_RESIDUAL_RAD:
        raise DomainError(f"the phases disagree by {residual!r} rad (bound {MAX_PHASE_RESIDUAL_RAD} rad) at "
                          f"{alpha!r} rad/s^2, so it is no crossing of all fits: scales={scales.tolist()}")
    sigma = math.sqrt(var_min * normal_inv[0, 0]) * k
    return FringeCrossing(alpha_rad_per_s2=alpha, sigma_alpha_rad_per_s2=sigma)


# ---------------------------------------------------------------------------
# pairing and gravity


def delta_p(shots: ShotTable) -> DeltaPSeries:
    """The log's one pairing: per usable (long-T, short-T) pair, p(long T) - p(short T)
    and the imbalance difference, with the log's times and chirp.

    Requires strict alternation starting on the long-T shot. A trailing
    unpaired shot is dropped and a pair with a zero-atom shot is skipped,
    each counted.
    """
    if len(shots) < 2:
        raise DataError("need at least one full pair of shots")
    t1, t2 = shots.free_evolution_s[:2].tolist()
    if t1 == t2:
        raise DataError("first two shots share the same T; not an alternating log")

    paired = len(shots) - len(shots) % 2
    first, second = shots[0:paired:2], shots[1:paired:2]
    broken = (first.free_evolution_s != t1) | (second.free_evolution_s != t2)
    if broken.any():
        k = int(broken.argmax())
        raise DataError(
            f"alternation broken at records {2 * k},{2 * k + 1}: "
            f"({float(first.free_evolution_s[k])}, {float(second.free_evolution_s[k])})"
        )
    atoms1, atoms2 = first.count_f1 + first.count_f2, second.count_f1 + second.count_f2
    usable = (atoms1 > 0) & (atoms2 > 0)
    if not usable.all():
        if not usable.any():
            raise DataError("no usable pairs (all skipped)")
        first, second, atoms1, atoms2 = first[usable], second[usable], atoms1[usable], atoms2[usable]
    return DeltaPSeries(
        times_s=first.wall_time_s.copy(),  # its own array: no view keeps the log's whole column alive
        values=first.count_f2 / atoms1 - second.count_f2 / atoms2,
        imbalance_diff=first.imbalance - second.imbalance,
        mean_atoms_sum=float(np.mean(atoms1) + np.mean(atoms2)),
        t1_s=t1, t2_s=t2, chirp_rad_per_s2=float(shots.chirp_rad_per_s2[0]),
        tau0_s=float(shots.wall_time_s[2] - shots.wall_time_s[0]) if len(shots) > 2 else None,
        n_dropped=len(shots) % 2, n_skipped=int((~usable).sum()),
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
    require(NUMBER, "delta_p_mean", delta_p_mean)
    require(FRACTION, "contrast", contrast)
    require(NUMBER, "scale1_s2_per_m", scale1_s2_per_m)
    require(NUMBER, "scale2_s2_per_m", scale2_s2_per_m)
    require(NUMBER, "alpha_rad_per_s2", alpha_rad_per_s2)
    if scale1_s2_per_m == scale2_s2_per_m:
        raise DomainError("scale factors must differ")
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
) -> GravityEstimate:
    """Gravity estimate with uncertainty from the delta-p standard error;
    contrast and scale factors are treated as exact."""
    vals = deltas.values
    if len(vals) < 2:
        raise DataError("need at least 2 pairs for an uncertainty")
    require_finite("deltas.values", vals)
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    g = gravity_from_delta_p(mean, contrast, scale1_s2_per_m, scale2_s2_per_m, alpha_rad_per_s2, constants)
    sigma_g = (2.0 / contrast) * sem / abs(scale1_s2_per_m - scale2_s2_per_m)
    return GravityEstimate(
        g_exp_m_s2=g, sigma_g_m_s2=sigma_g, delta_p_mean=mean, n_pairs=len(vals)
    )


# ---------------------------------------------------------------------------
# metrological squeezing


def _binary_unit(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x / 2^e and e, for 2^e the power of two of max|x|: exact, and far from both float limits."""
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e), e


def require_squeezing_contrast(contrast: float) -> None:
    """Refuse a contrast outside (0, 1], or one whose square underflows to 0:
    the squeezing divides by it."""
    require(FRACTION, "contrast", contrast)
    if contrast**2 == 0:
        raise DomainError(f"the squeezing leaves the float range at contrast={contrast!r}: its square underflows to 0")


def squeezing_from_pairs(
    imbalance_diff: np.ndarray, mean_atoms_sum: float, contrast: float
) -> float:
    """Linear metrological squeezing: pair-difference variance over the
    two-measurement projection limit (N1 + N2)/4, contrast-corrected;
    DomainError if it overflows, or underflows to 0 from nonzero differences."""
    diffs = as_numbers("imbalance_diff", imbalance_diff).astype(float, copy=False)
    if len(diffs) < 2:
        raise DataError("need at least 2 pairs")
    require_finite("imbalance_diff", diffs)
    require(POSITIVE, "mean_atoms_sum", mean_atoms_sum)
    require_squeezing_contrast(contrast)
    if not diffs.any():
        raise DomainError("every pair difference is zero: no noise to compare with the projection limit")
    unit, e = _binary_unit(diffs)
    # second moment about zero, the ideal mid-fringe operating point:
    # exactly symmetric under negating the difference series, and any
    # static fringe offset is counted as noise rather than absorbed
    mean_square = float(np.mean(unit * unit))
    return in_float_range(  # a 0 underflowed: the differences are nonzero
        "the squeezing",
        lambda: math.ldexp((4.0 / contrast**2) * mean_square / mean_atoms_sum, 2 * e) or math.nan,
        max_abs_imbalance_diff=float(np.abs(diffs).max()), mean_atoms_sum=mean_atoms_sum, contrast=contrast
    )


# Newton steps of _chi2_quantile at most: a step below 1e-10 in ln y ends it
# within 10 from 2 to 10^8 degrees of freedom, and the cap bounds the loop
# should the rounding of ln P keep the steps above that
CHI2_MAX_STEPS = 100


def _chi2_quantile(q: float, dof: int) -> float:
    """The q quantile of the chi-square law with dof degrees of freedom.

    That is 2y for P(dof/2, y) = q, P the regularized lower incomplete
    gamma function, found by Newton steps on ln y from ln(dof/2), the
    inflection point of P in ln y: P is convex in ln y below it and
    concave above, so the steps approach the root from one side and never
    pass it. P(a, y) = y^a e^-y / Gamma(a + 1) * sum_k y^k / ((a + 1) ... (a + k))
    (Abramowitz & Stegun 6.5.29), summed past its largest term until the
    terms fall to about e^-50 of it.
    """
    a = 0.5 * dof
    u = math.log(a)  # ln y
    for _ in range(CHI2_MAX_STEPS):
        y = math.exp(u)
        k = np.arange(1, int(max(y - a, 0.0) + 10.0 * math.sqrt(y) + 40.0))
        ratios = np.cumsum(np.log(y / (a + k)))  # ln of each term of the sum over its first, 1
        top = max(float(ratios.max()), 0.0)
        log_sum = top + math.log(math.exp(-top) + float(np.sum(np.exp(ratios - top))))
        log_density = a * u - y - math.lgamma(a)  # dP / d ln y = y^a e^-y / Gamma(a)
        step = (math.exp(log_density + log_sum) / a - q) / math.exp(log_density)
        u -= step
        if abs(step) <= 1e-10:
            break
    return 2.0 * math.exp(u)


def metrological_squeezing(
    deltas: DeltaPSeries,
    contrast: float = 1.0,
    n_bootstrap: int = 1000,
) -> SqueezingEstimate:
    """Squeezing of the two-T difference signal, in dB, with an exact 95 %
    confidence interval for Gaussian, mean-zero pair differences.

    Reads the imbalance differences of the pairs delta_p made, over their mean atom sum.

    The squeezing is proportional to the mean m2 of the n squared pair
    differences. For Gaussian, mean-zero differences of variance s^2,
    n m2 / s^2 follows the chi-square law with n degrees of freedom, so
    [n m2 / chi2_n(0.975), n m2 / chi2_n(0.025)] covers s^2 with
    probability 0.95; the interval is db plus 10 log10 of n / chi2_n(q).

    `n_bootstrap` has no effect: it keeps its name and default because
    the benchmark's tracer binds it by name, as it rebinds
    pulses.solve_ivp, and it goes with that binding.
    """
    linear = squeezing_from_pairs(deltas.imbalance_diff, deltas.mean_atoms_sum, contrast)
    n = len(deltas.imbalance_diff)
    db = 10.0 * math.log10(linear)
    return SqueezingEstimate(
        linear=linear,
        db=db,
        ci_low_db=db + 10.0 * math.log10(n / _chi2_quantile(0.975, n)),
        ci_high_db=db + 10.0 * math.log10(n / _chi2_quantile(0.025, n)),
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
    DomainError if an averaging time or a deviation leaves the float range.
    """
    x = as_numbers("series", series).astype(float, copy=False)
    if x.ndim != 1 or len(x) < MIN_ALLAN_SAMPLES:
        raise DataError(f"need a 1-d series of at least {MIN_ALLAN_SAMPLES} samples, got {len(x) if x.ndim == 1 else x.shape}")
    require_finite("series", x)
    require(POSITIVE, "tau0_s", tau0_s)
    m_max = len(x) // 3
    peak = float(np.abs(x).max())
    unit, e = _binary_unit(x)

    taus, adevs, errs = [], [], []
    m = 1
    csum = np.concatenate(([0.0], np.cumsum(unit)))
    while m <= m_max:
        block = csum[m:] - csum[:-m]  # running sums of length m
        d = block[m:] - block[:-m]    # second difference, M - 2m + 1 terms
        n_terms = len(d)
        avar = float(np.sum(d * d)) / (2.0 * m * m * n_terms)
        taus.append(in_float_range("tau_s", lambda: m * tau0_s, m=m, tau0_s=tau0_s))
        adev = in_float_range("the Allan deviation", lambda: math.ldexp(math.sqrt(avar), e), m=m, max_abs_series=peak)
        adevs.append(adev)
        errs.append(adev / math.sqrt(n_terms))
        m *= 2
    return AllanSeries(tau_s=np.asarray(taus), adev=np.asarray(adevs), err=np.asarray(errs))


def phase_noise_budget(sigma_phi_rad: float, atoms: float) -> PhaseNoiseBudget:
    """Small-angle conversion of interferometer phase noise to an
    imbalance std and its level relative to the projection limit."""
    require(NON_NEGATIVE, "sigma_phi_rad", sigma_phi_rad)
    require(POSITIVE, "atoms", atoms)
    power = in_float_range(  # 0 when sigma_phi_rad is 0 or its square underflows: negligible
        "atoms * sigma_phi_rad^2", lambda: atoms * sigma_phi_rad**2, sigma_phi_rad=sigma_phi_rad, atoms=atoms
    )
    db = 10.0 * math.log10(power) if power > 0 else -math.inf
    return PhaseNoiseBudget(delta_jz_atoms=0.5 * atoms * sigma_phi_rad, db_vs_sql=db)
