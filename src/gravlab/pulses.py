"""Elementary pulse mathematics.

Smooth-envelope Raman pulses: the Blackman window, its accumulated
rotation area, the single-pulse sensitivity ramp built from it, and the
transfer efficiency of a physical pi pulse under detuning: the Rabi
formula where the drive keeps a fixed direction, fourth-order Magnus
steps for a Blackman pulse under a constant detuning.

A pulse's ``area_rad`` is the physical rotation it implements (pi for
the Raman mirror pulses). The sensitivity ramp always accumulates pi/2, so
it ends exactly at 1 and the gravimeter sensitivity function stays
continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DURATION, NON_NEGATIVE, NUMBER, POSITIVE, ConfigError, DomainError, Rule
from .errors import check_fields, float_or_array, in_float_range, require, require_each

# Blackman window coefficients; a0 - a1 + a2 = 0 gives exact endpoint zeros
# and a0 + a1 + a2 = 1 gives a peak of exactly 1 at the pulse center.
_A0, _A1, _A2 = 0.42, 0.5, 0.08

BLACKMAN_MEAN = _A0  # mean of the window over one pulse; integral is 0.42*tau

MAGNUS_BLOCK_STEPS = 4096  # Magnus steps built at once: bounds the numpy temporaries
MAX_MAGNUS_STEPS = 2**22  # a pulse that needs more Magnus steps is refused
TRANSFER_NODES = 31  # Gauss-Hermite nodes of averaged_transfer
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0  # two-point Gauss-Legendre on [0, 1]


def _window(x):
    # half-angle form, valid because _A0 - _A1 + _A2 == 0 for these
    # coefficients; makes the endpoint zeros exact in floating point
    c = np.cos(np.pi * x)
    s = np.sin(np.pi * x)
    return s * s * (2.0 * _A1 - 8.0 * _A2 * c * c)


def _window_integral(x):
    # antiderivative of _window with F(0) = 0
    return (
        _A0 * x
        - _A1 * np.sin(2 * np.pi * x) / (2 * np.pi)
        + _A2 * np.sin(4 * np.pi * x) / (4 * np.pi)
    )


_KIND = Rule(lambda v: v in ("blackman", "square"), "'blackman' or 'square'")
_MODEL = Rule(lambda v: v in ("envelope", "constant"), "'envelope' or 'constant'")


@dataclass(frozen=True)
class PulseShape:
    """One Raman pulse: envelope kind, duration and rotation area."""

    kind: str = "blackman"  # "blackman" or "square"
    duration_s: float = 60e-6
    area_rad: float = math.pi

    def __post_init__(self):
        check_fields(self, kind=_KIND, duration_s=DURATION, area_rad=POSITIVE)
        try:
            finite = math.isfinite(self.peak_rabi_rad_s)
        except ZeroDivisionError:  # a subnormal duration times BLACKMAN_MEAN rounds to 0
            finite = False
        if not finite:
            raise DomainError(
                f"pulse area {self.area_rad} rad over {self.duration_s} s needs a peak Rabi rate beyond the float range"
            )

    @property
    def peak_rabi_rad_s(self) -> float:
        """Peak Rabi rate that realizes area_rad over the envelope."""
        if self.kind == "square":
            return self.area_rad / self.duration_s
        return self.area_rad / (BLACKMAN_MEAN * self.duration_s)


def _fraction(shape: PulseShape, t):
    """Time t, a number or an array, as a fraction of the pulse; a t outside its support [0, duration_s] is refused."""
    tau = shape.duration_s
    support = Rule(lambda v: NUMBER.test(v) and 0 <= v <= tau, f"a time in [0, {tau!r}] s")
    return require_each(support, "t", t, lambda ts: (0 <= ts) & (ts <= tau)) / tau


def envelope(shape: PulseShape, t: float | np.ndarray) -> float | np.ndarray:
    """Normalized drive envelope at time t into the pulse, in [0, 1]: a float for a number, an array for an array."""
    x = _fraction(shape, t)
    if shape.kind == "square":
        return float_or_array(np.ones_like(x, dtype=float))
    # at t == 0 and t == duration_s: sin(pi*1.0) is ~1e-16, not 0; the zeros are exact by definition
    return float_or_array(np.where((x == 0.0) | (x == 1.0), 0.0, _window(x)))


def accumulated_area(shape: PulseShape, t: float | np.ndarray) -> float | np.ndarray:
    """Rotation area accumulated by time t, normalized to reach pi/2
    exactly at the end of the pulse: a float for a number, an array for an array."""
    x = _fraction(shape, t)
    return float_or_array(math.pi / 2 * (x if shape.kind == "square" else _window_integral(x) / BLACKMAN_MEAN))


def pulse_sensitivity(shape: PulseShape, t: float | np.ndarray) -> float | np.ndarray:
    """Single-pulse sensitivity ramp sin(accumulated area): runs 0 -> 1
    over the pulse; a float for a number, an array for an array."""
    return float_or_array(np.sin(accumulated_area(shape, t)))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call. Nothing in
    gravlab calls it: the name stays only because the benchmark's tracer
    rebinds it in every traced replay, and it goes with that rebinding."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _transfer(shape: PulseShape, deltas: np.ndarray, detuning_model: str) -> np.ndarray:
    """Excited-state population after one pulse, for each detuning.

    Rotating-frame Hamiltonian (hbar = 1), starting from the ground state:
        H(t) = [[-delta(t)/2, Omega(t)/2], [Omega(t)/2, +delta(t)/2]] = a(t).sigma
    When delta(t) and Omega(t) share one envelope (square pulses, or the
    envelope model), H(t) keeps a fixed direction, so the transfer is the Rabi
    formula at the generalized area W * area_rad / Omega0, W = hypot(Omega0, delta).

    A Blackman pulse under a constant delta takes n fourth-order Magnus steps
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151, 2009): a step h with
    Gauss-Legendre nodes t1 < t2 is the exact rotation [[alpha, beta], [-beta*,
    alpha*]] = exp(-i b.sigma), b = h (a1 + a2) / 2 + sqrt(3) h^2 (a2 x a1) / 6.
    n is the power of two at or above 400 and 64 (Omega0 tau / 2)^1.25, which
    keep the h^4 error below 1e-9, and |delta| tau: at most one radian of
    detuning phase per step keeps a detuning from aliasing with the step rate.
    """
    require(_MODEL, "detuning_model", detuning_model, ConfigError)
    om0, tau, peak = shape.peak_rabi_rad_s, shape.duration_s, float(np.max(np.abs(deltas)))
    if shape.kind == "square" or detuning_model == "envelope":
        in_float_range("the generalized area", lambda: 0.5 * math.hypot(om0, peak) * shape.area_rad / om0, detuning=peak)
        big_w = np.hypot(om0, deltas)
        return (om0 / big_w) ** 2 * np.sin(0.5 * big_w * shape.area_rad / om0) ** 2

    need = max(400.0, 64 * min(om0 * tau / 2, MAX_MAGNUS_STEPS) ** 1.25, peak * tau)
    if not need <= MAX_MAGNUS_STEPS:
        raise DomainError(f"detuning {peak!r} rad/s over {shape} needs more than {MAX_MAGNUS_STEPS} Magnus steps")
    n = 2 ** math.ceil(math.log2(need))  # every block then halves to one rotation
    h = tau / n
    alpha, beta = np.ones(deltas.shape, complex), np.zeros(deltas.shape, complex)
    for start in range(0, n, MAGNUS_BLOCK_STEPS):
        om = om0 * _window((np.arange(start, min(start + MAGNUS_BLOCK_STEPS, n))[:, None] + _GAUSS_NODES) / n)
        bx = h / 4 * (om[:, :1] + om[:, 1:])
        by = math.sqrt(3) / 24 * h * h * (om[:, 1:] - om[:, :1]) * deltas
        bz = -h / 2 * deltas
        angle = np.hypot(np.hypot(bx, by), bz)  # > 0: the window is positive inside the pulse
        s = np.sin(angle) / angle
        a, b = np.cos(angle) - 1j * s * bz, -s * by - 1j * s * bx
        while len(a) > 1:
            a, b = a[1::2] * a[0::2] - b[1::2] * np.conj(b[0::2]), a[1::2] * b[0::2] + b[1::2] * np.conj(a[0::2])
        alpha, beta = a[0] * alpha - b[0] * np.conj(beta), a[0] * beta + b[0] * np.conj(alpha)
    return np.minimum(np.abs(beta) ** 2, 1.0)


def transfer_probability(shape: PulseShape, detuning_rad_s: float, detuning_model: str = "envelope") -> float:
    """Excited-state population after one physical pulse at fixed detuning.

    The default "envelope" model lets the detuning follow the pulse
    envelope (a light shift is proportional to intensity); "constant"
    holds it fixed across the pulse.
    """
    require(NUMBER, "detuning_rad_s", detuning_rad_s)
    return float(_transfer(shape, np.array([float(detuning_rad_s)]), detuning_model)[0])


def averaged_transfer(
    shape: PulseShape, detuning_mean_rad_s: float, detuning_sigma_rad_s: float, detuning_model: str = "envelope"
) -> tuple[float, float]:
    """Mean and std of the transfer probability over a Gaussian detuning, by deterministic
    Gauss-Hermite quadrature on TRANSFER_NODES nodes, which keeps the smooth integrand
    converged well below the quoted precision."""
    require(NUMBER, "detuning_mean_rad_s", detuning_mean_rad_s)
    require(NON_NEGATIVE, "detuning_sigma_rad_s", detuning_sigma_rad_s)
    if detuning_sigma_rad_s == 0:
        return transfer_probability(shape, detuning_mean_rad_s, detuning_model), 0.0

    x, w = np.polynomial.hermite.hermgauss(TRANSFER_NODES)
    w = w / math.sqrt(math.pi)
    scale = math.sqrt(2.0) * detuning_sigma_rad_s
    # the node farthest from the mean bounds every |mean + scale x|, as rounding is monotone
    in_float_range(
        "the widest quadrature detuning", lambda: abs(detuning_mean_rad_s) + scale * float(np.abs(x).max()),
        detuning_mean_rad_s=detuning_mean_rad_s, detuning_sigma_rad_s=detuning_sigma_rad_s,
    )
    deltas = detuning_mean_rad_s + scale * x
    probs = _transfer(shape, deltas, detuning_model)
    mean = float(np.sum(w * probs))
    second = float(np.sum(w * probs * probs))
    var = max(second - mean * mean, 0.0)
    return mean, math.sqrt(var)
