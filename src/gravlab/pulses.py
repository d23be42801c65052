"""Elementary pulse mathematics.

Smooth-envelope Raman pulses: the Blackman window, its accumulated
rotation area, the single-pulse sensitivity ramp built from it, and the
transfer efficiency of a physical pi pulse under detuning: the Rabi
formula where the drive keeps a fixed direction, a two-level ODE for a
Blackman pulse under a constant detuning.

A pulse's ``area_rad`` is the physical rotation it implements (pi for
the Raman mirror pulses). The sensitivity ramp always accumulates pi/2, so
it ends exactly at 1 and the gravimeter sensitivity function stays
continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DURATION, POSITIVE, ConfigError, DomainError, NumericalError, Rule, check_fields

# Blackman window coefficients; a0 - a1 + a2 = 0 gives exact endpoint zeros
# and a0 + a1 + a2 = 1 gives a peak of exactly 1 at the pulse center.
_A0, _A1, _A2 = 0.42, 0.5, 0.08

BLACKMAN_MEAN = _A0  # mean of the window over one pulse; integral is 0.42*tau

ODE_RTOL = 1e-9  # relative tolerance of the constant-detuning DOP853 solve
TRANSFER_NODES = 31  # Gauss-Hermite nodes of averaged_transfer


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


def envelope(shape: PulseShape, t: float) -> float:
    """Normalized drive envelope at time t into the pulse, in [0, 1]."""
    if t < 0 or t > shape.duration_s:
        raise DomainError(
            f"t = {t} outside pulse support [0, {shape.duration_s}]"
        )
    if shape.kind == "square":
        return 1.0
    if t == 0.0 or t == shape.duration_s:
        return 0.0  # sin(pi*1.0) is ~1e-16, not 0; the zeros are exact by definition
    return float(_window(t / shape.duration_s))


def accumulated_area(shape: PulseShape, t: float) -> float:
    """Rotation area accumulated by time t, normalized to reach pi/2
    exactly at the end of the pulse."""
    if t < 0 or t > shape.duration_s:
        raise DomainError(
            f"t = {t} outside pulse support [0, {shape.duration_s}]"
        )
    x = t / shape.duration_s
    if shape.kind == "square":
        frac = x
    else:
        frac = _window_integral(x) / BLACKMAN_MEAN
    return math.pi / 2 * float(frac)


def pulse_sensitivity(shape: PulseShape, t: float) -> float:
    """Single-pulse sensitivity ramp sin(accumulated area): runs 0 -> 1
    over the pulse."""
    return math.sin(accumulated_area(shape, t))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: only a
    Blackman pulse under a constant detuning needs it, and importing
    scipy.integrate also loads scipy.sparse and scipy.optimize. It is a
    module-level name so that instrumentation can rebind it to count the
    solves (bench/tracer.py does)."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _transfer(shape: PulseShape, deltas: np.ndarray, detuning_model: str) -> np.ndarray:
    """Excited-state population after one pulse, for each detuning.

    Rotating-frame Hamiltonian (hbar = 1), starting from the ground state:
        H(t) = [[-delta(t)/2, Omega(t)/2], [Omega(t)/2, +delta(t)/2]]
    When delta(t) and Omega(t) share one envelope (square pulses, or the
    envelope model), H(t) keeps a fixed direction and commutes with itself,
    so the transfer is the Rabi formula at the generalized area
    W * area_rad / Omega0 with W = sqrt(Omega0^2 + delta^2). Only a
    Blackman pulse under a constant detuning needs the ODE.
    """
    if detuning_model not in ("envelope", "constant"):
        raise ConfigError(f"unknown detuning model {detuning_model!r}")
    if not np.isfinite(deltas).all():
        raise DomainError("detuning must be a finite number")
    om0 = shape.peak_rabi_rad_s
    if shape.kind == "square" or detuning_model == "envelope":
        big_w = np.sqrt(om0 * om0 + deltas * deltas)
        return (om0 / big_w) ** 2 * np.sin(0.5 * big_w * shape.area_rad / om0) ** 2

    tau = shape.duration_s
    n = len(deltas)

    def rhs(t, y):
        om = om0 * float(_window(t / tau))
        cg, ce = y[:n], y[n:]
        dcg = -1j * (-0.5 * deltas * cg + 0.5 * om * ce)
        dce = -1j * (0.5 * om * cg + 0.5 * deltas * ce)
        return np.concatenate((dcg, dce))

    # ground amplitudes of every detuning, then their excited amplitudes
    y0 = np.zeros(2 * n, dtype=complex)
    y0[:n] = 1.0
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=ODE_RTOL, atol=ODE_RTOL * 1e-3)
    if not sol.success:
        raise NumericalError(f"two-level integration failed: {sol.message}")
    amp2 = np.abs(sol.y) ** 2
    drift = float(np.max(np.abs(amp2[:n] + amp2[n:] - 1.0)))
    if drift > 1e-9:
        raise NumericalError(f"norm drift {drift:.2e} exceeds 1e-9; tighten ODE_RTOL")
    return np.clip(amp2[n:, -1], 0.0, 1.0)


def transfer_probability(
    shape: PulseShape,
    detuning_rad_s: float,
    detuning_model: str = "envelope",
) -> float:
    """Excited-state population after one physical pulse at fixed detuning.

    The default "envelope" model lets the detuning follow the pulse
    envelope (a light shift is proportional to intensity); "constant"
    holds it fixed across the pulse.
    """
    return float(_transfer(shape, np.array([float(detuning_rad_s)]), detuning_model)[0])


def averaged_transfer(
    shape: PulseShape,
    detuning_mean_rad_s: float,
    detuning_sigma_rad_s: float,
    detuning_model: str = "envelope",
) -> tuple[float, float]:
    """Mean and std of the transfer probability over a Gaussian detuning,
    by deterministic Gauss-Hermite quadrature on TRANSFER_NODES nodes,
    which keeps the smooth integrand converged well below the quoted
    precision.
    """
    if not 0 <= detuning_sigma_rad_s < math.inf:  # NaN fails too
        raise DomainError("detuning sigma must be a finite number >= 0")
    if detuning_sigma_rad_s == 0:
        return transfer_probability(shape, detuning_mean_rad_s, detuning_model), 0.0

    x, w = np.polynomial.hermite.hermgauss(TRANSFER_NODES)
    w = w / math.sqrt(math.pi)
    deltas = detuning_mean_rad_s + math.sqrt(2.0) * detuning_sigma_rad_s * x
    probs = _transfer(shape, deltas, detuning_model)
    mean = float(np.sum(w * probs))
    second = float(np.sum(w * probs * probs))
    var = max(second - mean * mean, 0.0)
    return mean, math.sqrt(var)
