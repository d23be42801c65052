"""Elementary pulse mathematics.

Smooth-envelope Raman pulses: the Blackman window, its accumulated
rotation area, the single-pulse sensitivity ramp built from it, and the
transfer efficiency of a physical pi pulse under detuning: the Rabi
formula where the drive keeps a fixed direction, a two-level ODE for a
Blackman pulse under a constant detuning.

Two distinct areas live on a pulse and must not be conflated:

* ``area_rad`` is the physical rotation the pulse implements (pi for the
  Raman mirror pulses).
* ``sensitivity_area_rad`` is the area used inside the sensitivity ramp;
  it is pi/2 so the ramp ends exactly at 1 and the piecewise gravimeter
  sensitivity function stays continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, DomainError, NumericalError

# Blackman window coefficients; a0 - a1 + a2 = 0 gives exact endpoint zeros
# and a0 + a1 + a2 = 1 gives a peak of exactly 1 at the pulse center.
_A0, _A1, _A2 = 0.42, 0.5, 0.08

BLACKMAN_MEAN = _A0  # mean of the window over one pulse; integral is 0.42*tau

ODE_RTOL = 1e-9  # relative tolerance of the constant-detuning DOP853 solve


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


@dataclass(frozen=True)
class PulseShape:
    """One Raman pulse: envelope kind, duration and the two areas."""

    kind: str = "blackman"  # "blackman" or "square"
    duration_s: float = 60e-6
    area_rad: float = math.pi
    sensitivity_area_rad: float = math.pi / 2

    def __post_init__(self):
        if self.kind not in ("blackman", "square"):
            raise ConfigError(f"unknown pulse kind {self.kind!r}")
        if self.duration_s <= 0:
            raise ConfigError("pulse duration must be > 0")
        if self.area_rad <= 0 or self.sensitivity_area_rad <= 0:
            raise ConfigError("pulse areas must be > 0")

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
    """Rotation area accumulated by time t, normalized to reach
    sensitivity_area_rad exactly at the end of the pulse."""
    if t < 0 or t > shape.duration_s:
        raise DomainError(
            f"t = {t} outside pulse support [0, {shape.duration_s}]"
        )
    x = t / shape.duration_s
    if shape.kind == "square":
        frac = x
    else:
        frac = _window_integral(x) / BLACKMAN_MEAN
    return shape.sensitivity_area_rad * float(frac)


def pulse_sensitivity(shape: PulseShape, t: float) -> float:
    """Single-pulse sensitivity ramp sin(accumulated area).

    Runs 0 -> 1 over the pulse when sensitivity_area_rad = pi/2; larger
    sensitivity areas would overshoot and break the piecewise continuity
    of the gravimeter sensitivity function, so they are rejected.
    """
    if shape.sensitivity_area_rad > math.pi / 2 + 1e-12:
        raise ConfigError(
            "sensitivity_area_rad must be <= pi/2 for a monotone 0 -> 1 ramp"
        )
    return math.sin(accumulated_area(shape, t))


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
    nodes: int = 31,
) -> tuple[float, float]:
    """Mean and std of the transfer probability over a Gaussian detuning.

    Deterministic Gauss-Hermite quadrature; nodes >= 15 keeps the
    smooth integrand converged well below the quoted precision.
    """
    if detuning_sigma_rad_s < 0:
        raise DomainError("detuning sigma must be >= 0")
    if detuning_sigma_rad_s == 0:
        return transfer_probability(shape, detuning_mean_rad_s, detuning_model), 0.0
    if nodes < 15:
        raise ConfigError("need at least 15 quadrature nodes")

    x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    deltas = detuning_mean_rad_s + math.sqrt(2.0) * detuning_sigma_rad_s * x
    probs = _transfer(shape, deltas, detuning_model)
    mean = float(np.sum(w * probs))
    second = float(np.sum(w * probs * probs))
    var = max(second - mean * mean, 0.0)
    return mean, math.sqrt(var)
