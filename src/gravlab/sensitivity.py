"""Gravimeter sensitivity function and scale factor.

The four-pulse sequence produces a piecewise response g(t) to phase
jumps: a smooth ramp up over the first pulse, a plateau at +1 during the
first separation time, a ramp back to zero, a dead window during the
free evolution, then the mirrored negative lobe. The scale factor is the
time-weighted integral of that response times the effective wavevector
and converts an acceleration into an interferometer phase. Both the net
area and the scale factor have closed forms that hold for any ramp shape;
gravity_sensitivity stays as the definition they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DURATION, NUMBER, POSITIVE, check_fields, require
from .pulses import PulseShape, pulse_sensitivity


@dataclass(frozen=True)
class SequenceTiming:
    """Epochs of one gravimeter sequence (seconds).

    pulse_s:          duration of each of the four Raman pulses
    separation_s:     wait between the pulses of a pair
    free_evolution_s: wait between the two pairs (the T that is scanned)
    start_s:          absolute start time of the sequence
    """

    pulse_s: float = 60e-6
    separation_s: float = 77e-6
    free_evolution_s: float = 455e-6
    start_s: float = 0.0

    def __post_init__(self):
        check_fields(self, pulse_s=DURATION, separation_s=DURATION, free_evolution_s=DURATION, start_s=NUMBER)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The 8 epoch edges, strictly increasing."""
        tau, sep, free = self.pulse_s, self.separation_s, self.free_evolution_s
        offs = (0.0, tau, sep, tau, free, tau, sep, tau)
        edges = self.start_s + np.cumsum(offs)
        return tuple(float(t) for t in edges)


@dataclass(frozen=True)
class PhysicalConstants:
    """Effective two-photon wavevector of the Raman transition."""

    # two counter-propagating photons on the Rb D2 line, 4*pi/780.241 nm
    k_eff_per_m: float = 1.61057e7

    def __post_init__(self):
        check_fields(self, k_eff_per_m=POSITIVE)


def gravity_sensitivity(timing: SequenceTiming, t: float) -> float:
    """Piecewise sequence sensitivity g(t); zero outside the sequence."""
    require(NUMBER, "t", t)
    b = timing.breakpoints
    if t < b[0] or t > b[7]:
        return 0.0
    shape = PulseShape(kind="blackman", duration_s=timing.pulse_s)

    def ramp(edge):
        # clamp the segment-local time: breakpoint arithmetic can leave
        # ~1 ulp of dust past the pulse support
        local = min(max(t - edge, 0.0), shape.duration_s)
        return pulse_sensitivity(shape, local)

    if t <= b[1]:
        return ramp(b[0])
    if t <= b[2]:
        return 1.0
    if t <= b[3]:
        return 1.0 - ramp(b[2])
    if t <= b[4]:
        return 0.0
    if t <= b[5]:
        return -ramp(b[4])
    if t <= b[6]:
        return -1.0
    return -1.0 + ramp(b[6])


def net_area(timing: SequenceTiming) -> float:
    """Integral of g(t) over the sequence, in seconds.

    Each lobe carries the area of its plateau plus one pulse, whatever the
    ramp shape: the falling ramp 1 - ramp(t) gives back exactly what the
    rising ramp left out. The sum of the +(b3 - b1) and -(b7 - b5) lobes,
    taken from the epoch edges, is zero up to their rounding.
    """
    b = timing.breakpoints
    return (b[3] - b[1]) - (b[7] - b[5])


def scale_factor(timing: SequenceTiming, constants: PhysicalConstants) -> float:
    """Scale factor in s^2/m: k_eff times the time-weighted area of g(t).

    The second lobe is the first one negated and shifted by
    2 pulse + separation + free evolution, so the weighted area is that
    shift times the lobe area pulse + separation. It is computed from the
    durations, so the start time costs no digits. Returned as a positive
    magnitude; measured fringe fits carry the sign convention of the
    readout instead.
    """
    tau, sep = timing.pulse_s, timing.separation_s
    lobe_area = tau + sep
    lobe_shift = timing.free_evolution_s + 2.0 * tau + sep
    return constants.k_eff_per_m * lobe_area * lobe_shift


def phase_signal(
    g_m_s2: float,
    alpha_rad_s2: float,
    scale_s2_per_m: float,
    constants: PhysicalConstants,
) -> float:
    """Interferometer phase for acceleration g under chirp rate alpha.

    phi = (g - alpha/k_eff) * S; the chirp term removes the phase that
    the frequency ramp writes onto the atoms.
    """
    return (g_m_s2 - alpha_rad_s2 / constants.k_eff_per_m) * scale_s2_per_m
