"""Drive envelopes and gate schedules.

Times are seconds and amplitudes are angular frequencies (rad/s) throughout;
the CLI layer converts from ns / MHz. Envelope values are zero outside
[0, duration], so segments can be placed on a common timeline by start time.

The truncated Gaussian uses the zero-start convention: the value at the
truncation edges is subtracted and the result rescaled so the peak value is
preserved. That keeps drives continuous at segment boundaries, which the
propagators rely on (a value jump would silently degrade the integrator
order).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .errors import BadTransitionError, OutOfRangeError, ZeroAreaError

Transition = Literal["ge", "ef", "two_photon", "raman"]

QUBIT_TRANSITIONS = ("ge", "ef")
CAVITY_TRANSITIONS = ("two_photon", "raman")

#: default sigma of one half of the two-half qubit gate (60 ns half = 4 sigma)
DEFAULT_HALF_SIGMA = 15e-9
#: default ramp time of flat-top cavity pulses
DEFAULT_RAMP = 10e-9
#: largest truncated-Gaussian total / sigma: quadrature holds the area to
#: 2e-13 up to 4000 and misses the peak from about 7700 on
MAX_TOTAL_PER_SIGMA = 1e3
#: edges closer than this fraction of a schedule's duration are one edge: far
#: above the rounding of start + duration sums, far below any real pulse
EDGE_TOL = 1e-9


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian truncated to ``total`` (default 4 sigma), shifted to zero ends."""

    sigma: float
    peak_amplitude: float = 1.0
    total: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.sigma <= 0:
            raise OutOfRangeError(f"sigma must be positive, got {self.sigma}")
        if self.total is None:
            object.__setattr__(self, "total", 4.0 * self.sigma)
        if self.total <= 0:
            raise OutOfRangeError(f"total must be positive, got {self.total}")
        if not self.total / self.sigma <= MAX_TOTAL_PER_SIGMA:
            raise OutOfRangeError(f"total / sigma = {self.total / self.sigma:.3g} "
                                  f"exceeds {MAX_TOTAL_PER_SIGMA:g}")

    @property
    def duration(self) -> float:
        return self.total

    def _edge(self) -> float:
        c = 0.5 * self.total
        return float(np.exp(-0.5 * (c / self.sigma) ** 2))

    def shape(self, t):
        t = np.asarray(t, dtype=float)
        c = 0.5 * self.total
        edge = self._edge()
        raw = np.exp(-0.5 * ((t - c) / self.sigma) ** 2)
        inside = (t >= 0) & (t <= self.total)
        return np.where(inside, (raw - edge) / (1.0 - edge), 0.0)


@dataclass(frozen=True)
class SquareWithRamps:
    """Flat-top pulse with sine-squared ramps of ``ramp`` on both ends; with
    ``ramp = 0`` it is a rectangle."""

    flat: float
    ramp: float = DEFAULT_RAMP
    peak_amplitude: float = 1.0

    def __post_init__(self):
        if self.flat < 0:
            raise OutOfRangeError(f"flat duration must be >= 0, got {self.flat}")
        if self.ramp < 0:
            raise OutOfRangeError(f"ramp duration must be >= 0, got {self.ramp}")
        if self.flat == 0 and self.ramp == 0:
            raise OutOfRangeError("pulse has zero duration")

    @property
    def duration(self) -> float:
        return self.flat + 2.0 * self.ramp

    def shape(self, t):
        t = np.asarray(t, dtype=float)
        total = self.duration
        if self.ramp == 0:
            return np.where((t >= 0) & (t <= total), 1.0, 0.0)
        up = np.sin(0.5 * np.pi * np.clip(t, 0.0, self.ramp) / self.ramp) ** 2
        down = np.sin(0.5 * np.pi * np.clip(total - t, 0.0, self.ramp) / self.ramp) ** 2
        inside = (t >= 0) & (t <= total)
        return np.where(inside, np.minimum(up, down), 0.0)


Envelope = Union[TruncatedGaussian, SquareWithRamps]


def sample(env: Envelope, t):
    """Envelope value peak_amplitude * shape(t); zero outside [0, duration]."""
    return env.peak_amplitude * env.shape(t)


def area(env: Envelope) -> float:
    """integral of sample over [0, duration].

    A flat-top's is closed form, peak_amplitude * (flat + ramp): each sin^2
    ramp integrates to ramp/2. A truncated Gaussian's is adaptive quadrature
    with relative error held below 1e-9 (the synthesis contracts assume
    exact pulse areas at that level).
    """
    if env.peak_amplitude == 0:
        return 0.0
    if isinstance(env, SquareWithRamps):
        return env.peak_amplitude * (env.flat + env.ramp)
    from scipy.integrate import quad
    val, err = quad(
        lambda x: float(env.shape(x)), 0.0, env.duration, epsabs=0.0, epsrel=1e-11, limit=200
    )
    return env.peak_amplitude * val


def normalize_to_area(env: Envelope, target: float) -> Envelope:
    """Rescale the peak so the pulse area equals ``target`` exactly."""
    a = area(env)
    if a == 0.0:
        raise ZeroAreaError("cannot normalize an envelope with zero area")
    return dataclasses.replace(env, peak_amplitude=env.peak_amplitude * target / a)


@dataclass(frozen=True)
class PulseSegment:
    """One drive tone: an envelope on a named transition with a phase.

    ``start`` places the segment on the schedule timeline. ``phase`` is the
    drive phase phi in Omega(t) e^{i phi}|lower><upper| + h.c.
    """

    envelope: Envelope
    transition: Transition
    phase: float
    start: float = 0.0

    def __post_init__(self):
        if self.transition not in QUBIT_TRANSITIONS + CAVITY_TRANSITIONS:
            raise BadTransitionError(f"unknown transition {self.transition!r}")
        if self.start < 0:
            raise OutOfRangeError(f"segment start must be >= 0, got {self.start}")

    @property
    def end(self) -> float:
        return self.start + self.envelope.duration

    def waveform(self, t):
        """Complex drive amplitude at absolute time t."""
        local = np.asarray(t, dtype=float) - self.start
        return sample(self.envelope, local).astype(complex)


@dataclass(frozen=True)
class GateSchedule:
    """An ordered collection of pulse segments realizing one gate."""

    segments: tuple[PulseSegment, ...]
    duration: float
    label: str = ""

    def __post_init__(self):
        if self.duration <= 0:
            raise OutOfRangeError("schedule duration must be positive")
        for seg in self.segments:
            if seg.end > self.duration * (1.0 + EDGE_TOL):
                raise OutOfRangeError(
                    f"segment on {seg.transition} ends at {seg.end}, "
                    f"beyond schedule duration {self.duration}"
                )

    def boundaries(self) -> np.ndarray:
        """Sorted unique segment start/end times and flat-top ramp/flat
        edges, including 0 and duration.

        Integrators split the timeline here so envelope kinks never fall
        inside a step: the sin^2 ramp's second derivative jumps where the
        flat top begins and ends.
        """
        ts = {0.0, self.duration}
        for seg in self.segments:
            edges = [seg.start, seg.end]
            env = seg.envelope
            if isinstance(env, SquareWithRamps) and env.ramp > 0:
                edges += [seg.start + env.ramp, seg.start + env.ramp + env.flat]
            ts.update(min(t, self.duration) for t in edges)
        return np.array(sorted(ts))
