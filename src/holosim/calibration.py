"""Fitting procedures for device characterization traces.

Four fits, each a least-squares round trip against a closed-form model:

  - rate-equation decay: globally fit (P_g, P_e, P_f)(t) with exp(G t) p0,
    G the population rate matrix of the relaxation cascade
  - Ramsey: exponentially damped double (or single) sinusoid
  - Rabi: damped sinusoid, reported as an angular frequency
  - chevron: Omega_R = sqrt((delta - center)^2 + (2 g)^2)

All initializations are deterministic (discrete-spectrum peaks, fixed
multi-start lists), so identical inputs give identical fits.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from . import model as md
from .errors import (
    DimensionMismatchError,
    FitDivergenceError,
    IoError,
    OutOfRangeError,
    write_json,
    write_text,
)

TWO_PI = 2.0 * math.pi


# ---- traces ----

@dataclass(frozen=True)
class Trace:
    """Time-ordered samples of one measured (or simulated) observable."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.shape != v.shape:
            raise DimensionMismatchError(
                f"times {t.shape} and values {v.shape} must be equal 1-d arrays"
            )
        if t.size < 8:
            raise OutOfRangeError(f"need at least 8 samples, got {t.size}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise OutOfRangeError("times and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise OutOfRangeError("times must be strictly increasing")

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])

    def to_csv(self, path) -> None:
        lines = ["time_s,value"]
        for t, v in zip(self.times, self.values):
            lines.append(f"{float(t)!r},{float(v)!r}")
        write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, label: str = "", detrend_degree: int | None = None):
        """Read (time_s, value) rows; optionally subtract a polynomial trend.

        The detrend flag mirrors the background-subtraction step used on
        hardware traces; simulated traces never need it. A cell that does not
        parse as a finite number raises IoError naming the file.
        """
        data = np.genfromtxt(path, delimiter=",", names=True)
        times = np.atleast_1d(data["time_s"]).astype(float)
        values = np.atleast_1d(data["value"]).astype(float)
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise IoError(f"trace {path} has a non-numeric or non-finite cell")
        if detrend_degree is not None:
            if detrend_degree < 0:
                raise OutOfRangeError(
                    f"detrend degree must be >= 0, got {detrend_degree}"
                )
            coeffs = np.polyfit(times, values, detrend_degree)
            values = values - np.polyval(coeffs, times)
        return cls(times=times, values=values, label=label)


@dataclass(frozen=True)
class ChevronPoint:
    """Fitted Rabi frequency at one drive-frequency offset (both rad/s)."""

    offset: float
    omega_r: float

    def __post_init__(self):
        if self.omega_r <= 0:
            raise OutOfRangeError(f"omega_r must be positive, got {self.omega_r}")


# ---- shared fit plumbing ----

def _covariance(fit) -> np.ndarray:
    """Gauss-Newton parameter covariance s^2 (J^T J)^+ of a least_squares fit."""
    dof = max(fit.fun.size - fit.x.size, 1)
    s2 = 2.0 * fit.cost / dof
    return s2 * np.linalg.pinv(fit.jac.T @ fit.jac)


def _fit_payload(fit) -> dict:
    """Every field of a fit result, the covariance as nested lists."""
    payload = {f.name: getattr(fit, f.name) for f in dataclasses.fields(fit)}
    payload["covariance"] = fit.covariance.tolist()
    return payload


# ---- rate-equation relaxation fit ----

@dataclass(frozen=True)
class RateFit:
    """Relaxation rates (1/s) of the g-e-f cascade and fit diagnostics."""

    gamma_eg: float
    gamma_fe: float
    gamma_fg: float
    residual_rms: float
    covariance: np.ndarray

    def to_json(self, path) -> None:
        write_json(path, _fit_payload(self))


def rate_populations(rates, times, p0) -> np.ndarray:
    """(3, n) populations exp(G t) p0 for G built from three decay rates."""
    g = md.rate_matrix(md.NoiseModel(
        gamma_eg=rates[0], gamma_fe=rates[1], gamma_fg=rates[2]
    ))
    t0 = times[0]
    cols = [expm(g * (t - t0)) @ p0 for t in times]
    return np.stack(cols, axis=1)


def fit_rate_equation(trace_g: Trace, trace_e: Trace, trace_f: Trace) -> RateFit:
    """Global fit of three aligned population traces to the decay cascade.

    The initial populations are read off the first sample; the three rates
    are bounded below by zero, so the negligible upward transitions stay
    out of the model.
    """
    if not (
        np.array_equal(trace_g.times, trace_e.times)
        and np.array_equal(trace_g.times, trace_f.times)
    ):
        raise DimensionMismatchError("population traces must share one time axis")
    times = trace_g.times
    data = np.stack([trace_g.values, trace_e.values, trace_f.values])
    p0 = data[:, 0]

    def residuals(x):
        return (rate_populations(x, times, p0) - data).reshape(-1)

    scale = 1.0 / max(times[-1] - times[0], 1e-12)
    fit = least_squares(
        residuals,
        [scale, scale, 0.1 * scale],
        bounds=([0.0, 0.0, 0.0], [np.inf, np.inf, np.inf]),
    )
    if not fit.success:
        raise FitDivergenceError(f"rate-equation fit did not converge: {fit.message}")
    return RateFit(
        gamma_eg=float(fit.x[0]),
        gamma_fe=float(fit.x[1]),
        gamma_fg=float(fit.x[2]),
        residual_rms=float(np.sqrt(np.mean(fit.fun**2))),
        covariance=_covariance(fit),
    )


# ---- Ramsey fit ----

@dataclass(frozen=True)
class RamseyFit:
    """Damped double-sinusoid parameters; f1 <= f2 in Hz, T2* in seconds."""

    t2_star: float
    f1: float
    f2: float
    a1: float
    a2: float
    phi1: float
    phi2: float
    offset: float
    single_tone: bool
    residual_rms: float
    covariance: np.ndarray

    def to_json(self, path) -> None:
        payload = _fit_payload(self)
        if math.isinf(self.t2_star):
            payload["t2_star"] = None
        write_json(path, payload)


def _spectral_peaks(trace: Trace):
    """Frequencies (Hz) of the two largest non-DC discrete-spectrum peaks.

    Returns (f_main, f_second, relative_second_magnitude); the second
    frequency is None when the spectrum has no second local peak.
    """
    values = trace.values - np.mean(trace.values)
    dt = float(np.mean(np.diff(trace.times)))
    mags = np.abs(np.fft.rfft(values))
    freqs = np.fft.rfftfreq(trace.times.size, dt)
    mags[0] = 0.0
    main = int(np.argmax(mags))
    if mags[main] == 0.0:
        raise FitDivergenceError("trace has no oscillatory component")
    # suppress the main peak and its shoulders, then look again
    masked = mags.copy()
    for idx in range(max(main - 1, 0), min(main + 2, mags.size)):
        masked[idx] = 0.0
    second = int(np.argmax(masked))
    if masked[second] == 0.0:
        return float(freqs[main]), None, 0.0
    return (
        float(freqs[main]),
        float(freqs[second]),
        float(masked[second] / mags[main]),
    )


def _peak_frequency_and_phase(trace: Trace):
    """Sub-bin peak frequency (Hz) and the phase of its complex coefficient.

    The discrete peak is refined by parabolic interpolation of the log
    magnitudes of its three bins. A cosine fit has local minima roughly one
    spectral bin apart in frequency, so starting Gauss-Newton from the raw
    bin center (up to half a bin off) with an arbitrary phase regularly
    lands in the wrong one; the refined frequency plus the spectral phase
    start it inside the right basin.
    """
    values = trace.values - np.mean(trace.values)
    dt = float(np.mean(np.diff(trace.times)))
    spec = np.fft.rfft(values)
    mags = np.abs(spec)
    mags[0] = 0.0
    main = int(np.argmax(mags))
    if mags[main] == 0.0:
        raise FitDivergenceError("trace has no oscillatory component")
    delta = 0.0
    if 1 <= main < mags.size - 1 and mags[main - 1] > 0 and mags[main + 1] > 0:
        la, lb, lc = np.log(mags[main - 1 : main + 2])
        denom = la - 2.0 * lb + lc
        if abs(denom) > 1e-12:
            delta = float(np.clip(0.5 * (la - lc) / denom, -0.5, 0.5))
    f_peak = (main + delta) / (dt * trace.values.size)
    return float(f_peak), float(np.angle(spec[main]))


def _ramsey_model(x, t):
    y0, rate, a1, f1, p1, a2, f2, p2 = x
    decay = np.exp(-rate * t)
    return y0 + decay * (
        a1 * np.cos(TWO_PI * f1 * t + p1) + a2 * np.cos(TWO_PI * f2 * t + p2)
    )


SECOND_TONE_FLOOR = 0.05


def fit_ramsey(trace: Trace) -> RamseyFit:
    """Fit y0 + e^{-t/T2*} [A1 cos(2 pi f1 t + p1) + A2 cos(2 pi f2 t + p2)].

    Frequencies start from the two dominant spectral peaks; when the second
    peak is below SECOND_TONE_FLOOR of the main one, the fit falls back
    to a single tone and reports A2 = 0. The decay is parameterized by the
    rate 1/T2*, so undamped data fits cleanly at rate 0.
    """
    f_main, f_second, rel = _spectral_peaks(trace)
    two_tone = f_second is not None and rel >= SECOND_TONE_FLOOR
    f_lo = f_main if not two_tone else min(f_main, f_second)
    if trace.span * f_lo < 2.0:
        raise FitDivergenceError(
            f"trace spans {trace.span * f_lo:.2f} periods of the slower tone; "
            "need at least 2"
        )

    t = trace.times - trace.times[0]
    y = trace.values
    y0 = float(np.mean(y))
    amp = float(np.ptp(y)) / 2.0
    rate0 = 1.0 / max(trace.span, 1e-12)
    starts = []
    if two_tone:
        fa, fb = sorted((f_main, f_second))
        for r0 in (0.0, rate0, 3.0 * rate0):
            starts.append([y0, r0, amp / 2.0, fa, 0.0, amp / 2.0, fb, 0.0])
    else:
        for r0 in (0.0, rate0, 3.0 * rate0):
            starts.append([y0, r0, amp, f_main, 0.0, 0.0, 2.0 * f_main, 0.0])

    def residuals(x):
        return _ramsey_model(x, t) - y

    nyquist = 0.5 / float(np.mean(np.diff(trace.times)))
    lower = [-np.inf, 0.0, -np.inf, 0.0, -TWO_PI, -np.inf, 0.0, -TWO_PI]
    upper = [np.inf, np.inf, np.inf, nyquist, TWO_PI, np.inf, nyquist, TWO_PI]
    best = None
    for x0 in starts:
        fit = least_squares(residuals, x0, bounds=(lower, upper))
        if fit.success and (best is None or fit.cost < best.cost):
            best = fit
    if best is None:
        raise FitDivergenceError("Ramsey fit did not converge from any start")

    y0, rate, a1, f1, p1, a2, f2, p2 = best.x
    if abs(a2) > abs(a1):
        a1, f1, p1, a2, f2, p2 = a2, f2, p2, a1, f1, p1
    # spectral leakage of a lone tone can fake a second peak; the fit then
    # drives its amplitude to zero, which settles the classification
    single = bool((not two_tone) or abs(a2) < 1e-3 * abs(a1))
    if single:
        a2, f2, p2 = 0.0, 0.0, 0.0
    elif f2 < f1:
        a1, f1, p1, a2, f2, p2 = a2, f2, p2, a1, f1, p1
    return RamseyFit(
        t2_star=float(1.0 / rate) if rate > 0 else math.inf,
        f1=float(f1),
        f2=float(f2),
        a1=float(a1),
        a2=float(a2),
        phi1=float(p1),
        phi2=float(p2),
        offset=float(y0),
        single_tone=single,
        residual_rms=float(np.sqrt(np.mean(best.fun**2))),
        covariance=_covariance(best),
    )


# ---- Rabi fit ----

@dataclass(frozen=True)
class RabiFit:
    """Damped-sinusoid fit; omega_r is the angular frequency (rad/s)."""

    omega_r: float
    amplitude: float
    offset: float
    phase: float
    decay_rate: float
    residual_rms: float
    covariance: np.ndarray

    def to_json(self, path) -> None:
        write_json(path, _fit_payload(self))


def fit_rabi(trace: Trace) -> RabiFit:
    """Fit y0 + A e^{-r t} cos(Omega t + phi) and return Omega as rad/s."""
    f_main, p_main = _peak_frequency_and_phase(trace)
    if trace.span * f_main < 1.5:
        raise FitDivergenceError(
            f"trace spans {trace.span * f_main:.2f} oscillation periods; "
            "need at least 1.5"
        )
    t = trace.times - trace.times[0]
    y = trace.values
    amp = float(np.ptp(y)) / 2.0
    x0 = [float(np.mean(y)), amp, TWO_PI * f_main, p_main, 0.0]

    def residuals(x):
        y0, a, w, p, r = x
        return y0 + a * np.exp(-r * t) * np.cos(w * t + p) - y

    nyquist_w = math.pi / float(np.mean(np.diff(trace.times)))
    fit = least_squares(
        residuals,
        x0,
        bounds=(
            [-np.inf, 0.0, 0.0, -TWO_PI, 0.0],
            [np.inf, np.inf, nyquist_w, TWO_PI, np.inf],
        ),
    )
    if not fit.success:
        raise FitDivergenceError(f"Rabi fit did not converge: {fit.message}")
    y0, a, w, p, r = (float(v) for v in fit.x)
    return RabiFit(
        omega_r=w,
        amplitude=a,
        offset=y0,
        phase=p,
        decay_rate=r,
        residual_rms=float(np.sqrt(np.mean(fit.fun**2))),
        covariance=_covariance(fit),
    )


# ---- chevron fit ----

@dataclass(frozen=True)
class ChevronFit:
    """Hyperbola fit Omega_R = sqrt((delta - center)^2 + (2 g)^2)."""

    center: float
    g: float
    residual_rms: float
    covariance: np.ndarray

    def to_json(self, path) -> None:
        write_json(path, _fit_payload(self))


def chevron_omega(offsets, center: float, g: float):
    return np.sqrt((np.asarray(offsets, dtype=float) - center) ** 2 + (2.0 * g) ** 2)


def fit_chevron(points) -> ChevronFit:
    """Fit the Rabi-frequency hyperbola over drive-frequency offsets."""
    points = list(points)
    if len(points) < 5:
        raise FitDivergenceError(f"need at least 5 chevron points, got {len(points)}")
    offsets = np.array([p.offset for p in points])
    omegas = np.array([p.omega_r for p in points])
    if offsets.min() >= 0.0 or offsets.max() <= 0.0:
        raise FitDivergenceError("chevron points must span both detuning signs")
    center0 = float(offsets[np.argmin(omegas)])
    g0 = float(omegas.min()) / 2.0

    def residuals(x):
        return chevron_omega(offsets, x[0], x[1]) - omegas

    fit = least_squares(
        residuals, [center0, max(g0, 1e-3)],
        bounds=([-np.inf, 0.0], [np.inf, np.inf]),
    )
    if not fit.success:
        raise FitDivergenceError(f"chevron fit did not converge: {fit.message}")
    return ChevronFit(
        center=float(fit.x[0]),
        g=float(fit.x[1]),
        residual_rms=float(np.sqrt(np.mean(fit.fun**2))),
        covariance=_covariance(fit),
    )
