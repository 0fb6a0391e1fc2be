"""Fitting procedures for device characterization traces.

Four fits, each a least-squares round trip against an exact model:

  - rate-equation decay: globally fit (P_g, P_e, P_f)(t) with the closed-form
    solution of the g-e-f relaxation cascade
  - Ramsey: exponentially damped double (or single) sinusoid
  - Rabi: damped sinusoid, reported as an angular frequency
  - chevron: Omega_R = sqrt((delta - center)^2 + (2 g)^2)

Ramsey and Rabi share one variable-projection fit (Golub & Pereyra, Inverse
Problems 19, R1 (2003)): only the decay rate and the tone frequencies are
searched; the offset and the tone quadratures are solved linearly at every
step. Each fit starts once from a deterministic guess (sub-bin spectral
peaks, the integrated rate equations), so identical inputs give identical fits.

Every fit works in normalized units (time as (t - t0) / span, values over their
largest magnitude) and maps parameters and covariance back by the chain rule,
so none depends on the time unit or the value scale. All share one solver,
``least_squares``: a bounded Levenberg-Marquardt (Moré, LNM 630 (1978)) on a
forward-difference Jacobian, each parameter in units of its start value; a
parameter on a bound whose gradient points outward is held there. It stops on
relative rules only: a step below 1e-8 of the parameters (taken, then the
search ends) or a step that gains less than 1e-14 of the cost.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

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
#: largest detrend polynomial degree: below Trace's 8-sample minimum, so the
#: trend never interpolates the samples
MAX_DETREND_DEGREE = 7
#: largest magnitude of a number in a calibration CSV: far beyond any time
#: (s), frequency (rad/s) or signal, and small enough that no fit's squared
#: residuals, Jacobian products or covariance overflow
MAX_CSV_MAGNITUDE = 1e60


#: least_squares: relative stopping rules, iteration cap, Marquardt damping
#: (initial and floor) and forward-difference step in unit-scale coordinates
_XTOL, _FTOL, _MAX_TRIALS = 1e-8, 1e-14, 200
_DAMPING, _MIN_DAMPING = 1e-6, 1e-12
_FD_STEP = 2.0**-26  # the square root of the float64 machine epsilon


class _Solution:  # a least_squares result: x, fun, jac, nfev, success, message
    def __init__(self, **fields):
        self.__dict__.update(fields)


def least_squares(fun, x0, lower, upper) -> _Solution:
    """Minimize |fun(x)|^2 over lower <= x <= upper from x0. Every fit calls it
    through this name, which perfbench/trace.py wraps to count ``nfev``: every
    call of ``fun``, Jacobian columns included. FitDivergenceError on a
    non-finite cost at x0 or Jacobian; ``success`` is False after _MAX_TRIALS."""
    x0 = np.asarray(x0, dtype=float)
    unit = np.where(x0 != 0.0, np.abs(x0), 1.0)
    lo, hi = lower / unit, upper / unit
    nfev = 0

    def evaluate(z):
        nonlocal nfev
        nfev += 1
        r = np.asarray(fun(z * unit), dtype=float)
        return r, float(r @ r)

    def jacobian(z, r):
        h = _FD_STEP * np.maximum(np.abs(z), 1.0)
        jac = np.empty((r.size, z.size))
        for i, step in enumerate(np.where(z + h > hi, -h, h)):
            zi = z.copy()
            zi[i] += step
            jac[:, i] = (evaluate(zi)[0] - r) / (zi[i] - z[i])
        if not np.isfinite(jac).all():
            raise FitDivergenceError("least-squares Jacobian is not finite")
        return jac

    z = x0 / unit
    r, cost = evaluate(z)
    if not math.isfinite(cost):
        raise FitDivergenceError("least-squares cost is not finite at the start point")
    jac, damping, converged = jacobian(z, r), _DAMPING, False
    for _ in range(_MAX_TRIALS):
        # Marquardt-scaled normal equations; a held parameter's step is 0
        grad = jac.T @ r
        held = ((z <= lo) & (grad > 0)) | ((z >= hi) & (grad < 0))
        a = jac.T @ jac
        if held.any():
            a[held] = a[:, held] = 0.0
        diag = a.diagonal()
        a.flat[:: z.size + 1] = diag + damping * np.where(diag > 0.0, diag, 1.0)
        trial = np.clip(z - np.linalg.solve(a, np.where(held, 0.0, grad)), lo, hi)
        small = np.linalg.norm(trial - z) <= _XTOL * (np.linalg.norm(z) + _XTOL)
        r_new, cost_new = evaluate(trial) if np.isfinite(trial).all() else (r, math.inf)
        if cost_new < cost:
            converged = small or cost - cost_new <= _FTOL * cost
            z, r, cost = trial, r_new, cost_new
            damping = max(damping / 10.0, _MIN_DAMPING)
            if not small:  # within _XTOL, the Jacobian of the last point stands
                jac = jacobian(z, r)
        else:
            converged = small
            damping = max(10.0 * damping, _DAMPING)
        if converged:
            break
    return _Solution(x=np.clip(z * unit, lower, upper), fun=r, jac=jac / unit, nfev=nfev,
                     success=converged, message="converged" if converged
                     else f"no convergence in {_MAX_TRIALS} steps")


def __getattr__(name):
    # scipy's expm on demand, for perfbench/trace.py to wrap under this name
    if name == "expm":
        from scipy.linalg import expm
        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        """Read a ``time_s,value`` CSV (see read_csv_columns); optionally
        subtract a least-squares polynomial trend of degree 0 to
        MAX_DETREND_DEGREE.

        The trend is fitted and evaluated in the normalized time
        s = (t - t0) / span in [0, 1], so no power of a time underflows or
        overflows whatever the time unit; t is first divided by its largest
        magnitude, so the difference cannot overflow either. The detrend flag
        mirrors the background-subtraction step used on hardware traces;
        simulated traces never need it.
        """
        if detrend_degree is not None and not 0 <= detrend_degree <= MAX_DETREND_DEGREE:
            raise OutOfRangeError(
                f"detrend degree must be in [0, {MAX_DETREND_DEGREE}], got {detrend_degree}"
            )
        trace = cls(*read_csv_columns(path, ("time_s", "value")), label=label)
        if detrend_degree is None:
            return trace
        u = trace.times / np.max(np.abs(trace.times))
        s = (u - u[0]) / (u[-1] - u[0])
        try:
            coeffs = np.polyfit(s, trace.values, detrend_degree)
        except np.linalg.LinAlgError as exc:
            raise FitDivergenceError(f"cannot detrend {path}: {exc}") from exc
        return dataclasses.replace(trace, values=trace.values - np.polyval(coeffs, s))


def read_csv_columns(path, header: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """The two float columns of a CSV file: a header line naming them, then
    one ``x,y`` row of two finite numbers of magnitude at most
    MAX_CSV_MAGNITUDE per line; blank lines are skipped.

    Traces (``time_s,value``) and chevron points
    (``offset_rad_s,omega_r_rad_s``) share this format. An unreadable file,
    a missing header, no data row, or a row that is not two such numbers
    raises IoError naming the file and the line.
    """
    try:
        with open(path) as fh:
            lines = [(n, text) for n, ln in enumerate(fh, 1) if (text := ln.strip())]
    except (OSError, ValueError) as exc:  # ValueError: bytes not UTF-8, a NUL in the path
        raise IoError(f"cannot read {path}: {exc}") from exc
    expected = ",".join(header)
    if not lines:
        raise IoError(f"{path} is empty; expected the header {expected!r}")
    n, first = lines[0]
    if [cell.strip() for cell in first.split(",")] != list(header):
        raise IoError(f"{path} line {n}: expected the header {expected!r}, got {first!r}")
    if len(lines) == 1:
        raise IoError(f"{path} has a header and no data rows")
    try:  # numpy parses each cell as float() does, all rows in one call
        data = np.array([ln.split(",") for _, ln in lines[1:]], dtype=float)
    except ValueError:  # a cell float() refuses, or a ragged row
        data = np.empty((0, 0))
    if data.shape[1:] == (2,) and np.all(np.abs(data) <= MAX_CSV_MAGNITUDE):
        return tuple(data.T.copy())
    rows = []  # a row by row pass names the first bad line
    for n, ln in lines[1:]:
        try:
            row = [float(cell) for cell in ln.split(",")]
        except ValueError:
            row = []
        if len(row) != 2 or not abs(row[0]) <= MAX_CSV_MAGNITUDE >= abs(row[1]):
            raise IoError(f"{path} line {n}: expected two finite numbers of magnitude "
                          f"at most {MAX_CSV_MAGNITUDE:g}, got {ln!r}")
        rows.append(row)
    return tuple(np.array(rows).T.copy())


@dataclass(frozen=True)
class ChevronPoint:
    """Fitted Rabi frequency at one drive-frequency offset (both rad/s)."""

    offset: float
    omega_r: float

    def __post_init__(self):
        if self.omega_r <= 0:
            raise OutOfRangeError(f"omega_r must be positive, got {self.omega_r}")


# ---- shared fit plumbing ----

def _covariance(jac: np.ndarray, residuals: np.ndarray, units) -> np.ndarray:
    """Gauss-Newton parameter covariance s^2 (J^T J)^+ at one parameter point,
    from a fit's normalized units to trace units: parameter k scales by units[k].

    FitDivergenceError when it is not finite: a span or value scale whose square overflows.
    """
    dof = max(residuals.size - jac.shape[1], 1)
    s2 = float(residuals @ residuals) / dof
    with np.errstate(over="ignore", invalid="ignore"):
        cov = s2 * np.linalg.pinv(jac.T @ jac) * np.outer(units, units)
    if not np.isfinite(cov).all():
        raise FitDivergenceError("fit covariance is not finite in trace units")
    return cov


def _magnitude(values) -> float:
    """Largest magnitude in ``values``, a fit's unit of value (1 if all are 0)."""
    return float(np.max(np.abs(values))) or 1.0


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
    """(3, n) populations (P_g, P_e, P_f) of the decay cascade, from p0 at times[0].

    The cascade's rate matrix is upper triangular, so the solution is closed
    form: P_f decays at b = gamma_fe + gamma_fg, P_e decays at a = gamma_eg
    and is fed at gamma_fe P_f through the divided difference
    D = (e^{-a t} - e^{-b t}) / (b - a) = t e^{-min(a,b) t} expm1(x) / x with
    x = -|a - b| t (1 at x = 0), which is exact at a = b and never overflows;
    P_g holds the rest of the conserved total.
    """
    noise = md.NoiseModel(gamma_eg=rates[0], gamma_fe=rates[1], gamma_fg=rates[2])
    a = noise.gamma_eg
    b = noise.gamma_fe + noise.gamma_fg
    t = np.asarray(times, dtype=float) - times[0]
    p0 = np.asarray(p0, dtype=float)
    p_f = p0[2] * np.exp(-b * t)
    x = -abs(a - b) * t
    feed = t * np.exp(-min(a, b) * t) * np.divide(np.expm1(x), x, out=np.ones_like(x), where=x < 0)
    p_e = p0[1] * np.exp(-a * t) + noise.gamma_fe * p0[2] * feed
    return np.stack([p0.sum() - p_e - p_f, p_e, p_f])


def fit_rate_equation(trace_g: Trace, trace_e: Trace, trace_f: Trace) -> RateFit:
    """Global fit of three aligned population traces to the decay cascade.

    The initial populations are read off the first sample; the three rates
    are bounded below by zero, so the negligible upward transitions stay
    out of the model. The search runs in rates per span. Covariance order:
    gamma_eg, gamma_fe, gamma_fg.
    """
    if not (
        np.array_equal(trace_g.times, trace_e.times)
        and np.array_equal(trace_g.times, trace_f.times)
    ):
        raise DimensionMismatchError("population traces must share one time axis")
    span = trace_g.span
    tau = (trace_g.times - trace_g.times[0]) / span
    data = np.stack([trace_g.values, trace_e.values, trace_f.values])
    scale = _magnitude(data)
    data = data / scale
    p0 = data[:, 0]

    def residuals(x):
        return (rate_populations(x, tau, p0) - data).reshape(-1)

    # start from the rate equations integrated over s by trapezoids, linear in the
    # rate matrix R: P(1) - P(0) = R int P, P(1) - int P = R int s P (floor 0.1)
    w = np.diff(tau) / 2.0
    m0, m1 = ((v[:, 1:] + v[:, :-1]) @ w for v in (data, tau * data))
    design = np.vstack([[[m[1], 0.0, m[2]], [-m[1], m[2], 0.0], [0.0, -m[2], -m[2]]]
                        for m in (m0, m1)])
    moments = np.concatenate([data[:, -1] - data[:, 0], data[:, -1] - m0])
    start = np.maximum(np.linalg.lstsq(design, moments, rcond=None)[0], 0.1)
    fit = least_squares(residuals, start, [0.0] * 3, [np.inf] * 3)
    if not fit.success:
        raise FitDivergenceError(f"rate-equation fit did not converge: {fit.message}")
    return RateFit(
        gamma_eg=float(fit.x[0] / span),
        gamma_fe=float(fit.x[1] / span),
        gamma_fg=float(fit.x[2] / span),
        residual_rms=scale * float(np.sqrt(np.mean(fit.fun**2))),
        covariance=_covariance(fit.jac, fit.fun, np.full(3, 1.0 / span)),
    )


# ---- damped tones: the shared Ramsey / Rabi core ----

def _spectral_peaks(trace: Trace, n: int):
    """Sub-bin frequencies (Hz) and magnitudes of the n largest spectral peaks.

    Peaks are local maxima of the non-DC discrete-spectrum magnitude, largest
    first (fewer when the spectrum has fewer). Each is refined by parabolic
    interpolation of the log magnitudes of its three bins: a sinusoid fit has
    local minima roughly one spectral bin apart in frequency, so a start from
    a raw bin center (up to half a bin off) regularly lands in the wrong one.
    """
    mags = np.abs(np.fft.rfft(trace.values - np.mean(trace.values)))
    mags[0] = 0.0
    if not mags.any():
        raise FitDivergenceError("trace has no oscillatory component")
    right = np.append(mags[2:], 0.0)
    peaks = 1 + np.flatnonzero((mags[1:] > mags[:-1]) & (mags[1:] >= right))
    peaks = peaks[np.argsort(-mags[peaks], kind="stable")[:n]]
    freqs = []
    for i in peaks:
        delta = 0.0
        if i < mags.size - 1 and mags[i - 1] > 0 and mags[i + 1] > 0:
            la, lb, lc = np.log(mags[i - 1 : i + 2])
            denom = la - 2.0 * lb + lc
            if abs(denom) > 1e-12:
                delta = float(np.clip(0.5 * (la - lc) / denom, -0.5, 0.5))
        freqs.append(i + delta)
    dt = float(np.mean(np.diff(trace.times)))
    return np.array(freqs) / (dt * trace.values.size), mags[peaks]


def _fit_damped_tones(trace: Trace, freqs):
    """Variable-projection fit of y0 + e^{-r t} sum_k A_k cos(2 pi f_k t + phi_k).

    Only r and the f_k are searched, in units of the trace span, starting
    from ``freqs`` and one e-fold per span; at every step the offset and the
    quadratures (A cos phi, -A sin phi) of the values over their largest
    magnitude are the linear least-squares solution. Returns (y0, r, amplitudes,
    frequencies, phases, residual rms, covariance) in trace units, t from the first
    sample, tones by increasing frequency; covariance order y0, r, (A, f, phi)_k.
    """
    span = trace.span
    tau = (trace.times - trace.times[0]) / span
    scale = _magnitude(trace.values)
    y = trace.values / scale
    n = len(freqs)
    nyquist = 0.5 * span / float(np.mean(np.diff(trace.times)))

    def basis(x):
        decay = np.exp(-x[0] * tau)[:, None]
        arg = TWO_PI * np.outer(tau, x[1:])
        return np.hstack([np.ones((tau.size, 1)), decay * np.cos(arg), decay * np.sin(arg)])

    def residuals(x):
        phi = basis(x)
        return phi @ np.linalg.lstsq(phi, y, rcond=None)[0] - y

    fit = least_squares(
        residuals,
        np.concatenate([[1.0], np.clip(np.asarray(freqs) * span, 0.0, nyquist)]),
        [0.0] * (n + 1), [np.inf] + [nyquist] * n,
    )
    if not fit.success:
        raise FitDivergenceError(f"damped-sinusoid fit did not converge: {fit.message}")
    rate, freqs = fit.x[0], fit.x[1:]
    coef = np.linalg.lstsq(basis(fit.x), y, rcond=None)[0]
    c, s = coef[1 : n + 1], coef[n + 1 :]
    keep = np.argsort(freqs, kind="stable")
    amps, freqs, phases = np.hypot(c, s)[keep], freqs[keep], np.arctan2(-s, c)[keep]

    decay = np.exp(-rate * tau)[:, None]
    arg = TWO_PI * np.outer(tau, freqs) + phases
    cos, sin = decay * np.cos(arg), decay * np.sin(arg)
    tones = cos @ amps
    residual = coef[0] + tones - y
    cols = [np.ones_like(tau), -tau * tones]
    for k, a in enumerate(amps):
        cols += [cos[:, k], -TWO_PI * a * tau * sin[:, k], -a * sin[:, k]]
    cov = _covariance(np.column_stack(cols), residual,
                      [scale, 1.0 / span] + [scale, 1.0 / span, 1.0] * n)
    rms = scale * float(np.sqrt(np.mean(residual**2)))
    return scale * float(coef[0]), rate / span, scale * amps, freqs / span, phases, rms, cov


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


SECOND_TONE_FLOOR = 0.05


def fit_ramsey(trace: Trace) -> RamseyFit:
    """Fit y0 + e^{-t/T2*} [A1 cos(2 pi f1 t + p1) + A2 cos(2 pi f2 t + p2)].

    The tones start from the two largest spectral peaks; when the second is
    below SECOND_TONE_FLOOR of the main one, the fit has a single tone and
    reports A2 = 0. The decay is searched as the rate 1/T2*, so undamped
    data fits cleanly at rate 0. A >= 0 and phi in (-pi, pi], from the first
    sample.
    Covariance order: y0, 1/T2*, A1, f1, phi1, A2, f2, phi2, with zeros in
    the slots of an absent second tone.
    """
    freqs, mags = _spectral_peaks(trace, 2)
    two_tone = mags.size == 2 and mags[1] >= SECOND_TONE_FLOOR * mags[0]
    freqs = freqs if two_tone else freqs[:1]
    if trace.span * freqs.min() < 2.0:
        raise FitDivergenceError(
            f"trace spans {trace.span * freqs.min():.2f} periods of the slower tone; "
            "need at least 2"
        )
    y0, rate, amps, freqs, phases, rms, cov = _fit_damped_tones(trace, freqs)
    (a1, a2), (f1, f2), (p1, p2) = (
        np.append(v, [0.0] * (2 - v.size)) for v in (amps, freqs, phases)
    )
    return RamseyFit(
        t2_star=float(1.0 / rate) if rate > 0 else math.inf,
        f1=float(f1),
        f2=float(f2),
        a1=float(a1),
        a2=float(a2),
        phi1=float(p1),
        phi2=float(p2),
        offset=y0,
        single_tone=not two_tone,
        residual_rms=rms,
        covariance=np.pad(cov, (0, 8 - cov.shape[0])),
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
    """Fit y0 + A e^{-r t} cos(Omega t + phi) and return Omega as rad/s.

    fit_ramsey's damped-tone fit with one tone, from the largest spectral
    peak; A >= 0 and phi in (-pi, pi], from the first sample. Covariance
    order: y0, A, Omega, phi, r.
    """
    freqs, _ = _spectral_peaks(trace, 1)
    if trace.span * freqs[0] < 1.5:
        raise FitDivergenceError(
            f"trace spans {trace.span * freqs[0]:.2f} oscillation periods; "
            "need at least 1.5"
        )
    y0, rate, amps, freqs, phases, rms, cov = _fit_damped_tones(trace, freqs)
    order, scale = [0, 2, 3, 4, 1], np.array([1.0, 1.0, TWO_PI, 1.0, 1.0])
    return RabiFit(
        omega_r=float(TWO_PI * freqs[0]),
        amplitude=float(amps[0]),
        offset=y0,
        phase=float(phases[0]),
        decay_rate=float(rate),
        residual_rms=rms,
        covariance=cov[np.ix_(order, order)] * np.outer(scale, scale),
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
    """Fit the Rabi-frequency hyperbola over drive-frequency offsets.

    The search runs in units of the largest offset or frequency magnitude.
    Covariance order: center, g.
    """
    points = list(points)
    if len(points) < 5:
        raise FitDivergenceError(f"need at least 5 chevron points, got {len(points)}")
    offsets = np.array([p.offset for p in points])
    omegas = np.array([p.omega_r for p in points])
    if offsets.min() >= 0.0 or offsets.max() <= 0.0:
        raise FitDivergenceError("chevron points must span both detuning signs")
    unit = _magnitude(np.append(offsets, omegas))
    offsets, omegas = offsets / unit, omegas / unit
    center0 = float(offsets[np.argmin(omegas)])
    g0 = float(omegas.min()) / 2.0

    def residuals(x):
        return chevron_omega(offsets, x[0], x[1]) - omegas

    fit = least_squares(residuals, [center0, max(g0, 1e-3)], [-np.inf, 0.0], [np.inf] * 2)
    if not fit.success:
        raise FitDivergenceError(f"chevron fit did not converge: {fit.message}")
    return ChevronFit(
        center=float(fit.x[0] * unit),
        g=float(fit.x[1] * unit),
        residual_rms=unit * float(np.sqrt(np.mean(fit.fun**2))),
        covariance=_covariance(fit.jac, fit.fun, [unit, unit]),
    )
