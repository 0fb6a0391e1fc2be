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
peaks, the trace span), so identical inputs give identical fits.
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


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first call so that importing
    the package loads no scipy; every fit calls it through this name, which
    perfbench/trace.py wraps to count evaluations."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


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
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    expected = ",".join(header)
    if not lines:
        raise IoError(f"{path} is empty; expected the header {expected!r}")
    n, first = lines[0]
    if [cell.strip() for cell in first.split(",")] != list(header):
        raise IoError(f"{path} line {n}: expected the header {expected!r}, got {first!r}")
    if len(lines) == 1:
        raise IoError(f"{path} has a header and no data rows")
    rows = []
    for n, ln in lines[1:]:
        try:
            row = [float(cell) for cell in ln.split(",")]
        except ValueError:
            row = []
        if len(row) != 2 or not all(abs(x) <= MAX_CSV_MAGNITUDE for x in row):
            raise IoError(f"{path} line {n}: expected two finite numbers of magnitude "
                          f"at most {MAX_CSV_MAGNITUDE:g}, got {ln!r}")
        rows.append(row)
    xs, ys = np.array(rows).T.copy()
    return xs, ys


@dataclass(frozen=True)
class ChevronPoint:
    """Fitted Rabi frequency at one drive-frequency offset (both rad/s)."""

    offset: float
    omega_r: float

    def __post_init__(self):
        if self.omega_r <= 0:
            raise OutOfRangeError(f"omega_r must be positive, got {self.omega_r}")


# ---- shared fit plumbing ----

def _covariance(jac: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Gauss-Newton parameter covariance s^2 (J^T J)^+ at one parameter point.

    Raises FitDivergenceError when it is not finite: at extreme value scales
    J^T J over- or underflows in raw units and its pseudo-inverse is NaN.
    """
    dof = max(residuals.size - jac.shape[1], 1)
    s2 = float(residuals @ residuals) / dof
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cov = s2 * np.linalg.pinv(jac.T @ jac)
    if not np.isfinite(cov).all():
        raise FitDivergenceError(
            "fit covariance is not finite: J^T J over- or underflows at this value scale"
        )
    return cov


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
    D = (e^{-a t} - e^{-b t}) / (b - a) = t e^{-min(a,b) t} exprel(-|a - b| t),
    which is exact at a = b and never overflows; P_g holds the rest of the
    conserved total.
    """
    from scipy.special import exprel
    noise = md.NoiseModel(gamma_eg=rates[0], gamma_fe=rates[1], gamma_fg=rates[2])
    a = noise.gamma_eg
    b = noise.gamma_fe + noise.gamma_fg
    t = np.asarray(times, dtype=float) - times[0]
    p0 = np.asarray(p0, dtype=float)
    p_f = p0[2] * np.exp(-b * t)
    feed = t * np.exp(-min(a, b) * t) * exprel(-abs(a - b) * t)
    p_e = p0[1] * np.exp(-a * t) + noise.gamma_fe * p0[2] * feed
    return np.stack([p0.sum() - p_e - p_f, p_e, p_f])


def fit_rate_equation(trace_g: Trace, trace_e: Trace, trace_f: Trace) -> RateFit:
    """Global fit of three aligned population traces to the decay cascade.

    The initial populations are read off the first sample; the three rates
    are bounded below by zero, so the negligible upward transitions stay
    out of the model. Covariance order: gamma_eg, gamma_fe, gamma_fg.
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
        xtol=1e-12, ftol=1e-12, gtol=1e-12,
    )
    if not fit.success:
        raise FitDivergenceError(f"rate-equation fit did not converge: {fit.message}")
    return RateFit(
        gamma_eg=float(fit.x[0]),
        gamma_fe=float(fit.x[1]),
        gamma_fg=float(fit.x[2]),
        residual_rms=float(np.sqrt(np.mean(fit.fun**2))),
        covariance=_covariance(fit.jac, fit.fun),
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
    quadratures (A cos phi, -A sin phi) are the linear least-squares solution.
    Returns (y0, r, amplitudes, frequencies, phases), t from the first sample.
    """
    span = trace.span
    tau = (trace.times - trace.times[0]) / span
    y = trace.values
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
        bounds=([0.0] * (n + 1), [np.inf] + [nyquist] * n),
    )
    if not fit.success:
        raise FitDivergenceError(f"damped-sinusoid fit did not converge: {fit.message}")
    coef = np.linalg.lstsq(basis(fit.x), y, rcond=None)[0]
    c, s = coef[1 : n + 1], coef[n + 1 :]
    return float(coef[0]), fit.x[0] / span, np.hypot(c, s), fit.x[1:] / span, np.arctan2(-s, c)


def _tone_stats(trace: Trace, y0, rate, amps, freqs, phases):
    """Residual rms and covariance of the damped-tone model at these parameters.

    Covariance order: y0, r, then A_k, f_k, phi_k for each tone.
    """
    t = trace.times - trace.times[0]
    decay = np.exp(-rate * t)[:, None]
    arg = TWO_PI * np.outer(t, freqs) + phases
    cos, sin = decay * np.cos(arg), decay * np.sin(arg)
    tones = cos @ amps
    residual = y0 + tones - trace.values
    cols = [np.ones_like(t), -t * tones]
    for k, a in enumerate(amps):
        cols += [cos[:, k], -TWO_PI * a * t * sin[:, k], -a * sin[:, k]]
    return float(np.sqrt(np.mean(residual**2))), _covariance(np.column_stack(cols), residual)


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
    y0, rate, amps, freqs, phases = _fit_damped_tones(trace, freqs)
    keep = np.argsort(freqs, kind="stable")
    rms, cov = _tone_stats(trace, y0, rate, amps[keep], freqs[keep], phases[keep])
    (a1, a2), (f1, f2), (p1, p2) = (
        np.append(v[keep], [0.0] * (2 - keep.size)) for v in (amps, freqs, phases)
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
    y0, rate, amps, freqs, phases = _fit_damped_tones(trace, freqs)
    rms, cov = _tone_stats(trace, y0, rate, amps, freqs, phases)
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

    Covariance order: center, g.
    """
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
        covariance=_covariance(fit.jac, fit.fun),
    )
