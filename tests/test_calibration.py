"""
Calibration fits: rate-equation decay, Ramsey, Rabi frequency, chevron.

Every fit is exercised as a round trip: synthesize a trace from known
parameters, fit it, and check the parameters come back within the stated
tolerance. Frozen targets use the device table's coherence times and the
swap coupling 2 pi x 0.845 MHz; randomized draws cover the physical ranges.
"""

import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from holosim import calibration as cal
from holosim import model as md
from holosim import pulses as pl
from holosim.errors import (
    DimensionMismatchError,
    FitDivergenceError,
    IoError,
    OutOfRangeError,
)
from holosim.evolution import TimeGrid, propagate_lindblad
from holosim.model import cavity_effective_hamiltonian

TWO_PI = 2.0 * math.pi


def cascade_traces(gamma_eg, gamma_fe, gamma_fg, t_end=120e-6, n=80, p0=None):
    """Closed-form populations of the g-e-f decay cascade, one Trace each."""
    times = np.linspace(0.0, t_end, n)
    g = md.rate_matrix(md.NoiseModel(
        gamma_eg=gamma_eg, gamma_fe=gamma_fe, gamma_fg=gamma_fg
    ))
    if p0 is None:
        p0 = np.array([0.0, 0.0, 1.0])
    pops = np.stack([expm(g * t) @ p0 for t in times], axis=1)
    return tuple(
        cal.Trace(times, pops[i], label) for i, label in enumerate("gef")
    )


@st.composite
def cascades(draw):
    """Rates (up to 1e12 /s) with gamma_eg on, or 1e-9 / 1e-6 off, the degeneracy."""
    rate = st.floats(1.0, 1e12)
    g_fe = draw(rate)
    g_fg = g_fe * draw(st.floats(0.0, 0.5))
    b = g_fe + g_fg
    offset = draw(st.sampled_from([None, 0.0, 1e-9, -1e-9, 1e-6, -1e-6]))
    g_eg = draw(rate) if offset is None else b * (1.0 + offset)
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    p0 = weights / weights.sum() if weights.sum() > 0 else np.array([0.0, 0.0, 1.0])
    times = np.linspace(0.0, draw(st.floats(0.5, 40.0)) / max(g_eg, b), 50)
    return (g_eg, g_fe, g_fg), times, p0


def ramsey_values(times, y0, t2, a1, f1, p1, a2, f2, p2):
    decay = np.exp(-times / t2) if math.isfinite(t2) else 1.0
    return y0 + decay * (
        a1 * np.cos(TWO_PI * f1 * times + p1)
        + a2 * np.cos(TWO_PI * f2 * times + p2)
    )


class TestTrace:
    def test_rejects_short_traces(self):
        t = np.linspace(0.0, 1.0, 7)
        with pytest.raises(OutOfRangeError):
            cal.Trace(t, np.zeros(7))

    def test_rejects_non_increasing_times(self):
        t = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(OutOfRangeError):
            cal.Trace(t, np.zeros(8))
        with pytest.raises(OutOfRangeError):
            cal.Trace(t[::-1].copy(), np.zeros(8))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cal.Trace(np.linspace(0, 1, 9), np.zeros(8))
        with pytest.raises(DimensionMismatchError):
            cal.Trace(np.zeros((4, 2)), np.zeros((4, 2)))

    def test_rejects_non_finite_samples(self):
        t = np.linspace(0.0, 1.0, 8)
        values = np.zeros(8)
        values[3] = np.nan
        with pytest.raises(OutOfRangeError):
            cal.Trace(t, values)
        t[-1] = np.inf
        with pytest.raises(OutOfRangeError):
            cal.Trace(t, np.zeros(8))

    def test_csv_non_numeric_cell_is_io_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        cal.Trace(np.linspace(0.0, 1e-6, 10), np.linspace(0.0, 1.0, 10)).to_csv(path)
        lines = path.read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IoError, match="bad.csv"):
            cal.Trace.from_csv(path)

    def test_span(self):
        tr = cal.Trace(np.linspace(2.0, 7.0, 11), np.zeros(11))
        assert abs(tr.span - 5.0) < 1e-12

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        tr = cal.Trace(np.sort(rng.uniform(0, 1e-5, 16)), rng.normal(size=16), "pe")
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        back = cal.Trace.from_csv(path, label="pe")
        assert np.array_equal(back.times, tr.times)
        assert np.array_equal(back.values, tr.values)
        assert back.label == "pe"

    def test_csv_detrend_removes_polynomial_background(self, tmp_path):
        times = np.linspace(0.0, 10e-6, 200)
        tone = 0.3 * np.cos(TWO_PI * 0.8e6 * times)
        slope = 0.4 + 3.0e4 * times
        cal.Trace(times, tone + slope).to_csv(tmp_path / "raw.csv")
        flat = cal.Trace.from_csv(tmp_path / "raw.csv", detrend_degree=1)
        # the linear background is gone; the tone survives
        assert abs(np.mean(flat.values)) < 1e-6
        assert np.ptp(flat.values) > 0.5
        for degree in (-1, cal.MAX_DETREND_DEGREE + 1):
            with pytest.raises(OutOfRangeError):
                cal.Trace.from_csv(tmp_path / "raw.csv", detrend_degree=degree)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_normalized_time_detrend_matches_raw_time_fit(self, tmp_path, degree):
        # on ordinary traces the raw-time fit is well conditioned up to
        # degree 2 (at degree 3 it loses digits itself); there the trend of
        # s = (t - t0) / span is the same polynomial to rounding
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(8, 300))
            times = np.sort(rng.uniform(0.0, 20e-6, 1)[0] + rng.uniform(1e-6, 60e-6) *
                            rng.uniform(0.0, 1.0, n))
            values = (0.5 + 0.3 * np.cos(TWO_PI * rng.uniform(0.1e6, 3e6) * times)
                      + rng.uniform(-1.0, 1.0) * 1e4 * times + rng.normal(0.0, 0.02, n))
            cal.Trace(times, values).to_csv(tmp_path / "raw.csv")
            flat = cal.Trace.from_csv(tmp_path / "raw.csv", detrend_degree=degree).values
            raw = values - np.polyval(np.polyfit(times, values, degree), times)
            assert np.max(np.abs(flat - raw)) <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("unit", [1e-300, 1e-50, 1.0, 1e50])
    def test_detrend_is_independent_of_the_time_unit(self, tmp_path, unit, capfd):
        # powers of raw times like these under- or overflowed inside
        # np.polyfit, which warned, printed LAPACK's DLASCL complaint and
        # raised; in normalized time every unit fits the same trend
        steps = np.arange(12.0)
        values = 0.5 + 0.1 * (-1.0) ** steps + 0.01 * steps
        cal.Trace(unit * steps, values).to_csv(tmp_path / "raw.csv")
        s = steps / steps[-1]
        for degree in range(cal.MAX_DETREND_DEGREE + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                flat = cal.Trace.from_csv(tmp_path / "raw.csv", detrend_degree=degree).values
            expected = values - np.polyval(np.polyfit(s, values, degree), s)
            # s differs from steps / 11 by rounding, which a degree-7 fit on
            # 12 points amplifies about 1e4-fold
            assert np.max(np.abs(flat - expected)) < 1e-10
        assert capfd.readouterr().out == ""

    def test_chevron_point_requires_positive_frequency(self):
        with pytest.raises(OutOfRangeError):
            cal.ChevronPoint(offset=0.0, omega_r=0.0)
        with pytest.raises(OutOfRangeError):
            cal.ChevronPoint(offset=1.0, omega_r=-2.0)


#: pieces of CSV cells: numbers, Unicode digits, underscores, padding,
#: non-finite and out-of-range spellings, and text float() refuses
CELL_PIECES = ["1", "-2.5", "0", "-0", "+7", "3e-300", "1e60", "1e61", "1e309", "-1e309",
               "\u0661\u0662", "1_0", "_", "nan", "NaN", "inf", "-inf", "infinity", " ",
               "\u00a0", "\t", "", ".", "e5", "abc", "0x1f", "\u2167"]


@st.composite
def csv_rows(draw):
    """Data lines of a two-column CSV: cells joined from CELL_PIECES or float
    reprs, and rows of one to three cells."""
    piece = st.one_of(st.sampled_from(CELL_PIECES),
                      st.floats(allow_nan=True, allow_infinity=True).map(repr))
    cell = st.lists(piece, min_size=1, max_size=3).map("".join)
    widths = st.sampled_from([2] * 8 + [1, 3])
    return draw(st.lists(widths.flatmap(lambda w: st.lists(cell, min_size=w, max_size=w)),
                         min_size=1, max_size=12))


def per_cell_columns(lines):
    """The per-cell float() reading of numbered data lines: the two columns,
    or the number of the first line that is not two finite numbers of
    magnitude at most MAX_CSV_MAGNITUDE."""
    rows = []
    for n, ln in lines:
        try:
            row = [float(cell) for cell in ln.split(",")]
        except ValueError:
            row = []
        if len(row) != 2 or not abs(row[0]) <= cal.MAX_CSV_MAGNITUDE >= abs(row[1]):
            return n
        rows.append(row)
    return np.array(rows).T.copy()


class TestCsvColumns:
    @settings(max_examples=300, deadline=None)
    @given(rows=csv_rows())
    @example(rows=[["\u0661\u0662", "1_0"], [" 3 ", "\u00a04\t"]])
    @example(rows=[["1e60", "-1e60"], ["-0", "3e-300"]])
    @example(rows=[["1", "2"], ["1e61", "0"]])
    @example(rows=[["1", "nan"]])
    @example(rows=[["1", "2"], ["inf", "1"]])
    @example(rows=[["1e309", "0"]])
    @example(rows=[["1", "2"], ["3"]])
    @example(rows=[["1", "2", "3"], ["4", "5", "6"]])
    @example(rows=[["_1", "2"]])
    def test_accepts_and_refuses_what_the_per_cell_reading_does(self, rows):
        text = "x,y\n" + "".join(",".join(row) + "\n" for row in rows)
        lines = [(n, t) for n, ln in enumerate(text.splitlines(), 1) if (t := ln.strip())]
        want = per_cell_columns(lines[1:]) if len(lines) > 1 else None
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w") as fh:
                fh.write(text)
            if want is None or isinstance(want, int):
                with pytest.raises(IoError) as info:
                    cal.read_csv_columns(path, ("x", "y"))
                if want is not None:
                    assert f"line {want}:" in str(info.value)
            else:
                xs, ys = cal.read_csv_columns(path, ("x", "y"))
                assert xs.tobytes() == want[0].tobytes() and ys.tobytes() == want[1].tobytes()
                assert xs.flags.c_contiguous and ys.flags.c_contiguous


class TestRateEquation:
    def test_device_rates_recovered(self):
        true = (1.0 / 45.6e-6, 1.0 / 20.3e-6, 0.0)
        tg, te, tf = cascade_traces(*true)
        fit = cal.fit_rate_equation(tg, te, tf)
        assert abs(fit.gamma_eg / true[0] - 1.0) < 0.02
        assert abs(fit.gamma_fe / true[1] - 1.0) < 0.02

    def test_zero_rate_identified(self):
        tg, te, tf = cascade_traces(1.0 / 45.6e-6, 1.0 / 20.3e-6, 0.0)
        fit = cal.fit_rate_equation(tg, te, tf)
        assert fit.gamma_fg < 1e-3 * fit.gamma_fe

    def test_ground_state_absorbing(self):
        tg, te, tf = cascade_traces(1.0 / 45.6e-6, 1.0 / 20.3e-6, 0.0)
        fit = cal.fit_rate_equation(tg, te, tf)
        rates = (fit.gamma_eg, fit.gamma_fe, fit.gamma_fg)
        tail = cal.rate_populations(rates, np.array([0.0, 2e-3]), np.array([0.0, 0.0, 1.0]))
        assert tail[0, -1] > 1.0 - 1e-6

    def test_random_rate_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g_eg = 1.0 / rng.uniform(10e-6, 80e-6)
            g_fe = 1.0 / rng.uniform(10e-6, 80e-6)
            g_fg = rng.uniform(0.0, 0.3) * g_fe
            span = 4.0 / min(g_eg, g_fe)
            tg, te, tf = cascade_traces(g_eg, g_fe, g_fg, t_end=span, n=120)
            fit = cal.fit_rate_equation(tg, te, tf)
            assert abs(fit.gamma_eg - g_eg) < 0.02 * g_eg
            assert abs(fit.gamma_fe - g_fe) < 0.02 * g_fe
            assert abs(fit.gamma_fg - g_fg) < 0.02 * g_fe

    def test_mixed_initial_state(self):
        # first samples seed p0, so a partially decayed start still fits
        tg, te, tf = cascade_traces(
            1.0 / 30e-6, 1.0 / 15e-6, 0.1 / 15e-6,
            p0=np.array([0.1, 0.3, 0.6]),
        )
        fit = cal.fit_rate_equation(tg, te, tf)
        assert abs(fit.gamma_eg * 30e-6 - 1.0) < 0.02
        assert abs(fit.gamma_fe * 15e-6 - 1.0) < 0.02

    @settings(max_examples=200, deadline=None)
    @given(problem=cascades())
    def test_closed_form_across_the_degeneracy(self, problem):
        rates, times, p0 = problem
        pops = cal.rate_populations(rates, times, p0)
        assert np.all(np.isfinite(pops))
        assert np.max(np.abs(pops.sum(axis=0) - p0.sum())) < 1e-12
        a, b = rates[0], rates[1] + rates[2]
        if abs(a - b) * times[-1] > 1.0:
            g = md.rate_matrix(md.NoiseModel(*rates))
            ref = np.stack([expm(g * t) @ p0 for t in times], axis=1)
            assert np.max(np.abs(pops - ref)) < 1e-12
        elif abs(a - b) * times[-1] < 1e-4:
            # (e^{-at} - e^{-bt}) / (b - a) as a series in (b - a) t; expm
            # itself is off by up to 1e-8 this close to the degeneracy
            x = (b - a) * times
            feed = times * np.exp(-a * times) * (1.0 - x / 2.0 + x**2 / 6.0)
            p_e = p0[1] * np.exp(-a * times) + rates[1] * p0[2] * feed
            assert np.max(np.abs(pops[1] - p_e)) < 1e-13
            assert np.max(np.abs(pops[2] - p0[2] * np.exp(-b * times))) < 1e-15
            if a == b:
                limit = (p0[1] + rates[1] * p0[2] * times) * np.exp(-a * times)
                assert np.max(np.abs(pops[1] - limit)) < 1e-13

    def test_requires_aligned_time_axes(self):
        tg, te, tf = cascade_traces(1e4, 2e4, 0.0)
        other = cal.Trace(te.times + 1e-9, te.values)
        with pytest.raises(DimensionMismatchError):
            cal.fit_rate_equation(tg, other, tf)

    def test_json_export(self, tmp_path):
        tg, te, tf = cascade_traces(1.0 / 45.6e-6, 1.0 / 20.3e-6, 0.0)
        fit = cal.fit_rate_equation(tg, te, tf)
        path = tmp_path / "rates.json"
        fit.to_json(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["gamma_eg"] == fit.gamma_eg
        assert np.asarray(payload["covariance"]).shape == (3, 3)


class TestRamsey:
    def test_single_tone_t2(self):
        times = np.linspace(0.0, 60e-6, 400)
        values = ramsey_values(times, 0.5, 24.4e-6, 0.4, 0.25e6, 0.3, 0.0, 0.0, 0.0)
        fit = cal.fit_ramsey(cal.Trace(times, values))
        assert abs(fit.t2_star / 24.4e-6 - 1.0) < 0.02
        assert abs(fit.f1 / 0.25e6 - 1.0) < 0.01
        assert fit.single_tone
        assert fit.a2 == 0.0

    def test_double_tone_t2(self):
        times = np.linspace(0.0, 60e-6, 400)
        values = ramsey_values(
            times, 0.5, 24.4e-6, 0.25, 0.25e6, 0.3, 0.2, 0.11e6, -0.5
        )
        fit = cal.fit_ramsey(cal.Trace(times, values))
        assert abs(fit.t2_star / 24.4e-6 - 1.0) < 0.02
        assert not fit.single_tone
        # tones come back sorted by frequency
        assert fit.f1 <= fit.f2
        assert abs(fit.f1 / 0.11e6 - 1.0) < 0.01
        assert abs(fit.f2 / 0.25e6 - 1.0) < 0.01

    def test_zero_decay(self):
        times = np.linspace(0.0, 40e-6, 300)
        values = ramsey_values(times, 0.5, math.inf, 0.4, 0.3e6, 0.0, 0.0, 0.0, 0.0)
        fit = cal.fit_ramsey(cal.Trace(times, values))
        rate = 0.0 if math.isinf(fit.t2_star) else 1.0 / fit.t2_star
        assert rate < 1e-3 * fit.f1

    def test_too_short_trace_raises(self):
        times = np.linspace(0.0, 1.5e-6, 64)
        values = ramsey_values(times, 0.5, 20e-6, 0.4, 1.0e6, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(FitDivergenceError):
            cal.fit_ramsey(cal.Trace(times, values))

    def test_constant_trace_raises(self):
        times = np.linspace(0.0, 10e-6, 64)
        with pytest.raises(FitDivergenceError):
            cal.fit_ramsey(cal.Trace(times, np.full(64, 0.5)))

    def test_random_double_tone_round_trips(self):
        rng = np.random.default_rng(33)
        times = np.linspace(0.0, 50e-6, 500)
        for _ in range(10):
            t2 = rng.uniform(8e-6, 40e-6)
            f1 = rng.uniform(0.1e6, 0.25e6)
            f2 = f1 * rng.uniform(1.8, 3.0)
            a1 = rng.uniform(0.15, 0.35)
            a2 = rng.uniform(0.15, 0.35)
            p1 = rng.uniform(-1.0, 1.0)
            p2 = rng.uniform(-1.0, 1.0)
            values = ramsey_values(times, 0.5, t2, a1, f1, p1, a2, f2, p2)
            fit = cal.fit_ramsey(cal.Trace(times, values))
            assert abs(fit.t2_star / t2 - 1.0) < 0.02
            assert abs(fit.f1 / f1 - 1.0) < 0.01
            assert abs(fit.f2 / f2 - 1.0) < 0.01

    def test_acceptance_style_draw_that_once_locked_onto_a_spurious_tone(self):
        # a draw of the release round-trip distribution on which a fit over
        # all eight parameters settled on a tone near 894 kHz, T2* 8% low
        t2 = 2.5479801169526206e-05
        times = np.linspace(0.0, 60e-6, 300)
        values = ramsey_values(
            times, 0.5, t2,
            0.15041779463664812, 140931.66507555527, 1.4803117431248238,
            0.22857481613806482, 273465.9157651297, 0.7719054150722857,
        )
        fit = cal.fit_ramsey(cal.Trace(times, values, "ramsey"))
        assert abs(fit.t2_star - t2) < 0.02 * t2

    def test_covariance_follows_the_reported_tones(self):
        # a lone noisy tone: the covariance has y0, 1/T2*, A1, f1, phi1 in
        # its first slots and zeros in those of the absent second tone
        times = np.linspace(0.0, 40e-6, 300)
        values = ramsey_values(times, 0.5, 200e-6, 0.4, 0.213e6, 0.3, 0.0, 0.0, 0.0)
        values += 1e-4 * np.random.default_rng(3).standard_normal(times.size)
        trace = cal.Trace(times, values)
        fit = cal.fit_ramsey(trace)
        assert fit.single_tone
        cov = fit.covariance
        assert cov.shape == (8, 8)
        assert np.all(cov[5:, :] == 0.0) and np.all(cov[:, 5:] == 0.0)
        assert cov[3, 3] > 0.0
        # the one-tone Rabi fit of the same trace has d(omega) = 2 pi d(f)
        rabi = cal.fit_rabi(trace)
        assert abs(cov[3, 3] * TWO_PI**2 / rabi.covariance[2, 2] - 1.0) < 1e-6

    def test_deterministic(self):
        times = np.linspace(0.0, 60e-6, 400)
        values = ramsey_values(
            times, 0.5, 24.4e-6, 0.25, 0.25e6, 0.3, 0.2, 0.11e6, -0.5
        )
        a = cal.fit_ramsey(cal.Trace(times, values))
        b = cal.fit_ramsey(cal.Trace(times, values))
        assert a.t2_star == b.t2_star
        assert a.f1 == b.f1 and a.f2 == b.f2

    def test_json_export_maps_infinite_t2_to_null(self, tmp_path):
        times = np.linspace(0.0, 40e-6, 300)
        values = ramsey_values(times, 0.5, math.inf, 0.4, 0.3e6, 0.0, 0.0, 0.0, 0.0)
        fit = cal.fit_ramsey(cal.Trace(times, values))
        path = tmp_path / "ramsey.json"
        fit.to_json(path)
        with open(path) as fh:
            payload = json.load(fh)
        if math.isinf(fit.t2_star):
            assert payload["t2_star"] is None
        assert payload["single_tone"] is True


class TestRabi:
    def test_exact_cosine(self):
        omega = TWO_PI * 2.0e6
        times = np.linspace(0.0, 3e-6, 240)
        trace = cal.Trace(times, np.cos(omega * times))
        fit = cal.fit_rabi(trace)
        assert abs(fit.omega_r / omega - 1.0) < 1e-6

    def test_swap_oscillation_matches_coupling(self):
        # |1g> <-> |0f> under the resonant sideband drive oscillates at 2 g
        g = md.paper_device().g_swap
        dur = 2.0e-6
        seg = pl.PulseSegment(
            envelope=pl.SquareWithRamps(dur, ramp=0.0, peak_amplitude=g),
            transition="raman",
            phase=0.0,
        )
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[1, 1] = 1.0
        traj = propagate_lindblad(
            lambda t: cavity_effective_hamiltonian((seg,), t=t),
            [], rho0, TimeGrid(0.0, dur, 2048),
        )
        trace = cal.Trace(traj.times, traj.populations()[:, 1], "P_1g")
        fit = cal.fit_rabi(trace)
        assert abs(fit.omega_r / (2.0 * g) - 1.0) < 0.01

    def test_damped_frequency_unbiased(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 5e-6, 400)
        for _ in range(8):
            omega = TWO_PI * rng.uniform(1.5e6, 4.0e6)
            # decay slower than 10 oscillation periods
            rate = omega / TWO_PI / rng.uniform(12.0, 40.0)
            values = 0.5 + 0.4 * np.exp(-rate * times) * np.cos(
                omega * times + rng.uniform(-1.0, 1.0)
            )
            fit = cal.fit_rabi(cal.Trace(times, values))
            assert abs(fit.omega_r / omega - 1.0) < 0.01
            assert abs(fit.decay_rate / rate - 1.0) < 0.05

    def test_too_few_periods_raises(self):
        omega = TWO_PI * 0.2e6
        times = np.linspace(0.0, 5e-6, 64)
        with pytest.raises(FitDivergenceError):
            cal.fit_rabi(cal.Trace(times, np.cos(omega * times)))

    def test_json_export(self, tmp_path):
        omega = TWO_PI * 2.0e6
        times = np.linspace(0.0, 3e-6, 240)
        fit = cal.fit_rabi(cal.Trace(times, np.cos(omega * times)))
        path = tmp_path / "rabi.json"
        fit.to_json(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["omega_r"] == fit.omega_r
        assert np.asarray(payload["covariance"]).shape == (5, 5)


class TestLeastSquares:
    """The fits' bounded Levenberg-Marquardt solver on problems with known optima."""

    def test_linear_problem_solved_to_rounding(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 3))
        b = a @ np.array([0.7, -1.3, 2.1])
        fit = cal.least_squares(lambda x: a @ x - b, [1.0, 1.0, 1.0], [-np.inf] * 3,
                                [np.inf] * 3)
        assert fit.success
        assert np.max(np.abs(fit.x - np.linalg.lstsq(a, b, rcond=None)[0])) < 1e-14
        # with a residual left at the optimum, the forward-difference
        # Jacobian (1e-8 relative) sets the limit, not the stopping rules
        b = b + rng.normal(size=20)
        fit = cal.least_squares(lambda x: a @ x - b, [1.0, 1.0, 1.0], [-np.inf] * 3,
                                [np.inf] * 3)
        assert np.max(np.abs(fit.x - np.linalg.lstsq(a, b, rcond=None)[0])) < 1e-7
        assert np.max(np.abs(fit.jac - a)) < 1e-6

    def test_optimum_past_a_bound_ends_on_the_bound(self):
        target = np.array([-1.0, 5.0, 0.25])
        fit = cal.least_squares(lambda x: x - target, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                                [np.inf, 3.0, 1.0])
        assert fit.success
        assert fit.x[0] == 0.0 and fit.x[1] == 3.0
        # the free parameter stops once a step gains less than 1e-14 of the
        # cost, which the residuals held at the bounds dominate
        assert abs(fit.x[2] - 0.25) < 1e-6

    def test_iterates_do_not_depend_on_the_parameter_scale(self):
        # a decay rate and an amplitude, each searched as x / scale
        t = np.linspace(0.0, 3.0, 25)
        y = 1.7 * np.exp(-0.8 * t)
        runs = []
        for scale in (1e-30, 1.0, 1e30):
            seen = []

            def residuals(x, scale=scale, seen=seen):
                seen.append(x / scale)
                return x[1] / scale * np.exp(-x[0] / scale * t) - y

            fit = cal.least_squares(residuals, [0.3 * scale, 1.0 * scale], [0.0, 0.0],
                                    [np.inf, np.inf])
            runs.append((np.array(seen), fit.x / scale, fit.nfev))
        for seen, x, nfev in runs:
            assert nfev == runs[0][2]
            # x / scale rounds differently at each scale, and the difference
            # quotients amplify that 1e8-fold
            np.testing.assert_allclose(seen, runs[0][0], rtol=1e-8, atol=0.0)
            np.testing.assert_allclose(x, [0.8, 1.7], rtol=1e-14)

    def test_nan_residual_raises(self):
        with pytest.raises(FitDivergenceError):
            cal.least_squares(lambda x: np.full(5, np.nan), [1.0], [0.0], [np.inf])
        # a Jacobian column through a NaN
        with pytest.raises(FitDivergenceError):
            cal.least_squares(lambda x: np.full(5, np.nan if x[0] > 1.0 else x[0]), [1.0],
                              [0.0], [np.inf])

    def test_nfev_counts_every_evaluation(self):
        calls = []

        def residuals(x):
            calls.append(x)
            return np.array([x[0] - 2.0, x[1] * x[0] - 1.0, x[1] - 0.5])

        fit = cal.least_squares(residuals, [1.0, 1.0], [0.0, 0.0], [np.inf, np.inf])
        assert fit.success and fit.nfev == len(calls)
        # the start point, and a 2-column Jacobian at it and at each accepted step
        assert fit.nfev >= 3

    def test_a_search_that_never_settles_reports_failure(self):
        # e^{-x} has no minimizer: every Gauss-Newton step is +1 and lowers
        # the cost by 86%, so neither stopping rule ever holds
        fit = cal.least_squares(lambda x: np.exp(-x), [1.0], [0.0], [np.inf])
        assert not fit.success
        assert "no convergence" in fit.message
        assert fit.x[0] > 100.0


class TestValueScale:
    @pytest.mark.parametrize("span", [1e-50, 1e-6, 1.0, 1e50])
    def test_fits_do_not_depend_on_the_value_scale(self, span):
        # exact data: rates 1, 2, 0 per span and a 5-period tone. The fits run
        # in normalized units, so neither the span nor the value scale may
        # move them, and no step may over- or underflow (warnings are errors)
        times = np.linspace(0.0, 1.0, 30) * span
        rates = np.array([1.0, 2.0, 0.0]) / span
        tone = 0.5 + 0.4 * np.cos(TWO_PI * 5.0 * np.linspace(0.0, 1.0, 30))
        pops = cal.rate_populations(rates, times, np.array([0.0, 0.0, 1.0]))
        for scale in (1e-100, 1e-6, 1.0, 1e50, 1e100):
            with warnings.catch_warnings(action="error"):
                fit = cal.fit_rate_equation(*(cal.Trace(times, scale * p) for p in pops))
                rabi = cal.fit_rabi(cal.Trace(times, scale * tone))
            found = np.array([fit.gamma_eg, fit.gamma_fe, fit.gamma_fg])
            assert np.max(np.abs(found - rates)) * span <= 1e-9
            assert abs(rabi.omega_r * span / TWO_PI - 5.0) <= 1e-9
            assert np.isfinite(fit.covariance).all() and np.isfinite(rabi.covariance).all()


class TestChevron:
    def test_on_resonance_value(self):
        g = TWO_PI * 0.845e6
        assert abs(float(cal.chevron_omega(0.3e6, 0.3e6, g)) - 2.0 * g) < 1e-9

    def test_device_coupling_recovered(self):
        g = TWO_PI * 0.845e6
        center = TWO_PI * 0.12e6
        offsets = TWO_PI * np.linspace(-2.5e6, 2.5e6, 11)
        points = [
            cal.ChevronPoint(d, float(cal.chevron_omega(d, center, g)))
            for d in offsets
        ]
        fit = cal.fit_chevron(points)
        assert abs(fit.g / g - 1.0) < 0.01
        assert abs(fit.center / center - 1.0) < 0.01

    def test_large_detuning_asymptote(self):
        g = TWO_PI * 0.845e6
        delta = 25.0 * g
        ratio = float(cal.chevron_omega(delta, 0.0, g)) / delta
        assert abs(ratio - 1.0) < 0.01

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = TWO_PI * rng.uniform(0.2e6, 2.0e6)
            center = TWO_PI * rng.uniform(-0.5e6, 0.5e6)
            offsets = center + TWO_PI * np.linspace(-3e6, 3e6, 13)
            points = [
                cal.ChevronPoint(float(d), float(cal.chevron_omega(d, center, g)))
                for d in offsets
            ]
            fit = cal.fit_chevron(points)
            assert abs(fit.g / g - 1.0) < 0.01

    def test_too_few_points_raises(self):
        g = TWO_PI * 0.845e6
        points = [
            cal.ChevronPoint(float(d), float(cal.chevron_omega(d, 0.0, g)))
            for d in TWO_PI * np.linspace(-1e6, 1e6, 4)
        ]
        with pytest.raises(FitDivergenceError):
            cal.fit_chevron(points)

    def test_one_signed_detunings_raise(self):
        g = TWO_PI * 0.845e6
        points = [
            cal.ChevronPoint(float(d), float(cal.chevron_omega(d, 0.0, g)))
            for d in TWO_PI * np.linspace(0.1e6, 1e6, 6)
        ]
        with pytest.raises(FitDivergenceError):
            cal.fit_chevron(points)

    def test_json_export(self, tmp_path):
        g = TWO_PI * 0.845e6
        offsets = TWO_PI * np.linspace(-2e6, 2e6, 9)
        points = [
            cal.ChevronPoint(float(d), float(cal.chevron_omega(d, 0.0, g)))
            for d in offsets
        ]
        fit = cal.fit_chevron(points)
        path = tmp_path / "chevron.json"
        fit.to_json(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["g"] == fit.g
