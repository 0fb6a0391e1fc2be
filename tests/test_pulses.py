"""
Envelope shapes, pulse areas, and schedule assembly.

Area oracle: composite Simpson on a dense grid (1e6 panels), which is
independent of the adaptive quadrature used by pulses.area.
"""

import dataclasses
import math

import numpy as np
import pytest

from holosim import pulses as pl
from holosim.errors import OutOfRangeError, ZeroAreaError


def simpson_area(env, n=1_000_000):
    t = np.linspace(0.0, env.duration, n + 1)
    y = env.shape(t) * env.peak_amplitude
    h = env.duration / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


class TestTruncatedGaussian:
    def test_zero_start_and_end(self):
        env = pl.TruncatedGaussian(sigma=15e-9)
        assert env.duration == pytest.approx(60e-9)
        assert env.shape(0.0) == pytest.approx(0.0, abs=1e-15)
        assert env.shape(env.duration) == pytest.approx(0.0, abs=1e-15)

    def test_peak_at_center(self):
        env = pl.TruncatedGaussian(sigma=15e-9, peak_amplitude=2.5)
        assert env.shape(env.duration / 2) == pytest.approx(1.0)
        assert pl.sample(env, env.duration / 2) == pytest.approx(2.5)

    def test_zero_outside_window(self):
        env = pl.TruncatedGaussian(sigma=10e-9)
        assert env.shape(-1e-9) == 0.0
        assert env.shape(env.duration + 1e-9) == 0.0

    def test_custom_total(self):
        env = pl.TruncatedGaussian(sigma=10e-9, total=80e-9)
        assert env.duration == pytest.approx(80e-9)

    def test_window_above_the_ratio_ceiling_rejected(self):
        # the edge exp(-(total/sigma)^2 / 8) overflowed a Python float at
        # total/sigma = 1e300, and quadrature misses the peak from ~7700 on
        pl.TruncatedGaussian(sigma=1.0, total=pl.MAX_TOTAL_PER_SIGMA)
        for total in (1e-8 * 1e4, 1e292):
            with pytest.raises(OutOfRangeError, match="total / sigma"):
                pl.TruncatedGaussian(sigma=1e-8, total=total)

    def test_default_edge_is_exp_minus_two(self):
        assert pl.TruncatedGaussian(sigma=15e-9)._edge() == float(np.exp(-2.0))

    def test_area_against_simpson(self):
        env = pl.TruncatedGaussian(sigma=15e-9, peak_amplitude=3.0e7)
        assert pl.area(env) == pytest.approx(simpson_area(env), rel=1e-9)


class TestSquareWithRamps:
    def test_flat_top_value(self):
        env = pl.SquareWithRamps(flat=100e-9, ramp=10e-9, peak_amplitude=1.0)
        assert env.duration == pytest.approx(120e-9)
        mid = np.linspace(10e-9, 110e-9, 11)
        assert np.allclose(env.shape(mid), 1.0)

    def test_ramps_are_sine_squared(self):
        env = pl.SquareWithRamps(flat=50e-9, ramp=20e-9)
        t = 5e-9
        assert env.shape(t) == pytest.approx(math.sin(math.pi * t / (2 * 20e-9)) ** 2)
        # falling edge mirrors the rising one
        assert env.shape(env.duration - t) == pytest.approx(env.shape(t))

    def test_area_against_simpson(self):
        env = pl.SquareWithRamps(flat=80e-9, ramp=10e-9, peak_amplitude=2.0e6)
        assert pl.area(env) == pytest.approx(simpson_area(env), rel=1e-9)

    def test_area_closed_form(self):
        # sine^2 ramps each integrate to ramp/2: area = peak * (flat + ramp)
        env = pl.SquareWithRamps(flat=70e-9, ramp=12e-9, peak_amplitude=5.0e5)
        assert pl.area(env) == pytest.approx(5.0e5 * (70e-9 + 12e-9), rel=1e-10)


    @pytest.mark.parametrize("ramp", [0.0, 1e-9, 10e-9, 30e-9])
    def test_closed_form_area_matches_the_quadrature_it_replaced(self, ramp):
        # flat-top areas were adaptive quadrature split at the ramp edges
        from scipy.integrate import quad

        for flat in [0.0] + [10.0**e for e in range(-9, -3)]:  # 0 and 1 ns ... 100 us
            if flat == ramp == 0.0:
                continue
            env = pl.SquareWithRamps(flat, ramp, peak_amplitude=2.0 * math.pi * 5e6)
            pts = [ramp, ramp + flat] if ramp > 0 else None
            val, _ = quad(lambda x: float(env.shape(x)), 0.0, env.duration, points=pts,
                          epsabs=0.0, epsrel=1e-11, limit=200)
            old = env.peak_amplitude * val
            assert abs(pl.area(env) - old) <= 1e-15 * old


class TestConstant:
    def test_shape_and_area(self):
        # the rectangle is a flat top with no ramps
        env = pl.SquareWithRamps(40e-9, ramp=0.0, peak_amplitude=1.5e6)
        assert env.shape(20e-9) == 1.0
        assert env.shape(50e-9) == 0.0
        assert pl.area(env) == pytest.approx(1.5e6 * 40e-9, rel=1e-10)


class TestNormalize:
    @pytest.mark.parametrize("target", [math.pi / 2, math.pi, 0.3])
    def test_round_trip(self, target):
        env = pl.TruncatedGaussian(sigma=15e-9, peak_amplitude=1.0)
        scaled = pl.normalize_to_area(env, target)
        assert pl.area(scaled) == pytest.approx(target, rel=1e-9)

    def test_zero_area_raises(self):
        with pytest.raises(ZeroAreaError):
            silent = pl.SquareWithRamps(10e-9, ramp=0.0, peak_amplitude=0.0)
            pl.normalize_to_area(silent, 1.0)


class TestSegmentsAndSchedules:
    def test_waveform_is_envelope_plus_i_drag(self):
        # no quadrature component: the waveform is the sampled envelope
        env = pl.TruncatedGaussian(sigma=15e-9, peak_amplitude=2.0e6)
        seg = pl.PulseSegment(env, "ge", 0.0, start=10e-9)
        t = 10e-9 + np.linspace(0.0, env.duration, 7)
        assert np.array_equal(seg.waveform(t), pl.sample(env, t - 10e-9))

    def test_waveform_zero_outside_segment(self):
        env = pl.TruncatedGaussian(sigma=15e-9)
        seg = pl.PulseSegment(env, "ge", 0.0, start=100e-9)
        assert seg.waveform(np.array([0.0, 50e-9]))[0] == 0.0
        assert seg.end == pytest.approx(100e-9 + env.duration)

    def test_schedule_boundaries(self):
        env = pl.TruncatedGaussian(sigma=15e-9)
        segs = (
            pl.PulseSegment(env, "ge", 0.0, start=0.0),
            pl.PulseSegment(env, "ef", 0.0, start=0.0),
            pl.PulseSegment(env, "ge", 0.0, start=env.duration),
        )
        sched = pl.GateSchedule(segs, 2 * env.duration, "demo")
        b = sched.boundaries()
        assert b[0] == 0.0 and b[-1] == pytest.approx(2 * env.duration)
        assert all(b[i] < b[i + 1] for i in range(len(b) - 1))

    def test_segment_end_tolerance_is_relative(self):
        # a segment twice as long as an 80 as schedule was within the old
        # absolute 1e-15 s slack
        env = pl.TruncatedGaussian(sigma=1e-17)
        seg = pl.PulseSegment(env, "ge", 0.0)
        pl.GateSchedule((seg,), env.duration * (1.0 + 1e-12))
        with pytest.raises(OutOfRangeError, match="beyond schedule duration"):
            pl.GateSchedule((seg,), env.duration / 2)

    def test_replace_keeps_shape(self):
        env = pl.TruncatedGaussian(sigma=15e-9, peak_amplitude=1.0)
        bigger = dataclasses.replace(env, peak_amplitude=2.0)
        assert bigger.duration == env.duration
        assert bigger.shape(1e-8) == env.shape(1e-8)
