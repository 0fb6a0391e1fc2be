"""
Propagators: midpoint-exponential unitary evolution, RK4 Lindblad dynamics,
channel superoperators, and the schedule-level cache.

Analytic oracles used here:
  - constant Rabi drive:   P_e(t) = sin^2(Omega t) for H = Omega sx
  - amplitude decay:       P_e(t) = e^{-Gamma t}
  - pure dephasing:        |rho_ge(t)| = |rho_ge(0)| e^{-gamma t}
"""

import math
import os

import numpy as np
import pytest

from holosim import evolution as ev
from holosim import model as md
from holosim.errors import (
    NonHermitianInputError,
    OutOfRangeError,
    StepTooLargeError,
)
from holosim.operators import expm_hermitian
from holosim.pulses import Constant, GateSchedule, PulseSegment, TruncatedGaussian


SX3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)


def drive_schedule(amp=1.0e7, duration=60e-9, phase=0.0):
    seg = PulseSegment(TruncatedGaussian(sigma=duration / 4, peak_amplitude=amp), "ge", phase)
    return GateSchedule((seg,), duration)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            ev.TimeGrid(0.0, 0.0, 100)
        with pytest.raises(OutOfRangeError):
            ev.TimeGrid(0.0, 1.0, 5)

    def test_dt_and_for_duration(self):
        g = ev.TimeGrid.for_duration(1e-6, steps=1000)
        assert g.dt == pytest.approx(1e-9)
        assert g.t0 == 0.0 and g.t1 == 1e-6


class TestUnitaryPropagation:
    def test_zero_hamiltonian(self):
        u = ev.propagate_unitary(lambda t: np.zeros((3, 3)), ev.TimeGrid(0, 1e-6, 64))
        assert np.allclose(u, np.eye(3), atol=1e-12)

    def test_constant_rabi_oracle(self):
        omega = 2 * math.pi * 5e6
        t1 = 100e-9
        u = ev.propagate_unitary(lambda t: omega * SX3, ev.TimeGrid(0, t1, 128))
        # exp(-i omega t sx): P(g->e) = sin^2(omega t)
        assert abs(u[1, 0]) ** 2 == pytest.approx(math.sin(omega * t1) ** 2, abs=1e-10)
        assert u[2, 2] == pytest.approx(1.0)

    def test_time_ordering(self):
        # switch from sx-drive to sz-like detuning halfway; the exact result
        # is the ordered product exp(-i H2 T/2) exp(-i H1 T/2)
        w = 2 * math.pi * 3e6
        hz = np.diag([0.0, w, 0.0]).astype(complex)

        def h(t):
            t = np.asarray(t)
            frac = (t < 50e-9).astype(float)
            return (
                frac[..., None, None] * (w * SX3)
                + (1 - frac)[..., None, None] * hz
            )

        u = ev.propagate_unitary(h, ev.TimeGrid(0, 100e-9, 2048))
        h1 = w * SX3
        exact = (
            expm_hermitian(hz, prefactor=-1j * 50e-9)
            @ expm_hermitian(h1, prefactor=-1j * 50e-9)
        )
        assert np.max(np.abs(u - exact)) < 1e-6

    def test_second_order_convergence(self):
        sched = drive_schedule()

        def h(t):
            return md.qutrit_drive_hamiltonian(sched, t=t)

        ref = ev.propagate_unitary(h, ev.TimeGrid(0, sched.duration, 16384))
        e_coarse = np.max(np.abs(ev.propagate_unitary(h, ev.TimeGrid(0, sched.duration, 128)) - ref))
        e_fine = np.max(np.abs(ev.propagate_unitary(h, ev.TimeGrid(0, sched.duration, 256)) - ref))
        assert e_coarse / e_fine > 3.5  # midpoint rule: halving dt ~ quarters the error

    def test_unitary_to_rounding(self):
        sched = drive_schedule(amp=5e7)
        u = ev.propagate_unitary(
            lambda t: md.qutrit_drive_hamiltonian(sched, t=t),
            ev.TimeGrid(0, sched.duration, 32),
        )
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NonHermitianInputError):
            ev.propagate_unitary(lambda t: bad, ev.TimeGrid(0, 1e-7, 16))


class TestLindblad:
    def test_amplitude_decay_oracle(self):
        gamma = 1.0 / 30e-6
        c = math.sqrt(gamma) * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        grid = ev.TimeGrid(0, 60e-6, 400)
        traj = ev.propagate_lindblad(lambda t: np.zeros((3, 3)), [c], rho0, grid)
        pops = traj.populations()
        assert np.allclose(pops[:, 1], np.exp(-gamma * traj.times), atol=1e-8)
        assert np.allclose(pops[:, 0], 1 - np.exp(-gamma * traj.times), atol=1e-8)

    def test_pure_dephasing_oracle(self):
        gamma = 1.0 / 20e-6
        c = math.sqrt(2 * gamma) * np.diag([0.0, 1.0, 0.0]).astype(complex)
        plus = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        rho0 = np.outer(plus, plus)
        grid = ev.TimeGrid(0, 40e-6, 400)
        traj = ev.propagate_lindblad(lambda t: np.zeros((3, 3)), [c], rho0, grid)
        coh = np.abs(traj.states[:, 0, 1])
        assert np.allclose(coh, 0.5 * np.exp(-gamma * traj.times), atol=1e-8)

    def test_trace_preserved_under_drive(self):
        sched = drive_schedule()
        noise = md.paper_device().q1_noise
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        traj = ev.propagate_lindblad(
            lambda t: md.qutrit_drive_hamiltonian(sched, t=t),
            md.collapse_operators(noise),
            rho0,
            ev.TimeGrid(0, sched.duration, 512),
        )
        traces = np.einsum("tii->t", traj.states).real
        assert np.max(np.abs(traces - 1.0)) < 1e-9

    def test_step_too_large_raises(self):
        gamma = 1.0e9  # absurd rate with a coarse grid: RK4 blows up
        c = math.sqrt(gamma) * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(StepTooLargeError):
            ev.propagate_lindblad(
                lambda t: np.zeros((3, 3)), [c], rho0, ev.TimeGrid(0, 1e-6, 10)
            )

    def test_csv_round_trip(self, tmp_path):
        gamma = 1.0 / 30e-6
        c = math.sqrt(gamma) * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        traj = ev.propagate_lindblad(
            lambda t: np.zeros((3, 3)), [c], rho0, ev.TimeGrid(0, 1e-6, 16)
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        traj.to_csv(p1)
        traj.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        data = np.genfromtxt(p1, delimiter=",", names=True)
        assert data["p_1"][0] == pytest.approx(1.0)
        assert data["time_s"][-1] == pytest.approx(1e-6)


class TestSuperoperators:
    def test_unitary_channel(self):
        rng = np.random.default_rng(19)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(z)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        out = ev.apply_channel(ev.unitary_superoperator(u), rho)
        assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-12)

    def test_channel_matches_state_propagation(self):
        sched = drive_schedule()
        noise = md.paper_device().q1_noise
        collapse = md.collapse_operators(noise)
        h = lambda t: md.qutrit_drive_hamiltonian(sched, t=t)
        grid = ev.TimeGrid(0, sched.duration, 256)
        sup = ev.channel_superoperator(h, collapse, grid)
        rng = np.random.default_rng(31)
        for _ in range(4):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            rho0 = np.outer(v, v.conj())
            direct = ev.propagate_lindblad(h, collapse, rho0, grid).final
            assert np.max(np.abs(ev.apply_channel(sup, rho0) - direct)) < 1e-8

    def test_channel_is_trace_preserving(self):
        sched = drive_schedule()
        sup = ev.schedule_channel(sched, noise=md.paper_device().q1_noise)
        # TP in row-major vec: <<I| S = <<I|
        bra_i = np.eye(3).reshape(-1)
        assert np.allclose(bra_i @ sup, bra_i, atol=1e-9)


class TestScheduleDrivers:
    def test_cache_returns_same_object(self):
        ev.clear_cache()
        sched = drive_schedule()
        u1 = ev.schedule_unitary(sched)
        u2 = ev.schedule_unitary(sched)
        assert u1 is u2
        ev.clear_cache()
        u3 = ev.schedule_unitary(sched)
        assert u3 is not u1
        assert np.allclose(u3, u1)

    def test_cached_arrays_are_read_only(self):
        ev.clear_cache()
        sched = drive_schedule()
        u = ev.schedule_unitary(sched, steps=64)
        sup = ev.schedule_channel(sched, noise=md.paper_device().q1_noise, steps=64)
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
        with pytest.raises(ValueError):
            sup *= 2.0
        assert ev.schedule_unitary(sched, steps=64) is u

    def test_cache_entry_count_stays_at_bound(self, monkeypatch):
        # a whole interleaved RB run (25 channels) must fit
        assert ev.CACHE_SIZE >= 25
        monkeypatch.setattr(ev, "CACHE_SIZE", 3)
        ev.clear_cache()
        sched = drive_schedule()
        first = ev.schedule_unitary(sched, steps=40)
        evicted = ev.schedule_unitary(sched, steps=41)
        for steps in range(42, 46):
            ev.schedule_unitary(sched, steps=40)  # a hit makes it most recent
            ev.schedule_unitary(sched, steps=steps)
            assert len(ev._cache) <= 3
        assert len(ev._cache) == 3
        assert ev.schedule_unitary(sched, steps=40) is first
        assert ev.schedule_unitary(sched, steps=41) is not evicted
        ev.clear_cache()

    def test_error_params_change_key(self):
        sched = drive_schedule()
        u0 = ev.schedule_unitary(sched)
        u1 = ev.schedule_unitary(sched, err=md.ControlError(epsilon=0.05))
        assert not np.allclose(u0, u1)

    def test_trivial_noise_falls_back_to_unitary(self):
        sched = drive_schedule()
        sup = ev.schedule_channel(sched, noise=md.NO_NOISE)
        u = ev.schedule_unitary(sched)
        assert np.allclose(sup, ev.unitary_superoperator(u))

    def test_piecewise_matches_single_grid(self):
        # one smooth segment: splitting at boundaries must agree with a
        # single grid of the same density
        sched = drive_schedule()
        u_piece = ev.schedule_unitary(sched, steps=512)
        u_flat = ev.propagate_unitary(
            lambda t: md.qutrit_drive_hamiltonian(sched, t=t),
            ev.TimeGrid(0, sched.duration, 512),
        )
        assert np.max(np.abs(u_piece - u_flat)) < 1e-9
