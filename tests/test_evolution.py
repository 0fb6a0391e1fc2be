"""
Propagators: CFM4 unitary evolution (batched, exact on constant pieces),
Lindblad dynamics (exact exponentials on constant pieces, otherwise RK4
per-step maps and tree-reduced channels), channel superoperators, and the
schedule-level drivers.

Analytic oracles used here:
  - constant Rabi drive:   P_e(t) = sin^2(Omega t) for H = Omega sx
  - amplitude decay:       P_e(t) = e^{-Gamma t}
  - pure dephasing:        |rho_ge(t)| = |rho_ge(0)| e^{-gamma t}
"""

import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holosim import cli
from holosim import evolution as ev
from holosim import holonomic as hl
from holosim import model as md
from holosim import sweeps as sw
from holosim.errors import (
    DimensionMismatchError,
    HolosimError,
    NonHermitianInputError,
    OutOfRangeError,
    StepTooLargeError,
)
from holosim.operators import dagger, expm_hermitian
from holosim.pulses import GateSchedule, PulseSegment, SquareWithRamps, TruncatedGaussian


SX3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
DECAY_10 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)  # |0><1|


def drive_schedule(amp=1.0e7, duration=60e-9, phase=0.0):
    seg = PulseSegment(TruncatedGaussian(sigma=duration / 4, peak_amplitude=amp), "ge", phase)
    return GateSchedule((seg,), duration)


def entry_major(stack):
    """A copy of a (..., d, d) stack stored as (d, d, ...), viewed as (..., d, d)."""
    moved = np.ascontiguousarray(np.moveaxis(stack, (-2, -1), (0, 1)))
    return np.moveaxis(moved, (0, 1), (-2, -1))


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            ev.TimeGrid(0.0, 0.0, 100)
        with pytest.raises(OutOfRangeError):
            ev.TimeGrid(0.0, 1.0, 5)

    def test_dt_and_for_duration(self):
        g = ev.TimeGrid(0.0, 1e-6, 1000)
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

        # a 16384-step reference carries about 4e-12 of accumulated rounding,
        # as much as the 256-step error itself; at 2048 steps the
        # reference's own error and rounding both stay far below it
        ref = ev.propagate_unitary(h, ev.TimeGrid(0, sched.duration, 2048))
        e_coarse = np.max(np.abs(ev.propagate_unitary(h, ev.TimeGrid(0, sched.duration, 128)) - ref))
        e_fine = np.max(np.abs(ev.propagate_unitary(h, ev.TimeGrid(0, sched.duration, 256)) - ref))
        assert e_coarse / e_fine > 3.5  # at least second order: halving dt ~ quarters the error

    def test_fourth_order_convergence(self):
        # detuned drive: H(t) at different times do not commute, so the order
        # of CFM4's two exponentials matters (swapped, this ratio is about 4)
        sched = drive_schedule()
        err = md.ControlError(detuning=2 * math.pi * 5e6)

        def propagate(steps):
            return ev.propagate_unitary(
                lambda t: md.qutrit_drive_hamiltonian(sched, err, t),
                ev.TimeGrid(0, sched.duration, steps),
            )

        ref = propagate(4096)
        e_coarse = np.max(np.abs(propagate(64) - ref))
        e_fine = np.max(np.abs(propagate(128) - ref))
        assert e_coarse / e_fine >= 12.0  # fourth order: halving dt ~ 16x

    def test_constant_piece_is_one_exact_exponential(self, monkeypatch):
        seg = PulseSegment(SquareWithRamps(50e-9, ramp=0.0, peak_amplitude=3e7), "ge", 0.4)
        sched = GateSchedule((seg,), 50e-9)
        err = md.ControlError(epsilon=0.02, detuning=2 * math.pi * 3e6)
        stacks = []

        def counting(h, prefactor=-1j):
            stacks.append(np.shape(h))
            return expm_hermitian(h, prefactor)

        monkeypatch.setattr(ev, "expm_hermitian", counting)
        u = ev.schedule_unitary(sched, err, steps=256)
        h = md.qutrit_drive_hamiltonian(sched, err, t=25e-9)
        assert stacks == [(3, 3)]
        assert np.max(np.abs(u - expm_hermitian(h, prefactor=-1j * 50e-9))) < 1e-13

    def test_batch_axes_match_single_calls(self):
        # every member sees the arithmetic of a single call, bit for bit;
        # epsilon = -1 switches the drive off, so that member's Hamiltonian is
        # constant and takes the exact exponential while the others step
        sched = drive_schedule(amp=5e7)
        eps = np.array([[-1.0], [-0.05], [0.1]])
        dets = 2 * math.pi * 1e6 * np.array([0.5, -1.0])
        u = ev.schedule_unitary(sched, md.ControlError(eps, dets), steps=128)
        assert u.shape == (3, 2, 3, 3)
        for i, j in np.ndindex(3, 2):
            err = md.ControlError(float(eps[i, 0]), float(dets[j]))
            single = ev.schedule_unitary(sched, err, steps=128)
            assert np.array_equal(u[i, j], single)
        assert np.allclose(u[0, 0], np.diag(np.exp(-1j * dets[0] * sched.duration * np.arange(3))))

    def test_long_grids_exponentiate_in_bounded_stacks(self, monkeypatch):
        sizes = []

        def counting(h, prefactor=-1j):
            sizes.append(int(np.prod(np.shape(h)[:-2])))
            return expm_hermitian(h, prefactor)

        sched = drive_schedule()
        h = lambda t: md.qutrit_drive_hamiltonian(sched, t=t)
        monkeypatch.setattr(ev, "expm_hermitian", counting)
        ev.propagate_unitary(h, ev.TimeGrid(0, sched.duration, 3 * ev._CHUNK_STEPS + 5))
        assert sizes == [2 * ev._CHUNK_STEPS] * 3 + [10]

    def test_layout_of_the_hamiltonian_stack_does_not_change_bits(self):
        # the builders return entry-major stacks; a C-ordered copy, or a
        # callable that only builds one matrix at a time (evaluated point by
        # point and stacked), gives the same propagator bit for bit
        sched = drive_schedule(amp=5e7)
        err = md.ControlError(np.array([-0.05, 0.1]), 2 * math.pi * 0.4e6)
        grid = ev.TimeGrid(0, sched.duration, 64)
        built = lambda t: md.qutrit_drive_hamiltonian(sched, err, t)
        assert not built(np.zeros(4)).flags.c_contiguous
        u = ev.propagate_unitary(built, grid)
        assert np.array_equal(ev.propagate_unitary(lambda t: np.ascontiguousarray(built(t)), grid), u)
        for k in range(2):
            err_k = md.ControlError(float(err.epsilon[k]), err.detuning)
            one_at_a_time = lambda t: md.qutrit_drive_hamiltonian(sched, err_k, np.ravel(t)[0])
            assert np.array_equal(ev.propagate_unitary(one_at_a_time, grid), u[k])

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

    def test_step_phase_above_bound_rejected(self):
        # |H|_inf dt = 1e9 * 1e-7 / 16 = 6.25 rad: the midpoint rule would
        # return a unitary that no longer approximates the evolution
        grid = ev.TimeGrid(0, 1e-7, 16)
        with pytest.raises(StepTooLargeError, match="per-step phase"):
            ev.propagate_unitary(lambda t: 1.0e9 * SX3, grid)
        with pytest.raises(StepTooLargeError, match="per-step phase"):
            ev.channel_superoperator(lambda t: 1.0e9 * SX3, [], grid)


class TestOrderedProduct:
    @staticmethod
    def unitaries(rng, shape):
        z = rng.normal(size=shape + (3, 3)) + 1j * rng.normal(size=shape + (3, 3))
        return expm_hermitian(z + np.conj(np.swapaxes(z, -1, -2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 129])
    def test_3x3_tree_matches_left_to_right_matmuls(self, n):
        mats = self.unitaries(np.random.default_rng(n), (2, 3, n))
        want = np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3, 3))
        for k in range(n):
            want = mats[..., k, :, :] @ want  # the last factor leftmost
        got = ev._ordered_product(mats)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("d", [1, 3, 5, 8])
    def test_matmul_tree_matches_left_to_right_matmuls(self, d):
        # the channel reduction for every block size, 3x3 sector maps included
        rng = np.random.default_rng(d)
        mats = rng.normal(size=(4, 67, d, d)) + 1j * rng.normal(size=(4, 67, d, d))
        mats /= np.linalg.norm(mats, axis=(-2, -1), keepdims=True)
        want = np.broadcast_to(np.eye(d, dtype=complex), (4, d, d))
        for k in range(67):
            want = mats[..., k, :, :] @ want
        assert np.max(np.abs(ev._matmul_product(mats) - want)) < 1e-15

    def test_layout_does_not_change_bits(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(2, 37, 3, 3)) + 1j * rng.normal(size=(2, 37, 3, 3))
        h = 0.3 * (z + np.conj(np.swapaxes(z, -1, -2)))
        c_order = np.ascontiguousarray(expm_hermitian(h))
        product = ev._ordered_product(c_order)
        assert np.array_equal(ev._ordered_product(entry_major(c_order)), product)
        for k in range(2):
            assert np.array_equal(ev._ordered_product(c_order[k]), product[k])


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

    def test_hamiltonian_shape_mismatches_rejected(self):
        # the dimension is read from the evaluated Hamiltonian stack; a
        # non-square one, or one that disagrees with rho0, is refused
        grid = ev.TimeGrid(0, 1e-6, 10)
        with pytest.raises(DimensionMismatchError):
            ev.channel_superoperator(lambda t: np.zeros((3, 2)), [], grid)
        with pytest.raises(DimensionMismatchError):
            ev.propagate_unitary(lambda t: np.zeros(3), grid)
        with pytest.raises(DimensionMismatchError):
            ev.propagate_lindblad(lambda t: np.zeros((3, 3)), [], np.eye(2) / 2, grid)

    def test_repeated_dissipator_is_the_same_read_only_superoperator(self):
        ops = md.collapse_operators(md.paper_device().q1_noise)
        first = ev._dissipator(ops, 3)
        again = ev._dissipator([np.array(c) for c in ops], 3)
        assert again is first and not first.flags.writeable
        other = ev._dissipator(ops[:1], 3)
        assert other is not first and not np.array_equal(other, first)


class TestDissipator:
    @pytest.mark.parametrize("model", ["qutrit q1", "six-level q1", "six-level q2", "none"])
    def test_equals_the_kron_formula_bit_for_bit(self, model):
        dev = md.paper_device()
        ops, dim = {
            "qutrit q1": (md.collapse_operators(dev.q1_noise), 3),
            "six-level q1": (md.six_level_collapse_operators(dev.q1_noise, dev.cavity_noise), 6),
            "six-level q2": (md.six_level_collapse_operators(dev.q2_noise, dev.cavity_noise), 6),
            "none": ([], 3),
        }[model]
        anti = sum((dagger(c) @ c for c in ops), np.zeros((dim, dim), dtype=complex))
        eye = np.eye(dim)
        want = np.zeros((dim * dim, dim * dim), dtype=complex)
        for c in ops:
            want += np.kron(c, c.conj())
        want -= 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
        ev._last_dissipator = (None, None)  # build it, not the previous result
        assert ev._dissipator(ops, dim).tobytes() == want.tobytes()


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

    def test_flat_top_pieces_keep_rk4_order(self):
        # the sin^2 ramps meet the flat top with a jump in the second
        # derivative; split there, 256 RK4 steps are within 6.2e-9 of 8192
        # (5.4e-5 when the kinks fell inside steps)
        dev = md.paper_device()
        sched = hl.synthesize_cavity_gate(
            math.pi / 2, math.pi, 0.0, dev.g1 / math.sin(math.pi / 4)
        )

        def channel(steps):
            return ev.schedule_channel(
                sched, dev.q1_noise, steps=steps, space="cavity_effective"
            )

        assert np.max(np.abs(channel(256) - channel(8192))) < 1e-7

    def test_sub_femtosecond_schedule_is_propagated(self):
        # the piece threshold is relative to the duration: a 40 as half-loop
        # (sigma 1e-17 s) is the same gate as a 60 ns one, not the identity
        h = hl.QUBIT_GATES["H"]
        sched = hl.synthesize_qubit_gate(h, hl.qubit_half(TruncatedGaussian(sigma=1e-17)))
        assert len(ev._piece_grids(sched, 512)) == 2
        u = ev.schedule_unitary(sched, steps=512)
        assert hl.synthesis_infidelity(u, h) < 1e-12
        sup = ev.schedule_channel(sched, md.paper_device().q1_noise, steps=512)
        # decay over 80 as is nil: the channel is the gate's unitary channel
        assert np.max(np.abs(sup - ev.unitary_superoperator(u))) < 1e-7

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


def loop_rk4(h, collapse_ops, grid, s):
    """The per-step RK4 loop that the step-map core replaced, as a reference.

    Integrates dS/dt = L(t) S on a (d^2, n) block S and returns every node,
    (steps + 1, d^2, n).
    """
    d2, n = s.shape
    dim = math.isqrt(d2)
    eye = np.eye(dim)
    diss = np.zeros((d2, d2), dtype=complex)
    for c in collapse_ops:
        cdc = c.conj().T @ c
        diss += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    dt = grid.dt
    nodes = grid.t0 + dt * np.arange(grid.steps + 1)
    h_nodes = [np.asarray(h(float(t)), dtype=complex) for t in nodes]
    h_mids = [np.asarray(h(float(t) + 0.5 * dt), dtype=complex) for t in nodes[:-1]]

    def rhs(ht, m):
        x = m.reshape(dim, dim, n)
        comm = np.einsum("ab,bcm->acm", ht, x) - np.einsum("abm,bc->acm", x, ht)
        return (-1j) * comm.reshape(d2, n) + diss @ m

    history = [s]
    for k in range(grid.steps):
        k1 = rhs(h_nodes[k], s)
        k2 = rhs(h_mids[k], s + 0.5 * dt * k1)
        k3 = rhs(h_mids[k], s + 0.5 * dt * k2)
        k4 = rhs(h_nodes[k + 1], s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        history.append(s)
    return np.stack(history)


def _qutrit_case():
    sched = hl.synthesize_qubit_gate(hl.QUBIT_GATES["H"])
    h = lambda t: md.qutrit_drive_hamiltonian(sched, t=t)
    collapse = md.collapse_operators(md.paper_device().q1_noise)
    return h, collapse, 0.0, sched.boundaries()[1]  # first segment, 60 ns


def _six_level_case():
    dev = md.paper_device()
    sched = hl.synthesize_cavity_gate(math.pi / 2, math.pi, 0.0, dev.g1 / math.sin(math.pi / 4))
    h = lambda t: md.six_level_cavity_hamiltonian(sched, t=t)
    collapse = md.six_level_collapse_operators(dev.q1_noise, dev.cavity_noise)
    return h, collapse, 0.0, sched.duration


CASES = {"qutrit": (_qutrit_case, 3), "six_level": (_six_level_case, 6)}


def _chunk_steps(dim):
    return ev._CHUNK_ENTRIES // dim**4


class TestStepMapCore:
    # steps straddle a six-level chunk edge (32 steps) and leave short last
    # chunks; the qutrit also runs across its own chunk edge
    @pytest.mark.parametrize(
        "case, steps",
        [(c, n) for c in CASES for n in (10, 31, 32, 33, 257)]
        + [("qutrit", _chunk_steps(3) + n) for n in (-1, 0, 1)],
    )
    def test_matches_the_per_step_loop(self, case, steps):
        build, dim = CASES[case]
        h, collapse, t0, t1 = build()
        grid = ev.TimeGrid(t0, t1, steps)
        d2 = dim * dim
        ref = loop_rk4(h, collapse, grid, np.eye(d2, dtype=complex))[-1]
        assert np.max(np.abs(ev.channel_superoperator(h, collapse, grid) - ref)) < 1e-12
        rng = np.random.default_rng(steps)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        rho0 = np.outer(v, v.conj()) / np.vdot(v, v).real
        ref_nodes = loop_rk4(h, collapse, grid, rho0.reshape(d2, 1))
        traj = ev.propagate_lindblad(h, collapse, rho0, grid)
        assert traj.states.shape == (steps + 1, dim, dim)
        assert np.max(np.abs(traj.states - ref_nodes.reshape(-1, dim, dim))) < 1e-12

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_repeat_calls_are_bit_identical(self, case):
        build, dim = CASES[case]
        h, collapse, t0, t1 = build()
        grid = ev.TimeGrid(t0, t1, 257)
        first = ev.channel_superoperator(h, collapse, grid)
        assert np.array_equal(first, ev.channel_superoperator(h, collapse, grid))
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
        a = ev.propagate_lindblad(h, collapse, rho0, grid).states
        assert np.array_equal(a, ev.propagate_lindblad(h, collapse, rho0, grid).states)

    def test_dissipator_step_above_bound_rejected(self):
        # |D|_inf dt = 1e9 * 1e-7 = 100: RK4 would return entries of ~1e66
        c = math.sqrt(1e9) * DECAY_10
        with pytest.raises(StepTooLargeError, match="per-step decay"):
            ev.channel_superoperator(lambda t: np.zeros((3, 3)), [c], ev.TimeGrid(0, 1e-6, 10))

    def test_commutator_step_above_bound_rejected(self):
        # |H|_inf dt = 2.4 rad passes the midpoint bound, but the commutator
        # reaches 2|H| = 4.8 rad per step, outside RK4's stability region:
        # unguarded, the channel has entries of 3e12 and the trajectory keeps
        # trace 1 with coherences of 1e12
        def h(t):
            return 24.0 * np.diag([1.0, -1.0, 0.0]).astype(complex)

        grid = ev.TimeGrid(0, 1, 10)
        plus = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        with pytest.raises(StepTooLargeError, match="per-step phase"):
            ev.channel_superoperator(h, [], grid)
        with pytest.raises(StepTooLargeError, match="per-step phase"):
            ev.propagate_lindblad(h, [], plus, grid)

    def test_nan_at_the_midpoints_only_rejected(self):
        def h(t):
            mid = np.isclose(np.asarray(t) * 10 % 1, 0.5)
            return np.where(mid, np.nan, 0.0)[..., None, None] * SX3

        with pytest.raises(StepTooLargeError):
            ev.channel_superoperator(h, [], ev.TimeGrid(0, 1, 10))


def liouvillian(hmat, collapse_ops):
    """Dense row-major Liouvillian -i[H, .] + sum_k D[c_k], from Kronecker
    products: vec(A rho B) = kron(A, B^T) vec(rho)."""
    dim = hmat.shape[0]
    eye = np.eye(dim)
    out = -1j * (np.kron(hmat, eye) - np.kron(eye, hmat.T))
    for c in collapse_ops:
        cdc = c.conj().T @ c
        out += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return out


def choi(sup):
    """Choi matrix sum_ce |c><e| (x) S(|c><e|) of a row-major superoperator."""
    d = math.isqrt(sup.shape[0])
    return sup.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


class TestConstantPieces:
    def _problem(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        hmat = 2.0e7 * (x + x.conj().T)
        collapse = md.collapse_operators(md.paper_device().q1_noise)
        return hmat, collapse, ev.TimeGrid(0.0, 200e-9, 64)

    def test_channel_is_the_exact_exponential(self):
        hmat, collapse, grid = self._problem()
        sup = ev.channel_superoperator(lambda t: hmat, collapse, grid)
        exact = scipy.linalg.expm(liouvillian(hmat, collapse) * (grid.t1 - grid.t0))
        assert np.max(np.abs(sup - exact)) < 1e-13

    def test_channel_is_cptp(self):
        hmat, collapse, grid = self._problem()
        sup = ev.channel_superoperator(lambda t: hmat, collapse, grid)
        bra_i = np.eye(3).reshape(-1)
        assert np.max(np.abs(bra_i @ sup - bra_i)) < 1e-13
        j = choi(sup)
        assert np.max(np.abs(j - j.conj().T)) < 1e-13
        assert np.linalg.eigvalsh(0.5 * (j + j.conj().T)).min() >= -1e-12

    def test_trajectory_ends_on_the_channel(self):
        hmat, collapse, grid = self._problem()
        rho0 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        traj = ev.propagate_lindblad(lambda t: hmat, collapse, rho0, grid)
        sup = ev.channel_superoperator(lambda t: hmat, collapse, grid)
        assert np.max(np.abs(traj.final - ev.apply_channel(sup, rho0))) < 1e-12

    # constant pieces run their guards on one node; these pin that the
    # verdicts and messages are those of the whole stack
    GRID = ev.TimeGrid(0, 1e-7, 16)

    @staticmethod
    def _refusal(call):
        with pytest.raises(HolosimError) as info:
            call()
        return type(info.value), str(info.value)

    def test_constant_piece_above_step_bound_refused_as_a_stepped_one(self):
        # |H|_inf dt = 6.25 rad on both; the stepped H halves after t1 / 2
        const = lambda t: 1.0e9 * SX3
        stepped = lambda t: np.where(np.asarray(t) < 5e-8, 1.0, 0.5)[..., None, None] * 1.0e9 * SX3
        for run in (ev.propagate_unitary, lambda h, g: ev.channel_superoperator(h, [], g)):
            refusal = self._refusal(lambda: run(const, self.GRID))
            assert refusal[0] is StepTooLargeError and "per-step phase" in refusal[1]
            assert refusal == self._refusal(lambda: run(stepped, self.GRID))

    @pytest.mark.parametrize("last, unitary_error, channel_error", [
        (1.0e9 * SX3, StepTooLargeError, StepTooLargeError),
        (np.nan * SX3, NonHermitianInputError, StepTooLargeError),
        (1.0e6 * DECAY_10, NonHermitianInputError, NonHermitianInputError),
    ])
    def test_stack_constant_but_for_its_last_node_refused(self, last, unitary_error, channel_error):
        def h(t):
            out = np.repeat((1.0e6 * SX3)[None], np.size(t), axis=0)
            out[-1] = last
            return out

        with pytest.raises(unitary_error):
            ev.propagate_unitary(h, self.GRID)
        with pytest.raises(channel_error):
            ev.channel_superoperator(h, [], self.GRID)

    @pytest.mark.parametrize("scale", [
        lambda t: np.ones(np.shape(t)),  # a constant piece
        lambda t: 1.0 + np.asarray(t) / 1e-7,
    ])
    def test_non_hermitian_hamiltonian_refused_by_the_lindblad_path(self, scale):
        h = lambda t: scale(t)[..., None, None] * 1.0e6 * DECAY_10
        rho0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
        message = self._refusal(lambda: ev.propagate_unitary(h, self.GRID))
        assert message[0] is NonHermitianInputError
        assert self._refusal(lambda: ev.channel_superoperator(h, [], self.GRID)) == message
        assert self._refusal(lambda: ev.propagate_lindblad(h, [], rho0, self.GRID)) == message

    @pytest.mark.parametrize("schedule, rk4_steps", [
        ("gate", 28),  # two 14-step sin^2 ramps; the flat top is one exponential
        ("swap", 134),
    ])
    def test_only_non_constant_pieces_take_rk4_steps(self, monkeypatch, schedule, rk4_steps):
        dev = md.paper_device()
        if schedule == "gate":
            sched = hl.synthesize_cavity_gate(
                math.pi / 2, math.pi, 0.0, dev.g1 / math.sin(math.pi / 4)
            )
        else:
            sched = sw.encode_swap_schedule(dev.g_swap, sw.ENCODE_PHASE)
        # steps per sector size, one dict per piece: six-level maps run per
        # sector group, (groups, steps, s, s), so each group size steps
        # through the whole piece and the piece's step count is read once
        pieces = []
        rk4_maps, channel = ev._rk4_maps, ev.channel_superoperator

        def per_piece(h, collapse_ops, grid):
            pieces.append({})
            return channel(h, collapse_ops, grid)

        def counting(l_nodes, l_mids, dt):
            size = l_mids.shape[-1]
            pieces[-1][size] = pieces[-1].get(size, 0) + l_mids.shape[-3]
            return rk4_maps(l_nodes, l_mids, dt)

        monkeypatch.setattr(ev, "channel_superoperator", per_piece)
        monkeypatch.setattr(ev, "_rk4_maps", counting)
        sup = ev.schedule_channel(
            sched, dev.q1_noise, steps=2048, space="cavity_full",
            cavity_noise=dev.cavity_noise,
        )
        assert len(pieces) == 3 and all(len(set(p.values())) <= 1 for p in pieces)
        assert sum(max(p.values(), default=0) for p in pieces) == rk4_steps
        bra_i = np.eye(6).reshape(-1)
        assert np.max(np.abs(bra_i @ sup - bra_i)) < 1e-9


def paper_leg(leg):
    """A decohered paper-device leg of the cavity pipeline: its schedule,
    transmon noise and six-level Hamiltonian."""
    dev = md.paper_device()
    if leg == "gate":
        sched = hl.synthesize_cavity_gate(
            math.pi / 2, math.pi, 0.0, dev.g1 / math.sin(math.pi / 4)
        )
        noise = dev.q1_noise
    else:
        sched, noise = sw.encode_swap_schedule(dev.g_swap, sw.ENCODE_PHASE), dev.q2_noise
    return sched, noise, lambda t: md.six_level_cavity_hamiltonian(sched, t=t)


def record_sectors(monkeypatch):
    """Every result of ev._sectors from now on, in call order."""
    seen, sectors = [], ev._sectors

    def recording(pattern):
        seen.append(sectors(pattern))
        return seen[-1]

    monkeypatch.setattr(ev, "_sectors", recording)
    return seen


def sector_mask(groups, n):
    """Boolean (n, n) mask of the diagonal blocks of a _sectors result."""
    mask = np.zeros((n, n), dtype=bool)
    for idx in groups:
        mask[idx[:, :, None], idx[:, None, :]] = True
    return mask


def loop_cfm4(h, grid):
    """Dense CFM4, one pair of 6x6 scipy exponentials per step, as a reference."""
    u = np.eye(np.asarray(h(grid.t0)).shape[-1], dtype=complex)
    for k in range(grid.steps):
        t = grid.t0 + k * grid.dt
        h1, h2 = (np.asarray(h(t + c * grid.dt)) for c in (ev._C1, ev._C2))
        first = scipy.linalg.expm(-1j * grid.dt * (ev._A1 * h1 + ev._A2 * h2))
        u = scipy.linalg.expm(-1j * grid.dt * (ev._A2 * h1 + ev._A1 * h2)) @ first @ u
    return u


class TestSectors:
    #: sector sizes of the paper legs: (Liouvillian, Hamiltonian), largest first
    SIZES = {
        "swap": ([8, 5, 5, 3, 3, 3, 3] + [1] * 6, [2, 1, 1, 1, 1]),
        "gate": ([20, 7, 7, 1, 1], [3, 1, 1, 1]),
    }
    DRIVEN = {"swap": [2, 3], "gate": [0, 2, 3]}  # |0g> 0, |0f> 2, |1g> 3

    @pytest.mark.parametrize("leg", sorted(SIZES))
    def test_sector_sizes_of_the_paper_legs(self, monkeypatch, leg):
        sched, noise, h = paper_leg(leg)
        collapse = md.six_level_collapse_operators(noise, md.paper_device().cavity_noise)
        seen = record_sectors(monkeypatch)
        grid = ev.TimeGrid(0.0, sched.boundaries()[1], 16)  # the rising ramp
        ev.channel_superoperator(h, collapse, grid)
        ev.propagate_unitary(h, grid)
        sizes = [sorted((idx.shape[1] for idx in groups for _ in idx), reverse=True)
                 for groups in seen]
        assert sizes == list(self.SIZES[leg])
        assert seen[1][-1].tolist() == [self.DRIVEN[leg]]
        # the sectors are invariant: the dense Liouvillian is zero off them
        mask = sector_mask(seen[0], 36)
        for t in np.linspace(grid.t0, grid.t1, 5):
            assert not np.any(liouvillian(h(t), collapse)[~mask])

    @pytest.mark.parametrize("leg", sorted(SIZES))
    def test_pieces_match_dense_references(self, monkeypatch, leg):
        sched, noise, h = paper_leg(leg)
        collapse = md.six_level_collapse_operators(noise, md.paper_device().cavity_noise)
        seen = record_sectors(monkeypatch)
        for a, b, n in ev._piece_grids(sched, 256):
            grid = ev.TimeGrid(a, b, n)
            sup = ev.channel_superoperator(h, collapse, grid)
            u = ev.propagate_unitary(h, grid)
            h0 = h(a)
            if np.array_equal(h0, h(0.5 * (a + b))):  # the flat top: exact exponentials
                ref_sup = scipy.linalg.expm(liouvillian(h0, collapse) * (b - a))
                ref_u = scipy.linalg.expm(-1j * (b - a) * h0)
            else:
                ref_sup = loop_rk4(h, collapse, grid, np.eye(36, dtype=complex))[-1]
                ref_u = loop_cfm4(h, grid)
            assert np.max(np.abs(sup - ref_sup)) <= 1e-13
            assert np.max(np.abs(u - ref_u)) <= 1e-13
            assert not np.any(sup[~sector_mask(seen[-2], 36)])
            assert not np.any(u[~sector_mask(seen[-1], 6)])

    @pytest.mark.parametrize("leg", sorted(SIZES))
    def test_leg_channels_are_cptp(self, leg):
        sched, noise, _ = paper_leg(leg)
        sup = ev.schedule_channel(
            sched, noise, steps=2048, space="cavity_full",
            cavity_noise=md.paper_device().cavity_noise,
        )
        bra_i = np.eye(6).reshape(-1)
        assert np.max(np.abs(bra_i @ sup - bra_i)) <= 1e-12
        j = choi(sup)
        assert np.max(np.abs(j - j.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(0.5 * (j + j.conj().T)).min() >= -1e-12

    @pytest.mark.parametrize("space", ["qutrit", "cavity_effective"])
    def test_three_level_spaces_stay_dense(self, monkeypatch, space):
        # a theta = 0 loop leaves the ge tone silent, so its Liouvillian
        # splits too; d = 3 must still take the dense path
        def refuse(pattern):
            raise AssertionError("a three-level space was split into sectors")

        monkeypatch.setattr(ev, "_sectors", refuse)
        if space == "qutrit":
            sched = hl.synthesize_qubit_gate(hl.QUBIT_GATES["Z_pi"])
        else:
            sched = hl.synthesize_cavity_gate(0.0, math.pi, 0.0, 2e7)
        u = ev.schedule_unitary(sched, steps=256, space=space)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
        sup = ev.schedule_channel(sched, md.paper_device().q1_noise, steps=256, space=space)
        bra_i = np.eye(3).reshape(-1)
        assert np.max(np.abs(bra_i @ sup - bra_i)) < 1e-12


class TestWorkingSet:
    # traced peaks of one paper-device swap channel before the sector split
    # (numpy 2.4, x86-64): 4.59 MiB at 2048 steps, 21.99 MiB at 16384, where
    # the flat top's Hamiltonian stack and its guard dominate
    @pytest.mark.parametrize("steps, before_mib", [(2048, 4.6), (16384, 22.0)])
    def test_six_level_swap_channel_peak_does_not_rise(self, steps, before_mib):
        sched, noise, _ = paper_leg("swap")
        cavity_noise = md.paper_device().cavity_noise

        def run(n):
            return ev.schedule_channel(
                sched, noise, steps=n, space="cavity_full", cavity_noise=cavity_noise
            )

        run(64)  # imports and first-call caches stay outside the trace
        tracemalloc.start()
        try:
            run(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= before_mib * 2**20


    def test_paper_swap_channel_at_the_step_cap_stays_small(self):
        # a flat top is one node broadcast over its grid, so the working set
        # is the ramps' stacks; it traced 73.98 MiB when the flat top's
        # Hamiltonian was built, and compared, at all of its 122 503 nodes
        sched, noise, _ = paper_leg("swap")
        cavity_noise = md.paper_device().cavity_noise

        def run(n):
            return ev.schedule_channel(
                sched, noise, steps=n, space="cavity_full", cavity_noise=cavity_noise
            )

        run(64)
        tracemalloc.start()
        try:
            run(cli.MAX_STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


def cli_schedules():
    """(name, schedule, space) of every schedule shape the CLI integrates:
    the swap, cavity gates with gamma = pi and not, all 24 Cliffords and the
    dynamic sweep gates."""
    dev = md.paper_device()
    out = [("swap", sw.encode_swap_schedule(dev.g_swap, sw.ENCODE_PHASE), "cavity_full")]
    for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        sched = sw.cavity_gate_schedule(theta, 0.3, None, dev)
        out += [(f"cavity {theta:.3f}", sched, space) for space in ("cavity_full", "cavity_effective")]
    out.append(("cavity gamma 1.1", hl.synthesize_cavity_gate(2.0, 1.1, 0.4, 3e7), "cavity_full"))
    out += [(f"clifford {k}", hl.synthesize_qubit_gate(p), "qutrit")
            for k, p in enumerate(hl.clifford_table())]
    out += [(f"dynamic {g}", sw.reference_gate("dynamic", g)[0], "qutrit")
            for g in sw.FAMILY_GATES["dynamic"]]
    return out


CLI_SCHEDULES = cli_schedules()


def piece_node_sets(grid):
    """The two node sets a piece is evaluated on: CFM4's Gauss nodes and the
    RK4 nodes followed by the midpoints."""
    starts = grid.t0 + grid.dt * np.arange(grid.steps)
    gauss = (starts[:, None] + grid.dt * np.array([ev._C1, ev._C2])).reshape(-1)
    return gauss, np.concatenate(ev._rk4_nodes(grid))


class TestFlatTopPieces:
    @pytest.mark.parametrize("name, sched, space", CLI_SCHEDULES, ids=[c[0] for c in CLI_SCHEDULES])
    @pytest.mark.parametrize("err", [md.NO_ERROR, md.ControlError(0.03, 2e5)])
    def test_one_node_verdict_is_the_full_stack_verdict(self, name, sched, space, err):
        builder = ev.SPACES[space][0]
        flat_tops = 0
        for steps in (64, 2048):
            for a, b, n in ev._piece_grids(sched, steps):
                h = ev._piece_hamiltonian(builder, sched, err, a, b)
                for times in piece_node_sets(ev.TimeGrid(a, b, n)):
                    stack, full = h(times), builder(sched, err, times)
                    one_node = stack.strides[-3] == 0
                    assert one_node == bool(np.all(full == full[..., :1, :, :]))
                    assert np.ascontiguousarray(stack).tobytes() == np.ascontiguousarray(full).tobytes()
                    flat_tops += one_node
        # two node sets, two step counts: each flat top is found four times
        assert flat_tops == (0 if name.startswith(("clifford", "dynamic")) else
                             8 if "gamma" in name else 4)

    def test_a_flat_span_that_rounding_breaks_is_caught_by_the_samples(self):
        # the rectangle's flat span covers its piece, but its end, start +
        # flat, rounds past the last RK4 node's local time, which reads 0
        gauss = PulseSegment(TruncatedGaussian(sigma=15e-9, peak_amplitude=1e7),
                             "two_photon", 0.0, 1e-9)
        rect = PulseSegment(SquareWithRamps(80e-9, 0.0, 1e7), "raman", 0.3, gauss.end)
        sched = GateSchedule((gauss, rect), rect.end)
        a, b, n = ev._piece_grids(sched, 64)[-1]
        assert (a, b) == (rect.start, rect.end)
        times = piece_node_sets(ev.TimeGrid(a, b, n))[1]
        stack = ev._piece_hamiltonian(md.six_level_cavity_hamiltonian, sched, md.NO_ERROR, a, b)(times)
        full = md.six_level_cavity_hamiltonian(sched, md.NO_ERROR, times)
        assert stack.strides[-3] != 0 and not np.all(full == full[0])
        assert np.ascontiguousarray(stack).tobytes() == np.ascontiguousarray(full).tobytes()

    def test_batched_control_errors_broadcast_one_node(self):
        sched = sw.encode_swap_schedule(md.paper_device().g_swap, sw.ENCODE_PHASE)
        err = md.ControlError(np.array([-0.05, 0.0, 0.05])[:, None], np.array([0.0, 3e5]))
        a, b, n = ev._piece_grids(sched, 512)[1]
        grid = ev.TimeGrid(a, b, n)
        times = piece_node_sets(grid)[0]
        h = ev._piece_hamiltonian(md.six_level_cavity_hamiltonian, sched, err, a, b)
        assert h(times).shape == (3, 2, times.size, 6, 6) and h(times).strides[-3] == 0
        full = lambda t: md.six_level_cavity_hamiltonian(sched, err, t)
        assert ev.propagate_unitary(h, grid).tobytes() == ev.propagate_unitary(full, grid).tobytes()


def zero_stride_pair(h0):
    """h(t) returning h0 on every node as a zero-stride view, and as a
    materialized entry-major copy."""
    broadcast = lambda t: np.broadcast_to(h0[..., None, :, :],
                                          h0.shape[:-2] + (np.size(t),) + h0.shape[-2:])
    return broadcast, lambda t: entry_major(np.array(broadcast(t)))


class TestZeroStrideStacks:
    GRID = ev.TimeGrid(0.0, 1e-7, 16)

    @staticmethod
    def _runs(collapse):
        rho0 = lambda d: np.diag(np.arange(1.0, d + 1) / (d * (d + 1) / 2)).astype(complex)
        return {
            "unitary": lambda h, g: ev.propagate_unitary(h, g),
            "channel": lambda h, g: ev.channel_superoperator(h, collapse(h), g),
            "trajectory": lambda h, g: ev.propagate_lindblad(
                h, collapse(h), rho0(h(np.zeros(1)).shape[-1]), g).states,
        }

    @staticmethod
    def _collapse(h):
        d = h(np.zeros(1)).shape[-1]
        if d == 3:
            return md.collapse_operators(md.paper_device().q1_noise)
        return md.six_level_collapse_operators(md.paper_device().q2_noise,
                                               md.paper_device().cavity_noise)

    def _flat_tops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sched = sw.encode_swap_schedule(md.paper_device().g_swap, sw.ENCODE_PHASE)
        mid = 0.5 * sched.duration
        return [1e7 * (x + x.conj().T), md.six_level_cavity_hamiltonian(sched, t=mid)]

    @pytest.mark.parametrize("run", ["unitary", "channel", "trajectory"])
    def test_same_bits_as_the_materialized_stack(self, run):
        call = self._runs(self._collapse)[run]
        for h0 in self._flat_tops():
            broadcast, materialized = zero_stride_pair(h0)
            got, want = call(broadcast, self.GRID), call(materialized, self.GRID)
            assert got.tobytes() == want.tobytes()

    def test_batch_axes_give_the_same_propagators(self):
        h0 = np.stack([0.5 * self._flat_tops()[0], self._flat_tops()[0]])
        broadcast, materialized = zero_stride_pair(h0)
        got = ev.propagate_unitary(broadcast, self.GRID)
        assert got.tobytes() == ev.propagate_unitary(materialized, self.GRID).tobytes()

    @pytest.mark.parametrize("h0, errors", [
        (1.0e9 * SX3, {"unitary": StepTooLargeError, "channel": StepTooLargeError}),
        (1.0e6 * DECAY_10, {"unitary": NonHermitianInputError, "channel": NonHermitianInputError}),
        (np.nan * SX3, {"unitary": NonHermitianInputError, "channel": StepTooLargeError}),
    ], ids=["step", "non-hermitian", "nan"])
    def test_same_refusals_as_the_materialized_stack(self, h0, errors):
        runs = self._runs(lambda h: [])
        for run, error in {**errors, "trajectory": errors["channel"]}.items():
            refusals = []
            for h in zero_stride_pair(h0):
                with pytest.raises(HolosimError) as info:
                    runs[run](h, self.GRID)
                refusals.append((type(info.value), str(info.value)))
            assert refusals[0] == refusals[1] and refusals[0][0] is error


@st.composite
def lindblad_problems(draw):
    """Bounded H(t) = H0 + t H1 on [0, 1], up to two collapse operators at
    rates <= 1, a Hermitian test matrix and a pure initial state."""
    dim = draw(st.integers(2, 3))
    parts = st.floats(-1.0, 1.0, allow_nan=False)

    def matrix():
        re = np.array(draw(st.lists(parts, min_size=dim * dim, max_size=dim * dim)))
        im = np.array(draw(st.lists(parts, min_size=dim * dim, max_size=dim * dim)))
        return (re + 1j * im).reshape(dim, dim)

    h0, h1 = (0.5 * (m + m.conj().T) for m in (matrix(), matrix()))
    collapse = []
    for _ in range(draw(st.integers(0, 2))):
        c = matrix()
        norm = np.linalg.norm(c)
        if norm > 1e-3:
            collapse.append(math.sqrt(draw(st.floats(0.0, 1.0))) * c / norm)
    steps = draw(st.integers(10, 40))
    x = matrix()
    herm = x + x.conj().T
    v = x[0] if np.linalg.norm(x[0]) > 1e-3 else np.eye(dim)[0]
    rho0 = np.outer(v, v.conj()) / np.vdot(v, v).real
    h = lambda t: h0 + np.multiply.outer(t, h1)
    return h, collapse, herm, rho0, ev.TimeGrid(0.0, 1.0, steps)


def constant_problem(dim, steps, seed):
    """A lindblad_problems draw with H1 = 0: a constant, dissipative piece."""
    rng = np.random.default_rng(seed)

    def matrix():
        return rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))

    x, y = matrix(), matrix()
    h0, h1 = 0.5 * (x + x.conj().T), np.zeros((dim, dim), dtype=complex)
    collapse = [c / np.linalg.norm(c) for c in (matrix(), matrix())]
    v = y[0]
    rho0 = np.outer(v, v.conj()) / np.vdot(v, v).real
    h = lambda t: h0 + np.multiply.outer(t, h1)
    return h, collapse, y + y.conj().T, rho0, ev.TimeGrid(0.0, 1.0, steps)


class TestChannelInvariants:
    @settings(max_examples=60, deadline=None)
    @given(problem=lindblad_problems())
    @example(problem=constant_problem(2, 10, 1))
    @example(problem=constant_problem(3, 40, 2))
    def test_trace_preserving_hermitian_and_consistent(self, problem):
        h, collapse, herm, rho0, grid = problem
        sup = ev.channel_superoperator(h, collapse, grid)
        # TP in row-major vec: <<I| S = <<I|
        bra_i = np.eye(rho0.shape[0]).reshape(-1)
        assert np.max(np.abs(bra_i @ sup - bra_i)) < 1e-9
        out = ev.apply_channel(sup, herm)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        final = ev.propagate_lindblad(h, collapse, rho0, grid).final
        assert np.max(np.abs(ev.apply_channel(sup, rho0) - final)) < 1e-12
