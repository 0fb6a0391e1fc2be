"""
Gate targets, loop physics, schedule synthesis, and the Clifford table.

The central identity under test: driving the two-tone loop with
    half 1: (phi0, phi1) = (phi, pi)
    half 2: (phi0, phi1) = (phi + gamma - pi, gamma)
and pulse area pi/2 per half gives

    U_loop = |d><d| + e^{i gamma}|b><b| + e^{-i gamma}|e><e|

whose (g, f) block equals e^{i gamma/2} * target_u1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosim import evolution as ev
from holosim import holonomic as hl
from holosim import model as md
from holosim.errors import OutOfRangeError, ZeroCouplingError
from holosim.operators import (
    dagger,
    gf_block,
    is_unitary,
    phase_aligned_distance,
    unitary_infidelity,
)
from holosim.pulses import TruncatedGaussian, area


def random_params(rng):
    return hl.HolonomicParams(
        theta=rng.uniform(0.0, math.pi),
        gamma=rng.uniform(-math.pi, math.pi),
        phi=rng.uniform(-math.pi, math.pi),
    )


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


class TestTargets:
    def test_theta_range_enforced(self):
        with pytest.raises(OutOfRangeError):
            hl.HolonomicParams(theta=-0.1, gamma=1.0)
        with pytest.raises(OutOfRangeError):
            hl.HolonomicParams(theta=3.5, gamma=1.0)

    def test_u1_axis_angle_form(self):
        # target_u1 = cos(g/2) I - i sin(g/2) n.sigma,
        # n = (sin t cos p, -sin t sin p, cos t)
        rng = np.random.default_rng(101)
        for _ in range(20):
            p = random_params(rng)
            n = (
                math.sin(p.theta) * math.cos(p.phi),
                -math.sin(p.theta) * math.sin(p.phi),
                math.cos(p.theta),
            )
            want = math.cos(p.gamma / 2) * np.eye(2) - 1j * math.sin(p.gamma / 2) * (
                n[0] * PAULI["x"] + n[1] * PAULI["y"] + n[2] * PAULI["z"]
            )
            assert np.allclose(hl.target_u1(p), want, atol=1e-12)

    def test_u1_unitary_unit_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = hl.target_u1(random_params(rng))
            assert is_unitary(u)
            assert np.isclose(np.linalg.det(u), 1.0)

    def test_u2_is_phased_u1(self):
        # theta-swap gate: U2(t, p) = i * U1(t, gamma=pi, p), exactly
        rng = np.random.default_rng(13)
        for _ in range(10):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            u2 = hl.target_u2(theta, phi)
            u1 = hl.target_u1(hl.HolonomicParams(theta, math.pi, phi))
            assert np.allclose(u2, 1j * u1, atol=1e-14)

    def test_u2_hermitian_involution(self):
        u2 = hl.target_u2(0.8, 0.3)
        assert np.allclose(u2, u2.conj().T)
        assert np.allclose(u2 @ u2, np.eye(2), atol=1e-14)

    def test_u2_named_points(self):
        assert np.allclose(hl.target_u2(math.pi / 2, 0.0), PAULI["x"])
        h = (PAULI["x"] + PAULI["z"]) / math.sqrt(2)
        assert np.allclose(hl.target_u2(math.pi / 4, 0.0), h)


class TestLoopUnitary:
    def test_spectral_action(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_params(rng)
            u = hl.loop_unitary(p)
            b, d = md.bright_dark(p.theta, p.phi)
            e = np.array([0, 1, 0], dtype=complex)
            assert is_unitary(u)
            assert np.allclose(u @ d, d, atol=1e-12)
            assert np.allclose(u @ b, np.exp(1j * p.gamma) * b, atol=1e-12)
            assert np.allclose(u @ e, np.exp(-1j * p.gamma) * e, atol=1e-12)

    def test_block_is_phased_target(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = random_params(rng)
            blk = gf_block(hl.loop_unitary(p))
            assert np.allclose(blk, np.exp(1j * p.gamma / 2) * hl.target_u1(p), atol=1e-12)

    def test_synthesis_infidelity_on_ideal(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_params(rng)
            assert hl.synthesis_infidelity(hl.loop_unitary(p), p) < 1e-12

    def test_synthesis_infidelity_counts_leakage(self):
        # a propagator that parks 10% amplitude in |e> from both qubit levels
        p = hl.HolonomicParams(math.pi / 2, math.pi, 0.0)
        leaky = math.sqrt(0.9) * hl.loop_unitary(p)
        assert hl.synthesis_infidelity(leaky, p) == pytest.approx(0.1, abs=1e-12)


class TestQubitSynthesis:
    def test_schedule_shape(self):
        p = hl.QUBIT_GATES["H"]
        sched = hl.synthesize_qubit_gate(p)
        assert len(sched.segments) == 4
        assert sched.duration == pytest.approx(120e-9)
        ge = [s for s in sched.segments if s.transition == "ge"]
        ef = [s for s in sched.segments if s.transition == "ef"]
        assert len(ge) == 2 and len(ef) == 2
        assert ge[1].start == pytest.approx(60e-9)

    def test_tone_areas(self):
        p = hl.HolonomicParams(0.7, 1.3, 0.2)
        sched = hl.synthesize_qubit_gate(p)
        ge = [s for s in sched.segments if s.transition == "ge"][0]
        ef = [s for s in sched.segments if s.transition == "ef"][0]
        assert area(ge.envelope) == pytest.approx(math.sin(0.35) * math.pi / 2, rel=1e-9)
        assert area(ef.envelope) == pytest.approx(math.cos(0.35) * math.pi / 2, rel=1e-9)

    def test_protocol_phases(self):
        p = hl.HolonomicParams(1.0, 0.9, 0.4)
        sched = hl.synthesize_qubit_gate(p)
        phases = [(s.transition, s.phase) for s in sched.segments]
        assert phases == [
            ("ge", 0.4),
            ("ef", math.pi),
            ("ge", pytest.approx(0.4 + 0.9 - math.pi)),
            ("ef", 0.9),
        ]

    @pytest.mark.parametrize("name", sorted(hl.QUBIT_GATES))
    def test_named_gates_realize_loop(self, name):
        p = hl.QUBIT_GATES[name]
        u = ev.schedule_unitary(hl.synthesize_qubit_gate(p))
        assert hl.synthesis_infidelity(u, p) < 1e-9
        assert phase_aligned_distance(u, hl.loop_unitary(p)) < 1e-5

    def test_random_params_realize_loop(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            p = random_params(rng)
            u = ev.schedule_unitary(hl.synthesize_qubit_gate(p))
            assert hl.synthesis_infidelity(u, p) < 1e-9

    def test_custom_envelope(self):
        p = hl.QUBIT_GATES["X_pi"]
        base = TruncatedGaussian(sigma=25e-9)
        sched = hl.synthesize_qubit_gate(p, hl.qubit_half(base))
        assert sched.duration == pytest.approx(200e-9)
        u = ev.schedule_unitary(sched)
        assert hl.synthesis_infidelity(u, p) < 1e-9


class TestCavitySynthesis:
    def test_mixing_from_couplings(self):
        theta, g = hl.mixing_from_couplings(1.0, 1.0)
        assert theta == pytest.approx(math.pi / 2)
        assert g == pytest.approx(math.sqrt(2.0))
        theta, _ = hl.mixing_from_couplings(0.0, 1.0)
        assert theta == 0.0
        theta, _ = hl.mixing_from_couplings(1.0, 0.0)
        assert theta == pytest.approx(math.pi)
        with pytest.raises(ZeroCouplingError):
            hl.mixing_from_couplings(0.0, 0.0)

    def test_equal_coupling_duration(self):
        # g1 = g2 = 2pi * 0.25 MHz: pi / g_total + 10 ns ramp = 1424.2 ns
        dev = md.paper_device()
        theta, g_tot = hl.mixing_from_couplings(dev.g1, dev.g1)
        sched = hl.synthesize_cavity_gate(theta, math.pi, 0.0, g_tot)
        assert sched.duration * 1e9 == pytest.approx(1424.2135623730953)
        assert len(sched.segments) == 2  # gamma = pi: one continuous pulse

    def test_hadamard_coupling_duration(self):
        dev = md.paper_device()
        theta, g_tot = hl.mixing_from_couplings(dev.g1, dev.g2_hadamard)
        sched = hl.synthesize_cavity_gate(theta, math.pi, 0.0, g_tot)
        assert sched.duration * 1e9 == pytest.approx(779.2307692307693)

    def test_gamma_pi_realizes_target(self):
        dev = md.paper_device()
        for name, (theta, phi) in hl.CAVITY_GATES.items():
            g_tot = md.TWO_PI * 0.5e6
            sched = hl.synthesize_cavity_gate(theta, math.pi, phi, g_tot)
            u = ev.schedule_unitary(sched, space="cavity_effective")
            assert hl.cavity_synthesis_infidelity(u, theta, math.pi, phi) < 1e-9
            # the effective basis {|0g>, |1g>, |0f>} holds the qutrit's (g, f, e)
            loop = hl.loop_unitary(hl.HolonomicParams(theta, math.pi, phi))
            dist = phase_aligned_distance(u, loop[np.ix_((0, 2, 1), (0, 2, 1))])
            assert dist < 1e-5

    @pytest.mark.parametrize("gamma", [
        math.pi + 1e-13, math.pi - 1e-13, 3.0 * math.pi, -math.pi,
    ])
    def test_gamma_near_pi_on_either_side_is_one_pulse(self, gamma):
        # a one-sided modulo took pi - 1e-13 for a generic gamma
        sched = hl.synthesize_cavity_gate(1.1, gamma, 0.0, md.TWO_PI * 0.5e6)
        assert len(sched.segments) == 2

    def test_generic_gamma_splits_halves(self):
        sched = hl.synthesize_cavity_gate(1.1, math.pi / 2, 0.0, md.TWO_PI * 0.5e6)
        assert len(sched.segments) == 4
        u = ev.schedule_unitary(sched, space="cavity_effective")
        assert hl.cavity_synthesis_infidelity(u, 1.1, math.pi / 2, 0.0) < 1e-9

    def test_cavity_block_matches_u2_for_named_gates(self):
        # gamma = pi loop: block = e^{i pi/2} U1 = i U1 = U2(theta, phi)
        theta, phi = hl.CAVITY_GATES["H1"]
        sched = hl.synthesize_cavity_gate(theta, math.pi, phi, md.TWO_PI * 0.5e6)
        u = ev.schedule_unitary(sched, space="cavity_effective")
        blk = hl.cavity_block(u)
        assert np.max(np.abs(blk - hl.target_u2(theta, phi))) < 1e-5

    def test_ramp_too_long_raises(self):
        with pytest.raises(OutOfRangeError):
            # the loop's area pi needs pi / g_total = 5 ns, less than DEFAULT_RAMP
            hl.synthesize_cavity_gate(1.0, math.pi, 0.0, md.TWO_PI * 100e6)

    def test_encode_swap(self):
        dev = md.paper_device()
        sched = hl.encode_swap_schedule(dev.g_swap)
        (seg,) = sched.segments
        assert seg.transition == "raman"
        assert area(seg.envelope) == pytest.approx(math.pi / 2, rel=1e-9)
        u = ev.schedule_unitary(sched, space="cavity_effective")
        # pi swap on (|1g>, |0f>): population moves completely
        assert abs(u[1, 2]) == pytest.approx(1.0, abs=1e-6)
        assert abs(u[2, 1]) == pytest.approx(1.0, abs=1e-6)
        assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-9)


    def test_encode_swap_splits_at_flat_top_edges(self):
        # the ramp/flat edges are kinks of the sin^2 envelope: integrators
        # must not step across them, and the flat top between them is exact
        sched = hl.encode_swap_schedule(md.paper_device().g_swap, math.pi / 2)
        (seg,) = sched.segments
        ramp, flat = seg.envelope.ramp, seg.envelope.flat
        assert np.array_equal(
            sched.boundaries(), [0.0, ramp, ramp + flat, sched.duration]
        )

class TestDynamicSchedules:
    def test_hadamard_block(self):
        u = ev.schedule_unitary(hl.dynamic_hadamard_schedule())
        had = (PAULI["x"] + PAULI["z"]) / math.sqrt(2)
        assert unitary_infidelity(gf_block(u), had) < 1e-9
        # auxiliary |e> returns (population-wise) at the end
        assert abs(u[1, 1]) == pytest.approx(1.0, abs=1e-6)

    def test_t_block(self):
        u = ev.schedule_unitary(hl.dynamic_t_schedule())
        t_gate = np.diag([1.0, np.exp(1j * math.pi / 4)])
        assert unitary_infidelity(gf_block(u), t_gate) < 1e-9
        assert abs(u[1, 1]) == pytest.approx(1.0, abs=1e-6)

    def test_durations(self):
        assert hl.dynamic_hadamard_schedule().duration == pytest.approx(3 * 4 * 30e-9)
        assert hl.dynamic_t_schedule().duration == pytest.approx(4 * 4 * 30e-9)


class TestCliffordTable:
    def test_size_and_uniqueness(self):
        table = hl.clifford_table()
        assert len(table) == 24
        us = [hl.target_u1(p) for p in table]
        for i in range(24):
            for j in range(i + 1, 24):
                assert phase_aligned_distance(us[i], us[j]) > 1e-6

    def test_contains_benchmarked_gates(self):
        table = hl.clifford_table()
        published = [
            (math.pi / 2, math.pi, 0.0),
            (math.pi / 2, math.pi / 2, 0.0),
            (math.pi / 4, math.pi, 0.0),
            (0.0, math.pi, 0.0),
        ]
        for want in published:
            hits = [
                p
                for p in table
                if np.allclose((p.theta, p.gamma, p.phi), want, atol=1e-12)
            ]
            assert len(hits) == 1, f"missing table entry {want}"

    @pytest.mark.parametrize("name", ["X_pi", "X_pi_2", "H", "Z_pi"])
    def test_holds_published_gates_exactly(self, name):
        # exact, sign of zero included: interleaved RB reuses the table's
        # channel only for a gate that is a member
        assert repr(hl.QUBIT_GATES[name]) in {repr(p) for p in hl.clifford_table()}

    def test_group_closure(self):
        table = hl.clifford_table()
        us = [hl.target_u1(p) for p in table]
        rng = np.random.default_rng(59)
        for _ in range(40):
            i, j = rng.integers(0, 24, size=2)
            prod = us[i] @ us[j]
            dists = [phase_aligned_distance(prod, u) for u in us]
            assert min(dists) < 1e-8

    def test_find_recovery_closes_sequences(self):
        table = hl.clifford_table()
        rng = np.random.default_rng(61)
        for _ in range(10):
            seq = rng.integers(0, 24, size=rng.integers(1, 12))
            prod = np.eye(2, dtype=complex)
            for k in seq:
                prod = hl.target_u1(table[k]) @ prod
            r = hl.find_recovery(prod)
            closed = hl.target_u1(table[r]) @ prod
            assert phase_aligned_distance(closed, np.eye(2)) < 1e-8

    def test_find_recovery_rejects_outsiders(self):
        theta = 0.123
        outsider = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
            dtype=complex,
        )
        with pytest.raises(OutOfRangeError):
            hl.find_recovery(outsider)


CLIFFORD_GATES = ("H", "X_pi", "X_pi_2", "Y_pi", "Z_pi")


class TestCliffordGroup:
    def test_cayley_and_inverse_tables_match_every_product(self):
        group = hl.clifford_group()
        assert group.elements == hl.clifford_table()
        us = [hl.target_u1(p) for p in group.elements]
        assert phase_aligned_distance(us[group.identity], np.eye(2)) < 1e-12
        for a in range(24):
            for b in range(24):
                c = group.cayley[a, b]
                assert phase_aligned_distance(us[a] @ us[b], us[c]) < 1e-10
            inv = group.inverse[a]
            assert group.cayley[inv, a] == group.identity
            assert phase_aligned_distance(us[inv] @ us[a], np.eye(2)) < 1e-10

    def test_built_once_and_read_only(self):
        group = hl.clifford_group()
        assert hl.clifford_group() is group
        with pytest.raises(ValueError):
            group.cayley[0, 0] = 1
        with pytest.raises(ValueError):
            group.inverse[0] = 1

    def test_build_rejects_a_table_that_is_not_closed(self, monkeypatch):
        table = hl.clifford_table()
        swapped = table[:-1] + (hl.QUBIT_GATES["T"],)
        monkeypatch.setattr(hl, "clifford_table", lambda: swapped)
        with pytest.raises(OutOfRangeError):
            hl.clifford_group.__wrapped__()

    @settings(max_examples=150, deadline=None)
    @given(
        indices=st.lists(st.integers(0, 23), min_size=1, max_size=30),
        interleave=st.sampled_from((None,) + CLIFFORD_GATES),
    )
    def test_table_recovery_matches_matrix_recovery(self, indices, interleave):
        group = hl.clifford_group()
        table = group.elements
        gate_u = None if interleave is None else hl.target_u1(hl.QUBIT_GATES[interleave])
        gate = None if gate_u is None else hl.find_recovery(dagger(gate_u))
        product = np.eye(2, dtype=complex)
        composed = group.identity
        for i in indices:
            product = hl.target_u1(table[i]) @ product
            composed = group.cayley[i, composed]
            if gate is not None:
                product = gate_u @ product
                composed = group.cayley[gate, composed]
        assert group.inverse[composed] == hl.find_recovery(product)
