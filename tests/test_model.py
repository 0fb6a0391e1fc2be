"""
Device/noise parameter containers and Hamiltonian assembly.

The drive convention under test: a segment with phase phi on transition
(i, j) contributes Omega(t) e^{i phi} |i><j| + h.c., with |i> the first
index of the coupling pair. Amplitude miscalibration scales all tones by
(1 + epsilon); detuning adds Delta per rung of the ladder.
"""

import math

import numpy as np
import pytest

from holosim import model as md
from holosim.errors import BadTransitionError, NegativeRateError
from holosim.pulses import Constant, GateSchedule, PulseSegment


def segment(transition, phase, amp=1.0e6, duration=50e-9, start=0.0):
    return PulseSegment(Constant(duration, amp), transition, phase, start)


class TestContainers:
    def test_anharmonicity(self):
        dev = md.QutritDevice(omega_ge=md.TWO_PI * 5.0e9, omega_ef=md.TWO_PI * 4.75e9)
        assert dev.anharmonicity == pytest.approx(-md.TWO_PI * 0.25e9)

    def test_noise_from_coherence_times(self):
        n = md.NoiseModel.from_coherence_times(
            t1_ge=50e-6, t2_ge=25e-6, t1_ef=20e-6, t2_ef=10e-6
        )
        assert n.gamma_eg == pytest.approx(1.0 / 50e-6)
        assert n.gamma_fe == pytest.approx(1.0 / 20e-6)
        assert n.gamma_fg == 0.0
        # pure dephasing: 1/T2* - Gamma_decay/2
        assert n.gamma_phi_ge == pytest.approx(1.0 / 25e-6 - 0.5 / 50e-6)
        assert n.gamma_phi_ef == pytest.approx(1.0 / 10e-6 - 0.5 * (1 / 50e-6 + 1 / 20e-6))

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRateError):
            md.NoiseModel(gamma_eg=-1.0, gamma_fe=0, gamma_fg=0,
                          gamma_phi_ge=0, gamma_phi_ef=0)

    def test_trivial_noise(self):
        assert md.NO_NOISE.is_trivial
        assert not md.paper_device().q1_noise.is_trivial

    def test_paper_device_values(self):
        dev = md.paper_device()
        assert dev.q1.anharmonicity < 0
        assert dev.q2.anharmonicity < 0
        assert dev.q1_noise.gamma_eg == pytest.approx(1 / 45.6e-6)
        assert dev.cavity_noise.gamma_loss == pytest.approx(1 / 135e-6)
        # all dephasing rates must come out physical for these numbers
        for n in (dev.q1_noise, dev.q2_noise):
            assert n.gamma_phi_ge >= 0
            assert n.gamma_phi_ef >= 0
        assert dev.g_swap == pytest.approx(md.TWO_PI * 0.845e6)


class TestBrightDark:
    @pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (1.2, 1.7), (math.pi / 2, -0.4)])
    def test_orthonormal(self, theta, phi):
        b, d = md.bright_dark(theta, phi)
        assert np.isclose(np.linalg.norm(b), 1.0)
        assert np.isclose(np.linalg.norm(d), 1.0)
        assert abs(np.vdot(b, d)) < 1e-14
        # both live on the (g, f) block
        assert b[1] == 0.0 and d[1] == 0.0

    def test_components(self):
        theta, phi = 0.8, 0.5
        b, d = md.bright_dark(theta, phi)
        assert b[0] == pytest.approx(math.sin(theta / 2) * np.exp(1j * phi))
        assert b[2] == pytest.approx(-math.cos(theta / 2))
        assert d[0] == pytest.approx(math.cos(theta / 2))
        assert d[2] == pytest.approx(math.sin(theta / 2) * np.exp(-1j * phi))


class TestQutritHamiltonian:
    def test_phase_lands_on_lower_upper_element(self):
        amp = 2.0e6
        phi = 0.7
        h = md.qutrit_drive_hamiltonian([segment("ge", phi, amp)], t=25e-9)
        assert h[0, 1] == pytest.approx(amp * np.exp(1j * phi))
        assert h[1, 0] == pytest.approx(amp * np.exp(-1j * phi))
        h = md.qutrit_drive_hamiltonian([segment("ef", phi, amp)], t=25e-9)
        assert h[2, 1] == pytest.approx(amp * np.exp(1j * phi))

    def test_hermitian_with_drag_and_phase(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            segs = [segment("ge", rng.uniform(-math.pi, math.pi)),
                    segment("ef", rng.uniform(-math.pi, math.pi))]
            h = md.qutrit_drive_hamiltonian(segs, t=rng.uniform(0, 50e-9))
            assert np.allclose(h, h.conj().T)

    def test_epsilon_scales_amplitude(self):
        base = md.qutrit_drive_hamiltonian([segment("ge", 0.0)], t=10e-9)
        more = md.qutrit_drive_hamiltonian(
            [segment("ge", 0.0)], md.ControlError(epsilon=0.05), t=10e-9
        )
        assert np.allclose(more, 1.05 * base)

    def test_detuning_ladder(self):
        h = md.qutrit_drive_hamiltonian(
            [segment("ge", 0.0)], md.ControlError(detuning=md.TWO_PI * 1e6), t=10e-9
        )
        assert h[1, 1] == pytest.approx(md.TWO_PI * 1e6)
        assert h[2, 2] == pytest.approx(2 * md.TWO_PI * 1e6)
        assert h[0, 0] == 0.0

    def test_vectorized_times(self):
        seg = segment("ge", 0.3)
        ts = np.linspace(0, 50e-9, 7)
        hs = md.qutrit_drive_hamiltonian([seg], t=ts)
        assert hs.shape == (7, 3, 3)
        for k, t in enumerate(ts):
            assert np.allclose(hs[k], md.qutrit_drive_hamiltonian([seg], t=t))

    def test_accepts_schedule(self):
        seg = segment("ge", 0.0)
        sched = GateSchedule((seg,), seg.envelope.duration)
        assert np.allclose(
            md.qutrit_drive_hamiltonian(sched, t=10e-9),
            md.qutrit_drive_hamiltonian([seg], t=10e-9),
        )

    def test_wrong_transition_rejected(self):
        with pytest.raises(BadTransitionError):
            md.qutrit_drive_hamiltonian([segment("raman", 0.0)], t=0.0)


class TestOtherSpaces:
    def test_cavity_effective_coupling_positions(self):
        h = md.cavity_effective_hamiltonian([segment("two_photon", 0.2, 1e5)], t=10e-9)
        assert abs(h[0, 2]) > 0 and h[0, 1] == 0
        h = md.cavity_effective_hamiltonian([segment("raman", 0.2, 1e5)], t=10e-9)
        assert abs(h[1, 2]) > 0 and h[0, 2] == 0
        # detuning only shifts the auxiliary |0f>
        h = md.cavity_effective_hamiltonian(
            [segment("two_photon", 0.0, 1e5)], md.ControlError(detuning=1e6), t=10e-9
        )
        assert h[2, 2] == pytest.approx(2e6) and h[1, 1] == 0.0

    def test_six_level_couplings(self):
        h = md.six_level_cavity_hamiltonian([segment("two_photon", 0.0, 1e5)], t=10e-9)
        assert abs(h[0, 2]) > 0
        h = md.six_level_cavity_hamiltonian([segment("raman", 0.0, 1e5)], t=10e-9)
        assert abs(h[3, 2]) > 0


class TestCollapseOperators:
    def test_counts_and_zero_rates_dropped(self):
        full = md.collapse_operators(md.paper_device().q1_noise)
        assert len(full) in (4, 5)  # gamma_fg may be zero
        assert md.collapse_operators(md.NO_NOISE) == []

    def test_jump_structure(self):
        n = md.NoiseModel(gamma_eg=4.0, gamma_fe=0.0, gamma_fg=0.0,
                          gamma_phi_ge=0.0, gamma_phi_ef=0.0)
        (c,) = md.collapse_operators(n)
        assert np.allclose(c, 2.0 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))

    def test_dephasing_rates_partitioned(self):
        # diagonal dephasers carry sqrt(2 gamma_e), sqrt(2 gamma_f) with
        # gamma_e = gamma_phi_ge and gamma_f = gamma_phi_ef - gamma_phi_ge
        n = md.NoiseModel(gamma_eg=0.0, gamma_fe=0.0, gamma_fg=0.0,
                          gamma_phi_ge=0.02, gamma_phi_ef=0.05)
        ops = md.collapse_operators(n)
        assert len(ops) == 2
        e_op = [c for c in ops if c[1, 1] != 0][0]
        f_op = [c for c in ops if c[2, 2] != 0][0]
        assert e_op[1, 1] == pytest.approx(math.sqrt(2 * 0.02))
        assert f_op[2, 2] == pytest.approx(math.sqrt(2 * 0.03))

    def test_six_level_operators_embed(self):
        dev = md.paper_device()
        ops = md.six_level_collapse_operators(dev.q1_noise, dev.cavity_noise)
        for c in ops:
            assert c.shape == (6, 6)
        # exactly one pure cavity-loss operator: kron(lower, I3)
        loss = [c for c in ops if abs(c[0, 3]) > 0]
        assert len(loss) == 1
        assert loss[0][0, 3] == pytest.approx(math.sqrt(dev.cavity_noise.gamma_loss))


class TestRateMatrix:
    def test_columns_conserve_probability(self):
        n = md.paper_device().q1_noise
        g = md.rate_matrix(n)
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-18)

    def test_decay_chain_signs(self):
        n = md.NoiseModel(gamma_eg=3.0, gamma_fe=2.0, gamma_fg=1.0,
                          gamma_phi_ge=0.0, gamma_phi_ef=0.0)
        g = md.rate_matrix(n)
        assert g[0, 1] == 3.0 and g[1, 1] == -3.0
        assert g[1, 2] == 2.0 and g[0, 2] == 1.0 and g[2, 2] == -3.0
