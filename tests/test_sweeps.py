"""
Crosstalk robustness grids and the cavity encode/gate/decode pipeline.

The sweep scores each control-error cell with the normalized reduced-block
process fidelity, so amplitude-error leakage of the single-loop gates does
not register while in-block distortion of the pulse-train gates does. The
pipeline tests drive the six-level transmon-plus-cavity model end to end
and reconstruct the 4x4 qubit process matrix.
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from holosim import evolution as ev
from holosim import holonomic as hl
from holosim import model as md
from holosim import sweeps as sw
from holosim import tomography as tm
from holosim.errors import OutOfRangeError, StepTooLargeError
from holosim.operators import gf_block, phase_aligned_distance

SMALL_EPS = np.linspace(-0.08, 0.08, 5)
SMALL_DETS = 2.0 * math.pi * 1e6 * np.array([-0.5, 0.0, 0.5])


class TestReferenceGates:
    def test_unknown_family_raises(self):
        with pytest.raises(OutOfRangeError):
            sw.reference_gate("adiabatic", "H")

    def test_unknown_gate_raises(self):
        with pytest.raises(OutOfRangeError):
            sw.reference_gate("holonomic", "CNOT")
        with pytest.raises(OutOfRangeError):
            sw.reference_gate("dynamic", "X_pi")

    def test_error_free_gates_are_exact(self):
        for family, gate in [
            ("holonomic", "H"),
            ("holonomic", "T"),
            ("dynamic", "H"),
            ("dynamic", "T"),
        ]:
            schedule, target = sw.reference_gate(family, gate)
            u = ev.schedule_unitary(schedule, steps=1024)
            fid = sw.reduced_process_fidelity(u, target)
            assert fid > 1.0 - 1e-6

    def test_dynamic_t_block_matches_t_gate(self):
        # regression anchor for the four-pulse decomposition
        schedule, _ = sw.reference_gate("dynamic", "T")
        u = ev.schedule_unitary(schedule, steps=2048)
        assert phase_aligned_distance(gf_block(u), sw.T_GATE) < 1e-4

    def test_holonomic_schedule_uses_named_parameters(self):
        schedule, target = sw.reference_gate("holonomic", "X_pi")
        u = ev.schedule_unitary(schedule, steps=1024)
        assert phase_aligned_distance(gf_block(u), sw.HADAMARD @ np.diag([1, -1]) @ sw.HADAMARD) < 1e-4
        assert np.allclose(target, hl.target_u1(hl.QUBIT_GATES["X_pi"]))


class TestReducedFidelity:
    def test_matching_unitary_scores_one(self):
        from holosim.operators import embed_gf

        u = embed_gf(sw.HADAMARD)
        assert abs(sw.reduced_process_fidelity(u, sw.HADAMARD) - 1.0) < 1e-12

    def test_orthogonal_rotation_scores_half(self):
        from holosim.operators import embed_gf

        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        fid = sw.reduced_process_fidelity(embed_gf(x), sw.HADAMARD)
        assert abs(fid - 0.5) < 1e-12

    def test_leakage_is_fourth_order_but_rotation_is_second(self):
        # amplitude leaking g <-> e shrinks one block component; the
        # normalized metric only sees that at fourth order in the angle,
        # while an in-block rotation of the same angle costs second order
        angle = 0.2
        c, s = math.cos(angle), math.sin(angle)
        leak = np.array(
            [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex
        )
        f_leak = sw.reduced_process_fidelity(leak, np.eye(2, dtype=complex))
        from holosim.operators import embed_gf

        rot = embed_gf(
            np.array(
                [[c, -1j * s], [-1j * s, c]], dtype=complex
            )
        )
        f_rot = sw.reduced_process_fidelity(rot, np.eye(2, dtype=complex))
        assert f_leak > 1.0 - angle**4
        assert f_rot < 1.0 - angle**2 / 2.0
        assert f_leak > f_rot


class TestCrosstalkSweep:
    def test_grid_shape_and_range(self):
        grid = sw.crosstalk_sweep(
            "holonomic", "H", epsilons=SMALL_EPS, detunings=SMALL_DETS, steps=512
        )
        assert grid.fidelities.shape == (SMALL_EPS.size, SMALL_DETS.size)
        assert np.all(grid.fidelities >= 0.0)
        assert np.all(grid.fidelities <= 1.0 + 1e-9)

    def test_error_free_cell(self):
        for family in ("holonomic", "dynamic"):
            grid = sw.crosstalk_sweep(
                family, "H", epsilons=[0.0], detunings=[0.0], steps=512
            )
            assert grid.fidelities[0, 0] > 1.0 - 1e-6

    def test_amplitude_error_symmetry(self):
        grid = sw.crosstalk_sweep(
            "holonomic", "H", epsilons=SMALL_EPS, detunings=[0.0], steps=512
        )
        cut = grid.delta_zero_cut()
        assert np.all(np.abs(cut - cut[::-1]) < 1e-3)

    def test_single_loop_beats_pulse_train_under_amplitude_error(self):
        eps = np.array([-0.08, -0.04, 0.04, 0.08])
        hol = sw.crosstalk_sweep(
            "holonomic", "H", epsilons=eps, detunings=[0.0], steps=512
        ).delta_zero_cut()
        dyn = sw.crosstalk_sweep(
            "dynamic", "H", epsilons=eps, detunings=[0.0], steps=512
        ).delta_zero_cut()
        assert np.all(hol >= dyn)

    def test_delta_zero_cut_selects_zero_column(self):
        grid = sw.crosstalk_sweep(
            "holonomic", "H", epsilons=SMALL_EPS, detunings=SMALL_DETS, steps=512
        )
        assert np.array_equal(grid.delta_zero_cut(), grid.fidelities[:, 1])

    def test_rejects_bad_grids(self):
        with pytest.raises(OutOfRangeError):
            sw.crosstalk_sweep("holonomic", "H", epsilons=[], detunings=[0.0])
        with pytest.raises(OutOfRangeError):
            sw.crosstalk_sweep("holonomic", "H", epsilons=[math.nan], detunings=[0.0])

    @pytest.mark.parametrize("family", ["holonomic", "dynamic"])
    def test_blocked_grid_matches_per_cell_propagation(self, family):
        grid = sw.crosstalk_sweep(
            family, "T", epsilons=SMALL_EPS, detunings=SMALL_DETS, steps=128
        )
        schedule, target = sw.reference_gate(family, "T")
        for (i, e), (j, d) in itertools.product(enumerate(SMALL_EPS), enumerate(SMALL_DETS)):
            u = ev.schedule_unitary(schedule, md.ControlError(e, d), steps=128)
            fid = sw.reduced_process_fidelity(u, target)
            assert abs(grid.fidelities[i, j] - fid) < 1e-14

    def test_bit_identical_across_threads_and_block_sizes(self, monkeypatch):
        # 256 steps: the default budget makes blocks of 4 of the 15 cells
        def run(threads):
            return sw.crosstalk_sweep(
                "dynamic", "H", epsilons=SMALL_EPS, detunings=SMALL_DETS,
                steps=256, threads=threads,
            ).fidelities

        ref = run(1)
        assert all(np.array_equal(run(n), ref) for n in (2, 3))
        monkeypatch.setattr(sw, "_BLOCK_MATRICES", 2 * 256)  # one cell per block
        assert np.array_equal(run(2), ref)
        monkeypatch.setattr(sw, "_BLOCK_MATRICES", 2 * 256 * ref.size)  # one block
        assert np.array_equal(run(2), ref)

    def test_exponential_stacks_stay_within_the_block_budget(self, monkeypatch):
        # 150 cells of 4096 steps: a block is two cells, and their 16384 step
        # matrices are exponentiated in stacks of at most 2 x 2048
        sizes = []
        expm = ev.expm_hermitian

        def counting(h, prefactor=-1j):
            sizes.append(int(np.prod(np.shape(h)[:-2])))
            return expm(h, prefactor)

        monkeypatch.setattr(ev, "expm_hermitian", counting)
        sw.crosstalk_sweep(
            "holonomic", "H", epsilons=np.linspace(-0.1, 0.1, 3),
            detunings=2.0 * math.pi * 1e6 * np.linspace(-1.0, 1.0, 50),
            steps=4096, threads=2,
        )
        assert sizes and max(sizes) <= sw._BLOCK_MATRICES

    def test_absurd_detuning_raises_instead_of_scoring(self):
        # every step would turn by ~1e297 rad; the propagator is meaningless
        with pytest.raises(StepTooLargeError):
            sw.crosstalk_sweep(
                "holonomic", "H", epsilons=[0.0], detunings=[2.0 * math.pi * 1e306]
            )

    def test_csv_reruns_bit_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            grid = sw.crosstalk_sweep(
                "dynamic", "H", epsilons=SMALL_EPS, detunings=SMALL_DETS, steps=512
            )
            grid.to_csv(path)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        grid = sw.crosstalk_sweep(
            "holonomic", "T", epsilons=SMALL_EPS, detunings=SMALL_DETS, steps=512
        )
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")]
        dets = np.array([float(v) for v in rows[0][1:]])
        eps = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.array_equal(dets, grid.detunings)
        assert np.array_equal(eps, grid.epsilons)
        assert np.array_equal(vals, grid.fidelities)

    def test_json_sidecar(self, tmp_path):
        grid = sw.crosstalk_sweep(
            "holonomic", "H", epsilons=SMALL_EPS, detunings=SMALL_DETS, steps=512
        )
        path = tmp_path / "grid.json"
        grid.to_json(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["family"] == "holonomic"
        assert payload["gate"] == "H"
        assert payload["settings_sha256"] == grid.settings_hash()
        assert abs(payload["mean_fidelity"] - grid.mean_fidelity) < 1e-15

    def test_settings_hash_tracks_settings(self):
        g1 = sw.crosstalk_sweep(
            "holonomic", "H", epsilons=[0.0], detunings=[0.0], steps=512
        )
        g2 = sw.crosstalk_sweep(
            "holonomic", "H", epsilons=[0.0], detunings=[0.0], steps=256
        )
        assert g1.settings_hash() != g2.settings_hash()


class TestFramePhase:
    def test_default_device_round_trip_needs_no_frame(self):
        # the +pi/2 / -pi/2 swap phases already cancel the encode phases
        phase = sw.calibrate_frame_phase(steps=1024)
        assert abs(phase) < 1e-6

    def test_identity_pipeline_is_clean(self):
        res = sw.cavity_pipeline(None, steps=1024)
        assert res.fidelity_att > 1.0 - 1e-4
        assert res.gate_label == "identity"


class TestCavityPipeline:
    def test_noiseless_x_gate(self):
        res = sw.cavity_pipeline((math.pi / 2.0, 0.0), steps=1024)
        assert res.fidelity_att > 1.0 - 1e-4
        assert res.fidelity_unatt > 1.0 - 1e-4

    def test_x_gate_chi_concentrates_on_x(self):
        res = sw.cavity_pipeline((math.pi / 2.0, 0.0), steps=1024)
        mags = np.abs(np.asarray(res.chi.entries))
        assert np.unravel_index(np.argmax(mags), mags.shape) == (1, 1)
        assert mags[1, 1] > 0.999

    def test_decoherence_costs_a_few_percent(self):
        ref = sw.cavity_pipeline(None, include_decoherence=True, steps=1024)
        gate = sw.cavity_pipeline(
            (math.pi / 2.0, 0.0), include_decoherence=True, steps=1024
        )
        loss = ref.fidelity_att - gate.fidelity_att
        assert 0.02 <= loss <= 0.09
        # normalized fidelity hides the uniform attenuation
        assert gate.fidelity_unatt > 0.99

    def test_theta_zero_needs_explicit_coupling(self):
        with pytest.raises(OutOfRangeError):
            sw.cavity_pipeline((0.0, 0.0), steps=1024)

    def test_equator_gate_acts_on_its_axis(self):
        res = sw.cavity_pipeline((math.pi / 4.0, 0.0), steps=1024)
        assert res.fidelity_att > 1.0 - 1e-4

    def test_noiseless_run_propagates_each_schedule_once(self, monkeypatch):
        calls = []
        propagate = ev.schedule_unitary

        def counting(*args, **kwargs):
            calls.append(args[0])
            return propagate(*args, **kwargs)

        monkeypatch.setattr(ev, "schedule_unitary", counting)
        sw.cavity_pipeline((math.pi / 2.0, 0.0), steps=256)
        # encode swap and gate: the frame calibration shares the swaps, and
        # the decode swap is the encode swap's photon-parity conjugate
        assert len(calls) == 2
        assert all(seg.phase != sw.DECODE_PHASE for sched in calls for seg in sched.segments)

    def test_decohered_run_integrates_two_channels(self, monkeypatch):
        calls = []
        channel = ev.schedule_channel

        def counting(*args, **kwargs):
            calls.append(args[0])
            return channel(*args, **kwargs)

        monkeypatch.setattr(ev, "schedule_channel", counting)
        sw.cavity_pipeline((math.pi / 2.0, 0.0), include_decoherence=True, steps=256)
        assert len(calls) == 2  # encode swap and gate
        assert all(seg.phase != sw.DECODE_PHASE for sched in calls for seg in sched.segments)

    def test_noiseless_json_unchanged_by_shared_swaps(self, tmp_path):
        # digest of the file written when calibration and legs propagated the
        # swaps separately (numpy 2.4, x86-64); sharing them changes no bit.
        # Pinned with extract_chi's square LU solve and the CFM4 unitary core
        # with exact flat tops; the file's values moved by at most 3.2e-8
        # from the midpoint-rule pin, towards a 16384-step run. Re-pinned
        # when six-level propagation went per sector and flat-top areas
        # closed form: the values moved by at most 9.8e-15 (chi_real and
        # fidelity_att), rounding only. Re-pinned when the decode swap became
        # the encode swap's photon-parity conjugate: the values moved by at
        # most 1e-18 (3.3e-19 measured), since exp(-i pi/2) is not exactly
        # -exp(i pi/2) in floating point.
        res = sw.cavity_pipeline((math.pi / 2.0, 0.0), steps=256)
        path = tmp_path / "cavity.json"
        res.to_json(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5fabfed1ac927667b03b10d85c7d31f2f00fee98088ba9fc77e9b7e5c1d86858"
        )

    def test_json_export(self, tmp_path):
        res = sw.cavity_pipeline((math.pi / 2.0, 0.0), steps=1024)
        path = tmp_path / "pipeline.json"
        res.to_json(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["gate"] == res.gate_label
        assert payload["fidelity_att"] == res.fidelity_att
        assert np.asarray(payload["chi_real"]).shape == (4, 4)
        assert payload["chi_labels"] == ["I", "X", "-iY", "Z"]


class TestPhotonParity:
    """The decode swap is the photon-parity conjugate of the encode swap."""

    PARITY = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])

    def test_collapse_operators_are_even_or_odd(self):
        noise = md.NoiseModel(
            gamma_eg=1e4, gamma_fe=2e4, gamma_fg=3e3, gamma_phi_ge=5e3, gamma_phi_ef=9e3
        )
        cavity = md.CavityNoise(gamma_loss=2e3, gamma_phi=7e2)
        ops = md.six_level_collapse_operators(noise, cavity)
        assert len(ops) == 7  # every rate nonzero: 5 transmon + loss + dephasing
        for c in ops:
            flipped = self.PARITY @ c @ self.PARITY
            assert np.array_equal(flipped, c) or np.array_equal(flipped, -c)

    @pytest.mark.parametrize("steps", [256, 2048])
    def test_derived_decode_matches_direct_integration(self, steps):
        dev = md.paper_device()
        decode = hl.encode_swap_schedule(dev.g_swap, sw.DECODE_PHASE)
        u_enc, u_dec = sw._swap_unitaries(dev, steps)
        direct_u = ev.schedule_unitary(decode, steps=steps, space="cavity_full")
        assert np.max(np.abs(u_dec - direct_u)) <= 1e-14
        assert np.array_equal(u_dec, self.PARITY @ u_enc @ self.PARITY)

        def channel(phase):
            return ev.schedule_channel(
                hl.encode_swap_schedule(dev.g_swap, phase), dev.q2_noise, steps=steps,
                space="cavity_full", cavity_noise=dev.cavity_noise,
            )

        derived = sw._decode_from_encode(channel(sw.ENCODE_PHASE))
        assert np.max(np.abs(derived - channel(sw.DECODE_PHASE))) <= 1e-14
