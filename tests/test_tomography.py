"""
Process tomography: records, state reconstruction, chi extraction, fidelities.

The pipeline under test mirrors the experimental procedure: nine input
states, nine pre-rotations in front of the |g><g| measurement, MLE density
reconstruction per input, then linear inversion of

    rho_out = sum_mn chi_mn E_m rho_in E_n^dag

in the gf-centered operator basis, with the computational 4x4 block
renormalized so that trace below 1 reads as leakage.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holosim.cli as cli
from holosim import evolution as ev
from holosim import holonomic as hl
from holosim import model as md
from holosim import pulses as pl
from holosim import tomography as tg
from holosim.errors import (
    BadShotCountError,
    ConvergenceFailureError,
    DimensionMismatchError,
    SingularInputSpanError,
)
from holosim.operators import (
    basis_ket,
    dagger,
    embed_gf,
    ketbra,
    process_basis_gf,
    qubit_pauli_basis,
)


def random_density(rng, dim=3):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ dagger(m)
    return rho / np.trace(rho).real


def trace_distance(a, b):
    vals = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(vals)))


def kkt_defect(row, rho):
    """Largest violation of the optimality conditions of least squares over
    unit-trace PSD rho, whatever solver produced rho.

    With residuals r_k = Tr(rho E_k) - row_k, G = sum_k r_k E_k and
    mu = Re Tr(G rho), rho is the minimizer iff G - mu I is PSD and
    (G - mu I) rho = 0.
    """
    m_i = tg.measurement_coefficients().operator()
    effective = [dagger(u) @ m_i @ u for u in tg.prerotations()]
    r = [np.trace(rho @ e).real - y for e, y in zip(effective, row)]
    g = sum(rk * e for rk, e in zip(r, effective))
    s = g - np.trace(g @ rho).real * np.eye(3)
    return max(-np.linalg.eigvalsh(s).min(), np.abs(s @ rho).max())


def assert_physical(rho):
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


#: largest accepted KKT defect; converged rows read about 1e-14
KKT_TOL = 1e-10


def apply_chi(chi, rho):
    """Forward action of a chi matrix; independent of the extraction code."""
    basis = chi.basis
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for m in range(len(basis)):
        for n in range(len(basis)):
            out += chi.entries[m, n] * (basis[m] @ rho @ dagger(basis[n]))
    return out


INPUT_RHOS = [np.outer(k, k.conj()) for k in tg.initial_states()]


class TestMeasurementModel:
    def test_ideal_coefficients(self):
        mm = tg.measurement_coefficients()
        assert mm.beta_a == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert mm.beta_b == pytest.approx(0.5, abs=1e-15)
        assert mm.beta_c == pytest.approx(0.5 / math.sqrt(3.0), abs=1e-15)

    def test_ideal_operator_is_ground_projector(self):
        m_i = tg.measurement_coefficients().operator()
        assert np.max(np.abs(m_i - ketbra(0, 0))) < 1e-12

    def test_miscalibrated_model_shifts_operator(self):
        m_i = tg.MeasurementModel(1.0 / 3.0, 0.45, 0.5 / math.sqrt(3.0)).operator()
        # lambda_3 only moves the g and e diagonal entries
        assert m_i[0, 0].real == pytest.approx(1.0 - 0.05, abs=1e-12)
        assert m_i[1, 1].real == pytest.approx(0.05, abs=1e-12)
        assert abs(m_i[2, 2]) < 1e-12


class TestInputsAndPrerotations:
    def test_input_list_order_and_norms(self):
        g, e, f = basis_ket(0), basis_ket(1), basis_ket(2)
        r2 = 1.0 / math.sqrt(2.0)
        expected = [
            g, e, f,
            r2 * (g + e), r2 * (e + f), r2 * (g + f),
            r2 * (g - 1j * e), r2 * (e - 1j * f), r2 * (g - 1j * f),
        ]
        states = tg.initial_states()
        assert len(states) == 9
        for got, want in zip(states, expected):
            assert np.max(np.abs(got - want)) < 1e-15
            assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-15)

    def test_input_projectors_span_operator_space(self):
        span = np.stack([r.reshape(-1) for r in INPUT_RHOS])
        assert np.linalg.matrix_rank(span, tol=1e-10) == 9

    def test_prerotation_identity_and_unitarity(self):
        rots = tg.prerotations()
        assert len(rots) == 9
        assert np.max(np.abs(rots[0] - np.eye(3))) == 0.0
        for u in rots:
            assert np.max(np.abs(dagger(u) @ u - np.eye(3))) < 1e-12

    def test_pi_pulse_on_ground_state(self):
        rots = tg.prerotations()
        assert np.max(np.abs(rots[3] @ basis_ket(0) - (-1j) * basis_ket(1))) < 1e-12

    def test_last_prerotation_measures_f_population(self):
        # the ge pulse fires first, then the ef pulse: |g> -> |e> -> |f|,
        # so the effective measurement operator is the |f> projector
        rots = tg.prerotations()
        effective = dagger(rots[8]) @ ketbra(0, 0) @ rots[8]
        assert np.max(np.abs(effective - ketbra(2, 2))) < 1e-12
        seq = tg.rotation("ef", math.pi) @ tg.rotation("ge", math.pi)
        out = seq @ basis_ket(0)
        assert abs(abs(out[2]) - 1.0) < 1e-12

    def test_composition_order_is_right_to_left(self):
        rots = tg.prerotations()
        x90_ge = tg.rotation("ge", math.pi / 2.0)
        x180_ef = tg.rotation("ef", math.pi)
        assert np.max(np.abs(rots[4] - x90_ge @ x180_ef)) < 1e-15

    def test_rotation_rejects_unknown_transition(self):
        with pytest.raises(DimensionMismatchError):
            tg.rotation("gf", math.pi)


class TestRecords:
    def test_exact_identity_channel_values(self):
        record = tg.simulate_record(INPUT_RHOS)
        assert record.values.shape == (9, 9)
        assert record.shots is None
        # input |g>, no pre-rotation
        assert record.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        # input |e>, pi pulse maps it back onto |g> before measuring
        assert record.values[1, 3] == pytest.approx(1.0, abs=1e-12)
        # input (|g>+|f>)/sqrt(2), no pre-rotation: Born rule gives 1/2
        assert record.values[5, 0] == pytest.approx(0.5, abs=1e-12)

    def test_values_within_unit_interval_for_ideal_model(self):
        rng = np.random.default_rng(21)
        outputs = [random_density(rng) for _ in range(9)]
        record = tg.simulate_record(outputs)
        assert np.all(record.values >= -1e-12)
        assert np.all(record.values <= 1.0 + 1e-12)

    def test_bad_shot_counts_rejected(self):
        with pytest.raises(BadShotCountError):
            tg.simulate_record(INPUT_RHOS, shots=0)
        with pytest.raises(BadShotCountError):
            tg.simulate_record(INPUT_RHOS, shots=-5)

    def test_sampled_records_are_seeded_and_quantized(self):
        a = tg.simulate_record(INPUT_RHOS, shots=200, seed=3)
        b = tg.simulate_record(INPUT_RHOS, shots=200, seed=3)
        c = tg.simulate_record(INPUT_RHOS, shots=200, seed=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.shots == 200 and a.seed == 3
        counts = a.values * 200
        assert np.max(np.abs(counts - np.round(counts))) < 1e-9

    def test_sampled_converges_to_exact_as_root_shots(self):
        u = hl.loop_unitary(hl.HolonomicParams(math.pi / 2.0, math.pi, 0.0))
        outputs = [u @ r @ dagger(u) for r in INPUT_RHOS]
        exact = tg.simulate_record(outputs).values
        rms = {}
        for shots in (100, 1000, 10000):
            sampled = tg.simulate_record(outputs, shots=shots, seed=7).values
            rms[shots] = float(np.sqrt(np.mean((sampled - exact) ** 2)))
        assert rms[100] > rms[1000] > rms[10000]
        # two decades of shots should shrink the error by about 10x
        assert 6.0 < rms[100] / rms[10000] < 16.0

    def test_record_json_round_trip(self, tmp_path):
        record = tg.simulate_record(INPUT_RHOS, shots=150, seed=9)
        path = tmp_path / "record.json"
        record.to_json(path)
        back = tg.TomographyRecord.from_json(path)
        assert np.array_equal(back.values, record.values)
        assert back.input_labels == record.input_labels
        assert back.prerotation_labels == record.prerotation_labels
        assert back.shots == 150
        assert back.seed == 9

    def test_record_shape_must_match_labels(self):
        with pytest.raises(DimensionMismatchError):
            tg.TomographyRecord(values=np.zeros((9, 8)))


class TestStateReconstruction:
    def test_linear_inversion_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = random_density(rng)
            record = tg.simulate_record([rho])
            back = tg.linear_state(record.values[0])
            assert np.max(np.abs(back - rho)) < 1e-10

    def test_mle_recovers_pure_ground_state(self):
        record = tg.simulate_record([ketbra(0, 0)])
        rho = tg.mle_density(record.values[0])
        assert rho[0, 0].real > 1.0 - 1e-6

    def test_mle_recovers_maximally_mixed_state(self):
        record = tg.simulate_record([np.eye(3) / 3.0])
        rho = tg.mle_density(record.values[0])
        assert np.max(np.abs(rho - np.eye(3) / 3.0)) < 1e-6

    def test_mle_round_trip_on_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            rho = random_density(rng)
            record = tg.simulate_record([rho])
            back = tg.mle_density(record.values[0])
            assert trace_distance(back, rho) < 1e-5

    def test_mle_output_physical_even_for_noisy_rows(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            rho = random_density(rng)
            record = tg.simulate_record([rho], shots=100, seed=int(rng.integers(1 << 30)))
            back = tg.mle_density(record.values[0])
            assert np.trace(back).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(back).min() > -1e-12

    def test_mle_convergence_failure_reports_best_iterate(self, monkeypatch):
        # alternating 0/1 row is not consistent with any density matrix and
        # one iteration is far too few to settle the fit
        row = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        monkeypatch.setattr(tg, "MLE_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceFailureError) as excinfo:
            tg.mle_density(row)
        best = excinfo.value.best
        assert best.shape == (3, 3)
        assert np.trace(best).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(best).min() > -1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ranks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        shots=st.integers(50, 1000),
    )
    def test_sampled_rows_meet_the_optimality_conditions(self, seed, ranks, shots):
        rng = np.random.default_rng(seed)
        rhos = []
        for rank in ranks:
            m = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
            rhos.append(m @ dagger(m) / np.trace(m @ dagger(m)).real)
        rows = tg.simulate_record(rhos, shots=shots, seed=seed).values
        stacked = tg.mle_density(rows)
        for row, rho in zip(rows, stacked):
            assert_physical(rho)
            assert kkt_defect(row, rho) <= KKT_TOL
            assert np.array_equal(tg.mle_density(row), rho)


class TestChiExtraction:
    def test_identity_channel_pattern(self):
        # frozen from the analytic decomposition: I = I_gf + I_e, so the
        # identity chi is the 2x2 block of ones over slots {0, 8}
        chi = tg.extract_chi(INPUT_RHOS, INPUT_RHOS)
        golden = np.zeros((9, 9))
        for a in (0, 8):
            for b in (0, 8):
                golden[a, b] = 1.0
        assert np.max(np.abs(chi.entries - golden)) < 1e-10
        assert chi.residual < 1e-10

    def test_embedded_sigma_x_pattern(self):
        u = embed_gf(np.array([[0, 1], [1, 0]], dtype=complex))
        outputs = [u @ r @ dagger(u) for r in INPUT_RHOS]
        chi = tg.extract_chi(INPUT_RHOS, outputs)
        golden = np.zeros((9, 9))
        for a in (1, 8):
            for b in (1, 8):
                golden[a, b] = 1.0
        assert np.max(np.abs(chi.entries - golden)) < 1e-10

    def test_depolarizing_channel_reproduced_forward(self):
        outputs = [np.eye(3, dtype=complex) / 3.0 for _ in INPUT_RHOS]
        chi = tg.extract_chi(INPUT_RHOS, outputs)
        assert chi.hermiticity_defect() < 1e-12
        assert chi.tp_defect() < 1e-12
        rng = np.random.default_rng(61)
        for _ in range(5):
            rho = random_density(rng)
            out = apply_chi(chi, rho)
            assert np.max(np.abs(out - np.eye(3) / 3.0)) < 1e-10

    def test_unitary_chi_is_trace_preserving_and_hermitian(self):
        u = hl.loop_unitary(hl.HolonomicParams(0.7, 1.1, -0.4))
        outputs = [u @ r @ dagger(u) for r in INPUT_RHOS]
        chi = tg.extract_chi(INPUT_RHOS, outputs)
        assert chi.hermiticity_defect() < 1e-10
        assert chi.tp_defect() < 1e-10

    def test_singular_input_span_rejected(self):
        bad = list(INPUT_RHOS[:8]) + [INPUT_RHOS[0]]
        with pytest.raises(SingularInputSpanError):
            tg.extract_chi(bad, bad)

    def test_length_and_shape_mismatches_rejected(self):
        with pytest.raises(DimensionMismatchError):
            tg.extract_chi(INPUT_RHOS, INPUT_RHOS[:8])
        with pytest.raises(DimensionMismatchError):
            tg.extract_chi(
                [np.eye(2) / 2.0] * 9, [np.eye(2) / 2.0] * 9
            )
        # the square inversion takes exactly d^2 = 9 inputs
        with pytest.raises(DimensionMismatchError):
            tg.extract_chi(INPUT_RHOS + INPUT_RHOS[:1], INPUT_RHOS + INPUT_RHOS[:1])

    def test_psd_projection_flag(self):
        rng = np.random.default_rng(71)
        outputs = [
            r + 0.01 * (lambda h: (h + dagger(h)) / 2.0)(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            )
            for r in INPUT_RHOS
        ]
        raw = tg.extract_chi(INPUT_RHOS, outputs, project=False)
        snapped = tg.extract_chi(INPUT_RHOS, outputs, project=True)
        assert np.linalg.eigvalsh(raw.entries).min() < -1e-6
        assert np.linalg.eigvalsh(snapped.entries).min() > -1e-12

    def test_chi_of_unitary_matches_extraction(self):
        # the named gate loops and random 3x3 unitaries round-trip exactly
        rngs = map(np.random.default_rng, range(5))
        for u in [
            hl.loop_unitary(hl.HolonomicParams(1.2, -0.8, 0.3)),
            *(hl.loop_unitary(p) for p in hl.QUBIT_GATES.values()),
            *(np.linalg.qr(g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))[0] for g in rngs),
        ]:
            outputs = [u @ r @ dagger(u) for r in INPUT_RHOS]
            extracted = tg.extract_chi(INPUT_RHOS, outputs)
            analytic = tg.chi_of_unitary(u)
            assert np.max(np.abs(extracted.entries - analytic.entries)) < 1e-10

    def test_chi_shape_must_match_basis(self):
        with pytest.raises(DimensionMismatchError):
            tg.ChiMatrix(entries=np.eye(4), basis=process_basis_gf())

    def test_csv_export_round_trips_exactly(self, tmp_path):
        chi = tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["H"]))
        path = tmp_path / "chi.csv"
        chi.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "m,n,label_m,label_n,real,imag"
        assert len(lines) == 1 + 81
        back = np.zeros((9, 9), dtype=complex)
        for line in lines[1:]:
            m, n, _, _, re, im = line.split(",")
            back[int(m), int(n)] = float(re) + 1j * float(im)
        assert np.array_equal(back, chi.entries)


class TestReduction:
    def test_ideal_x_gate_block(self):
        chi = tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["X_pi"]))
        red = tg.reduce_chi(chi)
        golden = np.zeros((4, 4))
        golden[1, 1] = 1.0
        assert np.max(np.abs(red.entries - golden)) < 1e-12
        assert red.trace() == pytest.approx(1.0, abs=1e-12)
        assert red.basis.labels == process_basis_gf().labels[:4]

    def test_identity_block(self):
        red = tg.reduce_chi(tg.extract_chi(INPUT_RHOS, INPUT_RHOS))
        golden = np.zeros((4, 4))
        golden[0, 0] = 1.0
        assert np.max(np.abs(red.entries - golden)) < 1e-10

    def test_leakage_channel_trace_reads_one_minus_p(self):
        p = 0.23
        k0 = np.diag([math.sqrt(1 - p), 1.0, math.sqrt(1 - p)]).astype(complex)
        k1 = math.sqrt(p) * ketbra(1, 0)
        k2 = math.sqrt(p) * ketbra(1, 2)
        outputs = [
            k0 @ r @ dagger(k0) + k1 @ r @ dagger(k1) + k2 @ r @ dagger(k2)
            for r in INPUT_RHOS
        ]
        red = tg.reduce_chi(tg.extract_chi(INPUT_RHOS, outputs))
        assert red.trace() == pytest.approx(1.0 - p, abs=1e-9)

    def test_random_lindblad_channels_keep_trace_in_unit_interval(self):
        for i in range(3):
            rng = np.random.default_rng(100 + i)
            segments, start = [], 0.0
            for name in ("ge", "ef"):
                dur = rng.uniform(40e-9, 80e-9)
                env = pl.normalize_to_area(
                    pl.TruncatedGaussian(sigma=dur / 4.0),
                    rng.uniform(0.5, 2.0) * math.pi,
                )
                segments.append(
                    pl.PulseSegment(
                        envelope=env,
                        transition=name,
                        phase=rng.uniform(-math.pi, math.pi),
                        start=start,
                    )
                )
                start += dur
            schedule = pl.GateSchedule(segments=tuple(segments), duration=start)
            noise = md.NoiseModel(
                gamma_eg=rng.uniform(0.0, 2e4),
                gamma_fe=rng.uniform(0.0, 2e4),
                gamma_fg=0.0,
                gamma_phi_ge=rng.uniform(0.0, 2e4),
                gamma_phi_ef=rng.uniform(0.0, 2e4),
            )
            sup = ev.schedule_channel(schedule, noise=noise)
            outputs = [ev.apply_channel(sup, r) for r in INPUT_RHOS]
            trace = tg.reduce_chi(tg.extract_chi(INPUT_RHOS, outputs)).trace()
            assert 0.0 <= trace <= 1.0 + 1e-6

    def test_reduce_requires_full_chi(self):
        red = tg.reduce_chi(tg.extract_chi(INPUT_RHOS, INPUT_RHOS))
        with pytest.raises(DimensionMismatchError):
            tg.reduce_chi(red)


class TestFidelities:
    def test_equal_normalized_matrices_give_one(self):
        chi = tg.reduce_chi(tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["H"])))
        assert tg.fidelity_att(chi, chi) == pytest.approx(1.0, abs=1e-12)
        assert tg.fidelity_unatt(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_attenuation_separates_the_metrics(self):
        chi = tg.reduce_chi(tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["X_pi"])))
        scaled = 0.9 * chi.entries
        assert tg.fidelity_att(scaled, chi) == pytest.approx(0.9, abs=1e-12)
        assert tg.fidelity_unatt(scaled, chi) == pytest.approx(1.0, abs=1e-12)

    def test_unattenuated_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(81)
        chi_th = tg.reduce_chi(tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["H"])))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi_exp = chi_th.entries + 0.05 * (m + dagger(m))
        base = tg.fidelity_unatt(chi_exp, chi_th)
        for _ in range(10):
            s = rng.uniform(0.01, 100.0)
            assert tg.fidelity_unatt(s * chi_exp, chi_th) == pytest.approx(
                base, abs=1e-12
            )

    def test_orthogonal_processes_have_zero_fidelity(self):
        chix = tg.reduce_chi(tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["X_pi"])))
        chiz = tg.reduce_chi(tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["Z_pi"])))
        assert tg.fidelity_att(chix, chiz) < 1e-15
        assert tg.fidelity_unatt(chix, chiz) < 1e-15
        qb = qubit_pauli_basis()
        cx = tg.chi_of_unitary(np.array([[0, 1], [1, 0]], dtype=complex), qb)
        cz = tg.chi_of_unitary(np.diag([1.0, -1.0]).astype(complex), qb)
        assert tg.fidelity_att(cx, cz) < 1e-15

    def test_dimension_mismatch_rejected(self):
        full = tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["H"]))
        red = tg.reduce_chi(full)
        with pytest.raises(DimensionMismatchError):
            tg.fidelity_att(full, red)
        with pytest.raises(DimensionMismatchError):
            tg.fidelity_unatt(full, red)


class TestEndToEnd:
    def test_identity_channel_through_full_pipeline(self):
        record = tg.simulate_record(INPUT_RHOS)
        estimates = [tg.mle_density(record.values[k]) for k in range(9)]
        chi = tg.extract_chi(INPUT_RHOS, estimates)
        golden = np.zeros((9, 9))
        for a in (0, 8):
            for b in (0, 8):
                golden[a, b] = 1.0
        assert np.max(np.abs(chi.entries - golden)) < 1e-5

    def test_noiseless_gate_qpt_is_exact(self):
        schedule = hl.synthesize_qubit_gate(hl.QUBIT_GATES["X_pi_2"])
        result = tg.simulate_qpt(schedule)
        chi_th = tg.reduce_chi(
            tg.chi_of_unitary(hl.loop_unitary(hl.QUBIT_GATES["X_pi_2"]))
        )
        assert tg.fidelity_unatt(result.chi_reduced, chi_th) == pytest.approx(
            1.0, abs=1e-8
        )
        assert result.chi_reduced.trace() == pytest.approx(1.0, abs=1e-8)
        assert result.record.shots is None

    def test_sampled_qpt_records_shots_and_seed(self):
        schedule = hl.synthesize_qubit_gate(hl.QUBIT_GATES["X_pi"])
        result = tg.simulate_qpt(schedule, shots=200, seed=5)
        assert result.record.shots == 200
        assert result.record.seed == 5
        counts = result.record.values * 200
        assert np.max(np.abs(counts - np.round(counts))) < 1e-9


#: 300-shot QPT records drawn like the benchmark's fit workload, on which a
#: nonconvex Cholesky-parameter fit ran out of evaluations (FAILING_QPT) or
#: needed thousands of them per row (SLOW_QPT)
FAILING_QPT = {"device": "paper-device", "seed": 1441652260,
               "qpt": {"gate": {"theta": 1.4885643527488204, "gamma": 6.244010877235908,
                                "phi": 5.070861817954394}, "shots": 300}}
SLOW_QPT = {"device": "paper-device", "seed": 1070832845,
            "qpt": {"gate": {"theta": 2.054851549935035, "gamma": 5.925184535719045,
                             "phi": 5.381242674882924}, "shots": 300}}


@pytest.mark.parametrize("cfg", [FAILING_QPT, SLOW_QPT], ids=["failing", "slow"])
def test_sampled_qpt_records_reconstruct_to_the_optimum(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    out = tmp_path / "out"
    assert cli.run("qpt", str(path), str(out), threads=1) == 0
    rows = tg.TomographyRecord.from_json(out / "record.json").values
    for row, rho in zip(rows, tg.mle_density(rows)):
        assert_physical(rho)
        assert kkt_defect(row, rho) <= KKT_TOL
