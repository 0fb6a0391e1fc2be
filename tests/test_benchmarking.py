"""
Randomized benchmarking: sequences, survival, decay fitting, fidelities.

Sequences draw uniformly from the 24-element single-loop Clifford table and
close with the exact recovery element; survival decays as F = A p^m + B.
The synthetic-channel tests compose unitary superoperators with an explicit
depolarizing map, where the decay constant is known exactly.
"""

import json
import math

import numpy as np
import pytest

from holosim import benchmarking as rb
from holosim import evolution as ev
from holosim import holonomic as hl
from holosim.errors import (
    FitDivergenceError,
    OutOfRangeError,
    RatioOutOfRangeError,
)
from holosim.model import paper_device
from holosim.operators import phase_aligned_distance

TABLE = hl.clifford_table()
X_PI = hl.QUBIT_GATES["X_pi"]

#: (seed, m, draws, recovery, recovery with H interleaved) as group indices,
#: computed by the 2x2-matrix product and find_recovery scan
PINNED_SEQUENCES = [
    ([7, 0, 12, 3], 12, [2, 5, 23, 22, 6, 21, 17, 4, 17, 9, 6, 16], 6, 13),
    ([2024, 1, 9, 41], 9, [4, 19, 17, 7, 23, 3, 19, 12, 11], 21, 11),
]


def depolarizing_superoperator(d):
    eye9 = np.eye(9)
    mix = np.outer(np.eye(3).reshape(-1) / 3.0, np.eye(3).reshape(-1))
    return (1.0 - d) * eye9 + d * mix


def synthetic_survivals(lengths, d, seed, k):
    """Survivals of ideal Clifford strings with depolarizing of strength d
    appended after every Clifford; exact value 2/3 (1-d)^m + 1/3."""
    depol = depolarizing_superoperator(d)
    sups = [ev.unitary_superoperator(hl.loop_unitary(p)) for p in TABLE]
    means = []
    for m in lengths:
        vals = []
        for j in range(k):
            draws, recovery = rb.random_sequence(m, [seed, m, j])
            ops = []
            for i in draws:
                ops.append(sups[i])
                ops.append(depol)
            ops.append(sups[recovery])
            vals.append(rb.survival_probability(ops))
        means.append(float(np.mean(vals)))
    return np.array(means)


def per_sequence_survivals(cfg, stream, gate):
    """RB survivals one sequence at a time: recovery by 2x2 product and
    find_recovery scan, survival by one ``sup @ v`` per channel."""

    def channel(params):
        schedule = hl.synthesize_qubit_gate(params)
        return ev.schedule_channel(schedule, noise=cfg.noise, err=cfg.err, steps=cfg.steps)

    out = np.empty((len(cfg.lengths), cfg.k))
    for mi, m in enumerate(cfg.lengths):
        for j in range(cfg.k):
            rng = np.random.default_rng([cfg.seed, stream, m, j])
            draws = [TABLE[int(i)] for i in rng.integers(0, len(TABLE), size=m)]
            product = np.eye(2, dtype=complex)
            ops = []
            for params in draws:
                product = hl.target_u1(params) @ product
                ops.append(channel(params))
                if gate is not None:
                    product = hl.target_u1(gate) @ product
                    ops.append(channel(gate))
            ops.append(channel(TABLE[hl.find_recovery(product)]))
            v = np.zeros(9, dtype=complex)
            v[0] = 1.0
            for sup in ops:
                v = sup @ v
            out[mi, j] = v[0].real
    return out


class TestConfig:
    def test_lengths_validated(self):
        with pytest.raises(OutOfRangeError):
            rb.RbConfig(lengths=())
        with pytest.raises(OutOfRangeError):
            rb.RbConfig(lengths=(1, 0, 3))
        # two distinct lengths cannot identify A, p and B: rejected before
        # any channel is built, not by fit_rb after every sequence ran
        with pytest.raises(OutOfRangeError, match="distinct"):
            rb.RbConfig(lengths=(1, 2, 2, 1))

    def test_k_validated(self):
        with pytest.raises(OutOfRangeError):
            rb.RbConfig(lengths=(1, 2, 3), k=0)

    def test_unknown_interleaved_gate_rejected(self):
        with pytest.raises(OutOfRangeError):
            rb.RbConfig(lengths=(1, 2, 3), interleaved="CNOT")

    def test_non_clifford_interleaved_gate_rejected(self):
        assert "T" in hl.QUBIT_GATES and "T" not in rb.CLIFFORD_GATES
        with pytest.raises(OutOfRangeError, match="Clifford"):
            rb.RbConfig(lengths=(1, 2, 3), interleaved="T")
        for name in rb.CLIFFORD_GATES:
            assert rb.RbConfig(lengths=(1, 2, 3), interleaved=name).interleaved == name

    def test_lengths_coerced_to_int_tuple(self):
        cfg = rb.RbConfig(lengths=[1.0, 2.0, 4.0])
        assert cfg.lengths == (1, 2, 4)


class TestSequences:
    def test_draws_come_from_table_and_close(self):
        rng_seeds = [[11, m, j] for m in (1, 3, 7) for j in range(5)]
        for seed in rng_seeds:
            m = seed[1]
            draws, recovery = rb.random_sequence(m, seed)
            assert len(draws) == m
            assert all(0 <= i < len(TABLE) for i in draws)
            product = np.eye(2, dtype=complex)
            for i in draws:
                product = hl.target_u1(TABLE[i]) @ product
            closed = hl.target_u1(TABLE[recovery]) @ product
            assert phase_aligned_distance(closed, np.eye(2)) < 1e-10

    def test_x_pi_recovers_itself(self):
        # X_pi is self-inverse up to phase, so it is its own recovery
        r = hl.find_recovery(hl.target_u1(X_PI))
        assert TABLE[r] == X_PI

    def test_recovery_is_unique_in_table(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(1, 12))
            draws, _ = rb.random_sequence(m, [int(rng.integers(1 << 30))])
            product = np.eye(2, dtype=complex)
            for i in draws:
                product = hl.target_u1(TABLE[i]) @ product
            hits = [
                r
                for r, params in enumerate(TABLE)
                if phase_aligned_distance(hl.target_u1(params) @ product, np.eye(2))
                < 1e-8
            ]
            assert len(hits) == 1

    def test_interleaved_recovery_closes_full_string(self):
        draws, recovery = rb.random_sequence(6, [31], interleave=TABLE.index(X_PI))
        product = np.eye(2, dtype=complex)
        for i in draws:
            product = hl.target_u1(X_PI) @ hl.target_u1(TABLE[i]) @ product
        closed = hl.target_u1(TABLE[recovery]) @ product
        assert phase_aligned_distance(closed, np.eye(2)) < 1e-10

    def test_seeded_draws_are_deterministic(self):
        a, ra = rb.random_sequence(8, [5, 8, 0])
        b, rbk = rb.random_sequence(8, [5, 8, 0])
        c, _ = rb.random_sequence(8, [6, 8, 0])
        assert np.array_equal(a, b) and ra == rbk
        assert not np.array_equal(a, c)

    def test_zero_length_rejected(self):
        with pytest.raises(OutOfRangeError):
            rb.random_sequence(0, [1])

    @pytest.mark.parametrize("seed,m,draws,recovery,recovery_h", PINNED_SEQUENCES)
    def test_pinned_draws_and_recoveries(self, seed, m, draws, recovery, recovery_h):
        got, rec = rb.random_sequence(m, seed)
        assert got.tolist() == draws
        assert rec == recovery
        got_h, rec_h = rb.random_sequence(m, seed, TABLE.index(hl.QUBIT_GATES["H"]))
        assert np.array_equal(got_h, got)
        assert rec_h == recovery_h

    def test_interleave_outside_table_params_uses_its_group_element(self):
        # Y_pi's published phi differs from its table entry by a global
        # phase; its group index still closes a string built with its own
        # target_u1 matrix
        y_pi = hl.QUBIT_GATES["Y_pi"]
        assert y_pi not in TABLE
        gate = rb._group_index(y_pi)
        draws, recovery = rb.random_sequence(7, [3, 1, 7, 0], interleave=gate)
        product = np.eye(2, dtype=complex)
        for i in draws:
            product = hl.target_u1(y_pi) @ hl.target_u1(TABLE[i]) @ product
        closed = hl.target_u1(TABLE[recovery]) @ product
        assert phase_aligned_distance(closed, np.eye(2)) < 1e-10


class TestRunRb:
    def test_noiseless_survivals_and_unit_p(self):
        cfg = rb.RbConfig(lengths=(1, 2, 4), k=3, seed=0)
        run = rb.run_rb(cfg)
        assert run.interleaved is None
        assert np.all(run.reference.survivals > 1.0 - 1e-6)
        assert run.reference.fit.p == 1.0
        assert run.reference.fit.f_avg == 1.0

    def test_noiseless_interleaved_gate_fidelity_is_one(self):
        cfg = rb.RbConfig(lengths=(1, 2, 4), k=3, seed=0, interleaved="X_pi")
        run = rb.run_rb(cfg)
        assert run.gate_name == "X_pi"
        assert run.interleaved is not None
        assert run.gate_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_bit_identical_for_identical_config(self):
        cfg = rb.RbConfig(lengths=(1, 3, 5), k=4, seed=9)
        a = rb.run_rb(cfg)
        b = rb.run_rb(cfg)
        assert np.array_equal(a.reference.survivals, b.reference.survivals)

    @pytest.mark.parametrize("gate", ["H", "X_pi", "Y_pi"])
    def test_batched_survivals_equal_per_sequence_loop(self, gate):
        # X_pi and H are table entries; Y_pi matches its entry only up to
        # phase, so its interleaved channel is built from its own loop
        cfg = rb.RbConfig(lengths=(1, 2, 5), k=5, seed=4, interleaved=gate,
                          noise=paper_device().q1_noise, steps=64)
        run = rb.run_rb(cfg)
        assert np.array_equal(run.reference.survivals, per_sequence_survivals(cfg, 0, None))
        gate_params = hl.QUBIT_GATES[gate]
        assert np.array_equal(
            run.interleaved.survivals, per_sequence_survivals(cfg, 1, gate_params)
        )
        assert np.all(run.interleaved.survivals < 1.0 - 1e-4)

    @pytest.mark.parametrize("gate,builds", [("H", 24), ("Y_pi", 25)])
    def test_interleaved_table_gate_reuses_its_table_channel(
        self, monkeypatch, gate, builds
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ev.schedule_channel(*args, **kwargs)

        monkeypatch.setattr(rb, "schedule_channel", counting)
        cfg = rb.RbConfig(lengths=(1, 2, 5), k=5, seed=4, interleaved=gate,
                          noise=paper_device().q1_noise, steps=64)
        rb.run_rb(cfg)
        assert len(calls) == builds

    def test_survival_probability_accepts_a_batch_axis(self):
        sups = [ev.unitary_superoperator(hl.loop_unitary(p)) for p in TABLE[:6]]
        depol = depolarizing_superoperator(0.02)
        strings = [(0, 3), (5, 1), (2, 2), (4, 0)]
        stack = np.stack(sups)
        cols = np.array(strings).T
        batched = rb.survival_probability([stack[cols[0]], depol, stack[cols[1]]])
        singles = [rb.survival_probability([sups[a], depol, sups[b]]) for a, b in strings]
        assert batched.shape == (4,)
        assert np.array_equal(batched, singles)

    def test_statistics_match_survivals(self):
        cfg = rb.RbConfig(lengths=(1, 2, 4), k=5, seed=2)
        run = rb.run_rb(cfg)
        ref = run.reference
        assert ref.survivals.shape == (3, 5)
        assert np.allclose(ref.means, ref.survivals.mean(axis=1))
        assert np.allclose(ref.stddevs, ref.survivals.std(axis=1))
        assert ref.k == 5


class TestSyntheticDepolarizing:
    def test_fitted_p_matches_channel_strength(self):
        lengths = (1, 2, 4, 8, 12, 16, 20)
        for d in (0.01, 0.05):
            means = synthetic_survivals(lengths, d, seed=7, k=3)
            fit = rb.fit_rb(lengths, means)
            assert abs(fit.p - (1.0 - d)) < 1e-3
            assert fit.b == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_decay_is_monotone_nonincreasing(self):
        lengths = tuple(range(1, 11))
        means = synthetic_survivals(lengths, 0.04, seed=13, k=100)
        assert np.all(np.diff(means) <= 1e-12)

    def test_survival_closed_form(self):
        # unitaries leave I/3 alone, so the mixture evolves in closed form
        for m in (1, 5, 9):
            means = synthetic_survivals((m,), 0.03, seed=3, k=2)
            expected = 0.97**m + (1.0 - 0.97**m) / 3.0
            assert means[0] == pytest.approx(expected, abs=1e-12)


class TestFit:
    @pytest.mark.parametrize(
        "a,p,b",
        [(0.5, 0.99, 0.5), (0.7, 0.95, 0.25), (0.9, 0.999, 0.05), (0.4, 0.8, 0.33)],
    )
    def test_round_trip_on_exact_data(self, a, p, b):
        m = np.arange(1, 21)
        fit = rb.fit_rb(m, a * p**m + b)
        assert abs(fit.p - p) < 1e-4
        assert abs(fit.a - a) < 1e-3
        assert abs(fit.b - b) < 1e-3

    def test_f_avg_formula(self):
        m = np.arange(1, 21)
        fit = rb.fit_rb(m, 0.5 * 0.992**m + 0.5)
        assert fit.f_avg == pytest.approx(0.996, abs=1e-6)

    def test_flat_at_ceiling_returns_unit_p(self):
        fit = rb.fit_rb((1, 2, 3, 4), np.ones(4))
        assert fit.p == 1.0
        assert fit.f_avg == 1.0
        assert fit.a == 0.0

    def test_flat_elsewhere_raises(self):
        with pytest.raises(FitDivergenceError):
            rb.fit_rb((1, 2, 3, 4), np.full(4, 0.5))

    def test_too_few_lengths_raises(self):
        with pytest.raises(FitDivergenceError):
            rb.fit_rb((1, 2), np.array([0.9, 0.8]))
        with pytest.raises(FitDivergenceError):
            rb.fit_rb((1, 1, 1, 2), np.array([0.9, 0.9, 0.9, 0.8]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(FitDivergenceError):
            rb.fit_rb((1, 2, 3), np.array([0.9, 0.8]))

    def test_noisy_data_still_recovers_decay(self):
        rng = np.random.default_rng(17)
        m = np.arange(1, 21)
        truth = 0.6 * 0.97**m + 0.35
        fit = rb.fit_rb(m, truth + rng.normal(0.0, 1e-3, size=m.size))
        assert abs(fit.p - 0.97) < 5e-3
        assert fit.residual_rms < 5e-3


class TestInterleavedFidelity:
    def test_equal_decays_give_unity(self):
        assert rb.interleaved_fidelity(0.97, 0.97) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        got = rb.interleaved_fidelity(0.99, 0.995)
        assert got == pytest.approx(1.0 - (1.0 - 0.99 / 0.995) / 2.0, abs=1e-15)
        assert got == pytest.approx(0.99749, abs=1e-5)

    def test_out_of_range_rejected(self):
        with pytest.raises(RatioOutOfRangeError):
            rb.interleaved_fidelity(0.9, 0.0)
        with pytest.raises(RatioOutOfRangeError):
            rb.interleaved_fidelity(0.9, 1.2)
        with pytest.raises(RatioOutOfRangeError):
            rb.interleaved_fidelity(0.991, 0.99)
        with pytest.raises(RatioOutOfRangeError):
            rb.interleaved_fidelity(0.0, 0.99)

    def test_tiny_overshoot_tolerated(self):
        # statistical noise can push p_gate a hair above p_ref
        got = rb.interleaved_fidelity(0.99 * (1.0 + 5e-7), 0.99)
        assert got == pytest.approx(1.0, abs=1e-6)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        cfg = rb.RbConfig(lengths=(1, 2, 4), k=3, seed=1)
        run = rb.run_rb(cfg)
        path = tmp_path / "rb.csv"
        run.reference.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "m,mean,stddev,k"
        assert len(lines) == 4
        for line, m, mean, sd in zip(
            lines[1:], run.reference.lengths, run.reference.means,
            run.reference.stddevs,
        ):
            fm, fmean, fsd, fk = line.split(",")
            assert int(fm) == m
            assert float(fmean) == mean
            assert float(fsd) == sd
            assert int(fk) == 3

    def test_json_summary(self, tmp_path):
        cfg = rb.RbConfig(lengths=(1, 2, 4), k=3, seed=1, interleaved="H")
        run = rb.run_rb(cfg)
        path = tmp_path / "rb.json"
        run.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["p"] == run.reference.fit.p
        assert payload["F_avg"] == run.reference.fit.f_avg
        assert payload["F_gate"]["H"] == run.gate_fidelity
        assert payload["interleaved"]["gate"] == "H"

    def test_json_summary_without_interleaving(self, tmp_path):
        run = rb.run_rb(rb.RbConfig(lengths=(1, 2, 4), k=2, seed=1))
        path = tmp_path / "rb_ref.json"
        run.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["F_gate"] == {}
        assert "interleaved" not in payload
