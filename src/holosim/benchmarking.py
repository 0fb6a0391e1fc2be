"""Clifford randomized benchmarking of the single-loop gate set.

Reference RB propagates random length-m Clifford strings (each Clifford is
one single-loop gate) plus the closing recovery Clifford through the noisy
channel and records the ground-state survival; interleaved RB inserts the
gate under test after every Clifford. Survival decays as F = A p^m + B, and

    F_avg  = 1 - (1 - p_ref) / 2
    F_gate = 1 - (1 - p_gate / p_ref) / 2

turn the decay constants into per-Clifford and per-gate fidelities.

A Clifford string is a list of indices into the integer Clifford group
(holonomic.clifford_group) from draw to survival: it is composed through
the Cayley table and its recovery is read from the inverse table, with no
2x2 algebra, and the same indices pick the channels from the stack built in
group order. The k sequences of one length are drawn, composed and
propagated as one block, one string position at a time.

The draws are numpy's ``default_rng`` stream: row j of a block is
``np.random.default_rng([*seed, j]).integers(0, 24, size=m)``, computed
for all k rows at once in arrays (SeedSequence hash, PCG64 seeding and
jump-ahead, XSL-RR output, Lemire's multiply-shift). A row with a word that
Lemire's rule rejects is redrawn by its own ``default_rng``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FitDivergenceError,
    OutOfRangeError,
    RatioOutOfRangeError,
    write_json,
    write_text,
)
from .evolution import DEFAULT_STEPS, schedule_channel
from .holonomic import (
    QUBIT_GATES,
    HolonomicParams,
    clifford_group,
    find_recovery,
    qubit_half,
    synthesize_qubit_gate,
    target_u1,
)
from .model import NO_ERROR, NO_NOISE, ControlError, NoiseModel
from .operators import dagger

DEFAULT_LENGTHS = tuple(range(1, 21))


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first call so that importing
    the package loads no scipy; fit_rb calls it through this name, which
    perfbench/trace.py wraps to count evaluations."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def _group_index(params: HolonomicParams) -> int:
    """Clifford-table index of target_u1(params) up to phase; raises
    OutOfRangeError for a gate outside the group."""
    return find_recovery(dagger(target_u1(params)))


def _clifford_gate_names() -> tuple[str, ...]:
    names = []
    for name, params in QUBIT_GATES.items():
        try:
            _group_index(params)
        except OutOfRangeError:
            continue
        names.append(name)
    return tuple(sorted(names))


#: the named qubit gates that are Clifford elements: the valid interleaved gates
CLIFFORD_GATES = _clifford_gate_names()
#: fewest distinct sequence lengths that identify A, p and B of A p^m + B
MIN_DISTINCT_LENGTHS = 3


@dataclass(frozen=True)
class RbConfig:
    """One benchmarking run: sequence lengths, randomizations, and noise."""

    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    k: int = 100
    seed: int = 0
    interleaved: str | None = None
    noise: NoiseModel = NO_NOISE
    err: ControlError = NO_ERROR
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(m) for m in self.lengths))
        if not self.lengths:
            raise OutOfRangeError("lengths must not be empty")
        if any(m < 1 for m in self.lengths):
            raise OutOfRangeError(f"all sequence lengths must be >= 1: {self.lengths}")
        if len(set(self.lengths)) < MIN_DISTINCT_LENGTHS:
            raise OutOfRangeError(f"need {MIN_DISTINCT_LENGTHS} distinct lengths: {self.lengths}")
        if self.k < 1:
            raise OutOfRangeError(f"k must be >= 1, got {self.k}")
        if self.interleaved is not None and self.interleaved not in CLIFFORD_GATES:
            raise OutOfRangeError(
                f"interleaved gate {self.interleaved!r} is not a named Clifford gate; "
                f"choose from {list(CLIFFORD_GATES)}"
            )


@dataclass(frozen=True)
class RbFit:
    """Parameters of F = A p^m + B and the implied average fidelity."""

    a: float
    p: float
    b: float
    f_avg: float
    residual_rms: float = 0.0


@dataclass(frozen=True)
class RbRecord:
    """Survival statistics and decay fit of one RB experiment."""

    lengths: tuple[int, ...]
    means: np.ndarray
    stddevs: np.ndarray
    k: int
    fit: RbFit
    survivals: np.ndarray = field(repr=False)  # (n_lengths, k)

    def to_csv(self, path) -> None:
        lines = ["m,mean,stddev,k"]
        for m, mean, sd in zip(self.lengths, self.means, self.stddevs):
            lines.append(f"{m},{float(mean)!r},{float(sd)!r},{self.k}")
        write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class RbRun:
    """Reference record plus, optionally, one interleaved record."""

    reference: RbRecord
    interleaved: RbRecord | None = None
    gate_name: str | None = None
    gate_fidelity: float | None = None

    def to_json(self, path) -> None:
        payload = {
            "A": self.reference.fit.a,
            "p": self.reference.fit.p,
            "B": self.reference.fit.b,
            "F_avg": self.reference.fit.f_avg,
            "F_gate": {},
        }
        if self.interleaved is not None:
            payload["interleaved"] = {
                "gate": self.gate_name,
                "A": self.interleaved.fit.a,
                "p": self.interleaved.fit.p,
                "B": self.interleaved.fit.b,
            }
            payload["F_gate"][self.gate_name] = self.gate_fidelity
        write_json(path, payload)


def _entropy_words(values) -> list[int]:
    """The uint32 words numpy's SeedSequence coerces a list of non-negative
    ints into: each int as little-endian 32-bit words, 0 as one word."""
    words = []
    for v in map(int, values):
        if v < 0:
            raise OutOfRangeError(f"seed entries must be >= 0, got {v}")
        words += [v >> shift & 0xFFFFFFFF for shift in range(0, max(v.bit_length(), 1), 32)]
    return words


# numpy's default_rng stream, reproduced exactly for a block of rows:
# SeedSequence (numpy/random/bit_generator.pyx) -> PCG64 XSL-RR (O'Neill,
# HMC-CS-2014-0905) -> Lemire's bounded integers (ACM TOMACS 29, 3 (2019)).
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: PCG outputs per column chunk: temporaries stay at a few k x 32 arrays
_CHUNK = 32


def _seed_words(prefix: list[int], k: int) -> list:
    """The 8 uint32 words of ``SeedSequence([*prefix, j]).generate_state(4,
    np.uint64)`` for j < k (j < 2^32 is one word), each a (k,) uint64
    array. Words of the prefix mix as Python ints; only the last word, j,
    is an array."""
    entropy = [*prefix, np.arange(k, dtype=np.uint64)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = (value ^ hash_const) & _MASK32
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = (pool[i % _POOL_SIZE] ^ hash_const) & _MASK32
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


@functools.cache
def _jump_constants(n: int) -> np.ndarray:
    """(4, n) uint64: for t = 1..n, the 64-bit halves (high, low) of
    P_t = M^(t+1) and Q_t = M^(t+1) + sum_{i<t+1} M^i mod 2^128, so that the
    state after t outputs of a PCG64 seeded with (s, inc) is P_t s + Q_t inc.
    Rows are P high, P low, Q high, Q low."""
    mod = 1 << 128
    power, total = _PCG_MULT, 1  # M^1 and sum_{i<1} M^i
    table = np.empty((4, n), dtype=np.uint64)
    for t in range(n):
        power, total = power * _PCG_MULT % mod, (total + power) % mod
        q = (power + total) % mod
        table[:, t] = power >> 64, power & _MASK64, q >> 64, q & _MASK64
    return table


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b of uint64 arrays."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    cross = a0 * b1 + (mid & _MASK32)
    return a1 * b1 + (mid >> 32) + (cross >> 32)


def _pcg_word_blocks(prefix: list[int], k: int, m: int):
    """The first m uint32 words each row's PCG64 hands to
    ``np.random.default_rng([*prefix, j])``, j < k: each 64-bit XSL-RR
    output, low word first. Yields (k, <= 2 _CHUNK) uint64 column blocks in
    order, each made by jumping the 128-bit LCG straight to its outputs."""
    w = [v[:, None] for v in _seed_words(prefix, k)]
    s_hi, s_lo, seq_hi, seq_lo = (w[2 * i] | w[2 * i + 1] << 32 for i in range(4))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1  # (seq << 1) | 1
    n = -(-m // 2)
    table = _jump_constants(-(-n // _CHUNK) * _CHUNK)
    for start in range(0, n, _CHUNK):
        p_hi, p_lo, q_hi, q_lo = table[:, start : min(start + _CHUNK, n)]
        ps, qi = s_lo * p_lo, inc_lo * q_lo
        lo = ps + qi
        hi = (_mulhi(s_lo, p_lo) + s_hi * p_lo + s_lo * p_hi + _mulhi(inc_lo, q_lo)
              + inc_hi * q_lo + inc_lo * q_hi + (lo < ps))
        rot = hi >> 58
        xored = hi ^ lo
        out = xored >> rot | xored << (-rot & 63)
        words = np.empty((k, 2 * out.shape[1]), dtype=np.uint64)
        words[:, 0::2] = out & _MASK32
        words[:, 1::2] = out >> 32
        yield words[:, : m - 2 * start]


def _bounded_draws(prefix: list[int], k: int, m: int, size: int) -> np.ndarray:
    """(k, m) ints: ``np.random.default_rng([*prefix, j]).integers(0, size,
    size=m)`` for every j < k. Lemire's rule maps a word u to u * size >> 32;
    a row with a word it would reject (u * size mod 2^32 below
    (2^32 - size) mod size) is redrawn by its own generator."""
    draws = np.empty((k, m), dtype=int)
    rejected = np.zeros(k, dtype=bool)
    threshold = (2**32 - size) % size
    start = 0
    for words in _pcg_word_blocks(prefix, k, m):
        scaled = words * size
        draws[:, start : start + words.shape[1]] = scaled >> 32
        rejected |= ((scaled & _MASK32) < threshold).any(axis=1)
        start += words.shape[1]
    for j in np.flatnonzero(rejected):
        entropy = np.array([*prefix, j], dtype=np.uint32)
        draws[j] = np.random.default_rng(entropy).integers(0, size, size=m)
    return draws


def random_sequence(m: int, k: int, seed, interleave: int | None = None):
    """(draws, recovery): k strings of m uniform Clifford draws, (k, m), and
    the element closing each, (k,).

    All are clifford_group() indices. Row j is numpy's
    ``np.random.default_rng([*seed, j]).integers(0, 24, size=m)``, bit for
    bit, but computed for the whole block at once: the SeedSequence hash of
    every row, the PCG64 seeding, a jump-ahead of the 128-bit LCG to all m
    words and Lemire's multiply-shift, in arrays. A row with a word that
    Lemire's rule rejects (about one draw in 2.7e8) is redrawn by its own
    ``default_rng``. With ``interleave`` (a group index) set, the recovery
    inverts the string with that element inserted after every draw;
    ``draws`` still holds only the random draws. The k strings are composed
    together through the Cayley table and the recoveries read from the
    inverse table, so they are exact.
    """
    if m < 1:
        raise OutOfRangeError(f"sequence length must be >= 1, got {m}")
    if k < 1:
        raise OutOfRangeError(f"sequence count must be >= 1, got {k}")
    group = clifford_group()
    draws = _bounded_draws(_entropy_words(seed), k, m, len(group.elements))
    product = np.full(k, group.identity)
    for column in draws.T:
        product = group.cayley[column, product]
        if interleave is not None:
            product = group.cayley[interleave, product]
    return draws, group.inverse[product]


def survival_probability(superops) -> float | np.ndarray:
    """Ground-state population of the qutrit prepared in |g><g| after
    applying the superoperators in order.

    Each superoperator is one (9, 9) map or a (k, 9, 9) stack holding one
    map per sequence. With any stack the k sequences run together and the
    result is an array of k survivals, otherwise a float. np.matmul applies
    a stack with the same arithmetic as one ``sup @ v`` per sequence, so a
    batched survival equals its single-sequence value bit for bit.
    """
    v = np.zeros((9, 1), dtype=complex)
    v[0, 0] = 1.0
    for sup in superops:
        v = np.matmul(sup, v)
    ground = v[..., 0, 0].real
    return float(ground) if ground.ndim == 0 else ground


def _gate_channel(cfg: RbConfig, params: HolonomicParams, half) -> np.ndarray:
    return schedule_channel(
        synthesize_qubit_gate(params, half), noise=cfg.noise, err=cfg.err, steps=cfg.steps
    )


def _channels(stack, strings, gate_channel):
    """The channels of ``strings`` (k, m + 1) position by position, with
    ``gate_channel`` after every draw; one (k, 9, 9) gather held at a time."""
    for column in strings[:, :-1].T:
        yield stack[column]
        if gate_channel is not None:
            yield gate_channel
    yield stack[strings[:, -1]]


def _survivals(cfg: RbConfig, stack, stream: int, interleave, gate_channel) -> np.ndarray:
    """(n_lengths, k) survivals; the k strings of one length run as a batch
    on ``stack``, the channels of the Clifford group in index order.
    ``interleave`` is the group index of the interleaved gate or None."""
    survivals = np.empty((len(cfg.lengths), cfg.k))
    for mi, m in enumerate(cfg.lengths):
        draws, recovery = random_sequence(m, cfg.k, [cfg.seed, stream, m], interleave)
        strings = np.column_stack([draws, recovery])  # m draws, then the recovery
        survivals[mi] = survival_probability(_channels(stack, strings, gate_channel))
    return survivals


def run_rb(cfg: RbConfig) -> RbRun:
    """Reference (and optionally interleaved) RB under the configured noise.

    Every (length, randomization) cell draws from its own seeded stream, so
    results are bit-identical for identical configs regardless of evaluation
    order; the interleaved experiment uses fresh sequences (stream 1).
    """
    table = clifford_group().elements
    half = qubit_half()  # every gate shares the normalized half envelope
    stack = np.stack([_gate_channel(cfg, params, half) for params in table])

    def record(survivals):
        means = survivals.mean(axis=1)
        stddevs = survivals.std(axis=1)
        return RbRecord(
            lengths=cfg.lengths,
            means=means,
            stddevs=stddevs,
            k=cfg.k,
            fit=fit_rb(cfg.lengths, means),
            survivals=survivals,
        )

    reference = record(_survivals(cfg, stack, 0, None, None))
    if cfg.interleaved is None:
        return RbRun(reference=reference)

    gate_params = QUBIT_GATES[cfg.interleaved]
    gate_index = _group_index(gate_params)
    if table[gate_index] == gate_params:
        gate_channel = stack[gate_index]
    else:  # the same Clifford up to phase, realized by another loop
        gate_channel = _gate_channel(cfg, gate_params, half)
    interleaved = record(_survivals(cfg, stack, 1, gate_index, gate_channel))
    return RbRun(
        reference=reference,
        interleaved=interleaved,
        gate_name=cfg.interleaved,
        gate_fidelity=interleaved_fidelity(interleaved.fit.p, reference.fit.p),
    )


def fit_rb(lengths, means) -> RbFit:
    """Fit F = A p^m + B and return the decay parameters plus F_avg.

    Initialization: B = min, A = max - min, p from a log-linear regression
    of (mean - B) on m. Flat data (spread below 1e-6, the numerical noise
    floor of the integrator) is degenerate: flat at the ceiling means no
    observable decay (p = 1), flat anywhere else leaves p unidentifiable
    and raises.

    Survivals are probabilities, so A and B are constrained to [0, 1].
    Without the constraint, short sequences (where the decay is still
    nearly linear in m) fit equally well along the degenerate valley
    A (1 - p) = const with A unbounded and p -> 1, which destroys the
    decay constant; the bound pins the physical branch.
    """
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(means, dtype=float)
    if m.shape != y.shape:
        raise FitDivergenceError(f"lengths {m.shape} and means {y.shape} differ")
    if len(np.unique(m)) < MIN_DISTINCT_LENGTHS:
        raise FitDivergenceError(
            f"need {MIN_DISTINCT_LENGTHS} distinct sequence lengths, got {len(np.unique(m))}"
        )
    if float(np.ptp(y)) < 1e-6:
        level = float(np.mean(y))
        if level > 0.999:
            return RbFit(a=0.0, p=1.0, b=level, f_avg=1.0)
        raise FitDivergenceError(
            f"survival is constant at {level:.6f}; decay constant unidentifiable"
        )

    b0 = float(np.min(y))
    a0 = float(np.max(y) - np.min(y))
    shifted = y - b0
    mask = shifted > 0
    if int(mask.sum()) >= 2:
        slope = np.polyfit(m[mask], np.log(shifted[mask]), 1)[0]
        p0 = float(np.clip(np.exp(slope), 1e-6, 1.0))
    else:
        p0 = 0.9

    def residuals(x):
        a, p, b = x
        return a * p**m + b - y

    # tight tolerances matter: near p = 1 the cost surface is a flat valley
    # and the default gtol stops short of the minimum
    fit = least_squares(
        residuals,
        [min(max(a0, 1e-6), 1.0), p0, min(max(b0, 0.0), 1.0)],
        bounds=([0.0, 1e-9, 0.0], [1.0, 1.0, 1.0]),
        gtol=1e-14,
        xtol=1e-14,
        ftol=1e-14,
        max_nfev=20000,
    )
    if not fit.success:
        raise FitDivergenceError(f"RB decay fit did not converge: {fit.message}")
    a, p, b = (float(v) for v in fit.x)
    rms = float(np.sqrt(np.mean(fit.fun**2)))
    return RbFit(a=a, p=p, b=b, f_avg=1.0 - (1.0 - p) / 2.0, residual_rms=rms)


def interleaved_fidelity(p_gate: float, p_ref: float) -> float:
    """F_gate = 1 - (1 - p_gate/p_ref)/2 from the two decay constants."""
    if not 0.0 < p_ref <= 1.0:
        raise RatioOutOfRangeError(f"p_ref must be in (0, 1], got {p_ref}")
    if not 0.0 < p_gate <= p_ref * (1.0 + 1e-6):
        raise RatioOutOfRangeError(
            f"p_gate = {p_gate} outside (0, p_ref = {p_ref}]"
        )
    return 1.0 - (1.0 - p_gate / p_ref) / 2.0
