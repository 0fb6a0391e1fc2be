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
"""

from __future__ import annotations

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


def random_sequence(m: int, k: int, seed, interleave: int | None = None):
    """(draws, recovery): k strings of m uniform Clifford draws, (k, m), and
    the element closing each, (k,).

    All are clifford_group() indices. Row j is drawn from
    ``np.random.default_rng([*seed, j]).integers(0, 24, size=m)``: its
    generator is seeded with the uint32 words that list coerces to, built
    once as an array, which numpy takes as is. With ``interleave`` (a group
    index) set, the recovery inverts the string with that element inserted
    after every draw; ``draws`` still holds only the random draws. The k
    strings are composed together through the Cayley table and the
    recoveries read from the inverse table, so they are exact.
    """
    if m < 1:
        raise OutOfRangeError(f"sequence length must be >= 1, got {m}")
    if k < 1:
        raise OutOfRangeError(f"sequence count must be >= 1, got {k}")
    group = clifford_group()
    size = len(group.elements)
    prefix = _entropy_words(seed)
    rows = np.empty((k, len(prefix) + 1), dtype=np.uint32)
    rows[:, :-1] = prefix
    rows[:, -1] = np.arange(k)  # j < 2^32 is one word, as numpy coerces it
    draws = np.empty((k, m), dtype=int)
    for j, row in enumerate(rows):
        draws[j] = np.random.default_rng(row).integers(0, size, size=m)
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
