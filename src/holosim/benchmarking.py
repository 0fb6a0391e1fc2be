"""Clifford randomized benchmarking of the single-loop gate set.

Reference RB propagates random length-m Clifford strings (each Clifford is
one single-loop gate) plus the closing recovery Clifford through the noisy
channel and records the ground-state survival; interleaved RB inserts the
gate under test after every Clifford. Survival decays as F = A p^m + B, and

    F_avg  = 1 - (1 - p_ref) / 2
    F_gate = 1 - (1 - p_gate / p_ref) / 2

turn the decay constants into per-Clifford and per-gate fidelities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

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
    clifford_table,
    find_recovery,
    synthesize_qubit_gate,
    target_u1,
)
from .model import NO_ERROR, NO_NOISE, ControlError, NoiseModel

DEFAULT_LENGTHS = tuple(range(1, 21))


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
        if self.k < 1:
            raise OutOfRangeError(f"k must be >= 1, got {self.k}")
        if self.interleaved is not None and self.interleaved not in QUBIT_GATES:
            raise OutOfRangeError(
                f"unknown interleaved gate {self.interleaved!r}; "
                f"choose from {sorted(QUBIT_GATES)}"
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


def random_sequence(
    m: int,
    seed,
    table: tuple[HolonomicParams, ...] | None = None,
    interleave: HolonomicParams | None = None,
):
    """m uniform Clifford draws plus the recovery element closing the string.

    With ``interleave`` set, the recovery inverts the string with the extra
    gate inserted after every Clifford (the returned list still holds only
    the random draws). The recovery is exact: the table is a group.
    """
    if m < 1:
        raise OutOfRangeError(f"sequence length must be >= 1, got {m}")
    if table is None:
        table = clifford_table()
    rng = np.random.default_rng(seed)
    draws = [table[int(i)] for i in rng.integers(0, len(table), size=m)]
    product = np.eye(2, dtype=complex)
    for params in draws:
        product = target_u1(params) @ product
        if interleave is not None:
            product = target_u1(interleave) @ product
    recovery = table[find_recovery(product, table)]
    return draws, recovery


def survival_probability(superops, rho0: np.ndarray | None = None) -> float:
    """Ground-state population after applying the superoperators in order."""
    if rho0 is None:
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    for sup in superops:
        v = sup @ v
    return float(v[0].real)


def _gate_channel(cfg: RbConfig, params: HolonomicParams) -> np.ndarray:
    return schedule_channel(
        synthesize_qubit_gate(params), noise=cfg.noise, err=cfg.err, steps=cfg.steps
    )


def _collect(cfg: RbConfig, table, channels, stream: int, interleave, gate_channel):
    survivals = np.empty((len(cfg.lengths), cfg.k))
    for mi, m in enumerate(cfg.lengths):
        for j in range(cfg.k):
            draws, recovery = random_sequence(
                m, [cfg.seed, stream, m, j], table, interleave=interleave
            )
            ops = []
            for params in draws:
                ops.append(channels[params])
                if gate_channel is not None:
                    ops.append(gate_channel)
            ops.append(channels[recovery])
            survivals[mi, j] = survival_probability(ops)
    return survivals


def run_rb(cfg: RbConfig) -> RbRun:
    """Reference (and optionally interleaved) RB under the configured noise.

    Every (length, randomization) cell draws from its own seeded stream, so
    results are bit-identical for identical configs regardless of evaluation
    order; the interleaved experiment uses fresh sequences (stream 1).
    """
    table = clifford_table()
    channels = {params: _gate_channel(cfg, params) for params in dict.fromkeys(table)}

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

    reference = record(_collect(cfg, table, channels, 0, None, None))
    if cfg.interleaved is None:
        return RbRun(reference=reference)

    gate_params = QUBIT_GATES[cfg.interleaved]
    gate_channel = channels.get(gate_params)
    if gate_channel is None:
        gate_channel = _gate_channel(cfg, gate_params)
    interleaved = record(_collect(cfg, table, channels, 1, gate_params, gate_channel))
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
    if len(np.unique(m)) < 3:
        raise FitDivergenceError(
            f"need at least 3 distinct sequence lengths, got {len(np.unique(m))}"
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
