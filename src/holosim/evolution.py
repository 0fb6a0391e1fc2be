"""Time evolution: unitary propagators, Lindblad integration, channels.

Two integrators, both fixed-step with the step budget defaulting to
duration/4096:

* unitary: product of midpoint-rule exponentials, U = prod_k
  exp(-i H(t_k + dt/2) dt) ordered latest-left, with every step
  exponential done by a batched Hermitian eigendecomposition;
* Lindblad: one classic RK4 core on dS/dt = L(t) S, where L(t) is the
  Liouvillian -i[H(t), .] + sum_k D[L_k] acting on a (d^2, n) block of
  vectorized states. The channel superoperator runs it on the identity
  (n = d^2, tomography and benchmarking); a density-matrix trajectory runs
  it on vec(rho0) (n = 1) and keeps every node.

Schedules are integrated piecewise between segment boundaries so envelope
kinks never fall inside a step; otherwise the integrator order degrades
silently. Channels and unitaries are cached by a content hash of
(builder, schedule, error, noise, step budget), which is what makes
hundred-sequence benchmarking runs cheap; the cache is a bounded LRU and
hands out read-only arrays.

vec convention is row-major: vec(rho) = rho.reshape(-1), so the channel of
a unitary U is kron(U, conj(U)).
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    DimensionMismatchError,
    NonHermitianInputError,
    OutOfRangeError,
    StepTooLargeError,
    write_text,
)
from .operators import dagger, expm_hermitian, is_hermitian
from .pulses import GateSchedule

DEFAULT_STEPS = 4096
TRACE_TOL = 1e-6

#: Hamiltonian builders addressable by name: (callable, dimension)
SPACES = {
    "qutrit": (model.qutrit_drive_hamiltonian, 3),
    "cavity_effective": (model.cavity_effective_hamiltonian, 3),
    "cavity_full": (model.six_level_cavity_hamiltonian, 6),
}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid on [t0, t1] with at least 10 steps."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise OutOfRangeError("t1 must exceed t0")
        if self.steps < 10:
            raise OutOfRangeError(f"at least 10 steps required, got {self.steps}")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @classmethod
    def for_duration(cls, duration: float, steps: int = DEFAULT_STEPS) -> "TimeGrid":
        return cls(0.0, duration, steps)


@dataclass(frozen=True)
class Trajectory:
    """Density-matrix history rho(t_k) on the integration nodes."""

    times: np.ndarray
    states: np.ndarray  # (N+1, d, d)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def populations(self) -> np.ndarray:
        return np.real(np.einsum("tii->ti", self.states))

    def to_csv(self, path) -> None:
        """Write populations and coherence magnitudes, one row per node.

        Values use repr formatting (shortest round-trip), so identical runs
        produce byte-identical files.
        """
        d = self.states.shape[-1]
        pops = self.populations()
        header = ["time_s"] + [f"p_{i}" for i in range(d)]
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        header += [f"abs_rho_{i}{j}" for i, j in pairs]
        lines = [",".join(header)]
        for k, t in enumerate(self.times):
            row = [repr(float(t))] + [repr(float(p)) for p in pops[k]]
            row += [repr(float(abs(self.states[k][i, j]))) for i, j in pairs]
            lines.append(",".join(row))
        write_text(path, "\n".join(lines) + "\n")


def _eval_hamiltonian(h, times: np.ndarray, dim: int) -> np.ndarray:
    """Evaluate h on an array of times, accepting vectorized or scalar h."""
    out = np.asarray(h(times))
    if out.shape == (times.size, dim, dim):
        return out.astype(complex)
    # non-vectorized callable: fall back to a loop
    stack = np.empty((times.size, dim, dim), dtype=complex)
    for k, t in enumerate(times):
        stack[k] = h(float(t))
    return stack


def _probe_dim(h, t: float) -> int:
    m = np.asarray(h(t))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"hamiltonian returned shape {m.shape}")
    return m.shape[0]


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """prod_k mats[k] with mats[-1] leftmost, by pairwise tree reduction."""
    acc = mats[::-1]  # acc[0] is the leftmost factor
    while acc.shape[0] > 1:
        n = acc.shape[0]
        paired = np.matmul(acc[0 : n - n % 2 : 2], acc[1 : n - n % 2 + 1 : 2])
        acc = np.concatenate([paired, acc[n - n % 2 :]], axis=0) if n % 2 else paired
    return acc[0]


def propagate_unitary(h, grid: TimeGrid, check: bool = True) -> np.ndarray:
    """Midpoint-rule unitary propagator over the grid.

    h(t) must be Hermitian at every node; each step is the exact exponential
    of the midpoint Hamiltonian, so the result is unitary to rounding even
    for coarse grids (accuracy, not unitarity, is what dt buys).
    """
    dim = _probe_dim(h, grid.t0)
    mids = grid.t0 + grid.dt * (np.arange(grid.steps) + 0.5)
    h_mid = _eval_hamiltonian(h, mids, dim)
    if check and not is_hermitian(h_mid, 1e-8):
        raise NonHermitianInputError("hamiltonian is not Hermitian on the grid")
    steps = expm_hermitian(h_mid, prefactor=-1j * grid.dt)
    u = _ordered_product(steps)
    if check:
        drift = np.max(np.abs(dagger(u) @ u - np.eye(dim)))
        if drift > 1e-9:
            raise StepTooLargeError(f"propagator unitarity drift {drift:.2e}")
    return u


# ---- Lindblad integration ----

def _dissipator(collapse_ops, dim: int) -> np.ndarray:
    """Constant part of the Liouvillian superoperator (row-major vec)."""
    ops = [np.asarray(c, dtype=complex) for c in collapse_ops]
    for c in ops:
        if c.shape != (dim, dim):
            raise DimensionMismatchError(
                f"collapse operator shape {c.shape}, expected {(dim, dim)}"
            )
    anti = sum((dagger(c) @ c for c in ops), np.zeros((dim, dim), dtype=complex))
    eye = np.eye(dim)
    sup = np.zeros((dim * dim, dim * dim), dtype=complex)
    for c in ops:
        sup += np.kron(c, c.conj())
    sup -= 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
    return sup


def _rk4_nodes(grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    nodes = grid.t0 + grid.dt * np.arange(grid.steps + 1)
    mids = nodes[:-1] + 0.5 * grid.dt
    return nodes, mids


def _rk4(h, collapse_ops, grid: TimeGrid, s: np.ndarray, keep: bool = False):
    """Classic RK4 on dS/dt = L(t) S for a (d^2, n) block S of vec'd states.

    Returns the final block, or with ``keep`` every node as (steps + 1,
    d^2, n).
    """
    d2, n = s.shape
    dim = math.isqrt(d2)
    diss = _dissipator(collapse_ops, dim)
    nodes, mids = _rk4_nodes(grid)
    h_nodes = _eval_hamiltonian(h, nodes, dim)
    h_mids = _eval_hamiltonian(h, mids, dim)
    dt = grid.dt

    def rhs(ht: np.ndarray, m: np.ndarray) -> np.ndarray:
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
        if keep:
            history.append(s)
    return np.stack(history) if keep else s


def propagate_lindblad(h, collapse_ops, rho0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Fixed-step RK4 integration of the Lindblad equation.

    Returns the full trajectory on the grid nodes. Raises StepTooLargeError
    if the trace drifts by more than 1e-6 anywhere along the way.
    """
    rho = np.asarray(rho0, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim):
        raise DimensionMismatchError(f"rho0 shape {rho.shape} is not square")
    if not is_hermitian(rho, 1e-9):
        raise NonHermitianInputError("rho0 must be Hermitian")
    vecs = _rk4(h, collapse_ops, grid, rho.reshape(dim * dim, 1), keep=True)
    states = vecs.reshape(grid.steps + 1, dim, dim)
    traces = np.real(np.einsum("tii->t", states))
    drift = float(np.max(np.abs(traces - traces[0])))
    if drift > TRACE_TOL:
        raise StepTooLargeError(
            f"trace drifted by {drift:.2e} (> {TRACE_TOL}); refine the grid"
        )
    return Trajectory(times=_rk4_nodes(grid)[0], states=states)


def channel_superoperator(h, collapse_ops, grid: TimeGrid) -> np.ndarray:
    """RK4 integration of the full (d^2, d^2) channel superoperator.

    The Lindblad equation is linear, so propagating the identity
    superoperator gives exactly the same map as propagating every input
    state separately, at a fraction of the cost when the map is reused.
    """
    d2 = _probe_dim(h, grid.t0) ** 2
    return _rk4(h, collapse_ops, grid, np.eye(d2, dtype=complex))


def unitary_superoperator(u: np.ndarray) -> np.ndarray:
    return np.kron(u, u.conj())


def apply_channel(sup: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    out = (sup @ np.asarray(rho, dtype=complex).reshape(-1)).reshape(d, d)
    return out


# ---- schedule-level drivers with piecewise grids and caching ----

def _piece_grids(schedule: GateSchedule, steps: int):
    """Split the schedule at segment boundaries, allocating the step budget
    proportionally (>= 10 steps per piece, the TimeGrid minimum)."""
    bounds = schedule.boundaries()
    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a < 1e-15:
            continue
        n = max(10, int(round(steps * (b - a) / schedule.duration)))
        pieces.append((float(a), float(b), n))
    return pieces


#: cached arrays kept, least recently used evicted first; one interleaved RB
#: run holds 25 channels (24 Cliffords and a gate outside the table)
CACHE_SIZE = 64

_cache: OrderedDict[str, np.ndarray] = OrderedDict()
_cache_lock = threading.Lock()


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def _key(*parts) -> str:
    text = "|".join(repr(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()


def _cached(key: str, compute) -> np.ndarray:
    """The cached value under ``key``, calling ``compute()`` on a miss.

    Cached arrays are shared by every caller, so they are stored read-only;
    beyond CACHE_SIZE entries the least recently used one is dropped.
    """
    with _cache_lock:
        if key in _cache:
            _cache.move_to_end(key)
            return _cache[key]
    value = compute()
    value.setflags(write=False)
    with _cache_lock:
        _cache[key] = value
        while len(_cache) > CACHE_SIZE:
            _cache.popitem(last=False)
    return value


def schedule_unitary(
    schedule: GateSchedule,
    err: model.ControlError = model.NO_ERROR,
    steps: int = DEFAULT_STEPS,
    space: str = "qutrit",
) -> np.ndarray:
    """Noiseless propagator of a whole schedule (cached)."""
    builder, dim = SPACES[space]

    def compute():
        u = np.eye(dim, dtype=complex)
        for a, b, n in _piece_grids(schedule, steps):
            grid = TimeGrid(a, b, n)
            u = propagate_unitary(lambda t: builder(schedule, err, t), grid) @ u
        return u

    return _cached(_key("unitary", space, schedule, err, steps), compute)


def schedule_channel(
    schedule: GateSchedule,
    noise: model.NoiseModel = model.NO_NOISE,
    err: model.ControlError = model.NO_ERROR,
    steps: int = DEFAULT_STEPS,
    space: str = "qutrit",
    cavity_noise: model.CavityNoise = model.NO_CAVITY_NOISE,
) -> np.ndarray:
    """Channel superoperator of a whole schedule (cached).

    Trivial noise reduces to the unitary channel. Cavity noise only applies
    to the six-level spaces.
    """
    builder, dim = SPACES[space]
    trivial = noise.is_trivial and (
        dim == 3 or (cavity_noise.gamma_loss == 0 and cavity_noise.gamma_phi == 0)
    )
    if trivial:
        return unitary_superoperator(schedule_unitary(schedule, err, steps, space))

    def compute():
        if dim == 3:
            collapse = model.collapse_operators(noise)
        else:
            collapse = model.six_level_collapse_operators(noise, cavity_noise)
        s = np.eye(dim * dim, dtype=complex)
        for a, b, n in _piece_grids(schedule, steps):
            grid = TimeGrid(a, b, n)
            s = channel_superoperator(lambda t: builder(schedule, err, t), collapse, grid) @ s
        return s

    return _cached(_key("channel", space, schedule, err, noise, cavity_noise, steps), compute)
