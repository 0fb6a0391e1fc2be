"""Time evolution: unitary propagators, Lindblad integration, channels.

Two integrators, both fixed-step with the step budget defaulting to
duration/4096:

* unitary: product of midpoint-rule exponentials, U = prod_k
  exp(-i H(t_k + dt/2) dt) ordered latest-left, with every step
  exponential done by a batched Hermitian eigendecomposition;
* Lindblad: classic RK4 on dS/dt = L(t) S, where L(t) is the Liouvillian
  -i[H(t), .] + sum_k D[L_k]. L is linear, so each RK4 step is a matrix
  S_{k+1} = M_k S_k built from the Liouvillians at t_k, t_k + dt/2 and
  t_{k+1}; the maps are formed by batched matmuls, a few MB of steps at a
  time. A channel superoperator (tomography, benchmarking, the cavity
  pipeline) reduces them by a pairwise tree product, with no Python loop
  over steps; a density-matrix trajectory applies the same maps to
  vec(rho0) in sequence and keeps every node.

Schedules are integrated piecewise between segment boundaries so envelope
kinks never fall inside a step; otherwise the integrator order degrades
silently. Both integrators refuse a grid whose per-step phase
max_t ||H(t)||_inf dt exceeds MAX_STEP_PHASE: beyond it the midpoint rule
returns a unitary that no longer approximates the evolution, and RK4 leaves
its stability region. RK4 also refuses a per-step decay ||D||_inf dt of the
dissipator above the same bound, for the same reason.

vec convention is row-major: vec(rho) = rho.reshape(-1), so the channel of
a unitary U is kron(U, conj(U)).
"""

from __future__ import annotations

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
#: largest per-step phase ||H||_inf dt (rad) accepted, below RK4's stability
#: limit on the imaginary axis, 2 sqrt(2)
MAX_STEP_PHASE = 2.5

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


def _check_step_phase(h_stack: np.ndarray, dt: float) -> None:
    """Raise StepTooLargeError if max_k ||h_stack[k]||_inf dt > MAX_STEP_PHASE."""
    phase = float(np.einsum("kij->ki", np.abs(h_stack)).max()) * dt
    if not phase <= MAX_STEP_PHASE:  # also catches nan
        raise StepTooLargeError(
            f"per-step phase |H| dt = {phase:.3g} rad exceeds {MAX_STEP_PHASE}; "
            "refine the grid or reduce the drive and detuning"
        )


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """prod_k mats[k] with mats[-1] leftmost, by pairwise tree reduction."""
    acc = mats[::-1]  # acc[0] is the leftmost factor
    while acc.shape[0] > 1:
        n = acc.shape[0]
        paired = np.matmul(acc[0 : n - n % 2 : 2], acc[1 : n - n % 2 + 1 : 2])
        acc = np.concatenate([paired, acc[n - n % 2 :]], axis=0) if n % 2 else paired
    return acc[0]


def propagate_unitary(h, grid: TimeGrid) -> np.ndarray:
    """Midpoint-rule unitary propagator over the grid.

    h(t) must be Hermitian at every node; each step is the exact exponential
    of the midpoint Hamiltonian, so the result is unitary to rounding even
    for coarse grids (accuracy, not unitarity, is what dt buys). A step
    whose phase exceeds MAX_STEP_PHASE raises StepTooLargeError.
    """
    dim = _probe_dim(h, grid.t0)
    mids = grid.t0 + grid.dt * (np.arange(grid.steps) + 0.5)
    h_mid = _eval_hamiltonian(h, mids, dim)
    if not is_hermitian(h_mid, 1e-8):
        raise NonHermitianInputError("hamiltonian is not Hermitian on the grid")
    _check_step_phase(h_mid, grid.dt)
    steps = expm_hermitian(h_mid, prefactor=-1j * grid.dt)
    u = _ordered_product(steps)
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


def _check_dissipator_step(diss: np.ndarray, dt: float) -> None:
    """Raise StepTooLargeError if ||diss||_inf dt > MAX_STEP_PHASE."""
    rate = float(np.abs(diss).sum(axis=1).max()) * dt
    if not rate <= MAX_STEP_PHASE:  # also catches nan
        raise StepTooLargeError(
            f"per-step decay |D| dt = {rate:.3g} exceeds {MAX_STEP_PHASE}; "
            "refine the grid or reduce the collapse rates"
        )


def _liouvillians(h_stack: np.ndarray, diss: np.ndarray) -> np.ndarray:
    """Stack of Liouvillians -i[H_k, .] + diss, shape (k, d^2, d^2).

    -i kron(H, I) and +i kron(I, H^T) are scattered into their nonzero
    row-major positions instead of being formed as dense Kronecker products.
    """
    k, d, _ = h_stack.shape
    out = np.repeat(diss[None], k, axis=0)
    blocks = out.reshape(k, d, d, d, d)  # [k, a, b, c, e]: row (a, b), col (c, e)
    minus_ih = -1j * h_stack
    plus_iht = 1j * h_stack.transpose(0, 2, 1)
    for b in range(d):
        blocks[:, :, b, :, b] += minus_ih  # -i H[a, c] delta(b, e)
    for a in range(d):
        blocks[:, a, :, a, :] += plus_iht  # +i H[e, b] delta(a, c)
    return out


def _plus_eye(stack: np.ndarray) -> np.ndarray:
    """Add the identity to every matrix of a (k, n, n) stack, in place."""
    i = np.arange(stack.shape[-1])
    stack[:, i, i] += 1.0
    return stack


def _rk4_maps(l_nodes: np.ndarray, l_mids: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step maps M_k with S_{k+1} = M_k S_k, one per step, (k, d^2, d^2).

    With A, B, C the Liouvillians at t_k, t_k + dt/2 and t_{k+1}:
    M = I + dt/6 (A + 2 K2 + 2 K3 + K4), K2 = B (I + dt/2 A),
    K3 = B (I + dt/2 K2), K4 = C (I + dt K3). Three batched matmuls; the
    elementwise work runs in place.
    """
    a, b, c = l_nodes[:-1], l_mids, l_nodes[1:]
    x = _plus_eye((0.5 * dt) * a)
    k2 = b @ x
    k3 = b @ _plus_eye(np.multiply(k2, 0.5 * dt, out=x))
    k4 = c @ _plus_eye(np.multiply(k3, dt, out=x))
    k2 += k3
    k2 *= 2.0
    k2 += a
    k2 += k4
    k2 *= dt / 6.0
    return _plus_eye(k2)


#: superoperator entries per stack of step maps: 32 six-level steps (a 0.66 MB
#: stack) or 512 qutrit steps, so the working set stays a few MB while small
#: spaces still batch enough steps to amortize the per-call overhead
_CHUNK_ENTRIES = 32 * 36 * 36


def _step_maps(h, collapse_ops, grid: TimeGrid, dim: int):
    """Yield the grid's RK4 step maps in order, in stacks of at most
    _CHUNK_ENTRIES superoperator entries.

    Every guard runs before the first map is built: the per-step phase of
    H at the nodes and midpoints, and the per-step decay of the dissipator.
    """
    dt = grid.dt
    diss = _dissipator(collapse_ops, dim)
    _check_dissipator_step(diss, dt)
    nodes, mids = _rk4_nodes(grid)
    h_nodes = _eval_hamiltonian(h, nodes, dim)
    h_mids = _eval_hamiltonian(h, mids, dim)
    _check_step_phase(h_nodes, dt)
    _check_step_phase(h_mids, dt)
    chunk = max(1, _CHUNK_ENTRIES // diss.size)
    for j in range(0, grid.steps, chunk):
        l_nodes = _liouvillians(h_nodes[j : j + chunk + 1], diss)
        l_mids = _liouvillians(h_mids[j : j + chunk], diss)
        yield _rk4_maps(l_nodes, l_mids, dt)


def propagate_lindblad(h, collapse_ops, rho0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Fixed-step RK4 integration of the Lindblad equation.

    Applies the same per-step maps as channel_superoperator to vec(rho0),
    one node at a time, and returns the full trajectory on the grid nodes.
    Raises StepTooLargeError if the trace drifts by more than 1e-6 anywhere
    along the way.
    """
    rho = np.asarray(rho0, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim):
        raise DimensionMismatchError(f"rho0 shape {rho.shape} is not square")
    if not is_hermitian(rho, 1e-9):
        raise NonHermitianInputError("rho0 must be Hermitian")
    vecs = np.empty((grid.steps + 1, dim * dim), dtype=complex)
    vecs[0] = rho.reshape(-1)
    k = 0
    for maps in _step_maps(h, collapse_ops, grid, dim):
        for m in maps:
            vecs[k + 1] = m @ vecs[k]
            k += 1
    states = vecs.reshape(grid.steps + 1, dim, dim)
    traces = np.real(np.einsum("tii->t", states))
    drift = float(np.max(np.abs(traces - traces[0])))
    if drift > TRACE_TOL:
        raise StepTooLargeError(
            f"trace drifted by {drift:.2e} (> {TRACE_TOL}); refine the grid"
        )
    return Trajectory(times=_rk4_nodes(grid)[0], states=states)


def channel_superoperator(h, collapse_ops, grid: TimeGrid) -> np.ndarray:
    """RK4 channel superoperator (d^2, d^2) of the Lindblad equation.

    RK4 on the linear Lindblad equation is a product of per-step maps; each
    chunk of maps is reduced by the pairwise tree product, so no Python loop
    runs over steps. The result equals propagating every input state.
    """
    dim = _probe_dim(h, grid.t0)
    s = np.eye(dim * dim, dtype=complex)
    for maps in _step_maps(h, collapse_ops, grid, dim):
        s = _ordered_product(maps) @ s
    return s


def unitary_superoperator(u: np.ndarray) -> np.ndarray:
    return np.kron(u, u.conj())


def apply_channel(sup: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    out = (sup @ np.asarray(rho, dtype=complex).reshape(-1)).reshape(d, d)
    return out


# ---- schedule-level drivers with piecewise grids ----

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


def clear_cache() -> None:
    """No-op: propagators are computed afresh on every call and nothing is
    cached. Kept only while the benchmark harness in perfbench/ calls it."""


def schedule_unitary(
    schedule: GateSchedule,
    err: model.ControlError = model.NO_ERROR,
    steps: int = DEFAULT_STEPS,
    space: str = "qutrit",
) -> np.ndarray:
    """Noiseless propagator of a whole schedule."""
    builder, dim = SPACES[space]
    u = np.eye(dim, dtype=complex)
    for a, b, n in _piece_grids(schedule, steps):
        grid = TimeGrid(a, b, n)
        u = propagate_unitary(lambda t: builder(schedule, err, t), grid) @ u
    return u


def schedule_channel(
    schedule: GateSchedule,
    noise: model.NoiseModel = model.NO_NOISE,
    err: model.ControlError = model.NO_ERROR,
    steps: int = DEFAULT_STEPS,
    space: str = "qutrit",
    cavity_noise: model.CavityNoise = model.NO_CAVITY_NOISE,
) -> np.ndarray:
    """Channel superoperator of a whole schedule.

    Trivial noise reduces to the unitary channel. Cavity noise only applies
    to the six-level spaces.
    """
    builder, dim = SPACES[space]
    trivial = noise.is_trivial and (
        dim == 3 or (cavity_noise.gamma_loss == 0 and cavity_noise.gamma_phi == 0)
    )
    if trivial:
        return unitary_superoperator(schedule_unitary(schedule, err, steps, space))
    if dim == 3:
        collapse = model.collapse_operators(noise)
    else:
        collapse = model.six_level_collapse_operators(noise, cavity_noise)
    s = np.eye(dim * dim, dtype=complex)
    for a, b, n in _piece_grids(schedule, steps):
        grid = TimeGrid(a, b, n)
        s = channel_superoperator(lambda t: builder(schedule, err, t), collapse, grid) @ s
    return s
