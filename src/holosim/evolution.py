"""Time evolution: unitary propagators, Lindblad integration, channels.

Two integrators, both fixed-step with the step budget defaulting to
duration/4096:

* unitary: the fourth-order commutator-free exponential integrator CFM4
  (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske,
  J. Comput. Phys. 230, 5930 (2011)). Each step is two exponentials of
  weighted Hamiltonians at the Gauss nodes c_1,2 = 1/2 -+ sqrt(3)/6; the
  one applied first is exp(-i dt [(1/4 + sqrt(3)/6) H(c1) +
  (1/4 - sqrt(3)/6) H(c2)]), and with the two swapped the scheme is only
  second order. The exponentials are operators.expm_hermitian (a closed
  form, entry by entry, for qutrit spaces; a batched Hermitian
  eigendecomposition for six-level ones), reduced by a pairwise tree
  product. The Hamiltonian builders store their stacks entry-major, a
  (d, d, ..., N) array viewed as (..., N, d, d), so each entry h[..., i, j]
  is one contiguous array. The qutrit exponential reads and writes those
  entry arrays, and the unitary tree forms each entry of a 3x3 product as a
  sum of three products of entry arrays, with no matmul call per pair;
  larger blocks use batched matmuls. Neither path's bits depend on the
  stack's layout, and the propagator comes back C-ordered. The stack may
  carry leading batch axes (a block of sweep cells runs the same code as
  one schedule), and a grid whose Hamiltonian is constant is one exact
  exponential;
* Lindblad: on a piece whose Hamiltonian is the same at every RK4 node and
  midpoint, the Liouvillian L = -i[H, .] + sum_k D[L_k] is constant and the
  channel is the one exact exponential exp(L (t1 - t0)), an exactly CPTP
  map; a density-matrix trajectory then steps with the exact exp(L dt), so
  it ends on the channel to rounding. Any other piece (ramps, Gaussians)
  runs classic RK4 on dS/dt = L(t) S. L is linear, so each RK4 step is a
  matrix S_{k+1} = M_k S_k built from the Liouvillians at t_k, t_k + dt/2
  and t_{k+1}, by batched matmuls, a few MB of steps at a time. A channel
  superoperator (tomography, benchmarking, the cavity pipeline) reduces
  them by a pairwise matmul tree for every block size, with no Python loop
  over steps; a trajectory applies the same maps to vec(rho0) in sequence.

Six-level spaces (d > 3) propagate per sector. The drives couple only |0g>,
|0f> and |1g>, and each collapse operator shifts a level by a fixed amount,
so H and the Liouvillian (in vec(rho), a weak symmetry: Buca & Prosen, NJP
14, 073007 (2012)) are block diagonal. The sectors are the connected
components of the nonzero pattern, unioned over every node and batch
member. Each size group of sectors runs as one stack through the dense core
(a 3x3 unitary block by the closed form, Liouvillian blocks from one take),
and the result is assembled with exact zeros off the sectors. The guards
run on the full stacks first, so refusals do not change. Qutrit spaces stay
dense: a theta = 0 loop splits too, and splitting it would move the RB bits.

Schedules are integrated piecewise between segment boundaries and flat-top
ramp edges so envelope kinks never fall inside a step; otherwise the
integrator order degrades silently. A flat top is then a constant piece:
the schedule drivers build its H at one node and pass it broadcast with a
zero stride over the time axis (_piece_hamiltonian). CFM4 refuses a grid
whose per-step phase max ||H||_inf dt over the Gauss nodes exceeds
MAX_STEP_PHASE, even on a constant piece: beyond it the step unitaries no
longer approximate the evolution. The Lindblad path refuses one whose
Liouvillian step (2 max_t ||H(t)||_inf + ||D||_inf) dt exceeds the same
bound, because the commutator's spectrum reaches 2 ||H|| and beyond the
bound RK4 leaves its stability region. Both paths refuse an H that is not
Hermitian to 1e-8 at some node. The guards run before the constant-piece
shortcut, so a grid is refused or accepted whatever its Hamiltonian's time
dependence. A stack with a zero-stride time axis, or whose nodes are all
equal (exact ==; a nan never is), is guarded, and its sector pattern found,
on its first node alone: the same verdict and numbers as the whole stack.

vec convention is row-major: vec(rho) = rho.reshape(-1), so the channel of
a unitary U is kron(U, conj(U)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    DimensionMismatchError,
    NonHermitianInputError,
    OutOfRangeError,
    StepTooLargeError,
)
from .operators import dagger, expm_hermitian, is_hermitian
from .pulses import EDGE_TOL, GateSchedule, SquareWithRamps, sample

DEFAULT_STEPS = 4096
TRACE_TOL = 1e-6
#: largest accepted per-step phase: ||H||_inf dt (rad) on CFM4's Gauss nodes,
#: the Liouvillian bound (2 ||H||_inf + ||D||_inf) dt on the Lindblad path;
#: below RK4's stability limit on the imaginary axis, 2 sqrt(2)
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


def _eval_hamiltonian(h, times: np.ndarray) -> np.ndarray:
    """Evaluate h on an array of times, accepting vectorized or scalar h.

    Returns (..., times.size, d, d); a vectorized h may return leading batch
    axes. d is read from the result, which must be square.
    """
    out = np.asarray(h(times))
    if out.ndim < 3 or out.shape[-3] != times.size:
        # non-vectorized callable: fall back to a loop
        out = np.stack([np.asarray(h(float(t))) for t in times])
    if out.ndim < 3 or out.shape[-1] != out.shape[-2]:
        raise DimensionMismatchError(f"hamiltonian returned shape {out.shape}")
    return out.astype(complex, copy=False)


def _check_hermitian(h_stack: np.ndarray) -> None:
    # the same verdict in one pass on a small stack; operators.is_hermitian's
    # pair loop is the faster one on large stacks (a block of sweep cells)
    if not (np.all(np.abs(h_stack - dagger(h_stack)) <= 1e-8) if h_stack.size <= 2**13
            else is_hermitian(h_stack, 1e-8)):
        raise NonHermitianInputError("hamiltonian is not Hermitian on the grid")


def _check_step_phase(h_stack: np.ndarray, dt: float) -> None:
    """Raise StepTooLargeError if max_k ||h_stack[k]||_inf dt > MAX_STEP_PHASE."""
    phase = float(np.einsum("...ij->...i", np.abs(h_stack)).max()) * dt
    if not phase <= MAX_STEP_PHASE:  # also catches nan
        raise StepTooLargeError(
            f"per-step phase |H| dt = {phase:.3g} rad exceeds {MAX_STEP_PHASE}; "
            "refine the grid or reduce the drive and detuning"
        )


def _matmul_product(mats: np.ndarray) -> np.ndarray:
    """prod_k mats[..., k, :, :], the last k leftmost, by a pairwise matmul tree
    over axis -3; leading axes are batch axes."""
    acc = mats[..., ::-1, :, :]  # acc[..., 0, :, :] is the leftmost factor
    while acc.shape[-3] > 1:
        n = acc.shape[-3]
        m = n - n % 2
        paired = np.matmul(acc[..., 0:m:2, :, :], acc[..., 1:m:2, :, :])
        acc = np.concatenate([paired, acc[..., m:, :, :]], axis=-3) if n % 2 else paired
    return acc[..., 0, :, :]


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """_matmul_product of a unitary stack, with the same tree; 3x3 factors
    are multiplied entry by entry on entry-major (3, 3, ..., k) arrays, in
    place of one small matmul per pair, into an entry-major result."""
    if mats.shape[-1] != 3:
        return _matmul_product(mats)
    acc = np.moveaxis(mats[..., ::-1, :, :], (-2, -1), (0, 1))
    while acc.shape[-1] > 1:
        n = acc.shape[-1]
        m = n - n % 2
        left, right = acc[..., 0:m:2], acc[..., 1:m:2]
        paired = np.empty(acc.shape[:-1] + ((n + 1) // 2,), dtype=acc.dtype)
        for i, j in np.ndindex(3, 3):
            out = paired[i, j, ..., : m // 2]
            np.multiply(left[i, 0], right[0, j], out=out)
            out += left[i, 1] * right[1, j]
            out += left[i, 2] * right[2, j]
        paired[..., m // 2 :] = acc[..., m:]
        acc = paired
    return np.moveaxis(acc[..., 0], (0, 1), (-2, -1))


#: CFM4 Gauss nodes c_1,2 = 1/2 -+ sqrt(3)/6 and exponent weights: the first
#: exponential of a step weighs (H(c1), H(c2)) by (_A1, _A2), the second by
#: (_A2, _A1); swapped, the scheme drops to second order
_C1, _C2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_A1, _A2 = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0

#: CFM4 steps per exponential stack of one schedule (2048 step matrices); a
#: longer grid is reduced chunk by chunk, so the stacks stay bounded while the
#: product's association depends only on the step count, never on batch axes
_CHUNK_STEPS = 1024


def _cfm4_product(h_gauss: np.ndarray, dt: float) -> np.ndarray:
    """Ordered product of the CFM4 step exponentials of a Gauss-node stack
    (..., 2 steps, d, d) holding H(t_k + c1 dt), H(t_k + c2 dt) per step."""
    h1, h2 = h_gauss[..., 0::2, :, :], h_gauss[..., 1::2, :, :]
    exponents = np.empty_like(h_gauss)
    exponents[..., 0::2, :, :] = _A1 * h1 + _A2 * h2  # applied first
    exponents[..., 1::2, :, :] = _A2 * h1 + _A1 * h2
    span = 2 * _CHUNK_STEPS
    chunks = [
        _ordered_product(expm_hermitian(exponents[..., j : j + span, :, :], prefactor=-1j * dt))
        for j in range(0, exponents.shape[-3], span)
    ]
    return _ordered_product(np.stack(chunks, axis=-3))


def _sectors(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of the graph on range(n) whose edges are the
    True entries of a boolean (n, n) pattern, as one (count, size) index
    array per component size, sizes ascending and indices ascending."""
    n = pattern.shape[0]
    linked = pattern | pattern.T | np.eye(n, dtype=bool)
    labels = np.arange(n)
    while True:  # each node takes the smallest label among its neighbours
        low = np.where(linked, labels, n).min(axis=1)
        if np.array_equal(low, labels):
            break
        labels = low
    comps = [np.flatnonzero(labels == root) for root in np.unique(labels)]
    return [np.array([c for c in comps if c.size == size])
            for size in sorted({c.size for c in comps})]


def _unitary_core(h_gauss: np.ndarray, grid: TimeGrid, flat: np.ndarray) -> np.ndarray:
    """Propagators of a Gauss-node stack (..., 2 steps, d, d): one exact
    exponential for a batch member whose Hamiltonian is the same at every
    node (flat, one flag per member), the CFM4 product for the others."""
    u = None if np.all(flat) else _cfm4_product(h_gauss, grid.dt)
    if np.any(flat):
        exact = expm_hermitian(h_gauss[..., 0, :, :], prefactor=-1j * (grid.t1 - grid.t0))
        u = exact if u is None else np.where(flat[..., None, None], exact, u)
    return u


def propagate_unitary(h, grid: TimeGrid) -> np.ndarray:
    """Unitary propagator over the grid by the fourth-order commutator-free
    exponential integrator CFM4 (Blanes & Moan, Appl. Numer. Math. 56, 1519
    (2006)).

    Each step [t, t + dt] is two exponentials of Hamiltonians at the Gauss
    nodes t + c1 dt, t + c2 dt (c_1,2 = 1/2 -+ sqrt(3)/6):
    exp(-i dt (a2 H(c1) + a1 H(c2))) exp(-i dt (a1 H(c1) + a2 H(c2))) with
    a_1,2 = 1/4 +- sqrt(3)/6, the a1-on-H(c1) exponential applied first.
    Every step is an exact exponential, so the result is unitary to rounding
    even for coarse grids (accuracy, not unitarity, is what dt buys).

    h(t) must be Hermitian at every node and may return leading batch axes,
    (..., times, d, d); the propagators then come back stacked (..., d, d).
    The guards run on the Gauss-node stack first (module docstring): a step
    whose phase max ||H||_inf dt exceeds MAX_STEP_PHASE raises
    StepTooLargeError. Then a batch member whose Hamiltonian is the same at
    every node is one exact exponential over the whole grid. For d > 3 that
    runs per sector of the Hamiltonian's nonzero pattern (module docstring).
    """
    starts = grid.t0 + grid.dt * np.arange(grid.steps)
    nodes = starts[:, None] + grid.dt * np.array([_C1, _C2])  # t_k + c dt
    h_gauss = _eval_hamiltonian(h, nodes.reshape(-1))
    dim = h_gauss.shape[-1]
    flat = (np.ones(h_gauss.shape[:-3], dtype=bool) if h_gauss.strides[-3] == 0  # one node
            else np.all(h_gauss == h_gauss[..., :1, :, :], axis=(-3, -2, -1)))
    if np.all(flat):  # one node decides every guard and pattern below
        h_gauss = h_gauss[..., :1, :, :]
    _check_hermitian(h_gauss)
    _check_step_phase(h_gauss, grid.dt)
    if dim > 3:
        u = np.zeros(h_gauss.shape[:-3] + (dim, dim), dtype=complex)
        for idx in _sectors(np.count_nonzero(h_gauss, axis=tuple(range(h_gauss.ndim - 2))) > 0):
            rows, cols = idx[:, :, None], idx[:, None, :]
            block = _unitary_core(np.moveaxis(h_gauss[..., rows, cols], -3, 0), grid, flat)
            u[..., rows, cols] = np.moveaxis(block, 0, -3)
    else:
        # C order for every batch shape, so the matmuls callers apply to a block
        # and to one cell run the same kernel: numpy's own loop, which it takes
        # for other layouts, is not bound to round like BLAS
        u = np.ascontiguousarray(_unitary_core(h_gauss, grid, flat))
    drift = np.max(np.abs(dagger(u) @ u - np.eye(dim)))
    if drift > 1e-9:
        raise StepTooLargeError(f"propagator unitarity drift {drift:.2e}")
    return u


# ---- Lindblad integration ----

#: (key, superoperator) of the latest dissipator, shared by a schedule's pieces; the
#: cavity pipeline alternates q2 noise (swaps) and q1 noise (gate), so more entries
#: would pay only across ops
_last_dissipator: tuple = (None, None)


def _dissipator(collapse_ops, dim: int) -> np.ndarray:
    """Constant part of the Liouvillian superoperator (row-major vec),
    read-only. Collapse operators with the same bytes as the previous
    call's get the previous (bit-identical) result back."""
    global _last_dissipator
    ops = [np.asarray(c, dtype=complex) for c in collapse_ops]
    for c in ops:
        if c.shape != (dim, dim):
            raise DimensionMismatchError(
                f"collapse operator shape {c.shape}, expected {(dim, dim)}"
            )
    key = (dim, tuple(c.tobytes() for c in ops))
    last_key, last = _last_dissipator
    if key == last_key:
        return last
    anti = sum((dagger(c) @ c for c in ops), np.zeros((dim, dim), dtype=complex))
    eye, n = np.eye(dim), dim * dim
    # np.kron's products x[a, c] y[b, e] at (a d + b, c d + e), without its overhead
    kron = lambda x, y: (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(-1, n, n)
    sup = np.zeros((n, n), dtype=complex)
    for term in kron(*(np.reshape(x, (-1, dim, dim)) for x in (ops, np.conj(ops)))):
        sup += term
    sup -= 0.5 * (kron(anti, eye)[0] + kron(eye, anti.T)[0])
    sup.flags.writeable = False
    _last_dissipator = (key, sup)
    return sup


def _rk4_nodes(grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    nodes = grid.t0 + grid.dt * np.arange(grid.steps + 1)
    mids = nodes[:-1] + 0.5 * grid.dt
    return nodes, mids


def _check_liouvillian_step(h_stack: np.ndarray, diss: np.ndarray, dt: float) -> None:
    """Raise StepTooLargeError if (2 ||H||_inf + ||diss||_inf) dt, a bound on
    ||L||_inf dt of the Liouvillian -i[H, .] + diss, exceeds MAX_STEP_PHASE
    for any H in the stack."""
    phase = 2.0 * float(np.einsum("kij->ki", np.abs(h_stack)).max()) * dt
    decay = float(np.abs(diss).sum(axis=1).max()) * dt
    if not phase + decay <= MAX_STEP_PHASE:  # also catches nan
        raise StepTooLargeError(
            f"per-step phase 2|H| dt = {phase:.3g} rad plus per-step decay "
            f"|D| dt = {decay:.3g} exceeds {MAX_STEP_PHASE}; refine the grid "
            "or reduce the drive, detuning and collapse rates"
        )


def _liouvillians(h_stack: np.ndarray, diss: np.ndarray, idx=None, rows=None) -> np.ndarray:
    """Stack of Liouvillians -i[H_k, .] + diss at the given rows of the H
    stack (default all), (rows, d^2, d^2); for a (g, s) array idx of vec
    indices, one sector per row, only the sector blocks, (g, rows, s, s).

    -i kron(H, I) and +i kron(I, H^T) are scattered into their nonzero
    row-major positions instead of being formed as dense Kronecker products;
    a sector block gathers its entries -i H[a, c] delta(b, e) and
    +i H[e, b] delta(a, c), where vec index a d + b is rho[a, b], in one
    take on the flat entries (a view of an entry-major stack), summed in place.
    """
    k, d, _ = h_stack.shape
    rows = np.arange(k) if rows is None else rows
    if idx is not None:
        a, b = (x[:, None, :, None] for x in np.divmod(idx, d))  # rows
        c, e = (x[:, None, None, :] for x in np.divmod(idx, d))  # columns
        at = np.stack(np.broadcast_arrays(a * d + c, e * d + b)) * k  # H[r, i, j]: (i d + j) k + r
        at = at + rows[:, None, None]
        minus, plus = np.take(np.moveaxis(h_stack, 0, -1).reshape(-1), at)
        np.multiply(-1j * (b == e), minus, out=minus)
        np.add(diss[a * d + b, c * d + e], minus, out=minus)
        np.multiply(1j * (a == c), plus, out=plus)
        return np.add(minus, plus, out=minus)
    out = np.repeat(diss[None], rows.size, axis=0)
    blocks = out.reshape(-1, d, d, d, d)  # [k, a, b, c, e]: row (a, b), col (c, e)
    minus_ih = -1j * h_stack[rows]
    plus_iht = 1j * h_stack[rows].transpose(0, 2, 1)
    for b in range(d):
        blocks[:, :, b, :, b] += minus_ih  # -i H[a, c] delta(b, e)
    for a in range(d):
        blocks[:, a, :, a, :] += plus_iht  # +i H[e, b] delta(a, c)
    return out


def _plus_eye(stack: np.ndarray) -> np.ndarray:
    """Add the identity to every matrix of a (..., n, n) stack, in place."""
    i = np.arange(stack.shape[-1])
    stack[..., i, i] += 1.0
    return stack


def _rk4_maps(l_nodes: np.ndarray, l_mids: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step maps M_k with S_{k+1} = M_k S_k, (..., k, n, n), from the
    Liouvillians (..., k + 1, n, n) at the nodes and (..., k, n, n) midpoints.

    With A, B, C the Liouvillians at t_k, t_k + dt/2 and t_{k+1}:
    M = I + dt/6 (A + 2 K2 + 2 K3 + K4), K2 = B (I + dt/2 A),
    K3 = B (I + dt/2 K2), K4 = C (I + dt K3). Three batched matmuls; the
    elementwise work runs in place.
    """
    a, b, c = l_nodes[..., :-1, :, :], l_mids, l_nodes[..., 1:, :, :]
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


def _guarded_hamiltonians(h, collapse_ops, grid: TimeGrid):
    """Dissipator and the H stack of a Lindblad grid (its N + 1 nodes, then its
    N midpoints), plus whether H is the same at every node and midpoint (a
    zero-stride time axis, or exact ==); such a stack is cut to its first node.

    H is evaluated on the nodes and midpoints in one call, and the
    dimension is read from it. The Liouvillian step guard and then the
    Hermiticity check run first, on the one node of a constant piece, so a
    constant piece is refused exactly where a stepped one is.
    """
    nodes, mids = _rk4_nodes(grid)
    h_all = _eval_hamiltonian(h, np.concatenate([nodes, mids]))
    flat = h_all.strides[0] == 0 or bool(np.all(h_all == h_all[0]))
    if flat:
        h_all = h_all[:1]
    diss = _dissipator(collapse_ops, h_all.shape[-1])
    _check_liouvillian_step(h_all, diss, grid.dt)  # first: it names a nan
    _check_hermitian(h_all)
    return diss, h_all, flat


def _step_maps(diss: np.ndarray, h_all: np.ndarray, dt: float, idx=None):
    """Yield the RK4 step maps of a _guarded_hamiltonians stack in order, in
    stacks of at most _CHUNK_ENTRIES superoperator entries; for a (g, s)
    sector index array idx only the sector blocks, (g, k, s, s)."""
    steps = h_all.shape[0] // 2
    entries = diss.size if idx is None else idx.size * idx.shape[1]
    chunk = max(1, _CHUNK_ENTRIES // entries)
    for j in range(0, steps, chunk):
        kn = min(chunk, steps - j) + 1  # nodes j .. j + kn - 1 and the kn - 1 midpoints
        ls = _liouvillians(h_all, diss, idx, np.r_[j : j + kn, steps + 1 + j : steps + j + kn])
        yield _rk4_maps(ls[..., :kn, :, :], ls[..., kn:, :, :], dt)


def propagate_lindblad(h, collapse_ops, rho0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Fixed-step integration of the Lindblad equation on the grid nodes.

    Applies the same per-step maps as channel_superoperator to vec(rho0),
    one node at a time, and returns the full trajectory. On a constant piece
    every step is the exact exp(L dt), so the trajectory ends where the
    channel's exp(L (t1 - t0)) does, to rounding; otherwise the steps are
    the RK4 maps. Raises StepTooLargeError if the trace drifts by more than
    1e-6 anywhere along the way.
    """
    rho = np.asarray(rho0, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim):
        raise DimensionMismatchError(f"rho0 shape {rho.shape} is not square")
    if not is_hermitian(rho, 1e-9):
        raise NonHermitianInputError("rho0 must be Hermitian")
    diss, h_all, flat = _guarded_hamiltonians(h, collapse_ops, grid)
    if h_all.shape[-1] != dim:
        raise DimensionMismatchError(
            f"hamiltonian is {h_all.shape[-1]}-dimensional, rho0 {dim}-dimensional"
        )
    if flat:
        from scipy.linalg import expm
        step = expm(_liouvillians(h_all, diss)[0] * grid.dt)
        chunks = [np.broadcast_to(step, (grid.steps,) + diss.shape)]
    else:
        chunks = _step_maps(diss, h_all, grid.dt)
    vecs = np.empty((grid.steps + 1, dim * dim), dtype=complex)
    vecs[0] = rho.reshape(-1)
    k = 0
    for maps in chunks:
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
    """Channel superoperator (d^2, d^2) of the Lindblad equation.

    After the guards (module docstring), a piece whose Hamiltonian is the
    same at every RK4 node and midpoint is one exact exponential
    exp(L (t1 - t0)), an exactly CPTP map. Otherwise RK4 on the linear
    Lindblad equation is a product of per-step maps; each chunk of maps is
    reduced by the pairwise matmul tree, so no Python loop runs over
    steps. The result equals propagating every input state. For d > 3 this
    runs per sector of the Liouvillian's nonzero pattern (module docstring).
    """
    diss, h_all, flat = _guarded_hamiltonians(h, collapse_ops, grid)
    dim, n = h_all.shape[-1], diss.shape[0]
    sectors = [None]  # the whole space, dense
    if dim > 3:
        # the pattern of |diss| - i[P, .] for H's nonzero pattern P: off the
        # diagonal, its terms never cancel
        hp = np.count_nonzero(h_all, axis=0) > 0
        sectors = _sectors(_liouvillians(hp[None] + 0j, np.abs(diss) + 0j)[0] != 0)
    s = np.zeros((n, n), dtype=complex)
    for idx in sectors:
        if flat:
            from scipy.linalg import expm
            block = expm(_liouvillians(h_all, diss, idx)[..., 0, :, :] * (grid.t1 - grid.t0))
        else:
            block = np.eye(n if idx is None else idx.shape[1], dtype=complex)
            for maps in _step_maps(diss, h_all, grid.dt, idx):
                block = _matmul_product(maps) @ block
        if idx is None:
            return block
        s[idx[:, :, None], idx[:, None, :]] = block
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
    proportionally (>= 10 steps per piece, the TimeGrid minimum). Slivers
    shorter than EDGE_TOL of the duration are rounding, not pieces."""
    bounds = schedule.boundaries()
    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a < EDGE_TOL * schedule.duration:
            continue
        n = max(10, int(round(steps * (b - a) / schedule.duration)))
        pieces.append((float(a), float(b), n))
    return pieces


def _piece_hamiltonian(builder, schedule: GateSchedule, err, a: float, b: float):
    """h(t) on the piece [a, b] of a schedule: the builder's stack, or on a flat
    top H at one node broadcast with a zero stride over the time axis, which
    the propagators take as constant with no pass over the nodes. In a flat
    top every segment active in the piece is a flat-top envelope whose flat
    span covers it (a Gaussian or ramp rules it out unsampled), and every
    segment's waveform samples equal their first (exact ==)."""
    h = lambda t: builder(schedule, err, t)
    for seg in schedule.segments:
        env = seg.envelope
        lo = seg.start + env.ramp if isinstance(env, SquareWithRamps) else math.inf  # flat span
        if seg.start < b and seg.end > a and not lo <= a <= b <= lo + env.flat:
            return h

    def flat_top(t):
        if not all(np.all(sample(s.envelope, t - s.start) == sample(s.envelope, t[:1] - s.start))
                   for s in schedule.segments):
            return h(t)
        one = h(t[:1])
        return np.broadcast_to(one, one.shape[:-3] + (t.size,) + one.shape[-2:])

    return flat_top


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
        u = propagate_unitary(_piece_hamiltonian(builder, schedule, err, a, b),
                              TimeGrid(a, b, n)) @ u
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
        s = channel_superoperator(_piece_hamiltonian(builder, schedule, err, a, b),
                                  collapse, TimeGrid(a, b, n)) @ s
    return s
