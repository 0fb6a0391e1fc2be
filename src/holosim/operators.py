"""Operator-space primitives for the three-level (g, e, f) transmon.

Basis order is always (|g>, |e>, |f>) = (0, 1, 2). Kets are unit-norm complex
vectors of shape (3,) and density matrices are (3, 3) arrays; no wrapper
classes. The two operator bases used by the tomography stack live here:

* the Gell-Mann set (with lambda_0 = identity) for state reconstruction,
* the gf-block process set {I_gf, sx_gf, -i sy_gf, sz_gf, sx_ge, -i sy_ge,
  sx_ef, -i sy_ef, I_e} for process matrices.

The -i factor on the sigma_y elements keeps ideal process matrices real for
rotations about axes in the xz plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianInputError,
    NonUnitaryInputError,
)

DIM = 3
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-9


# ---- element-wise building blocks ----

def ketbra(i: int, j: int, dim: int = DIM) -> np.ndarray:
    """|i><j| in a dim-dimensional space."""
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def basis_ket(i: int, dim: int = DIM) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


# ---- predicates and validators ----

def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Every |a[..., j, k] - conj(a[..., k, j])| <= tol (nan fails).

    Checked pair by pair on the upper triangle: on stacks of small matrices
    that is several times faster than forming a - dagger(a).
    """
    a = np.asarray(a)
    d = a.shape[-1]
    if d != a.shape[-2]:
        return False
    return all(
        np.all(np.abs(a[..., j, k] - np.conj(a[..., k, j])) <= tol)
        for j in range(d)
        for k in range(j, d)
    )


def is_unitary(a: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    a = np.asarray(a)
    if a.shape[-1] != a.shape[-2]:
        return False
    eye = np.eye(a.shape[-1])
    return bool(np.all(np.abs(dagger(a) @ a - eye) <= tol))


def require_unitary(a: np.ndarray, tol: float = UNITARITY_TOL, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not is_unitary(a, tol):
        raise NonUnitaryInputError(f"{what} is not unitary within {tol:.1e}")
    return a


# ---- operator bases ----

@dataclass(frozen=True)
class OperatorBasis:
    """An ordered, pairwise HS-orthogonal set of matrices with labels."""

    name: str
    labels: tuple[str, ...]
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.elements):
            raise DimensionMismatchError("labels and elements differ in length")

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.elements[k]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def hs_norms_squared(self) -> np.ndarray:
        """Tr(E_m^dag E_m) for each element."""
        return np.array([np.trace(dagger(e) @ e).real for e in self.elements])

    def gram(self) -> np.ndarray:
        """Hilbert-Schmidt Gram matrix Tr(E_m^dag E_n)."""
        n = len(self)
        g = np.empty((n, n), dtype=complex)
        for m, em in enumerate(self.elements):
            for k, ek in enumerate(self.elements):
                g[m, k] = np.trace(dagger(em) @ ek)
        return g

    def max_cross_overlap(self) -> float:
        g = self.gram()
        return float(np.max(np.abs(g - np.diag(np.diag(g)))))


def gellmann_basis() -> OperatorBasis:
    """Gell-Mann matrices prefixed with the identity (lambda_0 = I).

    lambda_1..3 act on (g,e), lambda_4..5 on (g,f), lambda_6..7 on (e,f);
    lambda_3 = diag(1,-1,0) and lambda_8 = diag(1,1,-2)/sqrt(3). All of
    lambda_1..8 are traceless with Tr(lambda_i lambda_j) = 2 delta_ij.
    """
    l0 = np.eye(3, dtype=complex)
    l1 = ketbra(0, 1) + ketbra(1, 0)
    l2 = -1j * ketbra(0, 1) + 1j * ketbra(1, 0)
    l3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    l4 = ketbra(0, 2) + ketbra(2, 0)
    l5 = -1j * ketbra(0, 2) + 1j * ketbra(2, 0)
    l6 = ketbra(1, 2) + ketbra(2, 1)
    l7 = -1j * ketbra(1, 2) + 1j * ketbra(2, 1)
    l8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0)
    labels = tuple(f"lambda_{i}" for i in range(9))
    return OperatorBasis("gellmann", labels, (l0, l1, l2, l3, l4, l5, l6, l7, l8))


def process_basis_gf() -> OperatorBasis:
    """Nine-element process basis built around the (g, f) computational block.

    Order: I_gf, sx_gf, -i sy_gf, sz_gf, sx_ge, -i sy_ge, sx_ef, -i sy_ef,
    I_e. The first four span operators on the gf block; the middle four
    connect it to |e>; I_e completes the identity (I_gf + I_e = I).
    """
    i_gf = np.diag([1.0, 0.0, 1.0]).astype(complex)
    sx_gf = ketbra(0, 2) + ketbra(2, 0)
    misy_gf = -ketbra(0, 2) + ketbra(2, 0)
    sz_gf = np.diag([1.0, 0.0, -1.0]).astype(complex)
    sx_ge = ketbra(0, 1) + ketbra(1, 0)
    misy_ge = -ketbra(0, 1) + ketbra(1, 0)
    sx_ef = ketbra(1, 2) + ketbra(2, 1)
    misy_ef = -ketbra(1, 2) + ketbra(2, 1)
    i_e = ketbra(1, 1)
    labels = ("I_gf", "X_gf", "-iY_gf", "Z_gf", "X_ge", "-iY_ge", "X_ef", "-iY_ef", "I_e")
    return OperatorBasis(
        "process_gf",
        labels,
        (i_gf, sx_gf, misy_gf, sz_gf, sx_ge, misy_ge, sx_ef, misy_ef, i_e),
    )


def qubit_pauli_basis() -> OperatorBasis:
    """{I, X, -iY, Z} on a two-level system, same -iY convention as above."""
    i2 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    misy = np.array([[0, -1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return OperatorBasis("qubit_pauli", ("I", "X", "-iY", "Z"), (i2, sx, misy, sz))


def decompose(a: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Coefficients c with a = sum_m c_m E_m (basis must be orthogonal)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (basis.dim, basis.dim):
        raise DimensionMismatchError(
            f"matrix shape {a.shape} does not match basis dimension {basis.dim}"
        )
    norms = basis.hs_norms_squared()
    return np.array(
        [np.trace(dagger(e) @ a) / n for e, n in zip(basis.elements, norms)]
    )


# ---- embeddings and exponentials ----

def embed_gf(u2: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator on the (g, f) block of the qutrit, identity on |e>.

    diag(a, d) on (g, f) becomes diag(a, 1, d) on (g, e, f).
    """
    u2 = np.asarray(u2, dtype=complex)
    if u2.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 block, got {u2.shape}")
    out = np.eye(3, dtype=complex)
    out[0, 0] = u2[0, 0]
    out[0, 2] = u2[0, 1]
    out[2, 0] = u2[1, 0]
    out[2, 2] = u2[1, 1]
    return out


def gf_block(u3: np.ndarray) -> np.ndarray:
    """The 2x2 (g, f) block of a qutrit operator (inverse of embed_gf)."""
    u3 = np.asarray(u3, dtype=complex)
    return u3[np.ix_((0, 2), (0, 2))]


#: below this c1 = tr(Q^2)/2 the 3x3 closed form sums the Taylor series: there
#: every eigenvalue of Q is at most 2 sqrt(c1/3) < 0.116 in modulus, so the
#: terms past Q^_SERIES_TERMS stay under 2e-18 (every sweep exponent at
#: SWEEP_STEPS lies below it)
_SERIES_C1 = 1e-2
_SERIES_TERMS = 10


def expm_hermitian(h: np.ndarray, prefactor: complex = -1j) -> np.ndarray:
    """exp(prefactor * h) for Hermitian h, a single (d, d) matrix or a stack
    (..., d, d) exponentiated slice by slice; the hot path of the unitary
    propagator.

    For d = 3 and a purely imaginary prefactor i s this is the closed form of
    Morningstar & Peardon (PRD 69, 054501 (2004)). The trace leaves as the
    phase exp(i s tr(h)/3); for the traceless Q = s (h - tr(h)/3 I),
    Cayley-Hamilton (Q^3 = c1 Q + c0 I with c0 = det Q, c1 = tr(Q^2)/2)
    gives exp(iQ) = f0 I + f1 Q + f2 Q^2. Below c1 = _SERIES_C1 the f_j sum
    the Taylor series of exp(iQ) reduced by Cayley-Hamilton; above it they
    are Morningstar & Peardon's, with u -> -u standing in for c0 < 0 so that
    their denominator 9u^2 - w^2 stays above 2 c1. Q^2, c0 and c1 are
    written out entry by entry from the diagonal and the three upper
    entries, with no matmul, det or eigh, so each matrix's bits depend
    neither on the BLAS thread count, nor on the stack it sits in, nor on
    the stack's memory layout. Each entry h[..., i, j] is read as one array
    and the result is the (..., 3, 3) view of an entry-major (3, 3, ...)
    array, so on an entry-major stack (the Hamiltonian builders') every
    read and write is contiguous.

    Any other d or prefactor (the six-level cavity spaces) takes a batched
    Hermitian eigendecomposition.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, HERMITICITY_TOL * 100):
        raise NonHermitianInputError("expm_hermitian requires a Hermitian matrix")
    if h.shape[-1] != 3 or np.ndim(prefactor) or complex(prefactor).real != 0:
        evals, vecs = np.linalg.eigh(h)
        phases = np.exp(prefactor * evals)
        return np.einsum("...ij,...j,...kj->...ik", vecs, phases, vecs.conj())

    s = complex(prefactor).imag
    # one matrix as a stack of one: numpy's complex scalar product can round
    # differently from its array loop, and a single call must match a stack
    m = h[None] if h.ndim == 2 else h
    x0, x1, x2 = (m[..., k, k].real for k in range(3))
    mean = (x0 + x1 + x2) / 3.0
    x0, x1, x2 = (s * (x - mean) for x in (x0, x1, x2))
    a, b, c = s * m[..., 0, 1], s * m[..., 0, 2], s * m[..., 1, 2]  # Q01, Q02, Q12
    aa, bb, cc = (z.real * z.real + z.imag * z.imag for z in (a, b, c))
    # the six distinct entries of the Hermitian Q^2, using x0 + x1 + x2 = 0
    p00, p11, p22 = x0 * x0 + aa + bb, x1 * x1 + aa + cc, x2 * x2 + bb + cc
    p01, p02, p12 = b * c.conj() - x2 * a, a * c - x1 * b, a.conj() * b - x0 * c
    c1 = 0.5 * (p00 + p11 + p22)
    c0 = x0 * x1 * x2 + 2.0 * (a * c * b.conj()).real - x0 * cc - x1 * bb - x2 * aa

    f = np.empty((3,) + c1.shape, dtype=complex)
    small = c1 < _SERIES_C1
    if np.any(small):
        # Q^k = A I + B Q + C Q^2, from Q^2 on by Q^(k+1) = c0 C I + (A + c1 C) Q + B Q^2;
        # i^k / k! sends even k to the real parts, odd k to the imaginary ones
        rows = ... if np.all(small) else small  # a full mask would only copy
        k0, k1 = c0[rows], c1[rows]
        one, zero = np.ones_like(k0), np.zeros_like(k0)
        re, im = [one, zero, -0.5 * one], [zero, one, zero]
        cur = (zero, zero, one)
        for k in range(3, _SERIES_TERMS + 1):
            cur = (k0 * cur[2], cur[0] + k1 * cur[2], cur[1])
            weight = (-1.0) ** (k // 2) / math.factorial(k)
            acc = re if k % 2 == 0 else im
            for j in range(3):
                acc[j] = acc[j] + weight * cur[j]
        for j in range(3):
            f[j, rows] = re[j] + 1j * im[j]
    large = ~small
    if np.any(large):
        k0, k1 = c0[large], c1[large]
        r = np.sqrt(k1 / 3.0)  # c0max = 2 r^3, eigenvalues -2u and u +- w
        theta = np.arccos(np.minimum(np.abs(k0) / (2.0 * r * r * r), 1.0))
        u = np.copysign(r * np.cos(theta / 3.0), k0)
        w = np.sqrt(k1) * np.sin(theta / 3.0)
        xi = np.sinc(w / np.pi)  # sin(w) / w
        cw = np.cos(w)
        uu, ww = u * u, w * w
        e2, em = np.exp(2j * u), np.exp(-1j * u)
        den = 9.0 * uu - ww
        f[0, large] = ((uu - ww) * e2 + em * (8.0 * uu * cw + 2j * u * (3.0 * uu + ww) * xi)) / den
        f[1, large] = (2.0 * u * e2 - em * (2.0 * u * cw - 1j * (3.0 * uu - ww) * xi)) / den
        f[2, large] = (e2 - em * (cw + 3j * u * xi)) / den
    f *= np.exp(1j * s * mean)

    f0, f1, f2 = f
    out = np.empty((3, 3) + c1.shape, dtype=complex)
    entries = (((0, 0), x0, p00), ((0, 1), a, p01), ((0, 2), b, p02), ((1, 1), x1, p11),
               ((1, 2), c, p12), ((2, 2), x2, p22))
    for (i, j), qij, pij in entries:
        np.multiply(f1, qij, out=out[i, j])
        out[i, j] += f2 * pij
        if i == j:
            out[i, i] += f0
        else:
            np.multiply(f1, qij.conj(), out=out[j, i])
            out[j, i] += f2 * pij.conj()
    return np.moveaxis(out, (0, 1), (-2, -1)).reshape(h.shape)


# ---- phase-insensitive comparisons ----

def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over phi of ||u - e^{i phi} v||_F, via phi* = arg Tr(v^dag u)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"shape mismatch {u.shape} vs {v.shape}")
    tr = np.trace(dagger(v) @ u)
    phase = np.exp(1j * np.angle(tr)) if abs(tr) > 0 else 1.0
    return float(np.linalg.norm(u - phase * v, ord="fro"))


def unitary_infidelity(u: np.ndarray, target: np.ndarray) -> float:
    """1 - |Tr(target^dag u)|^2 / d^2, insensitive to global phase.

    u need not be exactly unitary (a leaky block is fine); target must be.
    """
    target = require_unitary(target, what="target")
    u = np.asarray(u, dtype=complex)
    if u.shape != target.shape:
        raise DimensionMismatchError(f"shape mismatch {u.shape} vs {target.shape}")
    d = u.shape[0]
    overlap = abs(np.trace(dagger(target) @ u)) ** 2 / d**2
    return float(1.0 - overlap)
