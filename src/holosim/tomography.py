"""Qutrit quantum process tomography.

Pipeline: prepare nine input states, push each through the channel, measure
M_I = |g><g| behind nine pre-rotations, reconstruct each output density
matrix (convex least-squares MLE by projected gradient), then invert

    rho_out = sum_mn chi_mn E_m rho_in E_n^dag

for the 9x9 process matrix in the gf-centered operator basis. reduce_chi
renormalizes the computational 4x4 block so an ideal gate has trace 1; its
trace below 1 measures leakage. Two figures of merit: F_att keeps signal
loss in, F_unatt divides it out.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares  # noqa: F401 (perfbench/trace.py wraps it)

from .errors import (
    BadShotCountError,
    ConvergenceFailureError,
    DimensionMismatchError,
    SingularInputSpanError,
    write_json,
    write_text,
)
from .evolution import DEFAULT_STEPS, apply_channel, schedule_channel
from .model import NO_ERROR, NO_NOISE, ControlError, NoiseModel
from .operators import (
    OperatorBasis,
    basis_ket,
    dagger,
    decompose,
    embed_gf,
    expm_hermitian,
    gellmann_basis,
    ketbra,
    process_basis_gf,
)

INPUT_LABELS = (
    "g", "e", "f", "g+e", "e+f", "g+f", "g-ie", "e-if", "g-if",
)

PREROTATION_LABELS = (
    "I",
    "X90_ge",
    "Y90_ge",
    "X180_ge",
    "X90_ge*X180_ef",
    "Y90_ge*X180_ef",
    "X180_ge*X90_ef",
    "X180_ge*Y90_ef",
    "X180_ge*X180_ef",
)


# ---- measurement model ----

@dataclass(frozen=True)
class MeasurementModel:
    """M_I = beta_a lambda_0 + beta_b lambda_3 + beta_c lambda_8."""

    beta_a: float
    beta_b: float
    beta_c: float

    def operator(self) -> np.ndarray:
        lam = gellmann_basis()
        return (
            self.beta_a * lam[0] + self.beta_b * lam[3] + self.beta_c * lam[8]
        )


def measurement_coefficients() -> MeasurementModel:
    """Ideal coefficients solving |g><g| = beta_a l0 + beta_b l3 + beta_c l8."""
    return MeasurementModel(1.0 / 3.0, 0.5, 0.5 / math.sqrt(3.0))


# ---- inputs and pre-rotations ----

def initial_states() -> tuple[np.ndarray, ...]:
    """The nine tomography input kets, in the standard order."""
    g, e, f = basis_ket(0), basis_ket(1), basis_ket(2)
    r2 = 1.0 / math.sqrt(2.0)
    return (
        g,
        e,
        f,
        r2 * (g + e),
        r2 * (e + f),
        r2 * (g + f),
        r2 * (g - 1j * e),
        r2 * (e - 1j * f),
        r2 * (g - 1j * f),
    )


def rotation(transition: str, angle: float, axis_phase: float = 0.0) -> np.ndarray:
    """Ideal subspace rotation exp(-i angle/2 (cos phi sx - sin phi sy)).

    The generator follows the drive convention: e^{i phi}|lower><upper| +
    h.c. with (lower, upper) = (g, e) or (f, e).
    """
    pairs = {"ge": (0, 1), "ef": (2, 1)}
    if transition not in pairs:
        raise DimensionMismatchError(f"unknown transition {transition!r}")
    i, j = pairs[transition]
    gen = np.exp(1j * axis_phase) * ketbra(i, j)
    gen = gen + dagger(gen)
    return expm_hermitian(gen, prefactor=-1j * angle / 2.0)


@functools.cache
def prerotations() -> tuple[np.ndarray, ...]:
    """The nine pre-rotation unitaries, composed right to left.

    The rightmost factor fires first; measuring |g><g| after U_k is the same
    as projecting the pre-measurement state onto U_k^dag|g>. Built once per
    process (a QPT run asks for them three times) and read-only.
    """
    x90_ge = rotation("ge", math.pi / 2.0)
    y90_ge = rotation("ge", math.pi / 2.0, axis_phase=-math.pi / 2.0)
    x180_ge = rotation("ge", math.pi)
    x90_ef = rotation("ef", math.pi / 2.0)
    y90_ef = rotation("ef", math.pi / 2.0, axis_phase=-math.pi / 2.0)
    x180_ef = rotation("ef", math.pi)
    rotations = (
        np.eye(3, dtype=complex),
        x90_ge,
        y90_ge,
        x180_ge,
        x90_ge @ x180_ef,
        y90_ge @ x180_ef,
        x180_ge @ x90_ef,
        x180_ge @ y90_ef,
        x180_ge @ x180_ef,
    )
    for u in rotations:
        u.setflags(write=False)
    return rotations


# ---- measurement records ----

@dataclass(frozen=True)
class TomographyRecord:
    """<M_k> for every (input, pre-rotation) pair."""

    values: np.ndarray  # (n_inputs, n_prerotations)
    input_labels: tuple[str, ...] = INPUT_LABELS
    prerotation_labels: tuple[str, ...] = PREROTATION_LABELS
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (len(self.input_labels), len(self.prerotation_labels)):
            raise DimensionMismatchError(
                f"record shape {v.shape} does not match labels"
            )

    def to_json(self, path) -> None:
        write_json(path, {
            "input_labels": list(self.input_labels),
            "prerotation_labels": list(self.prerotation_labels),
            "values": self.values.tolist(),
            "shots": self.shots,
            "seed": self.seed,
        })

    @classmethod
    def from_json(cls, path) -> "TomographyRecord":
        with open(path) as fh:
            payload = json.load(fh)
        return cls(
            values=np.array(payload["values"], dtype=float),
            input_labels=tuple(payload["input_labels"]),
            prerotation_labels=tuple(payload["prerotation_labels"]),
            shots=payload.get("shots"),
            seed=payload.get("seed"),
        )


def expectation(rho: np.ndarray, prerotation: np.ndarray, m_i: np.ndarray) -> float:
    """<M> = Tr(U rho U^dag M_I)."""
    return float(np.real(np.trace(prerotation @ rho @ dagger(prerotation) @ m_i)))


def simulate_record(
    outputs,
    shots: int | None = None,
    seed: int = 0,
) -> TomographyRecord:
    """Measurement record for a list of channel output states.

    Exact mode (shots=None) stores the Born values; sampled mode draws
    binomial counts per (input, pre-rotation) cell with its own seeded
    stream, so records are reproducible and independent of evaluation order.
    """
    if shots is not None and shots <= 0:
        raise BadShotCountError(f"shots must be positive, got {shots}")
    m_i = measurement_coefficients().operator()
    rotations = prerotations()
    values = np.empty((len(outputs), len(rotations)))
    for k, rho in enumerate(outputs):
        rho = np.asarray(rho, dtype=complex)
        for m, u in enumerate(rotations):
            p = expectation(rho, u, m_i)
            if shots is None:
                values[k, m] = p
            else:
                rng = np.random.default_rng([seed, k, m])
                values[k, m] = rng.binomial(shots, min(1.0, max(0.0, p))) / shots
    if len(outputs) == len(INPUT_LABELS):
        labels = INPUT_LABELS
    else:
        labels = tuple(f"state_{k}" for k in range(len(outputs)))
    return TomographyRecord(
        values=values,
        input_labels=labels,
        shots=shots,
        seed=seed if shots else None,
    )


# ---- state reconstruction ----

#: iteration cap of mle_density; rows of 300-shot records need about 100
MLE_MAX_ITERATIONS = 1000
#: converged once no entry of a projected-gradient step exceeds this
MLE_STEP_TOL = 1e-14


def _effective_operators() -> np.ndarray:
    """U_k^dag M_I U_k for the nine pre-rotations: <M>_k = Tr(rho E_k)."""
    m_i = measurement_coefficients().operator()
    return np.stack([dagger(u) @ m_i @ u for u in prerotations()])


def linear_state(rows: np.ndarray) -> np.ndarray:
    """Direct linear inversion of record rows, (9,) -> (3, 3) or (n, 9) ->
    (n, 3, 3); Hermitian but maybe not PSD. One LAPACK solve per row."""
    rows = np.asarray(rows, dtype=complex)
    a = _effective_operators().reshape(9, 9)
    rho = np.linalg.solve(a.conj(), rows[..., None]).reshape(rows.shape[:-1] + (3, 3))
    return (rho + dagger(rho)) / 2.0


def _project_density(h: np.ndarray) -> np.ndarray:
    """Frobenius-nearest unit-trace PSD matrices to a Hermitian stack: the
    eigenvalues move onto the probability simplex (Smolin, Gambetta & Smith,
    PRL 108, 070502 (2012))."""
    vals, vecs = np.linalg.eigh(h)
    desc = vals[..., ::-1]
    excess = np.cumsum(desc, axis=-1) - 1.0
    # the kept eigenvalues are the largest k, all above the common shift
    k = np.count_nonzero(desc - excess / np.arange(1, h.shape[-1] + 1) > 0, axis=-1)
    shift = np.take_along_axis(excess, k[..., None] - 1, axis=-1) / k[..., None]
    return (vecs * np.clip(vals - shift, 0.0, None)[..., None, :]) @ dagger(vecs)


def mle_density(rows: np.ndarray) -> np.ndarray:
    """Maximum-likelihood density matrices of record rows, (9,) -> (3, 3) or
    (n, 9) -> (n, 3, 3): the unit-trace PSD rho minimizing
    sum_k (Tr(rho E_k) - row_k)^2, strictly convex as the E_k span 3x3 Hermitian.

    Accelerated projected gradient (Shang, Zhang, Ng & Ng, PRA 95, 062336
    (2017)) from the projected linear inversion, with the constant momentum
    of a strongly convex objective. A row stops once its step is at rounding
    level and is frozen, so a stacked call equals the per-row calls bit for
    bit. ConvergenceFailureError carries the latest (physical) iterates.
    """
    first = _project_density(linear_state(rows))
    flat_rows = np.asarray(rows, dtype=float).reshape(-1, 9)
    effective = _effective_operators()
    conj_flat = effective.reshape(9, 9).conj()  # Tr(rho E_k) = <conj(E_k), rho>
    # |r|^2 has gradient 2 sum_k r_k E_k, Lipschitz constant L = 2 high and strong
    # convexity 2 low (extreme eigenvalues of Re Tr(E_k E_l)); the step is 1/L
    gram = np.real(np.einsum("kij,lji->kl", effective, effective))
    low, high = np.linalg.eigvalsh(gram)[[0, -1]]
    momentum = (math.sqrt(high / low) - 1.0) / (math.sqrt(high / low) + 1.0)
    x = first.reshape(-1, 3, 3)  # a view: the iterates land in first
    y = x.copy()
    active = np.arange(len(x))
    # elementwise products and fixed-axis sums keep each row's arithmetic
    # independent of how many rows are still active
    for _ in range(MLE_MAX_ITERATIONS):
        ya = y[active]
        resid = np.sum(ya.reshape(-1, 1, 9) * conj_flat, axis=-1).real - flat_rows[active]
        xn = _project_density(ya - np.sum(resid[..., None, None] * effective, axis=1) / high)
        y[active] = xn + momentum * (xn - x[active])
        x[active] = xn
        active = active[np.abs(xn - ya).max(axis=(1, 2)) > MLE_STEP_TOL]
        if active.size == 0:
            return first
    raise ConvergenceFailureError(
        f"MLE: {active.size} of {len(x)} rows did not converge in "
        f"{MLE_MAX_ITERATIONS} iterations",
        best=first,
    )


# ---- process matrices ----

@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix over an explicit operator basis."""

    entries: np.ndarray
    basis: OperatorBasis
    residual: float = 0.0

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", e)
        n = len(self.basis)
        if e.shape != (n, n):
            raise DimensionMismatchError(
                f"chi shape {e.shape} does not match basis size {n}"
            )

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - dagger(self.entries))))

    def tp_defect(self) -> float:
        """max |sum_mn chi_mn E_n^dag E_m - I|; zero for trace-preserving."""
        d = self.basis.dim
        acc = np.zeros((d, d), dtype=complex)
        for m, em in enumerate(self.basis):
            for n, en in enumerate(self.basis):
                acc += self.entries[m, n] * (dagger(en) @ em)
        return float(np.max(np.abs(acc - np.eye(d))))

    def to_csv(self, path) -> None:
        """Real and imaginary parts, one labeled row per basis pair."""
        lines = ["m,n,label_m,label_n,real,imag"]
        for m in range(self.dimension):
            for n in range(self.dimension):
                v = self.entries[m, n]
                lines.append(
                    f"{m},{n},{self.basis.labels[m]},{self.basis.labels[n]},"
                    f"{float(v.real)!r},{float(v.imag)!r}"
                )
        write_text(path, "\n".join(lines) + "\n")


def _psd_project(chi: np.ndarray) -> np.ndarray:
    herm = (chi + dagger(chi)) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.clip(vals, 0.0, None)) @ dagger(vecs)


def extract_chi(
    inputs,
    outputs,
    basis: OperatorBasis | None = None,
    project: bool = False,
) -> ChiMatrix:
    """Linear inversion of rho_out = sum_mn chi_mn E_m rho_in E_n^dag.

    Works for any square dimension d (qutrit qpt and the cavity pipeline's
    qubit-subspace version) from exactly d^2 spanning inputs, so the design
    matrix is square and one LU solve inverts it. ``project`` snaps the
    result to the nearest positive-semidefinite Hermitian matrix, for sampled
    records.
    """
    if basis is None:
        basis = process_basis_gf()
    d = basis.dim
    nb = len(basis)
    rhos_in = [np.asarray(r, dtype=complex) for r in inputs]
    rhos_out = [np.asarray(r, dtype=complex) for r in outputs]
    if len(rhos_in) != len(rhos_out):
        raise DimensionMismatchError("inputs and outputs differ in length")
    for r in rhos_in + rhos_out:
        if r.shape != (d, d):
            raise DimensionMismatchError(f"state shape {r.shape} in dim-{d} basis")
    if len(rhos_in) != d * d or nb != d * d:
        raise DimensionMismatchError(
            f"need {d * d} inputs and basis elements, got {len(rhos_in)} and {nb}"
        )
    span = np.stack([r.reshape(-1) for r in rhos_in])
    if np.linalg.matrix_rank(span, tol=1e-10) < d * d:
        raise SingularInputSpanError(
            f"{len(rhos_in)} inputs span rank "
            f"{np.linalg.matrix_rank(span, tol=1e-10)} < {d * d}"
        )
    e = np.stack(list(basis))
    # a[(k, i, j), (m, n)] = (E_m rho_k E_n^dag)_ij
    a = np.einsum("mia,kab,njb->kijmn", e, np.stack(rhos_in), e.conj()).reshape(nb * nb, -1)
    y = np.stack(rhos_out).reshape(-1)
    chi = np.linalg.solve(a, y).reshape(nb, nb)
    if project:
        chi = _psd_project(chi)
    residual = float(np.max(np.abs(a @ chi.reshape(-1) - y)))
    return ChiMatrix(entries=chi, basis=basis, residual=residual)


def chi_of_unitary(u: np.ndarray, basis: OperatorBasis | None = None) -> ChiMatrix:
    """Analytic rank-one chi of a unitary: chi = c c^dag with u = sum c_m E_m."""
    if basis is None:
        basis = process_basis_gf()
    c = decompose(u, basis)
    return ChiMatrix(entries=np.outer(c, c.conj()), basis=basis)


def reduce_chi(full: ChiMatrix) -> ChiMatrix:
    """Normalized 4x4 block over {I_gf, X_gf, -iY_gf, Z_gf}.

    Any trace-preserving chi in this basis satisfies
    2 sum_{m<8} chi_mm + chi_88 = 3, so dividing by that sum and scaling by
    3 leaves exactly-TP processes untouched while renormalizing attenuated
    reconstructions; an ideal gate comes out with trace 1 and leakage
    processes lose exactly the leaked weight.
    """
    chi = full.entries
    if chi.shape != (9, 9):
        raise DimensionMismatchError(f"expected 9x9 chi, got {chi.shape}")
    norms = full.basis.hs_norms_squared()
    tp_sum = float(np.real(np.sum(norms * np.diag(chi))))
    block = 3.0 * chi[:4, :4] / tp_sum
    sub = OperatorBasis(
        name=full.basis.name + "_reduced",
        labels=full.basis.labels[:4],
        elements=full.basis.elements[:4],
    )
    return ChiMatrix(entries=block, basis=sub, residual=full.residual)


def reduced_target_chi(target: np.ndarray) -> ChiMatrix:
    """Reduced chi of an ideal 2x2 gate embedded on the (g, f) block."""
    return reduce_chi(chi_of_unitary(embed_gf(target)))


def _unwrap(chi) -> np.ndarray:
    return np.asarray(getattr(chi, "entries", chi), dtype=complex)


def fidelity_att(chi_exp, chi_th) -> float:
    """|Tr(chi_exp chi_th^dag)|; signal loss lowers it."""
    a, b = _unwrap(chi_exp), _unwrap(chi_th)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"chi shapes differ: {a.shape} vs {b.shape}")
    return float(abs(np.trace(a @ dagger(b))))


def fidelity_unatt(chi_exp, chi_th) -> float:
    """Overlap normalized by both Frobenius norms; insensitive to scaling."""
    a, b = _unwrap(chi_exp), _unwrap(chi_th)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"chi shapes differ: {a.shape} vs {b.shape}")
    na = math.sqrt(abs(np.trace(a @ dagger(a))))
    nb = math.sqrt(abs(np.trace(b @ dagger(b))))
    return float(abs(np.trace(a @ dagger(b))) / (na * nb))


# ---- end-to-end driver ----

@dataclass(frozen=True)
class QptResult:
    chi: ChiMatrix
    chi_reduced: ChiMatrix
    record: TomographyRecord


def simulate_qpt(
    schedule,
    noise: NoiseModel = NO_NOISE,
    err: ControlError = NO_ERROR,
    shots: int | None = None,
    seed: int = 0,
    steps: int = DEFAULT_STEPS,
    mle: bool | None = None,
    project: bool | None = None,
) -> QptResult:
    """Full QPT of one gate schedule.

    The record measures behind the nine ideal, instantaneous pre-rotations.
    mle=None reconstructs the nine outputs (in one stacked MLE call) only
    when the record is sampled; exact records invert linearly (same result).
    project=None projects the extracted chi onto the PSD cone only for
    sampled records, where inversion noise can leave small negative modes.
    """
    sup = schedule_channel(schedule, noise=noise, err=err, steps=steps)
    kets = initial_states()
    rhos_in = [np.outer(k, k.conj()) for k in kets]
    rhos_out = [apply_channel(sup, r) for r in rhos_in]
    record = simulate_record(rhos_out, shots=shots, seed=seed)
    if mle is None:
        mle = shots is not None
    if project is None:
        project = shots is not None
    rhos_est = mle_density(record.values) if mle else linear_state(record.values)
    chi = extract_chi(rhos_in, rhos_est, project=project)
    return QptResult(chi=chi, chi_reduced=reduce_chi(chi), record=record)
