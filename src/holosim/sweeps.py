"""Robustness studies: crosstalk fidelity grids and the cavity Fock pipeline.

The crosstalk sweep compares single-loop (holonomic) gates against composite
sequential (dynamic) gates over a grid of control errors: a relative Rabi
amplitude offset epsilon and a common drive detuning Delta, with decoherence
off. Each cell propagates the schedule unitarily and scores the reduced
process fidelity: the unattenuated overlap of the reduced process matrix
chi_r with the ideal gate's. That metric is insensitive to uniform signal
loss, so it isolates in-block distortion: an amplitude error leaves the
single-loop block shape untouched to second order (the whole error is
leakage through the auxiliary level), while a pulse train accumulates
rotation errors inside the block.

The cavity pipeline prepares the four tomography inputs on the transmon
(g, f) qubit, encodes them into the Fock {|0>, |1>} subspace with a resonant
sideband swap, applies a gamma = pi loop gate, decodes with a second swap,
and extracts the 4x4 qubit process matrix. Swap pulse phases +pi/2 (encode)
and -pi/2 (decode) make |f> -> |1> -> |f> round-trip without residual
phases; whatever z-rotation remains is absorbed by a single calibrated
frame phase applied after decoding, chosen to maximize the identity
pipeline's fidelity. The swap legs use the readout transmon's noise model
and the gate leg uses the gate transmon's, each together with photon loss
and dephasing of the storage mode.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import evolution as ev
from . import model as md
from . import tomography as tm
from .errors import OutOfRangeError, write_json, write_text
from .holonomic import (
    QUBIT_GATES,
    dynamic_hadamard_schedule,
    dynamic_t_schedule,
    encode_swap_schedule,
    synthesize_cavity_gate,
    synthesize_qubit_gate,
    target_u1,
    target_u2,
)
from .operators import process_basis_gf, qubit_pauli_basis

TWO_PI = 2.0 * math.pi

#: step budgets; grids re-run bit-identically only at fixed settings. 128
#: CFM4 steps put a sweep cell within about 3e-9 of the converged propagator
SWEEP_STEPS = 128
PIPELINE_STEPS = 2048

#: default crosstalk grid: epsilon in [-0.1, 0.1], Delta/2pi in [-1, 1] MHz
DEFAULT_EPSILONS = tuple(np.linspace(-0.1, 0.1, 21))
DEFAULT_DETUNINGS = tuple(TWO_PI * 1e6 * np.linspace(-1.0, 1.0, 21))

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
T_GATE = np.diag([1.0, np.exp(1j * math.pi / 4.0)]).astype(complex)

_DYNAMIC = {
    "H": (dynamic_hadamard_schedule, HADAMARD),
    "T": (dynamic_t_schedule, T_GATE),
}


def reference_gate(family: str, gate: str):
    """(schedule, ideal 2x2 target) for one member of a gate family.

    holonomic gates come from the named single-loop table; dynamic gates are
    the sequential pulse-train decompositions of H and T.
    """
    if family == "holonomic":
        if gate not in QUBIT_GATES:
            raise OutOfRangeError(
                f"unknown holonomic gate {gate!r}; choose from {sorted(QUBIT_GATES)}"
            )
        params = QUBIT_GATES[gate]
        return synthesize_qubit_gate(params), target_u1(params)
    if family == "dynamic":
        if gate not in _DYNAMIC:
            raise OutOfRangeError(
                f"unknown dynamic gate {gate!r}; choose from {sorted(_DYNAMIC)}"
            )
        builder, target = _DYNAMIC[gate]
        return builder(), target
    raise OutOfRangeError(f"unknown gate family {family!r}; use holonomic or dynamic")


def reduced_process_fidelity(u_sim: np.ndarray, target: np.ndarray) -> float:
    """Unattenuated fidelity of the reduced process matrix against a 2x2 gate.

    Both chi matrices are built analytically (the propagator is exact, no
    sampling), reduced to the computational block, and compared with the
    normalized overlap, so uniform leakage does not register while any
    distortion of the block does.
    """
    chi_r = tm.reduce_chi(tm.chi_of_unitary(u_sim))
    return tm.fidelity_unatt(chi_r, tm.reduced_target_chi(target))


def _coerce_grid(values, name: str) -> np.ndarray:
    arr = np.asarray(tuple(values), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise OutOfRangeError(f"{name} grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise OutOfRangeError(f"{name} grid must be finite")
    return arr


@dataclass(frozen=True)
class CrosstalkGrid:
    """Fidelity over (epsilon, detuning); rows follow epsilons (row-major)."""

    family: str
    gate: str
    epsilons: np.ndarray
    detunings: np.ndarray
    fidelities: np.ndarray
    steps: int

    @property
    def mean_fidelity(self) -> float:
        return float(np.mean(self.fidelities))

    def delta_zero_cut(self) -> np.ndarray:
        """Fidelity column at the detuning closest to zero."""
        col = int(np.argmin(np.abs(self.detunings)))
        return self.fidelities[:, col]

    def settings(self) -> dict:
        return {
            "family": self.family,
            "gate": self.gate,
            "epsilons": [float(e) for e in self.epsilons],
            "detunings_rad_s": [float(d) for d in self.detunings],
            "steps": self.steps,
        }

    def settings_hash(self) -> str:
        text = json.dumps(self.settings(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def to_csv(self, path) -> None:
        """Grid as CSV: first row detuning coordinates, first column epsilon.

        Values use repr formatting, so identical settings re-produce
        byte-identical files.
        """
        header = "epsilon\\detuning_rad_s," + ",".join(
            f"{float(d)!r}" for d in self.detunings
        )
        lines = [header]
        for e, row in zip(self.epsilons, self.fidelities):
            lines.append(f"{float(e)!r}," + ",".join(f"{float(v)!r}" for v in row))
        write_text(path, "\n".join(lines) + "\n")

    def to_json(self, path) -> None:
        """Sidecar with the settings, their hash, and summary statistics."""
        payload = dict(self.settings())
        payload["settings_sha256"] = self.settings_hash()
        payload["mean_fidelity"] = self.mean_fidelity
        payload["min_fidelity"] = float(np.min(self.fidelities))
        write_json(path, payload)


#: step matrices per block of sweep cells: a block holds
#: max(1, _BLOCK_MATRICES // (2 steps)) cells (64 at SWEEP_STEPS), and a cell
#: above the budget is still exponentiated in stacks of at most 2048 matrices.
#: The 3x3 exponential and tree product are elementwise calls on entry arrays
#: as long as the block, so longer blocks spread each call's fixed cost over
#: more matrices and keep a 2-thread pool from contending for the interpreter
#: lock. On the sweep benchmark (2 threads, 2 vCPU), 16384 ran the op in
#: 0.10-0.11 s against 0.14-0.16 s at 8192, both at a peak RSS of 104.3-104.7
#: MB; 32768 ran it in 0.09 s but peaked at 109.2 MB (+4.5%)
_BLOCK_MATRICES = 16384


def _block_fidelities(u: np.ndarray, chi_t: np.ndarray) -> np.ndarray:
    """reduced_process_fidelity of a stack of propagators (..., 3, 3).

    The reduced chi of a unitary is proportional to v v^dag, with v its four
    (g, f)-block coefficients in the process basis, so the unattenuated
    overlap is |v^dag chi_t^dag v| / (|v|^2 ||chi_t||_F).
    """
    basis = process_basis_gf()
    elements = np.array(basis.elements[:4])
    v = np.einsum("mij,...ij->...m", elements.conj(), u) / basis.hs_norms_squared()[:4]
    overlap = np.abs(np.einsum("...m,nm,...n->...", v.conj(), chi_t.conj(), v))
    return overlap / (np.sum(np.abs(v) ** 2, axis=-1) * np.linalg.norm(chi_t))


def crosstalk_sweep(
    family: str,
    gate: str,
    epsilons=None,
    detunings=None,
    steps: int = SWEEP_STEPS,
    threads: int = 1,
) -> CrosstalkGrid:
    """Reduced process fidelity over the (epsilon, Delta) control-error grid.

    Decoherence stays off; each cell is one unitary propagation of the
    schedule under a ControlError, scored against the family's ideal gate.
    The row-major cells are cut into fixed blocks of at most
    _BLOCK_MATRICES step matrices; a block is one schedule_unitary call with
    array-valued ControlError fields and one stacked fidelity. Blocks are
    spread over a pool of ``threads`` workers and assembled in grid order.
    Block boundaries depend only on the grid and ``steps``, and every cell
    sees the same arithmetic as in any other block, so results are
    bit-identical for any thread count.
    """
    eps = _coerce_grid(DEFAULT_EPSILONS if epsilons is None else epsilons, "epsilon")
    dets = _coerce_grid(
        DEFAULT_DETUNINGS if detunings is None else detunings, "detuning"
    )
    if threads < 1:
        raise OutOfRangeError(f"threads must be >= 1, got {threads}")
    schedule, target = reference_gate(family, gate)
    chi_t = tm.reduced_target_chi(target).entries
    cell_eps, cell_dets = (a.reshape(-1) for a in np.meshgrid(eps, dets, indexing="ij"))
    size = max(1, _BLOCK_MATRICES // (2 * steps))

    def block(start: int) -> np.ndarray:
        cells = slice(start, start + size)
        err = md.ControlError(epsilon=cell_eps[cells], detuning=cell_dets[cells])
        return _block_fidelities(ev.schedule_unitary(schedule, err, steps), chi_t)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        fids = np.concatenate(list(pool.map(block, range(0, cell_eps.size, size))))
    return CrosstalkGrid(
        family=family,
        gate=gate,
        epsilons=eps,
        detunings=dets,
        fidelities=fids.reshape(eps.size, dets.size),
        steps=steps,
    )


# ---- cavity Fock-state pipeline ----

ENCODE_PHASE = math.pi / 2.0
DECODE_PHASE = -math.pi / 2.0

_R2 = 1.0 / math.sqrt(2.0)
#: tomography input states on the (g, f) qubit: poles plus two equators
QUBIT_INPUTS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([_R2, _R2], dtype=complex),
    np.array([_R2, -1j * _R2], dtype=complex),
)


def _qubit_block(rho6: np.ndarray) -> np.ndarray:
    """Transmon (g, f) block after tracing out the photon number."""
    rho_t = rho6[:3, :3] + rho6[3:, 3:]
    return rho_t[np.ix_((0, 2), (0, 2))]


def _frame_unitary(phase: float) -> np.ndarray:
    """Virtual z-rotation on the transmon f level, photon-independent."""
    return np.diag(
        [1.0, 1.0, np.exp(1j * phase), 1.0, 1.0, np.exp(1j * phase)]
    ).astype(complex)


#: photon parity P = diag(1, 1, 1, -1, -1, -1) on {|0g>..|1f>}
_PARITY = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def _decode_from_encode(m: np.ndarray) -> np.ndarray:
    """The decode swap's propagator P m P (6x6) or channel (P x P) m (P x P)
    (36x36, row-major vec) from the encode swap's m, by sign flips only.

    A swap drives only the raman tone |1g> <-> |0f>, and the two phases
    differ by pi, so the decode H is P H P. Every collapse operator from
    md.six_level_collapse_operators has P L P = +-L, and D[-L] = D[L], so P
    maps one Lindbladian onto the other (a weak symmetry: Buca & Prosen,
    NJP 14, 073007 (2012)).
    """
    z = _PARITY if m.shape[-1] == 6 else np.kron(_PARITY, _PARITY)
    return z[:, None] * m * z[None, :]


def _swap_unitaries(device: md.DeviceTable, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless six-level propagators of the encode and decode swaps; only
    the encode swap is integrated (see _decode_from_encode)."""
    u_enc = ev.schedule_unitary(
        encode_swap_schedule(device.g_swap, ENCODE_PHASE), steps=steps, space="cavity_full"
    )
    return u_enc, _decode_from_encode(u_enc)


def _frame_phase(u_enc: np.ndarray, u_dec: np.ndarray) -> float:
    """Decode-frame phase in closed form; see calibrate_frame_phase."""
    u = u_dec @ u_enc
    b00, b11 = u[0, 0], u[2, 2]
    if abs(b00) < 1e-9 or abs(b11) < 1e-9:
        raise OutOfRangeError("identity pipeline does not return the qubit")
    return float(np.angle(b00) - np.angle(b11))


def calibrate_frame_phase(
    device: md.DeviceTable | None = None, steps: int = PIPELINE_STEPS
) -> float:
    """Decode-frame phase that maximizes the identity pipeline's fidelity.

    The noiseless encode-decode propagator acts on the qubit as
    diag(b00, b11); the frame-rotated fidelity |b00 + e^{i phi} b11|^2 / 4
    peaks exactly at phi = arg(b00) - arg(b11), so the maximizer is computed
    in closed form rather than scanned.
    """
    return _frame_phase(*_swap_unitaries(device or md.paper_device(), steps))


@dataclass(frozen=True)
class CavityPipelineResult:
    """Qubit-subspace process matrix and fidelities of one pipeline run."""

    gate_label: str
    chi: tm.ChiMatrix
    fidelity_att: float
    fidelity_unatt: float
    frame_phase: float
    include_decoherence: bool

    def to_json(self, path) -> None:
        entries = np.asarray(self.chi.entries)
        write_json(path, {
            "gate": self.gate_label,
            "fidelity_att": self.fidelity_att,
            "fidelity_unatt": self.fidelity_unatt,
            "frame_phase": self.frame_phase,
            "include_decoherence": self.include_decoherence,
            "chi_real": entries.real.tolist(),
            "chi_imag": entries.imag.tolist(),
            "chi_labels": list(self.chi.basis.labels),
        })


def cavity_pipeline(
    gate: tuple[float, float] | None,
    include_decoherence: bool = False,
    device: md.DeviceTable | None = None,
    g_total: float | None = None,
    steps: int = PIPELINE_STEPS,
) -> CavityPipelineResult:
    """Encode/gate/decode run on the six-level space with qubit QPT.

    ``gate`` is (theta, phi) of the gamma = pi loop; None skips the gate leg
    and scores the bare encode-decode round trip against the identity. When
    ``g_total`` is omitted it is chosen so the two-photon tone sits at the
    device's calibrated amplitude: g_total = g1 / sin(theta / 2). Every run
    calibrates its decode-frame phase with calibrate_frame_phase at the same
    step budget; a run without decoherence reuses the calibration's swap
    propagators as its encode and decode legs. Only the encode swap is
    integrated; the decode leg is its photon-parity conjugate.
    """
    device = device or md.paper_device()
    qn_gate = device.q1_noise if include_decoherence else md.NO_NOISE
    cn = device.cavity_noise if include_decoherence else md.NO_CAVITY_NOISE

    def leg(schedule, qutrit_noise):
        return ev.schedule_channel(
            schedule, qutrit_noise, steps=steps, space="cavity_full", cavity_noise=cn
        )

    if include_decoherence:
        frame_phase = calibrate_frame_phase(device, steps)
        enc = leg(encode_swap_schedule(device.g_swap, ENCODE_PHASE), device.q2_noise)
        dec = _decode_from_encode(enc)
    else:
        # noiseless swap legs are the calibration's own propagators
        u_enc, u_dec = _swap_unitaries(device, steps)
        frame_phase = _frame_phase(u_enc, u_dec)
        enc, dec = ev.unitary_superoperator(u_enc), ev.unitary_superoperator(u_dec)

    sup = enc
    if gate is None:
        target = np.eye(2, dtype=complex)
        label = "identity"
    else:
        theta, phi = float(gate[0]), float(gate[1])
        if g_total is None:
            s = math.sin(theta / 2.0)
            if s < 1e-9:
                raise OutOfRangeError(
                    "theta = 0 leaves the default coupling undefined; pass g_total"
                )
            g_total = device.g1 / s
        schedule = synthesize_cavity_gate(theta, math.pi, phi, g_total)
        sup = leg(schedule, qn_gate) @ sup
        target = target_u2(theta, phi)
        label = f"u2(theta={theta:.6g},phi={phi:.6g})"
    sup = dec @ sup
    sup = ev.unitary_superoperator(_frame_unitary(frame_phase)) @ sup

    basis = qubit_pauli_basis()
    inputs, outputs = [], []
    for ket in QUBIT_INPUTS:
        inputs.append(np.outer(ket, ket.conj()))
        six = np.zeros(6, dtype=complex)
        six[0], six[2] = ket[0], ket[1]
        rho6 = ev.apply_channel(sup, np.outer(six, six.conj()))
        outputs.append(_qubit_block(rho6))
    chi = tm.extract_chi(inputs, outputs, basis=basis)
    chi_th = tm.chi_of_unitary(target, basis)
    return CavityPipelineResult(
        gate_label=label,
        chi=chi,
        fidelity_att=tm.fidelity_att(chi, chi_th),
        fidelity_unatt=tm.fidelity_unatt(chi, chi_th),
        frame_phase=frame_phase,
        include_decoherence=include_decoherence,
    )
