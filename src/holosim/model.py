"""Device parameters, noise models, and drive Hamiltonians.

All Hamiltonians are written in the multi-tone rotating frame where each
drive is resonant with its transition, so only envelopes, phases, and error
terms appear. The qutrit drive is

    H(t) = Omega_ge(t)(1+eps) e^{i phi0} |g><e|
         + Omega_ef(t)(1+eps) e^{i phi1} |f><e| + h.c.
         + Delta |e><e| + 2 Delta |f><f|

with (eps, Delta) the multiplicative amplitude error and common detuning of
a ControlError. Cavity-qubit gates use the same structure on the effective
basis {|0g>, |1g>, |0f>}, where |0f> plays the role of the auxiliary |e>.

Builders accept a scalar time or an array of times; the array path returns a
stacked (N, d, d) Hermitian array and is the one the propagators use. A
ControlError with array fields adds leading batch axes, (*batch, N, d, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadTransitionError, NegativeRateError, OutOfRangeError
from .pulses import GateSchedule

TWO_PI = 2.0 * math.pi


# ---- parameter containers ----

@dataclass(frozen=True)
class ControlError:
    """Multiplicative amplitude error and common drive detuning.

    ``epsilon`` scales both tones by (1 + epsilon); ``detuning`` (rad/s)
    enters as Delta|e><e| + 2 Delta|f><f| (both transitions shift together,
    as for a qubit-frequency drift). Either field may be an array: the
    Hamiltonian builders then return one Hamiltonian per broadcast element,
    which is how a block of sweep cells is propagated at once.
    """

    epsilon: float = 0.0
    detuning: float = 0.0


NO_ERROR = ControlError()


@dataclass(frozen=True)
class NoiseModel:
    """Relaxation and pure-dephasing rates of the qutrit (1/s).

    gamma_phi_ge / gamma_phi_ef are the pure-dephasing rates of the ge and
    ef coherences (Ramsey rate minus the population-decay contribution).
    """

    gamma_eg: float = 0.0
    gamma_fe: float = 0.0
    gamma_fg: float = 0.0
    gamma_phi_ge: float = 0.0
    gamma_phi_ef: float = 0.0

    def __post_init__(self):
        for name in ("gamma_eg", "gamma_fe", "gamma_fg", "gamma_phi_ge", "gamma_phi_ef"):
            if getattr(self, name) < 0:
                raise NegativeRateError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def from_coherence_times(
        cls,
        t1_ge: float,
        t2_ge: float,
        t1_ef: float,
        t2_ef: float,
        t1_fg: float = math.inf,
    ) -> "NoiseModel":
        """Build rates from measured T1 / Ramsey T2* per transition (seconds).

        The ef Ramsey rate contains the population decay of both |e> and
        |f>, so its pure-dephasing part subtracts half the summed decay
        rates. Slightly negative results (over-constrained inputs) are
        clamped to zero.
        """
        for nm, t in (("t1_ge", t1_ge), ("t2_ge", t2_ge), ("t1_ef", t1_ef), ("t2_ef", t2_ef)):
            if t <= 0:
                raise OutOfRangeError(f"{nm} must be positive, got {t}")
        g_eg = 1.0 / t1_ge
        g_fe = 1.0 / t1_ef
        g_fg = 0.0 if math.isinf(t1_fg) else 1.0 / t1_fg
        phi_ge = 1.0 / t2_ge - 0.5 * g_eg
        phi_ef = 1.0 / t2_ef - 0.5 * (g_eg + g_fe + g_fg)
        return cls(g_eg, g_fe, g_fg, max(phi_ge, 0.0), max(phi_ef, 0.0))

    @property
    def is_trivial(self) -> bool:
        return (
            self.gamma_eg == self.gamma_fe == self.gamma_fg == 0.0
            and self.gamma_phi_ge == self.gamma_phi_ef == 0.0
        )


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class CavityNoise:
    """Single-photon loss and pure dephasing of the storage mode (1/s)."""

    gamma_loss: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        if self.gamma_loss < 0 or self.gamma_phi < 0:
            raise NegativeRateError("cavity rates must be >= 0")

    @classmethod
    def from_coherence_times(cls, t1: float, t2_star: float) -> "CavityNoise":
        if t1 <= 0 or t2_star <= 0:
            raise OutOfRangeError("cavity coherence times must be positive")
        loss = 1.0 / t1
        phi = max(1.0 / t2_star - 0.5 * loss, 0.0)
        return cls(loss, phi)


NO_CAVITY_NOISE = CavityNoise()


@dataclass(frozen=True)
class DeviceTable:
    """A full device parameter set: both qutrits' noise, the storage mode's
    noise and the couplings. Drives are resonant, so no frequency is kept."""

    q1_noise: NoiseModel
    q2_noise: NoiseModel
    cavity_noise: CavityNoise
    # effective cavity-gate couplings (rad/s)
    g1: float = TWO_PI * 0.25e6
    g2_hadamard: float = TWO_PI * 0.60e6
    g_swap: float = TWO_PI * 0.845e6


def paper_device() -> DeviceTable:
    """Measured parameter set of the reference device.

    Frequencies: q1 ge/ef 5.036 / 4.782 GHz, q2 5.605 / 5.367 GHz.
    Coherences (us): q1 ge 45.6 / 24.4, q1 ef 20.3 / 8.3,
    q2 ge 42.2 / 44.0, q2 ef 24.9 / 13.6, storage mode 135 / 193.
    """
    return DeviceTable(
        q1_noise=NoiseModel.from_coherence_times(45.6e-6, 24.4e-6, 20.3e-6, 8.3e-6),
        q2_noise=NoiseModel.from_coherence_times(42.2e-6, 44.0e-6, 24.9e-6, 13.6e-6),
        cavity_noise=CavityNoise.from_coherence_times(135e-6, 193e-6),
    )


# ---- bright / dark frame ----

def bright_dark(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Bright and dark superpositions of |g> and |f> for mixing angles.

    |b> = sin(theta/2) e^{i phi}|g> - cos(theta/2)|f>
    |d> = cos(theta/2)|g> + sin(theta/2) e^{-i phi}|f>

    The drive couples only |b> to |e>; |d> is spectator. Both are unit
    norm and orthogonal for any (theta, phi).
    """
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    b = np.array([s * np.exp(1j * phi), 0.0, -c], dtype=complex)
    d = np.array([c, 0.0, s * np.exp(-1j * phi)], dtype=complex)
    return b, d


# ---- Hamiltonian builders ----

def _assemble(segments, err: ControlError, t, dim: int, coupling, detuning_diag):
    """Shared drive assembly. coupling maps transition -> (row, col) of the
    |lower><upper| entry; detuning_diag is the per-level multiple of Delta.

    Array-valued err fields broadcast against each other into leading batch
    axes: the result is (*batch, N, dim, dim) for N times, every batch
    member equal to a scalar-err call. It is the view of a (dim, dim,
    *batch, N) array, so the propagators read each entry contiguously."""
    if isinstance(segments, GateSchedule):
        segments = segments.segments
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    eps = np.asarray(err.epsilon, dtype=float)
    det = np.asarray(err.detuning, dtype=float)
    batch = np.broadcast_shapes(eps.shape, det.shape)
    h = np.moveaxis(np.zeros((dim, dim) + batch + (t_arr.size,), dtype=complex), (0, 1), (-2, -1))
    gain = (1.0 + eps)[..., None]
    for seg in segments:
        if seg.transition not in coupling:
            raise BadTransitionError(
                f"segment drives {seg.transition!r}; expected one of {sorted(coupling)}"
            )
        i, j = coupling[seg.transition]
        w = gain * np.exp(1j * seg.phase) * seg.waveform(t_arr)
        h[..., i, j] += w
        h[..., j, i] += np.conjugate(w)
    if np.any(det != 0.0):
        idx = np.arange(dim)
        h[..., idx, idx] += det[..., None, None] * np.asarray(detuning_diag, dtype=float)
    return h if np.ndim(t) else h[..., 0, :, :]


def qutrit_drive_hamiltonian(segments, err: ControlError = NO_ERROR, t=0.0) -> np.ndarray:
    """Two-tone qutrit drive in the (g, e, f) basis; see module docstring."""
    return _assemble(segments, err, t, 3, {"ge": (0, 1), "ef": (2, 1)}, (0.0, 1.0, 2.0))


def cavity_effective_hamiltonian(segments, err: ControlError = NO_ERROR, t=0.0) -> np.ndarray:
    """Cavity-gate drive on the effective basis {|0g>, |1g>, |0f>}.

    two_photon couples |0g> <-> |0f| and raman couples |1g> <-> |0f>;
    |0f> is the auxiliary (transmon f shifts by 2 Delta under detuning).
    """
    return _assemble(
        segments, err, t, 3,
        {"two_photon": (0, 2), "raman": (1, 2)},
        (0.0, 0.0, 2.0),
    )


def six_level_cavity_hamiltonian(segments, err: ControlError = NO_ERROR, t=0.0) -> np.ndarray:
    """Encode/gate/decode drives on the full {|0g>..|1f>} space.

    Used by the cavity pipeline: raman couples |1g> <-> |0f> (indices 3, 2)
    and two_photon couples |0g> <-> |0f> (0, 2). States |0e>, |1e>, |1f>
    participate only through decoherence.
    """
    return _assemble(
        segments, err, t, 6,
        {"two_photon": (0, 2), "raman": (3, 2)},
        (0.0, 1.0, 2.0, 0.0, 1.0, 2.0),
    )


# ---- dissipation ----

def collapse_operators(noise: NoiseModel) -> list[np.ndarray]:
    """Lindblad collapse operators for the qutrit noise model.

    Relaxation: sqrt(G_eg)|g><e|, sqrt(G_fe)|e><f|, sqrt(G_fg)|g><f|.
    Dephasing: one diagonal operator per excited level, sqrt(2 g_e)|e><e|
    and sqrt(2 g_f)|f><f|, with g_e = gamma_phi_ge and
    g_f = gamma_phi_ef - gamma_phi_ge (clamped at zero), which reproduces
    the ge and ef Ramsey decay rates exactly. Zero-rate operators are
    dropped; a trivial model returns an empty list.
    """
    ops: list[np.ndarray] = []

    def _jump(rate, i, j):
        if rate > 0:
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = math.sqrt(rate)
            ops.append(m)

    _jump(noise.gamma_eg, 0, 1)
    _jump(noise.gamma_fe, 1, 2)
    _jump(noise.gamma_fg, 0, 2)
    g_e = noise.gamma_phi_ge
    g_f = max(noise.gamma_phi_ef - noise.gamma_phi_ge, 0.0)
    if g_e > 0:
        ops.append(np.diag([0.0, math.sqrt(2.0 * g_e), 0.0]).astype(complex))
    if g_f > 0:
        ops.append(np.diag([0.0, 0.0, math.sqrt(2.0 * g_f)]).astype(complex))
    return ops


def six_level_collapse_operators(
    qutrit_noise: NoiseModel, cavity_noise: CavityNoise = NO_CAVITY_NOISE
) -> list[np.ndarray]:
    """Collapse operators on {|0g>..|1f>}: transmon ops on both photon
    blocks plus photon loss / dephasing acting identically on all transmon
    levels."""
    eye2 = np.eye(2)
    ops = [np.kron(eye2, c) for c in collapse_operators(qutrit_noise)]
    if cavity_noise.gamma_loss > 0:
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        ops.append(math.sqrt(cavity_noise.gamma_loss) * np.kron(lower, np.eye(3)))
    if cavity_noise.gamma_phi > 0:
        proj1 = np.diag([0.0, 1.0])
        ops.append(math.sqrt(2.0 * cavity_noise.gamma_phi) * np.kron(proj1, np.eye(3)))
    return [op.astype(complex) for op in ops]


def rate_matrix(noise: NoiseModel) -> np.ndarray:
    """Population rate matrix G with dp/dt = G p, p = (P_g, P_e, P_f).

    Columns sum to zero (probability conservation). Upper triangular, so
    calibration.rate_populations solves it in closed form.
    """
    g_eg, g_fe, g_fg = noise.gamma_eg, noise.gamma_fe, noise.gamma_fg
    return np.array(
        [
            [0.0, g_eg, g_fg],
            [0.0, -g_eg, g_fe],
            [0.0, 0.0, -(g_fe + g_fg)],
        ]
    )
