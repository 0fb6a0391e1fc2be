"""Single-loop holonomic gate targets, schedules, and the Clifford group tables.

A gate is parameterized by (theta, gamma, phi): theta and phi set the
bright/dark decomposition of the (g, f) qubit and gamma is the geometric
phase picked up by the bright state after one closed loop through |e>.
The loop is driven in two equal halves of pulse area pi/2 each:

    half 1: phi0 = phi,             phi1 = pi
    half 2: phi0 = phi + gamma - pi, phi1 = gamma

which gives H proportional to |b><e| + h.c. in the first half and to
-(e^{i gamma}|b><e| + h.c.) in the second. The dark state never moves; the
bright state acquires e^{i gamma}; the auxiliary |e> returns with
e^{-i gamma}. On the computational block the result is target_u1 up to the
global phase e^{i gamma/2}.

Cavity (Fock 0/1) gates reuse the same loop on the effective basis
{|0g>, |1g>, |0f>} with the two-photon and raman couplings standing in for
the ge / ef tones; gamma = pi needs no mid-loop phase switch, so those
gates are a single flat-top pulse.

The 24 single-qubit Cliffords are listed once as loop parameters
(clifford_table) and, for sequence bookkeeping, as an integer group
(clifford_group): a Cayley table and an inverse table over the same
indices, built once per process and checked for closure as they are built.
A Clifford string is a list of those indices.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ZeroCouplingError
from .operators import gf_block, phase_aligned_distance, unitary_infidelity
from .pulses import (
    DEFAULT_HALF_SIGMA,
    DEFAULT_RAMP,
    Envelope,
    GateSchedule,
    PulseSegment,
    SquareWithRamps,
    TruncatedGaussian,
    normalize_to_area,
)

HALF_AREA = math.pi / 2.0


@dataclass(frozen=True)
class HolonomicParams:
    """Loop parameters (theta, gamma, phi); theta is restricted to [0, pi]."""

    theta: float
    gamma: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise OutOfRangeError(f"theta must lie in [0, pi], got {self.theta}")


#: named qubit gates (mixing angle, loop phase, azimuth)
QUBIT_GATES = {
    "X_pi": HolonomicParams(math.pi / 2, math.pi, 0.0),
    "X_pi_2": HolonomicParams(math.pi / 2, math.pi / 2, 0.0),
    "H": HolonomicParams(math.pi / 4, math.pi, 0.0),
    "Z_pi": HolonomicParams(0.0, math.pi, 0.0),
    "Y_pi": HolonomicParams(math.pi / 2, math.pi, math.pi / 2),
    "T": HolonomicParams(0.0, math.pi / 4, 0.0),
}

#: named cavity gates as (theta, phi) of target_u2 (gamma = pi implied)
CAVITY_GATES = {
    "X_pi": (math.pi / 2, 0.0),
    "H1": (math.pi / 4, 0.0),
    "H2": (math.pi / 4, math.pi / 2),
}


# ---- targets ----

def target_u1(params: HolonomicParams) -> np.ndarray:
    """Ideal holonomic gate on the (g, f) qubit.

    [[cos(g/2) - i sin(g/2) cos t,   -i sin(g/2) sin t e^{+i phi}],
     [-i sin(g/2) sin t e^{-i phi},  cos(g/2) + i sin(g/2) cos t]]
    """
    t, g, phi = params.theta, params.gamma, params.phi
    cg, sg = math.cos(g / 2.0), math.sin(g / 2.0)
    ct, st = math.cos(t), math.sin(t)
    return np.array(
        [
            [cg - 1j * sg * ct, -1j * sg * st * np.exp(1j * phi)],
            [-1j * sg * st * np.exp(-1j * phi), cg + 1j * sg * ct],
        ],
        dtype=complex,
    )


def target_u2(theta: float, phi: float) -> np.ndarray:
    """Ideal gamma = pi cavity gate: [[cos t, sin t e^{i phi}], [sin t e^{-i phi}, -cos t]].

    Equals i * target_u1(theta, pi, phi) exactly (same theta, same phi).
    """
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [[ct, st * np.exp(1j * phi)], [st * np.exp(-1j * phi), -ct]], dtype=complex
    )


def loop_unitary(params: HolonomicParams) -> np.ndarray:
    """Exact three-level unitary of one ideal loop, including the auxiliary
    phase: |d><d| + e^{i gamma}|b><b| + e^{-i gamma}|e><e|."""
    from .model import bright_dark

    b, d = bright_dark(params.theta, params.phi)
    e = np.array([0.0, 1.0, 0.0], dtype=complex)
    return (
        np.outer(d, d.conj())
        + np.exp(1j * params.gamma) * np.outer(b, b.conj())
        + np.exp(-1j * params.gamma) * np.outer(e, e.conj())
    )


def synthesis_infidelity(u_sim: np.ndarray, params: HolonomicParams) -> float:
    """Process infidelity of the computational (g, f) block against target_u1.

    1 - |Tr(U1^dag B)|^2 / 4 with B the gf block of the simulated qutrit
    propagator. Leakage out of the block shows up here (B stops being
    unitary); the auxiliary-level phase e^{-i gamma} does not, since the
    gate's target only constrains the qubit.
    """
    return unitary_infidelity(gf_block(u_sim), target_u1(params))


# Effective cavity basis is ordered {|0g>, |1g>, |0f>}: the logical pair sits
# at indices (0, 1) and the auxiliary |0f> at 2, unlike the qutrit's (g, f)
# block at (0, 2) with |e> at 1. This permutation carries one layout into the
# other (qutrit g -> |0g>, e -> |0f>, f -> |1g>).
_CAVITY_FROM_QUTRIT = np.array(
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
)


def cavity_block(u_sim: np.ndarray) -> np.ndarray:
    """Logical {|0g>, |1g>} block of an effective-basis propagator."""
    return np.asarray(u_sim)[:2, :2]


def cavity_loop_unitary(theta: float, gamma: float, phi: float = 0.0) -> np.ndarray:
    """loop_unitary re-ordered to the effective cavity basis."""
    u = loop_unitary(HolonomicParams(theta, gamma, phi))
    return _CAVITY_FROM_QUTRIT @ u @ _CAVITY_FROM_QUTRIT.T


def cavity_synthesis_infidelity(
    u_sim: np.ndarray, theta: float, gamma: float, phi: float = 0.0
) -> float:
    """Logical-block process infidelity for an effective-basis propagator."""
    return unitary_infidelity(
        cavity_block(u_sim), target_u1(HolonomicParams(theta, gamma, phi))
    )


# ---- schedule synthesis ----

def qubit_half(base: Envelope | None = None) -> Envelope:
    """The envelope of ONE half of a qubit gate: ``base`` (default truncated
    Gaussian, sigma 15 ns, 60 ns long, for the standard 120 ns gate)
    normalized to area pi/2."""
    if base is None:
        base = TruncatedGaussian(sigma=DEFAULT_HALF_SIGMA)
    return normalize_to_area(base, HALF_AREA)


def synthesize_qubit_gate(
    params: HolonomicParams,
    half: Envelope | None = None,
) -> GateSchedule:
    """Two-half schedule realizing target_u1 on the (g, f) qubit.

    ``half`` is the envelope of ONE half at area pi/2, as qubit_half
    returns it (default ``qubit_half()``), so a caller that builds many
    gates normalizes once. It is split between the tones as
    Omega_ge = Omega sin(theta/2), Omega_ef = Omega cos(theta/2); theta = 0
    or pi simply silences one tone.
    """
    if half is None:
        half = qubit_half()
    t_half = half.duration
    s = math.sin(params.theta / 2.0)
    c = math.cos(params.theta / 2.0)
    ge_env = dataclasses.replace(half, peak_amplitude=half.peak_amplitude * s)
    ef_env = dataclasses.replace(half, peak_amplitude=half.peak_amplitude * c)
    phases = [
        (params.phi, math.pi),  # first half (phi0, phi1)
        (params.phi + params.gamma - math.pi, params.gamma),  # second half
    ]
    segments = []
    for k, (phi0, phi1) in enumerate(phases):
        start = k * t_half
        segments.append(PulseSegment(ge_env, "ge", phi0, start))
        segments.append(PulseSegment(ef_env, "ef", phi1, start))
    label = f"u1(theta={params.theta:.6g},gamma={params.gamma:.6g},phi={params.phi:.6g})"
    return GateSchedule(tuple(segments), 2.0 * t_half, label)


def mixing_from_couplings(g1: float, g2: float) -> tuple[float, float]:
    """(theta, g_total) with tan(theta/2) = g1/g2 and g_total = hypot(g1, g2).

    No division: g2 = 0 gives theta = pi cleanly. Both zero is an error.
    """
    if g1 < 0 or g2 < 0:
        raise OutOfRangeError("couplings must be >= 0")
    if g1 == 0 and g2 == 0:
        raise ZeroCouplingError("both cavity couplings are zero")
    return 2.0 * math.atan2(g1, g2), math.hypot(g1, g2)


def synthesize_cavity_gate(
    theta: float,
    gamma: float,
    phi: float,
    g_total: float,
) -> GateSchedule:
    """Flat-top schedule realizing the loop on {|0g>, |1g>, |0f>}.

    ``g_total`` is the peak of sqrt(g1^2 + g2^2); the flat duration follows
    from the cyclic condition (total area pi). gamma = pi keeps the same
    tone phases in both halves, so it is emitted as one continuous pulse
    (this is what makes the quoted 1420 ns / 779 ns gate lengths come out);
    any other gamma splits into two area-pi/2 halves back to back.
    """
    if g_total <= 0:
        raise ZeroCouplingError(f"total coupling must be positive, got {g_total}")
    if not 0.0 <= theta <= math.pi:
        raise OutOfRangeError(f"theta must lie in [0, pi], got {theta}")
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    same_phase = abs((gamma - math.pi) % (2.0 * math.pi)) < 1e-12
    half_specs = (
        [(math.pi, (phi, math.pi))]
        if same_phase
        else [(HALF_AREA, (phi, math.pi)), (HALF_AREA, (phi + gamma - math.pi, gamma))]
    )
    segments = []
    start = 0.0
    for target_area, (phi0, phi1) in half_specs:
        flat = target_area / g_total - DEFAULT_RAMP
        if flat <= 0:
            raise OutOfRangeError("ramps longer than the loop allows; lower g_total")
        env = normalize_to_area(SquareWithRamps(flat, DEFAULT_RAMP, g_total), target_area)
        segments.append(
            PulseSegment(
                dataclasses.replace(env, peak_amplitude=env.peak_amplitude * s),
                "two_photon",
                phi0,
                start,
            )
        )
        segments.append(
            PulseSegment(
                dataclasses.replace(env, peak_amplitude=env.peak_amplitude * c),
                "raman",
                phi1,
                start,
            )
        )
        start += env.duration
    label = f"u2-loop(theta={theta:.6g},gamma={gamma:.6g},phi={phi:.6g})"
    return GateSchedule(tuple(segments), start, label)


def encode_swap_schedule(g_swap: float, phase: float = 0.0) -> GateSchedule:
    """pi swap between |0f> and |1g> (encode/decode leg of the cavity runs).

    One flat-top raman pulse of area exactly pi/2; duration follows from the
    coupling (about 306 ns at the reference 2 pi x 0.845 MHz).
    """
    if g_swap <= 0:
        raise ZeroCouplingError(f"swap coupling must be positive, got {g_swap}")
    flat = HALF_AREA / g_swap - DEFAULT_RAMP
    if flat <= 0:
        raise OutOfRangeError("ramps longer than the swap allows")
    env = normalize_to_area(SquareWithRamps(flat, DEFAULT_RAMP, g_swap), HALF_AREA)
    seg = PulseSegment(env, "raman", phase, 0.0)
    return GateSchedule((seg,), env.duration, "swap")


# ---- dynamic (non-geometric) reference gates ----

#: sigma of every dynamic reference pulse (each is 4 sigma = 120 ns long)
DYNAMIC_SIGMA = 30e-9


def _dynamic_pulse(transition, rotation, axis_phase, start):
    """One Gaussian subspace rotation; pulse area is rotation/2."""
    env = normalize_to_area(TruncatedGaussian(sigma=DYNAMIC_SIGMA), rotation / 2.0)
    return PulseSegment(env, transition, axis_phase, start)


def dynamic_hadamard_schedule() -> GateSchedule:
    """Hadamard as three sequential rotations: X_pi^ge, X_pi/2^ef, X_pi^ge."""
    t_p = 4.0 * DYNAMIC_SIGMA
    segs = (
        _dynamic_pulse("ge", math.pi, 0.0, 0.0),
        _dynamic_pulse("ef", math.pi / 2.0, 0.0, t_p),
        _dynamic_pulse("ge", math.pi, 0.0, 2.0 * t_p),
    )
    return GateSchedule(segs, 3.0 * t_p, "dynamic-hadamard")


def dynamic_t_schedule() -> GateSchedule:
    """T gate as four rotations: X_pi^ge, R_pi^ef(-pi/8), Y_pi^ef, X_pi^ge.

    Two pi rotations about in-plane ef axes separated by delta compose to a
    z rotation by 2*delta on (e, f); sandwiched between the ge pi pulses this
    lands diag(1, e^{i pi/4}) on the (g, f) block (up to global phase). With
    the drive phase sitting on |f><e|, delta = phi2 - phi1 must be +5 pi/8.
    """
    t_p = 4.0 * DYNAMIC_SIGMA
    segs = (
        _dynamic_pulse("ge", math.pi, 0.0, 0.0),
        _dynamic_pulse("ef", math.pi, -math.pi / 8.0, t_p),
        _dynamic_pulse("ef", math.pi, math.pi / 2.0, 2.0 * t_p),
        _dynamic_pulse("ge", math.pi, 0.0, 3.0 * t_p),
    )
    return GateSchedule(segs, 4.0 * t_p, "dynamic-t")


# ---- Clifford group tables ----

def _axis_angle_entries():
    x, y, z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    entries = [((0.0, 0.0, 1.0), 0.0)]
    for ax in (x, y, z):
        neg = tuple(-a for a in ax)
        entries.append((ax, math.pi / 2.0))
        entries.append((neg, math.pi / 2.0))  # the -pi/2 rotation
        entries.append((ax, math.pi))
    r3 = 1.0 / math.sqrt(3.0)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                entries.append(((sx * r3, sy * r3, sz * r3), 2.0 * math.pi / 3.0))
    r2 = 1.0 / math.sqrt(2.0)
    for ax in (
        (r2, r2, 0.0), (r2, -r2, 0.0),
        (r2, 0.0, r2), (r2, 0.0, -r2),
        (0.0, r2, r2), (0.0, r2, -r2),
    ):
        entries.append((ax, math.pi))
    return entries


def _canonical_pi_axis(axis):
    """For pi rotations the axis sign is a global phase; pick the
    representative that makes the named gates come out with phi = 0."""
    eps = 1e-12
    ax, ay, az = axis
    if az < -eps or (abs(az) <= eps and (ax < -eps or (abs(ax) <= eps and ay < 0))):
        return (-ax, -ay, -az)
    return axis


def clifford_table() -> tuple[HolonomicParams, ...]:
    """All 24 single-qubit Cliffords as single-loop (theta, gamma, phi).

    target_u1 realizes the rotation exp(-i gamma/2 n.sigma) with
    n = (sin t cos p, -sin t sin p, cos t), so a rotation about axis a by
    gamma maps to theta = atan2(|(a_x, a_y)|, a_z), phi = atan2(-a_y, a_x).
    Contains the four benchmarked gates at exactly their published
    parameters: (pi/2, pi, 0), (pi/2, pi/2, 0), (pi/4, pi, 0), (0, pi, 0).
    """
    table = []
    for axis, angle in _axis_angle_entries():
        if angle == 0.0:
            table.append(HolonomicParams(0.0, 0.0, 0.0))
            continue
        if abs(angle - math.pi) < 1e-12:
            axis = _canonical_pi_axis(axis)
        ax, ay, az = axis
        # atan2 of the two components is exact where acos(a_z) is not (H
        # would get pi/4 + 1 ulp); "+ 0.0" turns atan2's -0.0 into 0.0
        theta = math.atan2(math.hypot(ax, ay), az)
        phi = 0.0 if math.sin(theta) < 1e-12 else math.atan2(-ay, ax) + 0.0
        table.append(HolonomicParams(theta, angle, phi))
    return tuple(table)


def find_recovery(product: np.ndarray) -> int:
    """Index r of the clifford_group() element with U_r @ product = identity
    up to phase (within 1e-8).

    The elements form a group, so for any product of their unitaries
    exactly one recovery exists; failing to find one means the product
    drifted or was never a Clifford.
    """
    eye = np.eye(2)
    for r, params in enumerate(clifford_group().elements):
        if phase_aligned_distance(target_u1(params) @ product, eye) < 1e-8:
            return r
    raise OutOfRangeError("no recovery Clifford found; product left the group")


@dataclass(frozen=True, eq=False)
class CliffordGroup:
    """clifford_table() as an integer group; U_a is target_u1(elements[a]).

    A Clifford string is a sequence of these indices. ``cayley[a, b]``
    indexes U_a U_b and ``inverse[a]`` indexes U_a^dag, both up to global
    phase; ``identity`` indexes U = 1.
    """

    elements: tuple[HolonomicParams, ...]
    cayley: np.ndarray  # (24, 24) int
    inverse: np.ndarray  # (24,) int
    identity: int


@functools.cache
def clifford_group() -> CliffordGroup:
    """The Clifford group tables, built once per process from clifford_table().

    All 576 products U_a U_b are matched against the 24 elements in one
    stacked Hilbert-Schmidt overlap: U_a U_b equals U_c up to phase exactly
    when |Tr(U_c^dag U_a U_b)| = 2. Every product must match exactly one
    element within 1e-8, so closure (and distinctness of the elements) is
    checked by construction; a finite closed set of unitaries is a group.
    """
    elements = clifford_table()
    u = np.stack([target_u1(p) for p in elements])
    products = np.matmul(u[:, None], u[None, :])  # [a, b] = U_a U_b
    overlap = np.abs(np.einsum("cji,abji->abc", u.conj(), products))
    hits = np.abs(overlap - 2.0) < 1e-8
    if not np.all(hits.sum(axis=2) == 1):
        raise OutOfRangeError("Clifford table is not closed under multiplication")
    cayley = hits.argmax(axis=2)
    identity = int(np.flatnonzero(np.all(cayley == np.arange(len(elements)), axis=1))[0])
    inverse = (cayley == identity).argmax(axis=0)  # U_inverse[a] U_a = 1
    cayley.setflags(write=False)
    inverse.setflags(write=False)
    return CliffordGroup(
        elements=elements,
        cayley=cayley,
        inverse=inverse,
        identity=identity,
    )
