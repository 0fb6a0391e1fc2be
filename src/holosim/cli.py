"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Every run reads one JSON config, validates it against a small versioned
schema, writes ``manifest.json`` first (status "incomplete"), executes the
task, then finalizes the manifest (status "complete", wall time). A crash
leaves the incomplete manifest behind. Identical config and seed produce
byte-identical result files; wall-clock timestamps live only in the
manifest.

Physical quantities in configs carry their unit in the key name (``_ns``,
``_mhz``) and are converted to seconds and angular frequency once, at parse
time. The top-level keys (no others are accepted)::

    {
      "schema_version": 1,
      "seed": 7,                     # optional; the --seed flag overrides
      "device": "paper-device",      # named noise set, or "none" (default)
      "error": {"epsilon": 0.0, "detuning_mhz": 0.0},   # optional
      "<subcommand>": { ... }        # block named after the subcommand
    }

Gate blocks accept either ``"name"`` (X_pi, X_pi_2, H, Z_pi, Y_pi, T) or
the raw loop angles ``"theta"``, ``"gamma"``, ``"phi"`` in radians, plus an
optional ``"envelope": {"sigma_ns": ..., "total_ns": ...}`` describing the
half-loop pulse. Subcommand blocks:

    gate      {"name": "H" | "theta": .., "gamma": .., "phi": ..,
               "envelope": {...}, "steps": 1024}
    qpt       {"gate": {...}, "shots": null|int, "mle": null|bool,
               "project": null|bool, "steps": 1024}
    rb        {"m_max": 20 | "lengths": [..], "k": 100,
               "interleaved": null|"H", "steps": 512}
    sweep     {"family": "holonomic"|"dynamic", "gate": "H",
               "epsilon": {"min": -0.1, "max": 0.1, "count": 21},
               "detuning_mhz": {"min": -1, "max": 1, "count": 21},
               "steps": 128}
    cavity    {"gate": null | "X_pi" | {"theta": .., "phi": ..},
               "g_total_mhz": null|float (only with a gate), "steps": 2048}
    calibrate {"kind": "rate_equation", "trace_g": .., "trace_e": ..,
               "trace_f": ..}  or  {"kind": "ramsey"|"rabi", "trace": ..,
               "detrend_degree": null|0..7}  or  {"kind": "chevron",
               "points": ..}

``device`` other than "none" applies to gate, qpt, rb and cavity, and a
non-zero ``error`` to gate, qpt and rb; elsewhere either exits 2. Relative
data paths in ``calibrate`` blocks resolve against the config file's
directory; the CSV format is ``calibration.read_csv_columns``'s. The cavity
pipeline runs decohered exactly when the device is not "none".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import benchmarking as bm
from . import model as md
from . import sweeps as sw
from . import tomography as tm
from .calibration import (
    MAX_DETREND_DEGREE,
    ChevronPoint,
    Trace,
    fit_chevron,
    fit_rabi,
    fit_ramsey,
    fit_rate_equation,
    read_csv_columns,
)
from .errors import ConfigError, HolosimError, IoError, write_json
from .evolution import schedule_unitary
from .holonomic import (
    CAVITY_GATES,
    QUBIT_GATES,
    HolonomicParams,
    qubit_half,
    synthesis_infidelity,
    synthesize_qubit_gate,
    target_u1,
)
from .pulses import TruncatedGaussian

TWO_PI = 2.0 * math.pi
SCHEMA_VERSION = 1

SUBCOMMANDS = ("gate", "qpt", "rb", "sweep", "cavity", "calibrate")
#: subcommands that apply a top-level "device" other than "none", and a
#: non-trivial top-level "error"; the others reject them
DEVICE_SUBCOMMANDS = ("gate", "qpt", "rb", "cavity")
ERROR_SUBCOMMANDS = ("gate", "qpt", "rb")

#: default integration steps per task (sweeps/cavity defaults live in sweeps)
GATE_STEPS = 1024
QPT_STEPS = 1024
RB_STEPS = 512
#: steps ceiling: 4x the finest reference budget (16384); a larger value
#: would only allocate steps x d x d arrays without buying accuracy
MAX_STEPS = 65536
#: ceilings on rb.m_max, each rb.lengths entry and their number (0.992^1000
#: = 3e-4 ends any decay worth fitting), on rb.k (1000 randomizations put a
#: mean's standard error at 3% of its spread), and on qpt.shots and --shots
#: (1e12 shots resolve a probability to 5e-7; counts stay exact floats)
MAX_RB_LENGTH = MAX_RB_K = 1000
MAX_SHOTS = 10**12
#: accepted envelope lengths (sigma_ns, total_ns) in ns: 1 ps to 1 ms spans
#: every transmon drive
ENVELOPE_NS = (1e-3, 1e6)
#: accepted total_ns / sigma_ns: below, the truncated Gaussian is a parabola
#: left by cancelling 1 - exp(-ratio^2 / 8); above, it is zero to rounding
#: (exp(-32)) over all the extra window
ENVELOPE_RATIO = (0.1, 16.0)
#: largest accepted |gamma| and |phi| in rad: the half-loop phases are
#: phi + gamma - pi, and beyond 1e3 rad that sum rounds by 1e-13 rad or more
MAX_ANGLE = 1e3


# ---- config plumbing ----

_MISSING = object()

_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "dict": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field(block, key, path, kind, default=_MISSING, allow_none=False):
    """One validated config value (a number comes back as a finite float);
    the error names the full key path."""
    full = _join(path, key)
    if key not in block:
        if default is _MISSING:
            raise ConfigError("missing required key", full)
        return default
    value = block[key]
    if value is None:
        if allow_none:
            return None
        raise ConfigError("must not be null", full)
    if not _KINDS[kind](value):
        raise ConfigError(f"expected {kind}, got {type(value).__name__}", full)
    if kind != "number":
        return value
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError("out of the float range", full) from None
    if not math.isfinite(number):
        raise ConfigError(f"must be finite, got {number}", full)
    return number


def _reject_unknown(block, allowed, path) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(
                f"unknown key (valid here: {', '.join(sorted(allowed))})",
                _join(path, key),
            )


def _load_config(path):
    """Parsed JSON object plus the sha256 of the raw file bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"top level must be an object, got {type(cfg).__name__}")
    return cfg, hashlib.sha256(raw).hexdigest()


def _resolve_device(cfg):
    """(device table or None, qutrit noise, name) for the top-level key."""
    name = _field(cfg, "device", "", "str", default="none")
    if name == "none":
        return None, md.NO_NOISE, name
    if name == "paper-device":
        dev = md.paper_device()
        return dev, dev.q1_noise, name
    raise ConfigError(
        f"unknown device set {name!r} (valid: none, paper-device)", "device"
    )


def _resolve_error(cfg) -> md.ControlError:
    block = _field(cfg, "error", "", "dict", default=None, allow_none=True)
    if not block:
        return md.NO_ERROR
    _reject_unknown(block, {"epsilon", "detuning_mhz"}, "error")
    eps = _field(block, "epsilon", "error", "number", default=0.0)
    det_mhz = _field(block, "detuning_mhz", "error", "number", default=0.0)
    return md.ControlError(epsilon=eps, detuning=TWO_PI * 1e6 * det_mhz)


def _bounded_int(block, key, path, default: int, lo: int, hi: int) -> int:
    value = _field(block, key, path, "int", default=default)
    if not lo <= value <= hi:
        raise ConfigError(f"must be in [{lo}, {hi}], got {value}", _join(path, key))
    return value


def _parse_envelope(block, path):
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError(f"expected dict, got {type(block).__name__}", path)
    _reject_unknown(block, {"sigma_ns", "total_ns"}, path)
    sigma_ns = _field(block, "sigma_ns", path, "number")
    total_ns = _field(block, "total_ns", path, "number", default=None, allow_none=True)
    lo, hi = ENVELOPE_NS
    for key, value in (("sigma_ns", sigma_ns), ("total_ns", total_ns)):
        if value is not None and not lo <= value <= hi:
            raise ConfigError(f"must be in [{lo:g}, {hi:g}] ns, got {value}", _join(path, key))
    if total_ns is None:
        return TruncatedGaussian(sigma=sigma_ns * 1e-9)
    lo, hi = ENVELOPE_RATIO
    if not lo <= total_ns / sigma_ns <= hi:
        raise ConfigError(
            f"total_ns / sigma_ns = {total_ns / sigma_ns:.3g} is outside [{lo:g}, {hi:g}]",
            _join(path, "total_ns"),
        )
    return TruncatedGaussian(sigma=sigma_ns * 1e-9, total=total_ns * 1e-9)


def _parse_gate_params(block, path):
    """(HolonomicParams, label) from a name or raw loop angles."""
    _reject_unknown(block, {"name", "theta", "gamma", "phi", "envelope"}, path)
    name = _field(block, "name", path, "str", default=None, allow_none=True)
    angle_keys = [k for k in ("theta", "gamma", "phi") if k in block]
    if name is not None:
        if angle_keys:
            raise ConfigError(
                "give either a gate name or raw angles, not both",
                _join(path, angle_keys[0]),
            )
        if name not in QUBIT_GATES:
            raise ConfigError(
                f"unknown gate {name!r} (valid: {', '.join(sorted(QUBIT_GATES))})",
                _join(path, "name"),
            )
        return QUBIT_GATES[name], name
    theta = _field(block, "theta", path, "number")
    gamma = _field(block, "gamma", path, "number")
    phi = _field(block, "phi", path, "number", default=0.0)
    for key, value in (("gamma", gamma), ("phi", phi)):
        if not abs(value) <= MAX_ANGLE:
            raise ConfigError(f"must be within +-{MAX_ANGLE:g} rad, got {value}", _join(path, key))
    try:
        params = HolonomicParams(theta, gamma, phi)
    except HolosimError as exc:
        raise ConfigError(str(exc), _join(path, "theta")) from exc
    return params, f"u1(theta={theta!r},gamma={gamma!r},phi={phi!r})"


def _parse_axis(block, key, path, default_min, default_max):
    """Linear grid spec {"min", "max", "count"} -> ndarray."""
    spec = _field(block, key, path, "dict", default=None, allow_none=True)
    full = _join(path, key)
    if spec is None:
        return np.linspace(default_min, default_max, 21)
    _reject_unknown(spec, {"min", "max", "count"}, full)
    lo = _field(spec, "min", full, "number")
    hi = _field(spec, "max", full, "number")
    count = _field(spec, "count", full, "int")
    if count < 1:
        raise ConfigError(f"must be >= 1, got {count}", _join(full, "count"))
    if hi < lo:
        raise ConfigError(f"max {hi} is below min {lo}", _join(full, "max"))
    return np.linspace(lo, hi, count)


# ---- subcommand handlers ----

@dataclass(frozen=True)
class RunContext:
    """Resolved run-wide settings handed to every handler."""

    out_dir: str
    config_dir: str
    seed: int
    threads: int
    shots_override: int | None
    exact_override: bool
    device: md.DeviceTable | None
    noise: md.NoiseModel
    device_name: str
    err: md.ControlError

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def data_path(self, rel: str) -> str:
        return rel if os.path.isabs(rel) else os.path.join(self.config_dir, rel)


def _run_gate(cfg, ctx: RunContext):
    block = _field(cfg, "gate", "", "dict")
    _reject_unknown(block, {"name", "theta", "gamma", "phi", "envelope", "steps"}, "gate")
    params, label = _parse_gate_params(
        {k: v for k, v in block.items() if k != "steps"}, "gate"
    )
    env = _parse_envelope(block.get("envelope"), "gate.envelope")
    steps = _bounded_int(block, "steps", "gate", GATE_STEPS, 4, MAX_STEPS)

    schedule = synthesize_qubit_gate(params, qubit_half(env))
    u = schedule_unitary(schedule, ctx.err, steps)
    infid = synthesis_infidelity(u, params)
    leakage = float(abs(u[1, 0]) ** 2 + abs(u[1, 2]) ** 2)
    payload = {
        "gate": label,
        "fidelity": 1.0 - infid,
        "infidelity": infid,
        "leakage_e": leakage,
        "duration_ns": schedule.duration * 1e9,
        "steps": steps,
        "device": ctx.device_name,
        "epsilon": ctx.err.epsilon,
        "detuning_mhz": ctx.err.detuning / (TWO_PI * 1e6),
    }
    if ctx.device is not None:
        res = tm.simulate_qpt(schedule, noise=ctx.noise, err=ctx.err, shots=None, steps=steps)
        chi_t = tm.reduced_target_chi(target_u1(params))
        payload["fidelity_att"] = tm.fidelity_att(res.chi_reduced, chi_t)
        payload["fidelity_unatt"] = tm.fidelity_unatt(res.chi_reduced, chi_t)
    write_json(ctx.path("gate_report.json"), payload)
    return ["gate_report.json"]


def _run_qpt(cfg, ctx: RunContext):
    block = _field(cfg, "qpt", "", "dict")
    _reject_unknown(block, {"gate", "shots", "mle", "project", "steps"}, "qpt")
    gate_block = _field(block, "gate", "qpt", "dict")
    params, label = _parse_gate_params(gate_block, "qpt.gate")
    env = _parse_envelope(gate_block.get("envelope"), "qpt.gate.envelope")
    shots = _field(block, "shots", "qpt", "int", default=None, allow_none=True)
    if shots is not None and not 1 <= shots <= MAX_SHOTS:
        raise ConfigError(f"must be in [1, {MAX_SHOTS}] or null, got {shots}", "qpt.shots")
    mle = _field(block, "mle", "qpt", "bool", default=None, allow_none=True)
    project = _field(block, "project", "qpt", "bool", default=None, allow_none=True)
    steps = _bounded_int(block, "steps", "qpt", QPT_STEPS, 4, MAX_STEPS)
    if ctx.exact_override:
        shots = None
    elif ctx.shots_override is not None:
        shots = ctx.shots_override

    schedule = synthesize_qubit_gate(params, qubit_half(env))
    res = tm.simulate_qpt(
        schedule, noise=ctx.noise, err=ctx.err, shots=shots, seed=ctx.seed,
        steps=steps, mle=mle, project=project,
    )
    chi_t = tm.reduced_target_chi(target_u1(params))
    res.chi.to_csv(ctx.path("chi_full.csv"))
    res.chi_reduced.to_csv(ctx.path("chi_reduced.csv"))
    res.record.to_json(ctx.path("record.json"))
    write_json(ctx.path("qpt_summary.json"), {
        "gate": label,
        "device": ctx.device_name,
        "shots": shots,
        "seed": ctx.seed if shots is not None else None,
        "steps": steps,
        "fidelity_att": tm.fidelity_att(res.chi_reduced, chi_t),
        "fidelity_unatt": tm.fidelity_unatt(res.chi_reduced, chi_t),
        "chi_reduced_trace": res.chi_reduced.trace(),
    })
    return ["chi_full.csv", "chi_reduced.csv", "record.json", "qpt_summary.json"]


def _run_rb(cfg, ctx: RunContext):
    block = _field(cfg, "rb", "", "dict")
    _reject_unknown(block, {"lengths", "m_max", "k", "interleaved", "steps"}, "rb")
    if "lengths" in block and "m_max" in block:
        raise ConfigError("give either lengths or m_max, not both", "rb.lengths")
    if "lengths" in block:
        lengths = tuple(_field(block, "lengths", "rb", "list"))
        if not 1 <= len(lengths) <= MAX_RB_LENGTH or not all(
                _KINDS["int"](m) and 1 <= m <= MAX_RB_LENGTH for m in lengths):
            raise ConfigError(f"must be 1 to {MAX_RB_LENGTH} integers in [1, {MAX_RB_LENGTH}]",
                              "rb.lengths")
        if len(set(lengths)) < bm.MIN_DISTINCT_LENGTHS:
            raise ConfigError(f"need {bm.MIN_DISTINCT_LENGTHS} distinct lengths", "rb.lengths")
    else:
        m_max = _bounded_int(block, "m_max", "rb", 20, bm.MIN_DISTINCT_LENGTHS, MAX_RB_LENGTH)
        lengths = tuple(range(1, m_max + 1))
    k = _bounded_int(block, "k", "rb", 100, 1, MAX_RB_K)
    interleaved = _field(block, "interleaved", "rb", "str", default=None, allow_none=True)
    if interleaved is not None and interleaved not in bm.CLIFFORD_GATES:
        raise ConfigError(
            f"{interleaved!r} is not a Clifford gate "
            f"(valid: {', '.join(bm.CLIFFORD_GATES)})",
            "rb.interleaved",
        )
    steps = _bounded_int(block, "steps", "rb", RB_STEPS, 4, MAX_STEPS)

    run_cfg = bm.RbConfig(
        lengths=lengths, k=k, seed=ctx.seed, interleaved=interleaved,
        noise=ctx.noise, err=ctx.err, steps=steps,
    )
    result = bm.run_rb(run_cfg)
    artifacts = ["rb_reference.csv", "rb_summary.json"]
    result.reference.to_csv(ctx.path("rb_reference.csv"))
    if result.interleaved is not None:
        result.interleaved.to_csv(ctx.path("rb_interleaved.csv"))
        artifacts.insert(1, "rb_interleaved.csv")
    result.to_json(ctx.path("rb_summary.json"))
    return artifacts


def _run_sweep(cfg, ctx: RunContext):
    block = _field(cfg, "sweep", "", "dict")
    _reject_unknown(block, {"family", "gate", "epsilon", "detuning_mhz", "steps"}, "sweep")
    family = _field(block, "family", "sweep", "str")
    if family not in ("holonomic", "dynamic"):
        raise ConfigError(
            f"unknown family {family!r} (valid: dynamic, holonomic)", "sweep.family"
        )
    gate = _field(block, "gate", "sweep", "str")
    valid = sorted(QUBIT_GATES) if family == "holonomic" else ["H", "T"]
    if gate not in valid:
        raise ConfigError(
            f"unknown gate {gate!r} for family {family!r} (valid: {', '.join(valid)})",
            "sweep.gate",
        )
    epsilons = _parse_axis(block, "epsilon", "sweep", -0.1, 0.1)
    dets = TWO_PI * 1e6 * _parse_axis(block, "detuning_mhz", "sweep", -1.0, 1.0)
    steps = _bounded_int(block, "steps", "sweep", sw.SWEEP_STEPS, 4, MAX_STEPS)

    grid = sw.crosstalk_sweep(
        family, gate, epsilons=epsilons, detunings=dets,
        steps=steps, threads=ctx.threads,
    )
    grid.to_csv(ctx.path("sweep.csv"))
    grid.to_json(ctx.path("sweep.json"))
    return ["sweep.csv", "sweep.json"]


def _run_cavity(cfg, ctx: RunContext):
    block = _field(cfg, "cavity", "", "dict")
    _reject_unknown(block, {"gate", "g_total_mhz", "steps"}, "cavity")
    raw_gate = block.get("gate")
    if raw_gate is None:
        gate = None
    elif isinstance(raw_gate, str):
        if raw_gate not in CAVITY_GATES:
            raise ConfigError(
                f"unknown gate {raw_gate!r} (valid: {', '.join(sorted(CAVITY_GATES))})",
                "cavity.gate",
            )
        gate = CAVITY_GATES[raw_gate]
    elif isinstance(raw_gate, dict):
        _reject_unknown(raw_gate, {"theta", "phi"}, "cavity.gate")
        theta = _field(raw_gate, "theta", "cavity.gate", "number")
        phi = _field(raw_gate, "phi", "cavity.gate", "number", default=0.0)
        gate = (theta, phi)
    else:
        raise ConfigError(
            f"expected null, str, or dict, got {type(raw_gate).__name__}", "cavity.gate"
        )
    g_total_mhz = _field(block, "g_total_mhz", "cavity", "number",
                         default=None, allow_none=True)
    if g_total_mhz is not None and g_total_mhz <= 0:
        raise ConfigError(f"must be positive, got {g_total_mhz}", "cavity.g_total_mhz")
    if g_total_mhz is not None and gate is None:
        raise ConfigError(
            "the identity run (gate null) drives no coupling; drop the key or give a gate",
            "cavity.g_total_mhz",
        )
    g_total = None if g_total_mhz is None else TWO_PI * 1e6 * g_total_mhz
    steps = _bounded_int(block, "steps", "cavity", sw.PIPELINE_STEPS, 4, MAX_STEPS)

    result = sw.cavity_pipeline(
        gate, include_decoherence=ctx.device is not None, device=ctx.device,
        g_total=g_total, steps=steps,
    )
    result.to_json(ctx.path("cavity.json"))
    result.chi.to_csv(ctx.path("cavity_chi.csv"))
    return ["cavity.json", "cavity_chi.csv"]


def _run_calibrate(cfg, ctx: RunContext):
    block = _field(cfg, "calibrate", "", "dict")
    kinds = ("rate_equation", "ramsey", "rabi", "chevron")
    kind = _field(block, "kind", "calibrate", "str")
    if kind not in kinds:
        raise ConfigError(
            f"unknown kind {kind!r} (valid: {', '.join(kinds)})", "calibrate.kind"
        )
    if kind == "rate_equation":
        _reject_unknown(block, {"kind", "trace_g", "trace_e", "trace_f"}, "calibrate")
        traces = [
            Trace.from_csv(ctx.data_path(_field(block, key, "calibrate", "str")))
            for key in ("trace_g", "trace_e", "trace_f")
        ]
        fit = fit_rate_equation(*traces)
    elif kind == "chevron":
        _reject_unknown(block, {"kind", "points"}, "calibrate")
        path = ctx.data_path(_field(block, "points", "calibrate", "str"))
        offsets, omegas = read_csv_columns(path, ("offset_rad_s", "omega_r_rad_s"))
        fit = fit_chevron([ChevronPoint(offset=o, omega_r=w)
                           for o, w in zip(offsets.tolist(), omegas.tolist())])
    else:
        _reject_unknown(block, {"kind", "trace", "detrend_degree"}, "calibrate")
        degree = _field(block, "detrend_degree", "calibrate", "int",
                        default=None, allow_none=True)
        if degree is not None and not 0 <= degree <= MAX_DETREND_DEGREE:
            raise ConfigError(f"must be in [0, {MAX_DETREND_DEGREE}] or null, got {degree}",
                              "calibrate.detrend_degree")
        path = ctx.data_path(_field(block, "trace", "calibrate", "str"))
        trace = Trace.from_csv(path, detrend_degree=degree)
        fit = fit_ramsey(trace) if kind == "ramsey" else fit_rabi(trace)
    fit.to_json(ctx.path("fit.json"))
    return ["fit.json"]


_HANDLERS = {
    "gate": _run_gate,
    "qpt": _run_qpt,
    "rb": _run_rb,
    "sweep": _run_sweep,
    "cavity": _run_cavity,
    "calibrate": _run_calibrate,
}


# ---- driver ----

def run(
    subcommand: str,
    config_path,
    out_dir,
    seed: int | None = None,
    threads: int | None = None,
    shots: int | None = None,
    exact_measurement: bool = False,
) -> int:
    """Execute one subcommand; returns the process exit status (0 = ok).

    Writes the manifest before any result file, so an interrupted run
    leaves ``manifest.json`` with status "incomplete" as evidence.
    """
    if subcommand not in _HANDLERS:
        raise ConfigError(
            f"unknown subcommand {subcommand!r} (valid: {', '.join(SUBCOMMANDS)})"
        )
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ConfigError(f"must be >= 1, got {threads}", "--threads")
    if shots is not None and not 1 <= shots <= MAX_SHOTS:
        raise ConfigError(f"must be in [1, {MAX_SHOTS}], got {shots}", "--shots")

    cfg, cfg_hash = _load_config(config_path)
    schema = _field(cfg, "schema_version", "", "int")
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported value {schema}; this tool reads version {SCHEMA_VERSION}",
            "schema_version",
        )
    _reject_unknown(cfg, {"schema_version", "seed", "device", "error", subcommand}, "")
    cfg_seed = _field(cfg, "seed", "", "int", default=0)
    if cfg_seed < 0:
        raise ConfigError(f"must be >= 0, got {cfg_seed}", "seed")
    if seed is not None and seed < 0:
        raise ConfigError(f"must be >= 0, got {seed}", "--seed")
    eff_seed = cfg_seed if seed is None else seed
    device, noise, devname = _resolve_device(cfg)
    if devname != "none" and subcommand not in DEVICE_SUBCOMMANDS:
        raise ConfigError(f'{subcommand} applies no device; give "none" or drop the key',
                          "device")
    err = _resolve_error(cfg)
    if err != md.NO_ERROR and subcommand not in ERROR_SUBCOMMANDS:
        raise ConfigError(f"{subcommand} applies no control error; drop the key", "error")

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output dir {out_dir}: {exc}") from exc
    ctx = RunContext(
        out_dir=str(out_dir),
        config_dir=os.path.dirname(os.path.abspath(config_path)),
        seed=eff_seed,
        threads=threads,
        shots_override=shots,
        exact_override=exact_measurement,
        device=device,
        noise=noise,
        device_name=devname,
        err=err,
    )

    manifest = {
        "status": "incomplete",
        "subcommand": subcommand,
        "config_sha256": cfg_hash,
        "seed": eff_seed,
        "tool_version": __version__,
        "started_at_unix": time.time(),
    }
    write_json(ctx.path("manifest.json"), manifest)
    t0 = time.perf_counter()
    artifacts = _HANDLERS[subcommand](cfg, ctx)
    manifest["status"] = "complete"
    manifest["wall_time_s"] = time.perf_counter() - t0
    manifest["artifacts"] = list(artifacts)
    write_json(ctx.path("manifest.json"), manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holosim",
        description="Pulse-level simulation of single-loop holonomic gates.",
    )
    parser.add_argument(
        "--version", action="version", version=f"holosim {__version__}"
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "gate": "synthesize one gate, propagate it, report its fidelity",
        "qpt": "full process tomography of one gate",
        "rb": "reference (and optionally interleaved) randomized benchmarking",
        "sweep": "control-error robustness grid for one gate family",
        "cavity": "encode/gate/decode pipeline on the storage-mode qubit",
        "calibrate": "fit a measured trace file",
    }
    for name in SUBCOMMANDS:
        sp = subparsers.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads for independent tasks "
                             "(default: all cores)")
        if name == "qpt":
            meas = sp.add_mutually_exclusive_group()
            meas.add_argument("--shots", type=int, default=None,
                              help="sample measurements with this many shots")
            meas.add_argument("--exact-measurement", action="store_true",
                              help="use exact expectation values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(
            args.subcommand,
            args.config,
            args.out,
            seed=args.seed,
            threads=args.threads,
            shots=getattr(args, "shots", None),
            exact_measurement=getattr(args, "exact_measurement", False),
        )
    except (ConfigError, IoError) as exc:
        print(f"holosim: error: {exc}", file=sys.stderr)
        return 2
    except HolosimError as exc:
        print(f"holosim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
