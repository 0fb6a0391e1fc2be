"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Every run reads one JSON config, validates it against ``SCHEMA``, writes
``manifest.json`` first (status "incomplete"), executes the task, then
finalizes the manifest (status "complete", wall time). A crash leaves the
incomplete manifest behind. Identical config and seed produce
byte-identical result files; wall-clock timestamps live only in the
manifest.

``SCHEMA`` states each config key once: its kind, default, bounds, choices
and unit. ``_walk`` applies it to a block, converting ``_ns`` and ``_mhz``
values to seconds and rad/s once (a sweep's detuning grid after linspace);
the rules that relate two keys are the small checks after it. The README's
config reference lists the same keys.
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
from . import calibration as cal
from . import model as md
from . import sweeps as sw
from . import tomography as tm
from .calibration import fit_chevron, fit_rabi, fit_ramsey, fit_rate_equation
from .errors import ConfigError, HolosimError, IoError, OutOfRangeError, write_json
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

SCHEMA_VERSION = 1

SUBCOMMANDS = ("gate", "qpt", "rb", "sweep", "cavity", "calibrate")
#: subcommands that apply a top-level "device" other than "none", and a
#: non-trivial top-level "error"; the others reject them
DEVICE_SUBCOMMANDS = ("gate", "qpt", "rb", "cavity")
ERROR_SUBCOMMANDS = ("gate", "qpt", "rb")

#: steps ceiling: 4x the finest reference budget (16384); a larger value
#: would only allocate steps x d x d arrays without buying accuracy
MAX_STEPS = 65536
#: ceilings on rb.m_max, each rb.lengths entry and their number (0.992^1000
#: = 3e-4 ends any decay worth fitting), on rb.k (1000 randomizations put a
#: mean's standard error at 3% of its spread), and on qpt.shots and --shots
#: (1e12 shots resolve a probability to 5e-7; counts stay exact floats)
MAX_RB_LENGTH = MAX_RB_K = 1000
MAX_SHOTS = 10**12
#: ceiling on each sweep axis count: 1000 x 1000 is 10^6 cells, minutes of
#: propagation at 128 steps, while an unbounded count ends in numpy refusing
#: (or failing to allocate) the grid after the manifest is written
MAX_SWEEP_COUNT = 1000
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

#: unit factors of the ``_ns`` and ``_mhz`` keys, to seconds and rad/s
_NS = 1e-9
_MHZ = 2.0 * math.pi * 1e6


# ---- config schema and its walker ----

_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "dict": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
}

# One entry per key, walked in table order. "kind" is a _KINDS name, or
# two joined by "|" for either. A "default" makes the key optional (an
# entry without one is required); "null": True lets null, or the key left
# out, stand for the default, None unless given. "bounds" (lo, hi),
# inclusive, limit a number, an int or a list's length; "choices" limit a
# str or an int; "scale" converts a number to SI units (a walked block
# keeps the key names); "keys" is the table of a dict value, "items" the
# entry of each list item; "for" names the calibrate kinds that take a key.

#: a qubit gate: a library name or the raw loop angles; theta and gamma walk
#: as None when left out, and only a gate without a name needs them
_GATE_KEYS = {
    "name": {"kind": "str", "null": True, "choices": tuple(sorted(QUBIT_GATES))},
    "theta": {"kind": "number", "default": None, "bounds": (0.0, math.pi)},
    "gamma": {"kind": "number", "default": None, "bounds": (-MAX_ANGLE, MAX_ANGLE)},
    "phi": {"kind": "number", "default": 0.0, "bounds": (-MAX_ANGLE, MAX_ANGLE)},
    "envelope": {"kind": "dict", "null": True, "keys": {
        "sigma_ns": {"kind": "number", "bounds": ENVELOPE_NS, "scale": _NS},
        "total_ns": {"kind": "number", "null": True, "bounds": ENVELOPE_NS, "scale": _NS},
    }},
}

#: a sweep axis: count points from min to max
_AXIS_KEYS = {
    "min": {"kind": "number"},
    "max": {"kind": "number"},
    "count": {"kind": "int", "bounds": (1, MAX_SWEEP_COUNT)},
}

SCHEMA = {
    "schema_version": {"kind": "int", "choices": (SCHEMA_VERSION,)},
    "seed": {"kind": "int", "default": 0, "bounds": (0, math.inf)},
    "device": {"kind": "str", "default": "none", "choices": ("none", "paper-device")},
    "error": {"kind": "dict", "null": True, "keys": {
        "epsilon": {"kind": "number", "default": 0.0},
        "detuning_mhz": {"kind": "number", "default": 0.0, "scale": _MHZ},
    }},
    "gate": {"kind": "dict", "keys": {
        **_GATE_KEYS, "steps": {"kind": "int", "default": 1024, "bounds": (4, MAX_STEPS)},
    }},
    "qpt": {"kind": "dict", "keys": {
        "gate": {"kind": "dict", "keys": _GATE_KEYS},
        "shots": {"kind": "int", "null": True, "bounds": (1, MAX_SHOTS)},
        "mle": {"kind": "bool", "null": True},
        "project": {"kind": "bool", "null": True},
        "steps": {"kind": "int", "default": 1024, "bounds": (4, MAX_STEPS)},
    }},
    "rb": {"kind": "dict", "keys": {
        "lengths": {"kind": "list", "default": None, "bounds": (1, MAX_RB_LENGTH),
                    "items": {"kind": "int", "bounds": (1, MAX_RB_LENGTH)}},
        "m_max": {"kind": "int", "default": 20,
                  "bounds": (bm.MIN_DISTINCT_LENGTHS, MAX_RB_LENGTH)},
        "k": {"kind": "int", "default": 100, "bounds": (1, MAX_RB_K)},
        "interleaved": {"kind": "str", "null": True, "choices": bm.CLIFFORD_GATES},
        "steps": {"kind": "int", "default": 512, "bounds": (4, MAX_STEPS)},
    }},
    "sweep": {"kind": "dict", "keys": {
        "family": {"kind": "str", "choices": tuple(sorted(sw.FAMILY_GATES))},
        "gate": {"kind": "str"},
        "epsilon": {"kind": "dict", "default": {"min": -0.1, "max": 0.1, "count": 21},
                    "null": True, "keys": _AXIS_KEYS},
        # in MHz: the grid is converted after linspace, not its endpoints
        "detuning_mhz": {"kind": "dict", "default": {"min": -1.0, "max": 1.0, "count": 21},
                         "null": True, "keys": _AXIS_KEYS},
        "steps": {"kind": "int", "default": sw.SWEEP_STEPS, "bounds": (4, MAX_STEPS)},
    }},
    "cavity": {"kind": "dict", "keys": {
        "gate": {"kind": "str|dict", "null": True, "keys": {
            "theta": {"kind": "number", "bounds": (0.0, math.pi)},
            "phi": {"kind": "number", "default": 0.0, "bounds": (-MAX_ANGLE, MAX_ANGLE)},
        }, "choices": tuple(sorted(CAVITY_GATES))},
        # 5e-324 is the least positive float: the coupling must be > 0
        "g_total_mhz": {"kind": "number", "null": True, "bounds": (5e-324, math.inf),
                        "scale": _MHZ},
        "steps": {"kind": "int", "default": sw.PIPELINE_STEPS, "bounds": (4, MAX_STEPS)},
    }},
    "calibrate": {"kind": "dict", "keys": {
        "kind": {"kind": "str", "choices": ("rate_equation", "ramsey", "rabi", "chevron")},
        "trace_g": {"kind": "str", "default": None, "for": ("rate_equation",)},
        "trace_e": {"kind": "str", "default": None, "for": ("rate_equation",)},
        "trace_f": {"kind": "str", "default": None, "for": ("rate_equation",)},
        "trace": {"kind": "str", "default": None, "for": ("ramsey", "rabi")},
        "detrend_degree": {"kind": "int", "null": True, "bounds": (0, cal.MAX_DETREND_DEGREE),
                           "for": ("ramsey", "rabi")},
        "points": {"kind": "str", "default": None, "for": ("chevron",)},
    }},
}


def _walk(block: dict, table: dict, prefix: str, skip: str | None = None) -> dict:
    """``block`` checked against ``table``: every key of the table but
    ``skip`` -> its checked value, or its default when absent. ``prefix``
    is the block's key path and a dot, or "" at the top level."""
    for key in block:
        if key not in table:
            raise ConfigError(f"unknown key (valid here: {', '.join(sorted(table))})",
                              prefix + key)
    return {key: _entry(block, key, entry, prefix) for key, entry in table.items() if key != skip}


def _entry(block: dict, key: str, entry: dict, prefix: str):
    if key in block:
        return _value(block[key], entry, prefix + key)
    if "default" not in entry and not entry.get("null"):
        raise ConfigError("missing required key", prefix + key)
    return entry.get("default")


def _value(value, entry: dict, full: str):
    """One given config value checked against its entry: a number comes back
    as a finite float in SI units, a dict walked, a list item by item."""
    if value is None:
        if entry.get("null"):
            return entry.get("default")
        raise ConfigError("must not be null", full)
    kind = next((k for k in entry["kind"].split("|") if _KINDS[k](value)), None)
    if kind is None:
        expected = entry["kind"].replace("|", " or ")
        raise ConfigError(f"expected {expected}, got {type(value).__name__}", full)
    if kind == "dict":
        return _walk(value, entry["keys"], full + ".")
    if kind == "number":
        try:
            value = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            raise ConfigError("out of the float range", full) from None
        if not math.isfinite(value):
            raise ConfigError(f"must be finite, got {value}", full)
    lo, hi = entry.get("bounds", (None, None))
    size = len(value) if kind == "list" else value
    if lo is not None and not lo <= size <= hi:
        what = "length " if kind == "list" else ""
        raise ConfigError(f"{what}must be in [{lo:g}, {hi:g}], got {size}", full)
    if kind == "list":
        return [_value(item, entry["items"], full) for item in value]
    if "choices" in entry and value not in entry["choices"]:
        choices = ", ".join(map(str, entry["choices"]))
        raise ConfigError(f"unknown value {value!r} (valid: {choices})", full)
    return value * entry["scale"] if "scale" in entry else value


def _json_int(text: str) -> int:
    """A JSON integer, refused past the interpreter's digit limit."""
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config holds an integer of {len(text.lstrip('-'))} digits, more "
                          f"than the {sys.get_int_max_str_digits()} that are read") from None


def _load_config(path):
    """Parsed JSON object plus the sha256 of the raw file bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"), parse_int=_json_int)
    # ValueError: bad UTF-8 or JSON; RecursionError: arrays or objects nested
    # past the interpreter's limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"top level must be an object, got {type(cfg).__name__}")
    return cfg, hashlib.sha256(raw).hexdigest()


# ---- subcommand handlers ----

@dataclass(frozen=True)
class RunContext:
    """Resolved run-wide settings handed to every handler."""

    out_dir: str
    config_dir: str
    seed: int
    threads: int
    device: md.DeviceTable | None
    noise: md.NoiseModel
    device_name: str
    err: md.ControlError

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def data_path(self, rel: str) -> str:
        return rel if os.path.isabs(rel) else os.path.join(self.config_dir, rel)


def _gate(raw: dict, gate: dict, path: str):
    """(HolonomicParams, label, schedule) of a walked gate block: a library
    name or raw loop angles, not both; the envelope's total_ns / sigma_ns is
    checked on the ns values as given."""
    angles = [k for k in ("theta", "gamma", "phi") if k in raw]
    if gate["name"] is not None:
        if angles:
            raise ConfigError("give either a gate name or raw angles, not both",
                              f"{path}.{angles[0]}")
        params, label = QUBIT_GATES[gate["name"]], gate["name"]
    else:
        for key in ("theta", "gamma"):
            if gate[key] is None:
                raise ConfigError("missing required key", f"{path}.{key}")
        params = HolonomicParams(gate["theta"], gate["gamma"], gate["phi"])
        label = f"u1(theta={params.theta!r},gamma={params.gamma!r},phi={params.phi!r})"
    env = gate["envelope"]
    if env is not None and env["total_ns"] is not None:
        ratio = float(raw["envelope"]["total_ns"]) / float(raw["envelope"]["sigma_ns"])
        lo, hi = ENVELOPE_RATIO
        if not lo <= ratio <= hi:
            raise ConfigError(f"total_ns / sigma_ns = {ratio:.3g} is outside [{lo:g}, {hi:g}]",
                              f"{path}.envelope.total_ns")
    if env is not None:
        env = TruncatedGaussian(sigma=env["sigma_ns"], total=env["total_ns"])
    return params, label, synthesize_qubit_gate(params, qubit_half(env))


def _run_gate(raw, block, ctx: RunContext):
    params, label, schedule = _gate(raw, block, "gate")
    steps = block["steps"]
    u = schedule_unitary(schedule, ctx.err, steps)
    infid = synthesis_infidelity(u, params)
    payload = {
        "gate": label,
        "fidelity": 1.0 - infid,
        "infidelity": infid,
        "leakage_e": float(abs(u[1, 0]) ** 2 + abs(u[1, 2]) ** 2),
        "duration_ns": schedule.duration * 1e9,
        "steps": steps,
        "device": ctx.device_name,
        "epsilon": ctx.err.epsilon,
        "detuning_mhz": ctx.err.detuning / _MHZ,
    }
    if ctx.device is not None:
        res = tm.simulate_qpt(schedule, noise=ctx.noise, err=ctx.err, shots=None, steps=steps)
        chi_t = tm.reduced_target_chi(target_u1(params))
        payload["fidelity_att"] = tm.fidelity_att(res.chi_reduced, chi_t)
        payload["fidelity_unatt"] = tm.fidelity_unatt(res.chi_reduced, chi_t)
    write_json(ctx.path("gate_report.json"), payload)
    return ["gate_report.json"]


def _run_qpt(raw, block, ctx: RunContext):
    params, label, schedule = _gate(raw["gate"], block["gate"], "qpt.gate")
    shots, steps = block["shots"], block["steps"]
    res = tm.simulate_qpt(
        schedule, noise=ctx.noise, err=ctx.err, shots=shots, seed=ctx.seed,
        steps=steps, mle=block["mle"], project=block["project"],
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


def _rb_lengths(raw, block) -> tuple:
    """rb.lengths, of 3 distinct values, or 1 to rb.m_max, not both."""
    if block["lengths"] is None:
        return tuple(range(1, block["m_max"] + 1))
    if "m_max" in raw:
        raise ConfigError("give either lengths or m_max, not both", "rb.lengths")
    if len(set(block["lengths"])) < bm.MIN_DISTINCT_LENGTHS:
        raise ConfigError(f"need {bm.MIN_DISTINCT_LENGTHS} distinct lengths", "rb.lengths")
    return tuple(block["lengths"])


def _run_rb(raw, block, ctx: RunContext):
    result = bm.run_rb(bm.RbConfig(
        lengths=_rb_lengths(raw, block), k=block["k"], seed=ctx.seed,
        interleaved=block["interleaved"], noise=ctx.noise, err=ctx.err, steps=block["steps"],
    ))
    artifacts = ["rb_reference.csv", "rb_summary.json"]
    result.reference.to_csv(ctx.path("rb_reference.csv"))
    if result.interleaved is not None:
        result.interleaved.to_csv(ctx.path("rb_interleaved.csv"))
        artifacts.insert(1, "rb_interleaved.csv")
    result.to_json(ctx.path("rb_summary.json"))
    return artifacts


def _axis(spec: dict, path: str) -> np.ndarray:
    """The grid of a walked sweep axis, max not below min."""
    if spec["max"] < spec["min"]:
        raise ConfigError(f"max {spec['max']} is below min {spec['min']}", f"{path}.max")
    return np.linspace(spec["min"], spec["max"], spec["count"])


def _run_sweep(raw, block, ctx: RunContext):
    family, gate = block["family"], block["gate"]
    valid = sw.FAMILY_GATES[family]
    if gate not in valid:
        raise ConfigError(f"unknown gate {gate!r} for family {family!r} "
                          f"(valid: {', '.join(valid)})", "sweep.gate")
    grid = sw.crosstalk_sweep(
        family, gate, epsilons=_axis(block["epsilon"], "sweep.epsilon"),
        detunings=_MHZ * _axis(block["detuning_mhz"], "sweep.detuning_mhz"),
        steps=block["steps"], threads=ctx.threads,
    )
    grid.to_csv(ctx.path("sweep.csv"))
    grid.to_json(ctx.path("sweep.json"))
    return ["sweep.csv", "sweep.json"]


def _cavity_gate(raw, block, device: md.DeviceTable | None):
    """(gate, g_total) of a walked cavity block: the gate is null (the
    identity, which drives no coupling), a library name or raw angles, and
    its loop fits its ramps."""
    gate, g_total = block["gate"], block["g_total_mhz"]
    if gate is None and g_total is not None:
        raise ConfigError("the identity run (gate null) drives no coupling; drop the key or "
                          "give a gate", "cavity.g_total_mhz")
    if gate is None:
        return None, None
    gate = CAVITY_GATES[gate] if isinstance(gate, str) else (gate["theta"], gate["phi"])
    # a small theta's default coupling, or a large g_total, would fail
    # synthesis after the manifest is written
    try:
        sw.cavity_gate_schedule(*gate, g_total, device or md.paper_device())
    except OutOfRangeError as exc:
        if g_total is None:
            raise ConfigError(f"{gate[0]!r} is too small for the default coupling g1 / "
                              "sin(theta / 2): the loop cannot fit its ramps; give "
                              "cavity.g_total_mhz", "cavity.gate.theta") from exc
        raise ConfigError(f"{float(raw['g_total_mhz'])!r} is too large: the loop cannot fit "
                          "its ramps", "cavity.g_total_mhz") from exc
    return gate, g_total


def _run_cavity(raw, block, ctx: RunContext):
    gate, g_total = _cavity_gate(raw, block, ctx.device)
    result = sw.cavity_pipeline(
        gate, include_decoherence=ctx.device is not None, device=ctx.device,
        g_total=g_total, steps=block["steps"],
    )
    result.to_json(ctx.path("cavity.json"))
    result.chi.to_csv(ctx.path("cavity_chi.csv"))
    return ["cavity.json", "cavity_chi.csv"]


def _calibrate_keys(raw, block) -> None:
    """Refuse a calibrate block holding a data key its kind does not take,
    or lacking one that kind needs (each key it takes but a nullable one)."""
    table = SCHEMA["calibrate"]["keys"]
    taken = [k for k, e in table.items() if block["kind"] in e.get("for", (block["kind"],))]
    for key in raw:
        if key not in taken:
            raise ConfigError(f"unknown key (valid here: {', '.join(sorted(taken))})",
                              f"calibrate.{key}")
    for key in taken:
        if block[key] is None and not table[key].get("null"):
            raise ConfigError("missing required key", f"calibrate.{key}")


def _run_calibrate(raw, block, ctx: RunContext):
    _calibrate_keys(raw, block)
    kind = block["kind"]
    if kind == "rate_equation":
        fit = fit_rate_equation(*[cal.Trace.from_csv(ctx.data_path(block[key]))
                                  for key in ("trace_g", "trace_e", "trace_f")])
    elif kind == "chevron":
        offsets, omegas = cal.read_csv_columns(ctx.data_path(block["points"]),
                                               ("offset_rad_s", "omega_r_rad_s"))
        fit = fit_chevron([cal.ChevronPoint(offset=o, omega_r=w)
                           for o, w in zip(offsets.tolist(), omegas.tolist())])
    else:
        trace = cal.Trace.from_csv(ctx.data_path(block["trace"]),
                                   detrend_degree=block["detrend_degree"])
        fit = fit_ramsey(trace) if kind == "ramsey" else fit_rabi(trace)
    fit.to_json(ctx.path("fit.json"))
    return ["fit.json"]


#: subcommand -> (handler, help line)
_HANDLERS = {
    "gate": (_run_gate, "synthesize one gate, propagate it, report its fidelity"),
    "qpt": (_run_qpt, "full process tomography of one gate"),
    "rb": (_run_rb, "reference (and optionally interleaved) randomized benchmarking"),
    "sweep": (_run_sweep, "control-error robustness grid for one gate family"),
    "cavity": (_run_cavity, "encode/gate/decode pipeline on the storage-mode qubit"),
    "calibrate": (_run_calibrate, "fit a measured trace file"),
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
        raise ConfigError(f"unknown subcommand {subcommand!r} (valid: {', '.join(SUBCOMMANDS)})")
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ConfigError(f"must be >= 1, got {threads}", "--threads")
    _value(shots, SCHEMA["qpt"]["keys"]["shots"], "--shots")

    cfg, cfg_hash = _load_config(config_path)
    # another version's config may hold keys unknown here: refuse its version first
    _entry(cfg, "schema_version", SCHEMA["schema_version"], "")
    table = {key: e for key, e in SCHEMA.items() if key not in SUBCOMMANDS or key == subcommand}
    top = _walk(cfg, table, "", skip=subcommand)
    if seed is not None:
        _value(seed, SCHEMA["seed"], "--seed")
    if top["device"] != "none" and subcommand not in DEVICE_SUBCOMMANDS:
        raise ConfigError(f'{subcommand} applies no device; give "none" or drop the key',
                          "device")
    error = top["error"]
    err = md.ControlError(error["epsilon"], error["detuning_mhz"]) if error else md.NO_ERROR
    if err != md.NO_ERROR and subcommand not in ERROR_SUBCOMMANDS:
        raise ConfigError(f"{subcommand} applies no control error; drop the key", "error")
    device = md.paper_device() if top["device"] == "paper-device" else None

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output dir {out_dir}: {exc}") from exc
    ctx = RunContext(
        out_dir=str(out_dir),
        config_dir=os.path.dirname(os.path.abspath(config_path)),
        seed=top["seed"] if seed is None else seed,
        threads=threads,
        device=device,
        noise=md.NO_NOISE if device is None else device.q1_noise,
        device_name=top["device"],
        err=err,
    )

    manifest = {
        "status": "incomplete",
        "subcommand": subcommand,
        "config_sha256": cfg_hash,
        "seed": ctx.seed,
        "tool_version": __version__,
        "started_at_unix": time.time(),
    }
    write_json(ctx.path("manifest.json"), manifest)
    t0 = time.perf_counter()
    block = _entry(cfg, subcommand, SCHEMA[subcommand], "")
    if exact_measurement or shots is not None:  # the qpt flags override qpt.shots
        block["shots"] = None if exact_measurement else shots
    artifacts = _HANDLERS[subcommand][0](cfg[subcommand], block, ctx)
    manifest["status"] = "complete"
    manifest["wall_time_s"] = time.perf_counter() - t0
    manifest["artifacts"] = list(artifacts)
    write_json(ctx.path("manifest.json"), manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holosim", description="Pulse-level simulation of single-loop holonomic gates.")
    parser.add_argument("--version", action="version", version=f"holosim {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = subparsers.add_parser(name, help=_HANDLERS[name][1])
        # dests named after run()'s parameters, so main() hands them over as they are
        sp.add_argument("--config", dest="config_path", metavar="CONFIG", required=True,
                        help="JSON config file")
        sp.add_argument("--out", dest="out_dir", metavar="OUT", required=True,
                        help="output directory")
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
        return run(**vars(args))
    except HolosimError as exc:
        refused = isinstance(exc, (ConfigError, IoError))
        # escaped, so a control character in a path or a value reaches stderr as text
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"holosim: {'error' if refused else type(exc).__name__}: {text}", file=sys.stderr)
        return 2 if refused else 1


if __name__ == "__main__":
    sys.exit(main())
