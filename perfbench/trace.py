"""Per-layer tracing from outside the package.

``install`` replaces every public function of the ``holosim`` modules, and
every name a module bound with ``from ... import`` (including scipy's
``least_squares`` and ``expm``), with a wrapper that records a span: name,
start, end, parent span, op id and thread. Spans stay in per-thread memory
buffers and are written out when the run ends. Nothing inside the package
changes, so traced result files must be byte-identical to untraced ones.

A span's self time is its duration minus the part of it covered by its
children. Sweep pool threads start with an empty stack; their spans attach
to the op's open ``sweeps.crosstalk_sweep`` span.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from array import array

import numpy as np

LAYERS = ("benchmarking", "calibration", "cli", "evolution", "holonomic", "model",
          "operators", "pulses", "sweeps", "tomography")

#: third-party functions a layer bound by name; spans are named after the caller
FOREIGN = (("benchmarking", "least_squares"), ("tomography", "least_squares"),
           ("calibration", "least_squares"), ("calibration", "expm"))

#: names a caller bound with ``from ... import``, looked up where the caller
#: looks them up. A refactor that rebinds one of these must update this list.
FROM_IMPORTS = {
    "benchmarking": ("schedule_channel", "random_sequence", "find_recovery", "target_u1",
                     "synthesize_qubit_gate", "least_squares"),
    "tomography": ("schedule_channel", "least_squares"),
    "cli": ("schedule_unitary", "fit_rate_equation", "fit_ramsey", "fit_rabi", "fit_chevron"),
    "evolution": ("expm_hermitian", "propagate_unitary", "channel_superoperator"),
    "holonomic": ("normalize_to_area", "phase_aligned_distance"),
    "calibration": ("expm", "least_squares"),
}

ROOT = "perfbench.op"
_SHIFT = 40  # span id = thread index << _SHIFT | index in that thread's buffer


def _grid_steps(pos: int):
    def count(args, kwargs, result):
        return (args[pos] if len(args) > pos else kwargs["grid"]).steps
    return count


def _stack_size(args, kwargs, result):
    h = np.asarray(args[0] if args else kwargs["h"])
    return int(np.prod(h.shape[:-2], dtype=np.int64))


def _points(args, kwargs, result):
    return int(np.size(args[2] if len(args) > 2 else kwargs.get("t", 0.0)))


HAMILTONIANS = ("model.qutrit_drive_hamiltonian", "model.cavity_effective_hamiltonian",
                "model.two_qubit_hamiltonian", "model.six_level_cavity_hamiltonian")


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _cells(args, kwargs, result):
    return int(result.fidelities.size)


#: per-span counters: span name -> f(args, kwargs, result) -> int
COUNTERS = {
    "evolution.channel_superoperator": _grid_steps(2),
    "evolution.propagate_unitary": _grid_steps(1),
    "operators.expm_hermitian": _stack_size,
    "sweeps.crosstalk_sweep": _cells,
    "benchmarking.least_squares": _nfev,
    "tomography.least_squares": _nfev,
    "calibration.least_squares": _nfev,
    **{name: _points for name in HAMILTONIANS},
}


class _Buffer:
    """One thread's spans, as parallel typed arrays."""

    def __init__(self, index: int):
        self.base = index << _SHIFT
        self.stack: list = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.error = array("b")
        self.done = 0  # spans already rolled up


class Recorder:
    """In-memory span store shared by all wrappers of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[_Buffer] = []
        self.op = -1
        self.adopt = -1  # span that pool threads with an empty stack attach to

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, func, name: str):
        nid = self.name_id(name)
        count = COUNTERS.get(name)
        adopts = name == "sweeps.crosstalk_sweep"
        rec, clock = self, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            buf = rec.buffer()
            stack = buf.stack
            idx = len(buf.name)
            sid = buf.base | idx
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else rec.adopt)
            buf.op.append(rec.op)
            buf.count.append(0)
            buf.error.append(0)
            buf.end.append(0.0)
            stack.append(sid)
            if adopts:
                prev, rec.adopt = rec.adopt, sid
            buf.start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                buf.error[idx] = 1
                raise
            finally:
                buf.end[idx] = clock()
                stack.pop()
                if adopts:
                    rec.adopt = prev
            if count is not None:
                buf.count[idx] = count(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, func):
        """Call ``func()`` inside the op's root span."""
        self.op = op_id
        try:
            return self.wrap(func, ROOT)()
        finally:
            self.op = -1

    def columns(self, new_only: bool = False) -> dict:
        """All spans (or those not yet rolled up) as numpy columns."""
        parts = []
        for tid, buf in enumerate(self.buffers):
            lo = buf.done if new_only else 0
            hi = len(buf.end)
            if new_only:
                buf.done = hi
            parts.append({
                "id": buf.base + np.arange(lo, hi, dtype=np.int64),
                "name": np.frombuffer(buf.name, dtype=np.int32)[lo:hi].copy(),
                "parent": np.frombuffer(buf.parent, dtype=np.int64)[lo:hi].copy(),
                "op": np.frombuffer(buf.op, dtype=np.int64)[lo:hi].copy(),
                "start": np.frombuffer(buf.start, dtype=np.float64)[lo:hi].copy(),
                "end": np.frombuffer(buf.end, dtype=np.float64)[lo:hi].copy(),
                "count": np.frombuffer(buf.count, dtype=np.int64)[lo:hi].copy(),
                "error": np.frombuffer(buf.error, dtype=np.int8)[lo:hi].copy(),
                "thread": np.full(hi - lo, tid, dtype=np.int32),
            })
        return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}

    def save(self, path: str) -> None:
        """Write every span (and the name table) to one compressed file."""
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def install(rec: Recorder) -> list:
    """Wrap every wrap point; returns ``(namespace, attribute, original)`` rows
    so ``uninstall`` can restore them."""
    mods = {name: importlib.import_module(f"holosim.{name}") for name in LAYERS}
    wrappers: dict[str, object] = {}
    installed = []

    def put(namespace, attr: str, func, name: str) -> None:
        # one wrapper per span name: every binding of a function shares it
        if name not in wrappers:
            wrappers[name] = rec.wrap(func, name)
        installed.append((namespace, attr, func))
        setattr(namespace, attr, wrappers[name])

    for module_name, attr in FOREIGN:
        put(mods[module_name], attr, getattr(mods[module_name], attr), f"{module_name}.{attr}")
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("holosim.")):
                continue
            put(mod, attr, value, f"{value.__module__.split('.', 1)[1]}.{value.__name__}")
    spaces = mods["evolution"].SPACES
    for key, (hamiltonian, dim) in list(spaces.items()):
        name = f"model.{hamiltonian.__name__}"
        if name not in wrappers:
            wrappers[name] = rec.wrap(hamiltonian, name)
        installed.append((spaces, key, (hamiltonian, dim)))
        spaces[key] = (wrappers[name], dim)
    return installed


def uninstall(installed: list) -> None:
    for namespace, attr, original in reversed(installed):
        if isinstance(namespace, dict):
            namespace[attr] = original
        else:
            setattr(namespace, attr, original)


def missing_wrap_points(installed: list) -> list:
    """Expected from-import wrap points that ``install`` did not find."""
    seen = {(getattr(ns, "__name__", ""), attr) for ns, attr, _ in installed}
    return [f"{mod}.{attr}" for mod, attrs in FROM_IMPORTS.items() for attr in attrs
            if (f"holosim.{mod}", attr) not in seen]


# ---- roll-up ----

def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in zip(starts[order], ends[order]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return float(total)


def self_times(cols: dict) -> np.ndarray:
    """Duration minus child coverage for every span in ``cols``.

    Children in one thread never overlap, so their coverage is the sum of
    their durations; only children spread over pool threads need a union.
    """
    dur = cols["end"] - cols["start"]
    order = np.argsort(cols["id"])
    ids = cols["id"][order]
    pos = np.searchsorted(ids, cols["parent"])
    has_parent = (pos < ids.size) & (ids[np.minimum(pos, ids.size - 1)] == cols["parent"])
    ppos = order[np.minimum(pos, ids.size - 1)]
    covered = np.bincount(ppos[has_parent], weights=dur[has_parent], minlength=dur.size)
    # parents whose children ran in more than one thread
    child_thread = cols["thread"][has_parent]
    parents = ppos[has_parent]
    cross = np.unique(parents[child_thread != cols["thread"][parents]])
    for p in cross:
        mask = has_parent & (ppos == p)
        covered[p] = _union_length(cols["start"][mask], cols["end"][mask])
    return dur - covered


def rollup(rec: Recorder, threads: int) -> dict:
    """Aggregate the spans recorded since the last roll-up (one op)."""
    cols = rec.columns(new_only=True)
    names = rec.names
    selft = self_times(cols)
    dur = cols["end"] - cols["start"]
    per_name: dict[str, list] = {}
    for nid in np.unique(cols["name"]):
        m = cols["name"] == nid
        per_name[names[nid]] = [int(m.sum()), float(selft[m].sum()), float(dur[m].sum()),
                                int(cols["count"][m].sum()), int(cols["error"][m].sum())]
    nid_of = {n: i for i, n in enumerate(names)}

    def of(name):
        return cols["name"] == nid_of.get(name, -1)

    recoveries = cols["id"][of("holonomic.find_recovery")]
    probes = int((of("operators.phase_aligned_distance")
                  & np.isin(cols["parent"], recoveries)).sum())

    # a schedule call that propagated nothing was served from the cache
    propagating = of("evolution.propagate_unitary") | of("evolution.channel_superoperator")
    spans_by_id = dict(zip(cols["id"].tolist(), cols["parent"].tolist()))
    busy_ancestors = set()
    for sid in cols["id"][propagating].tolist():
        p = spans_by_id.get(sid)
        while p is not None and p >= 0:
            busy_ancestors.add(p)
            p = spans_by_id.get(p)
    schedule = of("evolution.schedule_unitary") | of("evolution.schedule_channel")
    sched_ids = cols["id"][schedule].tolist()
    hits = sum(1 for sid in sched_ids if sid not in busy_ancestors)

    sweep_busy = sweep_capacity = 0.0
    for k in np.flatnonzero(of("sweeps.crosstalk_sweep")):
        kids = cols["parent"] == cols["id"][k]
        for tid in np.unique(cols["thread"][kids]):
            m = kids & (cols["thread"] == tid)
            sweep_busy += _union_length(cols["start"][m], cols["end"][m])
        sweep_capacity += dur[k] * threads
    return {"names": per_name, "probes": probes, "schedule_calls": len(sched_ids),
            "schedule_hits": hits, "sweep_busy": sweep_busy,
            "sweep_capacity": sweep_capacity, "spans": int(dur.size),
            "root_self": float(selft[of(ROOT)].sum())}


# ---- per-layer metrics ----

def _sum(ops: list, names, field: int) -> float:
    return sum(o["names"].get(n, [0, 0.0, 0.0, 0, 0])[field] for o in ops for n in names)


def _prefixed(ops: list, prefix: str) -> set:
    return {n for o in ops for n in o["names"] if n.startswith(prefix + ".")}


CALLS, SELF, INCL, COUNT, ERRORS = range(5)
SYNTH = ("holonomic.synthesize_qubit_gate", "holonomic.synthesize_cavity_gate",
         "holonomic.encode_swap_schedule")
CAL_FITS = ("calibration.fit_rate_equation", "calibration.fit_ramsey",
            "calibration.fit_rabi", "calibration.fit_chevron")

#: metric -> (field, span names) summed over spans and divided by ops
SIMPLE = {
    "benchmarking.sequence_s": (SELF, ("benchmarking.random_sequence",)),
    "benchmarking.sequences": (CALLS, ("benchmarking.random_sequence",)),
    "benchmarking.survival_s": (SELF, ("benchmarking.survival_probability",)),
    "benchmarking.fit_s": (SELF, ("benchmarking.fit_rb", "benchmarking.least_squares")),
    "benchmarking.fit_nfev": (COUNT, ("benchmarking.least_squares",)),
    "holonomic.recovery_s": (INCL, ("holonomic.find_recovery",)),
    "holonomic.recovery_calls": (CALLS, ("holonomic.find_recovery",)),
    "holonomic.target_calls": (CALLS, ("holonomic.target_u1",)),
    "holonomic.synth_s": (SELF, SYNTH),
    "holonomic.synth_calls": (CALLS, SYNTH),
    "pulses.area_s": (SELF, ("pulses.area", "pulses.normalize_to_area")),
    "pulses.area_calls": (CALLS, ("pulses.area",)),
    "evolution.channel_s": (SELF, ("evolution.channel_superoperator",)),
    "evolution.channel_steps": (COUNT, ("evolution.channel_superoperator",)),
    "evolution.unitary_s": (SELF, ("evolution.propagate_unitary",)),
    "evolution.unitary_steps": (COUNT, ("evolution.propagate_unitary",)),
    "evolution.schedule_calls": (CALLS, ("evolution.schedule_unitary",
                                         "evolution.schedule_channel")),
    "operators.expm_s": (SELF, ("operators.expm_hermitian",)),
    "operators.expm_calls": (CALLS, ("operators.expm_hermitian",)),
    "operators.expm_matrices": (COUNT, ("operators.expm_hermitian",)),
    "model.hamiltonian_s": (SELF, HAMILTONIANS),
    "model.hamiltonian_calls": (CALLS, HAMILTONIANS),
    "model.hamiltonian_points": (COUNT, HAMILTONIANS),
    "sweeps.cells": (COUNT, ("sweeps.crosstalk_sweep",)),
    "tomography.mle_s": (SELF, ("tomography.mle_density", "tomography.least_squares")),
    "tomography.mle_calls": (CALLS, ("tomography.mle_density",)),
    "tomography.mle_nfev": (COUNT, ("tomography.least_squares",)),
    "tomography.chi_s": (SELF, ("tomography.chi_of_unitary", "tomography.extract_chi",
                                "tomography.reduce_chi")),
    "tomography.record_s": (SELF, ("tomography.simulate_record", "tomography.expectation")),
    "calibration.fits": (CALLS, CAL_FITS),
    "calibration.nfev": (COUNT, ("calibration.least_squares",)),
    "calibration.expm_calls": (CALLS, ("calibration.expm",)),
}

UNITS = {"_s": "s", "_ratio": "ratio", "efficiency": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count" if metric != "cli.bytes_out" else "bytes"


def layer_metrics(ops: list) -> dict:
    """Per-op averages of every per-layer metric over the traced ops."""
    n = max(len(ops), 1)
    out = {name: _sum(ops, names, field) / n for name, (field, names) in SIMPLE.items()}
    out["holonomic.recovery_probes"] = sum(o["probes"] for o in ops) / n
    calls = sum(o["schedule_calls"] for o in ops)
    out["evolution.cache_hit_ratio"] = (sum(o["schedule_hits"] for o in ops) / calls
                                        if calls else 0.0)
    capacity = sum(o["sweep_capacity"] for o in ops)
    out["sweeps.pool_efficiency"] = (sum(o["sweep_busy"] for o in ops) / capacity
                                     if capacity else 0.0)
    for layer in LAYERS:
        names = _prefixed(ops, layer)
        out[f"{layer}.self_s"] = _sum(ops, names, SELF) / n
        out[f"{layer}.errors"] = _sum(ops, names, ERRORS) / n
    out["calibration.fit_s"] = out["calibration.self_s"]
    out["cli.self_s"] += sum(o["root_self"] for o in ops) / n
    return out
