"""Accuracy probes: one fixed study per workload against a fine-step reference.

Each run repeats its workload's probe at the CLI's default step budget,
outside the timed loop, and compares the probe's headline numbers
(fidelities, reduced process-matrix entries, fitted parameters) with values
stored in ``reference.json``. ``accuracy_digits`` is -log10 of the largest
absolute deviation. The reference was computed once by ``make_reference.py``
with the same studies at a much finer step budget. The fit probe's
calibration studies have no step budget: their reference is the parameters
that generated the probe's noise-free traces.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from perfbench import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

#: fixed probe studies: subcommand, config block (without steps), device
PROBES = {
    "rb": [("rb", {"m_max": 20, "k": 20, "interleaved": "H"}, "paper-device")],
    "sweep": [("sweep", {"family": "holonomic", "gate": "H",
                         "epsilon": {"min": -0.1, "max": 0.1, "count": 5},
                         "detuning_mhz": {"min": -1.0, "max": 1.0, "count": 5}}, "none")],
    "cavity": [("cavity", {"gate": "X_pi"}, "paper-device")],
    "fit": [("qpt", {"gate": {"theta": 1.0, "gamma": 2.0, "phi": 0.5},
                     "shots": None, "mle": True}, "paper-device")],
}
#: a probe that matches its reference exactly reads as double precision
DEVIATION_FLOOR = 1e-17
#: the fit probe also fits one fixed, noise-free draw of each calibration trace
FIT_PROBE_TRACES_SEED = 20180420


def _read_csv_column(path: str, column: str) -> list:
    with open(path) as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _headline(workload: str, out: str) -> dict:
    """The numbers a user reads off one probe study."""
    def load(name):
        with open(os.path.join(out, name)) as fh:
            return json.load(fh)

    if workload == "rb":
        s = load("rb_summary.json")
        vals = {"F_avg": s["F_avg"], "F_gate": s["F_gate"]["H"]}
        for name in ("rb_reference.csv", "rb_interleaved.csv"):
            for m, mean in enumerate(_read_csv_column(os.path.join(out, name), "mean"), 1):
                vals[f"{name[:-4]}.mean.{m}"] = mean
        return vals
    if workload == "sweep":
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = [line.rstrip("\n").split(",")[1:] for line in fh][1:]
        return {f"fidelity.{i}.{j}": float(v) for i, row in enumerate(rows)
                for j, v in enumerate(row)}
    if workload == "cavity":
        s = load("cavity.json")
        vals = {"fidelity_att": s["fidelity_att"], "fidelity_unatt": s["fidelity_unatt"]}
        for part in ("chi_real", "chi_imag"):
            for i, row in enumerate(s[part]):
                for j, v in enumerate(row):
                    vals[f"{part}.{i}.{j}"] = v
        return vals
    s = load("qpt_summary.json")
    vals = {"fidelity_att": s["fidelity_att"], "fidelity_unatt": s["fidelity_unatt"]}
    with open(os.path.join(out, "chi_reduced.csv")) as fh:
        for row in csv.DictReader(fh):
            for part in ("real", "imag"):
                vals[f"chi_reduced.{row['m']}.{row['n']}.{part}"] = float(row[part])
    return vals


def write_probe(workload: str, root: str, steps: int | None = None) -> list:
    """Write the probe's configs under ``root``; returns the study list.

    ``steps`` overrides the CLI default (only the reference does that).
    """
    os.makedirs(root, exist_ok=True)
    studies = []
    for k, (sub, block, device) in enumerate(PROBES[workload]):
        block = dict(block)
        if steps is not None:
            block["steps"] = steps
        path = os.path.join(root, f"probe{k}.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "seed": 0, "device": device, sub: block}, fh,
                      indent=2, sort_keys=True)
        studies.append([sub, path])
    if workload == "fit":
        traces = inputs.calibration_traces(np.random.default_rng(FIT_PROBE_TRACES_SEED))
        studies = inputs.write_calibration_studies(traces, root) + studies
    return studies


def fit_truth() -> dict:
    """Parameters that generated the fit probe's calibration traces."""
    traces = inputs.calibration_traces(np.random.default_rng(FIT_PROBE_TRACES_SEED))
    return {kind: traces[kind]["truth"] for kind in inputs.CALIBRATION_KINDS}


def collect(workload: str, studies: list, root: str, threads: int) -> dict:
    """Run the probe studies through the CLI; return their headline numbers."""
    import holosim.cli as cli
    from holosim import evolution

    vals = {}
    for k, (sub, config) in enumerate(studies):
        out = os.path.join(root, f"out{k}")
        evolution.clear_cache()
        status = cli.run(sub, config, out, threads=threads)
        if status != 0:
            raise RuntimeError(f"probe study {sub} exited with {status}")
        if sub == "calibrate":
            with open(os.path.join(out, "fit.json")) as fh:
                fit = json.load(fh)
            with open(config) as fh:
                kind = json.load(fh)["calibrate"]["kind"]
            vals.update({f"{kind}.{key}": fit[key] for key in fit_truth()[kind]})
        else:
            vals.update(_headline(workload, out))
    return vals


def deviation(vals: dict, reference: dict) -> float:
    """Largest absolute deviation from the reference.

    Fitted physical parameters (keys ``<calibration kind>.<parameter>``) are
    first divided by the largest generating parameter of their fit, so a
    near-zero parameter is held to the scale of its fit, as the output checks
    hold it.
    """
    if set(vals) != set(reference):
        raise ValueError(f"probe headline keys changed: {sorted(set(vals) ^ set(reference))}")
    scale = {}
    for key, ref in reference.items():
        kind = key.split(".")[0]
        if kind in inputs.CALIBRATION_KINDS:
            scale[kind] = max(scale.get(kind, 0.0), abs(ref))
    return max(abs(vals[key] - ref) / scale.get(key.split(".")[0], 1.0)
               for key, ref in reference.items())


def run_probe(workload: str, root: str, threads: int) -> dict:
    """Default-step probe against the stored reference."""
    with open(REFERENCE) as fh:
        reference = json.load(fh)["workloads"][workload]["values"]
    vals = collect(workload, write_probe(workload, root), root, threads)
    dev = deviation(vals, reference)
    return {"max_abs_deviation": dev,
            "accuracy_digits": -math.log10(max(dev, DEVIATION_FLOOR))}
