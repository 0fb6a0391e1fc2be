"""Seeded inputs for the four workloads.

Everything the program receives is drawn here from the run's seed and
written to disk before timing starts: one JSON config per CLI study and,
for the ``fit`` workload, the measured-trace CSVs the calibration studies
read. The generator deliberately does not import ``holosim``, so a change
to the program can never change its own inputs.

An op is a list of ``(subcommand, config_path)`` studies; each op also
carries the values the benchmark checks its outputs against (drawn gate,
generating fit parameters).

Continuous inputs that set an op's cost (gate angles, grid spans, decay
rates) come from a scrambled Sobol sequence seeded by the run's seed, and
categorical ones (RB gate, sweep family) cycle from a seeded offset. Each
op's draw is still uniform over the same ranges, but every run covers those
ranges evenly, so a run's median and tail describe the workload rather than
the luck of its seed. Nothing is filtered: gates whose MLE takes ten
thousand evaluations stay in.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.linalg import expm

TWO_PI = 2.0 * math.pi

#: Clifford members of the CLI's named gate table. Interleaved RB is defined
#: only for Cliffords; "T" passes config validation but is not one. Z_pi is
#: left out: about 1 Z_pi op in 100 estimates p_gate above p_ref, and run_rb
#: then raises RatioOutOfRangeError (perfbench/NOTES.md, "Defects found").
RB_GATES = ("X_pi", "X_pi_2", "H", "Y_pi")
SWEEP_CASES = (("holonomic", "H"), ("holonomic", "T"), ("dynamic", "H"), ("dynamic", "T"))
CALIBRATION_KINDS = ("rate_equation", "ramsey", "rabi", "chevron")
#: calibrate studies of a timed fit op. Ramsey is left out while fit_ramsey
#: locks onto a spurious tone for about 1 acceptance-style draw in 4000
#: (perfbench/NOTES.md, "Defects found"); the fit probe still fits one.
FIT_OP_KINDS = ("rate_equation", "rabi", "chevron")
GRID_COUNT = 21

#: distinct ops written per run, above what one run executes at this commit
#: (a power of two, so a prefix of the Sobol design stays balanced); the
#: closed loop cycles through them only once a run gets that fast
OPS_PER_RUN = {"rb": 64, "sweep": 64, "cavity": 64, "fit": 128}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path: str, times, values) -> None:
    lines = ["time_s,value"]
    lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(times, values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _config(path: str, subcommand: str, block: dict, device="none", seed=0) -> str:
    _write_json(path, {"schema_version": 1, "seed": seed, "device": device,
                       subcommand: block})
    return path


def rb_op(rng, u, turn: int, d: str) -> dict:
    gate = RB_GATES[turn % len(RB_GATES)]
    seed = int(rng.integers(0, 2**31 - 1))
    cfg = _config(os.path.join(d, "rb.json"), "rb",
                  {"m_max": 20, "k": 100, "interleaved": gate},
                  device="paper-device", seed=seed)
    return {"studies": [["rb", cfg]], "expect": {"gate": gate}}


def sweep_op(rng, u, turn: int, d: str) -> dict:
    family, gate = SWEEP_CASES[turn % len(SWEEP_CASES)]
    eps = 0.05 + 0.15 * float(u[0])
    det = 0.5 + 1.5 * float(u[1])
    block = {
        "family": family,
        "gate": gate,
        "epsilon": {"min": -eps, "max": eps, "count": GRID_COUNT},
        "detuning_mhz": {"min": -det, "max": det, "count": GRID_COUNT},
    }
    cfg = _config(os.path.join(d, "sweep.json"), "sweep", block)
    return {"studies": [["sweep", cfg]],
            "expect": {"family": family, "gate": gate, "cells": GRID_COUNT**2}}


def cavity_op(rng, u, turn: int, d: str) -> dict:
    theta = math.pi / 4.0 + (math.pi / 2.0) * float(u[0])
    phi = TWO_PI * float(u[1])
    cfg = _config(os.path.join(d, "cavity.json"), "cavity",
                  {"gate": {"theta": theta, "phi": phi}}, device="paper-device")
    return {"studies": [["cavity", cfg]], "expect": {"theta": theta, "phi": phi}}


def rate_matrix(g_eg: float, g_fe: float, g_fg: float) -> np.ndarray:
    """dp/dt = G p for p = (P_g, P_e, P_f): the g-e-f decay cascade."""
    return np.array([[0.0, g_eg, g_fg],
                     [0.0, -g_eg, g_fe],
                     [0.0, 0.0, -(g_fe + g_fg)]])


def calibration_traces(rng, u=None) -> dict:
    """One draw of each calibration family, distributed as the release
    acceptance round trips draw them (device values, randomized). ``u``
    optionally supplies the three decay-rate draws as unit-interval values."""
    out = {}
    if u is None:
        u = rng.uniform(0.0, 1.0, 3)
    g_eg = (1.0 / 45.6e-6) * (0.7 + 0.6 * float(u[0]))
    g_fe = (1.0 / 20.3e-6) * (0.7 + 0.6 * float(u[1]))
    g_fg = g_fe * 0.15 * float(u[2])
    times = np.linspace(0.0, 120e-6, 80)
    g = rate_matrix(g_eg, g_fe, g_fg)
    pops = np.stack([expm(g * t) @ np.array([0.0, 0.0, 1.0]) for t in times], axis=1)
    out["rate_equation"] = {"times": times, "pops": pops,
                            "truth": {"gamma_eg": g_eg, "gamma_fe": g_fe,
                                      "gamma_fg": g_fg}}

    t2 = rng.uniform(15e-6, 60e-6)
    f1 = rng.uniform(0.08e6, 0.15e6)
    f2 = f1 + rng.uniform(0.08e6, 0.2e6)
    times = np.linspace(0.0, 60e-6, 300)
    vals = 0.5 + np.exp(-times / t2) * (
        rng.uniform(0.15, 0.3) * np.cos(TWO_PI * f1 * times + rng.uniform(-2, 2))
        + rng.uniform(0.15, 0.3) * np.cos(TWO_PI * f2 * times + rng.uniform(-2, 2))
    )
    out["ramsey"] = {"times": times, "values": vals, "truth": {"t2_star": t2}}

    omega = TWO_PI * rng.uniform(0.5e6, 3.0e6)
    decay = rng.uniform(0.0, 0.2e6)
    times = np.linspace(0.0, 3.0e-6, 240)
    vals = 0.5 - 0.5 * np.cos(omega * times) * np.exp(-decay * times)
    out["rabi"] = {"times": times, "values": vals, "truth": {"omega_r": omega}}

    g = TWO_PI * 0.845e6 * rng.uniform(0.7, 1.3)
    center = TWO_PI * rng.uniform(-0.3e6, 0.3e6)
    offsets = (center + TWO_PI * 1e6 * np.linspace(-2.0, 2.0, 15)
               + TWO_PI * rng.uniform(-0.05e6, 0.05e6, 15))
    omegas = np.sqrt((offsets - center) ** 2 + (2.0 * g) ** 2)
    out["chevron"] = {"offsets": offsets, "omegas": omegas,
                      "truth": {"g": g, "center": center}}
    return out


def write_calibration_studies(traces: dict, d: str, kinds=CALIBRATION_KINDS) -> list:
    """Trace CSVs plus one calibrate config per family in ``kinds``, in order."""
    studies = []
    for kind in kinds:
        if kind == "rate_equation":
            rate = traces[kind]
            block = {"kind": kind}
            for i, level in enumerate("gef"):
                name = f"pop_{level}.csv"
                _write_trace(os.path.join(d, name), rate["times"], rate["pops"][i])
                block[f"trace_{level}"] = name
        elif kind == "chevron":
            chev = traces[kind]
            lines = ["offset_rad_s,omega_r_rad_s"]
            lines += [f"{float(o)!r},{float(w)!r}"
                      for o, w in zip(chev["offsets"], chev["omegas"])]
            with open(os.path.join(d, "chevron.csv"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
            block = {"kind": kind, "points": "chevron.csv"}
        else:
            name = f"{kind}.csv"
            _write_trace(os.path.join(d, name), traces[kind]["times"], traces[kind]["values"])
            block = {"kind": kind, "trace": name}
        config = "rate.json" if kind == "rate_equation" else f"{kind}.json"
        studies.append(["calibrate", _config(os.path.join(d, config), "calibrate", block)])
    return studies


def fit_op(rng, u, turn: int, d: str) -> dict:
    traces = calibration_traces(rng, u[3:6])
    studies = write_calibration_studies(traces, d, FIT_OP_KINDS)
    gate = {"theta": math.pi * float(u[0]),
            "gamma": TWO_PI * float(u[1]),
            "phi": TWO_PI * float(u[2])}
    studies.append(["qpt", _config(os.path.join(d, "qpt.json"), "qpt",
                                   {"gate": gate, "shots": None, "mle": True},
                                   device="paper-device")])
    truth = {kind: traces[kind]["truth"] for kind in FIT_OP_KINDS}
    return {"studies": studies, "expect": {"fits": truth, "gate": gate}}


#: op maker and the number of Sobol dimensions it reads
OP_MAKERS = {"rb": (rb_op, 1), "sweep": (sweep_op, 2), "cavity": (cavity_op, 2),
               "fit": (fit_op, 6)}
WORKLOADS = tuple(OP_MAKERS)


def generate(workload: str, seed: int, root: str, count: int | None = None) -> list:
    """Write ``count`` ops for ``workload`` under ``root``; return their specs.

    Op i reads Sobol point i and its own stream ``[seed, i]``, so it is the
    same whatever ``count`` is.
    """
    from scipy.stats import qmc  # only the generating process needs it

    make_op, dims = OP_MAKERS[workload]
    count = OPS_PER_RUN[workload] if count is None else count
    sobol = qmc.Sobol(dims, scramble=True, rng=np.random.default_rng([seed, 0x50B]))
    design = sobol.random_base2(max(count - 1, 1).bit_length())[:count]
    offset = int(np.random.default_rng([seed, 0x0FF]).integers(0, 1 << 16))
    ops = []
    for i in range(count):
        d = os.path.join(root, f"op{i:03d}")
        os.makedirs(d, exist_ok=True)
        op = make_op(np.random.default_rng([seed, i]), design[i], offset + i, d)
        op["id"] = i
        ops.append(op)
    _write_json(os.path.join(root, "ops.json"), {"workload": workload, "seed": seed,
                                                 "ops": ops})
    return ops
