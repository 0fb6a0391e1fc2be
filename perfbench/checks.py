"""Output checks: every op's artifacts must exist and sit in their physical band.

A check returns a list of problems; an empty list means the op passed. The
bands are the release-acceptance bands of the paper's figures where one
exists (RB fidelities, 2% calibration round trips) and plain physical
limits otherwise (fidelities in [0, 1], Hermitian process matrices). RB
fidelities are estimates from random sequences, so each op's estimate may
sit outside the band by a few of its own standard errors.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from perfbench.inputs import FIT_OP_KINDS

RB_F_AVG = (0.992, 0.999)
RB_F_GATE = (0.992, 0.9995)
CAVITY_F_ATT = (0.90, 0.99)
CAVITY_F_UNATT = (0.99, 1.0 + 1e-9)
QPT_F_UNATT = (0.90, 1.0 + 1e-9)
FIT_REL_TOL = 0.02
#: standard errors an RB estimate may sit outside its band. With k = 100
#: sequences per length the estimates spread by 0.0008-0.0014 from RB seed
#: to RB seed, which puts F_gate's top edge (0.9995) about 2 sd above the
#: mean of a good gate: a plain band check fails about 1 correct op in 80.
RB_SIGMAS = 4.0


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _in(value, band, name: str, problems: list) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and band[0] <= value <= band[1]):
        problems.append(f"{name} = {value!r} outside [{band[0]}, {band[1]}]")


def _manifest(out: str, problems: list) -> None:
    """The run finished and every artifact it lists is on disk."""
    path = os.path.join(out, "manifest.json")
    if not os.path.exists(path):
        problems.append(f"missing {path}")
        return
    manifest = _load(path)
    if manifest.get("status") != "complete":
        problems.append(f"{path}: status {manifest.get('status')!r}")
    for name in manifest.get("artifacts", []):
        if not os.path.exists(os.path.join(out, name)):
            problems.append(f"missing artifact {name} in {out}")
    if not manifest.get("artifacts"):
        problems.append(f"{path}: no artifacts listed")


def _decay_se(path: str, a: float, p: float, b: float) -> float:
    """Standard error of the fitted decay constant of ``A p^m + B``, from the
    record's per-length standard errors of the mean (linearized fit)."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    m = np.array([float(r["m"]) for r in rows])
    se = np.array([float(r["stddev"]) / math.sqrt(float(r["k"])) for r in rows])
    jac = np.stack([p**m, a * m * p ** (m - 1), np.ones_like(m)], axis=1) / se[:, None]
    return math.sqrt(np.linalg.inv(jac.T @ jac)[1, 1])


def _widen(band: tuple, se: float) -> tuple:
    return (band[0] - RB_SIGMAS * se, band[1] + RB_SIGMAS * se)


def check_rb(out: str, expect: dict, problems: list) -> None:
    summary = _load(os.path.join(out, "rb_summary.json"))
    inter = summary["interleaved"]
    p_ref, p_gate = summary["p"], inter["p"]
    se_ref = _decay_se(os.path.join(out, "rb_reference.csv"), summary["A"], p_ref, summary["B"])
    se_gate = _decay_se(os.path.join(out, "rb_interleaved.csv"), inter["A"], p_gate, inter["B"])
    # F_avg = 1 - (1 - p_ref)/2 and F_gate = 1 - (1 - p_gate/p_ref)/2
    se_avg = se_ref / 2.0
    se_f_gate = 0.5 * (p_gate / p_ref) * math.hypot(se_gate / p_gate, se_ref / p_ref)
    _in(summary["F_avg"], _widen(RB_F_AVG, se_avg), "F_avg", problems)
    _in(summary["F_gate"].get(expect["gate"]), _widen(RB_F_GATE, se_f_gate), "F_gate",
        problems)
    _in(p_ref, (0.0, 1.0), "p", problems)
    with open(os.path.join(out, "rb_reference.csv")) as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["m"]) for r in rows] != list(range(1, 21)):
        problems.append("rb_reference.csv does not hold m = 1..20")


def check_sweep(out: str, expect: dict, problems: list) -> None:
    meta = _load(os.path.join(out, "sweep.json"))
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    grid = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    if grid.shape != (21, 21) or grid.size != expect["cells"]:
        problems.append(f"sweep grid shape {grid.shape}")
        return
    if not (np.all(np.isfinite(grid)) and grid.min() >= 0.0 and grid.max() <= 1.0 + 1e-9):
        problems.append("sweep fidelity outside [0, 1]")
    # the zero-error cell is the ideal gate
    _in(float(grid[10, 10]), (1.0 - 1e-5, 1.0 + 1e-9), "fidelity at zero error", problems)
    if abs(meta["mean_fidelity"] - float(np.mean(grid))) > 1e-12:
        problems.append("sweep.json mean disagrees with sweep.csv")
    if (meta["family"], meta["gate"]) != (expect["family"], expect["gate"]):
        problems.append("sweep.json names another gate")


def check_cavity(out: str, expect: dict, problems: list) -> None:
    res = _load(os.path.join(out, "cavity.json"))
    _in(res["fidelity_att"], CAVITY_F_ATT, "fidelity_att", problems)
    _in(res["fidelity_unatt"], CAVITY_F_UNATT, "fidelity_unatt", problems)
    chi = np.array(res["chi_real"]) + 1j * np.array(res["chi_imag"])
    if chi.shape != (4, 4) or np.max(np.abs(chi - chi.conj().T)) > 1e-8:
        problems.append("cavity chi is not a Hermitian 4x4 matrix")


def check_calibrate(out: str, kind: str, truth: dict, problems: list) -> None:
    fit = _load(os.path.join(out, "fit.json"))
    dominant = max(abs(v) for v in truth.values())
    for key, value in truth.items():
        # near-zero true values (direct g-f decay, chevron center) are held
        # to 2% of the dominant parameter, as in the release round trips
        scale = dominant if key in ("gamma_fg", "center") else abs(value)
        if not abs(fit[key] - value) <= FIT_REL_TOL * scale:
            problems.append(f"{kind}.{key} = {fit[key]!r}, generated {value!r}")


def check_qpt(out: str, problems: list) -> None:
    summary = _load(os.path.join(out, "qpt_summary.json"))
    _in(summary["fidelity_unatt"], QPT_F_UNATT, "qpt fidelity_unatt", problems)
    _in(summary["fidelity_att"], (0.0, 1.0 + 1e-9), "qpt fidelity_att", problems)
    _in(summary["chi_reduced_trace"], (0.0, 1.0 + 1e-6), "chi_reduced_trace", problems)


def check_op(workload: str, op: dict, outs: list) -> list:
    """Problems with one op's outputs (``outs`` follows ``op["studies"]``)."""
    problems: list = []
    for out in outs:
        _manifest(out, problems)
    if problems:
        return problems
    expect = op["expect"]
    try:
        if workload == "rb":
            check_rb(outs[0], expect, problems)
        elif workload == "sweep":
            check_sweep(outs[0], expect, problems)
        elif workload == "cavity":
            check_cavity(outs[0], expect, problems)
        else:
            for out, kind in zip(outs, FIT_OP_KINDS):
                check_calibrate(out, kind, expect["fits"][kind], problems)
            check_qpt(outs[-1], problems)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
