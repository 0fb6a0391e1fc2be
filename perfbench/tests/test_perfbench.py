"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import checks, inputs, trace, workload  # noqa: E402

#: spans each workload must record; a wrap point a refactor bypasses reads
#: zero here instead of silently zeroing a per-layer metric
EXERCISED = {
    "rb": ("benchmarking.run_rb", "benchmarking.random_sequence", "holonomic.find_recovery",
           "holonomic.target_u1", "holonomic.synthesize_qubit_gate",
           "benchmarking.least_squares", "benchmarking.survival_probability",
           "evolution.schedule_channel", "evolution.channel_superoperator",
           "operators.phase_aligned_distance", "pulses.normalize_to_area", "pulses.area",
           "model.qutrit_drive_hamiltonian", "cli.run"),
    "sweep": ("sweeps.crosstalk_sweep", "evolution.schedule_unitary",
              "evolution.propagate_unitary", "operators.expm_hermitian",
              "model.qutrit_drive_hamiltonian", "tomography.chi_of_unitary",
              "tomography.reduce_chi", "cli.run"),
    "cavity": ("sweeps.cavity_pipeline", "sweeps.calibrate_frame_phase",
               "holonomic.synthesize_cavity_gate", "holonomic.encode_swap_schedule",
               "evolution.schedule_channel", "evolution.channel_superoperator",
               "evolution.propagate_unitary", "model.six_level_cavity_hamiltonian",
               "tomography.extract_chi", "cli.run"),
    # fit ops run no Ramsey study (inputs.FIT_OP_KINDS); only the probe fits one
    "fit": ("calibration.fit_rate_equation", "calibration.fit_rabi", "calibration.fit_chevron", "calibration.least_squares", "calibration.expm",
            "tomography.simulate_qpt", "tomography.mle_density", "tomography.least_squares",
            "tomography.simulate_record", "evolution.schedule_channel",
            "evolution.channel_superoperator", "cli.run"),
}


def _one_op(name: str, tmp_path, seed: int = 3, count: int = 1):
    return inputs.generate(name, seed, str(tmp_path / f"in-{name}"), count=count)


@pytest.fixture
def recorder():
    rec = trace.Recorder()
    installed = trace.install(rec)
    yield rec, installed
    trace.uninstall(installed)


def test_every_from_import_wrap_point_is_installed(recorder):
    import holosim.evolution as ev

    _, installed = recorder
    assert trace.missing_wrap_points(installed) == []
    assert all(hasattr(h, "__wrapped__") for h, _ in ev.SPACES.values())


def test_uninstall_restores_every_binding():
    import holosim.benchmarking as bm
    import holosim.evolution as ev

    before = (bm.find_recovery, bm.least_squares, ev.SPACES["qutrit"][0])
    installed = trace.install(trace.Recorder())
    assert bm.find_recovery is not before[0]
    trace.uninstall(installed)
    assert (bm.find_recovery, bm.least_squares, ev.SPACES["qutrit"][0]) == before


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_wrap_points_record_calls_on_their_workload(name, tmp_path, recorder):
    rec, _ = recorder
    op = _one_op(name, tmp_path)[0]
    caller = workload._Traced(rec, threads=2)
    record = workload.run_op(name, op, str(tmp_path / "out"), 2, call=caller)
    assert record["ok"], record["problems"]
    calls = {span: row[0] for span, row in caller.rollup()["names"].items()}
    silent = [span for span in EXERCISED[name] if calls.get(span, 0) < 1]
    assert silent == []


def test_self_times_subtract_nested_and_pooled_children():
    cols = {
        "id": [0, 1, 2, 1 << 40, (1 << 40) + 1],
        "parent": [-1, 0, 0, 0, 0],
        "start": [0.0, 1.0, 3.0, 1.5, 6.0],
        "end": [10.0, 2.0, 4.0, 3.5, 7.0],
        "thread": [0, 0, 0, 1, 1],
    }
    cols = {k: np.array(v) for k, v in cols.items()}
    # children cover [1, 4] and [6, 7]: 4 s of the root's 10
    assert trace.self_times(cols).tolist() == [6.0, 1.0, 1.0, 2.0, 1.0]


def test_same_seed_gives_identical_result_digests(tmp_path):
    digests = []
    for k in range(2):
        ops = _one_op("fit", tmp_path / f"run{k}", seed=11, count=2)
        records, _ = workload.closed_loop("fit", ops, 0.0, str(tmp_path / f"out{k}"), 2,
                                          order=[0, 1])
        assert all(r["ok"] for r in records), [r["problems"] for r in records]
        digests.append([r["digest"] for r in records])
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[0][1]


def test_failed_op_is_counted_not_fatal(tmp_path):
    ops = _one_op("fit", tmp_path, seed=5, count=3)
    # op 1 cannot read its trace; op 2's outputs miss the values it was drawn from
    os.remove(os.path.join(os.path.dirname(ops[1]["studies"][0][1]), "pop_g.csv"))
    ops[2]["expect"]["fits"]["rabi"]["omega_r"] *= 1.5
    records, _ = workload.closed_loop("fit", ops, 0.0, str(tmp_path / "out"), 2,
                                      order=[0, 1, 2])
    assert [r["ok"] for r in records] == [True, False, False]
    assert "IoError" in records[1]["problems"][0]
    assert "rabi.omega_r" in records[2]["problems"][0]


def _rb_outputs(out, f_gate: float) -> None:
    """One rb op's result files: decays with the spread of k = 100 sequences."""
    os.makedirs(out)
    m = np.arange(1, 21)
    for name, p in (("rb_reference.csv", 0.992), ("rb_interleaved.csv", 0.986)):
        rows = ["m,mean,stddev,k"] + [f"{mi},{0.5 * p**mi + 0.5!r},0.003,100" for mi in m]
        with open(os.path.join(out, name), "w") as fh:
            fh.write("\n".join(rows) + "\n")
    summary = {"A": 0.5, "B": 0.5, "p": 0.992, "F_avg": 0.996, "F_gate": {"H": f_gate},
               "interleaved": {"A": 0.5, "B": 0.5, "p": 0.986, "gate": "H"}}
    with open(os.path.join(out, "rb_summary.json"), "w") as fh:
        json.dump(summary, fh)


@pytest.mark.parametrize("f_gate, ok", [(0.9970, True), (0.9997, True), (1.0010, True),
                                        (1.0040, False), (0.9870, False)])
def test_rb_check_allows_an_estimate_its_standard_error(tmp_path, f_gate, ok):
    # these records give F_gate a standard error of 0.0007: the band
    # [0.992, 0.9995] widens to [0.9891, 1.0024]
    out = str(tmp_path / "rb")
    _rb_outputs(out, f_gate)
    problems = []
    checks.check_rb(out, {"gate": "H"}, problems)
    assert (problems == []) is ok, problems


def _run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_short_runs_with_one_seed_agree(tmp_path):
    digests = []
    for _ in range(2):
        done = _run_benchmark(ROOT, "--workload", "fit", "--seed", "7", "--seconds", "1",
                              "--trace", "0")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {"setup_s", "op_s.p50", "op_s.tail", "ops_per_s",
                                          "peak_rss_mb", "pass_ratio", "accuracy_digits"}
        with open(os.path.join(ROOT, ".perfbench", "result-fit-7-0.json")) as fh:
            digests.append([op["digest"] for op in json.load(fh)["ops"]])
    n = min(len(d) for d in digests)
    assert n >= 1 and digests[0][:n] == digests[1][:n]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run_benchmark(str(tmp_path), "--workload", "rb", "--seed", "1", "--seconds", "1",
                          "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
