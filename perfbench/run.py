"""holosim benchmark: one workload, one seed, one metrics line.

Usage, from the repository root::

    python3 perfbench/run.py --workload rb --seed 1 --seconds 24 --trace 0

Workloads (see BENCHMARK.json and perfbench/NOTES.md): rb, sweep, cavity,
fit. Inputs are drawn from ``--seed`` and written under ``.perfbench/``
before timing starts; the workload then runs as a closed loop in a fresh
interpreter with BLAS pinned to one thread. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced re-run
of the same ops. The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import envinfo, inputs, trace  # noqa: E402

#: fresh interpreters timed for setup_s (after one untimed warm-up)
SETUP_SAMPLES = 3
#: the workload process must finish well inside the 180 s run limit
WORKLOAD_TIMEOUT_S = 160
#: op_s.tail percentile: the highest one that leaves at least ten ops beyond
#: it at this commit's op count, fixed so both sides of a comparison read the
#: same rank. fit runs 75-125 ops per run, so p85. rb, sweep and cavity run
#: 7-19 ops, too few to resolve any percentile above the median: their tail
#: is reported at p50 and equals op_s.p50.
TAIL_RANK = {"rb": 50, "sweep": 50, "cavity": 50, "fit": 85}

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio", "accuracy_digits": "digits"}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in envinfo.THREAD_VARS:
        env[var] = "1"
    return env


def setup_times(env: dict, root: str) -> list:
    """Seconds from spawning a fresh interpreter to ``import holosim.cli`` done."""
    code = "import holosim.cli, time; print(repr(time.time()))"
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                              capture_output=True, text=True, timeout=60)
        if k:  # the first spawn only warms the file cache and bytecode
            samples.append(float(done.stdout.strip()) - t0)
    return samples


def run_workload(args, env: dict, root: str, work: str, threads: int) -> dict:
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(root, "perfbench", "workload.py"),
           "--workload", args.workload, "--inputs", work, "--seconds", str(args.seconds),
           "--threads", str(threads), "--trace", str(args.trace), "--result", result_path]
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        status = proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process exceeded {WORKLOAD_TIMEOUT_S} s")
    if status != 0:
        raise RuntimeError(f"workload process exited with {status}")
    with open(result_path) as fh:
        return json.load(fh)


def percentile(values: list, rank: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * rank / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(res: dict, setup: list, workload: str) -> tuple[dict, dict]:
    walls = [r["wall_s"] for r in res["ops"]]
    passed = sum(r["ok"] for r in res["ops"])
    rank = TAIL_RANK[workload]
    tail = percentile(walls, rank)
    values = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail,
        "ops_per_s": passed / res["loop_wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": passed / len(walls),
        "accuracy_digits": res["probe"]["accuracy_digits"],
    }
    info = {"tail_rank": rank, "ops": len(walls), "ops_beyond_tail": sum(w > tail for w in walls),
            "setup_samples_s": setup, "max_abs_deviation": res["probe"]["max_abs_deviation"]}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, info)


def repeat_problems(records: list) -> list:
    """An input that ran twice in one run must give the same result bytes."""
    seen: dict = {}
    out = []
    for r in records:
        if r["digest"] is None:
            continue
        if seen.setdefault(r["id"], r["digest"]) != r["digest"]:
            out.append(f"op {r['id']}: a repeat gave different result files")
    return out


def per_layer(res: dict) -> tuple[dict, dict, list]:
    """Layer metrics and the tracing overhead, plus integrity problems
    (traced result bytes that differ, wrap points not found)."""
    plain = {r["id"]: r["digest"] for r in res["ops"]}
    problems = [f"op {r['id']}: traced result files differ" for r in res["traced_ops"]
                if r["digest"] != plain[r["id"]]]
    problems += [f"wrap point not found: {name}" for name in res["missing_wrap_points"]]
    untraced = statistics.median(r["wall_s"] for r in res["ops"])
    traced = statistics.median(r["wall_s"] for r in res["traced_ops"])
    values = dict(res["layers"])
    values["trace.overhead_s"] = traced - untraced
    values["cli.bytes_out"] = statistics.fmean(r["bytes_out"] for r in res["ops"])
    metrics = {k: {"value": v, "unit": trace.unit_of(k)} for k, v in sorted(values.items())}
    total = sum(res["span_self_s"].values())
    shares = {k: v / total for k, v in sorted(res["span_self_s"].items(),
                                                key=lambda kv: -kv[1])[:12]} if total else {}
    info = {"untraced_op_s.p50": untraced, "traced_op_s.p50": traced,
            "traced_ops": len(res["traced_ops"]), "top_self_time_shares": shares}
    return metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="holosim benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "holosim", "cli.py")):
        print("perfbench: src/holosim not found; run from the repository root",
              file=sys.stderr)
        return 2
    threads = min(2, envinfo.nproc())
    env = child_env(root)
    work = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ops = inputs.generate(args.workload, args.seed, work)
        setup = [] if args.trace else setup_times(env, root)
        res = run_workload(args, env, root, work, threads)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = len(res["ops"])
    failed = attempted - sum(r["ok"] for r in res["ops"])
    # failed ops are the program's failures: counted, printed, never fatal.
    # ``correct`` is false only when the run's own outputs cannot be trusted.
    failures = [f"op {r['id']}: {p}" for r in res["ops"] for p in r["problems"]]
    integrity = repeat_problems(res["ops"])
    if args.trace:
        metrics, info, trace_problems = per_layer(res)
        integrity += trace_problems
        os.replace(os.path.join(work, "spans.npz"),
                   os.path.join(root, ".perfbench", f"spans-{args.workload}-{args.seed}.npz"))
    else:
        metrics, info = end_to_end(res, setup, args.workload)
    info.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "threads": threads, "distinct_ops": len(ops), "failed_op_ids":
                 [r["id"] for r in res["ops"] if not r["ok"]]})
    env_record = envinfo.record(root, env)
    with open(os.path.join(root, ".perfbench",
                           f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump({"env": env_record, "info": info, "metrics": metrics, "failures": failures,
                   "integrity": integrity, "ops": res["ops"]}, fh, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env_record, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for line in failures[:20]:
        print("failed " + line)
    for line in integrity:
        print("incorrect " + line)
    print(json.dumps({"correct": not integrity, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
