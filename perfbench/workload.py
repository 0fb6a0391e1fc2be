"""One workload in one fresh interpreter: a closed loop of CLI studies.

Started by ``run.py`` with BLAS pinned to one thread. It imports the CLI,
then runs the pre-generated ops back to back from one client for the given
number of seconds, checks every op's outputs, and runs the workload's
accuracy probe after the timed loop. With ``--trace 1`` it first runs the
loop untraced for half the time, then runs the same ops again with the
span wrappers installed, and compares the two passes' result files.

Writes one JSON result file; ``run.py`` turns it into the metrics line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import holosim.cli as cli
from holosim import evolution

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks, probes, trace  # noqa: E402


def digest_dirs(outs: list) -> str:
    """sha256 over every result file of an op, ignoring ``manifest.json``
    (the only file that holds wall-clock data)."""
    h = hashlib.sha256()
    for k, out in enumerate(outs):
        for name in sorted(os.listdir(out)):
            if name == "manifest.json":
                continue
            h.update(f"{k}/{name}\0".encode())
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def _bytes(outs: list) -> int:
    return sum(os.path.getsize(os.path.join(out, name))
               for out in outs for name in os.listdir(out))


def run_studies(op: dict, outs: list, threads: int) -> None:
    """The op itself: each study is one CLI invocation with a cold cache."""
    for (subcommand, config), out in zip(op["studies"], outs):
        evolution.clear_cache()
        status = cli.run(subcommand, config, out, threads=threads)
        if status != 0:
            raise RuntimeError(f"holosim {subcommand} exited with {status}")


def run_op(workload: str, op: dict, out_root: str, threads: int, call=None) -> dict:
    """Run, time and check one op; a failure is recorded, never raised.

    ``call`` wraps the op (the tracer's root span); outputs land in fresh
    directories under ``out_root`` and are removed after the digest.
    """
    outs = [os.path.join(out_root, f"study{k}") for k in range(len(op["studies"]))]
    shutil.rmtree(out_root, ignore_errors=True)
    error = None
    t0 = time.perf_counter()
    try:
        if call is None:
            run_studies(op, outs, threads)
        else:
            call(lambda: run_studies(op, outs, threads))
    except Exception as exc:  # an op that fails is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if error is None:
        problems = checks.check_op(workload, op, outs)
        digest = digest_dirs(outs)
        size = _bytes(outs)
    else:
        problems, digest, size = [error], None, 0
    shutil.rmtree(out_root, ignore_errors=True)
    return {"id": op["id"], "wall_s": wall, "ok": not problems, "problems": problems,
            "digest": digest, "bytes_out": size}


def closed_loop(workload: str, ops: list, seconds: float, out_root: str, threads: int,
                order=None, call=None) -> tuple[list, float]:
    """Back-to-back ops until ``seconds`` have passed (or ``order`` is done).

    Ops cycle through the generated list; ``order`` replays a given id list.
    Returns the per-op records and the loop's wall time.
    """
    by_id = {op["id"]: op for op in ops}
    records = []
    t0 = time.perf_counter()
    i = 0
    while True:
        if order is None:
            if time.perf_counter() - t0 >= seconds:
                break
            op = ops[i % len(ops)]
        else:
            if i >= len(order):
                break
            op = by_id[order[i]]
        records.append(run_op(workload, op, out_root, threads, call))
        if call is not None:
            records[-1]["trace"] = call.rollup()
        i += 1
    return records, time.perf_counter() - t0


class _Traced:
    """Root-span caller that also rolls each op's spans up."""

    def __init__(self, recorder, threads: int):
        self.recorder = recorder
        self.threads = threads
        self.next_id = 0

    def __call__(self, func):
        self.next_id += 1
        return self.recorder.run_op(self.next_id, func)

    def rollup(self):
        return trace.rollup(self.recorder, self.threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="directory holding ops.json")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(args.inputs, "ops.json")) as fh:
        ops = json.load(fh)["ops"]
    out_root = os.path.join(args.inputs, "out")
    result = {"workload": args.workload, "trace": args.trace}

    loop_s = args.seconds / 2.0 if args.trace else args.seconds
    records, wall = closed_loop(args.workload, ops, loop_s, out_root, args.threads)
    result["ops"] = records
    result["loop_wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        recorder = trace.Recorder()
        installed = trace.install(recorder)
        result["missing_wrap_points"] = trace.missing_wrap_points(installed)
        try:
            traced, _ = closed_loop(
                args.workload, ops, 0.0, out_root, args.threads,
                order=[r["id"] for r in records], call=_Traced(recorder, args.threads))
        finally:
            trace.uninstall(installed)
        result["traced_ops"] = [{k: v for k, v in r.items() if k != "trace"} for r in traced]
        result["layers"] = trace.layer_metrics([r["trace"] for r in traced])
        result["span_self_s"] = {
            name: sum(r["trace"]["names"][name][1] for r in traced if name in r["trace"]["names"])
            for name in sorted({n for r in traced for n in r["trace"]["names"]})
        }
        recorder.save(os.path.join(args.inputs, "spans.npz"))

    evolution.clear_cache()
    result["probe"] = probes.run_probe(args.workload, os.path.join(args.inputs, "probe"),
                                       args.threads)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
