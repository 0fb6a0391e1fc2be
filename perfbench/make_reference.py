"""Compute ``reference.json``: every probe at a fine step budget, run once.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

The file records the step budgets and the commit the values came from.
Re-run it only when a probe's definition changes, never to absorb a change
in the program's accuracy.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import envinfo, probes  # noqa: E402

#: (default step budget of the CLI study, reference step budget)
STEPS = {"rb": (512, 4096), "sweep": (1024, 16384), "cavity": (2048, 8192),
         "fit": (1024, 8192)}


def main() -> int:
    out = {"commit": envinfo.git_commit("."), "workloads": {}}
    for workload, (default, fine) in STEPS.items():
        with tempfile.TemporaryDirectory(dir=".") as root:
            studies = probes.write_probe(workload, root, steps=fine)
            vals = probes.collect(workload, studies, root, threads=1)
        if workload == "fit":
            vals.update({f"{kind}.{key}": value
                         for kind, truth in probes.fit_truth().items()
                         for key, value in truth.items()})
        out["workloads"][workload] = {
            "steps": {"probe": default, "reference": fine},
            "studies": [[sub, block, device] for sub, block, device in probes.PROBES[workload]],
            "values": vals,
        }
        print(workload, len(vals), "values", flush=True)
    with open(probes.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
