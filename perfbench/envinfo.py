"""Environment record printed with every run."""

from __future__ import annotations

import hashlib
import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: str) -> str | None:
    """HEAD of ``root``'s own ``.git`` directory, read without running git
    (a benchmark checkout need not be a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: str) -> str:
    """Digest of the package sources, which identifies a non-git checkout."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "holosim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record(root: str, env: dict) -> dict:
    """Versions, CPU, and the thread settings ``env`` gives the workload."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(root),
    }
