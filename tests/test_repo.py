"""
Repository-level contracts that no module test covers.

The README's library quick start runs as written, and the benchmark
tracer in perfbench/ still finds every from-import wrap point it expects,
so renaming a traced function fails here rather than in a traced run.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    infidelity = float(lines[0])
    fidelity, trace = (float(v) for v in lines[1].split())
    assert infidelity < 1e-10
    assert 0.99 < fidelity <= 1.0
    assert 0.9 < trace <= 1.0


def test_benchmark_tracer_finds_every_wrap_point():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import trace

    installed = trace.install(trace.Recorder())
    try:
        assert trace.missing_wrap_points(installed) == []
    finally:
        trace.uninstall(installed)
