"""
Repository-level contracts that no module test covers.

The README's library quick start runs as written, the benchmark tracer in
perfbench/ still finds every from-import wrap point it expects, so renaming
a traced function fails here rather than in a traced run, and no package
module keeps an import it never uses.
"""

import ast
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


def test_every_imported_name_is_used():
    # an import kept only for perfbench/trace.py to wrap carries "# noqa: F401"
    unused = []
    for path in sorted((ROOT / "src" / "holosim").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []
