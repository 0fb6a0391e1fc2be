"""
Repository-level contracts that no module test covers.

The README's library quick start runs as written, the benchmark tracer in
perfbench/ still finds every from-import wrap point it expects, so renaming
a traced function fails here rather than in a traced run, the fits still
call their least-squares solvers through the module attributes the tracer
counts, no package module keeps an import it never uses, a private helper
nothing calls or a public name no workload uses, importing the CLI (or
rejecting a bad config with it) loads no scipy, neither does a calibrate run
of any kind, and the README's config reference lists exactly the keys of the
CLI's schema table.
"""

import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from holosim import benchmarking, calibration

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


def schema_paths(table, prefix=""):
    """(key path, entry) of every key of a cli.SCHEMA table, nested ones too."""
    for key, entry in table.items():
        path = f"{prefix}.{key}" if prefix else key
        yield path, entry
        yield from schema_paths(entry.get("keys", {}), path)


def test_readme_config_reference_matches_the_schema():
    # the README's config reference has a row for every leaf key of
    # cli.SCHEMA (each key not only a dict of further keys), and none for a
    # key the schema lacks
    from holosim import cli

    readme = (ROOT / "README.md").read_text()
    table = readme.split("\n| Key path |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    every = dict(schema_paths(cli.SCHEMA))
    leaves = [path for path, entry in every.items() if entry["kind"] != "dict"]
    assert [path for path in leaves if path not in rows] == []
    assert [row for row in rows if row not in every] == []
    assert len(rows) == len(set(rows))


def test_benchmark_tracer_finds_every_wrap_point():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import trace

    installed = trace.install(trace.Recorder())
    try:
        assert trace.missing_wrap_points(installed) == []
    finally:
        trace.uninstall(installed)


def test_fits_call_scipy_through_the_traced_module_attributes(monkeypatch):
    # perfbench/trace.py counts least-squares evaluations by wrapping these
    # two attributes: benchmarking.least_squares forwards to scipy's solver,
    # calibration.least_squares is the calibration fits' own numpy solver. A
    # fit that bound either function directly would leave its counter silent
    m = np.arange(1, 21)
    means = 0.45 * 0.97**m + 0.5
    times = np.linspace(0.0, 2e-6, 80)
    values = 0.5 + 0.4 * np.exp(-times / 3e-6) * np.cos(2 * np.pi * 2.5e6 * times + 0.3)
    trace = calibration.Trace(times, values, "rabi")
    expected = (benchmarking.fit_rb(m, means), calibration.fit_rabi(trace))

    calls = {}
    for module in (benchmarking, calibration):
        def counted(*args, _solve=module.least_squares, _name=module.__name__, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, "least_squares", counted)
    got = (benchmarking.fit_rb(m, means), calibration.fit_rabi(trace))

    assert calls.get("holosim.benchmarking", 0) > 0
    assert calls.get("holosim.calibration", 0) > 0
    for a, b in zip(got, expected):
        np.testing.assert_equal(dataclasses.asdict(a), dataclasses.asdict(b))


#: rejected by validation before any study runs: exit 2
BAD_CONFIGS = {"gate": {"name": "CNOT"}, "rb": {"lengths": [1, 2]}}

COLD_IMPORT = """
import json, runpy, sys

subcommands = sys.argv[1:]

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def as_main(*argv):
    sys.argv = ["holosim", *argv]
    try:
        runpy.run_module("holosim.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code

import holosim.cli
seen = {"import": scipy_modules()}
seen["--version"] = [as_main("--version"), scipy_modules()]
for sub in subcommands:
    seen[sub] = [as_main(sub, "--config", sub + ".json", "--out", "out"), scipy_modules()]
print(json.dumps(seen))
"""


def test_cold_import_and_rejected_configs_load_no_scipy(tmp_path):
    for sub, block in BAD_CONFIGS.items():
        (tmp_path / f"{sub}.json").write_text(json.dumps({"schema_version": 1, sub: block}))
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT, *BAD_CONFIGS], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"import": [], "--version": [0, []], "gate": [2, []], "rb": [2, []]}


CALIBRATE_ALL = """
import json, runpy, sys

def calibrate(config):
    sys.argv = ["holosim", "calibrate", "--config", config, "--out", config + ".out"]
    try:
        runpy.run_module("holosim.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code

codes = {config: calibrate(config) for config in sys.argv[1:]}
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_calibrate_runs_every_kind_without_scipy(tmp_path):
    # the fits run on the package's own numpy solver, so a calibrate run of
    # any kind, in a fresh interpreter, loads no scipy module
    times = np.linspace(0.0, 60e-6, 200)
    pops = calibration.rate_populations([3e4, 6e4, 5e3], times, [0.0, 0.0, 1.0])
    tones = np.cos(2 * np.pi * 0.2e6 * times) + 0.6 * np.cos(2 * np.pi * 0.45e6 * times)
    values = {"pop_g": pops[0], "pop_e": pops[1], "pop_f": pops[2],
              "ramsey": 0.5 + 0.2 * np.exp(-times / 30e-6) * tones,
              "rabi": 0.5 + 0.4 * np.cos(2 * np.pi * 0.3e6 * times)}
    for name, v in values.items():
        calibration.Trace(times, v).to_csv(tmp_path / f"{name}.csv")
    offsets = np.linspace(-3e6, 3e6, 11)
    (tmp_path / "points.csv").write_text("offset_rad_s,omega_r_rad_s\n" + "".join(
        f"{float(o)!r},{float(calibration.chevron_omega(o, 2e5, 5e5))!r}\n" for o in offsets))
    blocks = {"rate_equation": {"trace_g": "pop_g.csv", "trace_e": "pop_e.csv",
                                "trace_f": "pop_f.csv"},
              "ramsey": {"trace": "ramsey.csv"}, "rabi": {"trace": "rabi.csv"},
              "chevron": {"points": "points.csv"}}
    for kind, block in blocks.items():
        cfg = {"schema_version": 1, "calibrate": dict(block, kind=kind)}
        (tmp_path / f"{kind}.json").write_text(json.dumps(cfg))
    configs = [f"{kind}.json" for kind in blocks]
    done = subprocess.run([sys.executable, "-c", CALIBRATE_ALL, *configs], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True)
    codes, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == {config: 0 for config in configs}
    assert scipy_modules == []
    fit = json.loads((tmp_path / "chevron.json.out" / "fit.json").read_text())
    assert abs(fit["g"] / 5e5 - 1.0) < 1e-12


def test_every_imported_name_is_used():
    # names perfbench/trace.py reads but the package never calls are served
    # by the module's __getattr__, so no import is kept only for the tracer
    unused = []
    for path in sorted((ROOT / "src" / "holosim").glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def test_every_private_definition_is_referenced():
    # a private module-level function or class that no package code names is
    # dead: a path deleted without its helpers leaves one behind
    defined, referenced = [], set()
    for path in sorted((ROOT / "src" / "holosim").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    assert [d for d in defined if d.split()[-1] not in referenced] == []


#: public names only the tests call: the analytic loop and the fidelity that
#: the synthesized gates and the sweep's stacked fidelity are checked against
TEST_REFERENCES = {"holonomic.py loop_unitary", "sweeps.py reduced_process_fidelity"}


def test_every_public_definition_is_used():
    # a public module-level name that neither the package, the benchmark nor
    # the acceptance suite names is API no workload uses
    sources = (sorted((ROOT / "src" / "holosim").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
    defined, named = [], set()
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in tree.body if path.parent.name == "holosim" else []:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                stored = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in stored for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [f"{path.name} {name}" for name in names if not name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert defined
    assert [d for d in defined if d.split()[-1] not in named and d not in TEST_REFERENCES] == []
