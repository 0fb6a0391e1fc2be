"""
Command-line front end: config validation, manifests, and reproducibility.

Runs go through cli.run (same code path as the console script) against JSON
configs written into tmp_path. The contract under test: schema violations
name the offending key, the manifest is written before results and records
the run metadata, and identical config plus seed reproduces every artifact
byte for byte while timestamps stay confined to the manifest.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import holosim
from holosim import benchmarking as bm
from holosim import cli
from holosim import sweeps
from holosim import tomography as tm
from holosim.calibration import Trace, chevron_omega
from holosim.errors import ConfigError, IoError

TWO_PI = 2.0 * math.pi

SMALL_STEPS = 256


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_ok(subcommand, config_path, out_dir, **kwargs):
    status = cli.run(subcommand, str(config_path), str(out_dir), **kwargs)
    assert status == 0
    return json.loads((out_dir / "manifest.json").read_text())


def gate_config(**extra):
    cfg = {"schema_version": 1, "gate": {"name": "X_pi", "steps": SMALL_STEPS}}
    cfg.update(extra)
    return cfg


#: a small interleaved-H rb run on the paper device and the sha256 of its
#: result files, pinned when they were produced
SMALL_RB = {"schema_version": 1, "seed": 5, "device": "paper-device",
            "rb": {"m_max": 10, "k": 10, "interleaved": "H", "steps": SMALL_STEPS}}
SMALL_RB_SHA256 = {
    "rb_summary.json": "d23a7c49d4fc2366d262e26088c6c33224debfc991f921c2706197cf181caf5e",
    "rb_reference.csv": "200db4bd591b16e189276785634fceb0283a2c09b1647d57102618893ff23489",
    "rb_interleaved.csv": "6109e29c0ab5d372c0fc4a11c1346debfcba1fdefef402b938ec3544ab3f3d04",
}


def qpt_config(**block):
    body = {"gate": {"name": "H"}, "steps": SMALL_STEPS}
    body.update(block)
    return {"schema_version": 1, "seed": 11, "device": "paper-device", "qpt": body}


#: one valid block per subcommand, for checks that fail before it runs
MINIMAL_BLOCKS = {
    "gate": {"gate": {"name": "X_pi", "steps": SMALL_STEPS}},
    "qpt": {"qpt": {"gate": {"name": "H"}, "steps": SMALL_STEPS}},
    "rb": {"rb": {"m_max": 3, "k": 1, "steps": 16}},
    "sweep": {"sweep": {"family": "holonomic", "gate": "H"}},
    "cavity": {"cavity": {"gate": "X_pi"}},
    "calibrate": {"calibrate": {"kind": "rabi", "trace": "rabi.csv"}},
}


class TestConfigValidation:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.run("gate", str(path), str(tmp_path / "out"))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            cli.run("gate", str(path), str(tmp_path / "out"))

    def test_missing_config_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            cli.run("gate", str(tmp_path / "nope.json"), str(tmp_path / "out"))

    def test_name_and_angles_conflict(self, tmp_path):
        cfg = gate_config()
        cfg["gate"]["theta"] = 0.5
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run("gate", str(path), str(tmp_path / "out"))
        assert info.value.path == "gate.theta"

    @pytest.mark.parametrize("subcommand,extra,key", [
        ("sweep", {"device": "bogus"}, "device"),
        ("sweep", {"device": "paper-device"}, "device"),
        ("sweep", {"error": {"epsilon": "x", "foo": 1}}, "error.foo"),
        ("sweep", {"error": {"epsilon": 0.3}}, "error"),
        ("cavity", {"error": {"epsilon": 0.3, "detuning_mhz": 5}}, "error"),
        ("calibrate", {"device": "bogus"}, "device"),
        ("calibrate", {"device": "paper-device"}, "device"),
        ("calibrate", {"error": {"epsilon": 0.3}}, "error"),
        ("calibrate", {"error": {"foo": 1}}, "error.foo"),
    ] + [(sub, {"typo": 1}, "typo") for sub in cli.SUBCOMMANDS])
    def test_top_level_value_the_subcommand_cannot_apply_exits_two(
        self, tmp_path, capsys, subcommand, extra, key
    ):
        # each was accepted and ignored: the run exited 0 as without it
        cfg = dict(MINIMAL_BLOCKS[subcommand], schema_version=1, **extra)
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run(subcommand, str(path), str(tmp_path / "out"))
        assert info.value.path == key
        code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_sweep_accepts_the_neutral_top_level_values(self, tmp_path):
        block = {"family": "holonomic", "gate": "H", "steps": 16,
                 "epsilon": {"min": 0.0, "max": 0.0, "count": 1},
                 "detuning_mhz": {"min": 0.0, "max": 0.0, "count": 1}}
        cfg = {"schema_version": 1, "seed": 0, "device": "none",
               "error": {"epsilon": 0.0, "detuning_mhz": 0.0}, "sweep": block}
        run_ok("sweep", write_config(tmp_path, cfg), tmp_path / "out")

    def test_sweep_gate_checked_for_its_family(self, tmp_path):
        cfg = {"schema_version": 1, "sweep": {"family": "dynamic", "gate": "X_pi"}}
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run("sweep", str(path), str(tmp_path / "out"))
        assert info.value.path == "sweep.gate"

    @pytest.mark.parametrize("family,gate", [
        (f, g) for f, gates in sweeps.FAMILY_GATES.items()
        for g in sorted({g for gs in sweeps.FAMILY_GATES.values() for g in gs} - set(gates))
        + ["bogus"]])
    def test_sweep_gate_refusal_lists_its_family_gates(self, tmp_path, capsys, family, gate):
        cfg = {"schema_version": 1, "sweep": {"family": family, "gate": gate}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        valid = ", ".join(sweeps.FAMILY_GATES[family])
        assert (f"sweep.gate: unknown gate {gate!r} for family {family!r} (valid: {valid})"
                in capsys.readouterr().err)

    def test_sweep_axis_bounds(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "sweep": {
                "family": "dynamic",
                "gate": "H",
                "epsilon": {"min": 0.1, "max": -0.1, "count": 3},
            },
        }
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run("sweep", str(path), str(tmp_path / "out"))
        assert info.value.path == "sweep.epsilon.max"

    def test_rb_lengths_and_m_max_conflict(self, tmp_path):
        cfg = {"schema_version": 1, "rb": {"lengths": [1, 2], "m_max": 4}}
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run("rb", str(path), str(tmp_path / "out"))
        assert info.value.path == "rb.lengths"

    def test_fewer_than_three_distinct_lengths_exit_two_before_any_channel(
        self, tmp_path, capsys, monkeypatch
    ):
        # fit_rb failed after every channel was built
        _no_propagation(monkeypatch)
        key = "rb.lengths"
        cfg = {"schema_version": 1, "device": "paper-device",
               "rb": {"lengths": [1, 2, 2, 1], "k": 1}}
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run("rb", str(path), str(tmp_path / "out"))
        assert info.value.path == key
        code = cli.main(["rb", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("block,key", [
        ({"gate": {"theta": 0.0}}, "cavity.gate.theta"),
        ({"gate": {"theta": 1e-8}}, "cavity.gate.theta"),
        ({"gate": {"theta": 0.009}}, "cavity.gate.theta"),
        ({"gate": {"theta": 0.5}, "g_total_mhz": 500.0}, "cavity.g_total_mhz"),
    ])
    def test_loop_that_cannot_fit_its_ramps_exits_two(self, tmp_path, capsys, block, key):
        # a small theta at the default coupling, or a large coupling, failed
        # synthesis after the manifest was written (theta = 0 with no key path)
        path = write_config(tmp_path, {"schema_version": 1, "cavity": block})
        with pytest.raises(ConfigError) as info:
            cli.run("cavity", str(path), str(tmp_path / "out"))
        assert info.value.path == key
        code = cli.main(["cavity", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_unknown_subcommand(self, tmp_path):
        path = write_config(tmp_path, gate_config())
        with pytest.raises(ConfigError):
            cli.run("teleport", str(path), str(tmp_path / "out"))

    def test_bad_thread_count(self, tmp_path):
        path = write_config(tmp_path, gate_config())
        with pytest.raises(ConfigError):
            cli.run("gate", str(path), str(tmp_path / "out"), threads=0)


class TestManifest:
    def test_complete_manifest_fields(self, tmp_path):
        path = write_config(tmp_path, gate_config(seed=7))
        out = tmp_path / "out"
        manifest = run_ok("gate", path, out)
        assert manifest["status"] == "complete"
        assert manifest["subcommand"] == "gate"
        assert manifest["seed"] == 7
        assert manifest["tool_version"] == holosim.__version__
        assert len(manifest["config_sha256"]) == 64
        assert manifest["wall_time_s"] >= 0.0
        assert manifest["started_at_unix"] > 0.0
        assert manifest["artifacts"] == ["gate_report.json"]
        for name in manifest["artifacts"]:
            assert (out / name).exists()

    def test_failed_run_leaves_incomplete_manifest(self, tmp_path):
        cfg = gate_config()
        cfg["gate"]["name"] = "CNOT"
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            cli.run("gate", str(path), str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert "wall_time_s" not in manifest
        assert not (out / "gate_report.json").exists()

    def test_config_hash_tracks_file_bytes(self, tmp_path):
        path_a = write_config(tmp_path, gate_config(), "a.json")
        path_b = write_config(tmp_path, gate_config(seed=3), "b.json")
        man_a = run_ok("gate", path_a, tmp_path / "out_a")
        man_b = run_ok("gate", path_b, tmp_path / "out_b")
        assert man_a["config_sha256"] != man_b["config_sha256"]


class TestDeterminism:
    def test_rb_artifacts_match_pinned_digests(self, tmp_path):
        # any rounding change on the rb path (channels, draws, survivals,
        # fit) changes these bytes
        run_ok("rb", write_config(tmp_path, SMALL_RB), tmp_path / "out")
        for name, digest in SMALL_RB_SHA256.items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest

    def test_gate_reports_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, gate_config())
        run_ok("gate", path, tmp_path / "a")
        run_ok("gate", path, tmp_path / "b")
        rep_a = (tmp_path / "a" / "gate_report.json").read_bytes()
        rep_b = (tmp_path / "b" / "gate_report.json").read_bytes()
        assert rep_a == rep_b

    def test_sampled_qpt_reproduces_every_artifact(self, tmp_path):
        path = write_config(tmp_path, qpt_config(shots=200))
        man_a = run_ok("qpt", path, tmp_path / "a")
        run_ok("qpt", path, tmp_path / "b")
        for name in man_a["artifacts"]:
            bytes_a = (tmp_path / "a" / name).read_bytes()
            bytes_b = (tmp_path / "b" / name).read_bytes()
            assert bytes_a == bytes_b, name

    def test_seed_changes_sampled_record(self, tmp_path):
        path = write_config(tmp_path, qpt_config(shots=200))
        run_ok("qpt", path, tmp_path / "a")
        run_ok("qpt", path, tmp_path / "b", seed=5)
        rec_a = (tmp_path / "a" / "record.json").read_bytes()
        rec_b = (tmp_path / "b" / "record.json").read_bytes()
        assert rec_a != rec_b

    def test_sweep_grid_independent_of_thread_count(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "sweep": {
                "family": "holonomic",
                "gate": "H",
                "epsilon": {"min": -0.05, "max": 0.05, "count": 3},
                "detuning_mhz": {"min": -0.5, "max": 0.5, "count": 3},
                "steps": SMALL_STEPS,
            },
        }
        path = write_config(tmp_path, cfg)
        run_ok("sweep", path, tmp_path / "a", threads=1)
        run_ok("sweep", path, tmp_path / "b", threads=3)
        grid_a = (tmp_path / "a" / "sweep.csv").read_bytes()
        grid_b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert grid_a == grid_b

    @pytest.mark.parametrize("subcommand", ["qpt", "calibrate", "cavity", "sweep", "rb"])
    def test_artifacts_independent_of_blas_threads(self, tmp_path, subcommand):
        # OpenBLAS may split one kernel across threads and change its
        # rounding, so each run is a fresh process with its own thread count
        if subcommand == "qpt":
            cfg = qpt_config(shots=200)
        elif subcommand == "rb":
            cfg = SMALL_RB
        elif subcommand == "cavity":
            cfg = {"schema_version": 1, "device": "paper-device",
                   "cavity": {"gate": "X_pi"}}
        elif subcommand == "sweep":
            cfg = {"schema_version": 1, "sweep": {
                "family": "holonomic", "gate": "H",
                "epsilon": {"min": -0.1, "max": 0.1, "count": 5},
                "detuning_mhz": {"min": -1.0, "max": 1.0, "count": 5},
            }}
        else:
            times = np.linspace(0.0, 60e-6, 300)
            values = 0.5 + np.exp(-times / 25e-6) * (
                0.2 * np.cos(TWO_PI * 0.12e6 * times + 0.4)
                + 0.25 * np.cos(TWO_PI * 0.27e6 * times - 1.1)
            )
            Trace(times, values).to_csv(tmp_path / "ramsey.csv")
            cfg = {"schema_version": 1,
                   "calibrate": {"kind": "ramsey", "trace": "ramsey.csv"}}
        path = write_config(tmp_path, cfg)
        src = str(Path(holosim.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "holosim.cli", subcommand, "--config", str(path),
                 "--out", str(tmp_path / threads)],
                env=env, check=True,
            )
        manifest = json.loads((tmp_path / "1" / "manifest.json").read_text())
        for name in manifest["artifacts"]:
            bytes_1 = (tmp_path / "1" / name).read_bytes()
            bytes_2 = (tmp_path / "2" / name).read_bytes()
            assert bytes_1 == bytes_2, name


class TestGateCommand:
    def test_noiseless_named_gate_report(self, tmp_path):
        path = write_config(tmp_path, gate_config())
        out = tmp_path / "out"
        run_ok("gate", path, out)
        report = json.loads((out / "gate_report.json").read_text())
        assert report["gate"] == "X_pi"
        assert report["fidelity"] > 1.0 - 1e-6
        assert report["leakage_e"] < 1e-8
        assert abs(report["duration_ns"] - 120.0) < 1e-9

    def test_raw_angle_gate(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "gate": {"theta": math.pi / 4, "gamma": math.pi, "steps": SMALL_STEPS},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_ok("gate", path, out)
        report = json.loads((out / "gate_report.json").read_text())
        assert report["fidelity"] > 1.0 - 1e-6

    def test_amplitude_error_lowers_fidelity(self, tmp_path):
        cfg = gate_config(error={"epsilon": 0.1, "detuning_mhz": 0.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_ok("gate", path, out)
        report = json.loads((out / "gate_report.json").read_text())
        assert report["epsilon"] == 0.1
        assert report["infidelity"] > 1e-4

    def test_device_noise_adds_channel_fidelities(self, tmp_path):
        path = write_config(tmp_path, gate_config(device="paper-device"))
        out = tmp_path / "out"
        run_ok("gate", path, out)
        report = json.loads((out / "gate_report.json").read_text())
        assert report["device"] == "paper-device"
        assert 0.9 < report["fidelity_att"] < 1.0
        assert report["fidelity_att"] < report["fidelity_unatt"] <= 1.0

    def test_explicit_envelope_matches_default(self, tmp_path):
        base = write_config(tmp_path, gate_config(), "base.json")
        cfg = gate_config()
        cfg["gate"]["envelope"] = {"sigma_ns": 15.0, "total_ns": 60.0}
        enveloped = write_config(tmp_path, cfg, "env.json")
        run_ok("gate", base, tmp_path / "a")
        run_ok("gate", enveloped, tmp_path / "b")
        rep_a = json.loads((tmp_path / "a" / "gate_report.json").read_text())
        rep_b = json.loads((tmp_path / "b" / "gate_report.json").read_text())
        # 15.0 * 1e-9 differs from the built-in 15e-9 by one ulp, so compare
        # numerically rather than byte for byte
        assert abs(rep_a["duration_ns"] - rep_b["duration_ns"]) < 1e-6
        assert abs(rep_a["fidelity"] - rep_b["fidelity"]) < 1e-9


class TestQptCommand:
    def test_exact_noiseless_hadamard(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "qpt": {"gate": {"name": "H"}, "steps": SMALL_STEPS},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_ok("qpt", path, out)
        summary = json.loads((out / "qpt_summary.json").read_text())
        assert summary["shots"] is None
        assert abs(summary["fidelity_unatt"] - 1.0) < 1e-5
        assert abs(summary["chi_reduced_trace"] - 1.0) < 1e-5

    def test_hadamard_chi_csv_pattern(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "qpt": {"gate": {"name": "H"}, "steps": SMALL_STEPS},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_ok("qpt", path, out)
        rows = (out / "chi_reduced.csv").read_text().strip().split("\n")
        assert rows[0] == "m,n,label_m,label_n,real,imag"
        assert len(rows) == 17
        entries = {}
        for row in rows[1:]:
            cols = row.split(",")
            entries[(int(cols[0]), int(cols[1]))] = float(cols[4])
        # Hadamard is (X + Z)/sqrt(2): half weight each on XX and ZZ with
        # XZ coherence, nothing at II
        assert abs(entries[(1, 1)] - 0.5) < 1e-6
        assert abs(entries[(3, 3)] - 0.5) < 1e-6
        assert abs(entries[(1, 3)] - 0.5) < 1e-6
        assert abs(entries[(0, 0)]) < 1e-6

    def test_shots_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, qpt_config(shots=300))
        out = tmp_path / "out"
        run_ok("qpt", path, out, shots=50)
        record = json.loads((out / "record.json").read_text())
        assert record["shots"] == 50

    def test_exact_measurement_flag_overrides_shots(self, tmp_path):
        path = write_config(tmp_path, qpt_config(shots=300))
        out = tmp_path / "out"
        run_ok("qpt", path, out, exact_measurement=True)
        summary = json.loads((out / "qpt_summary.json").read_text())
        assert summary["shots"] is None
        assert summary["fidelity_unatt"] > 0.999

    def test_sampled_run_stays_in_noisy_band(self, tmp_path):
        path = write_config(tmp_path, qpt_config(shots=300, project=False))
        out = tmp_path / "out"
        run_ok("qpt", path, out)
        summary = json.loads((out / "qpt_summary.json").read_text())
        assert 0.98 < summary["fidelity_unatt"] < 1.0
        assert summary["seed"] == 11


class TestRbCommand:
    def test_summary_and_csv_artifacts(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "device": "paper-device",
            "rb": {"m_max": 4, "k": 6, "steps": SMALL_STEPS},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        manifest = run_ok("rb", path, out)
        assert manifest["artifacts"] == ["rb_reference.csv", "rb_summary.json"]
        summary = json.loads((out / "rb_summary.json").read_text())
        assert 0.9 < summary["F_avg"] <= 1.0
        assert 0.0 < summary["p"] <= 1.0
        rows = (out / "rb_reference.csv").read_text().strip().split("\n")
        assert rows[0] == "m,mean,stddev,k"
        assert len(rows) == 5

    def test_interleaved_adds_artifact_and_gate_fidelity(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "device": "paper-device",
            "rb": {"lengths": [1, 2, 4, 6], "k": 6, "interleaved": "H",
                   "steps": SMALL_STEPS},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        manifest = run_ok("rb", path, out)
        assert "rb_interleaved.csv" in manifest["artifacts"]
        summary = json.loads((out / "rb_summary.json").read_text())
        assert "H" in summary["F_gate"]
        assert 0.9 < summary["F_gate"]["H"] <= 1.0

    def test_non_clifford_interleaved_gate_exits_two_before_any_channel(
        self, tmp_path, capsys, monkeypatch
    ):
        _no_propagation(monkeypatch)
        cfg = {
            "schema_version": 1,
            "device": "paper-device",
            "rb": {"m_max": 3, "k": 1, "interleaved": "T", "steps": SMALL_STEPS},
        }
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run("rb", str(path), str(tmp_path / "out"))
        assert info.value.path == "rb.interleaved"
        code = cli.main(["rb", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "rb.interleaved" in err
        assert all(name in err for name in ("H", "X_pi", "X_pi_2", "Y_pi", "Z_pi"))


class TestSweepCommand:
    def test_units_convert_once_at_parse(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "sweep": {
                "family": "dynamic",
                "gate": "H",
                "epsilon": {"min": -0.05, "max": 0.05, "count": 3},
                "detuning_mhz": {"min": -1.0, "max": 1.0, "count": 3},
                "steps": SMALL_STEPS,
            },
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_ok("sweep", path, out)
        sidecar = json.loads((out / "sweep.json").read_text())
        dets = sidecar["detunings_rad_s"]
        assert np.allclose(dets, [-TWO_PI * 1e6, 0.0, TWO_PI * 1e6])
        assert 0.0 < sidecar["mean_fidelity"] <= 1.0
        assert len(sidecar["settings_sha256"]) == 64
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0].startswith("epsilon\\detuning_rad_s,")
        assert len(rows) == 4


#: axis bounds, mostly ordinary: also huge, non-finite and non-numeric values
AXIS_BOUNDS = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([math.inf, -math.inf, math.nan, None, "0.1", [0.1]]),
)


@st.composite
def sweep_blocks(draw):
    """Random sweep blocks. Steps in (256, 65536] are valid but slow, so
    they are not drawn; every other case runs through the whole CLI."""

    def axis():
        lo, hi = draw(AXIS_BOUNDS), draw(AXIS_BOUNDS)
        if isinstance(lo, float) and isinstance(hi, float) and hi < lo:
            lo, hi = hi, lo
        if draw(st.integers(0, 3)) == 0:
            lo, hi = hi, lo  # reversed: max below min
        return {"min": lo, "max": hi, "count": draw(counts(4, cli.MAX_SWEEP_COUNT))}

    block = {
        "family": draw(st.sampled_from(["holonomic", "dynamic"])),
        "gate": draw(st.sampled_from(["H", "T"])),
        "steps": draw(st.one_of(
            st.integers(4, 256), st.integers(4, 256), st.integers(-8, 3),
            st.integers(65537, 10**12),
        )),
    }
    for key in ("epsilon", "detuning_mhz"):
        if draw(st.booleans()):
            block[key] = axis()
    return block


class TestSweepFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(block=sweep_blocks())
    def test_every_sweep_block_exits_cleanly(self, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({"schema_version": 1, "sweep": block}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["sweep", "--config", str(path), "--out",
                                 str(Path(tmp) / "out"), "--threads", "1"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert 4 <= block["steps"] <= 256


#: gate numbers: mostly in range, also out of it, huge, non-finite, non-numeric
GATE_NUMBERS = st.one_of(
    st.floats(0.0, math.pi),
    st.floats(0.0, math.pi),
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([1e300, -1e300, 10**400, math.inf, -math.inf, math.nan,
                     None, "0.1", [0.1], True]),
)
#: envelope lengths in ns: mostly ordinary, also tiny, huge, non-positive,
#: non-numeric
ENVELOPE_NUMBERS = st.one_of(
    st.floats(1.0, 100.0),
    st.floats(1.0, 100.0),
    st.floats(1e-300, 1e300),
    st.sampled_from([1e-300, 0.0, -5.0, 1e300, 10**400, math.inf, math.nan,
                     None, "10"]),
)


@st.composite
def gate_blocks(draw):
    """Random gate blocks: a name, raw angles, both or neither, an optional
    envelope, and steps. As in sweep_blocks, valid steps above 256 are not
    drawn; every other case runs through the whole CLI."""
    block = {"steps": draw(st.one_of(
        st.integers(4, 256), st.integers(4, 256), st.integers(-8, 3),
        st.integers(cli.MAX_STEPS + 1, 10**12),
    ))}
    kind = draw(st.sampled_from(["name", "angles", "angles", "both", "neither"]))
    if kind in ("name", "both"):
        block["name"] = draw(st.sampled_from(
            sorted(cli.QUBIT_GATES) + ["h", "", None, 1, [1]]
        ))
    if kind in ("angles", "both"):
        for key in ("theta", "gamma", "phi"):
            if key != "phi" or draw(st.booleans()):
                block[key] = draw(GATE_NUMBERS)
    if draw(st.booleans()):
        block["envelope"] = draw(st.fixed_dictionaries(
            {"sigma_ns": ENVELOPE_NUMBERS}, optional={"total_ns": ENVELOPE_NUMBERS}
        ))
    return block


class TestGateFuzz:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(block=gate_blocks())
    # unbounded envelopes and angles: a traceback, then two plausible misses
    @example(block={"steps": 64, "name": "H", "envelope": {"sigma_ns": 10.0, "total_ns": 1e300}})
    @example(block={"steps": 64, "name": "H", "envelope": {"sigma_ns": 1e-12}})
    @example(block={"steps": 64, "theta": 1.0, "gamma": 1e300})
    def test_every_gate_block_exits_cleanly(self, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({"schema_version": 1, "gate": block}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["gate", "--config", str(path), "--out",
                                 str(Path(tmp) / "out")])
                report = Path(tmp) / "out" / "gate_report.json"
                fidelity = json.loads(report.read_text())["fidelity"] if code == 0 else None
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            # an accepted block synthesizes its gate: no plausible-looking miss
            assert 4 <= block["steps"] <= 256
            assert fidelity > 1.0 - 1e-5


@st.composite
def counts(draw, small: int, ceiling: int):
    """A config count: mostly small valid values (they run), also values
    above the ceiling, non-positive and non-integer ones."""
    if draw(st.integers(0, 4)):
        return draw(st.integers(1, small))
    return draw(st.one_of(
        st.integers(ceiling + 1, 2**64), st.integers(-3, 0),
        st.sampled_from([None, 2.0, "3", True, [2]]),
    ))


@st.composite
def small_steps(draw):
    if draw(st.integers(0, 3)):
        return draw(st.integers(4, 64))
    return draw(st.one_of(st.integers(-8, 3), st.integers(cli.MAX_STEPS + 1, 10**12)))


@st.composite
def rb_blocks(draw):
    """Random rb blocks. Valid values above k 3, m 4 and steps 64 are slow,
    so they are not drawn; every other case runs through the whole CLI."""
    block = {"k": draw(counts(3, cli.MAX_RB_K)), "steps": draw(small_steps())}
    kind = draw(st.sampled_from(["m_max", "m_max", "lengths", "lengths", "both"]))
    if kind in ("m_max", "both"):
        block["m_max"] = draw(counts(4, cli.MAX_RB_LENGTH))
    if kind in ("lengths", "both"):
        if draw(st.integers(0, 3)):
            block["lengths"] = draw(st.lists(counts(4, cli.MAX_RB_LENGTH),
                                             min_size=1, max_size=4))
        else:
            block["lengths"] = draw(st.sampled_from(
                [[1] * (cli.MAX_RB_LENGTH + 1), [], None, "1,2,3", 3]
            ))
    if draw(st.booleans()):
        block["interleaved"] = draw(st.sampled_from(
            list(bm.CLIFFORD_GATES) + ["T", "CNOT", None, 1]
        ))
    return block


def _above(value, ceiling) -> bool:
    return cli._KINDS["int"](value) and value > ceiling


class TestRbFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(block=rb_blocks(), device=st.sampled_from(["none", "paper-device"]))
    # a count without a ceiling: numpy MemoryError after the channels
    @example(block={"lengths": [1, 2, 3], "k": 1000000000000, "steps": 16},
             device="paper-device")
    def test_every_rb_block_exits_cleanly(self, block, device):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({"schema_version": 1, "device": device, "rb": block}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["rb", "--config", str(path), "--out",
                                 str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        lengths = block.get("lengths")
        if (_above(block["k"], cli.MAX_RB_K)
                or _above(block.get("m_max"), cli.MAX_RB_LENGTH)
                or (isinstance(lengths, list) and (
                    len(lengths) > cli.MAX_RB_LENGTH
                    or any(_above(m, cli.MAX_RB_LENGTH) for m in lengths)))):
            assert code == 2
        if code == 0:
            assert 4 <= block["steps"] <= 64 and 1 <= block["k"] <= 3
            assert max(block.get("lengths") or [block.get("m_max")]) <= 4


@st.composite
def qpt_runs(draw):
    """(block, --shots) of random qpt runs. As in rb_blocks, valid steps
    above 64 are not drawn; shots cost nothing, so all valid ones are."""
    block = {
        "gate": draw(st.sampled_from([{"name": "H"}, {"name": "X_pi"},
                                      {"name": "CNOT"}, {"theta": 7.0, "gamma": 1.0}])),
        "steps": draw(small_steps()),
    }
    if draw(st.booleans()):
        block["shots"] = draw(counts(cli.MAX_SHOTS, cli.MAX_SHOTS))
    for key in ("mle", "project"):
        if draw(st.booleans()):
            block[key] = draw(st.sampled_from([None, True, False, 1]))
    flag = draw(st.one_of(st.none(), st.integers(-3, cli.MAX_SHOTS),
                          st.integers(cli.MAX_SHOTS + 1, 2**64)))
    return block, flag


class TestQptFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=qpt_runs(), device=st.sampled_from(["none", "paper-device"]))
    # a count without a ceiling: OverflowError in the binomial draws
    @example(run=({"gate": {"name": "H"}, "shots": 9223372036854775808, "steps": 16}, None),
             device="paper-device")
    def test_every_qpt_run_exits_cleanly(self, run, device):
        block, flag = run
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({"schema_version": 1, "device": device, "qpt": block}))
            argv = ["qpt", "--config", str(path), "--out", str(Path(tmp) / "out")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv + ([] if flag is None else ["--shots", str(flag)]))
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if _above(block.get("shots"), cli.MAX_SHOTS) or (flag or 0) > cli.MAX_SHOTS:
            assert code == 2
        if code == 0:
            assert 4 <= block["steps"] <= 64


#: cavity numbers, mostly ordinary: also huge, tiny, non-finite and non-numeric
CAVITY_NUMBERS = st.one_of(
    st.floats(0.0, math.pi),
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([math.inf, -math.inf, math.nan, None, "0.1", 10**400]),
)


@st.composite
def cavity_configs(draw):
    """Random cavity configs. As in sweep_blocks, valid steps above 256 are
    not drawn; every other case runs through the whole CLI."""
    gate = draw(st.one_of(
        st.none(),
        st.sampled_from(sorted(cli.CAVITY_GATES) + ["Y_pi", ""]),
        st.fixed_dictionaries({"theta": CAVITY_NUMBERS},
                              optional={"phi": CAVITY_NUMBERS}),
    ))
    block = {
        "gate": gate,
        "steps": draw(st.one_of(
            st.integers(4, 256), st.integers(4, 256), st.integers(-8, 3),
            st.integers(65537, 10**12),
        )),
    }
    if draw(st.booleans()):
        block["g_total_mhz"] = draw(st.one_of(
            st.floats(1e-300, 1e300),
            st.floats(0.05, 5.0),
            st.sampled_from([math.nan, math.inf, 0.0, -1.0]),
        ))
    device = draw(st.sampled_from(["none", "paper-device"]))
    return {"schema_version": 1, "device": device, "cavity": block}


class TestCavityFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=cavity_configs())
    def test_every_cavity_block_exits_cleanly(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["cavity", "--config", str(path), "--out",
                                 str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert 4 <= cfg["cavity"]["steps"] <= 256



class TestCavityCommand:
    def test_named_gate_pipeline(self, tmp_path):
        cfg = {"schema_version": 1, "cavity": {"gate": "X_pi", "steps": 512}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        manifest = run_ok("cavity", path, out)
        assert manifest["artifacts"] == ["cavity.json", "cavity_chi.csv"]
        result = json.loads((out / "cavity.json").read_text())
        assert result["include_decoherence"] is False
        assert result["fidelity_att"] > 1.0 - 1e-3
        assert len(result["chi_real"]) == 4

    def test_g_total_mhz_matches_internal_default(self, tmp_path):
        base = {"schema_version": 1, "cavity": {"gate": "X_pi", "steps": 512}}
        explicit = {
            "schema_version": 1,
            "cavity": {
                "gate": "X_pi",
                # theta = pi/2, so the default is g1 / sin(pi/4)
                "g_total_mhz": 0.25 / math.sin(math.pi / 4.0),
                "steps": 512,
            },
        }
        path_a = write_config(tmp_path, base, "a.json")
        path_b = write_config(tmp_path, explicit, "b.json")
        run_ok("cavity", path_a, tmp_path / "a")
        run_ok("cavity", path_b, tmp_path / "b")
        res_a = json.loads((tmp_path / "a" / "cavity.json").read_text())
        res_b = json.loads((tmp_path / "b" / "cavity.json").read_text())
        assert abs(res_a["fidelity_att"] - res_b["fidelity_att"]) < 1e-9

    def test_coupling_without_a_gate_exits_two(self, tmp_path, capsys):
        # the identity run swaps nothing, so a coupling it would ignore is refused
        cfg = {"schema_version": 1, "cavity": {"gate": None, "g_total_mhz": 1e-300}}
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run("cavity", str(path), str(tmp_path / "out"))
        assert info.value.path == "cavity.g_total_mhz"
        code = cli.main(["cavity", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cavity.g_total_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [{"gate": {"theta": 0.011}},
                                       {"gate": {"theta": 0.0}, "g_total_mhz": 5.0}])
    def test_small_raw_angles_whose_loop_fits_its_ramps_run(self, tmp_path, block):
        # the parse check is synthesize_cavity_gate's own: theta = 0.009 at the
        # default coupling is refused (exit 2), 0.011 and a given coupling run
        path = write_config(tmp_path, {"schema_version": 1, "cavity": dict(block, steps=64)})
        run_ok("cavity", path, tmp_path / "out")
        result = json.loads((tmp_path / "out" / "cavity.json").read_text())
        assert 0.0 <= result["fidelity_att"] <= 1.0 + 1e-9

    def test_raw_angle_gate_and_identity(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "cavity": {"gate": {"theta": math.pi / 2, "phi": 0.0}, "steps": 512},
        }
        path = write_config(tmp_path, cfg)
        run_ok("cavity", path, tmp_path / "a")
        res = json.loads((tmp_path / "a" / "cavity.json").read_text())
        assert res["fidelity_att"] > 1.0 - 1e-3
        cfg_id = {"schema_version": 1, "cavity": {"gate": None, "steps": 512}}
        path_id = write_config(tmp_path, cfg_id, "id.json")
        run_ok("cavity", path_id, tmp_path / "b")
        res_id = json.loads((tmp_path / "b" / "cavity.json").read_text())
        assert res_id["gate"] == "identity"
        assert res_id["fidelity_att"] > 1.0 - 1e-3


class TestCalibrateCommand:
    def test_rabi_fit_from_relative_trace_path(self, tmp_path):
        times = np.linspace(0.0, 2.0e-6, 160)
        omega = TWO_PI * 2.2e6
        values = 0.5 - 0.5 * np.cos(omega * times) * np.exp(-0.1e6 * times)
        Trace(times, values, label="rabi").to_csv(tmp_path / "rabi.csv")
        cfg = {"schema_version": 1, "calibrate": {"kind": "rabi", "trace": "rabi.csv"}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_ok("calibrate", path, out)
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["omega_r"] - omega) / omega < 1e-2
        assert len(fit["covariance"]) == 5

    def test_chevron_fit_from_points_file(self, tmp_path):
        center = TWO_PI * 0.1e6
        g = TWO_PI * 0.4e6
        offsets = center + TWO_PI * 1e6 * np.linspace(-0.9, 0.9, 9)
        omegas = chevron_omega(offsets, center, g)
        lines = ["offset_rad_s,omega_r_rad_s"]
        lines += [f"{float(o)!r},{float(w)!r}" for o, w in zip(offsets, omegas)]
        (tmp_path / "points.csv").write_text("\n".join(lines) + "\n")
        cfg = {
            "schema_version": 1,
            "calibrate": {"kind": "chevron", "points": "points.csv"},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        run_ok("calibrate", path, out)
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["g"] - g) / g < 1e-2
        assert abs(fit["center"] - center) < TWO_PI * 1e3

    def test_missing_trace_file_is_io_error(self, tmp_path):
        cfg = {"schema_version": 1, "calibrate": {"kind": "rabi", "trace": "gone.csv"}}
        path = write_config(tmp_path, cfg)
        with pytest.raises(IoError):
            cli.run("calibrate", str(path), str(tmp_path / "out"))

    @pytest.mark.parametrize("bad_row", ["abc,1.0", "2.5"])
    def test_chevron_non_numeric_cell_exits_two(self, tmp_path, capsys, bad_row):
        lines = ["offset_rad_s,omega_r_rad_s", "-1.0,2.0", bad_row, "1.0,2.0"]
        (tmp_path / "points.csv").write_text("\n".join(lines) + "\n")
        cfg = {
            "schema_version": 1,
            "calibrate": {"kind": "chevron", "points": "points.csv"},
        }
        path = write_config(tmp_path, cfg)
        code = cli.main(
            ["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("holosim: error:")
        assert "points.csv line 3" in err

    def test_unwritable_artifact_exits_two_without_temp_file(self, tmp_path, capsys):
        times = np.linspace(0.0, 2.0e-6, 160)
        values = 0.5 - 0.5 * np.cos(TWO_PI * 2.2e6 * times)
        Trace(times, values).to_csv(tmp_path / "rabi.csv")
        cfg = {"schema_version": 1, "calibrate": {"kind": "rabi", "trace": "rabi.csv"}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        (out / "fit.json").mkdir(parents=True)
        code = cli.main(["calibrate", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("holosim: error: cannot write")
        assert "fit.json" in err and "Traceback" not in err
        assert (out / "fit.json").is_dir()
        assert list(out.glob("*.tmp")) == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"


#: defects a calibration CSV can carry; the first seven make it unreadable (exit 2)
CSV_DEFECTS = ("empty", "header_only", "no_header", "wrong_header", "ragged",
               "non_numeric", "non_finite", "unsorted", "duplicate_time")
STRUCTURAL_DEFECTS = CSV_DEFECTS[:7]


def _signal_columns(kind, rng, n):
    """{file name: (x, y)} of noiseless, acceptance-like data for one kind."""
    t = np.linspace(0.0, rng.uniform(1e-6, 60e-6), n)
    if kind == "chevron":
        offsets = TWO_PI * 1e6 * np.linspace(-2.0, 2.0, n)
        return {"points.csv": (offsets, chevron_omega(offsets, 0.0, TWO_PI * 0.8e6))}
    if kind == "rate_equation":
        a, b = rng.uniform(1e4, 1e5, 2)
        p_f = np.exp(-b * t)
        p_e = b / (a - b) * (np.exp(-b * t) - np.exp(-a * t))
        return {"pop_g.csv": (t, 1.0 - p_e - p_f), "pop_e.csv": (t, p_e),
                "pop_f.csv": (t, p_f)}
    tone = np.cos(TWO_PI * rng.uniform(0.1e6, 3e6) * t) * np.exp(-t / rng.uniform(5e-6, 60e-6))
    return {"trace.csv": (t, 0.5 + 0.4 * tone)}


@st.composite
def calibrate_cases(draw):
    """(config, {file name: contents}, must exit 2) of random calibrate runs:
    every kind, with CSVs well formed or carrying one defect, detrend
    degrees in and out of range, and top-level device and error values."""
    kind = draw(st.sampled_from(["rate_equation", "ramsey", "rabi", "chevron", "fft"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = _signal_columns(kind, rng, draw(st.integers(0, 48)))
    header = "offset_rad_s,omega_r_rad_s" if kind == "chevron" else "time_s,value"
    files = {name: [header] + [f"{float(u)!r},{float(v)!r}" for u, v in zip(*xy)]
             for name, xy in columns.items()}
    defect = draw(st.sampled_from((None,) + CSV_DEFECTS))
    lines = files[draw(st.sampled_from(sorted(files)))]
    rows = len(lines) - 1
    if defect == "empty":
        del lines[:]
    elif defect == "header_only":
        del lines[1:]
    elif defect == "no_header":
        del lines[0]
    elif defect == "wrong_header":
        lines[0] = draw(st.sampled_from(["time_s,signal", "time_s", "value,time_s", "x,y"]))
    elif rows and defect in ("ragged", "non_numeric", "non_finite"):
        i = draw(st.integers(1, rows))
        cells = lines[i].split(",")
        if defect == "ragged":
            cells = cells[:1] if draw(st.booleans()) else cells + ["0.5"]
        else:
            cells[draw(st.integers(0, 1))] = draw(st.sampled_from(
                ["abc", "", "0x1p3"] if defect == "non_numeric"
                else ["nan", "inf", "-inf", "1e400"]))
        lines[i] = ",".join(cells)
    elif rows >= 2 and defect == "unsorted":
        i, j = draw(st.lists(st.integers(1, rows), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif rows and defect == "duplicate_time":
        i = draw(st.integers(1, rows))
        lines.insert(i, lines[i])
    # a sibling trace with too few samples may fail (exit 1) before it is read
    must_exit_two = (kind == "fft" or rows == 0 or defect in STRUCTURAL_DEFECTS
                     and (len(files) == 1 or rows >= 8))

    block = {"kind": kind}
    if kind == "chevron":
        block["points"] = "points.csv"
    elif kind == "rate_equation":
        block.update({f"trace_{lv}": f"pop_{lv}.csv" for lv in "gef"})
    elif kind in ("ramsey", "rabi"):
        block["trace"] = "trace.csv"
        if draw(st.booleans()):
            degree = draw(st.one_of(st.integers(-2, 12), st.sampled_from([299, 5000, None, 1.5])))
            block["detrend_degree"] = degree
            must_exit_two |= degree is not None and not (
                isinstance(degree, int) and 0 <= degree <= 7)
    cfg = {"schema_version": 1, "calibrate": block}
    if draw(st.booleans()):
        cfg["device"] = draw(st.sampled_from(["none", "paper-device", "bogus"]))
        must_exit_two |= cfg["device"] != "none"
    if draw(st.booleans()):
        cfg["error"] = draw(st.sampled_from(
            [None, {}, {"epsilon": 0.0}, {"epsilon": 0.3}, {"detuning_mhz": 5}, {"foo": 1}]))
        must_exit_two |= cfg["error"] not in (None, {}, {"epsilon": 0.0})
    texts = {name: "".join(ln + "\n" for ln in lns) for name, lns in files.items()}
    return cfg, texts, must_exit_two


def _rabi_case(text, **block):
    cfg = {"schema_version": 1, "calibrate": dict({"kind": "rabi", "trace": "trace.csv"}, **block)}
    return cfg, {"trace.csv": text}, True


_GOOD_TRACE = "time_s,value\n" + "".join(f"{i}e-7,{0.5 + 0.1 * (-1) ** i}\n" for i in range(12))


@contextlib.contextmanager
def native_stdout(sink: list):
    """Append to ``sink`` what is written to file descriptor 1 inside the
    block, C stdio buffers included: LAPACK's argument checks print there,
    past sys.stdout."""
    sys.stdout.flush()
    saved = os.dup(1)
    with tempfile.TemporaryFile() as tmp:
        os.dup2(tmp.fileno(), 1)
        try:
            yield
        finally:
            ctypes.CDLL(None).fflush(None)
            os.dup2(saved, 1)
            os.close(saved)
            tmp.seek(0)
            sink.append(tmp.read().decode(errors="replace"))


def _calibrate_exit(cfg, texts):
    """(exit code, stderr, native stdout, parsed fit.json or None) of one
    in-process calibrate run."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            (Path(tmp) / name).write_text(text)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err, out = io.StringIO(), []
        with contextlib.redirect_stderr(err), native_stdout(out):
            code = cli.main(["calibrate", "--config", str(path), "--out",
                             str(Path(tmp) / "out")])
        fit_path = Path(tmp) / "out" / "fit.json"
        fit = json.loads(fit_path.read_text()) if fit_path.is_file() else None
    return code, err.getvalue(), out[0], fit


class TestCalibrateFuzz:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=calibrate_cases())
    # each ended in a traceback: IndexError, a genfromtxt ValueError,
    # "no field of name" ValueErrors, and LinAlgError from the detrend fit
    @example(case=_rabi_case(""))
    @example(case=_rabi_case(_GOOD_TRACE.replace("\n3e-7,0.4\n", "\n3e-7,0.4,1\n")))
    @example(case=_rabi_case(_GOOD_TRACE.split("\n", 1)[1]))
    @example(case=_rabi_case(_GOOD_TRACE.replace("time_s,value", "time_s,signal")))
    @example(case=_rabi_case(_GOOD_TRACE, detrend_degree=299))
    @example(case=_rabi_case(_GOOD_TRACE, detrend_degree=5000))
    # valid times whose powers underflow: a raw-time detrend fit printed
    # LAPACK's DLASCL complaint and raised LinAlgError; it fits in
    # normalized time now
    @example(case=(_rabi_case(_GOOD_TRACE.replace("e-7,", "e-300,"), detrend_degree=1)[:2]
                   + (False,)))
    def test_every_calibrate_run_exits_cleanly(self, case):
        cfg, texts, must_exit_two = case
        code, err, native, _ = _calibrate_exit(cfg, texts)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert native == ""
        if must_exit_two:
            assert code == 2


def _extreme_case(kind, seed, n, x_exp, y_sign, y_exp, shift, noise, chevron_shift=0.0,
                  detrend_degree=None):
    """(config, {file name: contents}) of one well-formed calibrate run of
    ``kind`` with times at scale 10**x_exp and values at y_sign * 10**y_exp:
    an acceptance-like shape, or plain noise; ``seed`` draws the time steps
    and the shape's own constants."""
    rng = np.random.default_rng(seed)
    x_scale = 10.0 ** x_exp
    y_scale = y_sign * 10.0 ** y_exp
    steps = np.cumsum(rng.uniform(0.2, 1.0, n))
    x = x_scale * (shift + steps)  # strictly increasing: spacing >= 2e-7 of |x|
    tau = (steps - steps[0]) / (steps[-1] - steps[0])  # the shape's own time axis

    def shape(clean):
        return y_scale * (rng.uniform(-1.0, 1.0, n) if noise else clean)

    if kind == "chevron":
        offsets = np.linspace(-2.0, 2.0, n)
        x = x_scale * (offsets + chevron_shift)
        columns = {"points.csv": (x, np.abs(shape(np.hypot(offsets, 0.3))))}
        block = {"kind": kind, "points": "points.csv"}
    elif kind == "rate_equation":
        p_f = np.exp(-2.0 * tau)
        p_e = 2.0 * (np.exp(-tau) - np.exp(-2.0 * tau))
        columns = {f"pop_{lv}.csv": (x, shape(p)) for lv, p in
                   zip("gef", (1.0 - p_e - p_f, p_e, p_f))}
        block = dict({"kind": kind}, **{f"trace_{lv}": f"pop_{lv}.csv" for lv in "gef"})
    else:
        tone = np.cos(TWO_PI * rng.uniform(2.0, 8.0) * tau) * np.exp(-tau / rng.uniform(0.3, 3.0))
        columns = {"trace.csv": (x, shape(0.5 + 0.4 * tone))}
        block = {"kind": kind, "trace": "trace.csv"}
        if detrend_degree is not None:
            block["detrend_degree"] = detrend_degree
    header = "offset_rad_s,omega_r_rad_s" if kind == "chevron" else "time_s,value"
    texts = {name: header + "\n" + "".join(f"{float(u)!r},{float(v)!r}\n" for u, v in zip(*xy))
             for name, xy in columns.items()}
    return {"schema_version": 1, "calibrate": block}, texts


@st.composite
def extreme_calibrate_cases(draw):
    """_extreme_case of every kind at scales from 1e-300 to 1e300, with
    either sign."""
    kind = draw(st.sampled_from(["rate_equation", "ramsey", "rabi", "chevron"]))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(8, 40))
    x_exp = draw(st.integers(-300, 300))
    y_sign = draw(st.sampled_from([1.0, -1.0]))
    y_exp = draw(st.integers(-300, 300))
    shift = draw(st.sampled_from([0.0, -0.5 * n, 1e6]))
    noise = draw(st.booleans())
    chevron_shift, detrend_degree = 0.0, None
    if kind == "chevron":
        chevron_shift = draw(st.sampled_from([0.0, 0.5]))
    elif kind != "rate_equation" and draw(st.booleans()):
        detrend_degree = draw(st.integers(0, 7))
    return _extreme_case(kind, seed, n, x_exp, y_sign, y_exp, shift, noise, chevron_shift,
                         detrend_degree)


class TestCalibrateNumericFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=extreme_calibrate_cases())
    # values near 1e-164: pinv(J^T J) overflowed in raw units, the
    # covariance was not finite and the run exited 1. The fits run in
    # normalized units now, so it exits 0 with the generating rates and a
    # finite covariance; either way no NaN may reach fit.json. None of the
    # 60 derandomized draws reaches that scale
    @example(case=_extreme_case("rate_equation", 0, 8, 8, -1.0, -164, -4.0, False))
    def test_extreme_scales_exit_cleanly(self, case):
        code, err, native, fit = _calibrate_exit(*case)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert native == ""
        if code == 0:
            assert np.isfinite(np.asarray(fit["covariance"], dtype=float)).all()


class TestMainEntry:
    def test_main_happy_path_exit_zero(self, tmp_path):
        path = write_config(tmp_path, gate_config())
        out = tmp_path / "out"
        assert cli.main(["gate", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "gate_report.json").exists()

    def test_main_domain_error_exit_one(self, tmp_path, capsys):
        times = np.linspace(0.0, 1e-6, 9)
        values = 0.5 + 0.01 * times / times[-1]
        Trace(times, values, label="flat").to_csv(tmp_path / "flat.csv")
        cfg = {"schema_version": 1, "calibrate": {"kind": "rabi", "trace": "flat.csv"}}
        path = write_config(tmp_path, cfg)
        code = cli.main(
            ["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("holosim:")

    @pytest.mark.parametrize("subcommand,cfg", [
        ("sweep", {"sweep": {
            "family": "holonomic", "gate": "H",
            "epsilon": {"min": 0.0, "max": 0.0, "count": 1},
            "detuning_mhz": {"min": 1e300, "max": 1e300, "count": 1},
            "steps": SMALL_STEPS,
        }}),
        ("qpt", {"device": "paper-device", "error": {"detuning_mhz": 1e300},
                 "qpt": {"gate": {"name": "H"}, "steps": SMALL_STEPS}}),
    ])
    def test_absurd_detuning_exits_one(self, tmp_path, capsys, subcommand, cfg):
        path = write_config(tmp_path, dict(cfg, schema_version=1))
        code = cli.main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("holosim: StepTooLargeError:")
        assert "Traceback" not in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert holosim.__version__ in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, qpt_config(shots=40))
        out = tmp_path / "out"
        code = cli.main(
            ["qpt", "--config", str(path), "--out", str(out), "--seed", "5"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        record = json.loads((out / "record.json").read_text())
        assert manifest["seed"] == 5
        assert record["seed"] == 5


@pytest.mark.parametrize("text", [
    '{"schema_version": 1, "seed": ' + "9" * 5000 + ', "gate": {"name": "X_pi"}}',
    '{"schema_version": 1, "gate": {"name": "X_pi", "steps": ' + "1" * 5000 + "}}",
    '{"schema_version": 1, "gate": ' + "[" * 200_000 + "]" * 200_000 + "}",
    # a NUL byte in a data path: open() raises ValueError, not OSError
    '{"schema_version": 1, "calibrate": {"kind": "rabi", "trace": "a\\u0000b"}}',
], ids=["5000-digit seed", "5000-digit steps", "200000-deep arrays", "NUL in trace path"])
def test_unreadable_input_exits_two_without_traceback(tmp_path, capsys, text):
    # each ended in a traceback: a ValueError past the int digit limit, a
    # RecursionError in the JSON decoder, and a ValueError from open(); the
    # digit limit then spoke of an interpreter call, and the NUL reached
    # stderr raw
    path = tmp_path / "config.json"
    path.write_text(text)
    sub = "calibrate" if "calibrate" in text else "gate"
    code = cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err and "\x00" not in err


#: NUL, BEL, LF, CR, ESC (which starts terminal control sequences), DEL, NEL
#: and LINE SEPARATOR, none printable, and a printable non-ASCII letter
MESSAGE_CHARACTERS = ["\x00", "\x07", "\n", "\r", "\x1b", "\x7f", "\x85", "\u2028", "é"]


@pytest.mark.parametrize("where", ["data path", "unknown key"])
@pytest.mark.parametrize("char", MESSAGE_CHARACTERS, ids=lambda c: f"U+{ord(c):04X}")
def test_message_characters_reach_stderr_escaped(tmp_path, capsys, where, char):
    # the config carries the character into the error that cli.main prints;
    # a printable one stays as written
    name = f"a{char}b"
    if where == "data path":
        sub, cfg = "calibrate", {"calibrate": {"kind": "rabi", "trace": name}}
    else:
        sub, cfg = "gate", {"gate": {"name": "X_pi"}, name: 1}
    config = write_config(tmp_path, dict(cfg, schema_version=1))
    assert cli.main([sub, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n")
    shown = name if char.isprintable() else f"a{repr(char)[1:-1]}b"
    assert shown in err and (char.isprintable() or char not in err[:-1])


LONG = "9" * 5000


@pytest.mark.parametrize("sub,text", [
    ("gate", '{"schema_version": 1, "seed": -' + LONG + ', "gate": {"name": "X_pi"}}'),
    ("gate", '{"schema_version": 1, "gate": {"theta": ' + LONG + ', "gamma": 1.0}}'),
    ("rb", '{"schema_version": 1, "rb": {"lengths": [1, 2, ' + LONG + "]}}"),
    ("gate", '{"schema_version": 1, "gate": {"name": "X_pi"}, "zz": ' + LONG + "}"),
], ids=["negative seed", "number key", "list item", "unknown key"])
def test_integer_past_the_digit_limit_is_refused_in_holosim_words(tmp_path, capsys, sub, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    limit = sys.get_int_max_str_digits()
    assert (f"config holds an integer of 5000 digits, more than the {limit} that are read"
            in capsys.readouterr().err)


def test_integer_at_the_digit_limit_reaches_the_schema(tmp_path, capsys):
    steps = "9" * sys.get_int_max_str_digits()
    path = tmp_path / "config.json"
    path.write_text('{"schema_version": 1, "gate": {"name": "X_pi", "steps": ' + steps + "}}")
    assert cli.main(["gate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "gate.steps: must be in [" in capsys.readouterr().err


# ---- refusals generated from cli.SCHEMA ----

#: valid configs that together hold every leaf key of cli.SCHEMA; a case
#: edits one leaf in the first of them that holds it
SCHEMA_BASES = [
    ("gate", {"seed": 1, "device": "none", "error": {"epsilon": 0.0, "detuning_mhz": 0.0},
              "gate": {"theta": 1.0, "gamma": 1.0, "phi": 0.5, "steps": 64,
                       "envelope": {"sigma_ns": 15.0, "total_ns": 60.0}}}),
    ("gate", {"gate": {"name": "H"}}),
    ("qpt", {"device": "paper-device",
             "qpt": {"gate": {"theta": 1.0, "gamma": 1.0, "phi": 0.5,
                              "envelope": {"sigma_ns": 15.0, "total_ns": 60.0}},
                     "shots": 100, "mle": True, "project": True, "steps": 64}}),
    ("qpt", {"qpt": {"gate": {"name": "H"}}}),
    ("rb", {"device": "paper-device",
            "rb": {"lengths": [1, 2, 3], "k": 2, "interleaved": "H", "steps": 16}}),
    ("rb", {"rb": {"m_max": 4}}),
    ("sweep", {"sweep": {"family": "holonomic", "gate": "H", "steps": 16,
                         "epsilon": {"min": -0.1, "max": 0.1, "count": 3},
                         "detuning_mhz": {"min": -1.0, "max": 1.0, "count": 3}}}),
    ("cavity", {"cavity": {"gate": "X_pi", "steps": 64}}),
    ("cavity", {"cavity": {"gate": {"theta": 1.0, "phi": 0.5}, "g_total_mhz": 5.0}}),
    ("calibrate", {"calibrate": {"kind": "rate_equation", "trace_g": "g.csv",
                                 "trace_e": "e.csv", "trace_f": "f.csv"}}),
    ("calibrate", {"calibrate": {"kind": "rabi", "trace": "t.csv", "detrend_degree": 1}}),
    ("calibrate", {"calibrate": {"kind": "chevron", "points": "p.csv"}}),
]

#: stands for the JSON literal 1e400, which json.dumps cannot write
LITERAL_1E400 = "<1e400>"
#: stands for the key left out
ABSENT = "<absent>"
#: JSON types per schema kind, told apart by exact type: a bool is never an
#: int or a number, whatever cli._KINDS says
JSON_TYPES = {"int": (int,), "number": (int, float), "str": (str,), "bool": (bool,),
              "dict": (dict,), "list": (list,)}
#: values of every JSON type; each is a wrong type for the kinds it is not
TYPED_VALUES = (True, 2, 2.0, "2", [2], {"x": 2})


def schema_leaves(table, path=""):
    """(key path, entry) of every leaf of a schema table: each key whose
    value is not only a dict of further keys."""
    for key, entry in table.items():
        full = f"{path}.{key}" if path else key
        if entry["kind"] != "dict":
            yield full, entry
        if "keys" in entry:
            yield from schema_leaves(entry["keys"], full)


def _step(entry, bound, direction):
    """The value one step from ``bound`` in ``direction`` (+1 or -1)."""
    if entry["kind"] == "number":
        return math.nextafter(bound, direction * math.inf)
    return bound + direction


def _sized(entry, size):
    """``size`` itself, or for a list entry a list of that many valid items,
    as many of them distinct as the item bounds allow."""
    if entry["kind"] != "list":
        return size
    lo, hi = entry["items"]["bounds"]
    return [lo + i % (hi - lo + 1) for i in range(size)]


def schema_faults(entry):
    """(value, the words its refusal starts with) of each value ``entry``
    refuses: a wrong type, null unless allowed, the key left out if
    required, the non-finite and out-of-range numbers, an unlisted choice,
    one step past each bound, and an otherwise valid list holding one
    refused item."""
    kinds = entry["kind"].split("|")
    expected = "expected " + " or ".join(kinds)
    faults = [(v, expected) for v in TYPED_VALUES
              if not any(type(v) in JSON_TYPES[k] for k in kinds)]
    if not entry.get("null"):
        faults.append((None, "must not be null"))
    if not entry.get("null") and "default" not in entry:
        faults.append((ABSENT, "missing required key"))
    if entry["kind"] == "number":
        faults += [(v, "must be finite") for v in (math.nan, math.inf, -math.inf, LITERAL_1E400)]
        faults.append((10**400, "out of the float range"))
    if "choices" in entry:
        bogus = "bogus" if entry["kind"] != "int" else max(entry["choices"]) + 1
        faults.append((bogus, "unknown value"))
    lo, hi = entry.get("bounds", (-math.inf, math.inf))
    bounded = "length must be in [" if entry["kind"] == "list" else "must be in ["
    faults += [(_sized(entry, _step(entry, bound, out)), bounded)
               for bound, out in ((lo, -1), (hi, +1)) if math.isfinite(bound)]
    if "items" in entry:
        faults += [([item] + _sized(entry, 3)[1:], words)
                   for item, words in schema_faults(entry["items"]) if item != ABSENT]
    return faults


def schema_admits(entry):
    """Values at and one step inside each bound of ``entry``."""
    lo, hi = entry.get("bounds", (-math.inf, math.inf))
    return [_sized(entry, value) for bound, inward in ((lo, +1), (hi, -1)) if math.isfinite(bound)
            for value in (bound, _step(entry, bound, inward))]


def _base_holding(path):
    """(subcommand, deep copy of the first SCHEMA_BASES config holding path)."""
    for sub, body in SCHEMA_BASES:
        node, keys = dict(body, schema_version=1), path.split(".")
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                break
            node = node[key]
        else:
            return sub, json.loads(json.dumps(dict(body, schema_version=1)))
    raise AssertionError(f"no SCHEMA_BASES config holds {path}")


def _set_leaf(cfg, path, value):
    *parents, key = path.split(".")
    node = cfg
    for parent in parents:
        node = node[parent]
    if value == ABSENT:
        del node[key]
    else:
        node[key] = value
    return cfg


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 16 else text[:13] + "..."


def schema_dicts(table, path=""):
    """(key path, first key) of every dict value of a schema table, "" for the
    top level."""
    yield path, next(iter(table))
    for key, entry in table.items():
        if "keys" in entry:
            yield from schema_dicts(entry["keys"], f"{path}.{key}" if path else key)


SCHEMA_LEAVES = list(schema_leaves(cli.SCHEMA))
SCHEMA_FAULTS = [(path, fault, words) for path, entry in SCHEMA_LEAVES
                 for fault, words in schema_faults(entry)]
#: (flag, the leaf it is walked against, fault, words) of each fault of that
#: leaf that argv can carry: the ints
SCHEMA_FLAG_FAULTS = [(flag, path, fault, words)
                      for flag, path in (("--seed", "seed"), ("--shots", "qpt.shots"))
                      for fault, words in schema_faults(dict(SCHEMA_LEAVES)[path])
                      if type(fault) is int]
#: (path of an unknown key, path of a sibling leaf the base must hold)
SCHEMA_UNKNOWN = [(f"{path}.zz" if path else "zz", f"{path}.{first}" if path else first)
                  for path, first in schema_dicts(cli.SCHEMA)]
SCHEMA_ADMITS = [(path, value) for path, entry in SCHEMA_LEAVES for value in schema_admits(entry)]


def _no_propagation(monkeypatch):
    def no_channel(*args, **kwargs):
        raise AssertionError("a channel or propagator was built")

    monkeypatch.setattr(bm, "schedule_channel", no_channel)
    monkeypatch.setattr(tm, "schedule_channel", no_channel)
    monkeypatch.setattr(cli, "schedule_unitary", no_channel)
    monkeypatch.setattr(sweeps.ev, "schedule_unitary", no_channel)
    monkeypatch.setattr(sweeps.ev, "schedule_channel", no_channel)


class TestSchemaRefusals:
    @pytest.mark.parametrize("path,fault,words", SCHEMA_FAULTS,
                             ids=[f"{p}={_short(f)}" for p, f, _ in SCHEMA_FAULTS])
    def test_every_refused_value_exits_two_naming_its_key(
        self, tmp_path, capsys, monkeypatch, path, fault, words
    ):
        _no_propagation(monkeypatch)
        sub, cfg = _base_holding(path)
        text = json.dumps(_set_leaf(cfg, path, fault)).replace(f'"{LITERAL_1E400}"', "1e400")
        config = tmp_path / "config.json"
        config.write_text(text)
        with pytest.raises(ConfigError) as info:
            cli.run(sub, str(config), str(tmp_path / "out"))
        assert info.value.path == path
        code = cli.main([sub, "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: {words}" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,path,fault,words", SCHEMA_FLAG_FAULTS,
                             ids=[f"{f}={v}" for f, _, v, _ in SCHEMA_FLAG_FAULTS])
    def test_every_refused_flag_value_exits_two_naming_its_flag(
        self, tmp_path, capsys, monkeypatch, flag, path, fault, words
    ):
        _no_propagation(monkeypatch)
        sub, cfg = _base_holding(path)
        config = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            cli.run(sub, str(config), str(tmp_path / "out"), **{flag[2:]: fault})
        assert info.value.path == flag
        argv = [sub, "--config", str(config), "--out", str(tmp_path / "o"), flag, str(fault)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{flag}: {words}" in err and "Traceback" not in err

    @pytest.mark.parametrize("path,sibling", SCHEMA_UNKNOWN, ids=[p for p, _ in SCHEMA_UNKNOWN])
    def test_an_unknown_key_in_every_block_exits_two_naming_it(
        self, tmp_path, capsys, monkeypatch, path, sibling
    ):
        _no_propagation(monkeypatch)
        sub, cfg = _base_holding(sibling)
        config = write_config(tmp_path, _set_leaf(cfg, path, 1))
        with pytest.raises(ConfigError) as info:
            cli.run(sub, str(config), str(tmp_path / "out"))
        assert info.value.path == path
        assert cli.main([sub, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: unknown key" in err and "Traceback" not in err

    @pytest.mark.parametrize("path,value", SCHEMA_ADMITS,
                             ids=[f"{p}={_short(v)}" for p, v in SCHEMA_ADMITS])
    def test_values_at_and_inside_each_bound_pass_the_walk(self, path, value):
        sub, cfg = _base_holding(path)
        _set_leaf(cfg, path, value)
        table = {k: e for k, e in cli.SCHEMA.items() if k not in cli.SUBCOMMANDS or k == sub}
        cli._walk(cfg, table, "")

    @pytest.mark.parametrize("sub,body", SCHEMA_BASES, ids=[s for s, _ in SCHEMA_BASES])
    def test_every_base_config_passes_validation(self, tmp_path, monkeypatch, sub, body):
        # a base with a fault of its own would name that key, not the edited one
        _no_propagation(monkeypatch)
        config = write_config(tmp_path, dict(body, schema_version=1))
        # refused configs raise ConfigError; these reach the propagation
        # stubs, or, for calibrate, the absent data files
        with pytest.raises((AssertionError, IoError)):
            cli.run(sub, str(config), str(tmp_path / "out"), threads=1)

    def test_bases_hold_every_leaf(self):
        for path, _ in SCHEMA_LEAVES:
            _base_holding(path)
