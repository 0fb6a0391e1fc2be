"""Program defects the benchmark exposes, kept as strict expected failures.

Each test states the behaviour the program should have. It fails today, so
it is marked ``xfail(strict=True)``: once a fix lands the test passes, the
strict marker turns that into a failure, and the marker (and the workaround
note in perfbench/NOTES.md) must be removed together. See NOTES.md,
"Defects found".
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import holosim.cli as cli  # noqa: E402
from holosim import tomography  # noqa: E402
from holosim.errors import (  # noqa: E402
    ConfigError,
    ConvergenceFailureError,
    OutOfRangeError,
    RatioOutOfRangeError,
)


def _config(tmp_path, payload: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, **payload}))
    return str(path)


@pytest.mark.xfail(strict=True, raises=OutOfRangeError,
                   reason="rb.interleaved accepts the non-Clifford T; run_rb builds every "
                          "channel, then find_recovery raises OutOfRangeError")
def test_interleaved_rb_rejects_a_non_clifford_gate_at_validation(tmp_path):
    cfg = _config(tmp_path, {"device": "paper-device",
                             "rb": {"m_max": 3, "k": 1, "interleaved": "T", "steps": 64}})
    with pytest.raises(ConfigError):
        cli.run("rb", cfg, str(tmp_path / "out"), threads=1)


#: an rb op of the benchmark's input distribution (Z_pi, fresh RB seed) whose
#: interleaved decay estimate lands 5e-5 above the reference one
OVERSHOOTING_RB = {"device": "paper-device", "seed": 556826104,
                   "rb": {"m_max": 20, "k": 100, "interleaved": "Z_pi"}}


@pytest.mark.xfail(strict=True, raises=RatioOutOfRangeError,
                   reason="interleaved_fidelity tolerates p_gate > p_ref only up to 1e-6 "
                          "relative, far below the sampling error of k = 100 sequences")
def test_interleaved_rb_reports_a_gate_estimated_above_the_reference(tmp_path):
    assert cli.run("rb", _config(tmp_path, OVERSHOOTING_RB), str(tmp_path / "out"),
                   threads=1) == 0


#: a uniformly drawn 300-shot QPT (fit-workload style) whose MLE hits max_nfev
FAILING_QPT = {"device": "paper-device", "seed": 1441652260,
               "qpt": {"gate": {"theta": 1.4885643527488204, "gamma": 6.244010877235908,
                                "phi": 5.070861817954394}, "shots": 300}}
#: another draw that converges, but after thousands of residual evaluations
SLOW_QPT = {"device": "paper-device", "seed": 1070832845,
            "qpt": {"gate": {"theta": 2.054851549935035, "gamma": 5.925184535719045,
                             "phi": 5.381242674882924}, "shots": 300}}


@pytest.mark.xfail(strict=True, raises=ConvergenceFailureError,
                   reason="sampled-record MLE can exhaust max_nfev (20000) on a valid record")
def test_sampled_qpt_mle_converges(tmp_path):
    assert cli.run("qpt", _config(tmp_path, FAILING_QPT), str(tmp_path / "out"),
                   threads=1) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="one MLE solve of a valid 300-shot record takes "
                                       "thousands of residual evaluations")
def test_sampled_qpt_mle_needs_few_evaluations(tmp_path, monkeypatch):
    nfev = []
    original = tomography.least_squares

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(tomography, "least_squares", counted)
    assert cli.run("qpt", _config(tmp_path, SLOW_QPT), str(tmp_path / "out"), threads=1) == 0
    assert max(nfev) < 1000, nfev


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="fit_ramsey locks onto a spurious tone near 894 kHz "
                                       "and reports T2* 8% low")
def test_ramsey_fit_recovers_t2_of_an_acceptance_style_draw():
    import math

    import numpy as np

    from holosim import calibration

    # one draw of the release round-trip distribution (fit workload, seed 21, op 39)
    t2, f1, f2 = 2.5479801169526206e-05, 140931.66507555527, 273465.9157651297
    a1, p1, a2, p2 = 0.15041779463664812, 1.4803117431248238, 0.22857481613806482, 0.7719054150722857
    times = np.linspace(0.0, 60e-6, 300)
    values = 0.5 + np.exp(-times / t2) * (a1 * np.cos(2 * math.pi * f1 * times + p1)
                                          + a2 * np.cos(2 * math.pi * f2 * times + p2))
    fit = calibration.fit_ramsey(calibration.Trace(times, values, "ramsey"))
    assert abs(fit.t2_star - t2) < 0.02 * t2
