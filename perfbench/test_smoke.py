"""Smoke test of the benchmark's own code, outside the package's test suite.

    python3 -m pytest perfbench -q

A 3-point model1d sweep goes through the same measuring, checking and
tracing path as the real workloads; the test checks the result schema and
that the metric names and units are exactly those of BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def test_tiny_sweep_schema_and_metric_names():
    spec = run._metric_spec()
    w = workloads.model1d_workload(3)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        m = run.measure(w, seed=0, seconds=0, trace=trace,
                        deadline=time.monotonic() + 120, metric_spec=spec)
        res = m["result"]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert (res["correct"], res["attempted"], res["failed"]) == (True, 3, 0)
        assert {k: v["unit"] for k, v in res["metrics"].items()} == spec[kind]
        assert all(isinstance(v["value"], (int, float))
                   for v in res["metrics"].values())
        json.dumps(res, allow_nan=False)
    layers = res["metrics"]
    assert layers["model1d.integrate_trajectory.calls"]["value"] == 3
    assert layers["model1d.nfev"]["value"] > 0
    assert layers["cli.write.bytes"]["value"] > 0


def test_wrong_value_misses_its_check(tmp_path):
    w = workloads.model1d_workload(3)
    rows = [{"c": c, "lambda_c": lam, "u0": u0, "T_escape": t}
            for c in (-0.5, 0.0, 0.5)
            for lam, u0, t in [workloads.model1d_closed_form(c)]]
    rows[1]["lambda_c"] *= 1.001
    (tmp_path / "model1d.json").write_text(json.dumps({"rows": rows}))
    (tmp_path / "model1d.csv").write_text("c,lambda_c,u0,T_escape\n" + "0,0,0,0\n" * 3)
    v = w.check(w, workloads.Outcome(0, str(tmp_path), []))
    assert v.wrong and v.failed == 1 and v.reasons[1]


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model1d-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
