"""Tiny-size smoke run of every workload, plus the tracer's loud failures.

    python3 -m pytest perfbench/test_smoke.py

The figures of a tiny run mean nothing; the test checks that each run
completes, passes its own correctness checks and reports every metric that
BENCHMARK.json names, and that a traced function that is missing or
bypassed raises instead of reading as zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from tracer import TraceError, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("owner, attr", [
    ("samb.model", "masked_attention"),
    ("samb.tensor", "softmax"),
    ("samb.trainer", "build_table"),
])
def test_missing_function_fails_loudly(monkeypatch, owner, attr):
    import importlib
    monkeypatch.delattr(importlib.import_module(owner), attr)
    with pytest.raises(TraceError, match=attr):
        Tracer().install()


def test_bypassed_layer_fails_loudly():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(TraceError, match="attention.gumbel"):
            tracer.check_expected(WORKLOADS["desk-train"].layers)
    finally:
        tracer.uninstall()
