"""Smoke test of the benchmark harness at tiny sizes.

Checks that a run emits exactly the metrics BENCHMARK.json names, and that a
planted wrong expectation is counted as a failure rather than hidden.
"""

import argparse
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import refs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "CLI_PROBES", 1)
    monkeypatch.setattr(run, "ALLOC_PASS_S", 0.1)


def measure(workload, trace):
    args = argparse.Namespace(workload=workload, seed=7, seconds=0.0, trace=trace)
    return run.measure(args, tiny=True)


def test_workloads_match_spec():
    import workloads
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload,trace", [
    ("oracle-sweep", 0), ("oracle-sweep", 1), ("big-inputs", 0), ("big-inputs", 1), ("cli", 1),
])
def test_every_named_metric_is_emitted(workload, trace):
    info, result = measure(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert info["failed"] == result["failed"]
    if workload == "cli":
        assert all(result["metrics"][f"cli.{c}.p50_ms"]["value"] > 0 for c in run.CLI_COMMANDS)


def test_planted_wrong_expectation_is_counted(monkeypatch):
    true_fib_mod = refs.fib_mod
    monkeypatch.setattr(refs, "fib_mod", lambda n: (true_fib_mod(n) + 1) % refs.P)
    info, result = measure("big-inputs", 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert info["failed_ratio"] == result["failed"] / result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1
    assert any("mod P" in f for f in info["failures"])
