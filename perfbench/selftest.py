#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

1. Runs every workload of ``BENCHMARK.json`` once at its smallest size, with
   tracing off and on, and asserts that the last line of output carries
   every end-to-end (resp. per-layer) metric with its unit, that each metric
   is also printed by name, and that the outputs were correct.
2. Hands the output checks perturbed bounds and asserts that each check
   fails, so a check that accepts everything cannot pass unnoticed.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402


def run_workload(name: str, trace: int) -> tuple[dict, list[str]]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, f"{name} trace={trace} failed:\n{completed.stderr}"
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, printed = run_workload(workload["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (workload["name"], trace)
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in declared}, (
                workload["name"], trace,
                sorted(set(result["metrics"]) ^ {m["name"] for m in declared}),
            )
            for metric in declared:
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"], (metric, entry)
                assert isinstance(entry["value"], (int, float)), (metric, entry)
                assert any(
                    line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                    for line in printed
                ), f"{metric['name']} not printed with its unit"
            print(f"ok  {workload['name']:<16} trace={trace} "
                  f"{result['attempted']} operations, {len(declared)} metrics")


def check_perturbed_bounds() -> None:
    golden = checks.Golden(checks.load_golden(ROOT))
    right = dict(golden.bounds["gemm"])
    assert golden.check_bound("gemm", right) == []
    assert golden.check_bound("gemm", {**right, "asymptotic": "3*Ni*Nj*Nk/sqrt(S)"})
    assert golden.check_bound("gemm", {**right, "oi_upper": "2*sqrt(S)"})
    assert golden.check_bound("atax", right)  # another kernel's bound

    row = {
        "kernel": "gemm",
        "error": None,
        "derivations": 0,
        "lower_asymptotic": right["asymptotic"],
        "lower_value": 300.0,
        "upper_loads": 447,
        "upper": {"simulations": [
            {"shape": [1, 1, 1], "policy": "lru", "simulated": True, "loads": 500},
            {"shape": [1, 1, 1], "policy": "opt", "simulated": True, "loads": 447},
        ]},
    }
    assert checks.check_report_row(row, golden) == []
    assert checks.check_report_row({**row, "lower_value": 448.0}, golden)
    assert checks.check_report_row({**row, "derivations": 1}, golden)
    assert checks.check_report_row({**row, "lower_asymptotic": "Ni*Nj*Nk"}, golden)
    inverted = copy.deepcopy(row)
    inverted["upper"]["simulations"][1]["loads"] = 501
    assert checks.check_report_row(inverted, golden)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.polybench import analyze_kernel

    payload = analyze_kernel("gemm").result.to_dict()
    assert checks.check_serve_payload("gemm", payload, golden) == []
    perturbed = dict(payload)
    perturbed["asymptotic"] = payload["asymptotic"].replace("Integer(2)", "Integer(3)", 1)
    assert perturbed["asymptotic"] != payload["asymptotic"]
    assert checks.check_serve_payload("gemm", perturbed, golden)

    entries = {name: {"calls": 0, "self_s": 0.0} for name, _, _ in run.tracer.ENTRIES}
    layers = {"trace": {"entries": entries}}
    outcome = run.Outcome()
    run.coverage("derive-rest", layers, outcome)
    assert outcome.failed == 1 and "coverage" in outcome.failures[0]
    print("ok  perturbed bounds, sandwich, policy order and coverage are all rejected")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    check_perturbed_bounds()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
