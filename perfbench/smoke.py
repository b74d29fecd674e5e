"""Smoke test of the benchmark harness; not a performance gate.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Every workload runs once untraced and twice traced at ``--seconds 1``, so a
run is the shortest a run can be: one round, or one untraced and one traced
round.  The test checks that each run exits 0, that its last line is the
result object, that every metric named in ``BENCHMARK.json`` is printed with
its unit, that the outputs pass their checks with no failed trial, and that
the two traced runs print the same ``*.calls`` counts.  Last, it checks that
the benchmark fails, printing no result, where the program's sources are
missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{what}: {proc.stdout}")
    return result


def _check_metrics(result: dict, declared: list[dict], what: str) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed != wanted:
        raise AssertionError(f"{what}: printed {printed}, BENCHMARK.json declares {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} = {m['value']!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        _check_metrics(_result(_run(ROOT, workload, 0), f"{workload} untraced"), bench["end_to_end"], workload)
        traced = [_result(_run(ROOT, workload, 1), f"{workload} traced") for _ in range(2)]
        _check_metrics(traced[0], bench["per_layer"], workload)
        calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in traced]
        if calls[0] != calls[1]:
            raise AssertionError(f"{workload}: traced runs count calls differently: {calls}")
        print(f"ok {workload}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok without sources: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
