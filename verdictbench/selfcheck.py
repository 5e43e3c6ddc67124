"""Harness self-check at tiny sizes; a few seconds, and no part of the test suite.

    python3 verdictbench/selfcheck.py

For every workload, at tiny sizes, it checks that:

- ``BENCHMARK.json`` declares exactly the metrics and units ``run.py`` emits;
- an untraced run emits every end-to-end metric and a traced run every
  per-layer metric, each a number;
- every layer the workload is built to exercise is called, and every layer
  with no calls is marked not applicable;
- two traced runs give identical exact counts;
- every known answer holds (no failed check).

Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import sys

import layers
import run

# Layers each workload is built to exercise. A layer outside its set may
# still be called: a complete crash adversary will crash processes in
# oracle-dfs, for instance.
EXERCISED = {
    "oracle-dfs": (
        "shmem.step", "shmem.clone", "shmem.key", "shmem.schedule_so_far",
        "algorithms.step", "objects.propose", "objects.compliant_assignments",
        "verify.check_agreement", "verify.explore",
    ),
    "crash-sweep": (
        "shmem.step", "shmem.clone", "shmem.key", "shmem.crash", "shmem.schedule_so_far",
        "algorithms.step", "objects.propose", "verify.check_agreement", "verify.explore",
    ),
    "sync-rounds": (
        "objects.propose", "objects.compliant_assignments",
        "syncmp.enumerate_crash_patterns", "syncmp.run_sync",
        "verify.check_agreement", "verify.explore",
    ),
    "sample-replay": (
        "shmem.step", "shmem.clone", "shmem.crash", "shmem.schedule_so_far", "shmem.run_async",
        "algorithms.step", "objects.propose", "objects.compliant_assignments",
        "verify.check_agreement", "verify.explore", "core.evaluate_bounds", "cli.main",
    ),
}


def declared(bench: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(workload, result, units, problems) -> None:
    if set(result["metrics"]) != set(units):
        problems.append(f"{workload}: emitted {sorted(result['metrics'])}, declared {sorted(units)}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or metric["unit"] != units.get(name):
            problems.append(f"{workload}: bad metric {name} {metric}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload}: {result['failed']} of {result['attempted']} checks failed")


def check_workload(workload: str, problems: list) -> None:
    measured = run.measure(workload, 1, 0.5, False, "tiny")
    if measured is None:
        problems.append(f"{workload}: untraced run finished no pass")
        return
    result, info = measured
    check_result(workload, result, run.END_TO_END, problems)
    problems.extend(f"{workload}: {f}" for f in info["failures"])

    counts = []
    for _ in range(2):
        measured = run.measure(workload, 1, 0.5, True, "tiny")
        if measured is None:
            problems.append(f"{workload}: traced run finished no pass")
            return
        result, info = measured
        check_result(workload, result, run.PER_LAYER, problems)
        problems.extend(f"{workload}: {f}" for f in info["failures"])
        metrics = result["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
        for layer in layers.LAYERS:
            calls = metrics[layers.count_metric(layer)]["value"]
            if layer in EXERCISED[workload] and not calls:
                problems.append(f"{workload}: layer {layer} is never called")
            marked = f"{layer}.self_s" in info["not_applicable"]
            if marked != (calls == 0):
                problems.append(f"{workload}: layer {layer} with {calls} calls marked {marked}")
    if counts[0] != counts[1]:
        problems.append(f"{workload}: exact counts differ between two traced runs")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if declared(bench, "end_to_end") != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end metrics differ from run.END_TO_END")
    if declared(bench, "per_layer") != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer metrics differ from run.PER_LAYER")
    for workload in run.WORKLOADS:
        check_workload(workload, problems)
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
