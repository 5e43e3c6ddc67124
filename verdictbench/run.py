"""Verdict benchmark: time to an (n, k, ell) verdict on four named workloads.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 verdictbench/run.py --workload all --seconds S     # every workload

Run it from the root of a checkout; the package is imported from ``src``.
Each pass runs one workload once, in a fresh single-threaded worker process
(``worker.py``). Passes repeat until ``--seconds`` is spent, and medians are
reported.

Every time is in seconds at a reference host speed: the wall time rescaled
by a speed probe sampled inside the measured thread (``probe.py``), because
this shared host's speed drifts by tens of percent from run to run. The
plain wall medians are printed beside them.

With ``--trace 0`` the metrics are end to end:

- ``verdict_s``: seconds of one pass over every configuration, replay and
  check of the workload;
- ``setup_s``: seconds, in a fresh interpreter, to import the package and
  build the workload's specs and budgets, up to the first call into the
  package's work; extra setup-only workers give it more samples;
- ``peak_rss_mb``: peak resident memory of a pass's worker.

With ``--trace 1`` passes alternate between untraced and traced (see
``layers.py``), and the metrics are per layer: exact counts, self times, the
derived ratios and the tracing overhead.

Checks of the verdicts against known answers (``answers.py``) are counted
in ``attempted`` and ``failed``; ``failed / attempted`` is the failed share.
The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds run information.
Exits 2 without a result when the checkout has no ``src/partialagreement``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "partialagreement"

WORKLOADS = ("oracle-dfs", "crash-sweep", "sync-rounds", "sample-replay")
# Only these read the seed (its sampled parts); the rest are exhaustive.
SEEDED = ("sample-replay",)

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DERIVED = {
    "verify.states": "count",
    "verify.executions": "count",
    "verify.violations": "count",
    "verify.dedup_hits": "count",
    "verify.useful_child_ratio": "ratio",
    "verify.distinct_outcome_ratio": "ratio",
    "verify.states_per_s": "1/s",
    "trace.overhead_s": "s",
}
PER_LAYER = {
    **{
        metric: unit
        for layer in layers.LAYERS
        for metric, unit in ((layers.count_metric(layer), "count"), (f"{layer}.self_s", "s"))
    },
    **DERIVED,
}

SETUP_PROBES = 7  # setup-only workers per run, besides each pass's own setup
RUN_LIMIT_S = 170  # every worker of a run ends within this, so a run ends within 3 minutes


class Run:
    """The workers of one benchmark run and what they reported."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.started = time.monotonic()
        self.errors: list = []

    def worker(self, mode: str) -> dict | None:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--size", self.size,
        ]
        # The same string hashes, so the same set and dict layouts, in every worker.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} worker passed the {RUN_LIMIT_S}s limit")
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{mode} worker exited {done.returncode}: {' | '.join(tail)}")
            return None
        return json.loads(lines[-1])

    def passes(self, seconds: float, modes) -> list:
        """Passes cycling through ``modes`` until the next would overrun ``seconds``."""
        out = []
        started = time.monotonic()
        while True:
            mode = modes[len(out) % len(modes)]
            result = self.worker(mode)
            if result is None:
                return out
            result["mode"] = mode
            out.append(result)
            elapsed = time.monotonic() - started
            if len(out) >= len(modes) and elapsed * (len(out) + 1) / len(out) > seconds:
                return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced: list, traced: list) -> tuple[dict, list, list]:
    """Per-layer metrics, the metrics not applicable, and count mismatches."""
    exact = [
        {k: v for k, v in p["layers"].items() if not k.endswith(".self_s")}
        | {k: p["tally"][k] for k in ("states", "async_states", "executions", "violations")}
        | {"distinct_outcomes": p["distinct_outcomes"]}
        for p in traced
    ]
    mismatches = [] if all(e == exact[0] for e in exact) else ["traced counts differ between passes"]
    counts = exact[0]
    out = {}
    for layer in layers.LAYERS:
        out[layers.count_metric(layer)] = counts[layers.count_metric(layer)]
        out[f"{layer}.self_s"] = statistics.median(p["layers"][f"{layer}.self_s"] for p in traced)
    clones = counts["shmem.clone.calls"]
    checks = counts["verify.check_agreement.calls"]
    out.update({
        "verify.states": counts["states"],
        "verify.executions": counts["executions"],
        "verify.violations": counts["violations"],
        "verify.dedup_hits": counts["shmem.key.calls"] - counts["async_states"],
        "verify.useful_child_ratio": _ratio(counts["async_states"], clones),
        "verify.distinct_outcome_ratio": _ratio(counts["distinct_outcomes"], checks),
        "verify.states_per_s": statistics.median(
            _ratio(p["tally"]["exhaustive_states"], p["tally"]["exhaustive_s"]) for p in untraced
        ),
        "trace.overhead_s": statistics.median(p["verdict_s"] for p in traced)
        - statistics.median(p["verdict_s"] for p in untraced),
    })
    idle = [layer for layer in layers.LAYERS if counts[layers.count_metric(layer)] == 0]
    not_applicable = [
        m for layer in idle for m in (layers.count_metric(layer), f"{layer}.self_s")
    ]
    if not clones:
        not_applicable.append("verify.useful_child_ratio")
    if not checks:
        not_applicable.append("verify.distinct_outcome_ratio")
    if not untraced[0]["tally"]["exhaustive_states"]:
        not_applicable.append("verify.states_per_s")
    return out, not_applicable, mismatches


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.rglob("*.py")))


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """One benchmark run: returns (result, info), or None when no pass finished."""
    run = Run(workload, seed, size)
    probes = [run.worker("setup") for _ in range(SETUP_PROBES)]
    passes = run.passes(seconds, ("pass", "traced") if trace else ("pass",))
    untraced = [p for p in passes if p["mode"] == "pass"]
    traced = [p for p in passes if p["mode"] == "traced"]
    if not untraced or (trace and not traced):
        print("no pass finished: " + "; ".join(run.errors), file=sys.stderr)
        return None
    attempted = sum(p["tally"]["attempted"] for p in passes) + len(run.errors)
    failed = sum(p["tally"]["failed"] for p in passes) + len(run.errors)
    failures = run.errors + [f for p in passes for f in p["tally"]["failures"]]
    info = {
        "workload": workload,
        "seed": seed,
        "seed_used": workload in SEEDED,
        "size": size,
        "passes": len(untraced),
        "verdict_s_per_pass": [p["verdict_s"] for p in untraced],
        "verdict_wall_s": statistics.median(p["verdict_wall_s"] for p in untraced),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "host": "shared host; the benchmark cannot pin CPUs or drop caches",
        "src_lines": src_lines(),
        "failures": failures[:10],
    }
    if trace:
        metrics, info["not_applicable"], mismatches = layer_metrics(untraced, traced)
        info["traced_passes"] = len(traced)
        attempted += 1
        failed += len(mismatches)
        info["failures"] += mismatches
        units = PER_LAYER
    else:
        setups = [p for p in probes + passes if p is not None]
        metrics = {
            "verdict_s": statistics.median(p["verdict_s"] for p in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        info["setup_samples"] = len(setups)
        info["setup_wall_s"] = statistics.median(p["setup_wall_s"] for p in setups)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def summary_lines(workload: str, result: dict, info: dict) -> list:
    lines = [
        f"{workload}: {name} = {m['value']:.6g} {m['unit']}"
        for name, m in result["metrics"].items()
    ]
    lines += [
        f"{workload}: {name} = {info[name]:.6g} s (plain wall time)"
        for name in ("verdict_wall_s", "setup_wall_s")
        if name in info
    ]
    share = result["failed"] / result["attempted"]
    lines.append(
        f"{workload}: failed_share = {share:.6g} ({result['failed']} of {result['attempted']} checks)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        measured = measure(name, args.seed, args.seconds, bool(args.trace))
        if measured is None:
            return 1
        results[name], info = measured
        print("\n".join(summary_lines(name, results[name], info)))
        print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
