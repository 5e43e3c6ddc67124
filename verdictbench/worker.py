"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 verdictbench/worker.py --workload NAME --seed N --mode MODE --size SIZE

MODE is ``setup`` (import and build only), ``pass`` or ``traced``. The
package is imported from the checkout's ``src`` directory, never from an
installed copy. Times are in seconds at the reference host speed
(``probe.py``); the wall times are reported beside them. ``run.py``
starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    with SpeedProbe() as setup:
        sys.path.insert(0, str(SRC))
        import workloads  # imports the package

        plan = workloads.build(args.workload, args.size, args.seed)
    package = Path(workloads.pa.__file__).resolve()
    if not package.is_relative_to(SRC):
        print(f"imported {package}, not the checkout's copy under {SRC}", file=sys.stderr)
        return 2
    out = {"setup_s": setup.scaled(), "setup_wall_s": setup.wall}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tally = workloads.Tally()
    plan.prepare(tally)
    tracer = None
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    try:
        with SpeedProbe() as verdict:
            plan.run(tally)
    finally:
        if tracer is not None:
            tally.check(tracer.restore(), "every traced callable is restored")
    out["verdict_s"] = verdict.scaled()
    out["verdict_wall_s"] = verdict.wall
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["tally"] = tally.to_dict()
    out["tally"]["exhaustive_s"] *= verdict.factor
    if tracer is not None:
        out["layers"] = {
            name: value * verdict.factor if name.endswith(".self_s") else value
            for name, value in tracer.metrics().items()
        }
        out["distinct_outcomes"] = len(tracer.outcomes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
