"""A longer sweep of the random programs of ``test_reference_explorer.py``
than tier-1 runs, over a seed range given on the command line:

    python3 tests/sweep_random_programs.py FIRST LAST [--limit N]

Each seed in FIRST..LAST-1 runs three checks:

- a random async program (``check_random_async_cell``), its n and t cycling
  through every fault budget of n in {2, 3};
- a random footprint program (``check_random_chain_cell``), its n and t
  cycling through every fault budget of n in {2, 3, 4};
- a random role cell (``check_random_role_cell``), whose encoding check
  meets the first N configurations (default 20,000; 0 for all).

Pytest does not collect this file. It prints one line per family with its
seeds, mismatches and seconds, and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from conftest import _unreduced  # noqa: E402
from test_reference_explorer import (  # noqa: E402
    check_random_async_cell, check_random_chain_cell, check_random_role_cell,
)

ASYNC_CASES = [(n, t) for n in (2, 3) for t in range(1, n + 1)]
CHAIN_CASES = [(n, t) for n in (2, 3, 4) for t in range(n + 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--limit", type=int, default=20_000)
    args = parser.parse_args(argv)
    limit = args.limit or None
    families = {
        "random-async": lambda seed: check_random_async_cell(
            *ASYNC_CASES[seed % len(ASYNC_CASES)], seed, _unreduced
        ),
        "random-footprint": lambda seed: check_random_chain_cell(
            *CHAIN_CASES[seed % len(CHAIN_CASES)], seed, _unreduced
        ),
        "random-roles": lambda seed: check_random_role_cell(seed, _unreduced, limit),
    }
    failed = 0
    for name, check in families.items():
        started = time.process_time()
        mismatches = []
        for seed in range(args.first, args.last):
            try:
                check(seed)
            except AssertionError:
                mismatches.append(seed)
                traceback.print_exc()
        failed += len(mismatches)
        print(
            f"{name}: seeds {args.first}..{args.last - 1}, {len(mismatches)} mismatches "
            f"{mismatches[:20]}, {time.process_time() - started:.1f} s",
            flush=True,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
