"""Every module of the package stays below CPython's parser doubling point."""

from __future__ import annotations

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "partialagreement"

# Where the environment sets PYTHONDONTWRITEBYTECODE=1, the benchmark's
# workers (verdictbench/worker.py) compile the package source on every pass,
# so peak_rss_mb pays for compiling the largest module whatever the
# workload runs. CPython's parser doubles its token array at 4,096 tokens:
# verify.py at 3,901 tokens compiled at a peak of 1.32 MB, padded to 4,093
# at 1.39 MB, and padded to 4,105 at 1.61 MB (Python 3.11, tracemalloc
# around compile()). The sync pattern walk (syncmp.chain_patterns, about
# 560 tokens since it counts each group's patterns round by round) would
# have taken verify.py past the line; so would cell
# resolution (about 700 tokens), had the random adversaries not moved to
# the executors they drive and the input vectors to ProblemSpec. The async
# DFS then moved beside its sleep sets, into shmem.py (shmem.depth_first):
# verify.py went from 4,009 to 3,858 tokens and shmem.py from 3,003 to
# 3,584. Counting a pattern group's outcomes kept verify.py at 3,767 tokens
# (3,781 before) by recording a group and a resolved cell through one
# helper, _count_passing; stopping a sync cell at max_states took it to
# 3,783. The stepper's live-pid mask and _commit took shmem.py from 3,587
# to 3,705 tokens, still below verify.py, whose compile peak stays the
# package's largest (1.35 MB). Folding each cell by one orbit key took
# verify.py to 3,698 tokens; rejecting Decide(None) and dropping the
# to_jsonl exports took shmem.py to 3,654 and syncmp.py to 2,548. Stepping
# a sync round once per recipient (syncmp.chain_patterns' round table) took
# syncmp.py to 3,038, still below verify.py. Split a module, or move code
# out of it, before it crosses.
TOKEN_LIMIT = 4096


def parser_tokens(path: Path) -> int:
    with path.open("rb") as source:
        return sum(
            1
            for token in tokenize.tokenize(source.readline)
            if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_each_module_stays_below_the_parser_doubling_point(path):
    assert parser_tokens(path) < TOKEN_LIMIT
