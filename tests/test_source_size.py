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
# around compile()). Split a module, or move code out of it, before it
# crosses.
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
