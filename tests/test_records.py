"""The package's value records are named tuples: equal fields make equal,
hash-equal, immutable values, construction still checks its fields, and
importing the package loads no ``dataclasses``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from partialagreement import (
    AsyncSchedule,
    BoundReport,
    ConsensusObject,
    CrashPattern,
    ExecutionTrace,
    ExploreBudget,
    ProblemSpec,
    RoundTrace,
    SpecError,
    Verdict,
    get_algorithm,
)
from partialagreement.algorithms import Built, CatalogEntry

SRC = Path(__file__).resolve().parents[1] / "src"


def _records():
    """Each record type with the fields of one value of it."""
    schedule = AsyncSchedule((0, 1), frozenset({(1, 2)}))
    pattern = CrashPattern(((1, 1, {0}),))
    return [
        ProblemSpec(n=4, m=3, t=1, k=2, ell=2, validity="strong"),
        BoundReport("R5", sufficient_k=2, necessary_k=3, assumptions=("a",)),
        ConsensusObject(2, 1, frozenset({0})),
        pattern,
        ExploreBudget(max_runs=9, mode="sample", seed=3),
        schedule,
        ExecutionTrace((0, 1), ((0, 0, "decide", 0),), (0, None), frozenset({1}), frozenset(), False, schedule),
        RoundTrace((0, 1), (((), ()),), (0, None), {1: 1}, frozenset(), pattern),
        Verdict(True, (0,), 0, True, True, ((0, 1),)),
        Built({0: "program"}, rounds=2),
        CatalogEntry(*get_algorithm("max-wait")),
    ]


@pytest.mark.parametrize("index", range(len(_records())), ids=[type(r).__name__ for r in _records()])
def test_a_record_is_an_immutable_value(index):
    one, other = _records()[index], _records()[index]
    assert one == other and one is not other
    try:
        hash(one)
    except TypeError:  # a dict field: RoundTrace.crashed, Built.programs
        assert type(one) in (RoundTrace, Built)
    else:
        assert hash(one) == hash(other)
    with pytest.raises(AttributeError):
        setattr(one, one._fields[0], other[0])


BAD_RECORDS = [
    (ProblemSpec, dict(n="3")),
    (ProblemSpec, dict(n=3, g=1.0, model="sm-g")),
    (ProblemSpec, dict(n=1)),
    (ProblemSpec, dict(n=3, m=1)),
    (ProblemSpec, dict(n=3, t=-1)),
    (ProblemSpec, dict(n=3, t=4)),
    (ProblemSpec, dict(n=3, k=0)),
    (ProblemSpec, dict(n=3, k=4)),
    (ProblemSpec, dict(n=3, ell=0)),
    (ProblemSpec, dict(n=3, ell=3)),
    (ProblemSpec, dict(n=3, validity="fair")),
    (ProblemSpec, dict(n=3, model="carrier-pigeon")),
    (ProblemSpec, dict(n=3, model="sm-g")),
    (ProblemSpec, dict(n=3, model="sm-g", g=0)),
    (ProblemSpec, dict(n=3, model="sm-g", g=4)),
    (ProblemSpec, dict(n=3, g=1)),
    (BoundReport, dict(row="R1", sufficient_k=3, necessary_k=2)),
    (ConsensusObject, dict(capacity=0)),
    (ExploreBudget, dict(max_runs="9")),
    (ExploreBudget, dict(seed=1.5)),
    (ExploreBudget, dict(max_runs=0)),
    (ExploreBudget, dict(max_states=0)),
    (ExploreBudget, dict(max_input_vectors=0)),
    (ExploreBudget, dict(samples=0)),
    (ExploreBudget, dict(max_recorded_violations=-1)),
    (ExploreBudget, dict(mode="guess")),
]


@pytest.mark.parametrize("record, kwargs", BAD_RECORDS)
def test_a_record_checks_its_fields(record, kwargs):
    with pytest.raises(SpecError):
        record(**kwargs)


def test_a_spec_without_k_asks_for_full_agreement():
    assert ProblemSpec(5).k == ProblemSpec(5, 2, 0, None).k == 5
    assert ProblemSpec(5) == ProblemSpec(5, k=5)


def test_a_crash_pattern_is_its_sorted_victims():
    victims = [(2, 1, [0, 1]), (0, 2, (2,)), (1, 1, set())]
    one, other = CrashPattern(tuple(victims)), CrashPattern(victims=reversed(victims))
    assert one == other and hash(one) == hash(other)
    assert one.victims == ((0, 2, frozenset({2})), (1, 1, frozenset()), (2, 1, frozenset({0, 1})))
    assert CrashPattern() == CrashPattern(()) == CrashPattern.decode("p1:")


def test_a_budget_serialises_every_field():
    assert ExploreBudget().to_dict() == {
        "max_runs": 500_000,
        "max_states": 4_000_000,
        "max_input_vectors": 4096,
        "samples": 100,
        "mode": "auto",
        "seed": 0,
        "max_recorded_violations": 25,
    }
    budget = ExploreBudget(7, 8, 9, 10, "sample", 11, 0)
    assert ExploreBudget(**budget.to_dict()) == budget
    assert list(budget.to_dict().values()) == [7, 8, 9, 10, "sample", 11, 0]


def test_the_import_and_an_explore_load_no_dataclasses():
    # dataclasses imports inspect, ast, dis and copy, which the package
    # never uses; every fresh interpreter (a CLI replay) would pay for them.
    script = (
        "import sys, partialagreement as pa, partialagreement.cli\n"
        "pa.explore('max-wait', pa.ProblemSpec(n=3, m=2, t=1, k=2))\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
