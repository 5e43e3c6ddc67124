"""Consensus object and first-phase tests."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from partialagreement import (
    ConsensusObject,
    ModelViolationError,
    ProblemSpec,
    SpecError,
    check_agreement,
    compliant_assignments,
    first_phase,
)
from partialagreement.objects import agreement_holds


class Outcome:
    def __init__(self, decisions, inputs, crashed=frozenset()):
        self.decisions = tuple(decisions)
        self.inputs = tuple(inputs)
        self.crashed = crashed
        self.flags = frozenset()
        self.nonterminating = False


# --- consensus objects -------------------------------------------------------


def test_first_value_wins():
    obj, winner = ConsensusObject(capacity=3).propose(0, 2)
    assert winner == 2
    obj, winner = obj.propose(1, 0)
    assert winner == 2
    assert obj == ConsensusObject(3, 2, frozenset({0, 1}))


def test_capacity_rule():
    obj, _ = ConsensusObject(capacity=2).propose(0, 1)
    obj, _ = obj.propose(1, 0)
    with pytest.raises(ModelViolationError):
        obj.propose(2, 1)


def test_double_propose_rejected():
    obj, _ = ConsensusObject(capacity=2).propose(0, 1)
    with pytest.raises(ModelViolationError):
        obj.propose(0, 0)


def test_a_propose_leaves_its_object_unchanged():
    empty = ConsensusObject(capacity=2)
    after, _ = empty.propose(0, 1)
    assert empty == ConsensusObject(2) and empty.winner is None and not empty.proposers
    assert after.propose(1, 0) == (ConsensusObject(2, 1, frozenset({0, 1})), 1)
    assert after == ConsensusObject(2, 1, frozenset({0}))
    # the empty object still lets another pid win first
    assert empty.propose(1, 0) == (ConsensusObject(2, 0, frozenset({1})), 0)


def test_a_consensus_object_needs_a_capacity():
    with pytest.raises(SpecError):
        ConsensusObject(0)


def test_wait_freedom_crash_of_first_proposer_does_not_block():
    # executor-level: pid 0 proposes then crashes; pid 1 still gets an
    # answer in one step and decides
    from partialagreement import AsyncSchedule, run_async
    from partialagreement.shmem import Decide, Propose

    class OneShot:
        state0 = ("i",)

        def __init__(self, value):
            self.value = value

        def step(self, state, obs):
            if state[0] == "i":
                return ("w",), Propose("A", self.value)
            return state, Decide(obs)

    progs = {0: OneShot(1), 1: OneShot(0)}
    sched = AsyncSchedule((0, 1, 1), frozenset({(0, 1)}))
    trace = run_async(progs, (1, 0), sched, objects={"A": ConsensusObject(2)})
    assert trace.decisions == (None, 1)
    assert trace.crashed == frozenset({0})


def test_linearizability_all_returns_equal_first_proposal():
    obj = ConsensusObject(capacity=4)
    returns = []
    for pid, v in ((0, 3), (1, 1), (2, 0), (3, 3)):
        obj, winner = obj.propose(pid, v)
        returns.append(winner)
    assert returns == [3, 3, 3, 3]


# --- first phase --------------------------------------------------------------


def test_worst_case_split_two_blocks():
    plan = first_phase(4, 3, 1, (0, 0, 1, 1))
    counts = Counter(plan)
    assert counts[0] == 3 and counts[1] == 1
    # post hoc: the assignment meets the first phase's own contract at k=3
    # and fails one notch higher
    assert check_agreement(Outcome(plan, (0, 0, 1, 1)), ProblemSpec(n=4, m=2, t=1, k=3)).passed
    assert not check_agreement(Outcome(plan, (0, 0, 1, 1)), ProblemSpec(n=4, m=2, t=1, k=4)).passed


def test_worst_case_split_five_processes():
    plan = first_phase(5, 3, 1, (0, 0, 0, 1, 1))
    counts = Counter(plan)
    assert counts[0] == 3 and counts[1] == 2


def test_worst_case_split_unanimous_inputs():
    assert first_phase(4, 3, 1, (1, 1, 1, 1)) == (1, 1, 1, 1)


def test_worst_case_split_evenness_bound():
    # no non-witness value is received by more than ceil((n-k)/(I-1)) processes
    for inputs in itertools.product(range(3), repeat=5):
        distinct = len(set(inputs))
        if distinct < 2:
            continue
        counts = Counter(first_phase(5, 2, 1, inputs))
        witness = min(set(inputs))  # the split always elects the smallest value
        bound = -(-(5 - 2) // (distinct - 1))
        for v, c in counts.items():
            if v != witness:
                assert c <= bound


def test_fixed_assignment_must_be_compliant():
    with pytest.raises(SpecError):
        first_phase(4, 3, 1, (0, 0, 1, 1), assignment=(0, 0, 1, 1))
    assert first_phase(4, 3, 1, (0, 0, 1, 1), assignment=(0, 0, 0, 1)) == (0, 0, 0, 1)


def test_oracle_compliance_checked_for_all_inputs_n4():
    # the planned worst-case split passes the post-hoc check
    spec = ProblemSpec(n=4, m=2, t=1, k=3, validity="strong")
    for inputs in itertools.product(range(2), repeat=4):
        outcome = Outcome(first_phase(4, 3, 1, inputs), inputs)
        assert check_agreement(outcome, spec).passed, inputs


# --- compliant assignment enumeration ---------------------------------------


def test_compliant_assignment_count_matches_hand_count():
    # n=4, k=3, values {0,1}: vectors with at least three equal entries:
    # 2 * (1 + 4) = 10
    got = list(compliant_assignments(4, 3, 1, (0, 0, 1, 1)))
    assert len(got) == 10
    assert len(set(got)) == 10
    for a in got:
        assert agreement_holds(a, 4, 3, 1, (0, 0, 1, 1))


def test_compliant_assignments_strong_validity_restricts_domain():
    got = set(compliant_assignments(3, 2, 1, (0, 0, 0)))
    assert got == {(0, 0, 0)}


def test_assignment_of_wrong_length_is_refused():
    for assignment in [(0, 0, 0), (0, 0, 0, 1, 1)]:
        with pytest.raises(SpecError):
            first_phase(4, 3, 1, (0, 0, 1, 1), assignment=assignment)
