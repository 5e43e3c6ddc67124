"""Synchronous executor tests: lockstep semantics, crash patterns, min-flood."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, strategies as st

import partialagreement
from partialagreement import (
    CrashPattern,
    ProblemSpec,
    SpecError,
    build_algorithm,
    check_agreement,
    enumerate_crash_patterns,
    run_sync,
)
from partialagreement.syncmp import pattern_groups


def flood(spec, inputs):
    return build_algorithm("min-flood", spec, inputs)


def test_fault_free_flood_decides_global_min():
    spec = ProblemSpec(n=3, m=3, t=1, k=3)
    built = flood(spec, (2, 1, 0))
    trace = run_sync(built.programs, (2, 1, 0), CrashPattern(), rounds=2, spec=spec)
    assert trace.decisions == (0, 0, 0)


def test_fault_free_min_reached_regardless_of_round_count():
    # the preference stabilizes after round one; extra rounds are idempotent
    spec = ProblemSpec(n=4, m=4, t=3, k=4)
    for rounds in (1, 2, 3):
        built = flood(spec, (3, 2, 1, 0))
        trace = run_sync(built.programs, (3, 2, 1, 0), CrashPattern(), rounds=rounds, spec=spec)
        assert trace.decisions == (0, 0, 0, 0)


def test_partial_send_round_one_then_recovery_round_two():
    # pid 2 (input 0) crashes in round 1 reaching only pid 0; in round 2
    # pid 0 floods 0 and both survivors decide 0
    spec = ProblemSpec(n=3, m=3, t=1, k=2)
    inputs = (2, 1, 0)
    pattern = CrashPattern(((2, 1, frozenset({0})),))
    built = flood(spec, inputs)
    trace = run_sync(built.programs, inputs, pattern, rounds=2, spec=spec)
    assert trace.decisions == (0, 0, None)
    assert trace.crashed == {2: 1}


def test_single_round_is_insufficient_negative_control():
    # same crash with only one round: the survivors split 0 vs 1
    spec = ProblemSpec(n=3, m=3, t=1, k=2)
    inputs = (2, 1, 0)
    pattern = CrashPattern(((2, 1, frozenset({0})),))
    built = flood(spec, inputs)
    trace = run_sync(built.programs, inputs, pattern, rounds=1, spec=spec)
    assert trace.decisions == (0, 1, None)


def test_lockstep_integrity_and_victim_silence():
    spec = ProblemSpec(n=3, m=3, t=2, k=1)
    inputs = (2, 1, 0)
    pattern = CrashPattern(((1, 1, frozenset({0})), (2, 2, frozenset())))
    built = flood(spec, inputs)
    trace = run_sync(built.programs, inputs, pattern, rounds=3, spec=spec)
    # victim of round r sends nothing in rounds > r
    for rnd, (sent, delivered) in enumerate(trace.rounds, start=1):
        for src, dst, payload in sent:
            assert trace.crashed.get(src, rnd) >= rnd
        for src, dst, payload in delivered:
            # deliveries land only on processes alive past this round
            assert trace.crashed.get(dst, rnd + 1) > rnd
    # a victim's partial delivery reaches exactly recipients_reached
    r1_sent_by_1 = {(d for s, d, _ in trace.rounds[0][0] if s == 1)}
    r1_delivered_by_1 = {d for s, d, _ in trace.rounds[0][1] if s == 1}
    assert r1_delivered_by_1 == {0}


def test_preference_monotonically_nonincreasing():
    spec = ProblemSpec(n=4, m=4, t=2, k=2)
    inputs = (3, 2, 1, 0)
    pattern = CrashPattern(((3, 1, frozenset({0})), (2, 2, frozenset({1}))))
    built = flood(spec, inputs)
    trace = run_sync(built.programs, inputs, pattern, rounds=3, spec=spec)
    prefs = {pid: [inputs[pid]] for pid in range(4)}
    for sent, delivered in trace.rounds:
        for src, dst, payload in sent:
            assert payload <= prefs[src][-1] or payload == prefs[src][-1]
        for pid in range(4):
            got = [p for s, d, p in delivered if d == pid]
            if got:
                prefs[pid].append(min(got))
    for seq in prefs.values():
        assert all(a >= b for a, b in zip(seq, seq[1:]))


def test_all_crash_pattern_is_vacuous():
    spec = ProblemSpec(n=2, m=2, t=2, k=2)
    pattern = CrashPattern(((0, 1, frozenset()), (1, 1, frozenset())))
    built = flood(spec, (0, 1))
    trace = run_sync(built.programs, (0, 1), pattern, rounds=2, spec=spec)
    assert trace.decisions == (None, None)
    verdict = check_agreement(trace, spec)
    assert verdict.passed and verdict.witness_set == ()


def test_pattern_validation():
    with pytest.raises(SpecError):
        CrashPattern(((0, 1, frozenset()), (0, 2, frozenset()))).validate(2, 2, 2)
    with pytest.raises(SpecError):
        CrashPattern(((0, 3, frozenset()),)).validate(2, 1, 2)
    with pytest.raises(SpecError):
        CrashPattern(((0, 1, frozenset({7})),)).validate(2, 1, 2)
    with pytest.raises(SpecError):
        CrashPattern(((0, 1, frozenset()), (1, 1, frozenset()))).validate(2, 1, 2)


def test_pattern_token_roundtrip():
    pattern = CrashPattern(((2, 1, frozenset({0, 1})), (0, 2, frozenset())))
    assert CrashPattern.decode(pattern.encode()) == pattern
    with pytest.raises(SpecError):
        CrashPattern.decode("nope")


@given(
    st.dictionaries(
        st.integers(0, 12),
        st.tuples(st.integers(1, 6), st.frozensets(st.integers(0, 12))),
        max_size=4,
    )
)
def test_pattern_token_roundtrip_random(victims):
    pattern = CrashPattern(tuple((p, r, rcpts) for p, (r, rcpts) in victims.items()))
    assert CrashPattern.decode(pattern.encode()) == pattern


def test_enumeration_count_example():
    # n=2, t=1, rounds=1: no-crash plus 2 victims x 4 recipient subsets
    patterns = list(enumerate_crash_patterns(2, 1, 1))
    assert len(patterns) == 9


def test_enumeration_no_crash_only_when_t_zero():
    patterns = list(enumerate_crash_patterns(3, 0, 5))
    assert patterns == [CrashPattern()]


def test_enumeration_deterministic_and_duplicate_free():
    a = list(enumerate_crash_patterns(3, 2, 2, canonical=True))
    b = list(enumerate_crash_patterns(3, 2, 2, canonical=True))
    assert a == b
    assert len(set(a)) == len(a) == 97


# A grid point with more patterns than this compares its first ones only:
# the whole grid below holds 12.9 million patterns.
PATTERNS_COMPARED = 10_000


@pytest.mark.parametrize("canonical", [False, True])
def test_the_pattern_groups_flatten_to_the_enumerator(canonical):
    # The explorer walks pattern_groups; the enumerator is its flattening,
    # so both give the same patterns in the same order.
    for n, t, rounds in itertools.product(range(2, 6), range(4), range(1, 4)):
        groups = list(pattern_groups(n, t, rounds, canonical=canonical))
        flat = list(itertools.islice(
            (
                CrashPattern(tuple(zip(victims, rnds, reached)))
                for victims, rnds, pools in groups
                for reached in itertools.product(*pools)
            ),
            PATTERNS_COMPARED,
        ))
        enumerated = enumerate_crash_patterns(n, t, rounds, canonical=canonical)
        assert flat == list(itertools.islice(enumerated, PATTERNS_COMPARED)), (n, t, rounds)
        total = sum(math.prod(map(len, pools)) for _, _, pools in groups)
        if total <= PATTERNS_COMPARED:
            assert len(flat) == total and next(enumerated, None) is None
        if not canonical:
            # each victim picks a round and any subset of the n pids
            assert total == sum(
                math.comb(n, size) * (rounds * 2**n) ** size for size in range(min(t, n) + 1)
            )
    internal = {"pattern_groups", "chain_patterns", "pattern_outcome"}
    assert not internal & set(partialagreement.__all__)


def test_canonical_mode_preserves_reachable_outcomes():
    # full vs canonical enumeration reach exactly the same decision outcomes
    spec = ProblemSpec(n=3, m=3, t=1, k=2)
    inputs = (2, 1, 0)
    built = flood(spec, inputs)

    def outcomes(canonical):
        seen = set()
        for pattern in enumerate_crash_patterns(3, 1, 2, canonical=canonical):
            trace = run_sync(built.programs, inputs, pattern, rounds=2, spec=spec)
            seen.add((trace.decisions, tuple(sorted(trace.crashed))))
        return seen

    assert outcomes(True) == outcomes(False)


def test_finalize_must_return_decide():
    class Sloppy:
        state0 = 0

        def round_send(self, state, rnd):
            return state, state

        def round_recv(self, state, rnd, inbox):
            return state

        def finalize(self, state):
            return 7

    with pytest.raises(SpecError):
        run_sync({0: Sloppy(), 1: Sloppy()}, (0, 1), CrashPattern(), rounds=1)


def test_round_trace_exports():
    spec = ProblemSpec(n=3, m=3, t=1, k=2)
    built = flood(spec, (2, 1, 0))
    pattern = CrashPattern(((2, 1, frozenset({0})),))
    trace = run_sync(built.programs, (2, 1, 0), pattern, rounds=2, spec=spec)
    doc = trace.to_dict()
    assert doc["decisions"] == [0, 0, None]
    assert doc["crashed"] == {"2": 1}
    assert CrashPattern.decode(doc["pattern"]) == pattern
