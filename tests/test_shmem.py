"""Asynchronous executor tests: register discipline, schedules, traces."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from partialagreement import (
    AsyncSchedule,
    BudgetExceededError,
    ModelViolationError,
    ProblemSpec,
    RegisterSpace,
    SpecError,
    build_algorithm,
    enumerate_async_schedules,
    run_async,
)
from partialagreement.shmem import Decide, Read


def no_comm(spec, inputs):
    return build_algorithm("no-comm", spec, inputs)


def max_wait(spec, inputs):
    return build_algorithm("max-wait", spec, inputs)


# --- register discipline ----------------------------------------------------


def test_registers_single_writer_enforced():
    regs = RegisterSpace(3)
    with pytest.raises(ModelViolationError):
        regs.write(0, 1, 0, "x")


def test_registers_next_unused_index_enforced():
    regs = RegisterSpace(2)
    regs = regs.append(0, "a")
    with pytest.raises(ModelViolationError):
        regs.write(0, 0, 0, "b")  # cell already written
    with pytest.raises(ModelViolationError):
        regs.write(0, 0, 2, "b")  # gap
    regs = regs.write(0, 0, 1, "b")
    assert regs.read(0, 0) == "a" and regs.read(0, 1) == "b"
    assert regs.read(1, 0) is None


# --- schedule validation and encoding ---------------------------------------


def test_schedule_crash_budget_checked():
    sched = AsyncSchedule((0, 1), frozenset({(0, 2), (1, 2)}))
    with pytest.raises(SpecError):
        sched.validate(2, 1)
    sched.validate(2, 2)


def test_schedule_crashed_process_cannot_step_later():
    with pytest.raises(SpecError):
        AsyncSchedule((0, 1, 0), frozenset({(0, 1)})).validate(2, 1)


def test_schedule_token_roundtrip():
    sched = AsyncSchedule((0, 2, 1, 1), frozenset({(2, 3)}))
    assert AsyncSchedule.decode(sched.encode()) == sched
    assert AsyncSchedule.decode(AsyncSchedule().encode()) == AsyncSchedule()
    with pytest.raises(SpecError):
        AsyncSchedule.decode("bogus")


@given(
    st.lists(st.integers(0, 20), max_size=30),
    st.frozensets(st.tuples(st.integers(0, 20), st.integers(0, 40)), max_size=4),
)
def test_schedule_token_roundtrip_random(steps, crashes):
    sched = AsyncSchedule(tuple(steps), crashes)
    assert AsyncSchedule.decode(sched.encode()) == sched


@pytest.mark.parametrize("token", ["a1:0.1:2@-1", "a1:0.-1:", "a1:0:-2@1"])
def test_schedule_token_rejects_negative_numbers(token):
    with pytest.raises(SpecError):
        AsyncSchedule.decode(token)


def test_schedule_validation_rejects_negative_crash_position():
    # run_async never reaches a negative position, so the crash would be lost
    with pytest.raises(SpecError):
        AsyncSchedule((0, 1), frozenset({(2, -1)})).validate(3, 1)


# --- run_async basics -------------------------------------------------------


def test_no_comm_every_process_decides_own_input():
    spec = ProblemSpec(n=3, m=2, t=1)
    built = no_comm(spec, (0, 1, 0))
    trace = run_async(built.programs, (0, 1, 0), AsyncSchedule((0, 1, 2)), spec=spec)
    assert trace.decisions == (0, 1, 0)
    assert len([e for e in trace.events if e[2] == "decide"]) == 3
    assert not any(e[2] in ("read", "write") for e in trace.events)


def test_no_comm_locality_under_any_schedule():
    # a behavior that never reads decides as a function of its own input only
    spec = ProblemSpec(n=3, m=2, t=0)
    for perm in itertools.permutations(range(3)):
        built = no_comm(spec, (1, 0, 1))
        trace = run_async(built.programs, (1, 0, 1), AsyncSchedule(perm), spec=spec)
        assert trace.decisions == (1, 0, 1)


def test_round_robin_extension_completes_runs():
    spec = ProblemSpec(n=3, m=3, t=1)
    built = max_wait(spec, (2, 1, 0))
    trace = run_async(built.programs, (2, 1, 0), AsyncSchedule(), spec=spec)
    assert all(d is not None for d in trace.decisions)
    assert not trace.nonterminating


def test_max_wait_hand_simulated_crash_run():
    # n=3, t=1, quorum 2: pid 2 crashes before any step; the survivors see
    # each other and decide max(1, 0) = 1.
    spec = ProblemSpec(n=3, m=3, t=1)
    inputs = (1, 0, 2)
    built = max_wait(spec, inputs)
    sched = AsyncSchedule((0, 1, 0, 1, 0, 1), frozenset({(2, 0)}))
    trace = run_async(built.programs, inputs, sched, spec=spec)
    assert trace.decisions == (1, 1, None)
    assert trace.crashed == frozenset({2})
    assert not trace.nonterminating


def test_determinism_identical_traces():
    spec = ProblemSpec(n=3, m=3, t=1)
    inputs = (1, 0, 2)
    sched = AsyncSchedule((0, 1, 2, 0, 1, 2, 0, 1, 2))
    t1 = run_async(max_wait(spec, inputs).programs, inputs, sched, spec=spec)
    t2 = run_async(max_wait(spec, inputs).programs, inputs, sched, spec=spec)
    assert t1 == t2


def test_crash_monotonicity_no_events_after_crash():
    spec = ProblemSpec(n=3, m=3, t=1)
    inputs = (1, 0, 2)
    built = max_wait(spec, inputs)
    sched = AsyncSchedule((2, 0, 1, 0, 1, 0, 1), frozenset({(2, 1)}))
    trace = run_async(built.programs, inputs, sched, spec=spec)
    crash_pos = [pos for pos, pid, kind, _ in trace.events if kind == "crash"]
    for pos, pid, kind, _ in trace.events:
        if pid == 2 and kind != "crash":
            assert pos < crash_pos[0]


def test_single_writer_property_in_trace_events():
    spec = ProblemSpec(n=4, m=4, t=1)
    inputs = (3, 2, 1, 0)
    built = max_wait(spec, inputs)
    trace = run_async(built.programs, inputs, AsyncSchedule(), spec=spec)
    next_index = [0, 0, 0, 0]
    for _, pid, kind, payload in trace.events:
        if kind == "write":
            index, _ = payload
            assert index == next_index[pid]
            next_index[pid] += 1


def test_step_bound_flags_nontermination():
    class Spinner:
        state0 = ("i",)

        def step(self, state, obs):
            return state, Read(0, 0)

    progs = {0: Spinner(), 1: Spinner()}
    trace = run_async(progs, (0, 1), AsyncSchedule(), step_bound=10)
    assert trace.nonterminating
    assert trace.decisions == (None, None)


def test_acting_after_decide_is_rejected():
    from partialagreement.shmem import AsyncRun

    class DoubleAgent:
        state0 = ("i",)

        def step(self, state, obs):
            return state, Decide(0)

    progs = {0: DoubleAgent(), 1: DoubleAgent()}
    run = AsyncRun(progs, (0, 0))
    run.step(0)
    with pytest.raises(ModelViolationError):
        run.step(0)
    # run_async treats a scheduled step for a decided process as a no-op so
    # replay encodings stay robust
    trace = run_async(progs, (0, 0), AsyncSchedule((0, 0, 1)))
    assert trace.decisions == (0, 0)


def test_writing_someone_elses_register_is_rejected():
    class Vandal:
        state0 = ("i",)

        def step(self, state, obs):
            # bypasses the append helper on purpose
            return state, Read(0, 0)

    # direct register API abuse is already covered; here the engine path:
    # Write always appends to the caller's own array, so single-writer abuse
    # is only reachable through RegisterSpace.write, tested above.
    regs = RegisterSpace(2)
    with pytest.raises(ModelViolationError):
        regs.write(1, 0, 0, "x")


# --- schedule enumeration ----------------------------------------------------


def test_enumeration_default_words():
    # documented default: all words of length max_steps over uncrashed pids
    scheds = list(enumerate_async_schedules(2, 0, 2))
    assert [s.steps for s in scheds] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(not s.crashes for s in scheds)


def test_enumeration_one_step_processes():
    # with a one-step-decide eligibility hook the two complete interleavings
    # are exactly the two orders
    def runnable(steps, crashed):
        return [p for p in range(2) if p not in crashed and p not in steps]

    scheds = list(enumerate_async_schedules(2, 0, 2, runnable=runnable))
    assert [s.steps for s in scheds] == [(0, 1), (1, 0)]


def test_enumeration_crash_placements_counted_by_oracle():
    # independent count: complete schedules for one-step processes, n=2, t=1:
    # crash-free orders (2) plus, for each prefix point, ascending crash
    # choices among not-yet-stepped processes. Brute-force oracle below.
    def runnable(steps, crashed):
        return [p for p in range(2) if p not in crashed and p not in steps]

    scheds = list(enumerate_async_schedules(2, 1, 2, runnable=runnable))
    assert len(set(scheds)) == len(scheds)
    crash_free = [s for s in scheds if not s.crashes]
    assert {s.steps for s in crash_free} == {(0, 1), (1, 0)}
    # every crashed pid never steps at or after its crash position
    for s in scheds:
        s.validate(2, 1)
    # oracle count: enumerate decision trees by hand: from the empty prefix
    # we may crash 0 then schedule 1 (1), crash 1 then schedule 0 (1),
    # crash 0 and 1 is barred by t=1; step 0 then {crash 1 (1), step 1 (1)};
    # step 1 then {crash 0 (1), step 0 (1)} -> 6 complete schedules.
    assert len(scheds) == 6


def test_enumeration_cap_raises_budget_error():
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_async_schedules(3, 1, 4, cap=10))
    assert err.value.count == 11


def test_enumeration_crash_budget_capped_at_n():
    # requesting t > n caps at n victims
    scheds = list(enumerate_async_schedules(2, 5, 2))
    assert max(len(s.crashes) for s in scheds) <= 2


def test_enumeration_requires_enough_steps():
    with pytest.raises(SpecError):
        list(enumerate_async_schedules(3, 0, 2))


def test_trace_exports():
    spec = ProblemSpec(n=3, m=3, t=1)
    built = max_wait(spec, (1, 0, 2))
    trace = run_async(built.programs, (1, 0, 2), AsyncSchedule(), spec=spec)
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == len(trace.events)
    assert all(len(line.split("\t")) == 4 for line in lines)
    doc = trace.to_dict()
    assert doc["decisions"] == list(trace.decisions)
    assert doc["distinct_inputs"] == 3
    assert AsyncSchedule.decode(doc["schedule"]) == trace.schedule
