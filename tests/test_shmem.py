"""Asynchronous executor tests: register discipline, schedules, traces."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from partialagreement import (
    AsyncSchedule,
    ModelViolationError,
    ProblemSpec,
    SpecError,
    build_algorithm,
    run_async,
)
from partialagreement.shmem import AsyncRun, Decide, Read, Write, random_walk


def no_comm(spec, inputs):
    return build_algorithm("no-comm", spec, inputs)


def max_wait(spec, inputs):
    return build_algorithm("max-wait", spec, inputs)


# --- register discipline ----------------------------------------------------


def test_registers_next_unused_index_enforced():
    # A Write names no cell: it fills the writer's next unused one. A read
    # of a cell not yet written, or outside the row, observes None.
    class Writer:
        state0 = 0

        def step(self, state, obs):
            return state + 1, (Write("a"), Write("b"), Decide(0))[state]

    class Reader:
        indices = (0, 0, 1, -1, 2)
        state0 = None

        def step(self, seen, obs):
            seen = () if seen is None else seen + (obs,)
            if len(seen) == len(self.indices):
                return seen, Decide(0)
            return seen, Read(0, self.indices[len(seen)])

    run = AsyncRun({0: Writer(), 1: Reader()}, (0, 0))
    for pid in (1, 0, 1, 0, 1, 1, 1, 1):
        run.step(pid)
    assert run.regs == (("a", "b"), ())
    assert run.states[1] == (None, "a", "b", None, None)
    assert run.decided == [None, 0]


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


class Livelock:
    """Writes its input, then reads cell 1 of the next pid's row, which no
    program writes, until it sees a value: every crash-free run livelocks,
    and a crash of the owner it reads cuts the run at the step bound."""

    state0 = "start"

    def __init__(self, pid, n, value):
        self.pid, self.n, self.value = pid, n, value

    def step(self, state, obs):
        if state == "start":
            return "spin", Write(self.value)
        if obs is not None:
            return "done", Decide(obs)
        return "spin", Read((self.pid + 1) % self.n, 1)


def livelock(n):
    return {pid: Livelock(pid, n, pid) for pid in range(n)}


def test_a_random_walk_stops_at_the_step_bound():
    # With no crash to settle a spin, every step is explicit, and the run's
    # own bound ends the walk.
    run = AsyncRun(livelock(3), (0, 1, 2), eager=True)
    visited = random_walk(run, random.Random(0), 0)
    assert run.nonterminating
    assert run.steps_taken == run.step_bound == 576
    assert visited == run.step_bound + 1


def test_run_async_cuts_an_explicit_schedule_at_the_step_bound():
    schedule = AsyncSchedule(tuple(i % 3 for i in range(700)))
    trace = run_async(livelock(3), (0, 1, 2), schedule)
    assert trace.nonterminating
    assert len(trace.events) == 576
    assert trace.schedule.steps == schedule.steps[:576]
    assert trace.decisions == (None, None, None)


class WriteReadWrite:
    """Writes, reads its own first cell 63 times, then writes again: with
    n=1 its first step and the 63 settled reads take an eager run to its
    bound of 64 steps, with the second write still due."""

    state0 = 0

    def step(self, state, obs):
        if state in (0, 64):
            return state + 1, Write(state)
        if state == 65:
            return state, Decide(obs)
        return state + 1, Read(0, 0)


def test_a_settled_step_that_reaches_the_bound_flags_the_run():
    run = AsyncRun({0: WriteReadWrite()}, (0,), eager=True)
    run.step(0)
    assert run.steps_taken == run.step_bound == 64
    assert run.nonterminating
    trace = run_async({0: WriteReadWrite()}, (0,), run.schedule_so_far())
    assert trace.nonterminating
    assert len(trace.events) == 64
    assert trace.schedule == run.schedule_so_far()


class ReadCrashedOwner:
    """pid 1 reads pid 0's first cell 256 times, then writes; pid 0 only
    writes. Once pid 0 crashes unwritten, the reads are fixed: with n=2 the
    crash's settling takes an eager run to its bound of 256 steps, with the
    write still due."""

    state0 = 0

    def __init__(self, pid):
        self.pid = pid

    def step(self, state, obs):
        if self.pid == 0 or state == 256:
            return state, Write(state)
        return state + 1, Read(0, 0)


def test_a_settled_crash_that_reaches_the_bound_flags_the_run():
    progs = {0: ReadCrashedOwner(0), 1: ReadCrashedOwner(1)}
    run = AsyncRun(progs, (0, 0), eager=True)
    run.crash(0)
    assert run.steps_taken == run.step_bound == 256
    assert run.nonterminating
    trace = run_async(progs, (0, 0), run.schedule_so_far())
    assert trace.nonterminating
    assert trace.schedule == run.schedule_so_far()


def test_step_bound_flags_nontermination():
    class Spinner:
        state0 = ("i",)

        def step(self, state, obs):
            return state, Read(0, 0)

    progs = {0: Spinner(), 1: Spinner()}
    trace = run_async(progs, (0, 1), AsyncSchedule())
    assert trace.nonterminating
    assert trace.decisions == (None, None)


def test_acting_after_decide_is_rejected():
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


class DecidesNothing:
    state0 = ()

    def step(self, state, obs):
        return state, Decide(None)


def test_a_decide_without_a_value_is_rejected_by_run_async():
    # A decision is a value; a Decide(None) would leave its pid undecided
    # and stepping until the step bound.
    with pytest.raises(ModelViolationError):
        run_async({0: DecidesNothing()}, (0,), AsyncSchedule())


def test_a_decide_without_a_value_is_rejected_by_an_eager_run():
    with pytest.raises(ModelViolationError):
        AsyncRun({0: DecidesNothing(), 1: DecidesNothing()}, (0, 1), eager=True)


def test_trace_exports():
    spec = ProblemSpec(n=3, m=3, t=1)
    built = max_wait(spec, (1, 0, 2))
    trace = run_async(built.programs, (1, 0, 2), AsyncSchedule(), spec=spec)
    doc = trace.to_dict()
    assert doc["decisions"] == list(trace.decisions)
    assert doc["distinct_inputs"] == 3
    assert AsyncSchedule.decode(doc["schedule"]) == trace.schedule


# --- eager settling ---------------------------------------------------------


def fixed(run, pid):
    """Whether ``pid``'s pending step has one outcome whenever it is taken."""
    act = run.actions[pid]
    if type(act) is Decide:
        return True
    if type(act) is Read:
        return act.index < len(run.regs[act.owner]) or run.crashed[act.owner]
    return False


def settle_by_full_scan(run):
    """Commit every fixed step, scanning every process in pid order, then
    flag the run if it stands at its bound with a live pid undecided."""
    for pid in range(run.n):
        while not run.crashed[pid] and run.decided[pid] is None and fixed(run, pid):
            if run.steps_taken >= run.step_bound:
                run.nonterminating = True
                return
            run._advance(pid)
    if run.steps_taken >= run.step_bound and run.live_undecided():
        run.nonterminating = True


class Looper:
    """Write once, then read another process's first cell forever."""

    state0 = ("i",)

    def __init__(self, pid, n):
        self.pid, self.other = pid, (pid + 1) % n

    def step(self, state, obs):
        if state == ("i",):
            return ("r",), Write(self.pid)
        return state, Read(self.other, 0)


@st.composite
def settle_cases(draw):
    """(programs, inputs, objects, crash budget, step bound) of one run to drive."""
    from partialagreement import get_algorithm

    alg = draw(st.sampled_from(
        ["no-comm", "max-wait", "smg-comp", "reduce-binary", "reduce-set", "reduce-smg", "loop"]
    ))
    n = draw(st.integers(2, 5))
    if alg == "loop":
        progs = {pid: Looper(pid, n) for pid in range(n)}
        return progs, tuple(range(n)), None, draw(st.integers(0, n)), draw(st.integers(n, 4 * n))
    m = 2 if alg in ("reduce-binary", "reduce-smg") else draw(st.integers(2, min(3, n)))
    t = draw(st.integers(m - 1 if alg == "reduce-set" else 1 if alg == "reduce-smg" else 0, n - 1))
    g = draw(st.integers(1, n)) if alg == "smg-comp" else None
    spec = ProblemSpec(n=n, m=m, t=t, model="sm-g" if g else "async-rw", g=g)
    entry = get_algorithm(alg)
    inputs = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    assignment = None
    if entry.uses_oracle:
        cells = list(entry.oracle_assignments(spec, inputs))
        assume(cells)
        assignment = draw(st.sampled_from(cells))
    built = build_algorithm(alg, spec, inputs, assignment=assignment)
    return built.programs, inputs, built.objects, entry.fault_budget(spec), None


@settings(max_examples=300)
@given(settle_cases(), st.data())
def test_eager_settling_matches_a_full_scan(case, data):
    # After a step, only the stepped process and the readers of a row it
    # wrote can have a fixed step; after a crash, only the crashed process's
    # readers. Settling just those gives the full scan's run.
    progs, inputs, objects, crash_budget, step_bound = case
    eager = AsyncRun(progs, inputs, objects=objects, eager=True)
    reference = AsyncRun(progs, inputs, objects=objects)
    settle_by_full_scan(reference)
    if step_bound is not None:
        eager.step_bound = reference.step_bound = step_bound

    def same():
        assert eager.key() == reference.key()
        assert eager.schedule_so_far() == reference.schedule_so_far()
        assert eager.nonterminating == reference.nonterminating
        for run in (eager, reference):
            assert run.live_undecided() == [
                p for p in range(len(inputs)) if not run.crashed[p] and run.decided[p] is None
            ]

    same()
    for _ in range(40):
        live = reference.live_undecided()
        if reference.nonterminating or not live:
            break
        crashable = [p for p in range(len(inputs)) if not reference.crashed[p]]
        crash = sum(reference.crashed) < crash_budget and data.draw(st.booleans())
        pid = data.draw(st.sampled_from(crashable if crash else live))
        for run in (eager, reference):
            (run.crash if crash else run.step)(pid)
        settle_by_full_scan(reference)
        same()
