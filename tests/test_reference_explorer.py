"""Independent reference explorers, checked against ``explore``.

The async reference shares only the programs' ``step`` with the package.
Its configuration is everything that fixes a run's future: per pid the
program state and the pending action, the register rows, each object's
winner and proposers, the decisions, the crashed pids and the flags. At
every configuration any live undecided pid may step, or crash within the
fault budget where the crash rule lets it. It has no eager commits, no sleep
sets and no folds, and it dedups on the full configuration.

The sync reference runs every canonical crash pattern on its own through
``run_sync`` and ``check_agreement``: no round memo, no pattern groups and
no counts. It is also compared on seeded random sync programs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import zlib
from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from partialagreement import (
    ConsensusObject, ExploreBudget, ProblemSpec, check_agreement, enumerate_crash_patterns,
    get_algorithm, run_sync, verify,
)
from partialagreement.algorithms import BroadcastMajority, Built
from partialagreement.shmem import Decide, Propose, Read, Write
from partialagreement.syncmp import chain_patterns, pattern_groups, random_pattern
from conftest import same_report


class Config(NamedTuple):
    states: tuple
    actions: tuple
    regs: tuple
    objects: tuple  # (winner, proposers) per object, in name order
    decisions: tuple
    crashed: frozenset
    flags: frozenset


def _put(items: tuple, i: int, value) -> tuple:
    return items[:i] + (value,) + items[i + 1:]


def _step(progs, names, config, pid) -> Config:
    """``config`` after ``pid`` performs its pending action."""
    states, actions, regs, objects, decisions, crashed, flags = config
    act = actions[pid]
    if type(act) is Decide:
        decisions = _put(decisions, pid, act.value)
        return Config(states, _put(actions, pid, None), regs, objects, decisions, crashed,
                      flags | frozenset(act.flags))
    obs = None
    if type(act) is Write:
        regs = _put(regs, pid, regs[pid] + (act.payload,))
    elif type(act) is Read:
        row = regs[act.owner]
        obs = row[act.index] if 0 <= act.index < len(row) else None
    else:
        assert type(act) is Propose
        i = names.index(act.obj)
        winner, proposers = objects[i]
        assert pid not in proposers
        obs = act.value if winner is None else winner
        objects = _put(objects, i, (obs, proposers | {pid}))
    state, action = progs[pid].step(states[pid], obs)
    return Config(_put(states, pid, state), _put(actions, pid, action), regs, objects, decisions,
                  crashed, flags)


def reference_outcomes(entry, spec, inputs, assignment, can_crash) -> set:
    """The ``(decisions, crashed, flags)`` of every finished run of the cell.
    ``can_crash(view, pid)`` is the crash rule, given a view that exposes the
    run's ``progs``, ``states`` and ``actions``."""
    built = entry.build(spec, inputs, assignment)
    progs, n = built.programs, spec.n
    budget = min(entry.fault_budget(spec), n)
    names = sorted(built.objects)
    first = [progs[pid].step(progs[pid].state0, None) for pid in range(n)]
    root = Config(
        tuple(state for state, _ in first),
        tuple(action for _, action in first),
        ((),) * n,
        ((None, frozenset()),) * len(names),
        (None,) * n,
        frozenset(),
        frozenset(),
    )
    seen, stack, outcomes = {root}, [root], set()
    while stack:
        config = stack.pop()
        live = [p for p in range(n) if p not in config.crashed and config.decisions[p] is None]
        if not live:
            outcomes.add((config.decisions, config.crashed, config.flags))
        children = [_step(progs, names, config, p) for p in live]
        if len(config.crashed) < budget:
            view = SimpleNamespace(progs=progs, states=config.states, actions=config.actions)
            crashable = [p for p in live if can_crash(view, p)]
            children += [config._replace(crashed=config.crashed | {p}) for p in crashable]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return outcomes


def explored_cell(entry, spec, inputs, assignment) -> verify.ExplorationReport:
    """The report of ``explore``'s search of one cell, unfolded."""
    report = verify.ExplorationReport(entry.name, spec, [inputs], ExploreBudget())
    verify._explore_cell(entry, inputs, assignment, report)
    return report


def thresholds(outcomes, n) -> tuple:
    """The empirical k, k over all runs and ell of ``outcomes``."""
    k = k_all = ell = None
    for decisions, _, _ in outcomes:
        counts = Counter(d for d in decisions if d is not None)
        undecided = n - sum(counts.values())
        top = max(counts.values(), default=0)
        k_all = top + undecided if k_all is None else min(k_all, top + undecided)
        if counts:
            ell = max(ell or 0, len(counts))
        if not undecided:
            k = top if k is None else min(k, top)
    return k, k_all, ell


SMG_G2 = ProblemSpec(n=4, m=4, t=4, model="sm-g", g=2)
SMG_G4 = ProblemSpec(n=4, m=4, t=2, model="sm-g", g=4)
BINARY = ProblemSpec(n=4, m=2, t=1, validity="strong")
DISSENT = (0, 1, 0, 0)

# (entry, spec, inputs, first-phase assignment): every async entry, both
# smg-comp cases, and reduction cells with and without dissent.
CELLS = [(get_algorithm(alg), *cell) for alg, *cell in (
    ("max-wait", ProblemSpec(n=3, m=2, t=1), (0, 1, 1), None),
    ("max-wait", ProblemSpec(n=3, m=3, t=2), (0, 1, 2), None),
    ("smg-comp", SMG_G2, (0, 1, 2, 3), None),
    ("smg-comp", SMG_G4, (0, 1, 2, 3), None),
    ("reduce-binary", BINARY, (0, 0, 1, 1), (0, 0, 0, 0)),
    ("reduce-binary", BINARY, (0, 0, 1, 1), DISSENT),
    ("reduce-binary", BINARY, (0, 0, 1, 1), (0, 1, 1, 1)),
    ("reduce-set", ProblemSpec(n=3, m=3, t=2, validity="strong"), (0, 1, 2), (0, 1, 1)),
    ("reduce-smg", ProblemSpec(n=4, m=2, t=1, validity="strong"), (0, 0, 1, 1), (1, 0, 0, 0)),
    ("no-comm", ProblemSpec(n=3, m=2, t=1), (0, 1, 1), None),
)]
# With crashes anywhere the reference takes seconds on each n=4 reduction
# cell, so one dissenting cell stands for them there.
DOMINANCE_CELLS = [c for c in CELLS if c[1].n == 3 or c[3] in (None, DISSENT)]


def cell_id(cell) -> str:
    entry, spec, inputs, assignment = cell
    return f"{entry.name}-{'.'.join(map(str, assignment or inputs))}-t{spec.t}"


@functools.cache
def ruled_outcomes(cell) -> set:
    """The reference outcomes of ``cell`` under the search's crash rule."""
    return reference_outcomes(*cell, lambda view, pid: verify._crash_can_matter(view, pid))


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_the_search_finds_the_reference_outcomes(cell, unreduced):
    outcomes = ruled_outcomes(cell)
    with unreduced():
        report = explored_cell(*cell)
    assert not any(outcome.nonterminating for outcome in report.verdicts)
    assert {(o.decisions, o.crashed, o.flags) for o in report.verdicts} == outcomes
    assert outcomes


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_role_orbits_keep_the_reference_thresholds(cell):
    report = explored_cell(*cell)
    expected = thresholds(ruled_outcomes(cell), cell[1].n)
    assert (report.empirical_k, report.empirical_k_all_runs, report.empirical_ell) == expected


@pytest.mark.parametrize("cell", DOMINANCE_CELLS, ids=cell_id)
def test_a_crash_anywhere_is_dominated_by_a_searched_outcome(cell, unreduced):
    # A crash the rule skips leaves only reads and a decide: letting the
    # process decide instead gives an outcome the search finds, with a
    # subset of the crashed pids and the same decisions elsewhere.
    with unreduced():
        searched = {(o.decisions, o.crashed) for o in explored_cell(*cell).verdicts}
    for decisions, crashed, _ in reference_outcomes(*cell, lambda view, pid: True):
        assert dominated(searched, decisions, crashed), (decisions, crashed)


def dominated(searched, decisions, crashed) -> bool:
    """Whether a ``(decisions, crashed)`` of ``searched`` has a subset of
    ``crashed`` and the same decisions at every other pid."""
    return any(
        found_crashed <= crashed
        and all(a == b for p, (a, b) in enumerate(zip(found, decisions)) if p not in crashed)
        for found, found_crashed in searched
    )


# --- random async programs ----------------------------------------------------


class RandomAsync:
    """An acyclic program of ``ops``, then a decide of the last value it
    observed, or of its input. Its state is the index of its pending
    operation and its current value, which it writes and proposes. An
    operation is ("write",), ("read", owner, index, skip), where ``skip``
    skips the next operation when the cell is empty, or ("propose", obj)."""

    def __init__(self, ops, value):
        self.ops = ops
        self.state0 = (-1, value)

    def step(self, state, obs):
        pc, value = state
        if obs is not None:
            value = obs
        elif pc >= 0 and self.ops[pc][0] == "read" and self.ops[pc][3]:
            pc += 1
        pc += 1
        if pc >= len(self.ops):
            return (pc, value), Decide(value)
        op = self.ops[pc]
        if op[0] == "write":
            return (pc, value), Write(value)
        if op[0] == "read":
            return (pc, value), Read(op[1], op[2])
        return (pc, value), Propose(op[1], value)


def random_async_cell(n, t, seed):
    """A cell of random programs on n pids with fault budget t, drawn from
    ``seed``: each pid gets 3 to 5 operations, one propose on each of 0 to 2
    objects of capacity n and the rest writes of its own row and reads of
    any row at index 0 or 1."""
    rng = random.Random(seed)
    inputs = tuple(rng.randrange(n) for _ in range(n))
    programs = {}
    for pid in range(n):
        ops = [("propose", obj) for obj in rng.sample("AB", rng.randint(0, 2))]
        size = rng.randint(3, 5)
        while len(ops) < size:
            if rng.random() < 0.5:
                ops.append(("write",))
            else:
                ops.append(("read", rng.randrange(n), rng.randint(0, 1), rng.random() < 0.5))
        rng.shuffle(ops)
        programs[pid] = RandomAsync(tuple(ops), inputs[pid])
    entry = get_algorithm("no-comm")._replace(
        name=f"random-{seed}",
        build=lambda spec, inputs, assignment=None: Built(
            programs, objects={"A": ConsensusObject(n), "B": ConsensusObject(n)},
        ),
    )
    return entry, ProblemSpec(n=n, m=n, t=t), inputs, None


# (n, t, seed): 20 seeds for every fault budget of n in {2, 3}
RANDOM_ASYNC = [
    (n, t, seed)
    for seed, (n, t) in enumerate(
        (n, t) for n in (2, 3) for t in range(1, n + 1) for _ in range(20)
    )
]


@pytest.mark.parametrize(
    "n, t, seed", RANDOM_ASYNC, ids=[f"n{n}-t{t}-s{s}" for n, t, s in RANDOM_ASYNC],
)
def test_a_random_async_program_keeps_the_reference_outcomes(n, t, seed, unreduced):
    # A subset, not equality: the search commits fixed reads and decides
    # at once, so it never crashes a process just before one, and these
    # programs declare no crash hint. At the last re-anchor 233 of 300
    # random programs matched exactly, and 84 of these 100 do, the rest
    # differing only by such crashes, whose outcomes the searched ones
    # dominate. Equality waits for the crash-relevance fix (ROADMAP item 1).
    check_random_async_cell(n, t, seed, unreduced)


def check_random_async_cell(n, t, seed, unreduced) -> None:
    """Assert that the search of ``random_async_cell(n, t, seed)`` finds a
    subset of the reference's outcomes under the same crash rule, and an
    outcome dominating each outcome of a crash anywhere."""
    cell = random_async_cell(n, t, seed)
    with unreduced():
        report = explored_cell(*cell)
    assert not any(outcome.nonterminating for outcome in report.verdicts)
    searched = {(o.decisions, o.crashed, o.flags) for o in report.verdicts}
    assert searched
    assert searched <= reference_outcomes(*cell, verify._crash_can_matter)
    found = {(decisions, crashed) for decisions, crashed, _ in searched}
    for decisions, crashed, _ in reference_outcomes(*cell, lambda view, pid: True):
        assert dominated(found, decisions, crashed), (decisions, crashed)


class RandomChain:
    """A propose-only program that declares its footprint: it proposes to
    each object of its chain ``role_objects`` in turn, its input first and
    then its input again or the last winner (``relay``), and decides the
    first, the last or the least winner it saw (``rule``), or its input if
    the chain is empty. Its state is the number of actions emitted and the
    winners seen, so it may crash while a propose is pending, never before
    its decide. The state holds values, so role orbits may not relabel it."""

    def __init__(self, chain, value, relay, rule):
        self.role_objects = chain
        self.value, self.relay, self.rule = value, relay, rule
        self.state0 = (0, ())

    def step(self, state, obs):
        emitted, seen = state
        if obs is not None:
            seen += (obs,)
        if emitted == len(self.role_objects):
            return (emitted + 1, seen), Decide(self.rule(seen) if seen else self.value)
        value = seen[-1] if self.relay and seen else self.value
        return (emitted + 1, seen), Propose(self.role_objects[emitted], value)

    def no_more_visible(self, state):
        return state[0] > len(self.role_objects)


def random_chain_cell(n, t, seed):
    """A cell of ``RandomChain`` programs on n pids with fault budget t,
    drawn from ``seed``: each pid's chain is 0 to 3 distinct objects of
    A-C, in a random order, of capacity n."""
    rng = random.Random(seed)
    inputs = tuple(rng.randrange(n) for _ in range(n))
    rules = (lambda seen: seen[0], lambda seen: seen[-1], min)
    programs = {
        pid: RandomChain(
            tuple(rng.sample("ABC", rng.randint(0, 3))), inputs[pid], rng.random() < 0.5,
            rng.choice(rules),
        )
        for pid in range(n)
    }
    objects = {name: ConsensusObject(n) for name in "ABC"}
    entry = get_algorithm("smg-comp")._replace(
        name=f"random-chain-{seed}",
        build=lambda spec, inputs, assignment=None: Built(programs, objects=dict(objects)),
    )
    return entry, ProblemSpec(n=n, m=n, t=t, model="sm-g", g=n), inputs, None


# (n, t, seed): 12 seeds for every fault budget of n in {2, 3, 4}
RANDOM_CHAINS = [
    (n, t, seed)
    for seed, (n, t) in enumerate(
        (n, t) for n in (2, 3, 4) for t in range(n + 1) for _ in range(12)
    )
]


def test_a_random_footprint_program_keeps_the_reference_outcomes(unreduced):
    # Each cell is searched through the persistent sets of
    # ``roles.persistent_sets`` (role orbits off), and finds exactly the
    # reference's outcomes under the same crash rule.
    pruned = sum(check_random_chain_cell(n, t, seed, unreduced) for n, t, seed in RANDOM_CHAINS)
    assert pruned > len(RANDOM_CHAINS) // 4


def check_random_chain_cell(n, t, seed, unreduced) -> bool:
    """Assert that the search of ``random_chain_cell(n, t, seed)`` finds
    exactly the reference's outcomes; whether its persistent sets left a
    move out."""
    cell = random_chain_cell(n, t, seed)
    with unreduced():
        report = explored_cell(*cell)
    searched = {(o.decisions, o.crashed, o.flags) for o in report.verdicts}
    assert searched == reference_outcomes(*cell, verify._crash_can_matter), (n, t, seed)
    return report.moves_pruned > 0


class RoleChain:
    """A propose-only program that keeps to the ``role_objects`` contract
    of ``roles``: it proposes to each object of its chain in turn, and its
    state is the number of proposes issued. Its class fixes its behaviour,
    so ``roles._role`` tells the behaviours apart: it relays its input, or
    from the second propose on the last winner (``relay_winner``), and
    decides the last winner (``decide_winner``, its input if the chain is
    empty) or its input."""

    relay_winner = decide_winner = False
    state0 = 0

    def __init__(self, chain, value):
        self.role_objects, self.value = chain, value

    def step(self, issued, obs):
        if issued == len(self.role_objects):
            return issued, Decide(obs if self.decide_winner and issued else self.value)
        value = obs if self.relay_winner and issued else self.value
        return issued + 1, Propose(self.role_objects[issued], value)

    def no_more_visible(self, state):
        return state == len(self.role_objects)


ROLE_BEHAVIOURS = tuple(
    type(f"RoleChain{int(relay)}{int(decide)}", (RoleChain,),
         {"relay_winner": relay, "decide_winner": decide})
    for relay, decide in itertools.product((False, True), repeat=2)
)


def random_role_cell(seed):
    """A cell of 1 to 3 roles drawn from ``seed``: each a ``ROLE_BEHAVIOURS``
    class with a chain of 0 to 2 distinct objects of A-C (capacity n), run
    by 1 to 3 pids (2 if a lone role drew 1, as n >= 2), at random pids;
    inputs, t and k drawn in 0..n-1, 0..n and 1..n."""
    rng = random.Random(seed)
    roles = [
        (rng.choice(ROLE_BEHAVIOURS), tuple(rng.sample("ABC", rng.randint(0, 2))))
        for _ in range(rng.randint(1, 3))
    ]
    sizes = [rng.randint(1, 3) for _ in roles]
    if sum(sizes) < 2:
        sizes[0] = 2
    pids = [role for role, size in zip(roles, sizes) for _ in range(size)]
    rng.shuffle(pids)
    n = len(pids)
    inputs = tuple(rng.randrange(n) for _ in range(n))
    programs = {pid: cls(chain, inputs[pid]) for pid, (cls, chain) in enumerate(pids)}
    objects = {name: ConsensusObject(n) for name in "ABC"}
    entry = get_algorithm("smg-comp")._replace(
        name=f"random-roles-{seed}",
        build=lambda spec, inputs, assignment=None: Built(programs, objects=dict(objects)),
    )
    spec = ProblemSpec(n=n, m=n, t=rng.randint(0, n), k=rng.randint(1, n), model="sm-g", g=n)
    return entry, spec, inputs, None


def check_random_role_cell(seed, unreduced, limit=None) -> bool:
    """Assert that the cell's report up to its role group is byte-identical
    to its report without role orbits (``unreduced``), and that
    ``check_role_encoding`` holds on it (on its first ``limit``
    configurations, if given); whether role orbits resolved it."""
    from test_verify import check_role_encoding

    cell = random_role_cell(seed)
    entry, spec, inputs, _ = cell
    reduced = explored_cell(*cell)
    with unreduced():
        same_report(explored_cell(*cell).to_json(), reduced.to_json(), seed)
    check_role_encoding(entry.build(spec, inputs), inputs, spec.t, limit)
    return bool(reduced.roles)


RANDOM_ROLE_SEEDS = range(60)


def test_a_random_role_cell_keeps_its_report_up_to_its_group(unreduced):
    # The encoding check meets every configuration of most cells, and the
    # first 2,000 of the larger ones (all of them take 105 s;
    # ``sweep_random_programs.py`` takes the limit on its command line).
    resolved = sum(
        check_random_role_cell(seed, unreduced, limit=2000) for seed in RANDOM_ROLE_SEEDS
    )
    assert resolved > len(RANDOM_ROLE_SEEDS) // 4


class CountlessChain(RoleChain):
    """A two-object chain that breaks the contract: its state is the winner
    it relays (None before its first propose returns), not the number of
    proposes issued, so it holds a value that the role group relabels."""

    state0 = None

    def step(self, relayed, obs):
        if obs is None:
            return None, Propose(self.role_objects[0], self.value)
        if relayed is None:
            return obs, Propose(self.role_objects[1], obs)
        return relayed, Decide(obs)

    def no_more_visible(self, state):
        return False


def test_the_role_encoding_check_catches_a_chain_that_does_not_count():
    from test_verify import check_role_encoding

    n = 4
    inputs = tuple(range(n))
    programs = {pid: CountlessChain(("A", "B"), inputs[pid]) for pid in range(n)}
    built = Built(programs, objects={name: ConsensusObject(n) for name in "AB"})
    with pytest.raises(AssertionError):
        check_role_encoding(built, inputs, 0)
    # the same cell of programs that count their proposes passes
    counting = ROLE_BEHAVIOURS[-1]
    built = Built(
        {pid: counting(("A", "B"), inputs[pid]) for pid in range(n)},
        objects={name: ConsensusObject(n) for name in "AB"},
    )
    assert check_role_encoding(built, inputs, 0)


# --- the sync half ----------------------------------------------------------


class Gossip:
    """Sends the values it knows and keeps every inbox whole, so two
    patterns share a state only where they delivered the same messages to
    it; decides the least value it knows."""

    def __init__(self, value):
        self.state0 = ((value,),)

    @staticmethod
    def known(state):
        return tuple(sorted({*state[0], *(v for inbox in state[1:] for _, vs in inbox for v in vs)}))

    def round_send(self, state, rnd):
        return state, self.known(state)

    def round_recv(self, state, rnd, inbox):
        return state + (tuple(sorted(inbox.items())),)

    def finalize(self, state):
        return Decide(self.known(state)[0])


def _entry(name, build):
    """A sync catalog entry under ``name`` with every field but ``build``
    taken from min-flood's."""
    return get_algorithm("min-flood")._replace(name=name, build=build)


def _short(spec, inputs, assignment=None):
    built = get_algorithm("min-flood").build(spec, inputs)
    return built._replace(rounds=built.rounds - 1)


MIN_FLOOD = get_algorithm("min-flood")
REDUCE_SYNC = get_algorithm("reduce-sync")
# C5's mutant: one round short of floor(t/ell) + 1
SHORT = _entry("min-flood-short", _short)
GOSSIP = _entry("gossip", lambda spec, inputs, assignment=None: Built(
    {pid: Gossip(inputs[pid]) for pid in range(spec.n)}, rounds=spec.t // spec.ell + 1,
))
# a broadcast of first-phase answers that split 2-2: strict_majority breaks
# the tie to 0 and flags it
TIE = _entry("tie", lambda spec, inputs, assignment=None: Built(
    {pid: BroadcastMajority(inputs[pid]) for pid in range(spec.n)}, rounds=1,
))


def flood(n, t, ell, k):
    return ProblemSpec(n=n, m=n, t=t, k=k, ell=ell, model="sync-mp")


def strong(n, t, k):
    return ProblemSpec(n=n, m=2, t=t, k=k, validity="strong", model="sync-mp")


def _assignment(spec, inputs, i):
    return list(REDUCE_SYNC.oracle_assignments(spec, inputs))[i]


# (entry, spec, inputs, first-phase assignment)
SYNC_CELLS = [
    (MIN_FLOOD, flood(3, 1, 1, 3), (2, 0, 1), None),
    (MIN_FLOOD, flood(3, 2, 1, 3), (0, 1, 2), None),
    (MIN_FLOOD, flood(3, 2, 2, 2), (1, 2, 0), None),
    (MIN_FLOOD, flood(4, 2, 2, 2), (0, 1, 2, 3), None),
    (MIN_FLOOD, flood(4, 3, 2, 2), (3, 0, 2, 1), None),
    (MIN_FLOOD, flood(4, 2, 1, 4), (0, 1, 2, 3), None),
    (MIN_FLOOD, flood(5, 1, 1, 5), (4, 3, 2, 1, 0), None),
    (MIN_FLOOD, flood(5, 2, 2, 3), (0, 1, 2, 3, 4), None),
    (REDUCE_SYNC, strong(4, 1, 4), (0, 0, 1, 1), _assignment(strong(4, 1, 4), (0, 0, 1, 1), 0)),
    (REDUCE_SYNC, strong(5, 2, 5), (0, 0, 0, 1, 1),
     _assignment(strong(5, 2, 5), (0, 0, 0, 1, 1), -1)),
    (REDUCE_SYNC, strong(5, 1, 4), (0, 1, 1, 1, 1),
     _assignment(strong(5, 1, 4), (0, 1, 1, 1, 1), 2)),
    (SHORT, flood(4, 2, 1, 4), (0, 1, 2, 3), None),
    (SHORT, flood(5, 2, 1, 5), (0, 1, 2, 3, 4), None),
    (GOSSIP, flood(4, 2, 2, 2), (0, 1, 2, 3), None),
    (GOSSIP, flood(3, 2, 1, 3), (2, 1, 0), None),
    (TIE, strong(4, 2, 4), (0, 0, 1, 1), None),
]
TIE_CELL = SYNC_CELLS[-1]
# (cell, cap, limit), each limit falling inside a pattern group: min-flood,
# the mutant inside its third run of violations, and gossip, capped on
# max_runs and on max_states
CAPPED_CELLS = [
    (cell, cap, limit)
    for cap in ("max_runs", "max_states")
    for cell, limit in ((SYNC_CELLS[3], 333), (SYNC_CELLS[12], 1021), (SYNC_CELLS[13], 333))
] + [(SYNC_CELLS[3], "max_states", 100)]


RECORDED = ExploreBudget().max_recorded_violations


def sync_cell_id(cell) -> str:
    entry, spec, inputs, assignment = cell
    return f"{entry.name}-n{spec.n}-t{spec.t}-ell{spec.ell}-{''.join(map(str, assignment or inputs))}"


@functools.cache
def reference_sync(entry, spec, inputs, assignment, max_runs=None) -> tuple:
    """What the first ``max_runs`` canonical crash patterns of the cell (all
    when None), each run alone, give: runs, violations, flagged runs, the
    empirical k, k over all runs and ell, and the tokens of the violating
    patterns an explore records, in order."""
    built = entry.build(spec, inputs, assignment)
    budget = min(entry.fault_budget(spec), spec.n)
    patterns = enumerate_crash_patterns(spec.n, budget, built.rounds, canonical=True)
    return run_alone(built, spec, inputs, itertools.islice(patterns, max_runs))


def run_alone(built, spec, inputs, patterns) -> tuple:
    """``reference_sync``'s summary of ``patterns``, each run alone."""
    runs = violations = flagged = 0
    outcomes, tokens = [], []
    for pattern in patterns:
        trace = run_sync(built.programs, inputs, pattern, built.rounds, spec=spec)
        runs += 1
        flagged += bool(trace.flags)
        if not check_agreement(trace, spec).passed:
            violations += 1
            tokens.append(pattern.encode())
        outcomes.append((trace.decisions, None, None))
    return (runs, violations, flagged, *thresholds(outcomes, spec.n), tokens[:RECORDED])


def summary(report) -> tuple:
    """The same read off an explore's report, which counts one state per
    pattern, and one more for the pattern that passes ``max_states`` (it is
    not run), and is exhaustive exactly when no cap was reached."""
    over = report.states_explored > report.budget.max_states
    assert report.states_explored == report.executions_checked + over
    assert report.exhaustive == (not over and report.budget.max_runs > report.executions_checked)
    return (
        report.executions_checked, report.violations_total, report.flagged_executions,
        report.empirical_k, report.empirical_k_all_runs, report.empirical_ell,
        [violation["pattern"] for violation in report.violations],
    )


def searched_sync(entry, spec, inputs, assignment, budget) -> tuple:
    """The summary of ``explore``'s search of the one cell."""
    report = verify.ExplorationReport(entry.name, spec, [inputs], budget)
    try:
        verify._explore_cell(entry, inputs, assignment, report)
    except verify._BudgetStop:
        report.exhaustive = False
    return summary(report)


@pytest.mark.parametrize("cell", SYNC_CELLS, ids=sync_cell_id)
def test_the_sync_search_matches_every_pattern_run_alone(cell):
    entry, spec, inputs, _ = cell
    expected = reference_sync(*cell)
    assert searched_sync(*cell, ExploreBudget()) == expected
    if entry is MIN_FLOOD:
        # one input vector of a catalog entry is one cell
        assert summary(verify.explore(entry.name, spec, [inputs])) == expected


def test_the_sync_cells_violate_past_the_recorded_and_flag():
    found = {sync_cell_id(cell): reference_sync(*cell) for cell in SYNC_CELLS}
    _, violations, flagged, *_ = found[sync_cell_id(TIE_CELL)]
    assert violations > RECORDED and flagged > 0
    assert all(found[sync_cell_id(cell)][1] for cell in SYNC_CELLS if cell[0] is SHORT)
    cell, _, limit = CAPPED_CELLS[1]
    capped = reference_sync(*cell, max_runs=limit)
    assert 0 < capped[1] < found[sync_cell_id(cell)][1]


@pytest.mark.parametrize(
    "cell, cap, limit", CAPPED_CELLS,
    ids=[f"{sync_cell_id(cell)}-{limit}-{cap[4:]}" for cell, cap, limit in CAPPED_CELLS],
)
def test_a_capped_sync_search_stops_on_the_same_pattern(cell, cap, limit):
    entry, spec, inputs, assignment = cell
    built = entry.build(spec, inputs, assignment)
    ends = itertools.accumulate(
        math.prod(map(len, pools))
        for _, _, pools in pattern_groups(spec.n, spec.t, built.rounds, canonical=True)
    )
    assert limit not in set(ends)
    expected = reference_sync(*cell, max_runs=limit)
    assert expected[0] == limit
    assert searched_sync(*cell, ExploreBudget(**{cap: limit})) == expected


# --- random sync programs -----------------------------------------------------


class RandomSync:
    """A pure sync program drawn from ``salt``: its state is one of ``size``
    ints, its send and receive are fixed hashes of the salt, the round and
    what it holds, the receive hashing the whole inbox, its sources and
    their order, and it decides the input that its state picks."""

    def __init__(self, salt, size, inputs):
        self.salt, self.size, self.inputs = salt, size, inputs
        self.state0 = salt % size

    def _hash(self, *parts) -> int:
        return zlib.crc32(repr((self.salt, *parts)).encode())

    def round_send(self, state, rnd):
        h = self._hash("send", state, rnd)
        return h % self.size, h // self.size % (self.size + 1)

    def round_recv(self, state, rnd, inbox):
        return self._hash("recv", state, rnd, tuple(inbox.items())) % self.size

    def finalize(self, state):
        return Decide(self.inputs[state % len(self.inputs)])


def random_sync_cell(n, t, rounds, seed):
    """A cell of random programs on n pids for ``rounds`` rounds with fault
    budget t, its programs, inputs, k and ell drawn from ``seed``."""
    rng = random.Random(seed)
    size = rng.randint(2, 5)
    salts = [rng.getrandbits(32) for _ in range(n)]
    inputs = tuple(rng.randrange(n) for _ in range(n))
    # agreement of n - 1 or n pids on one value, so most cells violate and
    # their violating groups are run pattern by pattern
    spec = ProblemSpec(n=n, m=n, t=t, k=rng.randint(n - 1, n), ell=1, model="sync-mp")
    entry = _entry(f"random-{seed}", lambda spec, inputs, assignment=None: Built(
        {pid: RandomSync(salts[pid], size, inputs) for pid in range(n)}, rounds=rounds,
    ))
    return entry, spec, inputs, None


# (n, t, rounds, seed): every fault budget of n in 2..4 and 1 to 3 rounds
RANDOM_SYNC = [
    (n, t, rounds, seed)
    for seed, (n, t, rounds) in enumerate(
        (n, t, rounds) for n in (2, 3, 4) for t in range(1, n + 1) for rounds in (1, 2, 3)
    )
]


@pytest.mark.parametrize(
    "n, t, rounds, seed", RANDOM_SYNC, ids=[f"n{n}-t{t}-r{r}-s{s}" for n, t, r, s in RANDOM_SYNC],
)
def test_a_random_sync_program_matches_every_pattern_run_alone(n, t, rounds, seed):
    cell = random_sync_cell(n, t, rounds, seed)
    entry, spec, inputs, _ = cell
    assert searched_sync(*cell, ExploreBudget()) == reference_sync(*cell)
    # sampled: the same patterns as the explore draws, from its cell's stream
    budget = ExploreBudget(mode="sample", samples=60, seed=seed)
    rng = random.Random(f"{budget.seed}|{inputs}|None")
    drawn = [random_pattern(rng, n, t, rounds) for _ in range(budget.samples)]
    expected = run_alone(entry.build(spec, inputs), spec, inputs, drawn)
    assert searched_sync(*cell, budget) == expected


# A cell compares its groups in order while their patterns total at most
# this, and always its first group.
GROUP_PATTERNS_COMPARED = 2_000
GROUP_CELLS = [random_sync_cell(*case) for case in RANDOM_SYNC] + [
    cell for cell in SYNC_CELLS if cell[0] in (GOSSIP, TIE)
]


@pytest.mark.parametrize("cell", GROUP_CELLS, ids=sync_cell_id)
def test_each_pattern_group_counts_its_patterns_run_alone(cell):
    # Not only summaries: each group's patterns and counts, outcome by
    # outcome, against the enumerator's patterns, split by the group sizes
    # and run alone.
    entry, spec, inputs, assignment = cell
    built = entry.build(spec, inputs, assignment)
    budget = min(entry.fault_budget(spec), spec.n)
    sizes = [
        math.prod(map(len, pools))
        for _, _, pools in pattern_groups(spec.n, budget, built.rounds, canonical=True)
    ]
    patterns = enumerate_crash_patterns(spec.n, budget, built.rounds, canonical=True)
    groups = chain_patterns(built.programs, spec.n, budget, built.rounds)
    compared = 0
    for size in sizes:
        if compared + size > GROUP_PATTERNS_COMPARED and compared:
            return
        finals, lazy = next(groups)
        group = list(itertools.islice(patterns, size))
        assert list(lazy) == group
        alone = Counter()
        for pattern in group:
            trace = run_sync(built.programs, inputs, pattern, built.rounds)
            alone[trace.decisions, frozenset(trace.crashed), trace.flags] += 1
        assert finals == alone
        compared += size
    assert next(groups, None) is None
