"""An independent reference explorer, checked against ``explore``'s DFS.

The reference shares only the programs' ``step`` with the package. Its
configuration is everything that fixes a run's future: per pid the program
state and the pending action, the register rows, each object's winner and
proposers, the decisions, the crashed pids and the flags. At every
configuration any live undecided pid may step, or crash within the fault
budget where the crash rule lets it. It has no eager commits, no sleep sets
and no folds, and it dedups on the full configuration.
"""

from __future__ import annotations

import functools
from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from partialagreement import ExploreBudget, ProblemSpec, get_algorithm, verify
from partialagreement.shmem import Decide, Propose, Read, Write


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


def reference_outcomes(alg, spec, inputs, assignment, can_crash) -> set:
    """The ``(decisions, crashed, flags)`` of every finished run of the cell.
    ``can_crash(view, pid)`` is the crash rule, given a view that exposes the
    run's ``progs``, ``states`` and ``actions``."""
    entry = get_algorithm(alg)
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


def explored_cell(alg, spec, inputs, assignment, role_orbits) -> verify.ExplorationReport:
    """The report of ``explore``'s search of one cell, unfolded."""
    report = verify.ExplorationReport(alg, spec, [inputs], ExploreBudget())
    verify._explore_cell(get_algorithm(alg), inputs, assignment, report, role_orbits)
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

# (algorithm, spec, inputs, first-phase assignment): every async entry, both
# smg-comp cases, and reduction cells with and without dissent.
CELLS = [
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
]
# With crashes anywhere the reference takes seconds on each n=4 reduction
# cell, so one dissenting cell stands for them there.
DOMINANCE_CELLS = [c for c in CELLS if c[1].n == 3 or c[3] in (None, DISSENT)]


def cell_id(cell) -> str:
    alg, spec, inputs, assignment = cell
    return f"{alg}-{'.'.join(map(str, assignment or inputs))}-t{spec.t}"


@functools.cache
def ruled_outcomes(cell) -> set:
    """The reference outcomes of ``cell`` under the search's crash rule."""
    return reference_outcomes(*cell, lambda view, pid: verify._crash_can_matter(view, pid))


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_the_search_finds_the_reference_outcomes(cell):
    outcomes = ruled_outcomes(cell)
    report = explored_cell(*cell, role_orbits=False)
    assert not any(outcome.nonterminating for outcome in report.verdicts)
    assert {(o.decisions, o.crashed, o.flags) for o in report.verdicts} == outcomes
    assert outcomes


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_role_orbits_keep_the_reference_thresholds(cell):
    report = explored_cell(*cell, role_orbits=True)
    expected = thresholds(ruled_outcomes(cell), cell[1].n)
    assert (report.empirical_k, report.empirical_k_all_runs, report.empirical_ell) == expected


@pytest.mark.parametrize("cell", DOMINANCE_CELLS, ids=cell_id)
def test_a_crash_anywhere_is_dominated_by_a_searched_outcome(cell):
    # A crash the rule skips leaves only reads and a decide: letting the
    # process decide instead gives an outcome the search finds, with a
    # subset of the crashed pids and the same decisions elsewhere.
    searched = {(o.decisions, o.crashed) for o in explored_cell(*cell, role_orbits=False).verdicts}
    for decisions, crashed, _ in reference_outcomes(*cell, lambda view, pid: True):
        assert any(
            found_crashed <= crashed
            and all(a == b for p, (a, b) in enumerate(zip(found, decisions)) if p not in crashed)
            for found, found_crashed in searched
        ), (decisions, crashed)
