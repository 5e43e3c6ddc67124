"""Pid rotation of the cell graph that an exhaustive async explore shares
among its cells when every program declares ``basis`` (``no-comm``,
``max-wait`` and the async reductions). The explorer (``verify``) imports
this module when it first shares a search.

``shared_search`` runs the one DFS from which ``explore`` resolves every
cell, one configuration per rotation orbit (``RotationKeys``), counted
with the orbit's size, so its states, runs and run classes are exactly
those of the unreduced DFS (symmetry reduction: Emerson and Sistla, 1996;
Ip and Dill, 1996). Why rotation maps that graph onto itself is
``algorithms.CatalogEntry``'s ``symmetry`` and ``basis`` text.
"""

from __future__ import annotations

from collections import Counter

from . import verify
from .shmem import AsyncRun, Read, depth_first


class RotationKeys:
    """Keys of a value-free cell graph's configurations up to pid rotation
    (p -> p+r), for ``shared_search``.

    A configuration is encoded as the tuple of its pids' local-part ids, an
    id per value-free local part (program state, the kind of the pending
    action with a Read's owner as its offset from the pid, whether decided,
    whether crashed, the own row's length), assigned when first seen. The
    program states hold no pid (``QuorumScan``'s are pid-relative, and a
    ``NoComm``'s is constant), so no local part does, and rotating the
    configuration by r shifts the tuple by r. The orbit's key is the least
    of the n shifts, and its size the number of distinct ones.

    Within one cell, the declared ``basis`` fixes every value of a
    configuration by its value-free part: a row holds the owner's fixed
    answer, and a decision (flags included) is ``decide_on`` of the basis
    the state keeps. So the encoding is one to one with ``AsyncRun.key``.
    """

    def __init__(self, n):
        self.n = n
        self.ids: dict = {}

    def visit(self, run, seen: set) -> int:
        """The size of ``run``'s orbit if no configuration of it is in
        ``seen``, else 0. Adds the configuration and its orbit's key."""
        n, ids = self.n, self.ids
        parts = []
        for pid, state, act, decided, crashed, row in zip(
            range(n), run.states, run.actions, run.decided, run.crashed, run.regs
        ):
            act = ((act.owner - pid) % n, act.index) if type(act) is Read else type(act)
            local = (state, act, decided is None, crashed, len(row))
            parts.append(ids.setdefault(local, len(ids)))
        raw = tuple(parts)
        if raw in seen:
            return 0
        images = {raw[r:] + raw[:r] for r in range(n)}
        least = min(images)
        known = least in seen
        seen.add(raw)
        if known:
            return 0
        seen.add(least)
        return len(images)


def shared_search(entry, inputs, assignment, report):
    """The states, runs and Counter of run classes (``verify._run_class``)
    of the cell's DFS up to pid rotation (``RotationKeys``), for ``explore``
    to resolve every cell from: each orbit adds its size, and each finished
    one the class of every distinct rotation of its run. None if a program
    declares no ``basis``, a run meets the step bound, or the counts would
    not fit what ``report`` has left of its caps. The states searched and
    the children slept count in ``report``, and the searched states and
    the states they stand for in ``report.shared``.

    The DFS (``shmem.depth_first``) meets one configuration per orbit. As
    rotation maps the graph onto itself, it maps the children, the crash
    hints and the step bound of a configuration onto those of its image,
    so the sleep sets stay sound orbit by orbit. A run the step bound cuts
    depends on the path that reached it, which differs between the two
    searches, so the search is dropped at the first one.
    """
    spec = report.spec
    built = entry.build(spec, inputs, assignment)
    if not all(hasattr(p, "basis") for p in built.programs.values()):
        return None
    keys = RotationKeys(spec.n)
    root = AsyncRun(built.programs, inputs, eager=True)
    crash_budget = min(entry.fault_budget(spec), spec.n)
    visits = depth_first(root, crash_budget, verify._crash_can_matter, keys.visit)
    before = report.states_searched
    states = runs = 0
    classes = Counter()
    for run, weight, done, slept in visits:
        report.states_searched += 1
        report.moves_slept += slept
        states += weight
        runs += done and weight
        if run.nonterminating or not verify._fits(report, (states, runs)):
            return None
        if done:
            classes.update(verify._run_class(run, r) for r in range(weight))
    report.shared = report.states_searched - before, states
    return states, runs, classes
