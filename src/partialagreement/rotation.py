"""The search of an async cell up to a symmetry group (Emerson and
Sistla, 1996; Ip and Dill, 1996), and the one up to pid rotation of the
cell graph an exhaustive async explore shares when every program declares
``basis`` (``no-comm``, ``max-wait`` and the async reductions), as
``algorithms.CatalogEntry`` argues. ``verify`` imports this module when it
first shares a search, and ``roles`` when it first searches a role cell.
"""

from __future__ import annotations

from collections import Counter

from . import verify
from .shmem import AsyncRun, Read, depth_first


def orbit_search(keys, root, crash_budget, report, finished, ample=None):
    """The states and runs of the DFS (``shmem.depth_first``, through the
    hook ``ample``) from ``root``, one configuration per orbit of the group
    ``keys`` encodes (``keys.encode(run)``, None once the codes run out;
    ``keys.images(raw)``, its images), so they are the DFS's without
    orbits: a configuration is new if neither it nor its orbit's least
    image is seen, it weighs the orbit's size, and a finished one is passed
    to ``finished(run, weight)``. None when the codes run out, a run meets
    the step bound (its steps depend on the path that reached it), the
    counts would not fit what ``report`` has left of its caps, or
    ``finished`` returns true. The states searched and children slept count
    in ``report``; the sleep sets stay sound orbit by orbit, as the group
    maps the children and crash hints of a configuration onto its image's.
    """
    encode, images_of = keys.encode, keys.images

    def visit(run, seen):
        raw = encode(run)
        if raw is None or raw in seen:
            return None if raw is None else 0
        images = images_of(raw)
        least = min(images)
        weight = 0 if least in seen else len(images)
        seen.add(raw)
        seen.add(least)
        return weight

    states = runs = 0
    can_crash = verify._crash_can_matter
    for run, weight, done, slept in depth_first(root, crash_budget, can_crash, visit, ample):
        if weight is None or run.nonterminating:
            return None
        report.states_searched += 1
        report.moves_slept += slept
        states += weight
        runs += done and weight
        if not verify._fits(report, (states, runs)):
            return None
        if done and finished(run, weight):
            return None
    return states, runs


class RotationKeys:
    """Keys of a value-free cell graph's configurations up to pid rotation
    (p -> p+r), for ``shared_search``.

    A configuration is encoded as the tuple of its pids' local-part ids, an
    id per value-free local part (program state, the kind of the pending
    action with a Read's owner as its offset from the pid, whether decided,
    whether crashed, the own row's length), assigned when first seen. The
    program states hold no pid (``QuorumScan``'s are pid-relative, and a
    ``NoComm``'s is constant), so no local part does, and rotating the
    configuration by r shifts the tuple by r.

    Within one cell, the declared ``basis`` fixes every value of a
    configuration by its value-free part: a row holds the owner's fixed
    answer, and a decision (flags included) is ``decide_on`` of the basis
    the state keeps. So the encoding is one to one with ``AsyncRun.key``.
    """

    def __init__(self, n):
        self.n = n
        self.ids: dict = {}

    def encode(self, run) -> tuple:
        n, ids = self.n, self.ids
        parts = []
        for pid, state, act, decided, crashed, row in zip(
            range(n), run.states, run.actions, run.decided, run.crashed, run.regs
        ):
            act = ((act.owner - pid) % n, act.index) if type(act) is Read else type(act)
            local = (state, act, decided is None, crashed, len(row))
            parts.append(ids.setdefault(local, len(ids)))
        return tuple(parts)

    def images(self, raw) -> set:
        """The n shifts of ``raw``."""
        return {raw[r:] + raw[:r] for r in range(self.n)}


def shared_search(entry, inputs, assignment, report):
    """The ``orbit_search`` of the cell up to pid rotation, counting the
    class (``verify._run_class``) of each distinct rotation of a finished
    run, for ``explore`` to resolve every cell from; None also if a program
    declares no ``basis``. Its states searched and the states they stand
    for go to ``report.shared``."""
    spec = report.spec
    built = entry.build(spec, inputs, assignment)
    if not all(hasattr(p, "basis") for p in built.programs.values()):
        return None
    root = AsyncRun(built.programs, inputs, eager=True)
    crash_budget = min(entry.fault_budget(spec), spec.n)
    before = report.states_searched
    classes = Counter()
    found = orbit_search(
        RotationKeys(spec.n), root, crash_budget, report,
        lambda run, weight: classes.update(verify._run_class(run, r) for r in range(weight)),
    )
    if not found:
        return None
    report.shared = report.states_searched - before, found[0]
    return (*found, classes)
