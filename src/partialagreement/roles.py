"""Role symmetry of a cell whose programs declare ``role_objects``, the
tuple of objects each proposes to (``smg-comp``'s ``ProposeChain`` and
``NoComm`` programs).

``role_group`` finds the relabellings of pids, objects and values that map
a built cell onto itself, and ``RoleKeys`` encodes the cell's async
configurations for a search up to them. The explorer
(``verify._explore_cell``) imports this module when it first searches a
cell where some program proposes to an object it declares in
``role_objects``, and asks ``role_search`` to resolve the cell before it
searches it plainly. Both searches run through ``persistent_sets``, as
``role_objects`` also declares all a program touches: no register, and
those objects, proposed to in that order.

Why a relabelling maps the runs of the cell onto its runs: it maps pids,
objects and values together, and each program onto the program at the
image pid (same class, renamed objects, relabelled value), so it maps
every step of a run onto a step of the relabelled run, because

- the program states hold no pid, object or value and fix how many
  proposes have been issued, as ``role_objects`` declares (a
  ``ProposeChain`` state is that number), so the pending action and the
  decision are functions of the state, the input and the winners of the
  objects already proposed to;
- a ``ConsensusObject`` is a value (capacity, winner, proposers) that
  treats values as opaque: the first proposal wins whatever it is, and
  the renamed object has the same capacity;
- the crash hints (``no_more_visible``) read the role's state only;
- the root is fixed by construction, as every program starts in
  ``state0`` and every object empty.

A run and its image have the same verdict, k and ell, since they read
decisions only as counts per proposed value and the relabelling maps the
inputs onto themselves.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import itemgetter

from .shmem import _pids

# A cell whose group has more elements is searched unreduced: each
# configuration the search meets is relabelled by every element, at about
# 0.45 us an image. Explores reduced against unreduced (process time on a
# 2-CPU shared host, Python 3.11.7, best of 30, of 10 for n=7 and of 3 for
# n=10): case 2 n=8 g=4 inputs 0..7 (32 elements) 12 against 48 ms; n=10
# g=5 t=2 inputs 0..9 (288) 0.37 against 1.3 s, at a peak RSS of 17 against
# 58 MB. Case 1 searches are small and lose from 120 elements on: n=5 g=5
# (120) 1.6 against 1.2 ms, n=10 g=10 inputs with 1, 2, 3 and 4 copies of a
# value (288) 121 against 95 ms, n=6 g=6 (720) 9.7 against 3.2 ms, n=7 g=7
# (5040) 80 against 9 ms. A limit that weighs the group against the search
# is left open (ROADMAP item 6).
ROLE_GROUP_LIMIT = 288

# Value codes and local-part ids of one cell, in one byte (see RoleKeys).
CODE_LIMIT = 256


def _role(prog):
    """The class of ``prog`` and the objects it proposes to, in order; None
    unless it declares them (``role_objects``)."""
    objects = getattr(prog, "role_objects", None)
    return None if objects is None else (type(prog), objects)


def _relabellings(inputs, onto):
    """Every pid permutation that maps each pid p into ``onto[p]`` and
    induces a value bijection (``inputs[pids[p]] == values[inputs[p]]``),
    as (pids, values); backtracks on the first pid that breaks either."""
    n = len(inputs)
    pids, used, values, images = [0] * n, set(), {}, set()

    def extend(p):
        if p == n:
            yield tuple(pids), dict(values)
            return
        v = inputs[p]
        for q in onto[p]:
            w = inputs[q]
            fresh = v not in values
            if q in used or (w in images if fresh else values[v] != w):
                continue
            used.add(q)
            pids[p] = q
            if fresh:
                values[v] = w
                images.add(w)
            yield from extend(p + 1)
            used.discard(q)
            if fresh:
                del values[v]
                images.discard(w)

    return extend(0)


def role_group(built, inputs) -> list:
    """Every relabelling (pids, objects, values) that maps the built cell
    onto itself: ``pids[p]`` is the image of pid p, ``objects`` renames the
    objects (keeping capacities) and ``values`` maps each input value, with
    ``inputs[pids[p]] == values[inputs[p]]`` and each program mapped onto
    the program at ``pids[p]``. Only the identity when some program has no
    role (``_role``) or the group has more than ``ROLE_GROUP_LIMIT``
    elements.

    A pid whose program proposes to no object stays fixed: it decides at
    the start and never changes again, so moving it would at most relabel
    values, at the cost of more elements. Any subgroup of the relabellings
    keeps the search exact, as each orbit adds its size under the group
    searched.
    """
    n = len(inputs)
    identity = (tuple(range(n)), {o: o for o in built.objects}, {v: v for v in inputs})
    roles = [_role(built.programs[pid]) for pid in range(n)]
    if None in roles:
        return [identity]
    names = sorted(built.objects)
    group = []
    for image in itertools.permutations(names):
        rename = dict(zip(names, image))
        if any(built.objects[o].capacity != built.objects[rename[o]].capacity for o in names):
            continue
        renamed = [(kind, tuple(rename[o] for o in objs)) for kind, objs in roles]
        if Counter(renamed) != Counter(roles):
            continue
        onto = [
            [q for q in range(n) if roles[q] == role] if role[1] else [p]
            for p, role in enumerate(renamed)
        ]
        for pids, values in _relabellings(inputs, onto):
            group.append((pids, rename, values))
            if len(group) > ROLE_GROUP_LIMIT:
                return [identity]
    return group


class RoleKeys:
    """Keys of a cell's async configurations up to its role group.

    A configuration is encoded as one byte per pid, the id of its local
    part (program state, kind of pending action, crashed), numbered as
    first seen after the value codes, then one byte per object, the code of
    its winner (None is 0, the input values 1, 2, ... in order); codes and
    ids share the byte, up to ``CODE_LIMIT`` of them. That is one to one
    with ``AsyncRun.key``: a role program writes no register and decides
    with no flag, and by the ``role_objects`` contract a pid's byte gives
    the objects it has proposed to and its pending object, and the winners
    give its pending value and its decision.

    A local part holds no pid, object or value, so each group element is
    one translate table of the value codes and one itemgetter that moves
    the pid and object bytes, both fixed once built.
    """

    def __init__(self, built, inputs, group):
        n = len(inputs)
        names = list(built.objects)  # a run's objects keep this order
        self.code = {v: i for i, v in enumerate([None, *sorted(set(inputs))])}
        self.ids: dict = {}
        self.elements = []
        for pids, objects, values in group:
            table = bytearray(range(256))
            for v, image in values.items():
                table[self.code[v]] = self.code[image]
            source = [0] * (n + len(names))
            for p, q in enumerate(pids):
                source[q] = p
            for j, name in enumerate(names):
                source[n + names.index(objects[name])] = n + j
            self.elements.append((itemgetter(*source), bytes(table)))

    def encode(self, run) -> bytes | None:
        """The configuration's bytes; None if its local parts take the ids
        past ``CODE_LIMIT``."""
        ids, first = self.ids, len(self.code)
        parts = [
            ids.setdefault(local, first + len(ids))
            for local in zip(run.states, map(type, run.actions), run.crashed)
        ]
        if first + len(ids) > CODE_LIMIT:
            return None
        parts += [self.code[obj.winner] for obj in run.objects.values()]
        return bytes(parts)

    def images(self, raw) -> set:
        """The encodings of the configuration's images, one per element."""
        return {bytes(move(raw.translate(table))) for move, table in self.elements}


def persistent_sets(built, crash_budget, report):
    """The hook of ``shmem.depth_first`` that keeps, at a configuration,
    only the moves of a persistent set of pids T (``_persistent``), or None
    unless every program declares ``role_objects``. The moves it leaves
    out are added to ``report.moves_pruned``. It keeps every move while the
    budget binds (0 < budget left < crashable pids), so that a crash
    outside T never disables one inside it."""
    n = len(built.programs)
    chains = tuple(getattr(built.programs[pid], "role_objects", None) for pid in range(n))
    if None in chains:
        return None

    def ample(run, moves):
        live = _pids(run.live)
        if 0 < crash_budget - sum(run.crashed) < len(moves) - len(live):
            return moves
        try:
            objects = tuple([run.actions[pid].obj for pid in live])
        except AttributeError:  # a pending action that is no Propose
            return moves
        members = _persistent(chains, live, objects)
        if members == run.live:
            return moves
        chosen = [move for move in moves if members >> move % n & 1]
        report.moves_pruned += len(moves) - len(chosen)
        return chosen

    return ample


@functools.cache
def _persistent(chains, live, objects) -> int:
    """The bitmask of T where the ``live`` pids, whose ``role_objects`` are
    ``chains``, propose next to ``objects``. A pid's objects ahead are its
    chain from its next object on. T grows from one live pid by every live
    pid whose objects ahead hold what a member of T proposes to next, so no
    move of a pid outside T ever touches an object T's moves touch; a seed
    gives one such set per next object. T is the union of the smallest,
    which a role relabelling maps onto the union at the image; all of
    ``live`` if a pid proposes to an object it does not declare."""
    pending = []
    for pid, obj in zip(live, objects):
        chain = chains[pid]
        if obj not in chain:
            return sum(1 << pid for pid in live)
        pending.append((pid, obj, set(chain[chain.index(obj):])))
    closures = []
    for start in set(objects):
        reach = {start}
        while True:
            members = [(pid, obj) for pid, obj, ahead in pending if not ahead.isdisjoint(reach)]
            grown = reach.union(obj for _, obj in members)
            if grown == reach:
                break
            reach = grown
        closures.append(members)
    least = min(map(len, closures))
    return sum({1 << pid for members in closures if len(members) == least for pid, _ in members})


def role_search(built, inputs, root, crash_budget, report, ample=None) -> bool:
    """Whether the cell was resolved from its ``rotation.orbit_search``
    from ``root`` up to its role group (``RoleKeys``), through the hook
    ``ample`` (``persistent_sets``): each distinct outcome recorded once
    with its count (``verify._count_passing``), and its states searched,
    the states they stand for and its group's order appended to
    ``report.roles``. False, with only the states searched counted, for the
    cell to be searched plainly, when the group is the identity, the value
    codes leave no byte for a local part, the search gives none, or a new
    outcome fails its verdict (``report.verdict``, which counts and folds
    nothing), which stops it there."""
    from . import rotation, verify

    group = role_group(built, inputs) if len(set(inputs)) + 1 < CODE_LIMIT else []
    before = report.states_searched
    outcomes = Counter()

    def finished(run, weight):
        outcome = verify._async_outcome(run)
        new = outcome not in outcomes
        outcomes[outcome] += weight
        return new and not report.verdict(outcome).passed

    found = len(group) > 1 and rotation.orbit_search(
        RoleKeys(built, inputs, group), root, crash_budget, report, finished, ample
    )
    if not (found and verify._count_passing(report, outcomes.items(), found[0])):
        return False
    report.roles.append((report.states_searched - before, found[0], len(group)))
    return True
