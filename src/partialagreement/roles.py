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

- the program states hold no pid and no value, as ``role_objects``
  declares (a ``ProposeChain`` state is its length and the proposes it
  has issued);
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

from .shmem import Propose, _pids

# A cell whose group has more elements is searched unreduced: each
# configuration the search meets is relabelled by every element, at about
# 0.8 us an image. Explores reduced against unreduced (2-CPU shared host,
# Python 3.11.7, best of 3): case 2 n=8 g=4 inputs 0..7 (32 elements) 0.13
# against 0.82 s; n=10 g=5 t=2 inputs 0..9 (288) 1.9 against 7.2 s, at a
# peak RSS of 17 against 140 MB. Case 1 searches are small and lose from
# 120 elements on: n=5 g=5 (120) 4.5 against 1.1 ms, n=10 g=10 inputs with
# 1, 2, 3 and 4 copies of a value (288) 0.22 against 0.11 s, n=6 g=6 (720)
# 23 against 5 ms, n=7 g=7 (5040) 270 against 13 ms. A limit that weighs
# the group against the search is left open (ROADMAP item 6).
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

    A configuration is encoded as one byte per pid, then one per object:

    - a pid's byte is the id of its local part (program state, pending
      action, decision, crashed), assigned when that local part is first
      seen;
    - an object's byte is the code of its winner (None is 0, the input
      values 1, 2, ... in order). The ids follow the value codes, and codes
      and ids share one byte: up to ``CODE_LIMIT`` of them.

    That covers every field ``AsyncRun.key`` covers. No program of a role
    cell writes a register or decides with a flag, and an object keeps its
    capacity. An object's proposers follow from the pid bytes: the program
    at each pid is fixed, and its state with its pending action's kind says
    which of its objects it has proposed to. Its winner does not: once both
    A-relays of n=8 g=4 (pids 0 and 1) have relayed and decided C's winner,
    no pid byte shows whether 0 or 1 won A, yet pids 2 and 3, which have not
    proposed, will see that winner.

    A group element acts as one 256-entry translate table, mapping each id
    to the id of its local part's relabelled image and each value code to
    its image's, then one itemgetter, moving the pid and object bytes. A new
    local part gets the ids of its whole orbit at once, and every table its
    entries for them, so each image is the encoding of the relabelled
    configuration.
    """

    def __init__(self, built, inputs, group):
        n = len(inputs)
        names = list(built.objects)  # a run's objects keep this order
        self.code = {v: i for i, v in enumerate([None, *sorted(set(inputs))])}
        self.ids: dict = {}
        self.relabels = []
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
            self.relabels.append((objects, {None: None, **values}))
            self.elements.append((itemgetter(*source), table))

    @staticmethod
    def _image(local, objects, values):
        """A pid's local part relabelled by one element's maps."""
        state, action, decided, crashed = local
        if type(action) is Propose:
            action = Propose(objects[action.obj], values[action.value])
        elif action is not None:  # Decide
            action = action._replace(value=values[action.value])
        return state, action, values[decided], crashed

    def _add_orbit(self, local) -> bool:
        """Give ids to the orbit of a new local part and fill every table's
        entries for them; False if they would pass ``CODE_LIMIT``."""
        ids, image = self.ids, self._image
        orbit = list(dict.fromkeys(image(local, *maps) for maps in self.relabels))
        first = len(self.code) + len(ids)
        if first + len(orbit) > CODE_LIMIT:
            return False
        for i, member in enumerate(orbit):
            ids[member] = first + i
        for maps, (_, table) in zip(self.relabels, self.elements):
            for member in orbit:
                table[ids[member]] = ids[image(member, *maps)]
        return True

    def encode(self, run) -> bytes | None:
        """The configuration's bytes; None if its local parts would take
        the ids past ``CODE_LIMIT``."""
        ids = self.ids
        parts = [ids.get(local) for local in zip(run.states, run.actions, run.decided, run.crashed)]
        if None in parts:
            for local in zip(run.states, run.actions, run.decided, run.crashed):
                if local not in ids and not self._add_orbit(local):
                    return None
            return self.encode(run)
        code = self.code
        parts += [code[obj.winner] for obj in run.objects.values()]
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
    outcome fails ``check_agreement``, which stops it there (the report's
    thresholds are left to the plain search, as a capped one may never
    reach that outcome)."""
    from . import rotation, verify

    group = role_group(built, inputs) if len(set(inputs)) + 1 < CODE_LIMIT else []
    before = report.states_searched
    outcomes = Counter()

    def finished(run, weight):
        outcome = verify._async_outcome(run)
        new = outcome not in outcomes
        outcomes[outcome] += weight
        return new and not verify.check_agreement(outcome, report.spec).passed

    found = len(group) > 1 and rotation.orbit_search(
        RoleKeys(built, inputs, group), root, crash_budget, report, finished, ample
    )
    if not (found and verify._count_passing(report, outcomes.items(), found[0])):
        return False
    report.roles.append((report.states_searched - before, found[0], len(group)))
    return True
