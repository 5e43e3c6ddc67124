"""Role symmetry of a cell whose programs declare ``role_objects``
(``smg-comp``'s).

``role_group`` finds the relabellings of pids, objects and values that map
a built cell onto itself, and ``RoleKeys`` keys the cell's async
configurations up to them. The explorer (``verify._explore_cell``) asks
``role_keys`` for the keys of a cell and runs its DFS with them; it
imports this module when it first searches a cell where some program
proposes to an object it declares in ``role_objects``.

Why a relabelling maps the runs of the cell onto its runs: it maps pids,
objects and values together, and each program onto the program at the
image pid (same class, renamed objects, relabelled value), so it maps
every step of a run onto a step of the relabelled run, because

- the program states hold no pid and no value, as ``role_objects``
  declares;
- ``ConsensusObject`` treats values as opaque: the first proposal wins
  whatever it is, and the renamed object has the same capacity;
- the crash hints (``no_more_visible``) read the role's state only;
- the root is fixed by construction, as every program starts in
  ``state0`` and every object empty.

A run and its image have the same verdict, k and ell, since they read
decisions only as counts per proposed value and the relabelling maps the
inputs onto themselves.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter

from .shmem import Propose

# A cell whose group has more elements is searched unreduced: each
# configuration the search meets is relabelled by every element, at about
# 5 us an image. Explores reduced against unreduced (2-CPU shared host,
# Python 3.11.7): case 2 n=8 g=4 inputs 0..7 (32 elements) 0.22 against
# 0.57 s; n=10 g=5 t=2 inputs 0..9 (288) 4.5 against 4.6 s, at a peak of
# 18 against 163 MB. Case 1 searches are small and lose from 120 elements
# on: n=5 g=5 (120) 3 against 1 ms, n=10 g=10 inputs with 1, 2, 3 and 4
# copies of a value (288) 0.46 against 0.09 s, n=6 g=6 (720) 23 against
# 3 ms, n=7 g=7 (5040) 218 against 8 ms.
ROLE_GROUP_LIMIT = 288


def _role(prog):
    """The class of ``prog`` and the objects it proposes to, in order; None
    unless it declares them (``role_objects``)."""
    attrs = getattr(prog, "role_objects", None)
    if attrs is None:
        return None
    return type(prog), tuple(getattr(prog, attr) for attr in attrs)


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


def role_keys(built, inputs):
    """A ``RoleKeys`` for the cell, or None when its group is the identity
    or its objects or values do not fit the encoding."""
    if len(built.objects) > 16 or len(set(inputs)) > 224:
        return None
    group = role_group(built, inputs)
    return RoleKeys(built, inputs, group) if len(group) > 1 else None


class RoleKeys:
    """Keys of a cell's async configurations up to its role group.

    A configuration is encoded as bytes: per pid, its program state, its
    pending action's kind, object and value, its decision and whether it
    crashed; per object, its winner and one byte per pid that proposed to
    it. That covers every field ``AsyncRun.key`` covers, since the rest is
    fixed in every configuration of a role cell: no program writes a
    register or decides with a flag, and an object keeps its capacity. Each
    kind of byte takes its own range: objects 16.., values 32.. (None is
    0), so one translate table per group element renames objects and
    values, and one itemgetter moves the pid and object blocks.
    """

    def __init__(self, built, inputs, group):
        n = len(inputs)
        self.n = n
        self.names = sorted(built.objects)
        self.object = {name: 16 + i for i, name in enumerate(self.names)}
        self.value = {v: 32 + i for i, v in enumerate(sorted(set(inputs)))}
        self.value[None] = 0
        self.states: dict = {}
        self.blocks: dict = {}
        self.elements = []
        slot = {name: 6 * n + j * (n + 1) for j, name in enumerate(self.names)}
        for pids, objects, values in group:
            table = bytearray(range(256))
            for v, image in values.items():
                table[self.value[v]] = self.value[image]
            source = [0] * (6 * n + len(self.names) * (n + 1))
            for p, q in enumerate(pids):
                source[6 * q:6 * q + 6] = range(6 * p, 6 * p + 6)
            for name, image in objects.items():
                table[self.object[name]] = self.object[image]
                at, to = slot[name], slot[image]
                source[to] = at
                for p, q in enumerate(pids):
                    source[to + 1 + q] = at + 1 + p
            self.elements.append((itemgetter(*source), bytes(table)))

    def _block(self, state, action, decided, crashed) -> bytes:
        code = self.states.setdefault(state, len(self.states))
        if code >= 16:
            raise ValueError("a role program has more than 16 states")
        if action is None:
            kind, obj, value = 0, 0, 0
        elif type(action) is Propose:
            kind, obj, value = 1, self.object[action.obj], self.value[action.value]
        else:  # Decide
            kind, obj, value = 2, 0, self.value[action.value]
        return bytes((code, kind, obj, value, self.value[decided], crashed))

    def encode(self, run) -> bytes:
        blocks = self.blocks
        parts = []
        for local in zip(run.states, run.actions, run.decided, run.crashed):
            block = blocks.get(local)
            if block is None:
                block = blocks[local] = self._block(*local)
            parts.append(block)
        for name in self.names:
            obj = run.objects[name]
            row = bytearray(self.n + 1)
            row[0] = self.value[obj.winner]
            for pid in obj.proposers:
                row[1 + pid] = 1
            parts.append(row)
        return b"".join(parts)

    def visit(self, run, seen: set) -> int:
        """The size of ``run``'s orbit if no configuration of it is in
        ``seen``, else 0. Adds the configuration and its orbit's least
        image, the orbit's key."""
        raw = self.encode(run)
        if raw in seen:
            return 0
        images = {bytes(move(raw.translate(table))) for move, table in self.elements}
        least = min(images)
        known = least in seen
        seen.add(raw)
        if known:
            return 0
        seen.add(least)
        return len(images)
