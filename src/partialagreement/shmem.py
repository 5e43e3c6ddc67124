"""Asynchronous shared-memory executor.

Single-writer register arrays, schedule-driven stepping at register-operation
granularity, crashes as schedule exclusion. Process ids are 0..n-1. A behavior
is a pure state machine: ``prog.state0`` plus ``prog.step(state, obs)`` which
returns ``(new_state, action)``. The observation passed to a step is the
result of the process's previous action (a read's value, a propose's winner,
else None), so a scan is one register read per scheduled step and the
adversary can interleave inside it. ``random_walk`` is the one random
adversary, for sampled explores and seeded CLI runs, and ``depth_first`` the
exhaustive one, the DFS of an explore's cell.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .core import ModelViolationError, ProblemSpec, SpecError


class Write(NamedTuple):
    """Append a payload to the caller's own register array (next unused cell)."""

    payload: object


class Read(NamedTuple):
    owner: int
    index: int = 0


class Propose(NamedTuple):
    """One atomic access to a named shared object; the winner arrives as the next observation."""

    obj: str
    value: int


class Decide(NamedTuple):
    value: int
    flags: tuple = ()


class AsyncSchedule(NamedTuple):
    """An interleaving plus crash placements.

    ``steps[i]`` is the process stepped at position i. A crash ``(pid, pos)``
    means the process takes no step at or after position ``pos``.
    """

    steps: tuple[int, ...] = ()
    crashes: frozenset = frozenset()

    def validate(self, n: int, t: int) -> None:
        pids = [p for p, _ in self.crashes]
        if len(pids) != len(set(pids)):
            raise SpecError("a process may crash at most once")
        if len(pids) > t:
            raise SpecError(f"{len(pids)} crashes exceed the fault budget t={t}")
        for p, pos in self.crashes:
            if not 0 <= p < n:
                raise SpecError(f"crash names unknown process {p}")
            if pos < 0:
                raise SpecError(f"crash of process {p} at negative position {pos}")
            if p in self.steps[pos:]:
                raise SpecError(f"process {p} is scheduled at or after its crash position {pos}")
        for p in self.steps:
            if not 0 <= p < n:
                raise SpecError(f"schedule names unknown process {p}")

    def crash_at(self) -> dict[int, list[int]]:
        by_pos: dict[int, list[int]] = {}
        for p, pos in sorted(self.crashes):
            by_pos.setdefault(pos, []).append(p)
        return by_pos

    def encode(self) -> str:
        steps = ".".join(str(p) for p in self.steps)
        crashes = ",".join(f"{p}@{pos}" for p, pos in sorted(self.crashes))
        return f"a1:{steps}:{crashes}"

    @classmethod
    def decode(cls, token: str) -> "AsyncSchedule":
        try:
            tag, steps_s, crashes_s = token.split(":")
            if tag != "a1":
                raise ValueError(tag)
            steps = tuple(int(x) for x in steps_s.split(".") if x != "")
            crashes = frozenset(
                (int(p), int(pos))
                for p, pos in (item.split("@") for item in crashes_s.split(",") if item)
            )
        except ValueError as exc:
            raise SpecError(f"bad schedule token {token!r}") from exc
        if any(v < 0 for v in steps) or any(v < 0 for c in crashes for v in c):
            raise SpecError(f"bad schedule token {token!r}: negative process or position")
        return cls(steps, crashes)


class ExecutionTrace(NamedTuple):
    """Full event log of one asynchronous run.

    Events are ``(position, pid, kind, payload)`` with kind one of write,
    read, propose, decide, crash. ``decisions[pid]`` is None while undecided.
    """

    inputs: tuple[int, ...]
    events: tuple
    decisions: tuple
    crashed: frozenset
    flags: frozenset
    nonterminating: bool
    schedule: AsyncSchedule

    @property
    def distinct_inputs(self) -> int:
        return len(set(self.inputs))

    def to_dict(self) -> dict:
        return {
            "inputs": list(self.inputs),
            "events": [list(e) for e in self.events],
            "decisions": list(self.decisions),
            "crashed": sorted(self.crashed),
            "flags": sorted(self.flags),
            "nonterminating": self.nonterminating,
            "distinct_inputs": self.distinct_inputs,
            "schedule": self.schedule.encode(),
        }


class AsyncRun:
    """Mutable state of one run; scheduling decisions live with the caller.

    Each process carries its program state plus the precomputed action it
    will perform next, so observations fold into the state at the step that
    produced them. key() is a hashable snapshot of everything that
    determines the run's future.

    ``regs`` holds one tuple of register values per process. A Write names
    no owner and appends to the writer's own row, so every register has a
    single writer and is written once, by construction. A Read of a cell
    past the end of its row (not yet written) observes None.

    clone() is O(1) in the run's length: it copies four n-entry lists
    (states, actions, decided, crashed) and shares everything else: every
    shared part of the configuration is a value, and ``memo`` a cache.

    - ``live`` is the bitmask of the pids neither crashed nor decided: a
      crash or a decide clears the pid's bit. live_undecided() lists it,
      ``random_walk`` draws from its pids and the step bound reads it.
    - ``memo`` caches ``prog.step(state, obs)`` by ``(pid, state, obs)``
      for every step after a program's first. Programs are pure and their
      states and observations hashable, so a cached result equals a fresh
      one. One dict is shared by a run and every clone made from it, and
      dies with them.
    - ``path`` is the steps taken so far, for replay, as a persistent
      linked list of ``(parent, pid)`` nodes (None when empty): a step
      adds a node on top and never touches the shared tail.
      ``crash_log`` holds ``(pid, position)`` per crash, the position
      being the number of steps taken before it. schedule_so_far()
      unwinds both into an AsyncSchedule.
    - ``regs``, ``flags`` and the ``objects`` dict of ``ConsensusObject``
      values are never changed in place: a write, a flagged decision or a
      propose replaces them.

    The run owns its step bound: a step or a crash that leaves, its settling
    included, ``step_bound`` or more steps taken and a live pid undecided,
    or a fixed step due at the bound, marks it ``nonterminating``, and
    ``run_async``, ``random_walk`` and ``depth_first`` all stop on that
    flag. A run settles exactly when it keeps no ``events`` log: only
    ``run_async``'s run logs, and it is never cloned. A clone logs none.

    With eager=True the run keeps no log, and steps whose outcome is
    already fixed are committed immediately: local decides, reads of
    written cells (write-once registers make the value immutable), and
    reads of cells whose owner crashed before writing (permanently empty).
    Those steps commute with every other enabled step, so folding them
    never changes the reachable decision outcomes; it only collapses
    equivalent interleavings. A write or a propose is never committed
    eagerly, as what a reader or a later proposer observes depends on its
    order.

    Whether a process's step is fixed reads only its pending action and
    the row and crashed flag of the owner it reads, and a committed read or
    decide writes neither. So once settled, a process stays unfixed until
    it steps itself, or until the owner of its pending Read writes or
    crashes. After ``step(p)`` only p, and the readers of p's row when p
    wrote, are settled; after ``crash(p)`` only those readers; each in pid
    order, as a scan of every process would commit them. The path, every
    token and every key() are the full scan's.

    Every step but a decide ends in ``_commit``, which counts it, adds its
    path node and folds its observation into the program state through
    ``memo``. ``_advance`` takes any step and logs its event; settling
    hands a fixed read's value straight to ``_commit``, as a settling run
    logs no events.
    """

    __slots__ = (
        "progs",
        "inputs",
        "n",
        "states",
        "actions",
        "decided",
        "crashed",
        "live",
        "regs",
        "objects",
        "flags",
        "steps_taken",
        "step_bound",
        "nonterminating",
        "events",
        "path",
        "crash_log",
        "memo",
    )

    def __init__(self, progs, inputs, objects=None, eager=False):
        self.n = len(inputs)
        self.progs = progs
        self.inputs = tuple(inputs)
        self.memo = {}
        self.states = [None] * self.n
        self.actions = [None] * self.n
        for pid in range(self.n):
            self.states[pid], self.actions[pid] = progs[pid].step(progs[pid].state0, None)
        self.decided = [None] * self.n
        self.crashed = [False] * self.n
        self.live = (1 << self.n) - 1
        self.regs = ((),) * self.n
        self.objects = objects or {}
        self.flags = frozenset()
        self.steps_taken = 0
        self.step_bound = default_step_bound(self.n)
        self.nonterminating = False
        self.events = None if eager else []
        self.path = None
        self.crash_log = ()
        if eager:
            self._settle(range(self.n))

    def clone(self) -> "AsyncRun":
        new = object.__new__(AsyncRun)
        new.n = self.n
        new.progs = self.progs
        new.inputs = self.inputs
        new.states = list(self.states)
        new.actions = list(self.actions)
        new.decided = list(self.decided)
        new.crashed = list(self.crashed)
        new.live = self.live
        new.regs = self.regs
        new.objects = self.objects
        new.flags = self.flags
        new.steps_taken = self.steps_taken
        new.step_bound = self.step_bound
        new.nonterminating = self.nonterminating
        new.events = None
        new.path = self.path
        new.crash_log = self.crash_log
        new.memo = self.memo
        return new

    def key(self):
        """States, actions, decisions, crashed flags, register rows, objects
        and flags, unpacked into one flat tuple. The runs of one search
        share n and their objects, so every field sits at the same position
        in each key, and two keys are equal exactly when each field is."""
        return (
            *self.states,
            *self.actions,
            *self.decided,
            *self.crashed,
            *self.regs,
            *self.objects.values(),
            self.flags,
        )

    def live_undecided(self) -> list[int]:
        return list(_pids(self.live))

    @property
    def decisions(self) -> tuple:
        return tuple(self.decided)

    def crash(self, pid: int) -> None:
        if self.crashed[pid]:
            raise SpecError(f"process {pid} crashed twice")
        self.crashed[pid] = True
        self.live &= ~(1 << pid)
        self.crash_log += ((pid, self.steps_taken),)
        if self.events is not None:
            self.events.append((self.steps_taken, pid, "crash", None))
        if self.events is None:
            self._settle(self._readers(pid))
        if self.steps_taken >= self.step_bound and self.live:
            self.nonterminating = True

    def step(self, pid: int) -> None:
        if self.crashed[pid]:
            raise SpecError(f"crashed process {pid} cannot step")
        if self.decided[pid] is not None:
            raise ModelViolationError(f"process {pid} acted after deciding")
        wrote = type(self.actions[pid]) is Write
        self._advance(pid)
        if self.events is None:
            self._settle(self._readers(pid, pid) if wrote else (pid,))
        if self.steps_taken >= self.step_bound and self.live:
            self.nonterminating = True

    def _readers(self, owner: int, also: int = -1) -> list[int]:
        """The pids whose pending action reads ``owner``'s row, and ``also``."""
        return [
            pid
            for pid, act in enumerate(self.actions)
            if pid == also or (type(act) is Read and act.owner == owner)
        ]

    def _settle(self, pids) -> None:
        """Commit the fixed steps of ``pids``, each to its first unfixed one.
        A committed read or decide writes no register, so ``regs`` holds. A
        settling run logs no events, so a read goes straight to ``_commit``."""
        actions, crashed, regs = self.actions, self.crashed, self.regs
        for pid in pids:
            if crashed[pid]:
                continue
            while True:
                act = actions[pid]
                kind = type(act)
                if kind is Read:
                    # a written cell never changes, and a crashed owner's
                    # unwritten cell stays empty
                    owner, index = act
                    row = regs[owner]
                    if index >= len(row) and not crashed[owner]:
                        break
                elif kind is not Decide:
                    break  # a write, a propose, or decided (no action)
                if self.steps_taken >= self.step_bound:
                    self.nonterminating = True
                    return
                if kind is Read:
                    self._commit(pid, row[index] if 0 <= index < len(row) else None)
                else:
                    self._advance(pid)

    def _advance(self, pid: int) -> None:
        act = self.actions[pid]
        kind = type(act)
        pos = self.steps_taken
        obs = None
        if kind is Read:
            row = self.regs[act.owner]
            obs = row[act.index] if 0 <= act.index < len(row) else None
            if self.events is not None:
                self.events.append((pos, pid, "read", (act.owner, act.index, obs)))
        elif kind is Write:
            row = self.regs[pid]
            self.regs = self.regs[:pid] + (row + (act.payload,),) + self.regs[pid + 1:]
            if self.events is not None:
                self.events.append((pos, pid, "write", (len(row), act.payload)))
        elif kind is Propose:
            obj, obs = self.objects[act.obj].propose(pid, act.value)
            self.objects = {**self.objects, act.obj: obj}
            if self.events is not None:
                self.events.append((pos, pid, "propose", (act.obj, act.value, obs)))
        elif kind is Decide and act.value is not None:
            self.decided[pid] = act.value
            if act.flags:
                self.flags = self.flags.union(act.flags)
            if self.events is not None:
                self.events.append((pos, pid, "decide", act.value))
            self.live &= ~(1 << pid)
            self.steps_taken += 1
            self.path = (self.path, pid)
            self.actions[pid] = None
            return
        else:
            raise ModelViolationError(f"behavior emitted {act!r}, not an action of the model")
        self._commit(pid, obs)

    def _commit(self, pid: int, obs) -> None:
        """Count an undecided pid's step, add its path node and fold ``obs``
        into its state through ``memo``."""
        self.steps_taken += 1
        self.path = (self.path, pid)
        key = (pid, self.states[pid], obs)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self.progs[pid].step(key[1], obs)
        self.states[pid], self.actions[pid] = out

    def encode(self) -> str:
        """The replay token of the run so far, built only when asked."""
        return self.schedule_so_far().encode()

    def schedule_so_far(self) -> AsyncSchedule:
        steps = []
        node = self.path
        while node is not None:
            node, pid = node
            steps.append(pid)
        steps.reverse()
        return AsyncSchedule(tuple(steps), frozenset(self.crash_log))


@functools.cache
def _pids(mask: int) -> tuple[int, ...]:
    """The pids whose bit is set in ``mask``, in order: one tuple per mask,
    so at most 2^n for runs of n processes."""
    return tuple(pid for pid in range(mask.bit_length()) if mask >> pid & 1)


def random_walk(run, rng, crash_budget: int) -> int:
    """Drive an AsyncRun to its end by random choices: each step picks,
    uniformly, a live undecided process to step or, while fewer than
    ``crash_budget`` processes have crashed, to crash.

    Returns the number of configurations visited, the start included.
    """
    visited = 1
    crashes = sum(run.crashed)
    while not run.nonterminating:
        live = _pids(run.live)
        if not live:
            break
        options = len(live) * (2 if crashes < crash_budget else 1)
        pick = rng.randrange(options)
        if pick < len(live):
            run.step(live[pick])
        else:
            run.crash(live[pick - len(live)])
            crashes += 1
        visited += 1
    return visited


def depth_first(root, crash_budget, can_crash, visit=None, ample=None):
    """Search every configuration reachable from ``root``, an eager AsyncRun,
    depth first: yields ``(run, weight, done, slept)`` for each new one.

    At a configuration, each live undecided pid p may step, and may crash
    while fewer than ``crash_budget`` pids have crashed and ``can_crash(run,
    p)`` holds (it must read p's own state and action only). The children
    are searched in that order: crashes by pid, then steps by pid.
    ``weight`` is 1 for a configuration whose ``key()`` is new, or with
    ``visit`` ``visit(run, seen)``: the size of a new orbit, 0 for a seen
    one, or None, for the caller to stop. ``rotation.orbit_search`` gives
    the visit that keys a configuration up to one cell's role group, or up to
    the pid rotation of the value-free graph the cells share. A
    configuration of weight 0 is skipped. ``done`` says the run has ended
    (nonterminating, or no live undecided pid); ``slept`` counts the
    children not built, as below.

    Sleep sets (Godefroid, LNCS 1032, 1996). At a settled configuration a
    move is a Write, a Propose, a spin Read (of an unwritten cell whose
    owner is live; eager settling commits every other read and every
    decide) or a crash. Write, Propose and crash are progress moves: each
    grows a row, an object's proposers or the crashed set, which are in
    the key and never shrink. A child's sleep set is its parent's plus the
    progress moves of its earlier siblings, less the moves that may not
    commute with its own (``dependent_moves``, applied once the child is met
    as new), and a move in the sleep set is not built. Spin Reads never
    sleep.

    The search meets the same configurations in the same order as without
    sleep sets, so every count, recorded run and capped stop stays the
    same; only fewer children are built. A configuration in ``seen`` is an
    ancestor of the one being expanded, or its subtree is finished. Take a
    progress move u asleep at r·t, for t a move at r. Then u and t commute
    at r, and u was built or asleep at r before t. r·u has more progress
    than r and so than every ancestor of r, so it is no ancestor, and it is
    in ``seen`` (by induction, if u was asleep): its subtree is finished.
    So its child r·u·t, which is r·t·u, was built, or was asleep and is in
    ``seen`` by induction, and the child u of r·t would have weighed 0. The
    same holds orbit by orbit under role or rotation orbits, as the
    children and ``can_crash`` commute with the relabellings. A run the
    step bound cuts may take steps the other order does not, so once one
    is met, nothing more sleeps.

    Persistent sets (ibid., ch. 4). With ``ample`` (``roles``'s
    ``persistent_sets``), nothing sleeps, and until a run meets the step
    bound a configuration builds only ``ample(run, moves)``: the steps and
    crashes of a set T of pids that every move outside T commutes with,
    then and after. Proposes to different objects commute, and T holds
    every pid that may yet propose to an object a member of T proposes to
    next. A crash commutes with another pid's step, and a pid's
    crashability only falls as it proceeds, so while the budget left
    covers every crashable pid no crash disables another (T is all pids
    while the budget binds). Every move grows an object's proposers or the
    crashed set, so the graph is acyclic and needs no cycle proviso: every
    finished configuration is still met, the others fewer. T's choice
    commutes with the relabellings, so orbits weigh the same.
    """
    n = root.n
    seen = set()
    # (configuration, the sleep set before its move's dependents leave it,
    # parent, move)
    stack = [(root, 0, None, 0)]
    cut = False
    while stack:
        run, sleep, parent, move = stack.pop()
        cut = cut or run.nonterminating
        if visit:
            weight = visit(run, seen)
        else:
            size = len(seen)
            seen.add(run.key())
            weight = len(seen) - size
        if weight == 0:
            continue
        if cut:
            sleep = 0
        elif sleep:
            sleep &= ~dependent_moves(parent, move)
        live = run.live_undecided()
        done = run.nonterminating or not live
        slept = 0
        if not done:
            moves = live
            if sum(run.crashed) < crash_budget:
                moves = [n + p for p in live if can_crash(run, p)] + live
            if ample and not cut:
                moves = ample(run, moves)
            children = []
            for move in moves:
                if sleep >> move & 1:
                    slept += 1
                    continue
                child = run.clone()
                if move < n:
                    child.step(move)
                else:
                    child.crash(move - n)
                children.append((child, sleep, run, move))
                if not ample and (move >= n or type(run.actions[move]) is not Read):
                    sleep |= 1 << move
            stack.extend(reversed(children))
        yield run, weight, done, slept


def dependent_moves(run, move) -> int:
    """The bitmask of the progress moves (see ``depth_first``) that may not
    commute with ``move`` at the settled configuration ``run``: bit m for
    move m, which is p for a step of pid p and n + p for its crash.

    It reads the pending actions at ``run`` only. Two moves of one pid,
    and two crashes (they share the fault budget), are dependent. Steps
    of p and q are dependent if one writes and the other's pending Read is
    of the writer's row, or if both propose to one object. A crash of p and
    a step of q are dependent if q's pending Read is of p's row (the crash
    would settle it), or if p's pending Read is of q's row and q writes (p
    would advance). A spin Read never sleeps, so no mask needs a step that
    reads.
    """
    n, actions = run.n, run.actions
    p = move % n
    act = actions[p]
    kind = type(act)
    deps = 1 << p | 1 << n + p
    if kind is Read:
        if type(actions[act.owner]) is Write:
            deps |= 1 << act.owner
        if move < n:
            deps |= 1 << n + act.owner
    if move >= n:
        deps |= (1 << 2 * n) - (1 << n)
    elif kind is Write:
        for q, other in enumerate(actions):
            if type(other) is Read and other.owner == p:
                deps |= 1 << n + q
    elif kind is Propose:
        for q, other in enumerate(actions):
            if type(other) is Propose and other.obj == act.obj:
                deps |= 1 << q
    return deps


def default_step_bound(n: int) -> int:
    # Every catalog algorithm finishes within O(n) scans of n registers;
    # the slack catches bugs, not legitimate runs.
    return 64 * n * n


def run_async(
    programs,
    inputs,
    schedule: AsyncSchedule,
    *,
    spec: ProblemSpec | None = None,
    objects=None,
) -> ExecutionTrace:
    """Execute one schedule-driven run and return its full trace.

    Processes are stepped exactly in schedule order; if the schedule runs
    out with live undecided processes it is extended round-robin over them
    until everyone decided, or until the run marks itself nonterminating at
    its step bound (a resiliency violation, flagged in the trace rather than
    raised). The run is not eager, so it takes and logs every step. With
    ``spec``, ``spec.check_inputs`` checks the inputs.
    """
    inputs = tuple(inputs) if spec is None else spec.check_inputs(inputs)
    n = len(inputs)
    schedule.validate(n, n if spec is None else spec.t)

    run = AsyncRun(programs, inputs, objects=objects)
    crash_at = schedule.crash_at()
    pos = 0
    rr: list[int] = []
    while True:
        for pid in crash_at.get(pos, ()):
            run.crash(pid)
        if run.nonterminating or not run.live:
            break
        if pos < len(schedule.steps):
            pid = schedule.steps[pos]
            if not run.crashed[pid] and run.decided[pid] is None:
                run.step(pid)
        else:
            while rr and (run.crashed[rr[0]] or run.decided[rr[0]] is not None):
                rr.pop(0)
            if not rr:
                rr = run.live_undecided()
            run.step(rr.pop(0))
        pos += 1

    return ExecutionTrace(
        inputs=inputs,
        events=tuple(run.events),
        decisions=run.decisions,
        crashed=frozenset(p for p in range(n) if run.crashed[p]),
        flags=frozenset(run.flags),
        nonterminating=run.nonterminating,
        schedule=run.schedule_so_far(),
    )
