"""Every catalog algorithm and reduction, as executor-ready state machines.

Async behaviors expose ``state0`` and ``step(state, obs) -> (state, action)``;
sync behaviors expose ``state0``, ``round_send`` (one payload for every
process), ``round_recv`` and ``finalize``. All are pure and deterministic,
with hashable states and observations, so runs replay bit-identically, the
explorer can dedupe on state, and the async executor can memoise steps.

The catalog maps stable string ids ("no-comm", "max-wait", "min-flood",
"smg-comp", "reduce-binary", "reduce-set", "reduce-sync", "reduce-smg") to
builders that wire programs, shared objects, and verdict defaults together.
A reduction's builder answers its first phase itself (``first_phase``), so
its programs start from their first-phase answers.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .core import MODEL_SM_G, ProblemSpec, SpecError, ceil_div
from .objects import ConsensusObject, compliant_assignments, first_phase
from .shmem import Decide, Propose, Read, Write


# --- decision rules shared by the reductions -------------------------------


def strict_majority(values):
    """The value held by more than half of ``values``.

    A compliant first phase always leaves a strict majority; if none exists
    the smallest value is returned with a soundness flag so the run stays
    total but the violation is visible.
    """
    counts = Counter(values)
    best = min(counts, key=lambda v: (-counts[v], v))
    if 2 * counts[best] > len(values):
        return best, ()
    return min(counts), ("reduction-soundness",)


def most_repeated_max(values):
    """The largest value among those with the most repetitions."""
    counts = Counter(values)
    top = max(counts.values())
    return max(v for v, c in counts.items() if c == top)


# --- async behaviors --------------------------------------------------------

_INIT = ("i",)


def _next_other(owner: int, pid: int, n: int) -> int:
    """The process after ``owner`` in cyclic order, skipping ``pid`` itself."""
    owner = (owner + 1) % n
    return (owner + 1) % n if owner == pid else owner


class NoComm:
    """Decide the own input at the first step; never touch a register."""

    __slots__ = ("value",)
    state0 = _INIT
    # the objects it proposes to, in order: its states hold no pid and no
    # value, so ``roles`` may relabel it
    role_objects = ()

    def __init__(self, value: int):
        self.value = value

    def step(self, state, obs):
        return state, self.decide_on(0)

    def basis(self, state):
        # it reads no register
        return 0

    def decide_on(self, basis):
        return Decide(self.value)

    def no_more_visible(self, state):
        return True


class QuorumScan:
    """Publish the own answer, scan everyone until ``quorum`` answers are
    known, then decide ``rule`` on them: "max" (max-wait, whose answers are
    the inputs), "majority" (the strict majority, flagging if none exists)
    or "mode-max" (the largest among the most-repeated values), the rules of
    a reduction's second phase. The quorum is checked after every read.

    ``answers`` holds every process's answer, fixed at build time, and a
    process writes only its own, so a read of a written cell observes its
    owner's answer. A scanning state ``(cursor, last, mask)`` therefore
    tracks the answers seen as an owner bitmask: the set of (owner, answer)
    pairs seen is a bijection of it. A decision keeps ``(cursor, -1,
    mask)``, its basis in the mask.

    The state is pid-relative: the cursor and the last owner read are
    offsets from the pid, and the mask is rotated so that bit 0 is the pid
    itself (``basis`` rotates it back to owners). So no state holds a pid,
    and the states of pids p and p+r at the images of one configuration
    under rotation by r are equal (``rotation.RotationKeys``). The scan's
    (next cursor, read) pairs are precomputed per (pid, n)
    (``_scan_table``), and a decision is cached by rule and sorted
    observed answers (``_decision``).
    """

    __slots__ = ("pid", "n", "answers", "quorum", "rule", "scan")

    state0 = _INIT

    def __init__(self, pid, n, answers, quorum, rule):
        self.pid = pid
        self.n = n
        self.answers = answers
        self.quorum = quorum
        self.rule = rule
        self.scan = _scan_table(pid, n)

    def no_more_visible(self, state):
        # after the single write only reads and the decide remain
        return not (state is _INIT or state[0] == "i")

    def step(self, state, obs):
        if state is _INIT or state[0] == "i":
            return (1 % self.n, -1, 1), Write(self.answers[self.pid])
        cursor, last, mask = state
        if last >= 0 and obs is not None:
            mask |= 1 << last
        if mask.bit_count() >= self.quorum:
            return (cursor, -1, mask), self.decide_on(self._owners(mask))
        nxt, read = self.scan[cursor]
        return (nxt, cursor, mask), read

    def _owners(self, mask):
        """The owners of the pid-relative ``mask``, as bit o for owner o."""
        pid, n = self.pid, self.n
        return (mask << pid | mask >> n - pid) & (1 << n) - 1

    def basis(self, state):
        # a decision keeps the owners it read in its state
        return self._owners(state[2])

    def decide_on(self, basis):
        """Apply the rule to the answers of the owners in ``basis``."""
        seen = tuple(sorted(self.answers[o] for o in range(self.n) if basis >> o & 1))
        return _decision(self.rule, seen)


@functools.cache
def _scan_table(pid, n):
    """Per cursor of ``pid``'s scan, an offset from ``pid``, the next cursor
    and the read to issue. One table serves every cell: a table built per
    program churned the heap enough to raise the benchmark's sample-replay
    peak RSS by about 0.25 MB."""
    return tuple((_next_other(c, 0, n), Read((pid + c) % n, 0)) for c in range(n))


@functools.cache
def _decision(rule, values):
    """The decision of ``rule`` on the sorted answers ``values``."""
    if rule == "max":
        return Decide(values[-1])
    if rule == "majority":
        value, flags = strict_majority(values)
        return Decide(value, flags)
    return Decide(most_repeated_max(values))


class ProposeChain:
    """Propose the input to ``objects[0]``, then each winner to the next
    object, and decide the last winner. A state is (len(objects), proposes
    issued): the length keeps chains of different lengths in different
    local parts (``roles.RoleKeys``), which their pending proposes alone
    would not."""

    __slots__ = ("role_objects", "value", "state0")

    def __init__(self, objects: tuple, value: int):
        self.role_objects = objects  # see NoComm.role_objects
        self.value = value
        self.state0 = (len(objects), 0)

    def step(self, state, obs):
        length, issued = state
        if issued == length:
            return state, Decide(obs)
        value = obs if issued else self.value
        return (length, issued + 1), Propose(self.role_objects[issued], value)

    def no_more_visible(self, state):
        return state[1] == state[0]


# --- sync behaviors ---------------------------------------------------------


class MinFlood:
    """Broadcast the preferred value each round; adopt the round minimum."""

    __slots__ = ("state0",)

    def __init__(self, value: int):
        self.state0 = value

    def round_send(self, pref, rnd):
        return pref, pref

    def round_recv(self, pref, rnd, inbox):
        return min(inbox.values()) if inbox else pref

    def finalize(self, pref):
        return Decide(pref)


class BroadcastMajority:
    """One broadcast round of the first-phase answer, then majority."""

    __slots__ = ("state0",)

    def __init__(self, first_phase_value: int):
        self.state0 = (first_phase_value, ())

    def round_send(self, state, rnd):
        return state, state[0]

    def round_recv(self, state, rnd, inbox):
        return (state[0], tuple(sorted(inbox.values())))

    def finalize(self, state):
        value, flags = strict_majority(list(state[1]) or [state[0]])
        return Decide(value, flags)


# --- composition placement --------------------------------------------------


def composition_plan(n: int, g: int) -> dict:
    """Group layout for the object-composition algorithm.

    Case split on g > 3*floor(n/4): a single object covers g processes;
    otherwise two disjoint groups of size ghat feed A and B and half of each
    relays into the tie object C. Groups take the lowest available pids.
    """
    if g > 3 * (n // 4):
        return {"case": 1, "participants": list(range(g))}
    ghat = min(n // 2, g)
    g1 = list(range(ghat))
    g2 = list(range(ghat, 2 * ghat))
    g3 = g1[: ghat // 2]
    g4 = g2[: ghat // 2]
    return {"case": 2, "ghat": ghat, "G1": g1, "G2": g2, "G3": g3, "G4": g4}


# --- catalog ----------------------------------------------------------------


@dataclass
class Built:
    """Everything one run needs: programs, fresh shared objects, the round
    count (sync) and a reduction's first-phase answers."""

    programs: dict
    objects: dict = field(default_factory=dict)
    rounds: int | None = None
    first_phase: tuple | None = None


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog algorithm: its builder, fault budget and verdict defaults.

    ``oracle_contract`` (spec -> (k, ell)) marks a reduction whose first
    phase is a black-box protocol meeting that contract under strong
    validity. It raises the reduction's SpecError on a spec the reduction
    does not apply to, and the builder and ``explore`` call it first. The
    builder answers the first phase from a given compliant assignment (one
    cell of an explore) or the worst-case split, and records the answers
    as ``Built.first_phase``; the programs start from their answers and
    never read the input.

    ``symmetry`` declares the pid relabellings the entry commutes with:
    "rotation" (p -> p+r), "any" (every permutation) or None. Relabelling
    pids by a group element maps each run onto a run of the relabelled
    input vector (and first-phase assignment), and together with value
    relabelling this lets an exhaustive explore fold each orbit onto one
    search (see ``explore``). Why each declaration holds:

    - ``QuorumScan`` (max-wait and the async reductions): rotation, as
      every scan starts at pid+1 and runs cyclically (``_next_other``),
      and quorum, rule, crash hint and fault budget are the same for
      every pid.
    - ``NoComm``, ``MinFlood``, ``BroadcastMajority``: any permutation, as
      every process runs the same program and the crash patterns are
      enumerated over all pids.
    - ``smg-comp``: none across cells, as its pids hold distinct roles.
      Inside a cell, ``explore`` searches up to the relabellings that map
      the cell onto itself (``roles``). That is sound because the program
      states hold no pid or value, ``ConsensusObject`` treats values as
      opaque, the crash hints read role state only, and the root is fixed
      by construction.

    ``value_symmetry`` declares the value relabellings the entry commutes
    with: bijections from the proposed values of one cell onto those of
    another, applied to the inputs and the first-phase answers alike.
    Whether a run passes, and the empirical k and ell, read its decisions
    only as counts per proposed value, so a relabelling that commutes with
    every decision rule maps each run onto a run of the relabelled cell.
    Why each declaration holds:

    - "monotone" (order-preserving bijections), the default: ``NoComm``
      never compares values, max-wait's max, ``MinFlood``'s min and
      ``most_repeated_max`` (reduce-set's mode-max rule) pick by order,
      and an order-preserving map keeps every such pick.
    - "any" (every bijection) for the strict-majority reductions
      (reduce-binary, reduce-smg, reduce-sync): ``strict_majority`` picks
      the value held by more than half of those seen, which no relabelling
      changes. Only its flagged fallback on a tie picks by order, the
      smallest value, and only a first phase that breaks its contract
      leaves a tie. So a cell whose search records a violation or a
      flagged run seeds no fold, and ``explore`` searches every later cell
      of its orbit.

    A program that declares ``basis(state)`` and ``decide_on(basis)``
    (``NoComm``, whose basis is empty, and ``QuorumScan``, whose decision
    keeps its basis as the mask of its state) asserts that it never
    branches on a value and writes only its own fixed value: its steps read
    an observation only as "seen" or "nothing", and it decides
    ``decide_on(basis(state))``, where the basis is the set of owners whose
    values it read, as a bitmask. Then two cells of one explore (same n,
    quorum and fault budget) differ only in the values written and decided,
    so their configurations map one to one, with equal ``AsyncRun.key``
    equalities (a key holds values only where the value-free part of the
    configuration fixes them), equal crash hints and equal eager steps: the
    DFS meets the same configurations in the same order, and each finished
    run keeps its bases, crashed pids and nontermination. The pid
    ``symmetry`` then holds inside that shared graph too: rotating pids
    maps a cell onto the cell of the rotated values, whose graph is the
    same up to values, so rotation maps the graph onto itself; and as
    ``QuorumScan`` keeps its state pid-relative, a configuration's image
    is its pids' value-free local parts shifted. ``explore`` therefore
    searches the graph once, one configuration per rotation orbit, and
    resolves every cell from its runs (``rotation.shared_search``, see
    ``verify.explore``). An entry qualifies when every program of its cells
    declares both, so ``smg-comp``, whose proposers observe a winner
    value, never does.
    """

    name: str
    flavor: str  # "async" | "sync"
    build: Callable
    fault_budget: Callable
    default_k: Callable
    default_ell: Callable = lambda spec: spec.ell
    oracle_contract: Callable | None = None  # spec -> (k, ell)
    symmetry: str | None = None  # "rotation" | "any" | None
    value_symmetry: str = "monotone"  # "monotone" | "any"

    @property
    def uses_oracle(self) -> bool:
        return self.oracle_contract is not None

    def oracle_assignments(self, spec: ProblemSpec, inputs):
        return compliant_assignments(spec.n, *self.oracle_contract(spec), inputs)


def _build_no_comm(spec, inputs, assignment=None):
    return Built({pid: NoComm(inputs[pid]) for pid in range(spec.n)})


def _build_max_wait(spec, inputs, assignment=None):
    q = spec.n - spec.t
    if q < 1:
        raise SpecError(f"max-wait needs n - t >= 1, got n={spec.n}, t={spec.t}")
    return _build_scan(spec.n, tuple(inputs), q, "max")


def _build_min_flood(spec, inputs, assignment=None):
    rounds = spec.t // spec.ell + 1
    return Built(
        {pid: MinFlood(inputs[pid]) for pid in range(spec.n)},
        rounds=rounds,
    )


def _build_smg_comp(spec, inputs, assignment=None):
    if spec.model != MODEL_SM_G or spec.g is None:
        raise SpecError("smg-comp needs model sm-g with g set")
    n, g = spec.n, spec.g
    plan = composition_plan(n, g)
    if plan["case"] == 1:
        objects = {"A": ConsensusObject(g)}
        chains = dict.fromkeys(plan["participants"], ("A",))
    else:
        objects = {"A": ConsensusObject(g), "B": ConsensusObject(g), "C": ConsensusObject(g)}
        chains = {
            **dict.fromkeys(plan["G1"], ("A",)),
            **dict.fromkeys(plan["G2"], ("B",)),
            **dict.fromkeys(plan["G3"], ("A", "C")),
            **dict.fromkeys(plan["G4"], ("B", "C")),
        }
    programs = {
        pid: ProposeChain(chains[pid], inputs[pid]) if pid in chains else NoComm(inputs[pid])
        for pid in range(n)
    }
    return Built(programs, objects=objects)


def smg_guarantee(spec: ProblemSpec) -> int:
    ghat = min(spec.n // 2, spec.g)
    return max(spec.g, 3 * (ghat // 2))


def _build_scan(n, answers, quorum, rule) -> Built:
    """Every pid a QuorumScan of ``answers`` with ``quorum`` and ``rule``."""
    return Built({pid: QuorumScan(pid, n, answers, quorum, rule) for pid in range(n)})


def _build_reduction(spec, inputs, assignment, contract, quorum, rule) -> Built:
    """An async reduction: the first phase answered at build time, then
    its scan (``_build_scan``)."""
    answers = first_phase(spec.n, *contract(spec), inputs, assignment)
    return Built(_build_scan(spec.n, answers, quorum, rule).programs, first_phase=answers)


def _binary_contract(spec):
    if spec.m != 2:
        raise SpecError("reduce-binary needs m=2")
    return (ceil_div(spec.n, 2) + 1, 1)


def _build_reduce_binary(spec, inputs, assignment=None):
    return _build_reduction(spec, inputs, assignment, _binary_contract, spec.n - 1, "majority")


def _set_contract(spec):
    if spec.m > spec.t + 1:
        raise SpecError(f"reduce-set needs m <= t+1, got m={spec.m}, t={spec.t}")
    return (spec.n // spec.m + spec.n % spec.m + 1, 1)


def _build_reduce_set(spec, inputs, assignment=None):
    return _build_reduction(
        spec, inputs, assignment, _set_contract, spec.n - (spec.m - 1), "mode-max"
    )


def _smg_contract(spec):
    if spec.m != 2:
        raise SpecError("reduce-smg needs m=2")
    if not spec.n > spec.t >= 1:
        raise SpecError(f"reduce-smg needs n > t >= 1, got n={spec.n}, t={spec.t}")
    return (ceil_div(spec.n + spec.t - 1, 2) + 1, 1)


def _build_reduce_smg(spec, inputs, assignment=None):
    return _build_reduction(spec, inputs, assignment, _smg_contract, spec.n - spec.t, "majority")


def _sync_contract(spec):
    if spec.m != 2:
        raise SpecError("reduce-sync needs m=2")
    return (ceil_div(spec.n + spec.t + 1, 2), 1)


def _build_reduce_sync(spec, inputs, assignment=None):
    # The first phase is a black box answered before the broadcast round;
    # its round cost is accounting, not simulation. A victim of the single
    # round with no recipients models a crash inside the first phase.
    answers = first_phase(spec.n, *_sync_contract(spec), inputs, assignment)
    programs = {pid: BroadcastMajority(answers[pid]) for pid in range(spec.n)}
    return Built(programs, rounds=1, first_phase=answers)


CATALOG: dict[str, CatalogEntry] = {
    "no-comm": CatalogEntry(
        name="no-comm",
        flavor="async",
        build=_build_no_comm,
        fault_budget=lambda spec: spec.t,
        default_k=lambda spec: ceil_div(spec.n, spec.m),
        symmetry="any",
    ),
    "max-wait": CatalogEntry(
        name="max-wait",
        flavor="async",
        build=_build_max_wait,
        fault_budget=lambda spec: spec.t,
        default_k=lambda spec: ceil_div(spec.n, min(spec.m, spec.t + 1)),
        symmetry="rotation",
    ),
    "min-flood": CatalogEntry(
        name="min-flood",
        flavor="sync",
        build=_build_min_flood,
        fault_budget=lambda spec: spec.t,
        default_k=lambda spec: ceil_div(spec.n, spec.ell),
        symmetry="any",
    ),
    "smg-comp": CatalogEntry(
        name="smg-comp",
        flavor="async",
        build=_build_smg_comp,
        fault_budget=lambda spec: spec.t,
        default_k=smg_guarantee,
    ),
    "reduce-binary": CatalogEntry(
        name="reduce-binary",
        flavor="async",
        build=_build_reduce_binary,
        fault_budget=lambda spec: 1,
        default_k=lambda spec: spec.n,
        oracle_contract=_binary_contract,
        symmetry="rotation",
        value_symmetry="any",
    ),
    "reduce-set": CatalogEntry(
        name="reduce-set",
        flavor="async",
        build=_build_reduce_set,
        fault_budget=lambda spec: spec.m - 1,
        default_k=lambda spec: spec.n,
        default_ell=lambda spec: spec.m - 1,
        oracle_contract=_set_contract,
        symmetry="rotation",
    ),
    "reduce-sync": CatalogEntry(
        name="reduce-sync",
        flavor="sync",
        build=_build_reduce_sync,
        fault_budget=lambda spec: spec.t,
        default_k=lambda spec: spec.n,
        oracle_contract=_sync_contract,
        symmetry="any",
        value_symmetry="any",
    ),
    "reduce-smg": CatalogEntry(
        name="reduce-smg",
        flavor="async",
        build=_build_reduce_smg,
        fault_budget=lambda spec: spec.t,
        default_k=lambda spec: spec.n,
        oracle_contract=_smg_contract,
        symmetry="rotation",
        value_symmetry="any",
    ),
}


def get_algorithm(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(CATALOG))
        raise SpecError(f"unknown algorithm {name!r}; known: {known}") from None


def build_algorithm(name: str, spec: ProblemSpec, inputs, assignment=None) -> Built:
    return get_algorithm(name).build(spec, inputs, assignment)
