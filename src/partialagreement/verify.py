"""Post-hoc contract checking and exhaustive/sampled execution exploration.

check_agreement turns any finished trace into a Verdict against an
(n, k, ell) spec. explore drives one catalog algorithm across input
assignments x schedules (async, via full-state-deduplicated DFS over the
execution tree) or crash patterns (sync), checking every complete run and
aggregating empirical thresholds. Oracle-backed reductions are additionally
driven across every contract-compliant first-phase assignment.

A cell (one input vector, with one first-phase assignment for a reduction)
is searched, folded onto an earlier cell of its symmetry orbit, or resolved
from one search up to a group: the pid rotation of the graph that cells
with a decision basis share, or a role cell's own role group. A cell of that
shared graph where a class fails resolves from the graph's one plain search
(see explore).
"""

from __future__ import annotations

import json
import random
from collections import Counter, namedtuple
from typing import NamedTuple

from .algorithms import get_algorithm
from .core import (
    ProblemSpec, SpecError, VALIDITY_STRONG, best_witness, evaluate_bounds,
)
from .objects import check_contract
from .shmem import AsyncRun, depth_first, random_walk
from .syncmp import chain_patterns, pattern_outcome, random_pattern


class Verdict(NamedTuple):
    """Outcome of checking one run against the agreement contract.

    witness_set is the <= ell proposed values certifying agreement;
    offenders counts processes that decided outside it. Undecided
    processes (crashed or still running) are never offenders: they count
    toward k.
    """

    agreement_ok: bool
    witness_set: tuple
    offenders: int
    validity_ok: bool
    resiliency_ok: bool
    details: tuple
    flags: tuple = ()

    @property
    def passed(self) -> bool:
        return self.agreement_ok and self.validity_ok and self.resiliency_ok

    def to_dict(self) -> dict:
        return {
            "agreement_ok": self.agreement_ok,
            "witness_set": list(self.witness_set),
            "offenders": self.offenders,
            "validity_ok": self.validity_ok,
            "resiliency_ok": self.resiliency_ok,
            "details": [list(d) for d in self.details],
            "flags": list(self.flags),
            "passed": self.passed,
        }


def check_agreement(trace, spec: ProblemSpec) -> Verdict:
    """Evaluate agreement, validity and resiliency for a finished run.

    ``trace`` needs pid-indexed ``decisions`` (None while undecided),
    ``inputs``, a ``crashed`` container, and a ``nonterminating`` flag.
    """
    n = spec.n
    decisions = trace.decisions
    if len(decisions) != n:
        raise SpecError(f"trace has {len(decisions)} processes, spec has n={n}")
    proposed = set(trace.inputs)
    counts = Counter(v for v in decisions if v is not None)
    witness = best_witness(counts, proposed, spec.ell)
    witness_set = set(witness)
    offenders = sum(c for v, c in counts.items() if v not in witness_set)
    agreement_ok = offenders <= n - spec.k
    # Weak validity asks only that the witness values were proposed, and
    # best_witness picks proposed values only, so it always holds.
    validity_ok = spec.validity != VALIDITY_STRONG or all(v in proposed for v in counts)
    undecided_live = any(
        decisions[pid] is None and pid not in trace.crashed for pid in range(n)
    )
    resiliency_ok = not trace.nonterminating and not undecided_live
    return Verdict(
        agreement_ok=agreement_ok,
        witness_set=witness,
        offenders=offenders,
        validity_ok=validity_ok,
        resiliency_ok=resiliency_ok,
        details=tuple(sorted(counts.items())),
        flags=tuple(sorted(trace.flags)),
    )


# --- exploration ------------------------------------------------------------


class ExploreBudget(namedtuple(
    "ExploreBudget",
    "max_runs max_states max_input_vectors samples mode seed max_recorded_violations",
    defaults=(500_000, 4_000_000, 4096, 100, "auto", 0, 25),
)):
    """Limits for one exploration.

    mode "auto" enumerates exhaustively and fails soft (partial report)
    past the caps; mode "sample" replaces schedule/pattern enumeration with
    ``samples`` seeded random runs per cell. Either mode stops, before
    recording it, at the first run whose states take ``states_explored``
    past ``max_states``: a DFS state, a crash pattern or a random walk's
    steps. Every field but ``mode`` is an int, the caps and ``samples`` are
    positive and ``max_recorded_violations`` is not negative, 0 recording
    none (SpecError otherwise).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in (
            "max_runs", "max_states", "max_input_vectors", "samples", "seed",
            "max_recorded_violations",
        ):
            if type(getattr(self, name)) is not int:
                raise SpecError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("max_runs", "max_states", "max_input_vectors", "samples"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_recorded_violations < 0:
            raise SpecError(f"max_recorded_violations must be >= 0, got {self.max_recorded_violations}")
        if self.mode not in ("auto", "sample"):
            raise SpecError(f"mode must be 'auto' or 'sample', got {self.mode!r}")
        return self

    def to_dict(self) -> dict:
        return self._asdict()


# What an explore's replay encoding holds (see explore_from_replay).
_REPLAY_KEYS = ("algorithm", "spec", "inputs_mode", "budget")


class ExplorationReport:
    executions_checked = 0
    states_explored = 0
    violations_total = 0
    flagged_executions = 0
    empirical_k = None
    empirical_k_all_runs = None
    empirical_ell = None
    exhaustive = True
    # Cells searched or resolved, folded by pid symmetry and value
    # relabelling, and resolved from the shared search (see explore), states
    # searched, the shared search's states and the states they stand for
    # (see rotation.shared_search), the states of its graph's plain search
    # and the failing cells resolved from it (see rotation.plain_search),
    # children the DFS's sleep sets did not build
    # and moves its persistent sets left out (see shmem.depth_first), and,
    # made by __init__, per cell resolved up to role symmetry its states
    # searched, the states they stand for and its group's order (see
    # roles.role_search), and the verdict per distinct outcome recorded, and
    # per one checked but not yet recorded (see verdict); not serialised, as
    # they leave the report unchanged.
    cells_explored = 0
    cells_folded = 0
    cells_resolved = 0
    states_searched = 0
    shared = ()
    plain = ()
    moves_slept = 0
    moves_pruned = 0

    def __init__(self, algorithm: str, spec: ProblemSpec, inputs_mode, budget: ExploreBudget):
        self.algorithm, self.spec, self.inputs_mode, self.budget = algorithm, spec, inputs_mode, budget
        self.violations, self.notes, self.roles = [], [], []
        self.verdicts, self.checked = {}, {}

    def record(self, outcome: _Outcome, base: dict, token_key: str, token, weight=1) -> None:
        """Count ``weight`` finished runs (see _count_passing). ``token`` is the
        finished run itself (an ``AsyncRun``) or its ``CrashPattern``; its
        ``encode()``, the replay schedule or pattern, is called and stored
        under ``token_key`` only if the run is recorded as a violation."""
        self.executions_checked += weight
        if outcome.flags:
            self.flagged_executions += weight
        verdict = self.verdicts.get(outcome)
        if verdict is None:
            # empirical thresholds are maxima and minima over outcomes, so
            # one fold per distinct outcome recorded gives the same values
            verdict = self.verdicts[outcome] = self.verdict(outcome)
            del self.checked[outcome]
            self._fold_thresholds(outcome)
        if not verdict.passed:
            self.violations_total += weight
            if len(self.violations) < self.budget.max_recorded_violations:
                self.violations.append({
                    "algorithm": self.algorithm,
                    "spec": self.spec.to_dict(),
                    **base,
                    token_key: token.encode(),
                    "verdict": verdict.to_dict(),
                })
        if self.executions_checked >= self.budget.max_runs:
            raise _BudgetStop

    def verdict(self, outcome: _Outcome) -> Verdict:
        """The verdict of ``outcome``, checked once per distinct outcome;
        nothing is counted or folded until it is recorded."""
        verdict = self.verdicts.get(outcome) or self.checked.get(outcome)
        if verdict is None:
            verdict = self.checked[outcome] = check_agreement(outcome, self.spec)
        return verdict

    def _fold_thresholds(self, outcome: _Outcome) -> None:
        decided = [v for v in outcome.decisions if v is not None]
        undecided = self.spec.n - len(decided)
        counts = Counter(decided)
        if decided:
            self.empirical_ell = max(self.empirical_ell or 0, len(counts))
            top_all = max(counts.values()) + undecided
        else:
            top_all = undecided
        if self.empirical_k_all_runs is None or top_all < self.empirical_k_all_runs:
            self.empirical_k_all_runs = top_all
        if undecided == 0:
            top = max(counts.values())
            if self.empirical_k is None or top < self.empirical_k:
                self.empirical_k = top

    def to_dict(self) -> dict:
        mode = self.inputs_mode
        if not isinstance(mode, str):
            mode = [list(v) for v in mode]
        return {
            "schema_version": 3,
            "algorithm": self.algorithm,
            "spec": self.spec.to_dict(),
            "inputs_mode": mode,
            "budget": self.budget.to_dict(),
            "executions_checked": self.executions_checked,
            "states_explored": self.states_explored,
            "violations": self.violations,
            "violations_total": self.violations_total,
            "flagged_executions": self.flagged_executions,
            "empirical_k": self.empirical_k,
            "empirical_k_all_runs": self.empirical_k_all_runs,
            "empirical_ell": self.empirical_ell,
            "exhaustive": self.exhaustive,
            "notes": self.notes,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def replay_encoding(self) -> str:
        d = self.to_dict()
        return json.dumps({k: d[k] for k in _REPLAY_KEYS}, sort_keys=True)


def explore_from_replay(encoding: str | dict) -> ExplorationReport:
    """The explore that ``encoding``, a ``replay_encoding``, describes. Any
    other key set to a true value, such as an explore option that is gone,
    asks for a search this explorer cannot reproduce. That, and an encoding
    that is not such an object of such values, is a SpecError; the explore
    itself runs only once the encoding is read."""
    try:
        d = json.loads(encoding) if isinstance(encoding, str) else encoding
        extra = [k for k in d if d[k] and k not in _REPLAY_KEYS]
        mode = d["inputs_mode"]
        if not isinstance(mode, str):
            mode = [tuple(v) for v in mode]
        spec, budget = ProblemSpec.from_dict(d["spec"]), ExploreBudget(**d["budget"])
    except KeyError as exc:
        raise SpecError(f"replay encoding lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad replay encoding: {exc}") from None
    if extra:
        raise SpecError(f"cannot replay an explore that sets {extra}")
    return explore(d["algorithm"], spec, mode, budget)


class _BudgetStop(Exception):
    pass


class _Outcome(NamedTuple):
    """What check_agreement reads from a finished run, and nothing else.

    Being a hashable tuple, it keys the verdict memo: two runs with equal
    outcomes get equal verdicts.
    """

    inputs: tuple
    decisions: tuple
    crashed: frozenset
    flags: frozenset
    nonterminating: bool


def _crash_can_matter(run, pid) -> bool:
    """Whether the DFS crashes ``pid`` here. Crashing a process whose
    remaining actions are invisible to others (post-write scans, local
    decide) is dominated by letting it run: it removes a decision (never
    adds offenders) and burns fault budget. Those branches are skipped. It
    reads ``pid``'s own state only, as ``shmem.depth_first`` requires.

    The hints read the state stored after the pending action was emitted,
    as if that action had happened: so the DFS never crashes a
    ``QuorumScan`` or ``NoComm`` pid, and crashes a ``ProposeChain`` pid
    only while a propose before its last one is pending, never just before
    its last propose (ROADMAP item 1)."""
    hint = getattr(run.progs[pid], "no_more_visible", None)
    return hint is None or not hint(run.states[pid])


def _async_outcome(run) -> _Outcome:
    return _Outcome(
        inputs=run.inputs,
        decisions=run.decisions,
        crashed=frozenset(p for p in range(run.n) if run.crashed[p]),
        flags=frozenset(run.flags),
        nonterminating=run.nonterminating,
    )


def _count_passing(report, outcomes, states) -> bool:
    """Record each ``(outcome, count)`` of ``outcomes`` with its count, then
    add ``states``: a cell's outcomes from a search up to pid rotation or up
    to its role group, or a crash-pattern group's (see explore). Counts nothing
    and returns False, for the runs to be recorded one by one, if an outcome
    fails its verdict."""
    if not all(report.verdict(outcome).passed for outcome, _ in outcomes):
        return False
    for outcome, count in outcomes:
        report.record(outcome, None, None, None, count)
    report.states_explored += states
    return True


def _cell_base(inputs, assignment) -> dict:
    """What each recorded violation of the cell says of it."""
    base = {"inputs": list(inputs)}
    if assignment is not None:
        base["assignment"] = list(assignment)
    return base


def _explore_cell(entry, inputs, assignment, report) -> None:
    """Search one cell into ``report``: its crash patterns (sync), counted a
    group at a time (``syncmp.chain_patterns``, see explore), or its
    ``samples`` random patterns, each run alone (``syncmp.pattern_outcome``);
    its ``samples`` random runs (async sample mode), or the DFS of the
    configurations reachable from its start, one per ``AsyncRun.key``
    (``shmem.depth_first``, whose sleep sets leave unbuilt the children the
    DFS would find seen, and ``report.moves_slept`` counts them, or whose
    persistent sets leave out moves, counted in ``report.moves_pruned``)
    if ``roles.role_search`` does not resolve it."""
    spec, budget = report.spec, report.budget
    max_states = budget.max_states  # a local, as it is compared once per state
    built = entry.build(spec, inputs, assignment)
    crash_budget = min(entry.fault_budget(spec), spec.n)
    base = _cell_base(inputs, assignment)
    if entry.flavor == "sync":
        base["rounds"] = built.rounds
    rng = random.Random(f"{budget.seed}|{inputs}|{assignment}") if budget.mode == "sample" else None

    if entry.flavor == "sync":
        def run_alone(patterns):
            for pattern in patterns:
                report.states_explored += 1
                if report.states_explored > max_states:
                    raise _BudgetStop
                outcome = pattern_outcome(built.programs, pattern, built.rounds)
                report.record(_Outcome(inputs, *outcome, False), base, "pattern", pattern)

        if rng:
            run_alone(random_pattern(rng, spec.n, crash_budget, built.rounds)
                      for _ in range(budget.samples))
            return
        for finals, patterns in chain_patterns(built.programs, spec.n, crash_budget, built.rounds):
            runs = sum(finals.values())
            outcomes = [(_Outcome(inputs, *final, False), count) for final, count in finals.items()]
            if not (_fits(report, (runs, runs)) and _count_passing(report, outcomes, runs)):
                run_alone(patterns)
        return

    root = AsyncRun(built.programs, inputs, objects=built.objects, eager=True)
    if rng:
        for _ in range(budget.samples):
            run = root.clone()
            report.states_explored += random_walk(run, rng, crash_budget)
            if report.states_explored > max_states:
                raise _BudgetStop
            report.record(_async_outcome(run), base, "schedule", run)
        return
    ample = None
    if any(getattr(prog, "role_objects", None) for prog in built.programs.values()):
        from . import roles  # loaded by the first such cell

        ample = roles.persistent_sets(built, crash_budget, report)
        if roles.role_search(built, inputs, root, crash_budget, report, ample):
            return
    for run, _, done, slept in depth_first(root, crash_budget, _crash_can_matter, ample=ample):
        report.states_searched += 1
        report.moves_slept += slept
        report.states_explored += 1
        if report.states_explored > max_states:
            raise _BudgetStop
        if done:
            report.record(_async_outcome(run), base, "schedule", run)


def _canonical(vector, symmetry, values, relabel) -> tuple:
    """A key that ``vector`` shares with exactly the vectors of its orbit
    under the pid ``symmetry`` group and the bijections from ``values`` onto
    0, 1, ... that ``relabel`` allows: the order-preserving one for
    "monotone", every one for "any"."""
    n = len(vector)
    if relabel == "monotone":
        rank = {v: i for i, v in enumerate(sorted(values))}
        vector = tuple(rank[v] for v in vector)
        if symmetry == "any":
            return tuple(sorted(vector))
        return min(vector[r:] + vector[:r] for r in range(n))
    if symmetry == "any":
        # up to pid permutation a vector is its count per value, and up to
        # value bijection the sorted counts
        return tuple(sorted(Counter(vector).values()))
    images = []
    for r in range(n):
        names: dict = {}
        images.append(tuple(names.setdefault(v, len(names)) for v in vector[r:] + vector[:r]))
    return min(images)


def _orbit(entry, inputs, assignment) -> tuple:
    """A key shared by every cell whose search is the same up to the entry's
    declared ``symmetry`` and ``value_symmetry``. A plain cell is keyed by
    its input vector; an oracle cell by its set of proposed values and its
    assignment, as the programs never read the input and the verdict reads
    it only as that set."""
    values = set(inputs)
    vector = inputs if assignment is None else assignment
    return len(values), _canonical(vector, entry.symmetry, values, entry.value_symmetry)


def _fits(report, tally) -> bool:
    """Whether adding the states and runs of ``tally`` keeps ``report``
    short of its caps."""
    budget = report.budget
    return (
        report.states_explored + tally[0] <= budget.max_states
        and report.executions_checked + tally[1] < budget.max_runs
    )


def _tally(report) -> tuple:
    return (
        report.states_explored,
        report.executions_checked,
        report.flagged_executions,
        report.violations_total,
    )


def _explore_cells(entry, vectors, report) -> None:
    """Search, fold or resolve every cell of ``vectors`` into ``report`` (see
    explore). The shared search runs at the first cell, and its graph's
    plain search at the first cell whose classes fail, once each."""
    spec, budget = report.spec, report.budget
    fold = entry.symmetry is not None and budget.mode != "sample"
    share = fold and entry.flavor == "async"
    shared = None  # the states, runs and run classes of the shared search
    plain = None  # the states and listed runs of its graph's plain search
    # orbit -> states and runs of its first cell; None if that cell recorded
    # a violation, so the recorded list keeps its cells and order, or a
    # flagged run, as a tie is broken by value order
    tallies: dict = {}
    for inputs in vectors:
        cells = entry.oracle_assignments(spec, inputs) if entry.uses_oracle else [None]
        for assignment in cells:
            orbit = _orbit(entry, inputs, assignment) if fold else None
            tally = tallies.get(orbit)
            if tally is not None and _fits(report, tally):
                report.states_explored += tally[0]
                report.executions_checked += tally[1]
                report.cells_folded += 1
                continue
            before = _tally(report)
            report.cells_explored += 1
            if share:
                from . import rotation  # loaded by the first shared search

                share, shared = False, rotation.shared_search(entry, inputs, assignment, report)
            if shared and _fits(report, shared):
                outcome = rotation.class_decoder(entry, spec, inputs, assignment)
                if not _count_passing(report, rotation.class_outcomes(outcome, shared[2]), shared[0]):
                    plain = plain or rotation.plain_search(entry, inputs, assignment, report)
                    base = _cell_base(inputs, assignment)
                    for cls, path in plain[1]:
                        report.record(outcome(cls), base, "schedule", path)
                    report.states_explored += plain[0]
                    report.plain = plain[0], report.plain[1] + 1
                report.cells_resolved += 1
            else:
                _explore_cell(entry, inputs, assignment, report)
            if fold:
                delta = tuple(a - b for a, b in zip(_tally(report), before))
                tallies.setdefault(orbit, None if delta[2] or delta[3] else delta[:2])


def explore(
    algorithm: str,
    spec: ProblemSpec,
    inputs_mode="all",
    budget: ExploreBudget | None = None,
) -> ExplorationReport:
    """Check one catalog algorithm across adversary choices.

    Iterates input assignments x schedules (async) or crash patterns
    (sync); oracle-backed reductions additionally iterate every
    contract-compliant first-phase assignment. Budget exhaustion yields a
    partial report flagged non-exhaustive rather than an exception.

    A cell is one input vector with, for a reduction, one oracle
    assignment. Every reduction below keeps the report the unreduced
    search's by one rule: it counts the work of a cell (of a crash-pattern
    group, for sync) only when every outcome passes its verdict and the
    counts fit the caps. Otherwise it records the runs one by one in the
    order of the cell's plain search, so the recorded violations keep their
    cells and order, and it searches a cell that would reach a cap plainly,
    so a partial search stops on the same run. Sampled explores are never
    folded or resolved.

    An exhaustive search folds the cells by the entry's declared
    ``CatalogEntry.symmetry`` and ``value_symmetry``: each orbit
    (``_orbit``) is seeded by its first cell, searched or resolved, with
    that cell's states and runs, or with nothing if it recorded a violation
    or a flagged run. A later cell of a seeded orbit adds those states and
    runs instead of being searched. This is sound because the verdict and
    the empirical k and ell read decisions only as counts per proposed
    value, and the entry's decision rules commute with the declared
    relabellings. A flagged run (a strict-majority tie, broken to the
    smaller value, which only a first phase that breaks its contract
    leaves) may not carry over a relabelling.

    Of the cells the fold leaves, an exhaustive async explore whose programs
    declare ``basis`` and ``decide_on`` (see ``CatalogEntry``) resolves
    each, the first included, from one DFS of the graph they share up to
    values, run one configuration per pid-rotation orbit
    (``rotation.shared_search``). It counts the class (``rotation.run_class``:
    per pid its decision basis or undecided, the crashed pids and
    nontermination) of each distinct rotation of each finished run. Each
    class is decided by the cell's own programs (``rotation.class_decoder``)
    and recorded with its count, and the search's states are added. A cell
    where a class fails its verdict is resolved from one plain DFS of the
    shared graph (``rotation.plain_search``), run by the first such cell:
    the programs never branch on a value, so its finished runs, in DFS
    order and with their schedules, are every cell's. Each run is recorded,
    decided by the cell's own programs, with its schedule as its token,
    and the search's states are added. A cell
    whose programs declare ``role_objects`` (``smg-comp``'s) is resolved
    the same way from one search of its own configurations up to its role
    group (``roles.role_search``), each distinct outcome recorded once with
    its count. A symmetry search that would not fit the caps, meets the
    step bound or outgrows its codes (``roles.CODE_LIMIT``) is dropped.

    A sync cell counts its canonical crash patterns a group at a time (see
    ``syncmp.pattern_groups``), round by round: a survivor's next state
    depends only on which of the round's victims reach it, so each survivor
    steps once per subset of them and a configuration steps to the product
    of the survivors' distinct next states, counted
    (``syncmp.chain_patterns``). Each outcome of a group is recorded once
    with the number of its patterns, and as many states are added. A group
    searched plainly, and each pattern of a sampled explore, runs one
    pattern at a time as ``run_sync`` replays it
    (``syncmp.pattern_outcome``); a partial search stops on the first
    pattern whose state passes ``max_states``, as in the DFS, or on the one
    that reaches ``max_runs``.

    The DFS of a cell (``shmem.depth_first``) does not build a child that
    its sleep sets show to be a configuration already searched, so it meets
    the same configurations in the same order as without them, and no
    count, recorded run or capped stop changes. A cell whose programs all
    declare ``role_objects`` (propose-only) is searched through persistent
    sets instead (``roles.persistent_sets``), plainly and up to its role
    group alike: proposes to different objects commute, crashability only
    falls as a pid proceeds, and the graph is acyclic, so every finished
    configuration is still met, and only ``states_explored`` counts fewer.
    """
    entry = get_algorithm(algorithm)
    if entry.uses_oracle:
        check_contract(spec.n, entry.oracle_contract(spec)[0])
    budget = budget or ExploreBudget()
    vectors = spec.input_vectors(inputs_mode, budget.max_input_vectors)
    report = ExplorationReport(algorithm, spec, inputs_mode, budget)
    try:
        _explore_cells(entry, vectors, report)
    except _BudgetStop:
        report.exhaustive = False
    if budget.mode == "sample":
        report.exhaustive = False
    if entry.uses_oracle:
        report.notes.append("conditional construction verified against oracle")
    if spec.model == "async-rw" and not entry.uses_oracle:
        r5 = next(r for r in evaluate_bounds(spec) if r.row == "R5" and r.variant == "base")
        if r5.necessary_k is not None and r5.necessary_k > r5.sufficient_k:
            report.notes.append(
                "sufficient and necessary thresholds differ at this configuration; "
                "whether either side is tight here is open"
            )
    return report
