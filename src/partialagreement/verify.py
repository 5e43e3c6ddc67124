"""Post-hoc contract checking and exhaustive/sampled execution exploration.

check_agreement turns any finished trace into a Verdict against an
(n, k, ell) spec. explore drives one catalog algorithm across input
assignments x schedules (async, via full-state-deduplicated DFS over the
execution tree) or crash patterns (sync), checking every complete run and
aggregating empirical thresholds. Oracle-backed reductions are additionally
driven across every contract-compliant first-phase assignment.

A cell (one input vector, with one first-phase assignment for a reduction)
is searched, folded onto an earlier cell of its symmetry orbit, or, for
programs that declare a decision basis, resolved from the runs of the one
cell an exhaustive async explore searches (see explore).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .algorithms import get_algorithm
from .core import (
    ProblemSpec, SpecError, VALIDITY_STRONG, best_witness, evaluate_bounds,
)
from .objects import check_contract
from .shmem import AsyncRun, Decide, depth_first, random_walk
from .syncmp import chain_patterns, pattern_outcome, random_pattern


@dataclass(frozen=True)
class Verdict:
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


@dataclass(frozen=True)
class ExploreBudget:
    """Limits for one exploration.

    mode "auto" enumerates exhaustively and fails soft (partial report)
    past the caps; mode "sample" replaces schedule/pattern enumeration with
    ``samples`` seeded random runs per cell. Every field but ``mode`` is an
    int, and the caps and ``samples`` are positive (SpecError otherwise).
    """

    max_runs: int = 500_000
    max_states: int = 4_000_000
    max_input_vectors: int = 4096
    samples: int = 100
    mode: str = "auto"
    seed: int = 0
    max_recorded_violations: int = 25

    def __post_init__(self):
        for name in (
            "max_runs", "max_states", "max_input_vectors", "samples", "seed",
            "max_recorded_violations",
        ):
            if type(getattr(self, name)) is not int:
                raise SpecError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("max_runs", "max_states", "max_input_vectors", "samples"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be positive, got {getattr(self, name)}")
        if self.mode not in ("auto", "sample"):
            raise SpecError(f"mode must be 'auto' or 'sample', got {self.mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


# What an explore's replay encoding holds (see explore_from_replay).
_REPLAY_KEYS = ("algorithm", "spec", "inputs_mode", "budget")


@dataclass
class ExplorationReport:
    algorithm: str
    spec: ProblemSpec
    inputs_mode: object
    budget: ExploreBudget
    executions_checked: int = 0
    states_explored: int = 0
    violations: list = field(default_factory=list)
    violations_total: int = 0
    flagged_executions: int = 0
    empirical_k: int | None = None
    empirical_k_all_runs: int | None = None
    empirical_ell: int | None = None
    exhaustive: bool = True
    notes: list = field(default_factory=list)
    # Cells searched or resolved, cells folded by pid symmetry and value
    # relabelling, and cells resolved from the shared search's runs (see
    # explore), states searched, children the DFS's sleep sets did not build
    # (see shmem.depth_first) and the largest role group searched under
    # (see _explore_cell), and the verdict per distinct outcome (see
    # verdict); not serialised, as they leave the report unchanged.
    cells_explored: int = 0
    cells_folded: int = 0
    cells_resolved: int = 0
    states_searched: int = 0
    moves_slept: int = 0
    group_order: int = 1
    verdicts: dict = field(default_factory=dict, repr=False, compare=False)

    def record(self, outcome: _Outcome, base: dict, token_key: str, token, weight=1) -> None:
        """Count ``weight`` finished runs (a role orbit). ``token`` is the
        finished run itself (an ``AsyncRun``) or its ``CrashPattern``; its
        ``encode()``, the replay schedule or pattern, is called and stored
        under ``token_key`` only if the run is recorded as a violation."""
        self.executions_checked += weight
        if outcome.flags:
            self.flagged_executions += weight
        verdict = self.verdict(outcome)
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
        """The verdict of ``outcome``, checked once per distinct outcome."""
        verdict = self.verdicts.get(outcome)
        if verdict is None:
            verdict = self.verdicts[outcome] = check_agreement(outcome, self.spec)
            # empirical thresholds are maxima and minima over outcomes, so
            # one fold per distinct outcome gives the same values
            self._fold_thresholds(outcome)
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
    asks for a search this explorer cannot reproduce: SpecError."""
    d = json.loads(encoding) if isinstance(encoding, str) else encoding
    extra = [k for k in d if d[k] and k not in _REPLAY_KEYS]
    if extra:
        raise SpecError(f"cannot replay an explore that sets {extra}")
    mode = d["inputs_mode"]
    if not isinstance(mode, str):
        mode = [tuple(v) for v in mode]
    return explore(
        d["algorithm"],
        ProblemSpec.from_dict(d["spec"]),
        inputs_mode=mode,
        budget=ExploreBudget(**d["budget"]),
    )


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
    reads ``pid``'s own state only, as ``shmem.depth_first`` requires."""
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


_UNDECIDED = Decide(None)


def _run_class(run) -> int:
    """The class of a finished run (see explore), an int: its
    nonterminating bit, then per pid n + 2 bits: its decision basis,
    whether it decided and whether it crashed."""
    n = run.n
    cls = run.nonterminating
    for pid in range(n):
        bits = run.crashed[pid] << n + 1
        if run.decided[pid] is not None:
            bits |= 1 << n | run.progs[pid].basis(run.states[pid])
        cls |= bits << 1 + pid * (n + 2)
    return cls


def _class_outcomes(entry, spec, inputs, assignment, runs) -> list:
    """Each class of the ``runs`` Counter of run classes (see explore),
    with its count, as its outcome in this cell: decided by the cell's own
    programs."""
    progs = entry.build(spec, inputs, assignment=assignment).programs
    n = len(inputs)
    outcomes = []
    for cls, count in runs.items():
        decides = []
        for pid in range(n):
            bits = cls >> 1 + pid * (n + 2)
            decided = bits >> n & 1
            decides.append(progs[pid].decide_on(bits & (1 << n) - 1) if decided else _UNDECIDED)
        outcome = _Outcome(
            inputs,
            tuple(decide.value for decide in decides),
            frozenset(p for p in range(n) if cls >> (p + 1) * (n + 2) & 1),
            frozenset().union(*(decide.flags for decide in decides)),
            bool(cls & 1),
        )
        outcomes.append((outcome, count))
    return outcomes


def _count_passing(report, outcomes, states) -> bool:
    """Record each ``(outcome, count)`` of ``outcomes`` with its count, then
    add ``states``: a shared search's run classes decided in a resolved cell,
    or the outcomes of a crash-pattern group (see explore). Counts nothing
    and returns False, for the runs to be searched one by one, if an outcome
    fails its verdict."""
    if not all(report.verdict(outcome).passed for outcome, _ in outcomes):
        return False
    for outcome, count in outcomes:
        report.record(outcome, None, None, None, count)
    report.states_explored += states
    return True


def _explore_cell(entry, inputs, assignment, report, role_orbits, classes=None) -> None:
    """Search one cell into ``report``: its crash patterns (sync), counted a
    group at a time (``syncmp.chain_patterns``, see explore), or its
    ``samples`` random patterns, each run alone (``syncmp.pattern_outcome``);
    its ``samples`` random runs (async sample mode), or the DFS of the
    configurations reachable from its start, one per ``AsyncRun.key``
    (``shmem.depth_first``, whose sleep sets leave unbuilt the children the
    DFS would find seen, and ``report.moves_slept`` counts them). With
    ``role_orbits``, a cell whose programs declare ``role_objects`` is
    searched one configuration per role orbit (``roles.RoleKeys``) counted
    with the orbit's size, so every count, k and ell stays exact. A DFS
    whose programs declare ``basis`` counts the class (``_run_class``) of
    each finished run in the Counter ``classes``, when given."""
    spec, budget = report.spec, report.budget
    built = entry.build(spec, inputs, assignment)
    if classes is not None and not all(hasattr(p, "basis") for p in built.programs.values()):
        classes = None
    crash_budget = min(entry.fault_budget(spec), spec.n)
    base = {"inputs": list(inputs)}
    if entry.flavor == "sync":
        base["rounds"] = built.rounds
    if assignment is not None:
        base["assignment"] = list(assignment)
    rng = random.Random(f"{budget.seed}|{inputs}|{assignment}") if budget.mode == "sample" else None

    if entry.flavor == "sync":
        def run_alone(patterns):
            for pattern in patterns:
                report.states_explored += 1
                if report.states_explored > budget.max_states:
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
            report.record(_async_outcome(run), base, "schedule", run)
        return
    keys = None
    if role_orbits and any(getattr(prog, "role_objects", None) for prog in built.programs.values()):
        from . import roles  # loaded by the first such cell

        keys = roles.role_keys(built, inputs)
        if keys:
            report.group_order = max(report.group_order, len(keys.elements))
    visits = depth_first(root, crash_budget, _crash_can_matter, keys and keys.visit)
    for run, weight, done, slept in visits:
        if weight is None:  # the cell outgrew its codes: redo unreduced
            raise _BudgetStop
        report.states_searched += 1
        report.moves_slept += slept
        report.states_explored += weight
        if report.states_explored > budget.max_states:
            raise _BudgetStop
        if done:
            report.record(_async_outcome(run), base, "schedule", run, weight)
            if classes is not None:
                classes[_run_class(run)] += 1


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


def _explore_cells(entry, vectors, report, role_orbits) -> None:
    """Search or fold every cell of ``vectors`` into ``report`` (see explore)."""
    spec, budget = report.spec, report.budget
    fold = entry.symmetry is not None and budget.mode != "sample"
    share = fold and entry.flavor == "async"
    shared = None  # the states, runs and run classes of the first cell searched
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
            if shared and _fits(report, shared) and _count_passing(
                report, _class_outcomes(entry, spec, inputs, assignment, shared[2]), shared[0]
            ):
                report.cells_resolved += 1
            else:
                classes = Counter() if share and not shared else None
                _explore_cell(entry, inputs, assignment, report, role_orbits, classes)
                if classes:
                    shared = (
                        report.states_explored - before[0],
                        report.executions_checked - before[1],
                        classes,
                    )
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
    assignment. An exhaustive search folds the cells by the entry's declared
    ``CatalogEntry.symmetry`` and ``value_symmetry``, across input vectors:
    each orbit (see ``_orbit``) is seeded by its first cell, searched or
    resolved: with that cell's states and runs, or with nothing if it
    recorded a violation or a flagged run. A later cell of a seeded orbit
    adds those states and runs instead of being searched; every later cell
    of an orbit seeded with nothing is searched. This is sound because the
    verdict and the empirical k and ell read decisions only as counts per
    proposed value, and the entry's decision rules commute with the declared
    relabellings. A flagged run (a strict-majority tie, broken to the
    smaller value, which only a first phase that breaks its contract
    leaves) may not carry over a relabelling, and a recorded violation
    keeps its cell and order. The cell is searched anyway when the addition
    would reach a cap, so a partial search stops on the same run.

    Of the cells the fold leaves, an exhaustive async explore whose programs
    declare ``basis`` and ``decide_on`` (see ``CatalogEntry``) searches only
    the first, and keeps the class of each of its finished runs
    (``_run_class``): per pid its decision basis or undecided, the crashed
    pids and nontermination. Every cell then has the same runs up to values,
    so each later cell is resolved: each class is decided by that cell's own
    programs (``_class_outcomes``) and recorded with its count, and the
    first cell's states are added. The cell is searched instead when a class
    fails its verdict there, so the recorded violations keep their cells and
    order, or when the addition would reach a cap, so a partial search stops
    on the same run. A resolved cell seeds its orbit's tally as a searched
    one does. Sampled explores (one random stream per cell), sync entries
    and ``smg-comp`` are never resolved. The classes are counted in one
    Counter and dropped when the explore returns.

    Within a cell, programs that declare ``role_objects`` (``smg-comp``'s)
    are searched up to their role symmetry (see ``roles``), one
    configuration per orbit counted with the orbit's size. As every count
    stays exact, that search reaches a cap only where the unreduced one
    does; an explore that reaches a cap after some cell was searched under
    a role group is redone with role orbits off, so a partial report is
    the unreduced search's. So is one with a cell whose configurations
    outgrow the role encoding's one-byte codes (``roles.CODE_LIMIT``).

    A sync cell counts its canonical crash patterns a group at a time (see
    ``syncmp.pattern_groups``), round by round: a survivor's next state
    depends only on which of the round's victims reach it, so each survivor
    steps once per subset of them and a configuration steps to the product
    of the survivors' distinct next states, counted
    (``syncmp.chain_patterns``). Each outcome of a group is recorded once with
    the number of its patterns, and as many states are added. The group's
    patterns are run one by one instead, through ``syncmp.sync_round`` as
    ``run_sync`` replays them (``syncmp.pattern_outcome``), and each is
    recorded alone, when an outcome fails its verdict, so the recorded
    violations keep their patterns and order, or when its patterns would
    reach ``max_runs`` or pass ``max_states``, so a partial search stops on
    the same pattern: the first whose state passes ``max_states``, as in the
    DFS, or the run that reaches ``max_runs``. A sampled sync explore runs
    each drawn pattern the same way.

    The DFS of a cell (``shmem.depth_first``) does not build a child that
    its sleep sets show to be a configuration already searched, so it meets
    the same configurations in the same order as without them, and no
    count, recorded run or capped stop changes.
    """
    entry = get_algorithm(algorithm)
    if entry.uses_oracle:
        check_contract(spec.n, entry.oracle_contract(spec)[0])
    budget = budget or ExploreBudget()
    vectors = spec.input_vectors(inputs_mode, budget.max_input_vectors)
    for role_orbits in (True, False):
        report = ExplorationReport(algorithm, spec, inputs_mode, budget)
        try:
            _explore_cells(entry, vectors, report, role_orbits)
        except _BudgetStop:
            report.exhaustive = False
        if report.exhaustive or report.group_order == 1:
            break
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
