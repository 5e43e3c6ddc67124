"""Verifier tests: verdict semantics, witness optimality, exploration."""

from __future__ import annotations

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from partialagreement import (
    ConsensusObject,
    ExploreBudget,
    ProblemSpec,
    check_agreement,
    explore,
    explore_from_replay,
)
from partialagreement.shmem import AsyncRun, Propose, Write
from partialagreement.verify import best_witness
from test_shmem import Livelock as _Livelock


class Outcome:
    def __init__(self, decisions, inputs, crashed=frozenset(), nonterminating=False):
        self.decisions = tuple(decisions)
        self.inputs = tuple(inputs)
        self.crashed = crashed
        self.flags = frozenset()
        self.nonterminating = nonterminating


# --- check_agreement examples -------------------------------------------------


def test_two_of_three_with_one_offender():
    spec = ProblemSpec(n=3, m=2, t=1, k=2, ell=1)
    v = check_agreement(Outcome((0, 0, 1), (0, 0, 1)), spec)
    assert v.agreement_ok and v.witness_set == (0,) and v.offenders == 1
    assert v.passed


def test_three_distinct_decisions_fail_k2():
    spec = ProblemSpec(n=3, m=3, t=1, k=2, ell=1)
    v = check_agreement(Outcome((0, 1, 2), (0, 1, 2)), spec)
    assert not v.agreement_ok and v.offenders == 2


def test_crashed_undecided_count_toward_k():
    spec = ProblemSpec(n=3, m=2, t=1, k=3, ell=1)
    v = check_agreement(Outcome((0, 0, None), (0, 0, 1), crashed=frozenset({2})), spec)
    assert v.agreement_ok and v.offenders == 0
    assert v.resiliency_ok and v.passed


def test_strong_validity_rejects_unproposed_decision():
    spec = ProblemSpec(n=3, m=3, t=1, k=1, ell=1, validity="strong")
    v = check_agreement(Outcome((2, 0, 0), (0, 0, 1)), spec)
    assert not v.validity_ok
    weak = ProblemSpec(n=3, m=3, t=1, k=1, ell=1, validity="weak")
    assert check_agreement(Outcome((2, 0, 0), (0, 0, 1)), weak).validity_ok


def test_undecided_live_process_breaks_resiliency():
    spec = ProblemSpec(n=3, m=2, t=1, k=2)
    v = check_agreement(Outcome((0, 0, None), (0, 0, 1)), spec)
    assert not v.resiliency_ok and not v.passed


def test_vacuous_all_crashed_run_passes_with_empty_witness():
    spec = ProblemSpec(n=2, m=2, t=2, k=2)
    v = check_agreement(
        Outcome((None, None), (0, 1), crashed=frozenset({0, 1})), spec
    )
    assert v.passed and v.witness_set == () and v.offenders == 0


def test_monotone_in_k():
    outcome = Outcome((0, 0, 1, 2), (0, 0, 1, 2))
    for k in range(1, 5):
        spec = ProblemSpec(n=4, m=3, t=1, k=k, ell=1)
        v = check_agreement(outcome, spec)
        if v.agreement_ok:
            for smaller in range(1, k):
                assert check_agreement(
                    outcome, ProblemSpec(n=4, m=3, t=1, k=smaller, ell=1)
                ).agreement_ok


# --- witness optimality --------------------------------------------------------


def brute_force_min_offenders(decisions, proposed, ell):
    decided = [d for d in decisions if d is not None]
    best = len(decided)
    for size in range(0, ell + 1):
        for witness in itertools.combinations(sorted(proposed), size):
            off = sum(1 for d in decided if d not in witness)
            best = min(best, off)
    return best


def test_witness_matches_brute_force_exhaustive_small():
    # all decision multisets for n <= 4, m <= 3 against every proposed set
    for n in range(2, 5):
        for m in (2, 3):
            values = list(range(m)) + [None]
            for decisions in itertools.combinations_with_replacement(values, n):
                for proposed_size in range(1, m + 1):
                    for proposed in itertools.combinations(range(m), proposed_size):
                        for ell in range(1, m + 1):
                            counts = Counter(d for d in decisions if d is not None)
                            witness = best_witness(counts, set(proposed), ell)
                            got = sum(
                                c for v, c in counts.items() if v not in set(witness)
                            )
                            want = brute_force_min_offenders(decisions, proposed, ell)
                            assert got == want


@given(
    st.lists(st.one_of(st.integers(0, 3), st.none()), min_size=2, max_size=6),
    st.sets(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(1, 4),
)
def test_witness_matches_brute_force_random(decisions, proposed, ell):
    counts = Counter(d for d in decisions if d is not None)
    witness = best_witness(counts, proposed, ell)
    got = sum(c for v, c in counts.items() if v not in set(witness))
    assert got == brute_force_min_offenders(decisions, proposed, ell)
    assert len(witness) <= ell
    assert set(witness) <= proposed


# --- explore -------------------------------------------------------------------


def test_explore_no_comm_zero_violations_at_pigeonhole_k():
    spec = ProblemSpec(n=4, m=2, t=1, k=2)
    report = explore("no-comm", spec, "all")
    assert report.violations_total == 0
    assert report.empirical_k == 2
    assert report.exhaustive


def test_explore_no_comm_finds_counterexample_one_above():
    spec = ProblemSpec(n=4, m=2, t=1, k=3)
    report = explore("no-comm", spec, "all")
    assert report.violations_total > 0
    balanced = [v for v in report.violations if sorted(v["inputs"]) == [0, 0, 1, 1]]
    assert balanced


def test_measure_empirical_k_no_comm_divisible():
    spec = ProblemSpec(n=6, m=3, t=3, k=2)
    assert explore("no-comm", spec).empirical_k == 2


def test_measure_empirical_k_max_wait():
    spec = ProblemSpec(n=4, m=3, t=2, k=2)
    assert explore("max-wait", spec, inputs_mode="canonical").empirical_k == 2


def test_explore_min_flood_full_agreement_in_t_plus_one_rounds():
    spec = ProblemSpec(n=3, m=3, t=2, k=3, ell=1)
    report = explore("min-flood", spec, [(2, 1, 0)])
    assert report.violations_total == 0
    assert report.empirical_ell == 1


def test_explore_reduce_binary_notes_conditional_construction():
    spec = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong")
    report = explore("reduce-binary", spec, [(0, 0, 1, 1)])
    assert report.violations_total == 0
    assert "conditional construction verified against oracle" in report.notes


def test_explore_deterministic_reports():
    spec = ProblemSpec(n=3, m=2, t=1, k=2)
    budget = ExploreBudget(mode="sample", samples=25, seed=11)
    a = explore("max-wait", spec, "all", budget).to_json()
    b = explore("max-wait", spec, "all", budget).to_json()
    assert a == b


def test_explore_replay_roundtrip():
    spec = ProblemSpec(n=3, m=2, t=1, k=2)
    budget = ExploreBudget(mode="sample", samples=10, seed=3)
    report = explore("max-wait", spec, "all", budget)
    replayed = explore_from_replay(report.replay_encoding())
    assert replayed.to_json() == report.to_json()


def test_explore_budget_partial_report():
    spec = ProblemSpec(n=3, m=2, t=1, k=2)
    report = explore("max-wait", spec, "all", ExploreBudget(max_runs=5))
    assert not report.exhaustive
    assert report.executions_checked == 5


def test_a_malformed_budget_is_refused():
    # A misspelt mode once ran an exhaustive search, and a string cap ended
    # in a TypeError.
    import json

    from partialagreement import SpecError

    spec = ProblemSpec(n=3, m=2, t=1, k=2)
    encoding = json.loads(explore("max-wait", spec, "all", ExploreBudget(max_runs=5)).replay_encoding())
    for name, value in [
        ("mode", "smaple"), ("max_runs", "5"), ("seed", 1.5), ("samples", True),
        ("max_recorded_violations", -3),
    ]:
        bad = {**encoding, "budget": {**encoding["budget"], name: value}}
        with pytest.raises(SpecError):
            explore_from_replay(bad)
    # zero records none
    spec = ProblemSpec(n=3, m=2, t=1, k=3)
    report = explore("no-comm", spec, "all", ExploreBudget(max_recorded_violations=0))
    assert (report.violations_total, report.violations) == (6, [])


@pytest.mark.parametrize(
    "change",
    [
        lambda encoding: encoding[:-1],
        lambda encoding: f"[{encoding}]",
        lambda encoding: {k: v for k, v in json.loads(encoding).items() if k != "inputs_mode"},
        lambda encoding: {**json.loads(encoding), "inputs_mode": [1, 2]},
        lambda encoding: {**json.loads(encoding), "budget": {"bogus": 1}},
        lambda encoding: {**json.loads(encoding), "budget": []},
    ],
    ids=["not-json", "a-list", "no-inputs-mode", "inputs-mode-of-ints", "bogus-budget", "list-budget"],
)
def test_a_malformed_replay_encoding_is_refused(change):
    from partialagreement import SpecError

    report = explore("max-wait", ProblemSpec(n=3, m=2, t=1, k=2), "all", ExploreBudget(max_runs=5))
    with pytest.raises(SpecError):
        explore_from_replay(change(report.replay_encoding()))


def test_an_error_of_the_replayed_explore_surfaces_unchanged():
    from partialagreement import BudgetExceededError

    spec = ProblemSpec(n=6, m=4, t=1, k=2)
    encoding = json.loads(explore("no-comm", spec, [(0, 1, 2, 3, 0, 1)]).replay_encoding())
    with pytest.raises(BudgetExceededError):
        explore_from_replay({**encoding, "inputs_mode": "all", "budget": {"max_input_vectors": 100}})


def test_explore_input_cap_raises():
    from partialagreement import BudgetExceededError

    spec = ProblemSpec(n=6, m=4, t=1, k=2)
    with pytest.raises(BudgetExceededError):
        explore("no-comm", spec, "all", ExploreBudget(max_input_vectors=100))


def test_violation_schedule_encoding_replays():
    from partialagreement import AsyncSchedule, build_algorithm, run_async

    spec = ProblemSpec(n=4, m=2, t=1, k=3)
    report = explore("no-comm", spec, "all")
    violation = report.violations[0]
    inputs = tuple(violation["inputs"])
    built = build_algorithm("no-comm", spec, inputs)
    trace = run_async(
        built.programs, inputs, AsyncSchedule.decode(violation["schedule"]), spec=spec
    )
    redo = check_agreement(trace, spec)
    assert not redo.passed
    assert redo.to_dict() == violation["verdict"]


def test_measure_empirical_k_reduce_binary_full_agreement():
    spec = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong")
    assert explore("reduce-binary", spec, inputs_mode=[(0, 0, 1, 1)]).empirical_k == 4


def test_tight_rules_have_counterexamples_one_above():
    # empirical_k meets each algorithm's guaranteed threshold and the
    # explorer finds a violation one notch higher (R2, R4, R10 analogues;
    # the R1 case lives in the acceptance suite)
    big = ExploreBudget(max_runs=5_000_000, max_states=30_000_000)
    r2 = explore("max-wait", ProblemSpec(n=3, m=3, t=1, k=3), "canonical", big)
    assert r2.violations_total > 0 and r2.empirical_k == 2
    r4 = explore("no-comm", ProblemSpec(n=6, m=3, t=3, k=3), "all", big)
    assert r4.violations_total > 0 and r4.empirical_k == 2
    r10 = explore(
        "smg-comp",
        ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4),
        [tuple(range(8))],
        big,
    )
    assert r10.violations_total > 0 and r10.empirical_k == 6


# --- search size and the verdict memo -------------------------------------------

# Exact sizes of fast exhaustive searches. A faster explorer must search the
# same states and check the same runs; a change here changes what is searched.
PINNED_SEARCHES = [
    ("reduce-binary", ProblemSpec(n=4, m=2, t=1, k=4, validity="strong"), [(0, 0, 1, 1)],
     (6160, 2130, 0)),
    ("max-wait", ProblemSpec(n=4, m=2, t=1, k=3), "all", (9856, 3408, 188)),
    ("smg-comp", ProblemSpec(n=6, m=6, t=6, k=3, model="sm-g", g=3), [tuple(range(6))],
     (306, 34, 0)),
    ("min-flood", ProblemSpec(n=4, m=4, t=2, k=4, model="sync-mp"), [tuple(range(4))],
     (1537, 1537, 0)),
    ("smg-comp", ProblemSpec(n=8, m=8, t=8, k=6, model="sm-g", g=4), [tuple(range(8))],
     (2923, 244, 0)),
]


def _search_id(index):
    """An algorithm's first pinned search is named by the algorithm; a later
    one adds its n."""
    alg, spec = PINNED_SEARCHES[index][:2]
    earlier = [search[0] for search in PINNED_SEARCHES[:index]]
    return f"{alg}-n{spec.n}" if alg in earlier else alg


@pytest.mark.parametrize(
    "alg, spec, inputs, sizes", PINNED_SEARCHES, ids=map(_search_id, range(len(PINNED_SEARCHES)))
)
def test_search_size_is_pinned(alg, spec, inputs, sizes):
    report = explore(alg, spec, inputs)
    assert report.exhaustive
    got = (report.states_explored, report.executions_checked, report.violations_total)
    assert got == sizes


def test_sampled_search_size_is_pinned():
    # A sampled async search counts every configuration its random walks
    # visit, the start of each walk included.
    budget = ExploreBudget(mode="sample", samples=12, seed=0)
    report = explore("max-wait", ProblemSpec(n=3, m=2, t=1, k=2), "all", budget)
    got = (report.states_explored, report.executions_checked, report.violations_total)
    assert got == (468, 96, 0)


def test_verdict_memo_on_sync_runs(monkeypatch):
    # Sync traces hold dicts, so the memo must key on the outcome, not the trace.
    from partialagreement import build_algorithm, enumerate_crash_patterns, run_sync
    from partialagreement import verify

    calls = []

    def counting(outcome, spec):
        calls.append(outcome)
        return check_agreement(outcome, spec)

    monkeypatch.setattr(verify, "check_agreement", counting)
    spec = ProblemSpec(n=4, m=4, t=2, k=3, ell=2, model="sync-mp")
    inputs = (3, 2, 1, 0)
    report = explore("min-flood", spec, [inputs])

    built = build_algorithm("min-flood", spec, inputs)
    verdicts = [
        check_agreement(run_sync(built.programs, inputs, p, built.rounds, spec=spec), spec)
        for p in enumerate_crash_patterns(4, 2, built.rounds, canonical=True)
    ]
    assert report.executions_checked == len(verdicts)
    assert report.violations_total == sum(not v.passed for v in verdicts)
    assert len(calls) == len(set(calls)) < len(verdicts)
    assert report.empirical_ell == max(len(v.details) for v in verdicts)


@pytest.mark.parametrize(
    "spec, vectors",
    [
        (ProblemSpec(n=4, m=4, t=2, model="sm-g", g=4), "all"),
        (ProblemSpec(n=8, m=8, t=8, k=6, model="sm-g", g=4), [tuple(range(8))]),
    ],
    ids=["n4-g4-all", "n8-g4"],
)
def test_a_role_cell_checks_each_distinct_outcome_once(monkeypatch, spec, vectors):
    # The role search checks a new outcome through the report's memo, which
    # counts and folds nothing, and recording it later reuses that check.
    from partialagreement import verify

    calls = []

    def counting(outcome, spec):
        calls.append(outcome)
        return check_agreement(outcome, spec)

    report = explore("smg-comp", spec, vectors)
    monkeypatch.setattr(verify, "check_agreement", counting)
    counted = explore("smg-comp", spec, vectors)
    assert counted.roles and counted.to_json() == report.to_json()
    assert len(calls) == len(set(calls)) == len(counted.verdicts)
    assert not counted.checked


def test_a_replay_encoding_with_full_scan_set_is_refused():
    # An encoding that sets full_scan asks for a scan-boundary search this
    # explorer does not have; one with full_scan absent or false replays.
    import json

    from partialagreement import SpecError

    spec = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong")
    report = explore("reduce-set", spec, [(0, 0, 1, 1)])
    encoding = json.loads(report.replay_encoding())
    assert "full_scan" not in encoding
    with pytest.raises(SpecError):
        explore_from_replay({**encoding, "full_scan": True})
    for old in (encoding, {**encoding, "full_scan": False}):
        assert explore_from_replay(json.dumps(old)).to_json() == report.to_json()


def test_every_entry_point_checks_inputs_against_the_spec():
    from partialagreement import (
        AsyncSchedule, CrashPattern, SpecError, build_algorithm, run_async, run_sync,
    )

    async_spec = ProblemSpec(n=3, m=2, t=1, k=2)
    sync_spec = ProblemSpec(n=3, m=2, t=1, k=3, model="sync-mp")
    async_progs = build_algorithm("max-wait", async_spec, (0, 1, 1)).programs
    sync_progs = build_algorithm("min-flood", sync_spec, (0, 1, 1)).programs
    for bad in [(0, 1), (0, 1, 1, 0), (0, 1, 2), (0, 1, -1), (0, 1, True), (0, 1, 1.0)]:
        with pytest.raises(SpecError):
            async_spec.check_inputs(bad)
        with pytest.raises(SpecError):
            explore("max-wait", async_spec, [bad])
        with pytest.raises(SpecError):
            run_async(async_progs, bad, AsyncSchedule(), spec=async_spec)
        with pytest.raises(SpecError):
            run_sync(sync_progs, bad, CrashPattern(), 2, spec=sync_spec)
    assert async_spec.check_inputs([0, 1, 1]) == (0, 1, 1)


# --- cells folded by the declared symmetries -------------------------------------

# Small exhaustive configurations of every entry with a declared symmetry.
# The n=3 binary and smg contracts admit only unanimous assignments, whose
# orbits span input vectors only, so those entries also get n=4
# configurations, on a few vectors to keep the suite fast; (0, 1, 0, 1) is
# not rotation-invariant, and the unanimous vectors have different proposed
# values, which a value relabelling joins. The reduce-set configuration
# with k=4 and ell=1, both max-wait configurations and no-comm (at its
# default k=n) have violations: there a broken symmetry shows in the
# violation counts even where the state and run counts stay equal.
FEW = [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1)]
FOLD_CONFIGS = [
    ("reduce-binary", ProblemSpec(n=3, m=2, t=1, validity="strong"), "all"),
    ("reduce-binary", ProblemSpec(n=4, m=2, t=1, validity="strong"), FEW),
    ("reduce-binary", ProblemSpec(n=4, m=2, t=1, validity="strong"), [(0, 0, 0, 0), (1, 1, 1, 1)]),
    ("reduce-set", ProblemSpec(n=3, m=3, t=2, ell=2, validity="strong"), "all"),
    ("reduce-set", ProblemSpec(n=4, m=3, t=2, k=4, ell=1), [(0, 1, 2, 2), (0, 1, 0, 2)]),
    ("reduce-smg", ProblemSpec(n=3, m=2, t=1, validity="strong"), "all"),
    ("reduce-smg", ProblemSpec(n=4, m=2, t=1, validity="strong"), FEW),
    ("reduce-sync", ProblemSpec(n=4, m=2, t=1, validity="strong", model="sync-mp"), "all"),
    ("max-wait", ProblemSpec(n=4, m=2, t=1, k=3), "all"),
    ("max-wait", ProblemSpec(n=3, m=2, t=1, k=3), "all"),
    ("no-comm", ProblemSpec(n=4, m=3, t=1), "all"),
    ("min-flood", ProblemSpec(n=3, m=3, t=1, model="sync-mp"), "all"),
]


def _cell_tally(entry, spec, inputs, assignment):
    """Everything one cell adds to a report, searched on its own."""
    from partialagreement import verify

    report = verify.ExplorationReport(entry.name, spec, [inputs], ExploreBudget())
    verify._explore_cell(entry, inputs, assignment, report)
    return _cell_counts(report)


def _cell_counts(report):
    return (
        report.states_explored, report.executions_checked, report.violations_total,
        report.flagged_executions, report.empirical_k, report.empirical_k_all_runs,
        report.empirical_ell,
    )


def _least(values):
    values = [v for v in values if v is not None]
    return min(values) if values else None


def _images(vector, symmetry, values, relabel):
    """Every image of ``vector`` under a pid permutation of the group and a
    bijection from ``values`` onto 0, 1, ...: the order-preserving one when
    ``relabel`` is "monotone", every one when it is "any"."""
    n = len(vector)
    if symmetry == "rotation":
        group = [[(p + r) % n for p in range(n)] for r in range(n)]
    else:
        group = list(itertools.permutations(range(n)))
    ordered = sorted(values)
    names = [dict(zip(ordered, perm)) for perm in itertools.permutations(range(len(ordered)))]
    if relabel == "monotone":
        names = names[:1]
    return frozenset(tuple(name[vector[g[p]]] for p in range(n)) for g in group for name in names)


def test_every_cell_of_a_symmetry_orbit_has_the_same_search():
    # The soundness fact behind the fold, checked directly: the cells of one
    # orbit have equal tallies. A cell's orbit is its input vector (a plain
    # cell) or its assignment (an oracle cell) up to the pid group and the
    # value bijections from its proposed values that the entry declares,
    # applied to both. Under a non-monotone bijection a flagged run (a
    # strict-majority tie) may not carry over, so only an orbit whose first
    # cell has no flagged run need have equal tallies. explore folds every
    # later cell of an orbit whose first cell has neither a violation nor a
    # flagged run, and searches the others. The folded explore must also
    # equal the sum over every cell, i.e. the unfolded explorer.
    from partialagreement import CATALOG

    assert CATALOG["smg-comp"].symmetry is None
    symmetric = {name for name, entry in CATALOG.items() if entry.symmetry is not None}
    assert {alg for alg, _, _ in FOLD_CONFIGS} == symmetric
    with_orbits = set()
    for alg, spec, vectors in FOLD_CONFIGS:
        entry = CATALOG[alg]
        tallies = []
        if vectors == "all":
            vectors = list(itertools.product(range(spec.m), repeat=spec.n))
        orbits: dict = {}
        for inputs in vectors:
            values = set(inputs)
            for cell in entry.oracle_assignments(spec, inputs) if entry.uses_oracle else [None]:
                vector = inputs if cell is None else cell
                orbit = len(values), _images(vector, entry.symmetry, values, entry.value_symmetry)
                tally = _cell_tally(entry, spec, inputs, cell)
                tallies.append(tally)
                orbits.setdefault(orbit, []).append(tally)
        foldable = 0
        for members in orbits.values():
            assert members[0][3] or len(set(members)) == 1, (alg, members)
            foldable += (members[0][2:4] == (0, 0)) * (len(members) - 1)
            if len(members) > 1:
                with_orbits.add(alg)

        report = explore(alg, spec, vectors)
        assert report.cells_folded == foldable
        assert report.cells_explored + report.cells_folded == len(tallies)
        states, runs, violations, flagged, ks, ks_all, ells = zip(*tallies)
        assert (
            report.states_explored, report.executions_checked, report.violations_total,
            report.flagged_executions,
        ) == (sum(states), sum(runs), sum(violations), sum(flagged))
        assert report.empirical_k == _least(ks)
        assert report.empirical_k_all_runs == _least(ks_all)
        assert report.empirical_ell == max(ells)
    assert with_orbits == symmetric


def _reduction_specs():
    """Every small strong-validity configuration of the four reductions."""
    for n in (3, 4):
        for t in range(1, n):
            for alg in ("reduce-binary", "reduce-smg", "reduce-sync"):
                model = "sync-mp" if alg == "reduce-sync" else "async-rw"
                yield alg, ProblemSpec(n=n, m=2, t=t, validity="strong", model=model)
            for m in range(2, t + 2):
                yield "reduce-set", ProblemSpec(n=n, m=m, t=t, ell=m - 1, validity="strong")


def test_no_compliant_first_phase_flags_a_run():
    # The fact the fold rests on: a strict-majority tie, the only flagged
    # run, needs a first phase that breaks its contract. So every orbit of
    # a compliant explore with no violation seeds a fold.
    specs = list(_reduction_specs())
    assert len(specs) == 24
    for alg, spec in specs:
        report = explore(alg, spec, "all")
        assert report.exhaustive and report.flagged_executions == 0, (alg, spec)
        assert report.cells_folded, (alg, spec)


def test_a_flagged_cell_keeps_its_swap_images_searched(monkeypatch):
    # A mutant first phase promising k=4 of n=6 leaves some receivers of
    # reduce-sync a 2-2 tie, which strict_majority breaks to 0 and flags.
    # So the cells with two 1s read empirical k over all runs 6, and their
    # 0-1 swap images, with four 1s, read 4: folding one into the other
    # would change the report. An orbit whose first cell has a flagged run
    # seeds no fold, so every later cell of it is searched.
    import dataclasses

    from partialagreement import algorithms

    def contract(spec):
        return (4, 1)

    entry = algorithms.CATALOG["reduce-sync"]
    monkeypatch.setattr(algorithms, "_sync_contract", contract)
    entry = dataclasses.replace(entry, oracle_contract=contract)
    monkeypatch.setitem(algorithms.CATALOG, "reduce-sync", entry)
    spec = ProblemSpec(n=6, m=2, t=2, k=3, validity="strong", model="sync-mp")
    inputs = (0, 0, 0, 1, 1, 1)
    # Every pid permutation of a cell has its tally (the orbit test guards
    # that), so each cell is searched here as its sorted image.
    cells = Counter(tuple(sorted(cell)) for cell in entry.oracle_assignments(spec, inputs))
    tallies = {cell: _cell_tally(entry, spec, inputs, cell) for cell in cells}
    by_ones = {sum(cell): tally for cell, tally in tallies.items()}
    assert by_ones[2][3] > 0 and (by_ones[2][5], by_ones[4][5]) == (6, 4)

    report = explore("reduce-sync", spec, [inputs])
    total = [sum(tally[i] * cells[cell] for cell, tally in tallies.items()) for i in range(4)]
    states, runs, violations, flagged, ks, ks_all, ells = zip(*tallies.values())
    assert (
        report.states_explored, report.executions_checked, report.violations_total,
        report.flagged_executions, report.empirical_k, report.empirical_k_all_runs,
        report.empirical_ell,
    ) == (*total, _least(ks), _least(ks_all), max(ells))
    # only the orbits with no flagged run fold
    assert report.cells_explored + report.cells_folded == sum(cells.values()) == 44
    assert (report.cells_explored, report.cells_folded) == (32, 12)


def _violating_reduce_set():
    spec = ProblemSpec(n=4, m=3, t=2, k=4, ell=1)
    budget = ExploreBudget(max_recorded_violations=1000)
    return explore("reduce-set", spec, [(0, 1, 2, 2)], budget)


def test_a_violating_orbit_is_searched_cell_by_cell():
    # Pinned from the unfolded explorer: all 528 violations, in their order.
    import hashlib

    report = _violating_reduce_set()
    assert (report.states_explored, report.executions_checked, report.violations_total) == (
        5400, 1269, 528,
    )
    # Three orbits of four cells each violate, and every one of their cells
    # is searched; the three clean orbits of four fold.
    assert len({tuple(v["assignment"]) for v in report.violations}) == 12
    assert len(report.violations) == 528 and report.cells_folded == 9
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "69a60b6bd76b4013b4dee86a4e8140b0b9a541a9ca8514ac52703dadd8778335"


def test_every_recorded_reduction_violation_replays(capsys):
    # Each recorded violation, its first-phase assignment included, is a
    # replay token: the run it names fails with the recorded verdict.
    import json

    from partialagreement import cli

    violations = _violating_reduce_set().violations
    assert len(violations) == 528
    for violation in violations:
        code = cli.main(["run", "--replay", json.dumps(violation), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["verdict"] == violation["verdict"]
        assert out["replay"]["assignment"] == violation["assignment"]
        assert out["replay"]["schedule"] == violation["schedule"]


def test_a_schedule_is_built_only_for_a_recorded_violation(monkeypatch, capsys):
    # The explorers hand record() the finished run, and record() encodes it
    # only when it keeps the violation; each recorded token replays.
    import json

    from partialagreement import cli
    from partialagreement.shmem import AsyncRun

    calls = []
    schedule_so_far = AsyncRun.schedule_so_far

    def counted(run):
        calls.append(run)
        return schedule_so_far(run)

    monkeypatch.setattr(AsyncRun, "schedule_so_far", counted)
    report = explore("max-wait", ProblemSpec(n=4, m=2, t=1, k=3), "all")
    assert (report.violations_total, len(report.violations)) == (188, 25)
    assert len(calls) == len(report.violations)
    calls.clear()
    clean = explore("max-wait", ProblemSpec(n=4, m=2, t=1, k=2), "all")
    sampled = explore(
        "max-wait", ProblemSpec(n=4, m=2, t=1, k=2), "all", ExploreBudget(mode="sample", samples=5)
    )
    assert clean.violations_total == sampled.violations_total == 0
    assert clean.executions_checked and sampled.executions_checked
    assert not calls
    for violation in report.violations:
        code = cli.main(["run", "--replay", json.dumps(violation), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["verdict"] == violation["verdict"]
        assert out["replay"]["schedule"] == violation["schedule"]


PARTIAL_REPORT = (
    '{"algorithm": "reduce-binary", "budget": {"max_input_vectors": 4096, '
    '"max_recorded_violations": 25, "max_runs": %d, "max_states": %d, "mode": "auto", '
    '"samples": 100, "seed": 0}, "empirical_ell": 1, "empirical_k": 4, '
    '"empirical_k_all_runs": 4, "executions_checked": %d, "exhaustive": false, '
    '"flagged_executions": 0, "inputs_mode": [[0, 0, 1, 1]], '
    '"notes": ["conditional construction verified against oracle"], "schema_version": 3, '
    '"spec": {"ell": 1, "g": null, "k": 4, "m": 2, "model": "async-rw", "n": 4, "t": 1, '
    '"validity": "strong"}, "states_explored": %d, "violations": [], "violations_total": 0}'
)


# (max_runs, max_states, runs, states), pinned from the unfolded explorer.
# Each of the ten cells of (0, 0, 1, 1) has 616 states and 213 runs. The
# first two caps fall exactly at the end of the third cell, the first one
# a fold could cover; the last two fall inside the last cell.
PARTIAL_SEARCHES = [
    (639, 4_000_000, 639, 1848),
    (500_000, 1847, 638, 1848),
    (2130, 4_000_000, 2130, 6160),
    (500_000, 6159, 2129, 6160),
]


@pytest.mark.parametrize("max_runs, max_states, runs, states", PARTIAL_SEARCHES)
def test_a_partial_search_stops_on_the_same_run(max_runs, max_states, runs, states):
    spec = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong")
    budget = ExploreBudget(max_runs=max_runs, max_states=max_states)
    report = explore("reduce-binary", spec, [(0, 0, 1, 1)], budget)
    assert report.to_json() == PARTIAL_REPORT % (max_runs, max_states, runs, states)


MAX_WAIT_4 = ("max-wait", ProblemSpec(n=4, m=4, t=1, k=2), "canonical")
NO_COMM_6 = ("no-comm", ProblemSpec(n=6, m=2, t=1, k=4), "all")
MIN_FLOOD_5 = ("min-flood", ProblemSpec(n=5, m=5, t=3, k=5, model="sync-mp"), [tuple(range(5))])
MIN_FLOOD_4 = ("min-flood", ProblemSpec(n=4, m=3, t=2, k=2, model="sync-mp"), "all")
VIOLATING_MAX_WAIT = ("max-wait", ProblemSpec(n=4, m=2, t=1, k=3), "all")

# (config, budget, digest of to_json, cells searched and folded), the
# digests pinned from the explorer without input-vector folds.
# Each of the 75 canonical max-wait vectors has 616 states and 213 runs;
# (0, 0, 0, 1) is the first vector whose orbit has more members, and
# (0, 0, 1, 0), the third vector, is the first a fold could cover. 426 runs
# end the first of these; 639 runs end the second, where the fold would
# reach the cap, so the vector is searched. 17,000 states fall inside
# (1, 0, 0, 1), the 28th vector and a later member of the orbit of
# (0, 0, 1, 1), which is searched for the same reason. In no-comm, the
# orbits whose first vector violates are searched vector by vector. The
# min-flood digests are pinned from the explorer that replayed every crash
# pattern from the first round: 3,000 runs stop inside the single cell,
# and a sampled search never folds. The violating max-wait digest is pinned
# from the explorer with five async program classes, under the crash rule
# of ``_crash_can_matter`` that reads the programs' hints.
PLAIN_FOLDS = [
    (MAX_WAIT_4, ExploreBudget(),
     "19589e8d2696705f33d5d8c8702bd6c5670dbc1138630583725e829ac245af08", (20, 55)),
    (MAX_WAIT_4, ExploreBudget(max_runs=426),
     "da820bf3f63141445ea3af0c5de5faeab0965b890e9f6afc4eeb17e33911c824", (2, 0)),
    (MAX_WAIT_4, ExploreBudget(max_runs=639),
     "a59ce19a2839fa50797e0eff3df6c8ab972b8d432adfa03aaf5347fa942d477b", (3, 0)),
    (MAX_WAIT_4, ExploreBudget(max_states=17_000),
     "794837d242c425686423ddb31649223624ccc0247408e0ca720418349a7ae003", (21, 7)),
    (NO_COMM_6, ExploreBudget(),
     "00fa0bd10488554e43e91ee08a00976c3a26aec7a3ebfc26162f074440d6984e", (25, 39)),
    (MIN_FLOOD_5, ExploreBudget(max_runs=3000),
     "1fafd2c3e77cce4ccb729ef36cb07f755c56069a3df232082e6cc7d1d6b4924c", (1, 0)),
    (MIN_FLOOD_4, ExploreBudget(mode="sample", samples=50, seed=3),
     "dcc41510068cc1834fffcb5071f83f5e3cc093d08c49d0b5db2312101562618f", (81, 0)),
    (VIOLATING_MAX_WAIT, ExploreBudget(),
     "d212f9cd426b4361b79ffd932cc3a9a6bddf1a008f69859baa5ec4346aed5449", (8, 8)),
]


@pytest.mark.parametrize(
    "config, budget, digest, cells", PLAIN_FOLDS,
    ids=["max-wait", "max-wait-426-runs", "max-wait-639-runs", "max-wait-17000-states",
         "no-comm", "min-flood-3000-runs", "min-flood-sampled", "max-wait-violating"],
)
def test_a_folded_input_vector_keeps_the_report(config, budget, digest, cells):
    import hashlib

    alg, spec, inputs = config
    report = explore(alg, spec, inputs, budget)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    assert (report.cells_explored, report.cells_folded) == cells


# (config, budget, digest of to_json, recorded violations, of them with a
# crash), sampled async explores: every random walk's draws, lengths and
# outcomes, and the tokens of the violating ones, are in the digest.
SAMPLED_ASYNC = [
    (("reduce-set", ProblemSpec(n=4, m=2, t=1, k=4, validity="strong"), [(0, 0, 1, 1)]),
     ExploreBudget(mode="sample", samples=20, seed=5),
     "68b4307d5900ede4be701c634560944a34cb1c936271dc1739c79fc74910fb25", 0, 0),
    (("max-wait", ProblemSpec(n=3, m=2, t=1, k=3), "all"),
     ExploreBudget(mode="sample", samples=12, seed=11),
     "fb8c611704d8bda4dcfaeaff83c58c3ae4b9673b88d1f008e05072fd0610b43e", 3, 2),
    (("smg-comp", ProblemSpec(n=4, m=4, t=4, k=4, model="sm-g", g=2), [(0, 1, 2, 3)]),
     ExploreBudget(mode="sample", samples=40, seed=2),
     "e511f9f36efee1a38135f8c879e3fa955831292256bf1c855e89b496439cbe2d", 15, 14),
]


@pytest.mark.parametrize(
    "config, budget, digest, violations, crashed", SAMPLED_ASYNC,
    ids=["reduce-set", "max-wait-violating", "smg-comp-crashing"],
)
def test_a_sampled_async_explore_keeps_its_report(config, budget, digest, violations, crashed):
    # Pinned from the stepper that built the live pids as a list at every move.
    import hashlib

    report = explore(*config, budget)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    schedules = [violation["schedule"] for violation in report.violations]
    assert len(schedules) == violations
    assert sum(not schedule.endswith(":") for schedule in schedules) == crashed


# (config, budget, digest of to_json), sync explores: two exhaustive
# min-flood searches and two sampled ones, whose drawn patterns may name dead
# pids and the victim itself among the recipients.
SYNC_REPORTS = [
    (("min-flood", ProblemSpec(n=4, m=4, t=4, k=4, ell=3, model="sync-mp"), "all"), None,
     "1a14d8fb21a485ca70924177f904bb17b742ad8b8e6db9e51be1ab69b7ad9972"),
    (("min-flood", ProblemSpec(n=6, m=6, t=3, k=6, ell=2, model="sync-mp"), [tuple(range(6))]),
     None, "44da7a3e6bbe0202a5ff6e3e27b121538d3c5f1f5becffed62a6742b0a6b77ff"),
    (("min-flood", ProblemSpec(n=6, m=6, t=3, k=6, ell=2, model="sync-mp"), [tuple(range(6))]),
     ExploreBudget(mode="sample", samples=400, seed=7),
     "8677ef8d50e8bd60c17ac6ba7da49f70298048556f551e1585d9033888579f09"),
    (("reduce-sync", ProblemSpec(n=5, m=2, t=2, k=5, validity="strong", model="sync-mp"),
      [(0, 0, 0, 1, 1), (0, 1, 1, 0, 1)]),
     ExploreBudget(mode="sample", samples=100, seed=3),
     "873a1ab042ab5dc1c48e3c7de6031a614ac7a5c344a9275f2d34a3e25fac2b53"),
]


@pytest.mark.parametrize(
    "config, budget, digest", SYNC_REPORTS,
    ids=["min-flood-n4-all", "min-flood-n6", "min-flood-sampled", "reduce-sync-sampled"],
)
def test_a_sync_explore_keeps_its_report(config, budget, digest):
    # Pinned from the explorer that stepped every joint choice of a round's
    # victims' reach sets.
    import hashlib

    report = explore(*config, budget)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# --- cells resolved from one shared search -------------------------------------

# The program classes that declare a decision basis (``basis`` and
# ``decide_on``), and the entries all of whose programs are among them.
BASIS_PROGRAMS = ("NoComm", "QuorumScan")
BASIS_ENTRIES = {"no-comm", "max-wait", "reduce-binary", "reduce-set", "reduce-smg"}


def _cells(entry, spec, vectors):
    if vectors == "all":
        vectors = list(itertools.product(range(spec.m), repeat=spec.n))
    return [
        (inputs, cell)
        for inputs in vectors
        for cell in (entry.oracle_assignments(spec, inputs) if entry.uses_oracle else [None])
    ]


def _resolution_mismatches(alg, spec, vectors):
    """The cells whose tally, searched alone, differs from the tally that
    their resolution from the shared search up to pid rotation gives."""
    from partialagreement import CATALOG, rotation, verify

    entry = CATALOG[alg]
    cells = _cells(entry, spec, vectors)
    report = verify.ExplorationReport(alg, spec, vectors, ExploreBudget())
    states, runs, classes = rotation.shared_search(entry, *cells[0], report)
    assert sum(classes.values()) == runs > 0
    mismatches = []
    for inputs, cell in cells:
        # no violation is recorded, so none needs a schedule
        budget = ExploreBudget(max_recorded_violations=0)
        report = verify.ExplorationReport(alg, spec, [inputs], budget)
        for outcome, count in verify._class_outcomes(entry, spec, inputs, cell, classes):
            report.record(outcome, None, None, None, count)
        report.states_explored += states
        if _cell_counts(report) != _cell_tally(entry, spec, inputs, cell):
            mismatches.append((inputs, cell))
    return mismatches, len(cells)


def test_the_basis_declarations_are_the_expected_ones():
    from partialagreement import CATALOG, algorithms, build_algorithm

    declared = {
        name for name, cls in vars(algorithms).items()
        if isinstance(cls, type) and "basis" in vars(cls)
    }
    assert declared == set(BASIS_PROGRAMS)
    smg = ProblemSpec(n=4, m=4, t=4, model="sm-g", g=2)
    for name, entry in CATALOG.items():
        if entry.flavor == "async":
            spec = smg if name == "smg-comp" else next(s for a, s, _ in FOLD_CONFIGS if a == name)
            programs = build_algorithm(name, spec, (0,) * spec.n).programs.values()
            assert all(hasattr(p, "basis") for p in programs) == (name in BASIS_ENTRIES), name


# The fold configurations of every entry with a basis. Among them are the
# violating reduce-set n=4 m=3 t=2 k=4 configuration, on (0, 1, 2, 2) and
# (0, 1, 0, 2), and max-wait n=4 m=2 t=1 k=3 on every vector, whose
# violating cells are searched by explore.
RESOLVE_CONFIGS = [row for row in FOLD_CONFIGS if row[0] in BASIS_ENTRIES]


@pytest.mark.parametrize(
    "alg, spec, vectors", RESOLVE_CONFIGS,
    ids=[f"{alg}-n{spec.n}-m{spec.m}-t{spec.t}-k{spec.k}-{i}"
         for i, (alg, spec, _) in enumerate(RESOLVE_CONFIGS)],
)
def test_every_cell_resolves_to_its_own_search(alg, spec, vectors):
    # The premise of resolution, checked directly: the programs never branch
    # on a value and write only their own fixed value, so every cell of an
    # explore has the same configuration graph up to values, and each cell
    # searched alone has the tally that the shared search's run classes,
    # decided by the cell's own programs, give. Violating cells included.
    mismatches, cells = _resolution_mismatches(alg, spec, vectors)
    assert cells > 1
    assert mismatches == []


def _without_basis(monkeypatch):
    """Resolution switched off: no program declares a basis."""
    from partialagreement import algorithms

    for name in BASIS_PROGRAMS:
        monkeypatch.delattr(getattr(algorithms, name), "basis")


REDUCE_BINARY_4 = (
    "reduce-binary", ProblemSpec(n=4, m=2, t=1, k=4, validity="strong"), [(0, 0, 1, 1)],
)
VIOLATING_REDUCE_SET = (
    "reduce-set", ProblemSpec(n=4, m=3, t=2, k=4, ell=1), [(0, 1, 2, 2)],
)
# (config, budget, cells resolved): every PLAIN_FOLDS row and the two
# reductions, each with and without resolution. The first cell resolves too,
# from the shared search, unless it fails a verdict or meets a cap.
RESOLVED_REPORTS = [
    *((config, budget, resolved) for (config, budget, _, _), resolved in zip(
        PLAIN_FOLDS, (20, 1, 2, 20, 5, 0, 0, 4)
    )),
    (REDUCE_BINARY_4, ExploreBudget(), 2),
    *((REDUCE_BINARY_4, ExploreBudget(max_runs=r, max_states=s), 2)
      for r, s, _, _ in PARTIAL_SEARCHES),
    (VIOLATING_REDUCE_SET, ExploreBudget(max_recorded_violations=1000), 6),
]


@pytest.mark.parametrize(
    "config, budget, resolved", RESOLVED_REPORTS,
    ids=["max-wait", "max-wait-426-runs", "max-wait-639-runs", "max-wait-17000-states",
         "no-comm", "min-flood-3000-runs", "min-flood-sampled", "max-wait-violating",
         "reduce-binary",
         *(f"reduce-binary-{r}-runs-{s}-states" for r, s, _, _ in PARTIAL_SEARCHES),
         "reduce-set-violating"],
)
def test_a_resolved_cell_keeps_the_report(monkeypatch, config, budget, resolved):
    alg, spec, inputs = config
    report = explore(alg, spec, inputs, budget)
    assert report.cells_resolved == resolved
    _without_basis(monkeypatch)
    searched = explore(alg, spec, inputs, budget)
    assert searched.cells_resolved == 0
    assert report.to_json() == searched.to_json()
    assert (report.cells_explored, report.cells_folded) == (
        searched.cells_explored, searched.cells_folded
    )


def test_a_flagged_run_resolves_with_its_flags(monkeypatch):
    # A mutant first phase promising k=2 of n=4 leaves reduce-smg's quorum
    # of n - t = 2 a 1-1 tie, which strict_majority breaks to 0 and flags.
    # A resolved class takes its flags from the cell's own decisions. A cell
    # with a flagged run seeds no fold, so 15 of the 16 cells are explored,
    # and each of them, the first included, resolves from the shared search.
    import dataclasses

    from partialagreement import algorithms

    def contract(spec):
        return (2, 1)

    entry = dataclasses.replace(algorithms.CATALOG["reduce-smg"], oracle_contract=contract)
    monkeypatch.setattr(algorithms, "_smg_contract", contract)
    monkeypatch.setitem(algorithms.CATALOG, "reduce-smg", entry)
    spec = ProblemSpec(n=4, m=2, t=2, k=2, validity="strong")
    mismatches, cells = _resolution_mismatches("reduce-smg", spec, [(0, 0, 1, 1)])
    assert (mismatches, cells) == ([], 16)
    tie = next(iter(entry.oracle_assignments(spec, (0, 0, 1, 1))))
    orbits, plain = _orbit_and_plain_searches("reduce-smg", spec, (0, 0, 1, 1), tie)
    assert orbits == plain
    report = explore("reduce-smg", spec, [(0, 0, 1, 1)])
    assert (report.flagged_executions, report.violations_total, report.cells_resolved) == (
        658, 0, 15,
    )
    _without_basis(monkeypatch)
    assert explore("reduce-smg", spec, [(0, 0, 1, 1)]).to_json() == report.to_json()


def test_the_resolution_check_catches_a_value_branching_program(monkeypatch):
    # A mutant reduction that stops scanning once it has seen the answer 1
    # branches on a value, so its cells' configuration graphs differ. The
    # check above catches it, and an explore that trusted its declaration
    # would report a search that never happened.
    from partialagreement import algorithms

    class StopsAtOne(algorithms.QuorumScan):
        __slots__ = ()

        def step(self, state, obs):
            if obs == 1:
                cursor, last, mask = state
                mask |= 1 << last
                return (cursor, -1, mask), self.decide_on(mask)
            return super().step(state, obs)

    monkeypatch.setattr(algorithms, "QuorumScan", StopsAtOne)
    spec = ProblemSpec(n=4, m=2, t=1, validity="strong")
    mismatches, cells = _resolution_mismatches("reduce-binary", spec, FEW)
    assert 0 < len(mismatches) < cells
    report = explore("reduce-binary", spec, FEW)
    assert report.cells_resolved
    monkeypatch.delattr(StopsAtOne.__base__, "basis")
    assert explore("reduce-binary", spec, FEW).to_json() != report.to_json()


def _basis_sweep(alg, sizes=range(2, 6)):
    """A cell (spec, inputs, assignment) of ``alg`` at each n of ``sizes``
    and each t it accepts, on one input vector: its first compliant cell."""
    from partialagreement import CATALOG, SpecError

    entry = CATALOG[alg]
    for n in sizes:
        for t in range(n + 1):
            m = t + 1 if alg == "reduce-set" else 2
            inputs = tuple(p % m for p in range(n))
            try:
                spec = ProblemSpec(n=n, m=m, t=t)
                cells = list(entry.oracle_assignments(spec, inputs)) if entry.uses_oracle else [None]
                entry.build(spec, inputs, cells[0])
            except (SpecError, IndexError):
                continue  # the entry does not accept t, or no cell complies
            yield spec, inputs, cells[0]


def _orbit_and_plain_searches(alg, spec, inputs, assignment):
    """The states, runs and Counter of run classes of the cell's shared
    search up to pid rotation, and the same of its plain DFS."""
    from partialagreement import CATALOG, rotation, shmem, verify

    entry = CATALOG[alg]
    report = verify.ExplorationReport(alg, spec, [inputs], ExploreBudget())
    orbits = rotation.shared_search(entry, inputs, assignment, report)
    root = AsyncRun(entry.build(spec, inputs, assignment).programs, inputs, eager=True)
    crash_budget = min(entry.fault_budget(spec), spec.n)
    states, classes = 0, Counter()
    for run, weight, done, _ in shmem.depth_first(root, crash_budget, verify._crash_can_matter):
        states += weight
        if done:
            classes[verify._run_class(run)] += 1
    return orbits, (states, classes.total(), classes)


@pytest.mark.parametrize("alg", sorted(BASIS_ENTRIES))
def test_the_shared_search_counts_every_configuration_once(alg):
    # The premise of the search up to pid rotation, checked directly: each
    # orbit weighed by its size, and each finished one counted in the class
    # of every distinct rotation of its run, give exactly the states, runs
    # and run classes of the plain DFS of the cell.
    searches = list(_basis_sweep(alg))
    assert len(searches) >= 4
    for spec, inputs, assignment in searches:
        orbits, plain = _orbit_and_plain_searches(alg, spec, inputs, assignment)
        assert orbits == plain, (spec, inputs, assignment)


def test_the_shared_search_check_catches_a_rotation_breaking_program(monkeypatch):
    # A mutant QuorumScan whose pid 0 scans the others in reverse order
    # breaks the pid rotation its entry declares from n = 4 on. The check
    # above catches it, and an explore that trusted the declaration would
    # report a search that never happened.
    from partialagreement import algorithms

    scan_table = algorithms._scan_table

    def reversed_at_pid_0(pid, n):
        table = scan_table(pid, n)
        if pid:
            return table
        # from cursor c to c - 1, skipping the own cursor 0
        return tuple(((c - 2) % (n - 1) + 1, read) for c, (_, read) in enumerate(table))

    monkeypatch.setattr(algorithms, "_scan_table", reversed_at_pid_0)
    broken = []
    for spec, inputs, assignment in _basis_sweep("max-wait", range(2, 5)):
        orbits, plain = _orbit_and_plain_searches("max-wait", spec, inputs, assignment)
        if orbits != plain:
            broken.append(spec.n)
    assert broken and min(broken) == 4
    spec = ProblemSpec(n=4, m=2, t=1, k=3)
    report = explore("max-wait", spec, FEW)
    _without_basis(monkeypatch)
    assert explore("max-wait", spec, FEW).to_json() != report.to_json()


# --- the sync explorer --------------------------------------------------------


def _min_flood_one_round_short(monkeypatch):
    import dataclasses

    from partialagreement import algorithms

    entry = algorithms.CATALOG["min-flood"]

    def build(spec, inputs, assignment=None):
        built = entry.build(spec, inputs)
        return dataclasses.replace(built, rounds=built.rounds - 1)

    monkeypatch.setitem(algorithms.CATALOG, "min-flood", dataclasses.replace(entry, build=build))


# (n, t, max_recorded_violations, violations, digest of to_json): the first
# two pinned from the explorer that replayed every crash pattern from the
# first round, the capped one from the explorer that walked the patterns one
# by one, before they were walked by group. It pins which violations are
# recorded first, and in what order.
SHORT_FLOODS = [
    (3, 1, 25, 2, "69799fc2e6e059963ea1cd8d82c166df48689719722a9e5a99a7c6b920d015fc"),
    (4, 2, 25, 6, "5aa3135cfea1425d3094f4e9c871e1c6d2b44f7b65b63fbf16327fe2ece94464"),
    (4, 2, 2, 6, "070f85349237cfee26ead0675e14c7acd768ee25c07fd1a40d1e588cb7688609"),
]


@pytest.mark.parametrize(
    "n, t, recorded, violations, digest", SHORT_FLOODS,
    ids=[
        f"{n}-{t}-{v}" + (f"-first-{r}" if r < v else "")
        for n, t, r, v, _ in SHORT_FLOODS
    ],
)
def test_min_flood_one_round_short_violates_and_replays(
    monkeypatch, n, t, recorded, violations, digest
):
    # C5's mutant: every violation the memoised rounds record is a crash
    # pattern that run_sync, which runs every round, replays to the same
    # decisions and verdict.
    import hashlib

    from partialagreement import CrashPattern, build_algorithm, run_sync

    _min_flood_one_round_short(monkeypatch)
    spec = ProblemSpec(n=n, m=n, t=t, k=n, ell=1, model="sync-mp")
    inputs = tuple(range(n))
    report = explore("min-flood", spec, [inputs], ExploreBudget(max_recorded_violations=recorded))
    assert report.exhaustive and report.violations_total == violations
    assert len(report.violations) == min(recorded, violations)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    built = build_algorithm("min-flood", spec, inputs)
    for violation in report.violations:
        assert violation["rounds"] == built.rounds == t
        pattern = CrashPattern.decode(violation["pattern"])
        trace = run_sync(built.programs, violation["inputs"], pattern, built.rounds, spec=spec)
        decided = Counter(v for v in trace.decisions if v is not None)
        assert sorted(decided.items()) == [tuple(d) for d in violation["verdict"]["details"]]
        assert check_agreement(trace, spec).to_dict() == violation["verdict"]


def test_the_sync_explorer_runs_each_round_once_per_configuration(monkeypatch):
    # A count, not a time: run_sync pays one round_recv per survivor per
    # round per pattern, and the explorer one per survivor per reach mask (a
    # subset of the round's victims) per distinct (round, configuration,
    # round-victim pids) within a victim set.
    from partialagreement import algorithms, enumerate_crash_patterns

    calls = []
    round_recv = algorithms.MinFlood.round_recv

    def counting(self, pref, rnd, inbox):
        calls.append(rnd)
        return round_recv(self, pref, rnd, inbox)

    monkeypatch.setattr(algorithms.MinFlood, "round_recv", counting)
    spec = ProblemSpec(n=6, m=6, t=2, k=3, ell=2, model="sync-mp")
    report = explore("min-flood", spec, [tuple(range(6))])
    assert report.exhaustive and report.executions_checked == 23_425
    per_pattern = sum(
        sum(1 for p in range(6) if pattern.crash_round().get(p, 3) > rnd)
        for pattern in enumerate_crash_patterns(6, 2, 2, canonical=True)
        for rnd in (1, 2)
    )
    assert per_pattern == 211_404
    assert len(calls) == 3_323 < per_pattern // 4


def test_a_sampled_sync_explore_runs_each_pattern_once(monkeypatch):
    # A count, not a time: a sampled explore runs each drawn pattern alone,
    # one round_recv per survivor per round, as run_sync does; no round of
    # it runs a survivor once per subset of the round's victims.
    import random

    from partialagreement import algorithms
    from partialagreement.syncmp import random_pattern

    calls = []
    round_recv = algorithms.MinFlood.round_recv

    def counting(self, pref, rnd, inbox):
        calls.append(rnd)
        return round_recv(self, pref, rnd, inbox)

    monkeypatch.setattr(algorithms.MinFlood, "round_recv", counting)
    spec = ProblemSpec(n=6, m=6, t=5, k=6, ell=1, model="sync-mp")
    inputs = tuple(range(6))
    budget = ExploreBudget(mode="sample", samples=300, seed=11)
    report = explore("min-flood", spec, [inputs], budget)
    assert report.executions_checked == budget.samples
    # the explore's stream for its one cell, and min-flood's t/ell + 1 rounds
    rng = random.Random(f"{budget.seed}|{inputs}|None")
    drawn = [random_pattern(rng, 6, 5, 6) for _ in range(budget.samples)]
    per_pattern = sum(
        sum(1 for p in range(6) if pattern.crash_round().get(p, 7) > rnd)
        for pattern in drawn
        for rnd in range(1, 7)
    )
    assert len(calls) == per_pattern == 8_089


def test_the_sync_explorer_records_each_outcome_of_a_group_once(monkeypatch):
    # A count, not a time: the explorer walked the crash patterns one by one
    # and recorded each of the 23,425 runs on its own; a pattern group's
    # runs are now counted round by round, and each distinct outcome of a
    # violation-free group is recorded once, with its count.
    from partialagreement.verify import ExplorationReport

    calls = []
    record = ExplorationReport.record

    def counting(self, outcome, base, token_key, token, weight=1):
        calls.append(weight)
        return record(self, outcome, base, token_key, token, weight)

    monkeypatch.setattr(ExplorationReport, "record", counting)
    spec = ProblemSpec(n=6, m=6, t=2, k=3, ell=2, model="sync-mp")
    report = explore("min-flood", spec, [tuple(range(6))])
    assert report.exhaustive and report.executions_checked == sum(calls) == 23_425
    assert len(calls) == 155


def test_a_sync_explore_stops_at_max_states():
    # A max_states inside a pattern group (100 falls in the group of 32
    # patterns that ends at the 113th) stops the sync explore as it stops
    # the DFS: on the first pattern whose state passes the cap, before
    # recording it.
    spec = ProblemSpec(n=4, m=4, t=2, k=2, ell=2, model="sync-mp")
    uncapped = explore("min-flood", spec, [(0, 1, 2, 3)])
    assert uncapped.exhaustive and uncapped.states_explored == 641
    report = explore("min-flood", spec, [(0, 1, 2, 3)], ExploreBudget(max_states=100))
    assert not report.exhaustive
    assert (report.states_explored, report.executions_checked) == (101, 100)
    exact = explore("min-flood", spec, [(0, 1, 2, 3)], ExploreBudget(max_states=641))
    assert exact.exhaustive and exact.states_explored == 641


# Every smg-comp configuration of the suite: C6's three, the pinned n=6
# search, the tight-rules k=7 one, and two "all" sweeps (case 2 n=4 g=2,
# case 1 n=4 g=4) whose input vectors repeat values; and a case 1 n=10 cell
# whose 10! candidate pid permutations leave a group of 288, the limit.
ROLE_CONFIGS = [
    (ProblemSpec(n=8, m=2, t=8, k=6, model="sm-g", g=4), [(0, 1, 0, 1, 0, 1, 0, 1)]),
    (ProblemSpec(n=8, m=8, t=8, k=6, model="sm-g", g=4), [tuple(range(8))]),
    (ProblemSpec(n=4, m=2, t=0, k=4, model="sm-g", g=4), "all"),
    (ProblemSpec(n=6, m=6, t=6, k=3, model="sm-g", g=3), [tuple(range(6))]),
    (ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4), [tuple(range(8))]),
    (ProblemSpec(n=4, m=4, t=4, k=3, model="sm-g", g=2), "all"),
    (ProblemSpec(n=4, m=4, t=4, k=4, model="sm-g", g=4), "all"),
    (ProblemSpec(n=10, m=4, t=10, k=10, model="sm-g", g=10), [(0, 1, 1, 2, 2, 2, 3, 3, 3, 3)]),
]


def _described(prog, objects=None, values=None):
    """A role program as (class, objects it proposes to, value), its objects
    renamed by ``objects`` and its value mapped by ``values``."""
    names = prog.role_objects
    if objects is not None:
        names = tuple(objects[name] for name in names)
    return type(prog), names, prog.value if values is None else values[prog.value]


def test_the_role_group_maps_each_cell_onto_itself():
    from partialagreement import build_algorithm
    from partialagreement.roles import role_group

    orders = set()
    for spec, vectors in ROLE_CONFIGS:
        if vectors == "all":
            vectors = list(itertools.product(range(spec.m), repeat=spec.n))
        for inputs in vectors:
            built = build_algorithm("smg-comp", spec, inputs)
            group = role_group(built, inputs)
            orders.add(len(group))
            assert len({(pids, tuple(sorted(objects.items()))) for pids, objects, _ in group}) == (
                len(group)
            )
            for pids, objects, values in group:
                assert sorted(pids) == list(range(spec.n))
                assert sorted(objects.values()) == sorted(built.objects)
                assert sorted(values.values()) == sorted(set(inputs))
                for name, image in objects.items():
                    assert built.objects[image].capacity == built.objects[name].capacity
                for p, q in enumerate(pids):
                    assert inputs[q] == values[inputs[p]]
                    assert _described(built.programs[q]) == (
                        _described(built.programs[p], objects, values)
                    )
    assert {1, 2, 4, 8, 24, 32, 288} <= orders


def test_the_role_group_limit_counts_elements_not_candidates(monkeypatch):
    from partialagreement import build_algorithm, roles

    def order(n, g, inputs):
        spec = ProblemSpec(n=n, m=max(inputs) + 1, t=n, k=n, model="sm-g", g=g)
        return len(roles.role_group(build_algorithm("smg-comp", spec, inputs), inputs))

    assert roles.ROLE_GROUP_LIMIT == 288
    assert order(10, 10, (0, 1, 1, 2, 2, 2, 3, 3, 3, 3)) == 288  # of 10! candidates
    assert order(10, 5, tuple(range(10))) == 288
    assert order(6, 6, tuple(range(6))) == 1  # 720 elements
    monkeypatch.setattr(roles, "ROLE_GROUP_LIMIT", 287)
    assert order(10, 5, tuple(range(10))) == 1


def _role_tally(report):
    return (
        report.exhaustive, report.states_explored, report.executions_checked,
        report.violations_total, report.flagged_executions, report.empirical_k,
        report.empirical_k_all_runs, report.empirical_ell,
    )


@pytest.mark.parametrize(
    "spec, vectors", ROLE_CONFIGS,
    ids=[f"n{spec.n}-m{spec.m}-t{spec.t}-k{spec.k}-g{spec.g}" for spec, _ in ROLE_CONFIGS],
)
def test_the_role_reduced_search_counts_like_the_unreduced_one(unreduced, spec, vectors):
    # Each passing configuration resolves cells up to their role groups;
    # the violating one (k=7) searches its cell plainly after its role search.
    reduced = explore("smg-comp", spec, vectors)
    assert bool(reduced.roles) == (reduced.violations_total == 0)
    with unreduced():
        plain = explore("smg-comp", spec, vectors)
    assert plain.states_searched == plain.states_explored and not plain.roles
    assert _role_tally(reduced) == _role_tally(plain)


def test_every_recorded_role_reduced_violation_replays(capsys, unreduced):
    # A cell whose role search finds a violating outcome is searched
    # plainly, so the recorded violations are the unreduced search's, and
    # each replays. The role search stops at its first failing outcome,
    # the ninth configuration it meets.
    import hashlib
    import json

    from partialagreement import cli

    spec = ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4)
    report = explore("smg-comp", spec, [tuple(range(8))])
    assert (report.violations_total, len(report.violations)) == (244, 25)
    assert not report.roles
    assert report.states_searched - report.states_explored == 9
    # pinned from the unreduced search, under the crash rule of
    # ``_crash_can_matter`` that reads the programs' hints
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "5c0a62e70b7080575feb3c78a0ae7b89c5cc8c12792c48c745b4a024fdd7f6ea"
    )
    with unreduced():
        assert explore("smg-comp", spec, [tuple(range(8))]).to_json() == report.to_json()
    for violation in report.violations:
        code = cli.main(["run", "--replay", json.dumps(violation), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["verdict"] == violation["verdict"]
        assert out["replay"]["schedule"] == violation["schedule"]


@pytest.mark.parametrize(
    "budget",
    [ExploreBudget(max_runs=100), ExploreBudget(max_states=2000), ExploreBudget(max_runs=244)],
    ids=["100-runs", "2000-states", "244-runs"],
)
def test_a_capped_role_search_stops_on_the_same_run(unreduced, budget):
    # A cap the role search would reach is reached by the unreduced one
    # too, which the cell's search then is: the partial report stays
    # byte-identical.
    spec = ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4)
    reduced = explore("smg-comp", spec, [tuple(range(8))], budget)
    assert not reduced.exhaustive
    with unreduced():
        assert reduced.to_json() == explore("smg-comp", spec, [tuple(range(8))], budget).to_json()


def test_a_capped_explore_is_redone_without_role_orbits(unreduced):
    # The cap falls in a later cell, after earlier cells were resolved up
    # to their role groups: the capped cell is searched plainly, so the
    # partial report is the unreduced search's.
    spec = ProblemSpec(n=4, m=2, t=0, k=4, model="sm-g", g=4)
    budget = ExploreBudget(max_states=200)
    report = explore("smg-comp", spec, "all", budget)
    assert not report.exhaustive
    searched, states, _ = zip(*report.roles)
    assert 0 < len(states) < report.cells_explored
    assert sum(searched) < sum(states) < report.states_explored
    with unreduced():
        assert report.to_json() == explore("smg-comp", spec, "all", budget).to_json()


def test_a_cell_that_outgrows_its_codes_is_redone_without_role_orbits(monkeypatch, unreduced):
    # 9 value codes leave 2 ids, fewer than the 3 local parts the n=8 g=4
    # search meets before its first failing outcome: the role search gives
    # up mid-cell and the cell is searched plainly, recorded violations
    # included.
    from partialagreement import roles

    gave_up = []
    encode = roles.RoleKeys.encode

    def spy(self, run):
        raw = encode(self, run)
        gave_up.append(raw is None)
        return raw

    spec = ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4)
    monkeypatch.setattr(roles, "CODE_LIMIT", 11)
    monkeypatch.setattr(roles.RoleKeys, "encode", spy)
    report = explore("smg-comp", spec, [tuple(range(8))])
    assert gave_up[-1] and not any(gave_up[:-1]) and len(gave_up) > 1
    assert report.exhaustive and not report.roles
    assert report.states_searched > report.states_explored  # both searches
    with unreduced():
        assert report.to_json() == explore("smg-comp", spec, [tuple(range(8))]).to_json()


def _relabelled(run, pids, objects, values):
    """The configuration of ``run`` with pid p moved to ``pids[p]``, object
    o renamed ``objects[o]`` and value v mapped to ``values[v]``."""
    from partialagreement.shmem import Propose

    image = run.clone()
    for p, q in enumerate(pids):
        action = run.actions[p]
        if type(action) is Propose:
            action = Propose(objects[action.obj], values[action.value])
        elif action is not None:
            action = action._replace(value=values[action.value])
        image.states[q], image.actions[q], image.crashed[q] = run.states[p], action, run.crashed[p]
        image.decided[q] = None if run.decided[p] is None else values[run.decided[p]]
    image.objects = dict(run.objects)
    for name, obj in run.objects.items():
        image.objects[objects[name]] = ConsensusObject(
            obj.capacity,
            None if obj.winner is None else values[obj.winner],
            frozenset(pids[p] for p in obj.proposers),
        )
    return image


# smg-comp cells of both cases, with the configurations a DFS that may
# crash at every point meets: case 2 with one relay per group, alone and
# beside six fixed pids, case 2 with two relays per group (no crash), and
# every case 1 n=4 vector with a group.
ENCODED_CELLS = [
    (ProblemSpec(n=6, m=6, t=6, k=3, model="sm-g", g=3), [tuple(range(6))], 4450),
    (ProblemSpec(n=12, m=12, t=12, k=3, model="sm-g", g=3), [tuple(range(12))], 4450),
    (ProblemSpec(n=8, m=2, t=0, k=6, model="sm-g", g=4), [(0, 1, 0, 1, 0, 1, 0, 1)], 4369),
    (ProblemSpec(n=4, m=4, t=4, k=4, model="sm-g", g=4), "all", 28476),
]


def check_role_encoding(built, inputs, crash_budget, limit=None) -> int:
    """Assert, on every configuration reachable in the cell (crashing any
    live pid at any point up to ``crash_budget``; the first ``limit`` the
    DFS meets, if given), that ``roles.RoleKeys`` encodes it one to one
    with its ``key()``, that each group element maps it onto a
    configuration of the cell, the one its pid-mapped moves reach, and that
    each image of its encoding is that configuration's encoding. The number
    of configurations met; 0 when the group is the identity."""
    from partialagreement.roles import RoleKeys, role_group
    from partialagreement.shmem import AsyncRun

    group = role_group(built, inputs)
    if len(group) == 1:
        return 0
    keys = RoleKeys(built, inputs, group)
    seen, by_key, by_code = set(), {}, {}
    root = AsyncRun(built.programs, inputs, objects=built.objects, eager=True)
    # a run, and per element the run its pid-mapped moves reach
    stack = [(root, [root] * len(group))]
    while stack and len(seen) != limit:
        run, reached = stack.pop()
        key = run.key()
        if key in seen:
            continue
        seen.add(key)
        raw = keys.encode(run)
        assert by_key.setdefault(key, raw) == raw
        assert by_code.setdefault(raw, key) == key
        for element, (move, table), image in zip(group, keys.elements, reached):
            assert image.key() == _relabelled(run, *element).key()
            code = keys.encode(image)
            assert bytes(move(raw.translate(table))) == code
            assert by_code.setdefault(code, image.key()) == image.key()
            assert by_key.setdefault(image.key(), code) == code
        moves = [(AsyncRun.step, pid) for pid in run.live_undecided()]
        if sum(run.crashed) < crash_budget:
            moves += [(AsyncRun.crash, pid) for pid in run.live_undecided()]
        for act, pid in moves:
            children = [run.clone(), *(image.clone() for image in reached)]
            act(children[0], pid)
            for (pids, _, _), child in zip(group, children[1:]):
                act(child, pids[pid])
            stack.append((children[0], children[1:]))
    assert len(keys.code) + len(keys.ids) <= 256
    return len(seen)


@pytest.mark.parametrize(
    "spec, vectors, configurations", ENCODED_CELLS,
    ids=[f"n{spec.n}-m{spec.m}-t{spec.t}-g{spec.g}" for spec, _, _ in ENCODED_CELLS],
)
def test_the_role_encoding_is_the_key_and_each_image_the_relabelled_encoding(
    spec, vectors, configurations
):
    # Every configuration reachable in the cell, crashing any live pid at
    # any point up to t, and its image under each group element.
    from partialagreement import build_algorithm

    if vectors == "all":
        vectors = list(itertools.product(range(spec.m), repeat=spec.n))
    met = sum(
        check_role_encoding(build_algorithm("smg-comp", spec, inputs), inputs, spec.t)
        for inputs in vectors
    )
    assert met == configurations


# --- sleep sets in the async DFS -------------------------------------------------


def _crash_anywhere(monkeypatch):
    """ROADMAP item 1's adversary: any live process may crash at any point."""
    from partialagreement import verify

    monkeypatch.setattr(verify, "_crash_can_matter", lambda run, pid: True)


def _crash_before_a_write(monkeypatch):
    """ROADMAP item 1's crash rule: a process may crash while its pending
    action is a Write or a Propose."""
    from partialagreement import verify

    monkeypatch.setattr(
        verify, "_crash_can_matter", lambda run, pid: type(run.actions[pid]) in (Write, Propose)
    )


def _never_independent(monkeypatch):
    """No two moves commute, so nothing sleeps."""
    from partialagreement import shmem

    monkeypatch.setattr(shmem, "dependent_moves", lambda run, move: -1)


def _enabled(run, crash_budget):
    """The moves of the DFS at ``run``: n + p to crash pid p, p to step it."""
    from partialagreement import verify

    if run.nonterminating:
        return []
    live = run.live_undecided()
    crashes = []
    if sum(run.crashed) < crash_budget:
        crashes = [run.n + p for p in live if verify._crash_can_matter(run, p)]
    return crashes + live


def _moved(run, move):
    child = run.clone()
    if move < run.n:
        child.step(move)
    else:
        child.crash(move - run.n)
    return child


# One cell of each async program class, reductions with an explicit
# first-phase assignment, and both smg-comp cases.
INDEPENDENCE_CELLS = [
    ("max-wait", ProblemSpec(n=3, m=3, t=2, k=3), (0, 1, 2), None),
    ("no-comm", ProblemSpec(n=3, m=2, t=1), (0, 1, 1), None),
    ("reduce-binary", ProblemSpec(n=4, m=2, t=1, validity="strong"), (0, 0, 1, 1), (0, 1, 0, 0)),
    ("smg-comp", ProblemSpec(n=4, m=4, t=4, k=3, model="sm-g", g=2), (0, 1, 2, 3), None),
    ("smg-comp", ProblemSpec(n=4, m=4, t=4, k=4, model="sm-g", g=4), (0, 1, 2, 3), None),
]


@pytest.mark.parametrize("anywhere", [False, True], ids=["hinted-crashes", "crashes-anywhere"])
def test_the_moves_the_relation_calls_independent_commute(monkeypatch, anywhere):
    # Every reachable settled configuration of each cell, and every pair of
    # a move t and a progress move u that dependent_moves calls independent:
    # each stays enabled after the other, and both orders reach one key.
    from partialagreement import CATALOG
    from partialagreement.shmem import AsyncRun, Read, dependent_moves

    if anywhere:
        _crash_anywhere(monkeypatch)
    checked = {}
    for alg, spec, inputs, assignment in INDEPENDENCE_CELLS:
        entry = CATALOG[alg]
        built = entry.build(spec, inputs, assignment)
        crash_budget = min(entry.fault_budget(spec), spec.n)
        root = AsyncRun(built.programs, inputs, objects=built.objects, eager=True)
        seen, stack, pairs = {root.key()}, [root], 0
        while stack:
            run = stack.pop()
            moves = _enabled(run, crash_budget)
            children = {move: _moved(run, move) for move in moves}
            progress = [u for u in moves if u >= run.n or type(run.actions[u]) is not Read]
            for t in moves:
                deps = dependent_moves(run, t)
                for u in progress:
                    if u == t or deps >> u & 1:
                        continue
                    assert u in _enabled(children[t], crash_budget), (alg, t, u)
                    assert t in _enabled(children[u], crash_budget), (alg, t, u)
                    assert _moved(children[t], u).key() == _moved(children[u], t).key(), (alg, t, u)
                    pairs += 1
            for child in children.values():
                if child.key() not in seen:
                    seen.add(child.key())
                    stack.append(child)
        checked[alg, spec.g] = pairs
    # no-comm decides at the start; case 1 smg-comp (g=4) proposes to one
    # object, and its hints never crash a proposer (ROADMAP item 1)
    assert checked.pop(("no-comm", None)) == 0
    if not anywhere:
        checked.pop(("smg-comp", 4))
    assert all(checked.values()), checked


def _searches(monkeypatch, alg, spec, inputs, budget):
    """The report of an explore, and what its DFS yielded, in order: per
    configuration its key, replay schedule, weight and whether it ended,
    the shared search's up to pid rotation included."""
    from partialagreement import rotation, shmem, verify

    yielded = []

    def recorded(*args, **hooks):
        for item in shmem.depth_first(*args, **hooks):
            run, weight, done, _ = item
            yielded.append((run.key(), run.encode(), weight, done))
            yield item

    monkeypatch.setattr(verify, "depth_first", recorded)
    monkeypatch.setattr(rotation, "depth_first", recorded)
    return explore(alg, spec, inputs, budget), yielded


# Every async entry on small configs: violating cells (max-wait k=3,
# reduce-set), capped ones (max-wait at 300 runs, reduce-smg at 2,000
# states, both smg-comp caps) and role-reduced ones (smg-comp).
SLEEP_CONFIGS = [
    ("no-comm", ProblemSpec(n=4, m=3, t=1), "all", ExploreBudget()),
    ("max-wait", ProblemSpec(n=3, m=2, t=1, k=3), "all", ExploreBudget()),
    ("max-wait", ProblemSpec(n=3, m=3, t=1, k=3), "all", ExploreBudget(max_runs=300)),
    ("reduce-binary", ProblemSpec(n=3, m=2, t=1, validity="strong"), "all", ExploreBudget()),
    ("reduce-set", ProblemSpec(n=4, m=3, t=2, k=4, ell=1), [(0, 1, 2, 2)], ExploreBudget()),
    ("reduce-smg", ProblemSpec(n=4, m=2, t=1, validity="strong"), FEW,
     ExploreBudget(max_states=2000)),
    ("smg-comp", ProblemSpec(n=6, m=6, t=6, k=3, model="sm-g", g=3), [tuple(range(6))],
     ExploreBudget()),
    ("smg-comp", ProblemSpec(n=4, m=2, t=0, k=4, model="sm-g", g=4), "all",
     ExploreBudget(max_states=200)),
    ("smg-comp", ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4), [tuple(range(8))],
     ExploreBudget(max_runs=100)),
]


@pytest.mark.parametrize("rule", [False, True], ids=["hinted-crashes", "crash-before-a-write"])
@pytest.mark.parametrize(
    "alg, spec, inputs, budget", SLEEP_CONFIGS,
    ids=[f"{alg}-n{spec.n}-{i}" for i, (alg, spec, _, _) in enumerate(SLEEP_CONFIGS)],
)
def test_sleep_sets_change_only_the_children_built(monkeypatch, alg, spec, inputs, budget, rule):
    # The DFS with sleep sets yields the same configurations, with the same
    # schedules and weights, in the same order as with none.
    if rule:
        _crash_before_a_write(monkeypatch)
    report, yielded = _searches(monkeypatch, alg, spec, inputs, budget)
    _never_independent(monkeypatch)
    unslept, yielded_unslept = _searches(monkeypatch, alg, spec, inputs, budget)
    assert unslept.moves_slept == 0
    if alg != "no-comm" and spec.g != spec.n and (alg, rule) != ("reduce-binary", False):
        # no-comm has no move; a case 1 smg-comp cell (g = n) proposes to
        # one object, and its capped cell here never crashes. Every
        # reduce-binary n=3 cell resolves from the shared search, whose 10
        # configurations up to pid rotation, under the hinted crashes, have
        # no child a sleep set holds. In a smg-comp cell the persistent
        # sets run instead of the sleep sets.
        assert (report.moves_pruned if alg == "smg-comp" else report.moves_slept) > 0
    assert yielded == yielded_unslept
    assert report.to_json() == unslept.to_json()


def test_a_run_cut_by_the_step_bound_ends_the_sleep_sets(monkeypatch):
    # Once a run is cut, nothing more sleeps, so runs whose commuted orders
    # are cut after different steps are all met, as without sleep sets.
    from partialagreement import shmem

    def search():
        programs = [_Livelock(pid, 3, pid) for pid in range(3)]
        root = AsyncRun(programs, (0, 1, 2), eager=True)
        return [
            (run.key(), run.encode(), done, run.nonterminating)
            for run, _, done, _ in shmem.depth_first(root, 1, lambda run, pid: True)
        ]

    yielded = search()
    _never_independent(monkeypatch)
    assert yielded == search()
    assert sum(cut for *_, cut in yielded) > 1


def test_a_sampled_explore_of_a_livelock_ends_every_run_at_the_step_bound(monkeypatch):
    # A random walk stops where its run marks itself nonterminating, so the
    # explore finishes and each run is a resiliency violation that replays.
    import dataclasses

    from partialagreement import AsyncSchedule, algorithms, run_async

    entry = algorithms.CATALOG["max-wait"]

    def build(spec, inputs, assignment=None):
        return algorithms.Built({pid: _Livelock(pid, spec.n, inputs[pid]) for pid in range(spec.n)})

    monkeypatch.setitem(algorithms.CATALOG, "max-wait", dataclasses.replace(entry, build=build))
    spec = ProblemSpec(n=3, m=3, t=0, k=3)
    report = explore("max-wait", spec, [(0, 1, 2)], ExploreBudget(mode="sample", samples=4))
    assert report.executions_checked == report.violations_total == 4
    assert report.states_explored == 4 * 577
    assert [outcome.nonterminating for outcome in report.verdicts] == [True]
    for violation in report.violations:
        assert not violation["verdict"]["resiliency_ok"]
        schedule = AsyncSchedule.decode(violation["schedule"])
        assert run_async(build(spec, (0, 1, 2)).programs, (0, 1, 2), schedule).nonterminating


def test_the_sleep_sets_prune_a_pinned_number_of_children():
    # A change that silently stops pruning (or prunes a state it should
    # reach, which the pinned searches catch) fails here. The smg-comp
    # cell prunes by persistent sets, not by sleep sets.
    smg = explore("smg-comp", ProblemSpec(n=8, m=8, t=8, k=6, model="sm-g", g=4), [tuple(range(8))])
    assert (smg.states_explored, smg.states_searched, smg.moves_slept, smg.moves_pruned) == (
        2923, 243, 0, 313
    )
    spec = ProblemSpec(n=5, m=2, t=2, k=5, validity="strong")
    reduce_smg = explore("reduce-smg", spec, [(0, 0, 0, 1, 1)])
    assert (reduce_smg.states_explored, reduce_smg.states_searched, reduce_smg.moves_slept) == (
        172224, 2872, 696
    )


# ROADMAP item 1's seven configs, searched under its crash rule, and the
# SHA-256 of each to_json(), pinned from the same search with no sleep sets
# (and equal to the reports of the explorer before sleep sets, with the rule
# applied), each the unreduced search's: smg-comp n=8 k=7 violates, so its
# cell is searched plainly. smg-comp n=6 m=3 t=2 g=3 takes every 27th of its
# 729 input vectors, 27 of them, as all 729 take half a minute. The smg-comp
# cells are searched through persistent sets instead: n=8 k=7 meets 41,396
# configurations where the DFS without them meets 222,496, with the same
# runs, violations, k and ell, and records other violating runs.
CRASH_RULE_REPORTS = [
    ("smg-comp", ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4), [tuple(range(8))],
     ExploreBudget(), "4d207d72bd4d78b85a4b81a9d96091488622d8f70e0e28aaf9b63905f6b1247b"),
    ("smg-comp", ProblemSpec(n=6, m=3, t=2, k=3, model="sm-g", g=3),
     list(itertools.product(range(3), repeat=6))[::27], ExploreBudget(),
     "9c294018891346cf3f3896d52ca7750c21f3905b94a20d402ac6938c9af2cf65"),
    ("max-wait", ProblemSpec(n=4, m=2, t=1, k=3), "all", ExploreBudget(),
     "5d5cc15f8d9034160e5d42a06347e8c1fb702e255f5766072af9540e7a79944b"),
    ("max-wait", ProblemSpec(n=4, m=4, t=1, k=2), "canonical", ExploreBudget(max_states=17_000),
     "323670796444934b19426fee52cfe6fa564e2feadb2b6a93efd3dbd3b98ceeb1"),
    ("reduce-set", ProblemSpec(n=4, m=3, t=2, k=4, ell=1), "all", ExploreBudget(),
     "fdd01d22a9d62bb74128b9ee687a0ef05c6447b29d2fc170765ef67073f284ab"),
    ("reduce-smg", ProblemSpec(n=5, m=2, t=2, k=5, validity="strong"), "all", ExploreBudget(),
     "a7fb19ece827002c6531e67e9994e8adddfafbf884cc2bec6bbeeea69e2ff79d"),
    ("max-wait", ProblemSpec(n=3, m=3, t=1, k=3), "all", ExploreBudget(max_runs=300),
     "8a4e2e4828c2cbe46d31ca52d7b4e53075980ec12e7ee43c706c89a3615022bd"),
]


@pytest.mark.parametrize(
    "alg, spec, inputs, budget, digest", CRASH_RULE_REPORTS,
    ids=[f"{alg}-n{spec.n}-{i}" for i, (alg, spec, *_) in enumerate(CRASH_RULE_REPORTS)],
)
def test_sleep_sets_keep_the_reports_under_the_crash_rule(
    monkeypatch, alg, spec, inputs, budget, digest
):
    import hashlib

    _crash_before_a_write(monkeypatch)
    report = explore(alg, spec, inputs, budget)
    assert (report.moves_pruned if alg == "smg-comp" else report.moves_slept) > 0
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


# Every catalog entry on small configurations: passing, violating (max-wait
# k=3, reduce-set, smg-comp k=7), capped on runs or on states (in a later
# cell for smg-comp n=4 g=4), a cell that outgrows its role codes (the code
# limit patched to 10: 7 value codes leave 3 ids for the cell's 5 local
# parts), and sampled explores. The last column is the role code limit.
UNREDUCED_CONFIGS = [
    ("no-comm", ProblemSpec(n=4, m=3, t=1), "all", ExploreBudget(), 256),
    ("max-wait", ProblemSpec(n=3, m=2, t=1, k=3), "all", ExploreBudget(), 256),
    ("max-wait", ProblemSpec(n=3, m=3, t=1, k=3), "all", ExploreBudget(max_runs=300), 256),
    ("max-wait", ProblemSpec(n=3, m=3, t=1), "all", ExploreBudget(mode="sample", samples=5), 256),
    ("min-flood", ProblemSpec(n=3, m=3, t=1, model="sync-mp"), "all", ExploreBudget(), 256),
    ("min-flood", ProblemSpec(n=4, m=4, t=2, k=2, ell=2, model="sync-mp"), [(0, 1, 2, 3)],
     ExploreBudget(max_states=100), 256),
    ("min-flood", ProblemSpec(n=4, m=4, t=2, model="sync-mp"), "canonical",
     ExploreBudget(mode="sample", samples=5), 256),
    ("smg-comp", ProblemSpec(n=6, m=6, t=6, k=3, model="sm-g", g=3), [tuple(range(6))],
     ExploreBudget(), 256),
    ("smg-comp", ProblemSpec(n=6, m=6, t=6, k=3, model="sm-g", g=3), [tuple(range(6))],
     ExploreBudget(), 10),
    ("smg-comp", ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4), [tuple(range(8))],
     ExploreBudget(), 256),
    ("smg-comp", ProblemSpec(n=8, m=8, t=8, k=7, model="sm-g", g=4), [tuple(range(8))],
     ExploreBudget(max_runs=100), 256),
    ("smg-comp", ProblemSpec(n=4, m=2, t=0, k=4, model="sm-g", g=4), "all",
     ExploreBudget(max_states=200), 256),
    ("smg-comp", ProblemSpec(n=4, m=4, t=4, k=3, model="sm-g", g=2), "canonical", ExploreBudget(), 256),
    ("smg-comp", ProblemSpec(n=6, m=6, t=6, k=3, model="sm-g", g=3), [tuple(range(6))],
     ExploreBudget(mode="sample", samples=5), 256),
    ("reduce-binary", ProblemSpec(n=3, m=2, t=1, validity="strong"), "all", ExploreBudget(), 256),
    ("reduce-set", ProblemSpec(n=4, m=3, t=2, k=4, ell=1), [(0, 1, 2, 2)], ExploreBudget(), 256),
    ("reduce-sync", ProblemSpec(n=4, m=2, t=1, validity="strong", model="sync-mp"), "all",
     ExploreBudget(), 256),
    ("reduce-smg", ProblemSpec(n=4, m=2, t=1, validity="strong"), FEW,
     ExploreBudget(max_states=2000), 256),
]


@pytest.mark.parametrize(
    "alg, spec, inputs, budget, code_limit", UNREDUCED_CONFIGS,
    ids=[f"{alg}-n{spec.n}-{i}" for i, (alg, spec, *_) in enumerate(UNREDUCED_CONFIGS)],
)
def test_every_report_is_the_unreduced_searchs(
    monkeypatch, unreduced, alg, spec, inputs, budget, code_limit
):
    from partialagreement import roles

    monkeypatch.setattr(roles, "CODE_LIMIT", code_limit)
    report = explore(alg, spec, inputs, budget)
    with unreduced():
        assert report.to_json() == explore(alg, spec, inputs, budget).to_json()


# --- persistent sets in the async DFS ------------------------------------------


def _finished_keys(built, inputs, crash_budget):
    """The ``key()`` of every finished configuration of the cell's DFS
    without persistent sets."""
    from partialagreement import verify
    from partialagreement.shmem import depth_first

    root = AsyncRun(built.programs, inputs, objects=built.objects, eager=True)
    search = depth_first(root, crash_budget, verify._crash_can_matter)
    return {run.key() for run, _, done, _ in search if done}


@pytest.mark.parametrize("n", range(2, 9))
def test_the_persistent_sets_keep_every_finished_configuration(monkeypatch, unreduced, n):
    # Every smg-comp cell of n pids, each g and t, on distinct and on
    # repeated inputs at its guaranteed k: the plain search of the cell,
    # through the persistent sets, ends in exactly the finished
    # configurations of the DFS without them, and its report is the one
    # searched up to role symmetry. A crash is never undone and the budget
    # only bounds how many are taken, so the DFS without them at budget t
    # ends in those of its search at budget n with at most t crashed pids.
    import dataclasses

    from partialagreement import build_algorithm, shmem, verify
    from partialagreement.algorithms import smg_guarantee

    finished = set()

    def recorded(*args, **hooks):
        for item in shmem.depth_first(*args, **hooks):
            if item[2]:
                finished.add(item[0].key())
            yield item

    monkeypatch.setattr(verify, "depth_first", recorded)
    crashed = slice(3 * n, 4 * n)  # the crashed flags in a key
    vectors = (tuple(range(n)), tuple(p // 2 for p in range(n)))
    pruned = 0
    for g, inputs in itertools.product(range(1, n + 1), vectors):
        spec = ProblemSpec(n=n, m=n, t=n, model="sm-g", g=g)
        plain = _finished_keys(build_algorithm("smg-comp", spec, inputs), inputs, n)
        for t in range(n + 1):
            spec = dataclasses.replace(spec, t=t)
            spec = dataclasses.replace(spec, k=smg_guarantee(spec))
            reduced = explore("smg-comp", spec, [inputs])
            finished.clear()
            with unreduced():
                report = explore("smg-comp", spec, [inputs])
            assert finished == {key for key in plain if sum(key[crashed]) <= t}, (g, t, inputs)
            assert reduced.to_json() == report.to_json(), (g, t, inputs)
            pruned += report.moves_pruned > 0
    assert pruned or n < 4, n


# --- the impossibility oracle (ROADMAP item 4) -------------------------------


def _least_necessary_k(spec):
    """The least ``necessary_k`` of the rules that apply: in async-rw R1-R3
    always, R4 and R5 under strong validity only; in sm-g R8 and R10."""
    from partialagreement import evaluate_bounds

    if spec.model == "sm-g":
        rows = ("R8", "R10")
    elif spec.validity == "strong":
        rows = ("R1", "R2", "R3", "R4", "R5")
    else:
        rows = ("R1", "R2", "R3")
    limits = [
        r.necessary_k for r in evaluate_bounds(spec) if r.row in rows and r.necessary_k is not None
    ]
    return min(limits, default=None)


def _contradicts_a_theorem(report) -> bool:
    """Whether ``report`` is an exhaustive search with no violation whose
    empirical k passes what the paper proves no algorithm can guarantee."""
    limit = _least_necessary_k(report.spec)
    return (
        report.exhaustive and not report.violations_total and limit is not None
        and report.empirical_k > limit
    )


def _with_default_k(alg, spec):
    import dataclasses

    from partialagreement import get_algorithm

    return dataclasses.replace(spec, k=get_algorithm(alg).default_k(spec))


def test_no_exhaustive_explore_beats_the_impossibility_results():
    checked = 0
    for alg in ("no-comm", "max-wait"):
        for n in range(2, 5):
            for m, t, validity in itertools.product((2, 3), range(1, n), ("weak", "strong")):
                spec = _with_default_k(alg, ProblemSpec(n=n, m=m, t=t, validity=validity))
                report = explore(alg, spec, "all")
                assert not _contradicts_a_theorem(report), (alg, spec)
                checked += report.exhaustive and not report.violations_total
    assert checked  # the check is not vacuous
    # sm-g: smg-comp on distinct inputs wherever R8 or R10 gives a
    # necessary k, that is g = t < n (R10's n=4 g=t=2 among them)
    composed = 0
    for n in range(2, 7):
        for g, t in itertools.product(range(1, n + 1), range(n + 1)):
            spec = _with_default_k("smg-comp", ProblemSpec(n=n, m=n, t=t, model="sm-g", g=g))
            if _least_necessary_k(spec) is None:
                continue
            report = explore("smg-comp", spec, [tuple(range(n))])
            assert report.exhaustive and not report.violations_total, spec
            assert not _contradicts_a_theorem(report), spec
            composed += 1
    assert composed == 15


def test_min_flood_below_the_round_lower_bound_violates(monkeypatch):
    # R6: for k >= ceil((n+t+1)/2) no sync algorithm decides in fewer than
    # rounds_lower (= t) rounds, so min-flood built with one round fewer
    # must record a violation on distinct inputs. n=6 t=4 is left out: its
    # search runs into the run cap pattern by pattern.
    import dataclasses
    import math

    from partialagreement import algorithms, evaluate_bounds

    entry = algorithms.CATALOG["min-flood"]

    def build(spec, inputs, assignment=None):
        r6 = next(r for r in evaluate_bounds(spec) if r.row == "R6")
        return dataclasses.replace(entry.build(spec, inputs), rounds=r6.rounds_lower - 1)

    monkeypatch.setitem(algorithms.CATALOG, "min-flood", dataclasses.replace(entry, build=build))
    found = {}
    for n in range(4, 7):
        for t in range(2, min(3, n - 2) + 1):
            k = math.ceil((n + t + 1) / 2)
            report = explore("min-flood", ProblemSpec(n=n, m=n, t=t, k=k, model="sync-mp"),
                             [tuple(range(n))])
            assert report.exhaustive
            found[n, t] = (report.violations_total, report.executions_checked)
    assert found == {
        (4, 2): (32, 129), (5, 2): (18, 721), (5, 3): (354, 20641), (6, 2): (554, 4033),
        (6, 3): (30, 289665),
    }


def test_the_quorum_n_max_wait_mutant_is_caught(monkeypatch):
    # Waiting for every process cannot be wait-free: each configuration
    # trips the oracle or records a violation.
    import dataclasses

    from partialagreement import algorithms

    def build(spec, inputs, assignment=None):
        return algorithms._build_scan(spec.n, tuple(inputs), spec.n, "max")

    entry = algorithms.CATALOG["max-wait"]
    monkeypatch.setitem(algorithms.CATALOG, "max-wait", dataclasses.replace(entry, build=build))
    for n, m, t in itertools.product((3, 4), (2, 3), (1, 2)):
        spec = _with_default_k("max-wait", ProblemSpec(n=n, m=m, t=t))
        report = explore("max-wait", spec, "canonical")
        assert report.violations_total or _contradicts_a_theorem(report), spec
