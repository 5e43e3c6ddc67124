"""Acceptance gate: one test per criterion, exact combinatorial checks.

Each test prints one PASS line with its elapsed time; pytest failure output
is the FAIL line. All value checks are exact (tolerance zero). The three
stated runtime budgets are asserted; the rest of the criteria print their
elapsed time against the overall under-five-minutes target.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

from partialagreement import (
    ExploreBudget,
    ProblemSpec,
    build_algorithm,
    enumerate_crash_patterns,
    evaluate_bounds,
    explore,
    explore_from_replay,
    run_sync,
)
from partialagreement.core import ceil_div
from partialagreement.verify import best_witness

from conftest import same_report
from test_bounds import (
    by_row,
    expected_r1,
    expected_r2,
    expected_r3,
    expected_r4,
    expected_r5,
    expected_r5_restricted,
    expected_r6,
    expected_r7,
    expected_r8,
    expected_r9,
    expected_r10,
)

BIG = ExploreBudget(max_runs=5_000_000, max_states=30_000_000)


def report_line(cid, started, summary):
    print(f"\nACCEPTANCE {cid} PASS ({time.time() - started:.2f}s): {summary}")


def test_c1_bound_catalog_golden_sweep():
    started = time.time()
    checked = 0
    for n in range(2, 13):
        for m in (2, 3, 4):
            for t in range(1, 5):
                t_eff = min(t, n)
                spec = ProblemSpec(n=n, m=m, t=t_eff, model="async-rw")
                reports = evaluate_bounds(spec)
                for row, want in (
                    ("R1", expected_r1(n, m, t_eff)),
                    ("R2", expected_r2(n, m, t_eff)),
                    ("R4", expected_r4(n, m, t_eff)),
                ):
                    got = by_row(reports, row)
                    if want is None:
                        assert got is None
                    else:
                        assert (got.sufficient_k, got.necessary_k) == want
                assert by_row(reports, "R3").necessary_k == expected_r3(n, m, t_eff)
                r5 = by_row(reports, "R5")
                assert (r5.sufficient_k, r5.necessary_k) == expected_r5(n, m, t_eff)
                r5r = by_row(reports, "R5", variant="restricted-domain")
                assert r5r.necessary_k == expected_r5_restricted(n, m, t_eff)
                checked += 1
                for k in range(1, n + 1):
                    for ell in (1, 2):
                        sspec = ProblemSpec(
                            n=n, m=m, t=t_eff, k=k, ell=ell, model="sync-mp"
                        )
                        sreports = evaluate_bounds(sspec)
                        r6 = by_row(sreports, "R6")
                        want6 = expected_r6(n, t_eff, k)
                        if want6 is None:
                            assert r6 is None
                        else:
                            assert r6.rounds_lower == want6
                        r7 = by_row(sreports, "R7")
                        assert (r7.sufficient_k, r7.rounds_upper) == expected_r7(n, t_eff, ell)
                        checked += 1
                for g in range(1, 7):
                    if g > n:
                        continue
                    gspec = ProblemSpec(n=n, m=m, t=t_eff, model="sm-g", g=g)
                    greports = evaluate_bounds(gspec)
                    r8 = by_row(greports, "R8")
                    want8 = expected_r8(n, t_eff, g)
                    if want8 is None:
                        assert r8 is None
                    else:
                        assert r8.necessary_k == want8
                    assert by_row(greports, "R9").sufficient_k == expected_r9(n, m, t_eff, g)
                    r10 = by_row(greports, "R10")
                    want10 = expected_r10(n, t_eff, g)
                    if want10 is None:
                        assert r10 is None
                    else:
                        assert (r10.sufficient_k, r10.necessary_k) == want10
                    checked += 1
    elapsed = time.time() - started
    assert elapsed < 1.0, f"criterion 1 runtime budget exceeded: {elapsed:.2f}s"
    report_line("C1", started, f"{checked} configurations match the independent formulas")


def test_c2_no_comm_tight_at_half():
    started = time.time()
    for n in range(2, 7):
        half = ceil_div(n, 2)
        ok = explore("no-comm", ProblemSpec(n=n, m=2, t=1, k=half), "all", BIG)
        assert ok.exhaustive and ok.violations_total == 0, f"n={n}"
        assert ok.empirical_k == half
        bad = explore("no-comm", ProblemSpec(n=n, m=2, t=1, k=half + 1), "all", BIG)
        assert bad.violations_total > 0, f"n={n}: no counterexample at k+1"
    elapsed = time.time() - started
    assert elapsed < 10.0, f"criterion 2 runtime budget exceeded: {elapsed:.2f}s"
    report_line("C2", started, "zero violations at ceil(n/2), counterexamples at one above")


def test_c3_single_crash_max_wait():
    started = time.time()
    for n in (3, 4):
        for m in (3, 4):
            spec = ProblemSpec(n=n, m=m, t=1, k=ceil_div(n, 2))
            report = explore("max-wait", spec, "canonical", BIG)
            assert report.exhaustive and report.violations_total == 0, (n, m)
            assert report.empirical_ell is not None and report.empirical_ell <= 2, (n, m)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 3 runtime budget exceeded: {elapsed:.2f}s"
    report_line("C3", started, "zero violations at ceil(n/2); at most two decision values per run")


def test_c4_multivalued_sufficiency():
    started = time.time()
    for t in (1, 2, 3):
        spec = ProblemSpec(n=4, m=4, t=t, k=ceil_div(4, t + 1))
        report = explore("max-wait", spec, "canonical", BIG)
        assert report.exhaustive and report.violations_total == 0, t
        assert report.empirical_ell <= t + 1, t
    assert explore("no-comm", ProblemSpec(n=6, m=3, t=3, k=2), budget=BIG).empirical_k == 2
    report_line("C4", started, "wait-quorum holds at ceil(4/(t+1)); no-comm empirical k = 6/3")


def test_c5_round_bound_for_flooding():
    started = time.time()
    for n in (3, 4):
        for t in (1, 2, 3):
            for ell in (1, 2):
                rounds = t // ell + 1
                spec = ProblemSpec(
                    n=n, m=n, t=t, k=ceil_div(n, ell), ell=ell, model="sync-mp"
                )
                # the identity input vector is fully general here: relabeling
                # processes maps any input permutation onto it while permuting
                # crash patterns within the enumerated set, and merging input
                # values only reduces the distinct-decision count
                report = explore("min-flood", spec, [tuple(range(n))], BIG)
                assert report.exhaustive and report.violations_total == 0, (n, t, ell)
                assert report.empirical_ell <= ell, (n, t, ell)
    # negative control: one round fewer breaks the bound at n=3, t=1, ell=1
    spec = ProblemSpec(n=3, m=3, t=1, k=3, ell=1, model="sync-mp")
    built = build_algorithm("min-flood", spec, (2, 1, 0))
    over = 0
    for pattern in enumerate_crash_patterns(3, 1, 1, canonical=True):
        trace = run_sync(built.programs, (2, 1, 0), pattern, rounds=1, spec=spec)
        decided = {d for d in trace.decisions if d is not None}
        over += len(decided) > 1
    assert over > 0, "one round should not suffice at t=1, ell=1"
    report_line("C5", started, "floor(t/ell)+1 rounds give <= ell values; one fewer round fails")


def test_c6_object_composition():
    started = time.time()
    spec = ProblemSpec(n=8, m=2, t=8, k=6, model="sm-g", g=4)
    report = explore("smg-comp", spec, [(0, 1, 0, 1, 0, 1, 0, 1)], BIG)
    assert report.exhaustive and report.violations_total == 0
    assert report.empirical_k == 6
    spec8 = ProblemSpec(n=8, m=8, t=8, k=6, model="sm-g", g=4)
    report = explore("smg-comp", spec8, [tuple(range(8))], BIG)
    assert report.exhaustive and report.violations_total == 0
    assert report.empirical_k == 6
    case1 = ProblemSpec(n=4, m=2, t=0, k=4, model="sm-g", g=4)
    report = explore("smg-comp", case1, "all", BIG)
    assert report.exhaustive and report.violations_total == 0
    assert report.empirical_k == 4 and report.empirical_ell == 1
    report_line("C6", started, "6 of 8 share a value under any crashes; n=4 g=4 reaches full agreement")


def reduction_ok(report, max_ell):
    assert report.exhaustive or report.budget.mode == "sample"
    assert report.violations_total == 0
    assert report.flagged_executions == 0
    assert report.empirical_ell is not None and report.empirical_ell <= max_ell


def test_c7_reduction_soundness():
    # Balanced input vectors make the compliant-assignment family maximal:
    # under strong validity every compliant assignment for any input vector
    # is compliant for the balanced one, and the second phase reads only
    # first-phase answers, so these cells cover all oracle behaviors.
    started = time.time()
    binary4 = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong")
    reduction_ok(explore("reduce-binary", binary4, [(0, 0, 1, 1)], BIG), 1)
    binary5 = ProblemSpec(n=5, m=2, t=1, k=5, validity="strong")
    reduction_ok(explore("reduce-binary", binary5, [(0, 0, 0, 1, 1)], BIG), 1)
    smg5 = ProblemSpec(n=5, m=2, t=2, k=5, validity="strong")
    reduction_ok(explore("reduce-smg", smg5, [(0, 0, 0, 1, 1)], BIG), 1)
    sync4 = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong", model="sync-mp")
    reduction_ok(explore("reduce-sync", sync4, [(0, 0, 1, 1)], BIG), 1)
    sync5 = ProblemSpec(n=5, m=2, t=2, k=5, validity="strong", model="sync-mp")
    reduction_ok(explore("reduce-sync", sync5, [(0, 0, 0, 1, 1)], BIG), 1)
    set4 = ProblemSpec(n=4, m=2, t=1, k=4, ell=1, validity="strong")
    reduction_ok(explore("reduce-set", set4, [(0, 0, 1, 1)], BIG), 1)
    sampled = ExploreBudget(mode="sample", samples=60, seed=20260809)
    set6b = ProblemSpec(n=6, m=2, t=1, k=6, ell=1, validity="strong")
    reduction_ok(explore("reduce-set", set6b, [(0, 0, 0, 1, 1, 1)], sampled), 1)
    set6t = ProblemSpec(n=6, m=3, t=2, k=6, ell=2, validity="strong")
    reduction_ok(explore("reduce-set", set6t, [(0, 0, 1, 1, 2, 2)], sampled), 2)
    report_line(
        "C7",
        started,
        "all reductions reach their targets over compliant assignments x schedules",
    )


def brute_force_offenders(counts, proposed, ell):
    decided = sum(counts.values())
    best = decided
    for size in range(0, ell + 1):
        for witness in itertools.combinations(sorted(proposed), size):
            best = min(best, decided - sum(counts.get(v, 0) for v in witness))
    return best


def test_c8_witness_selection_is_optimal():
    started = time.time()
    checked = 0
    for n in range(2, 6):
        for m in (2, 3, 4):
            symbols = list(range(m)) + [None]
            for multiset in itertools.combinations_with_replacement(symbols, n):
                counts = Counter(v for v in multiset if v is not None)
                for size in range(1, m + 1):
                    for proposed in itertools.combinations(range(m), size):
                        for ell in range(1, m + 1):
                            witness = best_witness(counts, set(proposed), ell)
                            got = sum(
                                c for v, c in counts.items() if v not in set(witness)
                            )
                            assert got == brute_force_offenders(counts, proposed, ell)
                            checked += 1
    report_line("C8", started, f"greedy witness equals brute force on {checked} cases")


def test_c9_replay_determinism():
    started = time.time()
    spec = ProblemSpec(n=3, m=2, t=1, k=2)
    for seed in range(100):
        budget = ExploreBudget(mode="sample", samples=12, seed=seed)
        report = explore("max-wait", spec, "all", budget)
        replayed = explore_from_replay(report.replay_encoding())
        same_report(replayed.to_json(), report.to_json(), f"seed {seed}")
    report_line("C9", started, "100 seeded explorations replay bit-identically")
