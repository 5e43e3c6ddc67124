"""Algorithm catalog tests: behaviors, composition placement, reductions."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from partialagreement import (
    AsyncSchedule,
    ProblemSpec,
    SpecError,
    build_algorithm,
    check_agreement,
    get_algorithm,
    run_async,
)
from partialagreement.algorithms import (
    composition_plan,
    most_repeated_max,
    smg_guarantee,
    strict_majority,
)
from partialagreement.core import ceil_div


def fault_free_run(alg, spec, inputs, **kwargs):
    built = build_algorithm(alg, spec, inputs, **kwargs)
    return run_async(built.programs, inputs, AsyncSchedule(), spec=spec, objects=built.objects)


# --- decision rules ----------------------------------------------------------


def test_most_repeated_max_worked_example():
    assert most_repeated_max([1, 1, 1, 2, 2, 2, 3, 3]) == 2


def test_most_repeated_max_unique_mode():
    assert most_repeated_max([0, 0, 1]) == 0


def test_strict_majority():
    assert strict_majority([1, 1, 0]) == (1, ())
    assert strict_majority([0, 1]) == (0, ("reduction-soundness",))
    assert strict_majority([2, 2, 2, 1]) == (2, ())


def _reaching(prog, answers):
    """Each mask of owners, with a scanning state and observation whose step
    knows it: the mask itself after the write, and for a mask holding pid 1,
    the mask without it and a read of cell 1 that saw its answer. ``prog``
    is pid 0's, whose pid-relative cursors and masks are its owners'."""
    for mask in range(1 << prog.n):
        yield mask, (1, -1, mask), None
        if mask & 2:
            yield mask, (prog.scan[1][0], 1, mask & ~2), answers[1]


def test_a_reduction_decides_by_its_rule_on_the_answers_it_saw():
    # A scanning state (cursor, last, mask) holds the answers seen as an
    # owner bitmask. From every mask with at least quorum bits the program
    # decides its rule on those answers, flags included, and keeps the mask
    # as the decision's basis, whether the write or a read completed it;
    # below quorum it reads on. Rule "max" is max-wait's, whose answers are
    # the inputs.
    from partialagreement.algorithms import QuorumScan
    from partialagreement.shmem import Decide, Read, Write

    flagged = 0
    for rule in ("max", "majority", "mode-max"):
        for n in range(2, 6):
            for answers in itertools.product(range(3), repeat=n):
                for quorum in range(1, n + 1):
                    prog = QuorumScan(0, n, answers, quorum, rule)
                    scanning, action = prog.step(prog.state0, None)
                    assert action == Write(answers[0])
                    assert not prog.no_more_visible(prog.state0)
                    assert prog.no_more_visible(scanning)
                    for mask, (cursor, last, known), obs in _reaching(prog, answers):
                        state, action = prog.step((cursor, last, known), obs)
                        if mask.bit_count() < quorum:
                            assert action == Read(cursor, 0)
                            continue
                        assert prog.basis(state) == mask
                        values = [answers[o] for o in range(n) if mask >> o & 1]
                        if rule == "max":
                            assert action == Decide(max(values))
                        elif rule == "majority":
                            assert action == Decide(*strict_majority(values))
                            flagged += bool(action.flags)
                        else:
                            assert action == Decide(most_repeated_max(values))
    assert flagged
    # a tie goes to the smallest value, flagged
    prog = QuorumScan(0, 4, (1, 0, 1, 0), 4, "majority")
    assert prog.step((1, -1, 0b1111), None)[1] == Decide(0, ("reduction-soundness",))


# --- catalog -----------------------------------------------------------------


def test_unknown_algorithm_rejected():
    with pytest.raises(SpecError):
        get_algorithm("gossip")


def test_catalog_ids_stable():
    assert set(
        [
            "no-comm",
            "max-wait",
            "min-flood",
            "smg-comp",
            "reduce-binary",
            "reduce-set",
            "reduce-sync",
            "reduce-smg",
        ]
    ) == set(get_algorithm.__globals__["CATALOG"])


# --- no-comm pigeonhole ------------------------------------------------------


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 7) for m in (2, 3, 4)])
def test_no_comm_plurality_pigeonhole(n, m):
    # independent oracle: decisions equal inputs, so the plurality is the
    # most common input; pigeonhole guarantees ceil(n/m)
    spec = ProblemSpec(n=n, m=m, t=1, k=ceil_div(n, m))
    for inputs in itertools.product(range(m), repeat=n):
        trace = fault_free_run("no-comm", spec, inputs)
        assert trace.decisions == inputs
        assert max(Counter(inputs).values()) >= ceil_div(n, m)
        assert check_agreement(trace, spec).passed


def test_no_comm_plurality_examples():
    assert max(Counter((0, 1, 2, 0, 1, 2)).values()) == 2 == 6 // 3
    assert max(Counter((0, 0, 0, 0)).values()) == 4


# --- max-wait ---------------------------------------------------------------


def test_max_wait_unanimous_inputs_any_schedule():
    spec = ProblemSpec(n=3, m=3, t=1, k=3)
    for perm in itertools.permutations(range(3)):
        built = build_algorithm("max-wait", spec, (1, 1, 1))
        sched = AsyncSchedule(tuple(perm) * 4)
        trace = run_async(built.programs, (1, 1, 1), sched, spec=spec)
        assert set(trace.decisions) == {1}


def test_max_wait_fault_free_round_robin():
    spec = ProblemSpec(n=4, m=4, t=1, k=2)
    trace = fault_free_run("max-wait", spec, (3, 2, 1, 0))
    decided = set(trace.decisions)
    assert decided <= {3, 2}
    assert max(Counter(trace.decisions).values()) >= 2


# --- composition placement ---------------------------------------------------


def test_composition_case_split():
    assert composition_plan(4, 4)["case"] == 1  # 4 > 3*floor(4/4)=3
    assert composition_plan(8, 4)["case"] == 2  # 4 <= 3*floor(8/4)=6
    plan = composition_plan(8, 4)
    assert plan["G1"] == [0, 1, 2, 3] and plan["G2"] == [4, 5, 6, 7]
    assert plan["G3"] == [0, 1] and plan["G4"] == [4, 5]
    plan9 = composition_plan(9, 3)
    assert plan9["G1"] == [0, 1, 2] and plan9["G2"] == [3, 4, 5]
    assert plan9["G3"] == [0] and plan9["G4"] == [3]


def test_smg_guarantee_formula():
    assert smg_guarantee(ProblemSpec(n=8, m=2, t=4, model="sm-g", g=4)) == 6
    assert smg_guarantee(ProblemSpec(n=9, m=2, t=1, model="sm-g", g=3)) == 3
    assert smg_guarantee(ProblemSpec(n=4, m=2, t=1, model="sm-g", g=1)) == 1


def test_smg_composition_fault_free_n8():
    spec = ProblemSpec(n=8, m=2, t=1, k=6, model="sm-g", g=4)
    inputs = (0, 1, 0, 1, 0, 1, 0, 1)
    trace = fault_free_run("smg-comp", spec, inputs)
    assert all(d is not None for d in trace.decisions)
    assert max(Counter(trace.decisions).values()) >= 6
    assert check_agreement(trace, spec).passed


def test_smg_composition_case1_full_agreement():
    spec = ProblemSpec(n=4, m=2, t=1, k=4, model="sm-g", g=4)
    trace = fault_free_run("smg-comp", spec, (0, 1, 1, 0))
    assert len(set(trace.decisions)) == 1
    assert check_agreement(trace, spec).passed


def test_smg_degenerate_g1_equals_no_comm():
    spec = ProblemSpec(n=4, m=4, t=1, k=1, model="sm-g", g=1)
    inputs = (3, 1, 2, 0)
    trace = fault_free_run("smg-comp", spec, inputs)
    assert trace.decisions == inputs


# --- reductions --------------------------------------------------------------


def test_reduce_binary_with_planned_oracle_fault_free():
    spec = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong")
    trace = fault_free_run("reduce-binary", spec, (0, 0, 1, 1))
    assert len(set(trace.decisions)) == 1
    assert "reduction-soundness" not in trace.flags
    assert check_agreement(trace, spec).passed


def test_reduce_binary_with_fixed_assignment():
    spec = ProblemSpec(n=4, m=2, t=1, k=4, validity="strong")
    trace = fault_free_run("reduce-binary", spec, (0, 0, 1, 1), assignment=(1, 1, 1, 0))
    assert set(trace.decisions) == {1}


def test_reduce_set_mode_rule_end_to_end():
    # m=2, t=1: oracle contract k = floor(4/2) + 0 + 1 = 3
    spec = ProblemSpec(n=4, m=2, t=1, k=4, ell=1, validity="strong")
    trace = fault_free_run("reduce-set", spec, (0, 1, 0, 1), assignment=(0, 0, 0, 1))
    assert len(set(d for d in trace.decisions if d is not None)) <= 1


def test_reduce_set_requires_small_domain():
    with pytest.raises(SpecError):
        build_algorithm("reduce-set", ProblemSpec(n=4, m=3, t=1, k=4), (0, 1, 2, 0))


def test_reduce_smg_t1_matches_binary_quorum():
    spec = ProblemSpec(n=5, m=2, t=1, k=5, validity="strong")
    built_smg = build_algorithm("reduce-smg", spec, (0, 0, 1, 1, 1))
    built_bin = build_algorithm("reduce-binary", spec, (0, 0, 1, 1, 1))
    assert built_smg.programs[0].quorum == built_bin.programs[0].quorum == 4


def test_reduce_sync_runs_single_round():
    from partialagreement import CrashPattern, run_sync

    spec = ProblemSpec(n=5, m=2, t=2, k=5, validity="strong", model="sync-mp")
    built = build_algorithm("reduce-sync", spec, (0, 0, 1, 1, 1))
    assert built.rounds == 1
    trace = run_sync(built.programs, (0, 0, 1, 1, 1), CrashPattern(), rounds=1, spec=spec)
    assert len(set(trace.decisions)) == 1
    assert "reduction-soundness" not in trace.flags


def test_oracle_contracts_match_reduction_targets():
    spec = ProblemSpec(n=5, m=2, t=2, k=5)
    assert get_algorithm("reduce-binary").oracle_contract(spec)[0] == ceil_div(5, 2) + 1
    assert get_algorithm("reduce-sync").oracle_contract(spec)[0] == ceil_div(5 + 2 + 1, 2)
    assert get_algorithm("reduce-smg").oracle_contract(spec)[0] == ceil_div(5 + 2 - 1, 2) + 1
    spec_m2 = ProblemSpec(n=4, m=2, t=1)
    assert get_algorithm("reduce-set").oracle_contract(spec_m2)[0] == 4 // 2 + 0 + 1


def test_max_wait_every_fault_free_interleaving_decides_the_max():
    from partialagreement import explore, ExploreBudget

    spec = ProblemSpec(n=3, m=3, t=0, k=3)
    report = explore("max-wait", spec, [(2, 1, 2)], ExploreBudget())
    assert report.exhaustive and report.violations_total == 0
    assert report.empirical_k == 3 and report.empirical_ell == 1
