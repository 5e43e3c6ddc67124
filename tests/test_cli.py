"""CLI tests: commands, exit codes, schema validity, replay stability."""

from __future__ import annotations

import csv
import io
import json

import jsonschema

from partialagreement.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_smg_example(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "8", "--m", "2", "--t", "4", "--g", "4")
    assert code == 0
    r10 = next(line for line in out.splitlines() if line.startswith("R10"))
    assert " 6 " in r10


def test_bounds_async_example(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "7", "--m", "3", "--t", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    r5 = next(r for r in payload["reports"] if r["row"] == "R5" and r["variant"] == "base")
    assert r5["sufficient_k"] == 3 and r5["necessary_k"] == 3


def test_bounds_smallest_example(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--m", "2", "--t", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    r1 = next(r for r in payload["reports"] if r["row"] == "R1")
    assert r1["sufficient_k"] == r1["necessary_k"] == 1


def test_bounds_invalid_spec_exits_64(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "1", "--m", "2", "--t", "0")
    assert code == 64
    assert "n must be" in err


def test_usage_error_exits_64(capsys):
    code, _, err = run_cli(capsys, "explore", "--alg", "nope", "--n", "3")
    assert code == 64


def test_run_min_flood_no_crash(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--alg", "min-flood", "--n", "3", "--t", "1", "--ell", "1",
        "--inputs", "2,1,0", "--no-crash", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["decisions"] == [0, 0, 0]
    assert payload["verdict"]["passed"]


def test_run_seeded_max_wait_and_replay(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--alg", "max-wait", "--n", "3", "--t", "1", "--m", "3",
        "--inputs", "1,0,2", "--seed", "7", "--format", "json",
    )
    assert code == 0
    first = json.loads(out)
    code, out, _ = run_cli(capsys, "run", "--replay", json.dumps(first["replay"]), "--format", "json")
    assert code == 0
    second = json.loads(out)
    assert second["trace"] == first["trace"]


def test_run_seeded_reduction_reports_its_first_phase(capsys):
    # The replay line carries the first-phase answers the run was built
    # from, here the worst-case split, and replays to the same trace.
    code, out, _ = run_cli(
        capsys,
        "run", "--alg", "reduce-binary", "--n", "4", "--validity", "strong",
        "--inputs", "0,0,1,1", "--seed", "3", "--format", "json",
    )
    assert code == 0
    first = json.loads(out)
    assert first["replay"]["assignment"] == [0, 0, 0, 1]
    assert first["trace"]["decisions"] == [0, None, 0, 0]
    code, out, _ = run_cli(capsys, "run", "--replay", json.dumps(first["replay"]), "--format", "json")
    assert code == 0
    assert json.loads(out)["trace"] == first["trace"]


def test_run_smg_composition(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--alg", "smg-comp", "--n", "8", "--g", "4", "--k", "6",
        "--inputs", "0,1,0,1,0,1,0,1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    decisions = payload["trace"]["decisions"]
    top = max(decisions.count(v) for v in set(decisions))
    assert top >= 6


def test_explore_pass_and_violation_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "no-comm", "--n", "4", "--m", "2", "--t", "1",
        "--k", "2", "--inputs", "all",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "no-comm", "--n", "4", "--m", "2", "--t", "1",
        "--k", "3", "--inputs", "all",
    )
    assert code == 1


def test_explore_budget_exit_code(capsys):
    code, _, _ = run_cli(
        capsys,
        "explore", "--alg", "max-wait", "--n", "3", "--m", "2", "--t", "1",
        "--k", "2", "--max-runs", "4",
    )
    assert code == 2


def test_explore_report_validates_against_schema(capsys):
    import importlib.resources as resources

    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "no-comm", "--n", "3", "--m", "2", "--t", "1",
        "--k", "2", "--format", "json",
    )
    assert code == 0
    schema = json.loads(
        resources.files("partialagreement.schemas")
        .joinpath("exploration_report.schema.json")
        .read_text()
    )
    jsonschema.validate(json.loads(out), schema)


def test_reduce_command_notes_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "reduce-set", "--n", "4", "--m", "2", "--t", "1",
        "--validity", "strong",
    )
    assert code == 0
    assert "conditional construction verified against oracle" in out


def test_table_csv_stable_columns(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-range", "2:5", "--m", "2", "--t", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert list(rows[0].keys()) == [
        "n", "m", "t", "k", "ell", "g", "model", "row", "variant",
        "sufficient_k", "necessary_k", "rounds_lower", "rounds_upper", "assumptions",
    ]
    r1 = [r for r in rows if r["row"] == "R1" and r["n"] == "4"]
    assert r1 and r1[0]["sufficient_k"] == "2"


def test_a_table_range_with_no_valid_spec_exits_64(capsys):
    # n=0 and n=1 give no valid spec, so no row: one line, no header
    code, out, err = run_cli(capsys, "table", "--n-range", "0:1")
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1 and "--n-range 0:1" in err
    code, out, _ = run_cli(capsys, "table", "--n-range", "1:2")
    assert code == 0 and {row["n"] for row in csv.DictReader(io.StringIO(out))} == {"2"}


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "explore", "--alg", "no-comm", "--n", "3", "--m", "2", "--t", "1",
        "--k", "2", "--out", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["algorithm"] == "no-comm"


def test_env_var_budget_default(monkeypatch, capsys):
    monkeypatch.setenv("PARTIAL_AGREEMENT_BUDGET", "4")
    code, _, _ = run_cli(
        capsys,
        "explore", "--alg", "max-wait", "--n", "3", "--m", "2", "--t", "1", "--k", "2",
    )
    assert code == 2  # tiny default budget from the environment cuts the search


def test_every_recorded_violation_replays(capsys):
    from partialagreement import ExploreBudget, ProblemSpec, explore

    spec = ProblemSpec(n=4, m=2, t=1, k=3)
    report = explore("max-wait", spec, "all", ExploreBudget(max_recorded_violations=1000))
    assert len(report.violations) == report.violations_total == 188
    for violation in report.violations:
        code, out, err = run_cli(capsys, "run", "--replay", json.dumps(violation), "--format", "json")
        assert code == 1, err
        assert json.loads(out)["verdict"] == violation["verdict"]


def test_violation_report_validates_against_schema(capsys):
    import importlib.resources as resources

    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "no-comm", "--n", "4", "--m", "2", "--t", "1",
        "--k", "3", "--format", "json",
    )
    assert code == 1
    schema = json.loads(
        resources.files("partialagreement.schemas")
        .joinpath("exploration_report.schema.json")
        .read_text()
    )
    payload = json.loads(out)
    assert payload["violations"]
    jsonschema.validate(payload, schema)


def test_malformed_replay_exits_64(capsys):
    good = {"algorithm": "no-comm", "spec": {"n": 2, "m": 2, "t": 1, "k": 2}, "inputs": [0, 1]}
    for missing in good:
        token = json.dumps({k: v for k, v in good.items() if k != missing})
        code, _, err = run_cli(capsys, "run", "--replay", token)
        assert code == 64 and missing in err
    malformed = [
        {"spec": {"n": "two"}}, {"inputs": "01"}, {"inputs": [0, "x"]}, {"assignment": [0, 0.5]},
        {"schedule": 5}, {"algorithm": "min-flood", "pattern": 7},
        {"algorithm": "min-flood", "rounds": "x"},
    ]
    tokens = ["not json", "[1, 2]"] + [json.dumps({**good, **change}) for change in malformed]
    for token in tokens:
        code, _, _ = run_cli(capsys, "run", "--replay", token)
        assert code == 64, token


def test_negative_crash_position_exits_64(capsys):
    code, _, _ = run_cli(
        capsys,
        "run", "--alg", "max-wait", "--n", "3", "--inputs", "0,1,1", "--schedule", "a1:0.1:2@-1",
    )
    assert code == 64


def test_explicit_ell_one_is_honoured(capsys):
    argv = [
        "explore", "--alg", "reduce-set", "--n", "3", "--m", "3", "--t", "2",
        "--validity", "strong", "--inputs", "0,1,2", "--format", "json",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert json.loads(out)["spec"]["ell"] == 2  # the algorithm's default, m - 1
    code, out, _ = run_cli(capsys, *argv, "--ell", "1")
    assert json.loads(out)["spec"]["ell"] == 1


MIN_FLOOD = {
    "algorithm": "min-flood", "inputs": [1, 1, 0], "pattern": "p1:", "rounds": 2,
    "spec": {"n": 3, "m": 2, "t": 1, "k": 3, "ell": 1, "validity": "weak", "model": "sync-mp"},
}
MAX_WAIT = {
    "algorithm": "max-wait", "inputs": [1, 1, 0], "schedule": "a1:0.1.2.0.1.2.0.1.2:",
    "spec": {"n": 3, "m": 2, "t": 1, "k": 2, "ell": 1, "validity": "weak", "model": "async-rw"},
}
REDUCE_SET = {
    "algorithm": "reduce-set", "inputs": [0, 0, 1, 1],
    "spec": {"n": 4, "m": 2, "t": 1, "k": 4, "ell": 1, "validity": "strong", "model": "async-rw"},
}


def test_malformed_inputs_exit_64_with_one_line(tmp_path, capsys, monkeypatch):
    replays = [
        {**MIN_FLOOD, "inputs": [5, 1, 0]},
        {**MIN_FLOOD, "inputs": [0, 1]},
        {**MAX_WAIT, "inputs": [0, 1]},
        {**REDUCE_SET, "assignment": [0, 0, 0]},
        {**REDUCE_SET, "assignment": [0, 0, 0, 1, 1]},
        {**MAX_WAIT, "inputs": [0, 1, 0], "assignment": [0, 0, 0]},
        {**MAX_WAIT, "spec": {**MAX_WAIT["spec"], "t": 1.5}},
    ]
    invocations = [["run", "--replay", json.dumps(token)] for token in replays] + [
        ["run", "--alg", "max-wait", "--n", "3", "--t", "1", "--inputs", "0,1,x"],
        ["explore", "--alg", "max-wait", "--n", "3", "--t", "1", "--inputs", "0,1;1"],
        ["explore", "--alg", "max-wait", "--n", "3", "--t", "1", "--inputs", ""],
        ["table", "--n-range", "5"],
        ["table", "--n-range", "a:b"],
        ["table", "--n-range", "5:2"],
        ["table", "--n-range", "2:4", "--g", "0"],
        ["run", "--alg", "min-flood", "--n", "3", "--t", "1", "--inputs", "0,1,0", "--rounds", "0"],
        ["run", "--alg", "min-flood", "--n", "3", "--t", "1", "--inputs", "0,1,0", "--rounds", "0",
         "--seed", "1"],
        ["explore", "--alg", "no-comm", "--n", "3", "--t", "1", "--out",
         str(tmp_path / "missing" / "r.json")],
        ["explore", "--alg", "no-comm", "--n", "2", "--t", "1", "--max-runs", "0"],
        ["explore", "--alg", "no-comm", "--n", "2", "--t", "1", "--max-runs", "-1"],
        ["explore", "--alg", "no-comm", "--n", "2", "--t", "1", "--sample", "--samples", "0"],
        ["explore", "--alg", "reduce-sync", "--n", "3", "--t", "3"],
        ["table", "--out", str(tmp_path)],
    ]
    for argv in invocations:
        code, _, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert len(err.splitlines()) == 1, (argv, err)
    assert "cannot write" in err
    for budget in ("abc", "1.5", "0", "-3"):
        monkeypatch.setenv("PARTIAL_AGREEMENT_BUDGET", budget)
        code, _, err = run_cli(capsys, "explore", "--alg", "no-comm", "--n", "2", "--t", "1")
        assert code == 64, budget
        assert len(err.splitlines()) == 1, (budget, err)


def test_sync_algorithm_refuses_another_model(capsys):
    for argv in (
        ["explore", "--alg", "min-flood", "--n", "3", "--t", "1", "--g", "1"],
        ["run", "--alg", "reduce-sync", "--n", "4", "--t", "1", "--g", "2", "--inputs", "0,0,1,1"],
        ["run", "--replay", json.dumps({**MIN_FLOOD, "spec": {**MIN_FLOOD["spec"], "model": "async-rw"}})],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == "", argv
        assert len(err.splitlines()) == 1 and "sync-mp" in err, (argv, err)
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "min-flood", "--n", "3", "--t", "1", "--format", "json"
    )
    assert code == 0 and json.loads(out)["spec"]["model"] == "sync-mp"


def test_run_and_explore_give_a_reduction_its_own_diagnosis(capsys):
    # explore checks a reduction's contract before it builds a cell, so the
    # contract carries the reduction's own spec checks
    for alg, n, m, t, message in (
        ("reduce-binary", 3, 3, 1, "reduce-binary needs m=2"),
        ("reduce-sync", 3, 3, 1, "reduce-sync needs m=2"),
        ("reduce-smg", 3, 3, 1, "reduce-smg needs m=2"),
        ("reduce-smg", 3, 2, 3, "reduce-smg needs n > t >= 1, got n=3, t=3"),
        ("reduce-set", 3, 5, 1, "reduce-set needs m <= t+1, got m=5, t=1"),
    ):
        spec = ["--alg", alg, "--n", str(n), "--m", str(m), "--t", str(t)]
        inputs = ",".join(str(p % m) for p in range(n))
        for argv in (["run", *spec, "--inputs", inputs], ["explore", *spec]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 64 and out == "", argv
            assert err.splitlines() == [f"invalid configuration: {message}"], (argv, err)


def test_explore_reports_the_oracle_cell_fold(capsys):
    by = "folded by pid {} and {} value relabelling"
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "reduce-binary", "--n", "4", "--t", "1", "--validity", "strong",
        "--inputs", "0,0,1,1",
    )
    assert code == 0
    assert f"oracle cells: 10 (2 explored, 8 {by.format('rotation', 'any')})" in out.splitlines()
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "reduce-binary", "--n", "4", "--t", "1", "--validity", "strong",
        "--inputs", "0,0,1,1", "--sample", "--samples", "2",
    )
    assert f"oracle cells: 10 (10 explored, 0 {by.format('rotation', 'any')})" in out.splitlines()
    code, out, _ = run_cli(capsys, "explore", "--alg", "no-comm", "--n", "3", "--t", "1")
    assert "oracle cells" not in out
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "max-wait", "--n", "4", "--m", "4", "--t", "1", "--k", "2",
        "--inputs", "canonical",
    )
    assert code == 0
    assert f"input vectors: 75 (20 explored, 55 {by.format('rotation', 'monotone')})" in (
        out.splitlines()
    )
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "reduce-sync", "--n", "4", "--t", "1", "--validity", "strong",
        "--inputs", "0,0,1,1",
    )
    assert code == 0
    assert f"oracle cells: 10 (2 explored, 8 {by.format('permutation', 'any')})" in out.splitlines()
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "smg-comp", "--n", "4", "--m", "4", "--t", "4", "--g", "2",
        "--inputs", "0,1,2,3",
    )
    assert code == 0
    assert "folded" not in out


def test_explore_reports_the_cells_resolved_from_one_search(capsys):
    line = (
        "searches: 158 states searched up to pid rotation (616 with their images), "
        "{} cells resolved, {} searched"
    )
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "reduce-binary", "--n", "4", "--t", "1", "--validity", "strong",
        "--inputs", "0,0,1,1",
    )
    assert code == 0 and line.format(2, 0) in out.splitlines()
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "max-wait", "--n", "4", "--m", "4", "--t", "1", "--k", "2",
        "--inputs", "canonical",
    )
    assert code == 0 and line.format(20, 0) in out.splitlines()
    # Violating cells resolve from one plain search of the shared graph, and
    # sampled, sync and smg-comp explores never resolve a cell.
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "max-wait", "--n", "4", "--m", "2", "--t", "1", "--k", "3",
    )
    assert code == 1
    assert (
        "searches: 158 states searched up to pid rotation (616 with their images), "
        "8 cells resolved (4 failing, from one plain search of 616 states), 0 searched"
    ) in out.splitlines()
    for args in (
        ("--alg", "reduce-binary", "--n", "4", "--t", "1", "--inputs", "0,0,1,1", "--sample"),
        ("--alg", "reduce-sync", "--n", "4", "--t", "1", "--validity", "strong"),
        ("--alg", "smg-comp", "--n", "4", "--m", "4", "--t", "4", "--g", "2", "--inputs", "all"),
    ):
        code, out, _ = run_cli(capsys, "explore", *args)
        assert "searches" not in out, args


def test_explore_reports_the_states_searched_up_to_role_symmetry(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "smg-comp", "--n", "6", "--m", "6", "--t", "6", "--g", "3",
        "--k", "3", "--inputs", "0,1,2,3,4,5",
    )
    assert code == 0
    assert "states: 306 (66 searched up to role symmetry, group of 8)" in out.splitlines()
    assert "moves left out by persistent sets: 59" in out.splitlines()
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "smg-comp", "--n", "4", "--m", "2", "--t", "0", "--g", "4",
        "--inputs", "all",
    )
    assert code == 0
    assert "states: 366 (140 searched up to role symmetry, groups of up to 24)" in out.splitlines()
    assert "persistent sets" not in out  # every pid proposes to one object
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "smg-comp", "--n", "6", "--m", "6", "--t", "6", "--g", "3",
        "--k", "3", "--inputs", "0,1,2,3,4,5", "--sample", "--samples", "2",
    )
    assert code == 0
    assert "role symmetry" not in out and "persistent sets" not in out
    code, out, _ = run_cli(capsys, "explore", "--alg", "no-comm", "--n", "3", "--t", "1")
    assert "role symmetry" not in out and "persistent sets" not in out
    # A group above the limit (720 elements) is not searched under, and a
    # capped search is redone unreduced: neither claims a reduction.
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "smg-comp", "--n", "6", "--m", "6", "--t", "6", "--g", "6",
        "--inputs", "0,1,2,3,4,5",
    )
    assert code == 0
    assert "executions checked: 6 (states 193, exhaustive: True)" in out.splitlines()
    assert "role symmetry" not in out
    code, out, _ = run_cli(
        capsys, "explore", "--alg", "smg-comp", "--n", "6", "--m", "6", "--t", "6", "--g", "3",
        "--k", "3", "--inputs", "0,1,2,3,4,5", "--max-runs", "10",
    )
    assert "executions checked: 10 (states 48, exhaustive: False)" in out.splitlines()
    assert "role symmetry" not in out
    assert "moves left out by persistent sets: 26" in out.splitlines()


def test_explore_infers_m_from_every_vector(capsys):
    code, out, _ = run_cli(
        capsys,
        "explore", "--alg", "max-wait", "--n", "3", "--t", "1", "--k", "2",
        "--inputs", "0,1,0;2,1,1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["spec"]["m"] == 3
