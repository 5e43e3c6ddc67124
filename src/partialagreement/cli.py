"""Command-line front end.

Subcommands: bounds (threshold catalog for one configuration), table (CSV
sweep over n), run (one execution plus verdict), explore (exhaustive or
sampled adversary search).

Exit codes: 0 pass, 1 violation/failed verdict, 2 budget-incomplete,
64 usage or validation error, with a one-line message: every malformed
argument, replay token or input vector, and an unwritable --out.
Default budget via PARTIAL_AGREEMENT_BUDGET.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys

from .algorithms import build_algorithm, get_algorithm, CATALOG
from .core import (
    BudgetExceededError,
    ModelViolationError,
    ProblemSpec,
    SpecError,
    evaluate_bounds,
)
from .shmem import AsyncRun, AsyncSchedule, random_walk, run_async
from .syncmp import CrashPattern, random_pattern, run_sync
from .verify import ExploreBudget, check_agreement, explore

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_spec_flags(p, *, required=True):
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--m", type=int, default=None, help="value domain size; inferred from --inputs when omitted")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--k", type=int, default=None)
    p.add_argument(
        "--ell", type=int, default=None,
        help="decision-set bound; the algorithm's default when omitted, else 1",
    )
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--validity", choices=["weak", "strong"], default="weak")


def _add_output_flags(p):
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, help="write the full report/trace JSON here")


def build_parser() -> _Parser:
    parser = _Parser(prog="pagree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate the threshold catalog for one configuration")
    _add_spec_flags(p)
    p.add_argument("--model", choices=["async-rw", "sync-mp", "sm-g"], default=None)
    _add_output_flags(p)

    p = sub.add_parser("table", help="CSV threshold sweep over a range of n")
    p.add_argument("--n-range", default="2:12", help="inclusive lo:hi")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--model", choices=["async-rw", "sync-mp", "sm-g"], default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="one execution with explicit inputs and adversary")
    p.add_argument("--alg", choices=sorted(CATALOG))
    _add_spec_flags(p, required=False)
    p.add_argument("--inputs", default=None, help="comma-separated values, e.g. 2,1,0")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--schedule", default=None, help="async schedule token")
    p.add_argument("--pattern", default=None, help="sync crash pattern token")
    p.add_argument("--no-crash", action="store_true")
    p.add_argument("--seed", type=int, default=None, help="seeded random adversary")
    p.add_argument("--replay", default=None, help="replay encoding emitted by a previous run")
    _add_output_flags(p)

    p = sub.add_parser("explore", help="exhaustive or sampled adversary search")
    p.add_argument("--alg", required=True, choices=sorted(CATALOG))
    _add_spec_flags(p)
    p.add_argument("--inputs", default="all", help="'all', 'canonical', or a;b;c vectors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", action="store_true", help="seeded random runs instead of DFS")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-runs", type=int, default=None)
    _add_output_flags(p)

    return parser


def _ints(text, sep=",") -> tuple:
    """``text``, integers separated by ``sep``, as a tuple; SpecError if any
    piece is not an integer."""
    try:
        return tuple(int(x) for x in text.split(sep))
    except ValueError:
        raise SpecError(f"expected integers separated by {sep!r}, got {text!r}") from None


def _spec_from_args(args, entry=None) -> ProblemSpec:
    if args.m is None:
        text = getattr(args, "inputs", None)
        vectors = [] if text in (None, "all", "canonical") else _inputs_mode_from_arg(text)
        args.m = max(2, 1 + max((v for vec in vectors for v in vec), default=0))
    model = getattr(args, "model", None)
    if model is None:
        if args.g is not None:
            model = "sm-g"
        elif entry is not None and entry.flavor == "sync":
            model = "sync-mp"
        else:
            model = "async-rw"
    if entry is not None and getattr(args, "alg", "") == "smg-comp":
        model = "sm-g"
    k = args.k
    ell = args.ell
    if entry is not None:
        probe = ProblemSpec(
            n=args.n, m=args.m, t=args.t, k=None, ell=min(ell or 1, args.m),
            validity=args.validity, model=model, g=args.g if model == "sm-g" else None,
        )
        if k is None:
            k = entry.default_k(probe)
        if ell is None:
            ell = entry.default_ell(probe)
    return ProblemSpec(
        n=args.n,
        m=args.m,
        t=args.t,
        k=k,
        ell=1 if ell is None else ell,
        validity=args.validity,
        model=model,
        g=args.g if model == "sm-g" else None,
    )


def _check_model(entry, spec) -> None:
    """A sync algorithm is judged in model sync-mp only (``--g`` selects sm-g)."""
    if entry.flavor == "sync" and spec.model != "sync-mp":
        raise SpecError(f"{entry.name} is synchronous: its model is sync-mp, not {spec.model}")


def _budget_from_args(args) -> ExploreBudget:
    env_default = os.environ.get("PARTIAL_AGREEMENT_BUDGET")
    max_runs = args.max_runs
    if max_runs is None:
        try:
            max_runs = int(env_default) if env_default else ExploreBudget.max_runs
        except ValueError:
            raise SpecError(
                f"PARTIAL_AGREEMENT_BUDGET must be an integer, got {env_default!r}"
            ) from None
    return ExploreBudget(
        max_runs=max_runs,
        samples=args.samples,
        mode="sample" if args.sample else "auto",
        seed=args.seed,
    )


def _write_out(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(args, text_lines, payload):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)
    if args.out:
        _write_out(args.out, json.dumps(payload, sort_keys=True, indent=2))


def _fmt(v):
    return "-" if v is None else str(v)


def cmd_bounds(args) -> int:
    spec = _spec_from_args(args)
    reports = evaluate_bounds(spec)
    lines = [
        f"configuration: n={spec.n} m={spec.m} t={spec.t} k={spec.k} ell={spec.ell} "
        f"model={spec.model}" + (f" g={spec.g}" if spec.g else ""),
        f"{'rule':<6} {'variant':<18} {'sufficient':>10} {'necessary':>10} "
        f"{'rounds>=':>8} {'rounds<=':>8}  assumptions",
    ]
    for r in reports:
        lines.append(
            f"{r.row:<6} {r.variant:<18} {_fmt(r.sufficient_k):>10} {_fmt(r.necessary_k):>10} "
            f"{_fmt(r.rounds_lower):>8} {_fmt(r.rounds_upper):>8}  {'; '.join(r.assumptions)}"
        )
    payload = {"spec": spec.to_dict(), "reports": [r.to_dict() for r in reports]}
    _emit(args, lines, payload)
    return EXIT_PASS


TABLE_COLUMNS = [
    "n", "m", "t", "k", "ell", "g", "model", "row", "variant",
    "sufficient_k", "necessary_k", "rounds_lower", "rounds_upper", "assumptions",
]


def cmd_table(args) -> int:
    bounds = _ints(args.n_range, ":")
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise SpecError(f"--n-range must be lo:hi with lo <= hi, got {args.n_range!r}")
    lo, hi = bounds
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TABLE_COLUMNS)
    writer.writeheader()
    specs = 0
    for n in range(lo, hi + 1):
        ns = argparse.Namespace(
            n=n, m=args.m, t=min(args.t, n), k=args.k, ell=args.ell,
            g=min(args.g, n) if args.g is not None else None, validity="weak", model=args.model,
        )
        try:
            spec = _spec_from_args(ns)
        except SpecError:
            continue
        specs += 1
        for r in evaluate_bounds(spec):
            writer.writerow(
                {
                    "n": spec.n, "m": spec.m, "t": spec.t, "k": spec.k,
                    "ell": spec.ell, "g": spec.g if spec.g else "",
                    "model": spec.model, "row": r.row, "variant": r.variant,
                    "sufficient_k": _fmt(r.sufficient_k),
                    "necessary_k": _fmt(r.necessary_k),
                    "rounds_lower": _fmt(r.rounds_lower),
                    "rounds_upper": _fmt(r.rounds_upper),
                    "assumptions": "; ".join(r.assumptions),
                }
            )
    if not specs:
        raise SpecError(f"no n in --n-range {args.n_range} gives a valid spec")
    text = buf.getvalue()
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _load_replay(args):
    """Read a replay token (a ``run`` replay or a recorded violation) into
    ``args``; returns (spec, inputs, assignment). A malformed token is a
    SpecError."""
    try:
        replay = json.loads(args.replay)
        args.alg = replay["algorithm"]
        spec = ProblemSpec.from_dict(replay["spec"])
        inputs = spec.check_inputs(replay["inputs"])
        assignment = replay.get("assignment")
        assignment = spec.check_inputs(assignment) if assignment is not None else None
        for name, kind in (("schedule", str), ("pattern", str), ("rounds", int)):
            value = replay.get(name)
            if value is not None and type(value) is not kind:
                raise SpecError(f"replay {name} must be a {kind.__name__}")
            setattr(args, name, value)
    except KeyError as exc:
        raise SpecError(f"replay token lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad replay token: {exc}") from None
    return spec, inputs, assignment


def cmd_run(args) -> int:
    if args.replay:
        spec, inputs, assignment = _load_replay(args)
        entry = get_algorithm(args.alg)
        if assignment is not None and not entry.uses_oracle:
            raise SpecError(f"{entry.name} has no oracle, so a replay assignment does not apply")
    else:
        if args.alg is None or args.n is None:
            raise SpecError("run needs --alg and --n (or --replay)")
        entry = get_algorithm(args.alg)
        spec = _spec_from_args(args, entry)
        if args.inputs is None:
            raise SpecError("run needs --inputs (or --replay)")
        inputs = spec.check_inputs(_ints(args.inputs))
        assignment = None
    _check_model(entry, spec)

    built = build_algorithm(args.alg, spec, inputs, assignment=assignment)
    replay_payload = {
        "algorithm": args.alg,
        "spec": spec.to_dict(),
        "inputs": list(inputs),
        "assignment": list(built.first_phase) if entry.uses_oracle else None,
    }

    if entry.flavor == "sync":
        rounds = built.rounds if args.rounds is None else args.rounds
        if args.pattern:
            pattern = CrashPattern.decode(args.pattern)
        elif args.no_crash or args.seed is None:
            pattern = CrashPattern()
        else:
            pattern = random_pattern(random.Random(args.seed), spec.n, spec.t, rounds)
        trace = run_sync(built.programs, inputs, pattern, rounds, spec=spec)
        replay_payload.update({"pattern": pattern.encode(), "rounds": rounds})
    else:
        if args.schedule:
            schedule = AsyncSchedule.decode(args.schedule)
        elif args.no_crash or args.seed is None:
            schedule = AsyncSchedule()  # round-robin extension drives the run
        else:
            run = AsyncRun(built.programs, inputs, objects=built.objects, eager=True)
            random_walk(run, random.Random(args.seed), min(entry.fault_budget(spec), spec.n))
            schedule = run.schedule_so_far()
        trace = run_async(
            built.programs, inputs, schedule, spec=spec, objects=built.objects
        )
        replay_payload.update({"schedule": trace.schedule.encode()})

    verdict = check_agreement(trace, spec)
    lines = [
        f"algorithm: {args.alg}   inputs: {','.join(map(str, inputs))}",
        f"decisions: {','.join('-' if d is None else str(d) for d in trace.decisions)}",
        f"crashed: {sorted(trace.crashed) if trace.crashed else 'none'}",
        f"verdict: {'PASS' if verdict.passed else 'FAIL'} "
        f"(witness={list(verdict.witness_set)}, offenders={verdict.offenders}, "
        f"k={spec.k}, ell={spec.ell})",
        f"replay: {json.dumps(replay_payload, sort_keys=True)}",
    ]
    payload = {
        "trace": trace.to_dict(),
        "verdict": verdict.to_dict(),
        "replay": replay_payload,
    }
    _emit(args, lines, payload)
    return EXIT_PASS if verdict.passed else EXIT_VIOLATION


def _inputs_mode_from_arg(text):
    if text in ("all", "canonical"):
        return text
    return [_ints(vec) for vec in text.split(";")]


def cmd_explore(args) -> int:
    entry = get_algorithm(args.alg)
    spec = _spec_from_args(args, entry)
    _check_model(entry, spec)
    budget = _budget_from_args(args)
    report = explore(args.alg, spec, _inputs_mode_from_arg(args.inputs), budget)
    lines = [
        f"algorithm: {args.alg}   spec: n={spec.n} m={spec.m} t={spec.t} k={spec.k} ell={spec.ell}",
        f"executions checked: {report.executions_checked} "
        f"(states {report.states_explored}, exhaustive: {report.exhaustive})",
        f"violations: {report.violations_total}",
        f"empirical k: {report.empirical_k}   empirical ell: {report.empirical_ell}",
    ]
    if entry.symmetry is not None:
        what = "oracle cells" if entry.uses_oracle else "input vectors"
        group = "rotation" if entry.symmetry == "rotation" else "permutation"
        cells = report.cells_explored + report.cells_folded
        lines.append(
            f"{what}: {cells} ({report.cells_explored} explored, "
            f"{report.cells_folded} folded by pid {group} and "
            f"{entry.value_symmetry} value relabelling)"
        )
    if report.shared:
        searched, states = report.shared
        resolved = report.cells_resolved
        lines.append(
            f"searches: {searched} states searched up to pid rotation ({states} with their "
            f"images), {resolved} cell{'s' * (resolved != 1)} resolved, "
            f"{report.cells_explored - resolved} searched"
        )
    if report.roles:
        searched, states, orders = zip(*report.roles)
        group = f"group of {orders[0]}" if len(orders) == 1 else f"groups of up to {max(orders)}"
        lines.append(f"states: {sum(states)} ({sum(searched)} searched up to role symmetry, {group})")
    if report.moves_pruned:
        lines.append(f"moves left out by persistent sets: {report.moves_pruned}")
    lines += [f"note: {n}" for n in report.notes]
    for v in report.violations[:5]:
        lines.append(f"violation: {json.dumps(v, sort_keys=True)}")
    _emit(args, lines, report.to_dict())
    if report.violations_total:
        return EXIT_VIOLATION
    if not report.exhaustive and budget.mode != "sample":
        return EXIT_BUDGET
    return EXIT_PASS


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        handler = {
            "bounds": cmd_bounds,
            "table": cmd_table,
            "run": cmd_run,
            "explore": cmd_explore,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
