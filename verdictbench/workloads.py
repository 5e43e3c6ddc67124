"""The four verdict workloads, each a list of parts run in one pass.

A part explores, replays or evaluates something with the package's public
API, then checks the result against a known answer from ``answers``. Every
check is counted; a wrong answer or an exception counts as a failed check
and the pass goes on.

``build`` only makes specs and budgets; it is what ``setup_s`` times, up to
the first call into the package's work. ``Plan.prepare`` makes inputs that
the timed pass consumes (the counterexamples that ``sample-replay``
replays) and is not timed.

Only the sampled parts of ``sample-replay`` read the seed. Every other part
is exhaustive, so its work and its counts do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import partialagreement as pa
from partialagreement import cli

import answers as known

# Large enough that no exhaustive part stops early and every counterexample
# is recorded, so every one can be replayed.
BIG = pa.ExploreBudget(max_runs=5_000_000, max_states=30_000_000, max_recorded_violations=100_000)


class Tally:
    """Checks attempted and failed, and totals summed from explore reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.states = 0
        self.async_states = 0
        self.executions = 0
        self.violations = 0
        self.exhaustive_states = 0
        self.exhaustive_s = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def attempt(self, what: str, fn) -> None:
        """Run ``fn``; an exception counts as one failed check."""
        try:
            fn()
        except Exception as exc:  # a failure to report, never to abort on
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    def add_report(self, report, seconds: float) -> None:
        self.states += report.states_explored
        self.executions += report.executions_checked
        self.violations += report.violations_total
        if pa.get_algorithm(report.algorithm).flavor == "async":
            self.async_states += report.states_explored
        if report.exhaustive:
            self.exhaustive_states += report.states_explored
            self.exhaustive_s += seconds

    def to_dict(self) -> dict:
        return dict(vars(self))


class Plan:
    def __init__(self, parts, prepare=()):
        self.parts = parts
        self.preparers = prepare

    def prepare(self, tally: Tally) -> None:
        for label, fn in self.preparers:
            tally.attempt(label, lambda: fn(tally))

    def run(self, tally: Tally) -> None:
        for label, fn in self.parts:
            tally.attempt(label, lambda: fn(tally))


def _label(alg, spec, inputs) -> str:
    return f"{alg} {json.dumps(spec.to_dict(), sort_keys=True)} inputs={inputs}"


def explore_part(alg, spec, inputs, budget, *checks):
    label = _label(alg, spec, inputs)

    def run(tally):
        started = time.perf_counter()
        report = pa.explore(alg, spec, inputs, budget)
        tally.add_report(report, time.perf_counter() - started)
        for check in checks:
            ok, what = check(report)
            tally.check(ok, f"{label}: {what}")

    return label, run


def flood_control_part(n: int):
    """min-flood with one round fewer than floor(t/ell)+1 must disagree (C5)."""
    spec = pa.ProblemSpec(n=n, m=n, t=1, k=n, ell=1, model="sync-mp")
    inputs = tuple(reversed(range(n)))

    def run(tally):
        built = pa.build_algorithm("min-flood", spec, inputs)
        disagreements = 0
        for pattern in pa.enumerate_crash_patterns(n, 1, 1, canonical=True):
            trace = pa.run_sync(built.programs, inputs, pattern, 1, spec=spec)
            disagreements += not pa.check_agreement(trace, spec).agreement_ok
        tally.check(disagreements > 0, f"min-flood n={n} one round short: a disagreement")

    return f"min-flood n={n} one round short", run


def replay_determinism_part(count: int, first_seed: int):
    """Seeded max-wait n=3 explorations replay byte-for-byte (C9)."""
    spec = pa.ProblemSpec(n=3, m=2, t=1, k=2)
    budgets = [pa.ExploreBudget(mode="sample", samples=12, seed=first_seed + i) for i in range(count)]

    def one(tally, budget):
        started = time.perf_counter()
        report = pa.explore("max-wait", spec, "all", budget)
        tally.add_report(report, time.perf_counter() - started)
        ok, what = known.no_violation(report)
        tally.check(ok, f"max-wait n=3 seed {budget.seed}: {what}")
        started = time.perf_counter()
        replayed = pa.explore_from_replay(report.replay_encoding())
        tally.add_report(replayed, time.perf_counter() - started)
        tally.check(
            replayed.to_json() == report.to_json(),
            f"max-wait n=3 seed {budget.seed}: replay is byte-identical",
        )

    def run(tally):
        for budget in budgets:
            tally.attempt(f"C9 seed {budget.seed}", lambda: one(tally, budget))

    return f"C9 replays from seed {first_seed}", run


def bounds_grid_part(n_max: int):
    """The C1 grid of evaluate_bounds against the independent formulas."""
    grid = []
    for n in range(2, n_max + 1):
        for m in (2, 3, 4):
            for t in range(1, 5):
                t = min(t, n)
                grid.append(pa.ProblemSpec(n=n, m=m, t=t, model="async-rw"))
                for k in range(1, n + 1):
                    for ell in (1, 2):
                        grid.append(pa.ProblemSpec(n=n, m=m, t=t, k=k, ell=ell, model="sync-mp"))
                for g in range(1, min(6, n) + 1):
                    grid.append(pa.ProblemSpec(n=n, m=m, t=t, model="sm-g", g=g))

    def one(tally, spec):
        got = known.observed_bounds(pa.evaluate_bounds(spec))
        want = known.expected_bounds(spec)
        tally.check(got == want, f"bounds {spec.to_dict()}: got {got}, want {want}")

    def run(tally):
        for spec in grid:
            tally.attempt(f"bounds {spec.to_dict()}", lambda: one(tally, spec))

    return f"C1 bound grid n<={n_max}", run


class CounterexampleReplay:
    """Replays every recorded violation through ``pagree run --replay``.

    Recorded violations carry inputs and schedule but not the algorithm or
    spec, so the replay token is built here from the explored configuration
    plus the violation's own fields.
    """

    def __init__(self, configs):
        self.configs = configs
        self.tokens = []

    def prepare(self, tally):
        for alg, spec, inputs in self.configs:
            report = pa.explore(alg, spec, inputs, BIG)
            label = _label(alg, spec, inputs)
            for check in (known.violations_found, known.all_recorded):
                ok, what = check(report)
                tally.check(ok, f"{label}: {what}")
            for violation in report.violations:
                fields = {k: v for k, v in violation.items() if k != "verdict"}
                token = {"algorithm": alg, "spec": spec.to_dict(), **fields}
                self.tokens.append(json.dumps(token, sort_keys=True))

    def run(self, tally):
        sink = io.StringIO()

        def one(token):
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(["run", "--replay", token])
            tally.check(code == 1, f"replay exits 1, got {code}: {token}")

        for token in self.tokens:
            tally.attempt(f"replay {token}", lambda: one(token))


def _strong(n, m, t, k, ell=1, model="async-rw"):
    return pa.ProblemSpec(n=n, m=m, t=t, k=k, ell=ell, validity="strong", model=model)


def _reduction(alg, spec, inputs, ell, budget=BIG):
    checks = [known.no_violation, known.no_flagged_run, known.ell_at_most(ell)]
    return explore_part(alg, spec, [inputs], budget, *checks)


def _max_wait(n, m, t, inputs):
    # R5: ceil(n / min(m, t+1)) is sufficient; at most t+1 values decided.
    k = known.ceil_div(n, min(m, t + 1))
    spec = pa.ProblemSpec(n=n, m=m, t=t, k=k)
    return explore_part("max-wait", spec, inputs, BIG, known.no_violation, known.ell_at_most(t + 1))


def _above_bound(alg, n, m, t, k):
    # k above R1/R2/R3's necessary ceil(n/2), so some adversary wins.
    return alg, pa.ProblemSpec(n=n, m=m, t=t, k=k), "all"


def _no_comm_tight(n, m, t):
    # No communication decides ceil(n/m) together, and no more, on balanced inputs.
    k = known.ceil_div(n, m)
    spec = pa.ProblemSpec(n=n, m=m, t=t, k=k)
    return explore_part("no-comm", spec, "all", BIG, known.no_violation, known.k_equals(k))


def _composition(n, g):
    # R9: the composition makes max(ceil(n/d), g, 3*floor(min(n/2, g)/2)) agree,
    # and identity inputs under any number of crashes leave it no slack.
    m = t = n
    k = max(known.ceil_div(n, min(m, t + 1)), g, 3 * (min(n // 2, g) // 2))
    spec = pa.ProblemSpec(n=n, m=m, t=t, k=k, model="sm-g", g=g)
    return explore_part(
        "smg-comp", spec, [tuple(range(n))], BIG, known.no_violation, known.k_equals(k)
    )


def _violating(configs):
    return [explore_part(*config, BIG, known.violations_found) for config in configs]


def _flood(n, t, ell):
    # R7: floor(t/ell)+1 rounds leave at most ell values, so ceil(n/ell) agree.
    spec = pa.ProblemSpec(n=n, m=n, t=t, k=known.ceil_div(n, ell), ell=ell, model="sync-mp")
    return explore_part(
        "min-flood", spec, [tuple(range(n))], BIG, known.no_violation, known.ell_at_most(ell)
    )


def violating_configs(size: str):
    if size == "tiny":
        return [_above_bound("max-wait", 3, 2, 1, 3), _above_bound("no-comm", 4, 2, 1, 3)]
    return [_above_bound("max-wait", 4, 2, 1, 3), _above_bound("no-comm", 6, 2, 1, 4)]


def build(name: str, size: str, seed: int) -> Plan:
    """Specs and budgets of one workload; ``size`` is "full" or "tiny"."""
    tiny = size == "tiny"
    if name == "oracle-dfs":
        if tiny:
            return Plan([
                _reduction("reduce-binary", _strong(3, 2, 1, 3), (0, 0, 1), 1),
                _reduction("reduce-set", _strong(3, 2, 1, 3), (0, 0, 1), 1),
            ])
        return Plan([
            _reduction("reduce-smg", _strong(5, 2, 2, 5), (0, 0, 0, 1, 1), 1),
            _reduction("reduce-binary", _strong(4, 2, 1, 4), (0, 0, 1, 1), 1),
            _reduction("reduce-set", _strong(4, 2, 1, 4), (0, 0, 1, 1), 1),
        ])
    if name == "crash-sweep":
        if tiny:
            return Plan([
                _max_wait(3, 3, 1, "canonical"),
                *_violating(violating_configs(size)),
                _no_comm_tight(4, 2, 2),
                _composition(4, 2),
            ])
        return Plan([
            *(_max_wait(4, 4, t, "canonical") for t in (1, 2, 3)),
            *_violating(violating_configs(size)),
            _no_comm_tight(6, 3, 3),
            _composition(8, 4),
        ])
    if name == "sync-rounds":
        if tiny:
            return Plan([
                _flood(3, 1, 1),
                _reduction("reduce-sync", _strong(4, 2, 1, 4, model="sync-mp"), (0, 0, 1, 1), 1),
                flood_control_part(3),
            ])
        return Plan([
            _flood(4, 3, 1),
            _flood(5, 3, 2),
            _flood(6, 2, 2),
            _reduction("reduce-sync", _strong(5, 2, 2, 5, model="sync-mp"), (0, 0, 0, 1, 1), 1),
            flood_control_part(3),
        ])
    if name == "sample-replay":
        replay = CounterexampleReplay(violating_configs(size))
        if tiny:
            sampled = _reduction(
                "reduce-set", _strong(4, 2, 1, 4), (0, 0, 1, 1), 1,
                pa.ExploreBudget(mode="sample", samples=3, seed=seed),
            )
            parts = [sampled, replay_determinism_part(5, 100 * seed), bounds_grid_part(4)]
        else:
            sampled = _reduction(
                "reduce-set", _strong(6, 3, 2, 6, ell=2), (0, 0, 1, 1, 2, 2), 2,
                pa.ExploreBudget(mode="sample", samples=20, seed=seed),
            )
            parts = [sampled, replay_determinism_part(100, 100 * seed), bounds_grid_part(12)]
        parts.append(("counterexample replays", replay.run))
        return Plan(parts, prepare=[("counterexamples", replay.prepare)])
    raise ValueError(f"unknown workload {name!r}")
