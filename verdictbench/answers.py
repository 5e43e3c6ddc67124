"""Known answers, written from the paper's bounds as the acceptance criteria state them.

Nothing here is read off the program's current output. The report checks
are bounds (no violation at or below a sufficient threshold, violations
above a necessary one, at most ell decision values), so a more complete
adversary does not flip them. The bound formulas are a second, independent
writing of the catalog rules R1..R10 that ``evaluate_bounds`` is compared
against.
"""

from __future__ import annotations


def ceil_div(a: int, b: int) -> int:
    return (a + b - 1) // b


# --- checks on one exploration report ---------------------------------------
# Each returns (ok, description); the description names the bound it checks.


def no_violation(report):
    complete = report.exhaustive or report.budget.mode == "sample"
    return complete and report.violations_total == 0, "no violation over the whole search"


def violations_found(report):
    return report.violations_total > 0, "k above the necessary bound yields violations"


def no_flagged_run(report):
    return report.flagged_executions == 0, "no run raised a soundness flag"


def ell_at_most(ell):
    def check(report):
        got = report.empirical_ell
        return got is not None and got <= ell, f"at most {ell} decision values per run"

    return check


def k_equals(k):
    def check(report):
        return report.empirical_k == k, f"empirical k is exactly {k}"

    return check


def all_recorded(report):
    # Every counterexample must be kept, so that every one is replayed.
    return len(report.violations) == report.violations_total, "every violation is recorded"


# --- the bound catalog, written independently of core ----------------------


def expected_bounds(spec) -> list:
    """Rows for a faulty (t >= 1) spec as sorted ((row, variant), fields) pairs.

    fields is (sufficient_k, necessary_k, rounds_lower, rounds_upper), with
    None where the rule says nothing.
    """
    model, n, m, t, k, ell, g = (
        spec.model, spec.n, spec.m, spec.t, spec.k, spec.ell, spec.g
    )
    rows = {}
    d = min(m, t + 1)
    half = ceil_div(n, 2)
    if model == "async-rw":
        if m == 2:
            rows["R1", "base"] = (half, half, None, None)
        if t == 1:
            rows["R2", "base"] = (half, half, None, None)
        rows["R3", "base"] = (None, half, None, None)
        if n % d == 0:
            rows["R4", "base"] = (n // d, n // d, None, None)
        rows["R5", "base"] = (ceil_div(n, d), n // d + n % d, None, None)
        rows["R5", "restricted-domain"] = (
            None,
            min(n // e + n % e for e in range(2, d + 1)),
            None,
            None,
        )
    elif model == "sync-mp":
        if 1 <= t <= n - 2 and k >= ceil_div(n + t + 1, 2):
            rows["R6", "base"] = (None, None, t, None)
        rows["R7", "base"] = (ceil_div(n, ell), None, None, t // ell + 1)
    else:
        if g == t and n > t:
            rows["R8", "base"] = (None, ceil_div(n + t - 1, 2), None, None)
        ghat = min(n // 2, g)
        rows["R9", "base"] = (max(ceil_div(n, d), g, 3 * (ghat // 2)), None, None, None)
        if n % 4 == 0 and g == t == n // 2:
            rows["R10", "base"] = (3 * n // 4, 3 * n // 4, None, None)
    return sorted(rows.items())


def observed_bounds(reports) -> list:
    return sorted(
        ((r.row, r.variant), (r.sufficient_k, r.necessary_k, r.rounds_lower, r.rounds_upper))
        for r in reports
    )
