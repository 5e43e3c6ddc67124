"""Shared domain types and the closed-form solvability catalog.

Values are integers 0..m-1 (the algorithms rely on the total order through
their max/min selection rules); ``ProblemSpec.check_inputs`` is the one
check that a vector is n such values. The catalog rules are keyed R1..R10;
each report names the rule that produced it so tables can be cross-referenced.
"""

from __future__ import annotations

import itertools
from collections import namedtuple


MODEL_ASYNC_RW = "async-rw"
MODEL_SYNC_MP = "sync-mp"
MODEL_SM_G = "sm-g"
MODELS = (MODEL_ASYNC_RW, MODEL_SYNC_MP, MODEL_SM_G)

VALIDITY_WEAK = "weak"
VALIDITY_STRONG = "strong"


class SpecError(ValueError):
    """A problem spec, schedule, or configuration violates an invariant."""


class ModelViolationError(RuntimeError):
    """A behavior stepped outside the computational model's rules."""


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its combinatorial budget."""


def _order_pattern(vector) -> tuple:
    """``vector`` with each value replaced by its rank among its values."""
    rank = {v: i for i, v in enumerate(sorted(set(vector)))}
    return tuple(rank[v] for v in vector)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def best_witness(counts: dict, proposed, ell: int) -> tuple:
    """The <= ell proposed values covering the most decisions, given the
    decision count per value.

    Candidates are ranked by decision count (descending) then value
    (ascending); zero-count values are never chosen, so a run with no
    decisions gets the empty witness by convention.
    """
    ranked = sorted(
        (v for v in proposed if counts.get(v, 0) > 0),
        key=lambda v: (-counts[v], v),
    )
    return tuple(sorted(ranked[:ell]))


class ProblemSpec(namedtuple("ProblemSpec", "n m t k ell validity model g")):
    """The tuple a run is judged against.

    n processes, m admissible input values, up to t crashes, agreement
    threshold k (defaults to n, i.e. full agreement), decision-set bound
    ell, validity mode, and the communication model ("sm-g" carries g).
    """

    __slots__ = ()

    def __new__(cls, n, m=2, t=0, k=None, ell=1, validity=VALIDITY_WEAK, model=MODEL_ASYNC_RW, g=None):
        if k is None:
            k = n
        ints = {"n": n, "m": m, "t": t, "k": k, "ell": ell}
        if g is not None:
            ints["g"] = g
        for name, value in ints.items():
            if type(value) is not int:
                raise SpecError(f"{name} must be an integer, got {value!r}")
        if n < 2:
            raise SpecError(f"n must be >= 2, got {n}")
        if m < 2:
            raise SpecError(f"m must be >= 2, got {m}")
        if not 0 <= t <= n:
            raise SpecError(f"t must satisfy 0 <= t <= n, got t={t}, n={n}")
        if not 1 <= k <= n:
            raise SpecError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
        if not 1 <= ell <= m:
            raise SpecError(f"ell must satisfy 1 <= ell <= m, got ell={ell}, m={m}")
        if validity not in (VALIDITY_WEAK, VALIDITY_STRONG):
            raise SpecError(f"validity must be weak or strong, got {validity!r}")
        if model not in MODELS:
            raise SpecError(f"unknown model {model!r}")
        if model == MODEL_SM_G:
            if g is None:
                raise SpecError("model sm-g requires g")
            if not 1 <= g <= n:
                raise SpecError(f"g must satisfy 1 <= g <= n, got g={g}, n={n}")
        elif g is not None:
            raise SpecError(f"g is only meaningful for model sm-g, got model {model!r}")
        return tuple.__new__(cls, (n, m, t, k, ell, validity, model, g))

    def check_inputs(self, values) -> tuple:
        """``values`` as a tuple if it is an input vector (or an oracle
        assignment) for this spec: n ints in 0..m-1; else SpecError."""
        vec = tuple(values)
        if len(vec) != self.n:
            raise SpecError(f"expected {self.n} values, got {len(vec)}: {vec}")
        for v in vec:
            if type(v) is not int or not 0 <= v < self.m:
                raise SpecError(f"value {v!r} outside value domain 0..{self.m - 1}")
        return vec

    def input_vectors(self, inputs_mode, cap: int) -> list:
        """The input vectors of ``inputs_mode``: every one ("all"), one per
        order pattern ("canonical"), or the given vectors, each checked.
        BudgetExceededError if "all" or "canonical" has more than ``cap``
        vectors to choose from."""
        if not isinstance(inputs_mode, str):
            return [self.check_inputs(vec) for vec in inputs_mode]
        if inputs_mode not in ("all", "canonical"):
            raise SpecError(f"inputs_mode must be 'all', 'canonical', or vectors, got {inputs_mode!r}")
        total = self.m**self.n
        if total > cap:
            raise BudgetExceededError(
                f"{total} input assignments exceed the cap {cap}; "
                "pass explicit vectors or raise the budget"
            )
        vectors = itertools.product(range(self.m), repeat=self.n)
        if inputs_mode == "canonical":
            # Order-isomorphism representatives: sound for the catalog since
            # every algorithm and the verdict commute with monotone
            # injective value relabelings.
            return sorted({_order_pattern(v) for v in vectors})
        return list(vectors)

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        return cls(**{k: d[k] for k in cls._fields if k in d})


class BoundReport(namedtuple(
    "BoundReport",
    "row sufficient_k necessary_k rounds_lower rounds_upper assumptions variant",
    defaults=(None, None, None, None, (), "base"),
)):
    """Thresholds produced by one catalog rule.

    sufficient_k: largest k known to be achievable by a construction.
    necessary_k: ceiling above which the task is unsolvable.
    rounds_lower/rounds_upper: round-complexity sides for synchronous rules.
    assumptions: hypotheses the rule relies on (e.g. validity strength).
    variant: "base" or a named refinement of the same rule.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.sufficient_k is not None and self.necessary_k is not None:
            if self.sufficient_k > self.necessary_k:
                raise SpecError(
                    f"{self.row}: sufficient_k {self.sufficient_k} exceeds necessary_k {self.necessary_k}"
                )
        return self

    def to_dict(self) -> dict:
        return {
            "row": self.row,
            "variant": self.variant,
            "sufficient_k": self.sufficient_k,
            "necessary_k": self.necessary_k,
            "rounds_lower": self.rounds_lower,
            "rounds_upper": self.rounds_upper,
            "assumptions": list(self.assumptions),
        }


STRONG_VALIDITY = "strong validity required"
FAULT_FREE = "fault-free (t=0): impossibility side omitted"


def evaluate_bounds(spec: ProblemSpec) -> list[BoundReport]:
    """Evaluate every applicable catalog rule for ``spec``.

    Returns one report per rule whose hypotheses hold; rules whose
    hypotheses fail are omitted rather than reported vacuously. With t=0
    the sufficiency formulas remain valid and are kept, while the
    impossibility sides (which presuppose at least one crash) are dropped.
    """
    n, m, t = spec.n, spec.m, spec.t
    d = min(m, t + 1)
    half = ceil_div(n, 2)
    faulty = t >= 1
    t0 = (FAULT_FREE,)
    reports: list[BoundReport] = []

    if spec.model == MODEL_ASYNC_RW:
        if m == 2:
            reports.append(
                BoundReport(
                    "R1",
                    sufficient_k=half,
                    necessary_k=half if faulty else None,
                    assumptions=() if faulty else t0,
                )
            )
        if t == 1:
            reports.append(BoundReport("R2", sufficient_k=half, necessary_k=half))
        if faulty:
            reports.append(BoundReport("R3", necessary_k=half))
        if n % d == 0:
            divides = f"min(m,t+1)={d} divides n"
            reports.append(
                BoundReport(
                    "R4",
                    sufficient_k=n // d,
                    necessary_k=n // d if faulty else None,
                    assumptions=(divides, STRONG_VALIDITY) if faulty else (divides,) + t0,
                )
            )
        reports.append(
            BoundReport(
                "R5",
                sufficient_k=ceil_div(n, d),
                necessary_k=n // d + n % d if faulty else None,
                assumptions=(STRONG_VALIDITY,) if faulty else t0,
            )
        )
        if faulty and d >= 2:
            refined = min(n // e + n % e for e in range(2, d + 1))
            reports.append(
                BoundReport(
                    "R5",
                    necessary_k=refined,
                    variant="restricted-domain",
                    assumptions=(STRONG_VALIDITY, f"minimum over admissible domain sizes 2..{d}"),
                )
            )

    elif spec.model == MODEL_SYNC_MP:
        threshold = ceil_div(n + t + 1, 2)
        if 1 <= t <= n - 2 and spec.k >= threshold:
            reports.append(
                BoundReport(
                    "R6",
                    rounds_lower=t,
                    assumptions=(f"applies for k >= ceil((n+t+1)/2) = {threshold}",),
                )
            )
        reports.append(
            BoundReport(
                "R7",
                sufficient_k=ceil_div(n, spec.ell),
                rounds_upper=t // spec.ell + 1,
            )
        )

    else:  # MODEL_SM_G
        g = spec.g
        if g == t and n > t >= 1:
            reports.append(
                BoundReport("R8", necessary_k=ceil_div(n + t - 1, 2), assumptions=("g = t",))
            )
        ghat = min(n // 2, g)
        reports.append(
            BoundReport(
                "R9",
                sufficient_k=max(ceil_div(n, d), g, 3 * (ghat // 2)),
                assumptions=() if faulty else t0,
            )
        )
        if n % 4 == 0 and g == t == n // 2:
            reports.append(
                BoundReport(
                    "R10",
                    sufficient_k=3 * n // 4,
                    necessary_k=3 * n // 4,
                    assumptions=("4 divides n and g = t = n/2",),
                )
            )

    return reports
