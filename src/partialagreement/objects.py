"""Linearizable shared objects used inside the executors.

ConsensusObject is a wait-free first-value-wins agreement object for up to
``capacity`` distinct proposers. PartialAgreementOracle stands in for a
black-box protocol that meets an (n, k, ell) agreement contract: it answers
in a single atomic step from an assignment over all n processes that
satisfies the contract (checkable post hoc). Passing each assignment
``compliant_assignments`` yields lets an explorer drive every assignment
the contract admits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator

from .core import ModelViolationError, SpecError, VALIDITY_STRONG


class ConsensusObject:
    """First proposal wins; every propose returns the winner."""

    __slots__ = ("capacity", "winner", "proposers")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise SpecError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.winner = None
        self.proposers: frozenset = frozenset()

    commutes = False  # first-value-wins: outcomes depend on access order

    def propose(self, pid: int, value: int) -> int:
        if pid in self.proposers:
            raise ModelViolationError(f"process {pid} proposed twice on one object")
        if len(self.proposers) + 1 > self.capacity:
            raise ModelViolationError(
                f"object capacity {self.capacity} exceeded by proposer {pid}"
            )
        self.proposers = self.proposers | {pid}
        if self.winner is None:
            self.winner = value
        return self.winner

    def clone(self) -> "ConsensusObject":
        new = object.__new__(ConsensusObject)
        new.capacity = self.capacity
        new.winner = self.winner
        new.proposers = self.proposers
        return new

    def key(self):
        return ("consensus", self.capacity, self.winner, self.proposers)


def agreement_holds(assignment, n, k, ell, validity, inputs) -> bool:
    """Does a full decision assignment satisfy the (n, k, ell) contract?"""
    proposed = set(inputs)
    counts = Counter(assignment)
    if validity == VALIDITY_STRONG and any(v not in proposed for v in counts):
        return False
    witness = sorted((v for v in counts if v in proposed), key=lambda v: (-counts[v], v))[:ell]
    covered = sum(counts[v] for v in witness)
    return n - covered <= n - k


def compliant_assignments(
    n: int,
    k: int,
    ell: int,
    validity: str,
    inputs,
    m: int | None = None,
) -> Iterator[tuple]:
    """Every full decision assignment satisfying the (n, k, ell) contract."""
    if validity == VALIDITY_STRONG:
        domain = sorted(set(inputs))
    else:
        if m is None:
            raise SpecError("weak validity enumeration needs the domain size m")
        domain = list(range(m))
    for assignment in itertools.product(domain, repeat=n):
        if agreement_holds(assignment, n, k, ell, validity, inputs):
            yield assignment


def plan_worst_case_split(n: int, k: int, inputs) -> tuple:
    """Exactly k processes get the witness; the rest spread evenly.

    The witness is the value whose selection leaves the most even residual
    split (ties to the smaller value); residual processes are spread over
    the other proposed values, smaller values filled first.
    """
    distinct = sorted(set(inputs))
    if len(distinct) == 1:
        return tuple(inputs)
    rem = n - k
    # The even-split residual (max bucket ceil(rem/(D-1))) is the same for
    # every witness candidate, so the tie-break always lands on the
    # smallest value.
    witness = distinct[0]
    others = [v for v in distinct if v != witness]
    share, extra = divmod(rem, len(others))
    residual = []
    for i, v in enumerate(others):
        residual.extend([v] * (share + (1 if i < extra else 0)))
    order = sorted(range(n), key=lambda p: (inputs[p] != witness, p))
    plan = [None] * n
    for slot, pid in enumerate(order):
        plan[pid] = witness if slot < k else residual[slot - k]
    return tuple(plan)


class PartialAgreementOracle:
    """Single-step stand-in for a protocol meeting an (n, k, ell) contract.

    The whole assignment is fixed at construction: ``assignment`` when
    given (checked against the contract when ``inputs`` is known), else the
    worst-case split planned from ``inputs``. Each process is answered from
    that plan, whatever the order of the accesses.
    """

    __slots__ = ("inputs", "plan", "proposed")

    commutes = True  # answers come from a plan fixed at construction

    def __init__(
        self,
        n: int,
        k: int,
        ell: int = 1,
        validity: str = VALIDITY_STRONG,
        inputs=None,
        assignment=None,
    ):
        if not 1 <= k <= n:
            raise SpecError(f"oracle needs 1 <= k <= n, got k={k}, n={n}")
        self.inputs = tuple(inputs) if inputs is not None else None
        self.proposed: frozenset = frozenset()
        if assignment is not None:
            plan = tuple(assignment)
            if len(plan) != n:
                raise SpecError(f"the assignment has {len(plan)} entries for n={n}")
            if self.inputs is not None and not agreement_holds(
                plan, n, k, ell, validity, self.inputs
            ):
                raise SpecError("the assignment violates the oracle contract")
            self.plan = plan
        elif self.inputs is None:
            raise SpecError("the oracle needs the input vector or an assignment")
        else:
            self.plan = plan_worst_case_split(n, k, self.inputs)

    def propose(self, pid: int, value: int) -> int:
        if pid in self.proposed:
            raise ModelViolationError(f"process {pid} proposed twice to the oracle")
        self.proposed = self.proposed | {pid}
        if self.inputs is not None and value != self.inputs[pid]:
            raise SpecError(
                f"process {pid} proposed {value} but the oracle was planned for {self.inputs[pid]}"
            )
        return self.plan[pid]

    def assignment(self) -> tuple:
        return self.plan

    def clone(self) -> "PartialAgreementOracle":
        new = object.__new__(PartialAgreementOracle)
        new.inputs = self.inputs
        new.plan = self.plan
        new.proposed = self.proposed
        return new

    def key(self):
        return ("oracle", self.plan, self.proposed)
