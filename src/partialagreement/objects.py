"""Linearizable shared objects used inside the executors, and the first
phase of the reductions.

ConsensusObject is a wait-free first-value-wins agreement object for up to
``capacity`` distinct proposers; it is the only shared object, and a value
(its winner and proposers): ``propose`` returns the next object. A
reduction's first phase is a black-box protocol meeting an (n, k, ell)
agreement contract under strong validity. It is not an object: its answers
are an assignment over all n processes, fixed when the reduction is built
(``first_phase``). ``compliant_assignments`` yields every assignment the
contract admits, and an explorer builds the reduction once per assignment.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .core import ModelViolationError, SpecError, best_witness


@dataclass(frozen=True, slots=True)
class ConsensusObject:
    """First proposal wins: a propose returns the next object and the winner."""

    capacity: int
    winner: int | None = None
    proposers: frozenset = frozenset()

    def __post_init__(self):
        if self.capacity < 1:
            raise SpecError(f"capacity must be >= 1, got {self.capacity}")

    def propose(self, pid: int, value: int) -> tuple[ConsensusObject, int]:
        if pid in self.proposers:
            raise ModelViolationError(f"process {pid} proposed twice on one object")
        if len(self.proposers) + 1 > self.capacity:
            raise ModelViolationError(
                f"object capacity {self.capacity} exceeded by proposer {pid}"
            )
        winner = value if self.winner is None else self.winner
        return ConsensusObject(self.capacity, winner, self.proposers | {pid}), winner


def agreement_holds(assignment, n, k, ell, inputs) -> bool:
    """Does a full decision assignment satisfy the (n, k, ell) contract
    under strong validity?"""
    proposed = set(inputs)
    counts = Counter(assignment)
    if any(v not in proposed for v in counts):
        return False
    covered = sum(counts[v] for v in best_witness(counts, proposed, ell))
    return n - covered <= n - k


def compliant_assignments(n: int, k: int, ell: int, inputs) -> Iterator[tuple]:
    """Every full decision assignment satisfying the (n, k, ell) contract
    under strong validity."""
    for assignment in itertools.product(sorted(set(inputs)), repeat=n):
        if agreement_holds(assignment, n, k, ell, inputs):
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


def check_contract(n: int, k: int) -> None:
    """SpecError unless a first phase of n processes can promise k: 1 <= k <= n."""
    if not 1 <= k <= n:
        raise SpecError(f"the first phase needs 1 <= k <= n, got k={k}, n={n}")


def first_phase(n: int, k: int, ell: int, inputs, assignment=None) -> tuple:
    """The answers of a first phase meeting the (n, k, ell) contract on
    ``inputs``, one per process: ``assignment`` when given (SpecError unless
    it has n entries and meets the contract), else the worst-case split.
    """
    check_contract(n, k)
    if assignment is None:
        return plan_worst_case_split(n, k, inputs)
    plan = tuple(assignment)
    if len(plan) != n:
        raise SpecError(f"the assignment has {len(plan)} entries for n={n}")
    if not agreement_holds(plan, n, k, ell, inputs):
        raise SpecError("the assignment violates the first-phase contract")
    return plan
