"""Partial agreement: algorithms, executors, solvability catalog, verifier."""

from .core import (
    BoundReport,
    BudgetExceededError,
    ModelViolationError,
    ProblemSpec,
    SpecError,
    evaluate_bounds,
)
from .shmem import (
    AsyncSchedule,
    Decide,
    ExecutionTrace,
    Propose,
    Read,
    Write,
    run_async,
)
from .syncmp import (
    CrashPattern,
    RoundTrace,
    enumerate_crash_patterns,
    run_sync,
)
from .objects import ConsensusObject, compliant_assignments, first_phase
from .algorithms import CATALOG, build_algorithm, get_algorithm
from .verify import (
    ExplorationReport,
    ExploreBudget,
    Verdict,
    check_agreement,
    explore,
    explore_from_replay,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "ModelViolationError",
    "ProblemSpec",
    "SpecError",
    "evaluate_bounds",
    "AsyncSchedule",
    "Decide",
    "ExecutionTrace",
    "Propose",
    "Read",
    "Write",
    "run_async",
    "CrashPattern",
    "RoundTrace",
    "enumerate_crash_patterns",
    "run_sync",
    "ConsensusObject",
    "compliant_assignments",
    "first_phase",
    "CATALOG",
    "build_algorithm",
    "get_algorithm",
    "ExplorationReport",
    "ExploreBudget",
    "Verdict",
    "check_agreement",
    "explore",
    "explore_from_replay",
]
