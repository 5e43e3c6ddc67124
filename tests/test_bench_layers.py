"""The benchmark's layer tracer still binds the package's names."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import partialagreement as pa

LAYERS_PY = Path(__file__).resolve().parents[1] / "verdictbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("verdictbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_async_run_and_restores():
    # A renamed or deleted name that the tracer binds fails at install().
    # An explore builds a run's schedule only for a recorded violation, so
    # the max-wait explore, which records some, calls schedule_so_far.
    # The tracer wraps the step of every class in algorithms that defines
    # one, so algorithms.step counts the scans of both explores.
    tracer = load_layers().Tracer()
    try:
        tracer.install()
        spec = pa.ProblemSpec(n=3, m=2, t=1, k=3, validity="strong")
        report = pa.explore("reduce-binary", spec, [(0, 0, 1)])
        violating = pa.explore("max-wait", pa.ProblemSpec(n=3, m=2, t=1, k=3), "all")
    finally:
        restored = tracer.restore()
    assert restored
    assert report.violations_total == 0
    assert violating.violations
    for layer in ("shmem.step", "shmem.clone", "shmem.key", "shmem.schedule_so_far",
                  "algorithms.step"):
        assert tracer.counts[layer] > 0, layer
    assert tracer.counts["verify.explore"] == 2
    assert tracer.counts["objects.compliant_assignments"] > 0
