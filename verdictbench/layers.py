"""Outside-in layer tracing: wrap the package's public callables in place.

Nothing in the package is edited. ``Tracer.install`` replaces every binding
of a traced function in the package's modules (so ``verify``'s and
``cli``'s own imported names are covered), plus the ``AsyncRun`` methods
and the program and object classes' methods. Each wrapper counts calls and
adds its self time: its duration minus the durations of the traced calls
made inside it. ``restore`` puts every original back.

Generator functions (``compliant_assignments``, ``enumerate_crash_patterns``)
are timed per item produced, and count items instead of calls.

Counts and times stay in memory and are read once, after the pass.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

# Package functions, named "<module>.<function>"; every binding of each in
# the package's modules is wrapped.
FUNCTIONS = (
    "shmem.run_async",
    "objects.compliant_assignments",
    "syncmp.enumerate_crash_patterns",
    "syncmp.run_sync",
    "verify.check_agreement",
    "verify.explore",
    "core.evaluate_bounds",
    "cli.main",
)

# AsyncRun methods, named "shmem.<method>".
RUN_METHODS = ("shmem.step", "shmem.clone", "shmem.key", "shmem.crash", "shmem.schedule_so_far")

# What each layer counts: items produced for generators, calls otherwise.
COUNT_NAMES = {
    "objects.compliant_assignments": "cells",
    "syncmp.enumerate_crash_patterns": "patterns",
}

LAYERS = RUN_METHODS + ("algorithms.step", "objects.propose") + FUNCTIONS


def count_metric(layer: str) -> str:
    return f"{layer}.{COUNT_NAMES.get(layer, 'calls')}"


# The package and the modules whose imported names are rebound.
MODULE_NAMES = ("", "core", "shmem", "syncmp", "objects", "algorithms", "verify", "cli")


def _module(name: str):
    return importlib.import_module(f"partialagreement.{name}" if name else "partialagreement")


def _classes_defining(module, method: str):
    return [
        cls
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and method in vars(cls)
    ]


def outcome_of(trace) -> tuple:
    """What check_agreement reads from a run; equal tuples get equal verdicts."""
    return (
        tuple(trace.inputs),
        tuple(trace.decisions),
        frozenset(trace.crashed),
        frozenset(trace.flags),
        bool(trace.nonterminating),
    )


class Tracer:
    def __init__(self):
        self.counts = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.outcomes: set = set()
        self._stack = [0.0]  # time spent in traced callees, per open span
        self._patched: list = []

    # --- wrappers -----------------------------------------------------------

    def _call_wrapper(self, name: str, fn, before=None):
        counts, self_s, stack = self.counts, self.self_s, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            stack.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                counts[name] += 1

        return traced

    def _generator_wrapper(self, name: str, fn):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        done = object()

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                started = perf_counter()
                try:
                    item = next(items, done)
                finally:
                    elapsed = perf_counter() - started
                    self_s[name] += elapsed - stack.pop()
                    stack[-1] += elapsed
                if item is done:
                    return
                counts[name] += 1
                yield item

        return traced

    def _record_outcome(self, trace, *_):
        self.outcomes.add(outcome_of(trace))

    # --- install and restore ------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [_module(name) for name in MODULE_NAMES]
        for name in FUNCTIONS:
            module_name, attr_name = name.split(".")
            fn = getattr(_module(module_name), attr_name)
            if inspect.isgeneratorfunction(fn):
                wrapper = self._generator_wrapper(name, fn)
            elif name == "verify.check_agreement":
                wrapper = self._call_wrapper(name, fn, before=self._record_outcome)
            else:
                wrapper = self._call_wrapper(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        run_class = _module("shmem").AsyncRun
        for name in RUN_METHODS:
            method = name.split(".")[1]
            self._patch(run_class, method, self._call_wrapper(name, vars(run_class)[method]))
        for cls in _classes_defining(_module("algorithms"), "step"):
            self._patch(cls, "step", self._call_wrapper("algorithms.step", vars(cls)["step"]))
        for cls in _classes_defining(_module("objects"), "propose"):
            self._patch(cls, "propose", self._call_wrapper("objects.propose", vars(cls)["propose"]))

    def restore(self) -> bool:
        """Put every original back; True when each binding is the original again."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patched)
        self._patched.clear()
        return restored

    def metrics(self) -> dict:
        out = {}
        for name in LAYERS:
            out[count_metric(name)] = self.counts[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out
