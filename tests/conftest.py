"""Shared test tooling."""

from __future__ import annotations

import contextlib
import hashlib
import json

import pytest

from partialagreement import CATALOG, roles


@contextlib.contextmanager
def _unreduced():
    """Every symmetry reduction off while the block runs: each catalog
    entry's ``symmetry`` is None (no cell folded, no search shared up to
    pid rotation) and ``roles.ROLE_GROUP_LIMIT`` is 0 (no cell searched up
    to its role group). Restored afterwards. The persistent sets of a role
    cell stay on: they are no symmetry reduction, and the searches with and
    without role orbits both run through them."""
    with pytest.MonkeyPatch.context() as patch:
        for name, entry in list(CATALOG.items()):
            patch.setitem(CATALOG, name, entry._replace(symmetry=None))
        patch.setattr(roles, "ROLE_GROUP_LIMIT", 0)
        yield


@pytest.fixture
def unreduced():
    """A context manager under which every search is the unreduced one."""
    return _unreduced


def _first_difference(a, b, path="report"):
    """The path to the first place where the JSON values ``a`` and ``b``,
    which differ, differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        key = next(k for k in sorted(a.keys() | b.keys()) if k not in a or k not in b or a[k] != b[k])
        if key in a and key in b:
            return _first_difference(a[key], b[key], f"{path}.{key}")
        return f"{path}.{key}"
    if isinstance(a, list) and isinstance(b, list):
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
        if i is not None:
            return _first_difference(a[i], b[i], f"{path}[{i}]")
        return f"{path}[{min(len(a), len(b))}]"
    return path


def same_report(got: str, want: str, context="") -> None:
    """Fail unless two reports' ``to_json()`` strings are equal, naming only
    the first differing key and the two digests: pytest's diff of two long
    JSON strings can run for minutes."""
    if got != want:
        where = _first_difference(json.loads(got), json.loads(want))
        digests = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (got, want)]
        pytest.fail(f"{context} reports differ first at {where}: sha256 {' != '.join(digests)}".lstrip())
