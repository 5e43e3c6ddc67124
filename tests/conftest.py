"""Shared test tooling."""

from __future__ import annotations

import contextlib
import dataclasses

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
            patch.setitem(CATALOG, name, dataclasses.replace(entry, symmetry=None))
        patch.setattr(roles, "ROLE_GROUP_LIMIT", 0)
        yield


@pytest.fixture
def unreduced():
    """A context manager under which every search is the unreduced one."""
    return _unreduced
