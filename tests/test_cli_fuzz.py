"""Fuzz of the CLI argument surface and of replay tokens.

Invariant: ``main`` never raises and returns 0, 1, 2 or 64; a non-integer
token where an integer belongs, and a replay token that is malformed (a
required key dropped, a wrong type, a wrong length, a value out of
domain), exit 64. Sizes stay small (n <= 3 for explore) and the examples
are derandomised, so the suite stays deterministic and fast.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from partialagreement import CATALOG
from partialagreement.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=200, database=None)

EXIT_CODES = {0, 1, 2, 64}

NOT_INTS = st.sampled_from(["x", "1.5", "", "1e3", "0x1", "one", "2,", ":"])

# Spec flags other than --n, with ranges reaching just past the valid ones.
SPEC_INTS = (("--m", 1, 4), ("--t", -1, 3), ("--k", 0, 4), ("--ell", 0, 3), ("--g", 0, 3))


def call(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in EXIT_CODES, argv
    return code


@st.composite
def int_flag(draw, flag, lo, hi, optional=True):
    """``["--flag=value"]``, or ``[]`` when omitted (two times in three if
    ``optional``); the boolean marks a value that is not an integer."""
    if optional and draw(st.integers(0, 2)):
        return [], False
    if draw(st.integers(0, 19)) == 0:
        return [f"{flag}={draw(NOT_INTS)}"], True
    return [f"{flag}={draw(st.integers(lo, hi))}"], False


@st.composite
def int_list(draw, sep, size, lo, hi):
    """Integers joined by ``sep``; one piece is sometimes not an integer."""
    pieces = [str(draw(st.integers(lo, hi))) for _ in range(size)]
    bad = draw(st.integers(0, 19)) == 0
    if bad:
        pieces[draw(st.integers(0, len(pieces) - 1))] = draw(st.sampled_from(["x", "1.5", "", "a"]))
    return sep.join(pieces), bad


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["bounds", "table", "run", "explore"]))
    argv, bad = [command], False

    def add(part):
        nonlocal bad
        tokens, malformed = part
        argv.extend(tokens)
        bad = bad or malformed

    n = draw(st.integers(2, 5 if command in ("bounds", "run") else 3))
    if command != "table":
        add(draw(int_flag("--n", n, n, optional=False)))
    if command in ("run", "explore"):
        argv += ["--alg", draw(st.sampled_from(sorted(CATALOG)))]
    for flag, lo, hi in SPEC_INTS:
        add(draw(int_flag(flag, lo, hi)))
    if command != "table" and draw(st.booleans()):
        argv += ["--validity", draw(st.sampled_from(["weak", "strong"]))]
    if command in ("bounds", "table") and draw(st.booleans()):
        argv += ["--model", draw(st.sampled_from(["async-rw", "sync-mp", "sm-g"]))]
    if command == "table":
        text, malformed = draw(int_list(":", draw(st.sampled_from([2, 2, 1, 3])), 0, 6))
        add(([f"--n-range={text}"], malformed))
    if command == "run":
        size = draw(st.sampled_from([n, n, n, 1, 4]))
        text, malformed = draw(int_list(",", size, 0, 2))
        add(([f"--inputs={text}"], malformed))
        add(draw(int_flag("--rounds", -1, 3)))
        add(draw(int_flag("--seed", 0, 9)))
    if command == "explore":
        kind = draw(st.sampled_from(["all", "canonical", "vectors"]))
        if kind == "vectors":
            sizes = [draw(st.sampled_from([n, n, n, 1, 4])) for _ in range(draw(st.integers(1, 2)))]
            vectors = [draw(int_list(",", size, 0, 2)) for size in sizes]
            argv.append("--inputs=" + ";".join(text for text, _ in vectors))
            bad = bad or any(malformed for _, malformed in vectors)
        else:
            argv += ["--inputs", kind]
        if draw(st.booleans()):
            argv.append("--sample")
            add(draw(int_flag("--samples", 0, 3, optional=False)))
        add(draw(int_flag("--max-runs", 0, 50)))
        add(draw(int_flag("--seed", 0, 9)))
    return argv, bad


@FUZZ
@given(argvs())
def test_fuzzed_argv_never_raises(case):
    argv, has_non_integer = case
    code = call(argv)
    if has_non_integer:
        assert code == 64, argv


# Valid replay tokens: a sync run, an async run, and an oracle-backed
# reduction with an explicit first-phase assignment.
TOKENS = [
    {
        "algorithm": "min-flood", "inputs": [1, 1, 0], "pattern": "p1:", "rounds": 2,
        "spec": {"n": 3, "m": 2, "t": 1, "k": 3, "ell": 1, "validity": "weak", "model": "sync-mp"},
    },
    {
        "algorithm": "max-wait", "inputs": [1, 1, 0], "schedule": "a1:0.1.2.0.1.2.0.1.2:",
        "spec": {"n": 3, "m": 2, "t": 1, "k": 2, "ell": 1, "validity": "weak", "model": "async-rw"},
    },
    {
        "algorithm": "reduce-set", "inputs": [0, 0, 1, 1], "assignment": [0, 0, 0, 1],
        "spec": {"n": 4, "m": 2, "t": 1, "k": 4, "ell": 1, "validity": "strong", "model": "async-rw"},
    },
]

REQUIRED = ("algorithm", "spec", "inputs")
VECTORS = ("inputs", "assignment")
WRONG_TYPES = st.sampled_from(["x", 1.5, True, [], {}, [0.5]])


def test_replay_tokens_are_valid():
    for token in TOKENS:
        assert call(["run", "--replay", json.dumps(token)]) == 0, token


@st.composite
def mutated_tokens(draw):
    """A valid token with one defect; ``rejected`` says the defect must
    exit 64 (dropping an optional key or nulling it is no defect)."""
    token = json.loads(json.dumps(draw(st.sampled_from(TOKENS))))
    spec = token["spec"]
    kind = draw(st.sampled_from(["drop", "type", "length", "domain"]))
    if kind == "drop":
        key = draw(st.sampled_from(sorted(token)))
        del token[key]
        return token, key in REQUIRED
    if kind == "type":
        where = draw(st.sampled_from(sorted(token) + [f"spec.{k}" for k in sorted(spec)]))
        value = draw(WRONG_TYPES)
        if where.startswith("spec."):
            spec[where[5:]] = value
        elif where in VECTORS and draw(st.booleans()):
            vector = token[where]
            vector[draw(st.integers(0, len(vector) - 1))] = value
        else:
            token[where] = value
        return token, True
    if kind == "length":
        vector = token[draw(st.sampled_from([k for k in VECTORS if k in token]))]
        if draw(st.booleans()):
            vector.append(0)
        else:
            vector.pop()
        return token, True
    where = draw(st.sampled_from([k for k in (*VECTORS, "rounds") if k in token] + ["spec.n", "spec.t"]))
    if where in VECTORS:
        vector = token[where]
        vector[draw(st.integers(0, len(vector) - 1))] = draw(st.sampled_from([-1, spec["m"], 10**6]))
    elif where == "spec.n":
        spec["n"] = draw(st.sampled_from([-1, 0, 1]))
    elif where == "spec.t":
        spec["t"] = draw(st.sampled_from([-1, spec["n"] + 1]))
    else:
        token["rounds"] = draw(st.sampled_from([-1, 0]))
    return token, True


@FUZZ
@given(mutated_tokens())
def test_mutated_replay_tokens_exit_64(case):
    token, rejected = case
    code = call(["run", "--replay", json.dumps(token)])
    if rejected:
        assert code == 64, token
