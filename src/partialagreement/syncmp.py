"""Lockstep round-based message-passing executor.

Rounds are numbered from 1. In each round every live process broadcasts
one payload to every process, itself included; deliveries are computed
from the crash pattern (a round-r victim reaches exactly its
recipients_reached and takes no further action, not even receiving), then
every surviving process consumes its inbox. Decisions happen once, after
the final configured round.

A sync behavior is a pure state machine: ``state0``,
``round_send(state, rnd) -> (state, payload)``,
``round_recv(state, rnd, inbox) -> state`` with ``inbox = {src: payload}``
in ascending src order, and ``finalize(state) -> Decide``.

``sync_round`` runs one round from a configuration. ``run_sync`` chains it
over every round and logs every message; ``pattern_outcome`` chains it for
the outcome of each pattern that the explorer runs alone. ``pattern_groups``
enumerates the crash patterns a group at a time, one group per (victims,
rounds), and ``chain_patterns``, the explorer's count, runs each canonical
group round by round with a count per configuration and gives each of its
outcomes with the number of patterns that reach it. A survivor's next
state depends only on which of the round's victims reach it, so a round
runs each survivor's ``round_recv`` once per subset of those victims, kept
in a table keyed by (round, configuration, round-victim pids), and a
configuration steps to the product, over survivors, of their distinct next
states. That is sound only because ``round_send``, ``round_recv`` and
``finalize`` are pure: a program that kept hidden state or read anything
else would make the table replay a stale round, or count two patterns into
one state.
``random_pattern`` draws one pattern, for sampled explores and seeded CLI
runs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .core import ProblemSpec, SpecError
from .shmem import Decide


@dataclass(frozen=True)
class CrashPattern:
    """Adversary choices: victims as ``(pid, round, recipients_reached)``.

    A victim delivers its round-r messages exactly to recipients_reached
    and is silent afterwards.
    """

    victims: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "victims",
            tuple(sorted((p, r, frozenset(rcpts)) for p, r, rcpts in self.victims)),
        )

    def validate(self, n: int, t: int, rounds: int) -> None:
        pids = [p for p, _, _ in self.victims]
        if len(pids) != len(set(pids)):
            raise SpecError("a process may crash at most once")
        if len(pids) > t:
            raise SpecError(f"{len(pids)} victims exceed the fault budget t={t}")
        for p, r, rcpts in self.victims:
            if not 0 <= p < n:
                raise SpecError(f"victim {p} is not a process id")
            if not 1 <= r <= rounds:
                raise SpecError(f"victim round {r} outside 1..{rounds}")
            for q in rcpts:
                if not 0 <= q < n:
                    raise SpecError(f"recipient {q} is not a process id")

    def crash_round(self) -> dict[int, int]:
        return {p: r for p, r, _ in self.victims}

    def in_round(self, rnd: int) -> tuple:
        """The victims of round ``rnd``, as ``((pid, recipients_reached), ...)``."""
        return tuple((p, rcpts) for p, r, rcpts in self.victims if r == rnd)

    def encode(self) -> str:
        items = [
            f"{p}@{r}=" + ".".join(str(q) for q in sorted(rcpts))
            for p, r, rcpts in self.victims
        ]
        return "p1:" + ",".join(items)

    @classmethod
    def decode(cls, token: str) -> "CrashPattern":
        try:
            tag, body = token.split(":", 1)
            if tag != "p1":
                raise ValueError(tag)
            victims = []
            for item in body.split(","):
                if not item:
                    continue
                head, rcpts_s = item.split("=")
                p, r = head.split("@")
                rcpts = frozenset(int(q) for q in rcpts_s.split(".") if q != "")
                victims.append((int(p), int(r), rcpts))
        except ValueError as exc:
            raise SpecError(f"bad pattern token {token!r}") from exc
        return cls(tuple(victims))


@dataclass(frozen=True)
class RoundTrace:
    """Per-round message log plus final decisions.

    ``rounds[r-1]`` is ``(sent, delivered)`` where each entry is a tuple of
    ``(src, dst, payload)``. ``crashed`` maps victim pid to its crash round.
    """

    inputs: tuple[int, ...]
    rounds: tuple
    decisions: tuple
    crashed: dict
    flags: frozenset
    pattern: CrashPattern
    nonterminating: bool = False

    def to_dict(self) -> dict:
        return {
            "inputs": list(self.inputs),
            "rounds": [
                {"sent": [list(e) for e in sent], "delivered": [list(e) for e in dlv]}
                for sent, dlv in self.rounds
            ],
            "decisions": list(self.decisions),
            "crashed": {str(p): r for p, r in sorted(self.crashed.items())},
            "flags": sorted(self.flags),
            "pattern": self.pattern.encode(),
        }


def sync_round(programs, config, rnd: int, victims):
    """Run round ``rnd`` from ``config``; return the next configuration and
    the payloads sent, ``{src: payload}`` in ascending src order.

    A configuration is ``(states, alive)``: the per-pid states, None for a
    crashed pid, and the tuple of live pids. ``victims`` is the round's
    ``((pid, recipients_reached), ...)``, as ``CrashPattern.in_round`` gives.
    """
    states, alive = config
    states = list(states)
    reached = dict(victims)
    payloads = {}
    for pid in alive:
        states[pid], payloads[pid] = programs[pid].round_send(states[pid], rnd)
    survivors = tuple(pid for pid in alive if pid not in reached)
    for dst in survivors:
        states[dst] = programs[dst].round_recv(states[dst], rnd, _inbox(payloads, reached, dst))
    for pid in reached:
        states[pid] = None
    return (tuple(states), survivors), payloads


def _inbox(payloads, reached, dst) -> dict:
    return {
        src: payload
        for src, payload in payloads.items()
        if src not in reached or dst in reached[src]
    }


def sync_decisions(programs, config) -> tuple:
    """Finalize every live process of the last configuration: returns the
    pid-indexed decisions (None for a crashed pid) and the union of flags."""
    states, alive = config
    decisions = [None] * len(states)
    flags: set = set()
    for pid in alive:
        outcome = programs[pid].finalize(states[pid])
        if not isinstance(outcome, Decide):
            raise SpecError(f"finalize for process {pid} must return a Decide")
        decisions[pid] = outcome.value
        flags.update(outcome.flags)
    return tuple(decisions), frozenset(flags)


def run_sync(
    programs,
    inputs,
    pattern: CrashPattern,
    rounds: int,
    *,
    spec: ProblemSpec | None = None,
) -> RoundTrace:
    """Execute exactly ``rounds`` lockstep rounds under ``pattern``, logging
    every message. With ``spec``, ``spec.check_inputs`` checks the inputs."""
    inputs = tuple(inputs) if spec is None else spec.check_inputs(inputs)
    n = len(inputs)
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds}")
    pattern.validate(n, n if spec is None else spec.t, rounds)

    config = (tuple(programs[pid].state0 for pid in range(n)), tuple(range(n)))
    trace_rounds = []
    for rnd in range(1, rounds + 1):
        victims = pattern.in_round(rnd)
        config, payloads = sync_round(programs, config, rnd, victims)
        reached = dict(victims)
        sent = tuple((src, dst, payload) for src, payload in payloads.items() for dst in range(n))
        delivered = sorted(
            (src, dst, payload)
            for dst in config[1]
            for src, payload in _inbox(payloads, reached, dst).items()
        )
        trace_rounds.append((sent, tuple(delivered)))

    decisions, flags = sync_decisions(programs, config)
    return RoundTrace(
        inputs=inputs,
        rounds=tuple(trace_rounds),
        decisions=decisions,
        crashed=dict(sorted(pattern.crash_round().items())),
        flags=flags,
        pattern=pattern,
    )


def _victim_sets(n, budget):
    for size in range(budget + 1):
        yield from itertools.combinations(range(n), size)


def pattern_groups(n: int, t: int, rounds: int, *, canonical: bool = False):
    """Yield the patterns of ``enumerate_crash_patterns`` a group at a time:
    ``(victims, rnds, pools)`` with the victim pids in ascending order, the
    round of each, and ``pools[i]`` the recipients_reached subsets of
    ``victims[i]``. A group's patterns are ``itertools.product(*pools)``, in
    that order, and the groups of one victims tuple come together."""
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds}")
    for victims in _victim_sets(n, min(t, n)):
        for rnds in itertools.product(range(1, rounds + 1), repeat=len(victims)):
            pools = []
            for i, pid in enumerate(victims):
                if canonical:
                    dead = {victims[j] for j in range(len(victims)) if rnds[j] <= rnds[i]}
                    pool = [q for q in range(n) if q not in dead]
                else:
                    pool = list(range(n))
                pools.append(_subsets(pool))
            yield victims, rnds, pools


def enumerate_crash_patterns(
    n: int,
    t: int,
    rounds: int,
    *,
    canonical: bool = False,
) -> Iterator[CrashPattern]:
    """Yield every crash pattern with at most min(t, n) victims.

    Each victim gets a round in 1..rounds and a recipients_reached subset.
    canonical=True restricts recipients to processes still alive when the
    partial delivery lands (the victim itself and processes already dead by
    that round never observe the delivery, so those subsets are no-op
    duplicates); verdicts are unaffected.
    """
    for group in pattern_groups(n, t, rounds, canonical=canonical):
        yield from _patterns(*group)


def _patterns(victims, rnds, pools):
    for reached in itertools.product(*pools):
        yield CrashPattern(tuple(zip(victims, rnds, reached)))


def _subsets(pool):
    out = []
    for size in range(len(pool) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(pool, size))
    return out


def pattern_outcome(programs, pattern: CrashPattern, rounds: int) -> tuple:
    """``pattern`` run alone through ``rounds`` rounds of ``sync_round``, as
    ``run_sync`` runs it: ``(decisions, crashed, flags)``, the victim pids
    as a frozenset and the rest as ``sync_decisions`` gives them."""
    pids = tuple(range(len(programs)))
    config = (tuple(programs[pid].state0 for pid in pids), pids)
    for rnd in range(1, rounds + 1):
        config, _ = sync_round(programs, config, rnd, pattern.in_round(rnd))
    decisions, flags = sync_decisions(programs, config)
    return decisions, frozenset(pattern.crash_round()), flags


def chain_patterns(programs, n: int, t: int, rounds: int):
    """Count every canonical crash pattern (``pattern_groups``) through
    ``rounds`` rounds, a group at a time and round by round. Yield
    ``(finals, patterns)`` per group, in order: ``finals`` maps each outcome
    of the group (as ``pattern_outcome`` gives it) to the number of its
    patterns that end there, and ``patterns`` lazily yields the group's
    ``CrashPattern``s in product order.

    A survivor's next state depends only on which of the round's victims
    reach it, and in a canonical group each round victim reaches any subset
    of its round's survivors apart from the others. So a round goes through
    a table keyed by (round, configuration, round-victim pids) that runs
    each live pid's ``round_send`` once and each survivor's ``round_recv``
    once per mask (the subset of the victims that reach it), and keeps each
    survivor's distinct next states, counted by mask. Round r steps each
    configuration of the layer of counts to the product, over survivors, of
    those next states, and adds the counts up by next configuration. The
    table is cleared whenever the victim pids change.
    """
    start = (tuple(programs[pid].state0 for pid in range(n)), tuple(range(n)))
    table: dict = {}
    decided: dict = {}  # last configuration -> outcome, cleared with table
    last = crashed = None

    def stepped(rnd, config, falling):
        """``(survivors, tallies)``: ``tallies[j]`` lists survivor j's
        distinct next states, each with the number of masks that reach it."""
        key = (rnd, config, falling)
        row = table.get(key)
        if row is None:
            states, alive = config
            bits = {pid: 1 << i for i, pid in enumerate(falling)}
            sent, payloads = {}, {}
            for pid in alive:
                sent[pid], payloads[pid] = programs[pid].round_send(states[pid], rnd)
            inboxes = [
                {src: payload for src, payload in payloads.items()
                 if src not in bits or mask & bits[src]}
                for mask in range(1 << len(falling))
            ]
            survivors = tuple(pid for pid in alive if pid not in bits)
            tallies = [
                list(Counter(programs[pid].round_recv(sent[pid], rnd, inbox)
                             for inbox in inboxes).items())
                for pid in survivors
            ]
            row = table[key] = survivors, tallies
        return row

    for victims, rnds, pools in pattern_groups(n, t, rounds, canonical=True):
        if victims != last:
            table.clear()
            decided.clear()
            last, crashed = victims, frozenset(victims)
        layer = {start: 1}
        for rnd in range(1, rounds + 1):
            falling = tuple(pid for pid, r in zip(victims, rnds) if r == rnd)
            counts: dict = {}
            for config, count in layer.items():
                survivors, tallies = stepped(rnd, config, falling)
                for picks in itertools.product(*tallies):
                    states = list(config[0])
                    for pid in falling:
                        states[pid] = None
                    weight = count
                    for pid, (state, times) in zip(survivors, picks):
                        states[pid] = state
                        weight *= times
                    nxt = tuple(states), survivors
                    counts[nxt] = counts.get(nxt, 0) + weight
            layer = counts
        finals: Counter = Counter()
        for config, count in layer.items():
            if config not in decided:
                decisions, flags = sync_decisions(programs, config)
                decided[config] = decisions, crashed, flags
            finals[decided[config]] += count
        yield finals, _patterns(victims, rnds, pools)


def random_pattern(rng, n, t, rounds) -> CrashPattern:
    """A random crash pattern with at most ``t`` victims (none without rounds)."""
    count = rng.randint(0, t) if rounds >= 1 else 0
    victims = sorted(rng.sample(range(n), count))
    chosen = []
    for pid in victims:
        rnd = rng.randint(1, rounds)
        reached = frozenset(q for q in range(n) if rng.random() < 0.5)
        chosen.append((pid, rnd, reached))
    return CrashPattern(tuple(chosen))
