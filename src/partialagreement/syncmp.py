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

``sync_round`` runs one round from a configuration; ``run_sync`` chains it
over every round and logs every message. ``pattern_groups`` enumerates the
crash patterns a group at a time, one group per (victims, rounds), and
``chain_patterns``, the explorer's walk, checks and splits each group once,
runs it round by round with a count per configuration, and gives each of
its outcomes with the number of patterns that reach it. A survivor's next
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

    def as_group(self) -> tuple:
        """This pattern as a one-pattern group (see ``pattern_groups``)."""
        return (
            tuple(p for p, _, _ in self.victims),
            tuple(r for _, r, _ in self.victims),
            [(rcpts,) for _, _, rcpts in self.victims],
        )

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
    for victims, rnds, pools in pattern_groups(n, t, rounds, canonical=canonical):
        for reached in itertools.product(*pools):
            yield CrashPattern(tuple(zip(victims, rnds, reached)))


def _subsets(pool):
    out = []
    for size in range(len(pool) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(pool, size))
    return out


class _Token:
    """A crash pattern's replay token, built only when encoded."""

    __slots__ = ("victims", "rnds", "reached")

    def __init__(self, victims, rnds, reached):
        self.victims, self.rnds, self.reached = victims, rnds, reached

    def encode(self) -> str:
        return CrashPattern(tuple(zip(self.victims, self.rnds, self.reached))).encode()


def chain_patterns(programs, n: int, t: int, rounds: int, groups):
    """Run every pattern of ``groups`` (as ``pattern_groups`` yields them)
    through ``rounds`` rounds, a group at a time and round by round. Yield
    ``(finals, patterns)`` per group, in order:

    - ``finals`` maps each outcome of the group, ``(decisions, crashed,
      flags)`` with the victim pids as a frozenset and the rest as
      ``sync_decisions`` gives them, to the number of its patterns that end
      there;
    - ``patterns()`` walks the group again, pattern by pattern in product
      order, and yields ``(outcome, token)`` per pattern: its key in
      ``finals``, and an object whose ``encode()`` is the pattern's token.
      Call it before asking for the next group.

    Each group is checked once, before any round (SpecError): as
    ``CrashPattern.validate`` checks every pattern of it, and for product
    form, either one pattern (each pool one reach set; recipients that are
    not survivors are ignored) or every pool every subset of its round's
    survivors. A survivor's next state depends only on which of the round's
    victims reach it, so a round goes through a table keyed by (round,
    configuration, round-victim pids) that runs each live pid's
    ``round_send`` once and each survivor's ``round_recv`` once per mask,
    the subset of the round's victims that reach it. In a larger group each
    round victim reaches any subset of the survivors apart from the others,
    so round r steps each configuration of the layer of counts
    (``{start: 1}`` before round 1) to the product, over survivors, of their
    distinct next states, each counted by the masks that reach it, and adds
    the counts up by next configuration. A one-pattern group, and each
    pattern of ``patterns()``, reads the table through the pattern's masks
    instead. The table is cleared whenever the victim pids change, which
    bounds it while the groups of one victims tuple come together.
    """
    start = (tuple(programs[pid].state0 for pid in range(n)), tuple(range(n)))
    table: dict = {}
    decided: dict = {}  # last configuration -> outcome, cleared with table
    last = crashed = None

    def stepped(rnd, config, falling):
        """``(survivors, nexts, tallies)``: ``nexts[j][mask]`` is survivor j's
        next state when the victims in ``mask`` reach it (bit i for
        ``falling[i]``), and ``tallies[j]`` its distinct ones, counted."""
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
            nexts = [
                [programs[pid].round_recv(sent[pid], rnd, inbox) for inbox in inboxes]
                for pid in survivors
            ]
            tallies = [list(Counter(by_mask).items()) for by_mask in nexts]
            row = table[key] = survivors, nexts, tallies
        return row

    def after(config, falling, survivors, picks):
        states = list(config[0])
        for pid in falling:
            states[pid] = None
        for pid, state in zip(survivors, picks):
            states[pid] = state
        return tuple(states), survivors

    def final(config):
        out = decided.get(config)
        if out is None:
            decisions, flags = sync_decisions(programs, config)
            out = decided[config] = decisions, crashed, flags
        return out

    def walk(shape, reached):
        config = start
        for rnd, falling, at in shape:
            survivors, nexts, _ = stepped(rnd, config, falling)
            bits = [(1 << bit, reached[i]) for bit, i in enumerate(at)]
            config = after(config, falling, survivors, [
                row[sum(b for b, rcpts in bits if pid in rcpts)]
                for pid, row in zip(survivors, nexts)
            ])
        return final(config)

    for victims, rnds, pools in groups:
        reach = [frozenset().union(*pool) for pool in pools]
        CrashPattern(tuple(zip(victims, rnds, reach))).validate(n, t, rounds)
        one = all(len(pool) == 1 for pool in pools)
        # a larger group lets each victim reach any set of its round's survivors
        for i, pool in enumerate(() if one else pools):
            alive = frozenset(range(n)) - {p for p, r in zip(victims, rnds) if r <= rnds[i]}
            if not (reach[i] <= alive and len(set(pool)) == len(pool) == 1 << len(alive)):
                raise SpecError(f"victim {victims[i]} must reach one set, or any set of survivors")
        shape = []  # per round: its victims, and their indices in the group
        for rnd in range(1, rounds + 1):
            at = [i for i, r in enumerate(rnds) if r == rnd]
            shape.append((rnd, tuple(victims[i] for i in at), at))
        if victims != last:
            table.clear()
            decided.clear()
            last, crashed = victims, frozenset(victims)
        if one:
            finals = {walk(shape, [pool[0] for pool in pools]): 1}
        else:
            layer = {start: 1}
            for rnd, falling, _ in shape:
                counts: dict = {}
                for config, count in layer.items():
                    survivors, _, tallies = stepped(rnd, config, falling)
                    for picks in itertools.product(*tallies):
                        weight = count
                        for _, times in picks:
                            weight *= times
                        nxt = after(config, falling, survivors, [state for state, _ in picks])
                        counts[nxt] = counts.get(nxt, 0) + weight
                layer = counts
            finals = {}
            for config, count in layer.items():
                out = final(config)
                finals[out] = finals.get(out, 0) + count

        def patterns():
            for reached in itertools.product(*pools):
                yield walk(shape, reached), _Token(victims, rnds, reached)

        yield finals, patterns


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
