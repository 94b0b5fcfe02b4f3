"""Placement core: the four rules under generated operation sequences."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.placement import Placement, sticky_index

KEYS = st.sampled_from(["R0", "R1", "R2", "R3", "R4", None])

PLACE = st.tuples(st.just("place"), KEYS)
TAKE = st.tuples(
    st.just("take"),
    st.integers(0, 7),
    st.booleans(),
    st.integers(0, 255),  # saturated members, as a bit mask
)
# Placing and taking are listed twice so that generated runs build
# backlogs worth stealing from between membership changes.
OPS = st.one_of(
    st.tuples(st.just("add")),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    PLACE,
    PLACE,
    TAKE,
    TAKE,
    st.tuples(st.just("discard"), st.integers(0, 63)),
    st.tuples(st.just("finish"), st.integers(0, 63)),
)


class Item:
    """Identity-compared work item (``discard`` matches by identity)."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __repr__(self) -> str:
        return f"Item({self.n})"


class Model:
    """Drives one :class:`Placement` and checks it after every step."""

    def __init__(self) -> None:
        self.running: Counter = Counter()
        self.core = Placement(running=lambda m: self.running[m])
        self.members: list[int] = []
        self.placed: list[Item] = []
        self.taken: set[Item] = set()
        self.unfinished: list[tuple[Item, int]] = []  # (item, taker)
        self.discarded: set[Item] = set()

    def queued(self) -> dict[Item, list[int]]:
        where: dict[Item, list[int]] = {}
        for m in self.members:
            for item in self.core.backlog(m):
                where.setdefault(item, []).append(m)
        return where

    def check(self) -> None:
        where = self.queued()
        orphans = self.core.orphans
        assert len(set(map(id, orphans))) == len(orphans)
        for item in self.placed:
            states = [
                len(where.get(item, ())),
                orphans.count(item),
                int(item in self.taken),  # finished or not
                int(item in self.discarded),
            ]
            # Exactly one of: queued on one member, orphaned, taken,
            # discarded.
            assert sum(states) == 1, (item, states)
            for m in where.get(item, ()):
                assert m in self.core.live
        assert set(self.core.live) <= set(self.members)

    def step(self, op: tuple) -> None:
        kind = op[0]
        if kind == "add":
            member = len(self.members)
            self.members.append(member)
            self.core.add(member)
        elif kind == "remove":
            if not self.core.live:
                return
            member = self.core.live[op[1] % len(self.core.live)]
            unsettled = set(self.queued()) | set(self.core.orphans)
            self.core.remove(member)
            # Nothing is lost: every queued or orphaned item still is.
            after = set(self.queued()) | set(self.core.orphans)
            assert after == unsettled
            assert self.core.backlog(member) == []
            if not self.core.live:
                assert set(self.core.orphans) == unsettled
        elif kind == "place":
            key = op[1]
            item = Item(len(self.placed))
            self.placed.append(item)
            member = self.core.place(item, key)
            if member is None:
                assert not self.core.live
                assert self.core.orphans[-1] is item
                return
            assert self.core.backlog(member)[-1] is item
            if key is not None:
                home = self.members[sticky_index(key, len(self.members))]
                if home in self.core.live:
                    assert member == home
            else:
                load = {
                    m: len(self.core.backlog(m)) - (m == member) + self.running[m]
                    for m in self.core.live
                }
                assert load[member] == min(load.values())
        elif kind == "take":
            _, idx, may_steal, mask = op
            if not self.members:
                return
            member = self.members[idx % len(self.members)]
            saturated = {m for m in self.members if mask >> (m % 8) & 1}
            backlogs = {m: self.core.backlog(m) for m in self.core.live}
            own = self.core.backlog(member)
            orphans = self.core.orphans
            holders = {
                item: holders[0] for item, holders in self.queued().items()
            }
            steals = self.core.steals
            item = self.core.take(
                member, may_steal=may_steal, saturated=saturated.__contains__
            )
            if member not in self.core.live:
                assert item is None
                return
            if own:
                assert item is own[0]
            elif orphans:
                assert item is orphans[0]
            elif item is not None:
                victim = holders[item]
                # Only a thief that may steal takes, only from a
                # saturated victim, and only the victim's oldest item.
                assert may_steal and victim in saturated and victim != member
                assert item is backlogs[victim][0]
                assert self.core.steals == steals + 1
                longest = max(
                    len(self.core.backlog(m)) + (m == victim)
                    for m in self.core.live
                    if m != member and m in saturated
                )
                assert len(self.core.backlog(victim)) + 1 == longest
            if item is not None:
                self.taken.add(item)
                self.unfinished.append((item, member))
                self.running[member] += 1
            else:
                assert self.core.steals == steals
        elif kind == "discard":
            if not self.placed:
                return
            item = self.placed[op[1] % len(self.placed)]
            queued = item in self.queued() or item in self.core.orphans
            assert self.core.discard(item) is queued
            if queued:
                self.discarded.add(item)
        elif kind == "finish":
            if not self.unfinished:
                return
            _, taker = self.unfinished.pop(op[1] % len(self.unfinished))
            self.running[taker] -= 1


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, min_size=10, max_size=80))
def test_placement_invariants_hold_under_any_sequence(ops):
    model = Model()
    for op in [("add",), ("add",), *ops]:
        model.step(op)
        model.check()
    # Shutdown drains exactly the unsettled items.
    unsettled = set(model.queued()) | set(model.core.orphans)
    assert set(model.core.drain()) == unsettled
    assert not model.queued() and not model.core.orphans


def test_sticky_home_falls_back_to_live_rehash():
    core = Placement()
    for member in ("a", "b", "c"):
        core.add(member)
    key = next(k for k in map(str, range(100)) if sticky_index(k, 3) == 1)
    assert core.place(object(), key) == "b"
    core.remove("b")
    # The dead home's backlog and later keyed items re-hash over the
    # live members, deterministically per key.
    expected = ["a", "c"][sticky_index(key, 2)]
    assert core.home(key) == expected
    assert len(core.backlog(expected)) == 1


def test_steal_takes_the_oldest_item_of_the_longest_saturated_backlog():
    members = ["idle", "short", "long", "calm"]
    core = Placement()
    for member in members:
        core.add(member)

    def key_for(member):
        return next(
            k for k in map(str, range(1000))
            if sticky_index(k, len(members)) == members.index(member)
        )

    queued = {"short": 1, "long": 3, "calm": 4}
    items = {m: [object() for _ in range(n)] for m, n in queued.items()}
    for member, batch in items.items():
        for item in batch:
            assert core.place(item, key_for(member)) == member
    saturated = {"short", "long"}.__contains__  # "calm" is about to drain
    assert core.take("idle", may_steal=False, saturated=saturated) is None
    assert core.take("idle", may_steal=True, saturated=saturated) is items["long"][0]
    assert core.take("idle", may_steal=True, saturated=saturated) is items["long"][1]
    assert core.steals == 2
    assert core.backlog("calm") == items["calm"]


def test_orphans_drain_to_the_next_member():
    core = Placement()
    core.add("old")
    items = [object() for _ in range(3)]
    for item in items:
        core.place(item, "R1")
    core.remove("old")
    assert core.orphans == items
    core.add("new")
    assert [core.take("new") for _ in range(3)] == items
    assert core.take("new") is None
