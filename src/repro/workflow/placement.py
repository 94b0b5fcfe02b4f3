"""Placement core: which member runs which item, for both execution planes.

SciCumulus places each activation on a VM through one scheduler. This is
that decision for the :class:`~repro.workflow.affinity.AffinityRouter`
(a member is a worker-process slot) and the
:class:`~repro.workflow.distributed.Director` (a member is a worker
node). It holds no lock and knows no transport: each plane calls it
under its own lock and says, in its own terms, which victims are
``saturated`` and whether a taker ``may_steal``. The four rules —
sticky home, keyless least-loaded, demand-driven stealing from the
head, lossless removal — are :meth:`Placement.place`,
:meth:`Placement.take` and :meth:`Placement.remove`; the reasons for
each are in ``docs/ARCHITECTURE.md`` (*Placement*).
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Callable, Hashable
from typing import Any


def stable_hash(key: str) -> int:
    """Process-stable hash (builtin ``hash`` is salted per process)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def sticky_index(key: str, n: int) -> int:
    """Deterministic home index for ``key`` among ``n`` candidates.

    Same key + same candidate count = same home, in any process.
    """
    if n < 1:
        raise ValueError("need at least one placement candidate")
    return stable_hash(key) % n


class Placement:
    """Per-member backlogs, orphans and the four placement rules.

    ``running(member)`` reports how many items a member has taken and
    not yet finished; only keyless placement reads it.
    """

    def __init__(self, running: Callable[[Hashable], int] = lambda m: 0) -> None:
        self._running = running
        #: Every member ever added, in order: the sticky hash's domain.
        self._members: list[Hashable] = []
        #: Live members, in the order they were added.
        self.live: list[Hashable] = []
        #: Queued ``(key, item)`` entries per live member.
        self._backlogs: dict[Hashable, deque[tuple[str | None, Any]]] = {}
        #: Entries placed while no member was live; the next member to
        #: take anything drains them first.
        self._orphans: deque[tuple[str | None, Any]] = deque()
        self.steals = 0

    # -- membership ----------------------------------------------------------
    def add(self, member: Hashable) -> None:
        """Admit a new ``member`` (each is added once, never re-added)."""
        self._members.append(member)
        self.live.append(member)
        self._backlogs[member] = deque()

    def remove(self, member: Hashable) -> None:
        """Retire ``member``; re-place its backlog by the :meth:`place` rule."""
        self.live.remove(member)
        for key, item in self._backlogs.pop(member):
            self.place(item, key)

    # -- placement -----------------------------------------------------------
    def home(self, key: str | None) -> Hashable | None:
        """Where an item with ``key`` would be placed now (``None``: orphan)."""
        if not self.live:
            return None
        if key is None:
            return min(
                self.live,
                key=lambda m: len(self._backlogs[m]) + self._running(m),
            )
        member = self._members[sticky_index(key, len(self._members))]
        if member in self._backlogs:  # live members own a backlog
            return member
        return self.live[sticky_index(key, len(self.live))]

    def place(self, item: Any, key: str | None) -> Hashable | None:
        """Queue ``item`` on its home; returns the member, or ``None``
        when no member is live and the item was orphaned."""
        member = self.home(key)
        queue = self._orphans if member is None else self._backlogs[member]
        queue.append((key, item))
        return member

    def take(
        self,
        member: Hashable,
        *,
        may_steal: bool = False,
        saturated: Callable[[Hashable], bool] = lambda m: True,
    ) -> Any | None:
        """Next item for ``member``: own backlog, orphans, then a steal."""
        own = self._backlogs.get(member)
        if own is None:
            return None  # dead or never added
        if own:
            return own.popleft()[1]
        if self._orphans:
            return self._orphans.popleft()[1]
        if not may_steal:
            return None
        victims = [
            m
            for m in self.live
            if m != member and self._backlogs[m] and saturated(m)
        ]
        if not victims:
            return None
        victim = max(victims, key=lambda m: len(self._backlogs[m]))
        self.steals += 1
        return self._backlogs[victim].popleft()[1]

    # -- removal without running ---------------------------------------------
    def discard(self, item: Any) -> bool:
        """Drop a queued or orphaned ``item``; ``False`` if not queued."""
        for queue in (*self._backlogs.values(), self._orphans):
            for i, (_, queued) in enumerate(queue):
                if queued is item:
                    del queue[i]
                    return True
        return False

    def drain(self) -> list[Any]:
        """Empty every backlog and the orphans; returns the items."""
        items = [
            item
            for queue in (*self._backlogs.values(), self._orphans)
            for _, item in queue
        ]
        for queue in (*self._backlogs.values(), self._orphans):
            queue.clear()
        return items

    # -- inspection ----------------------------------------------------------
    def backlog(self, member: Hashable) -> list[Any]:
        """Items queued on ``member`` (empty for a dead member)."""
        return [item for _, item in self._backlogs.get(member, ())]

    @property
    def orphans(self) -> list[Any]:
        return [item for _, item in self._orphans]
