"""The shared dataflow dispatch core.

SciCumulus' algebra makes every MAP/FILTER/SPLIT_MAP activation a
per-tuple unit of work, so a tuple that finishes one activity early can
flow straight into the next without waiting for its cohort. This module
owns that dataflow:

* :class:`DataflowState` — the activation DAG over a linear
  :class:`~repro.workflow.activity.Workflow`. Every output tuple of a
  MAP/SPLIT_MAP/FILTER activation immediately spawns its downstream
  activation as a :class:`WorkItem`; barriers exist only at REDUCE
  (which by definition needs its whole upstream), or at every stage when
  ``pipeline=False`` (the historical activity-by-activity mode, kept as
  an escape hatch and as the baseline for the pipelining benchmark).
* :class:`ReadyQueue` — a priority queue of dispatchable work items
  driven by the :class:`~repro.workflow.scheduler.Scheduler` interface
  (``None`` = FIFO arrival order). The coordinator pops from it on
  every plane, so a scheduling policy reorders *real* dispatch, not
  just simulated dispatch.
* :func:`lineage_key` — stable tuple identity under pipelining. Keys
  keep their semantic forms (an explicit ``key`` field, the SciDock
  ``ligand_receptor`` convention) when available; the positional
  fallback, which was enumeration-order dependent and therefore
  meaningless once completion order is nondeterministic, becomes a hash
  of (parent key, child activity tag, output ordinal) — deterministic
  regardless of which tuple finishes first.

When constructed with a provenance store, :class:`DataflowState`
records an ``hdependency`` edge for every spawned tuple (child key +
activity, parent key + activity), so PROV-Wf lineage queries can walk an
output tuple back through its full activation chain even though stages
no longer run in lockstep.

The state object is *not* thread-safe: engines must call ``seed`` /
``complete`` / ``retire`` from the single coordinator thread
(:class:`~repro.workflow.coordinator.Coordinator`), which both engines
run.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import dataclass, field

from repro.provenance.store import ProvenanceStore
from repro.workflow.activity import Operator, Workflow
from repro.workflow.relation import Relation, tuple_key
from repro.workflow.scheduler import PendingActivation, Scheduler

#: Prefix of hash-derived (non-semantic) lineage keys.
LINEAGE_PREFIX = "lin-"


def lineage_key(tup: dict, parent_key: str, tag: str, ordinal: int) -> str:
    """Completion-order-independent key for a spawned tuple.

    Semantic identities win — an explicit ``key`` field, then the
    SciDock ``<ligand>_<receptor>`` convention — matching
    :func:`~repro.workflow.relation.tuple_key` so steering rules and
    recovery plans keep addressing tuples the same way. Only the
    positional fallback changes: instead of the enumeration index into a
    shared output list (racy under pipelining), the key hashes the
    parent's key, the child activity tag and the ordinal of this output
    *within its own parent's emission* — all three are fixed at spawn
    time no matter when sibling tuples finish.
    """
    if "key" in tup:
        return str(tup["key"])
    if "ligand_id" in tup and "receptor_id" in tup:
        return f"{tup['ligand_id']}_{tup['receptor_id']}"
    digest = hashlib.sha256(
        f"{parent_key}|{tag}|{ordinal}".encode()
    ).hexdigest()[:12]
    return f"{LINEAGE_PREFIX}{digest}"


@dataclass
class WorkItem:
    """One dispatchable activation: a tuple at a workflow stage."""

    stage: int
    tup: dict
    key: str
    parent_key: str | None = None


class ReadyQueue:
    """Scheduler-ordered pool of dispatchable :class:`WorkItem`\\ s.

    With a :class:`~repro.workflow.scheduler.Scheduler`, pop order
    follows ``job_priority`` (highest first); *equal* priorities break
    deterministically on the lineage key (lexicographic), then arrival.
    Under pipelining, arrival order is completion order — which thread
    or node finished first — so a FIFO tie-break would make dispatch
    order nondeterministic run to run; the key tie-break is what lets
    the distributed pull protocol hand out identical task sequences for
    identical inputs. Without a scheduler, pop order is plain FIFO
    arrival — the pre-refactor LocalEngine behavior, where arrival *is*
    the intended order.

    ``cost_fn`` supplies each pushed item's expected cost when the
    caller doesn't pass one explicitly — this is how the engines feed
    *learned* online service-time estimates into placement instead of
    the static per-activity table.
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        cost_fn=None,
    ) -> None:
        self.scheduler = scheduler
        self.cost_fn = cost_fn
        self._heap: list[tuple[float, str, int, WorkItem]] = []
        self._seq = itertools.count()
        self._arrivals = itertools.count()

    def push(self, item: WorkItem, expected_cost: float | None = None) -> None:
        if expected_cost is None:
            expected_cost = self.cost_fn(item) if self.cost_fn else 0.0
        if self.scheduler is None:
            priority = 0.0
            tiebreak = ""
        else:
            priority = self.scheduler.job_priority(
                PendingActivation(
                    key=item.key,
                    expected_cost=expected_cost,
                    arrival=next(self._arrivals),
                )
            )
            tiebreak = item.key
        heapq.heappush(self._heap, (-priority, tiebreak, next(self._seq), item))

    def pop(self) -> WorkItem:
        return heapq.heappop(self._heap)[3]

    def items(self):
        """Iterate queued work items (no particular order)."""
        for _, _, _, item in self._heap:
            yield item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass
class _StageBuffer:
    """Tuples parked at a barrier stage until its upstream drains."""

    entries: list[tuple[dict, str, str | None]] = field(default_factory=list)


class DataflowState:
    """Activation DAG bookkeeping shared by both engines.

    The engine owns *when* and *where* items run; this class owns *what
    becomes ready when*: spawning downstream items as outputs arrive,
    holding barrier stages (REDUCE always; every stage when
    ``pipeline=False``) until their upstream fully drains, assigning
    lineage-stable keys, counting spawned activations, collecting final
    outputs, and recording activation-dependency edges into provenance.
    """

    def __init__(
        self,
        workflow: Workflow,
        *,
        pipeline: bool = True,
        store: ProvenanceStore | None = None,
        wkfid: int | None = None,
        actids: dict[str, int] | None = None,
        journal=None,
    ) -> None:
        self.workflow = workflow
        self.pipeline = pipeline
        self.store = store
        self.wkfid = wkfid
        self.actids = actids or {}
        #: Optional :class:`~repro.workflow.journal.RunJournal`: every
        #: released item logs a ``scheduled`` event, every successful
        #: completion a ``completed`` event (flush barrier) — the
        #: crash-resume record.
        self.journal = journal
        self._n = len(workflow.activities)
        #: Spawned-but-not-retired items per stage.
        self._inflight = [0] * self._n
        self._buffers: dict[int, _StageBuffer] = {}
        #: Barrier stages whose buffered work has been released.
        self._fired: set[int] = set()
        #: Every WorkItem ever released (includes later-blocked items and
        #: the single REDUCE activation per REDUCE stage) — the report's
        #: ``total_activations``.
        self.spawned = 0
        #: Output tuples that flowed past the last activity.
        self.final: list[dict] = []

    # -- queries -------------------------------------------------------------
    def _is_barrier(self, stage: int) -> bool:
        if self.workflow.activities[stage].operator is Operator.REDUCE:
            return True
        return not self.pipeline

    def done(self) -> bool:
        """No in-flight work anywhere (barriers release eagerly)."""
        return not any(self._inflight)

    # -- transitions ---------------------------------------------------------
    def seed(self, relation: Relation) -> list[WorkItem]:
        """Feed the input relation into stage 0; returns ready items."""
        items: list[WorkItem] = []
        for i, tup in enumerate(relation):
            items.extend(self._spawn(0, dict(tup), tuple_key(tup, i), None))
        items.extend(self._release())
        return items

    def complete(
        self, item: WorkItem, outputs: list[dict], *, record: bool = True
    ) -> list[WorkItem]:
        """Retire ``item`` with its outputs; returns newly-ready items.

        Outputs past the last activity land in :attr:`final`; others
        spawn downstream activations (possibly parked at a barrier).
        A successful completion is journaled through the flush barrier
        (``record=False`` is the :meth:`retire` path — the engine logs
        the failed/aborted/blocked event itself).
        """
        if record and self.journal is not None:
            self.journal.completed(item.stage, item.key, outputs)
        self._inflight[item.stage] -= 1
        items: list[WorkItem] = []
        nxt = item.stage + 1
        if nxt >= self._n:
            self.final.extend(outputs)
        else:
            child_tag = self.workflow.activities[nxt].tag
            for k, out in enumerate(outputs):
                key = lineage_key(out, item.key, child_tag, k)
                items.extend(self._spawn(nxt, out, key, item.key))
        items.extend(self._release())
        return items

    def retire(self, item: WorkItem) -> list[WorkItem]:
        """Retire ``item`` without outputs (blocked/aborted/failed)."""
        return self.complete(item, [], record=False)

    # -- internals -----------------------------------------------------------
    def _spawn(
        self, stage: int, tup: dict, key: str, parent_key: str | None
    ) -> list[WorkItem]:
        activity = self.workflow.activities[stage]
        if activity.operator is Operator.REDUCE:
            # All contributions collapse into one activation whose key is
            # the stage itself; each contributing parent gets an edge.
            self._record_edge(stage, f"reduce-{activity.tag}", parent_key)
            self._buffers.setdefault(stage, _StageBuffer()).entries.append(
                (tup, key, parent_key)
            )
            return []
        self._record_edge(stage, key, parent_key)
        if not self.pipeline and stage not in self._fired:
            self._buffers.setdefault(stage, _StageBuffer()).entries.append(
                (tup, key, parent_key)
            )
            return []
        return [self._emit(stage, tup, key, parent_key)]

    def _emit(
        self, stage: int, tup: dict, key: str, parent_key: str | None
    ) -> WorkItem:
        self._inflight[stage] += 1
        self.spawned += 1
        if self.journal is not None:
            self.journal.scheduled(stage, key, tup, parent_key)
        return WorkItem(stage, tup, key, parent_key)

    def _release(self) -> list[WorkItem]:
        """Fire barrier stages whose entire upstream has drained.

        Scans stages in order, stopping at the first stage with live
        work: a barrier further downstream cannot fire while anything
        upstream of it might still emit. Firing cascades through empty
        barriers (e.g. a REDUCE over an empty filtered stream still runs
        exactly once, over zero tuples — matching the historical
        engines).
        """
        released: list[WorkItem] = []
        for stage in range(self._n):
            if stage not in self._fired and self._is_barrier(stage):
                self._fired.add(stage)
                activity = self.workflow.activities[stage]
                buffer = self._buffers.pop(stage, _StageBuffer())
                if activity.operator is Operator.REDUCE:
                    tuples = [t for t, _, _ in buffer.entries]
                    released.append(
                        self._emit(
                            stage,
                            {"__tuples__": tuples},
                            f"reduce-{activity.tag}",
                            None,
                        )
                    )
                else:
                    for tup, key, parent in buffer.entries:
                        released.append(self._emit(stage, tup, key, parent))
            if self._inflight[stage]:
                break
        return released

    def _record_edge(
        self, stage: int, child_key: str, parent_key: str | None
    ) -> None:
        if self.store is None or self.wkfid is None or parent_key is None:
            return
        child_tag = self.workflow.activities[stage].tag
        parent_tag = self.workflow.activities[stage - 1].tag
        self.store.record_dependency(
            self.wkfid,
            child_key,
            self.actids.get(child_tag, 0),
            parent_key,
            self.actids.get(parent_tag, 0),
        )
