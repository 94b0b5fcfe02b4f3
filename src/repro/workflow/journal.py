"""Event-sourced run journal: the run loop's one write path and resume path.

Every coordinator state transition is appended to an ``hjournal`` event
log with a per-run monotonic sequence number, and the log alone is
enough to rebuild the run — the way durable workflow engines
(Temporal-style event sourcing; the prospective-vs-retrospective split
of the provenance literature) do it. The journal is also the only
writer of run state for the coordinator, the attempt runner and the
simulated plane: the attempt and pre-dispatch emitters write the
activation's ``hactivation`` row in the same store call as their event
and return its task id, and :meth:`RunJournal.attempt_ended` closes the
row.

Event taxonomy (one row each, ``seq`` strictly monotonic per run):

=================  ==========================================================
``run-started``    run header: workflow tag, pipeline mode, relation size,
                   a picklable snapshot of the run context, and — for
                   resumed runs — the ``resumed_from`` ancestor wkfid
``scheduled``      a :class:`~repro.workflow.dataflow.WorkItem` became
                   ready (payload: its input tuple + parent key)
``dispatched``     the coordinator handed the item to a worker
``attempt-start``  one activation attempt began (payload: attempt number,
                   speculative flag); writes the RUNNING activation row
``completed``      the item retired successfully (payload: its output
                   tuples) — **flush barrier**
``failed``         the item retired with a terminal failure — **barrier**
``aborted``        watchdog timeout / predicate or looper abort /
                   speculation loss — **barrier**
``blocked``        retired pre-dispatch (steering rule, Hg-style
                   predicate) — **barrier**; writes the BLOCKED row
``replayed``       a resumed run satisfied the item from an ancestor's
                   journal instead of executing it
``resized``        the elastic pool changed size (payload: target)
``steered``        a runtime steering decision fired
``run-finished``   the coordinator loop drained — **barrier**
=================  ==========================================================

Flush-barrier semantics: the store has one durability rule — a barrier
event flushes, and a flush drains every buffer under one commit. An
attempt's row is buffered when it starts and closed in the buffer when
it ends, so it commits with the terminal event that follows it; a
reader in another process sees it from that barrier on. The instant the
coordinator *acts* on a completion the fact is durable: a SIGKILL can
lose RUNNING noise or a retried attempt's FAILED row, never a completed
tuple.

Replay: :func:`replay_journal` folds the log into a
:class:`JournalReplay` — completed outputs by ``(stage, key)``, terminal
states, the stage-0 seed relation, the recovered run context — and
:meth:`LocalEngine.resume <repro.workflow.engine.LocalEngine.resume>`
re-runs the workflow against it: because lineage keys are deterministic
functions of (parent key, activity tag, output ordinal), re-seeding the
same relation regenerates the same item keys, and every key the journal
marks ``completed`` is satisfied from the logged outputs with zero
re-execution. Everything else — items the crashed run left RUNNING,
FAILED or timed out, and keys a larger relation adds — runs for real,
and blocked or predicate-aborted items are blocked or aborted again at
decision time. A run without a journal cannot be resumed.

Payloads are read back with a restricted unpickler
(:func:`decode_payload`): builtin containers and scalars, plus classes
defined under ``repro.``; anything else is refused, never called.
"""

from __future__ import annotations

import builtins
import io
import itertools
import pickle
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.provenance.store import ActivationStatus, ProvenanceStore
from repro.workflow.relation import Relation


class JournalError(RuntimeError):
    """Raised for unreplayable or corrupt journals."""


class JournalEventType(str, Enum):
    RUN_STARTED = "run-started"
    SCHEDULED = "scheduled"
    DISPATCHED = "dispatched"
    ATTEMPT_STARTED = "attempt-start"
    COMPLETED = "completed"
    FAILED = "failed"
    ABORTED = "aborted"
    BLOCKED = "blocked"
    REPLAYED = "replayed"
    RESIZED = "resized"
    STEERED = "steered"
    #: Distributed plane only: a worker node joined the director
    #: (payload: rank, slots) or was declared lost (heartbeat loss /
    #: connection EOF; payload: reason, in-flight keys re-placed).
    NODE_JOINED = "node-joined"
    NODE_LOST = "node-lost"
    RUN_FINISHED = "run-finished"


#: Events written through the synchronous flush barrier: once recorded,
#: a crash cannot lose them. Everything else may ride the write buffer.
BARRIER_EVENTS = frozenset({
    JournalEventType.COMPLETED,
    JournalEventType.FAILED,
    JournalEventType.ABORTED,
    JournalEventType.BLOCKED,
    JournalEventType.RUN_FINISHED,
})

#: Terminal per-item events: an item with one of these never re-enters
#: the frontier of the run that logged it.
TERMINAL_EVENTS = frozenset({
    JournalEventType.COMPLETED.value,
    JournalEventType.FAILED.value,
    JournalEventType.ABORTED.value,
    JournalEventType.BLOCKED.value,
})

#: Context keys never journaled: live runtime objects owned by the
#: coordinator process (thread locks, queues, open stores) that a
#: resumed run must rebuild, not unpickle.
UNJOURNALED_CONTEXT_KEYS = frozenset({
    "caches", "fs", "steering", "cancel_token",
    "wkfid", "artifact_plane", "cache_token", "worker_process",
})


def encode_payload(obj: object) -> bytes | None:
    """Pickle a payload; ``None`` when it can't be (degrades to re-run)."""
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


#: Builtins a payload may name: containers and scalars.
_PAYLOAD_BUILTINS = frozenset({
    "bool", "bytearray", "bytes", "complex", "dict", "float", "frozenset",
    "int", "list", "range", "set", "slice", "str", "tuple",
})


class _PayloadUnpickler(pickle.Unpickler):
    """Resolves only builtin containers/scalars and ``repro.`` classes.

    A payload naming anything else (a function, a class from another
    package — e.g. ``os.system`` or ``subprocess.Popen``) is refused
    before it can be called.
    """

    def find_class(self, module: str, name: str):
        if module == "builtins" and name in _PAYLOAD_BUILTINS:
            return getattr(builtins, name)
        if module == "repro" or module.startswith("repro."):
            obj = super().find_class(module, name)
            if isinstance(obj, type) and obj.__module__.startswith("repro."):
                return obj
        raise pickle.UnpicklingError(
            f"journal payload names {module}.{name}, which is not allowed"
        )


def decode_payload(blob: bytes | None) -> object | None:
    """Unpickle a payload; ``None`` when absent, refused or corrupt."""
    if blob is None:
        return None
    try:
        return _PayloadUnpickler(io.BytesIO(blob)).load()
    except Exception:
        return None


def journal_safe_context(context: dict | None) -> dict:
    """The picklable, re-shippable subset of a run context."""
    safe: dict = {}
    for k, v in (context or {}).items():
        if k in UNJOURNALED_CONTEXT_KEYS:
            continue
        if encode_payload(v) is None:
            continue
        safe[k] = v
    return safe


class RunJournal:
    """Append-only event writer for one run (thread-safe sequencing).

    One instance per ``wkfid``; the engines thread it through
    :class:`~repro.workflow.dataflow.DataflowState` (schedule/complete
    events), the :class:`~repro.workflow.coordinator.Coordinator`
    (dispatch-time decisions) and the execution planes (attempts). It is
    their only writer of activation rows. ``clock`` supplies event
    timestamps relative to the run start; callers that already hold a
    timestamp pass ``ts`` instead.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        wkfid: int,
        *,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.store = store
        self.wkfid = wkfid
        self.clock = clock
        self._seq = itertools.count()

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def record(
        self,
        event: JournalEventType,
        *,
        stage: int = -1,
        key: str = "",
        payload: object = None,
        ts: float | None = None,
        barrier: bool | None = None,
        activation: dict | None = None,
    ) -> int:
        """Append one event; with ``activation`` (hactivation columns)
        also queue that row in the same store call and return its task
        id (otherwise the event id)."""
        if ts is None:
            ts = self._now()
        if barrier is None:
            barrier = event in BARRIER_EVENTS
        return self.store.record_journal_event(
            self.wkfid,
            next(self._seq),
            event.value,
            stage,
            key,
            ts,
            encode_payload(payload) if payload is not None else None,
            barrier=barrier,
            activation=activation,
        )

    # -- event emitters (thin, named for grep-ability) -----------------------
    def run_started(
        self,
        workflow_tag: str,
        *,
        pipeline: bool,
        context: dict | None,
        relation_size: int,
        resumed_from: int | None = None,
    ) -> None:
        self.record(
            JournalEventType.RUN_STARTED,
            payload={
                "workflow": workflow_tag,
                "pipeline": pipeline,
                "context": journal_safe_context(context),
                "relation_size": relation_size,
                "resumed_from": resumed_from,
            },
            barrier=True,
        )

    def scheduled(self, stage: int, key: str, tup: dict,
                  parent_key: str | None) -> None:
        self.record(
            JournalEventType.SCHEDULED,
            stage=stage,
            key=key,
            payload={"tup": tup, "parent_key": parent_key},
        )

    def dispatched(self, stage: int, key: str, node: str | None = None) -> None:
        """The coordinator handed the item to a worker.

        ``node`` records the placement decision on the distributed plane
        (the sticky home node's id), so a post-crash audit can see where
        every in-flight item was when the director died.
        """
        self.record(
            JournalEventType.DISPATCHED,
            stage=stage,
            key=key,
            payload={"node": node} if node is not None else None,
        )

    def attempt_started(
        self, key: str, tag: str, attempt: int, *, actid: int,
        speculative: bool = False, ts: float | None = None,
        workdir: str = "", vm_id: str = "", core_index: int = -1,
    ) -> int:
        """One activation attempt began: its RUNNING ``hactivation`` row
        and its ``attempt-start`` event. Returns the row's task id."""
        if ts is None:
            ts = self._now()
        return self.record(
            JournalEventType.ATTEMPT_STARTED,
            key=key,
            payload={"tag": tag, "attempt": attempt, "speculative": speculative},
            ts=ts,
            activation={
                "actid": actid,
                "tuple_key": key,
                "starttime": ts,
                "vm_id": vm_id,
                "core_index": core_index,
                "workdir": workdir,
                "attempt": attempt,
                "speculative": 1 if speculative else 0,
            },
        )

    def attempt_ended(
        self,
        taskid: int,
        ts: float,
        status: ActivationStatus = ActivationStatus.FINISHED,
        exitstatus: int = 0,
        errormsg: str = "",
    ) -> None:
        """Close an attempt's row. No event: the row stays buffered
        until the next barrier — the item's terminal event, whenever
        this attempt decides the item."""
        self.store.end_activation(taskid, ts, status, exitstatus, errormsg)

    @staticmethod
    def _decided_row(
        actid: int, key: str, ts: float, status: ActivationStatus,
        exitstatus: int, errormsg: str, workdir: str = "",
    ) -> dict:
        """Row of an item retired at decision time (start = end = ts)."""
        return {
            "actid": actid,
            "tuple_key": key,
            "starttime": ts,
            "endtime": ts,
            "status": status.value,
            "exitstatus": exitstatus,
            "errormsg": errormsg,
            "workdir": workdir,
        }

    def completed(self, stage: int, key: str, outputs: list[dict],
                  ts: float | None = None) -> None:
        self.record(
            JournalEventType.COMPLETED,
            stage=stage,
            key=key,
            payload={"outputs": outputs},
            ts=ts,
        )

    def failed(self, stage: int, key: str, reason: str = "",
               ts: float | None = None) -> None:
        self.record(JournalEventType.FAILED, stage=stage, key=key,
                    payload={"reason": reason}, ts=ts)

    def aborted(self, stage: int, key: str, reason: str = "",
                ts: float | None = None, *, actid: int | None = None,
                errormsg: str | None = None, workdir: str = "") -> int:
        """The item was aborted. With ``actid`` it was aborted at decision
        time, before reaching a worker: its ABORTED row (``errormsg``,
        defaulting to ``reason``) is written with the event and the
        row's task id returned."""
        if ts is None:
            ts = self._now()
        row = None
        if actid is not None:
            row = self._decided_row(
                actid, key, ts, ActivationStatus.ABORTED, 137,
                reason if errormsg is None else errormsg, workdir,
            )
        return self.record(JournalEventType.ABORTED, stage=stage, key=key,
                           payload={"reason": reason}, ts=ts, activation=row)

    def blocked(self, stage: int, key: str, reason: str = "",
                ts: float | None = None, *, actid: int) -> int:
        """The item was retired before dispatch: its BLOCKED row and the
        ``blocked`` event. Returns the row's task id."""
        if ts is None:
            ts = self._now()
        row = self._decided_row(
            actid, key, ts, ActivationStatus.BLOCKED, 0, reason
        )
        return self.record(JournalEventType.BLOCKED, stage=stage, key=key,
                           payload={"reason": reason}, ts=ts, activation=row)

    def replayed(self, stage: int, key: str) -> None:
        self.record(JournalEventType.REPLAYED, stage=stage, key=key)

    def steered(self, stage: int, key: str, action: str) -> None:
        self.record(JournalEventType.STEERED, stage=stage, key=key,
                    payload={"action": action})

    def resized(self, target: int, active: int) -> None:
        self.record(JournalEventType.RESIZED,
                    payload={"target": target, "was": active})

    def node_joined(self, node_id: str, rank: int, slots: int) -> None:
        self.record(
            JournalEventType.NODE_JOINED,
            key=node_id,
            payload={"rank": rank, "slots": slots},
            barrier=True,
        )

    def node_lost(self, node_id: str, reason: str, inflight: int) -> None:
        self.record(
            JournalEventType.NODE_LOST,
            key=node_id,
            payload={"reason": reason, "inflight": inflight},
            barrier=True,
        )

    def run_finished(self, ts: float | None = None,
                     stats: dict | None = None) -> None:
        self.record(JournalEventType.RUN_FINISHED, ts=ts, payload=stats)


@dataclass
class JournalReplay:
    """Folded view of one run's journal, ready to drive a resume."""

    wkfid: int
    workflow_tag: str = ""
    pipeline: bool = True
    context: dict = field(default_factory=dict)
    resumed_from: int | None = None
    #: ``(stage, key) -> input tuple`` for every scheduled item (input
    #: tuple is ``None`` when the payload didn't survive pickling).
    scheduled: dict = field(default_factory=dict)
    #: ``(stage, key) -> list of output tuples`` for durably completed
    #: items — the zero-recomputation cache.
    completed: dict = field(default_factory=dict)
    #: ``(stage, key) -> terminal event name`` (completed/failed/...).
    terminal: dict = field(default_factory=dict)
    #: Stage-0 keys in schedule order (reconstructs the seed relation).
    seed_keys: list = field(default_factory=list)
    events: int = 0
    max_seq: int = -1
    finished: bool = False

    def outputs_for(self, stage: int, key: str) -> list | None:
        """Cached outputs if this (stage, key) completed durably."""
        return self.completed.get((stage, key))

    def frontier(self) -> list:
        """Scheduled-but-not-terminal items: ``(stage, key, tup)``.

        The ready-queue frontier the crashed coordinator owed work to.
        (Tuples parked behind an unfired barrier are not listed — their
        parents' ``completed`` events regenerate them on resume.)
        """
        return [
            (stage, key, tup)
            for (stage, key), tup in self.scheduled.items()
            if (stage, key) not in self.terminal
        ]

    def seed_relation(self, name: str | None = None) -> Relation:
        """Rebuild the input relation from stage-0 scheduled events."""
        tuples = []
        for key in self.seed_keys:
            tup = self.scheduled.get((0, key))
            if tup is None:
                raise JournalError(
                    f"run {self.wkfid}: seed tuple {key!r} was not "
                    "journaled replayably; pass the relation explicitly"
                )
            tuples.append(tup)
        if not tuples:
            raise JournalError(
                f"run {self.wkfid}: no seed tuples journaled; "
                "pass the relation explicitly"
            )
        return Relation(name or f"resume-{self.wkfid}", tuples)


def has_journal(store: ProvenanceStore, wkfid: int) -> bool:
    """Whether ``wkfid`` was recorded with a run journal."""
    rows = store.sql(
        "SELECT COUNT(*) AS n FROM hjournal WHERE wkfid = ?", (wkfid,)
    )
    return bool(rows and rows[0]["n"])


def replay_journal(store: ProvenanceStore, wkfid: int) -> JournalReplay:
    """Fold run ``wkfid``'s journal into a :class:`JournalReplay`.

    Validates that sequence numbers are strictly monotonic (an
    out-of-order or duplicated seq means two coordinators wrote the same
    run, or the log was tampered with — either way replay would be
    unsound). Raises :class:`JournalError` for runs without a journal
    and for a run-started header whose payload cannot be read back.
    """
    rows = store.journal_events(wkfid)
    if not rows:
        raise JournalError(
            f"run {wkfid} has no run journal in this store, so it cannot "
            "be resumed; start a fresh run instead"
        )
    replay = JournalReplay(wkfid=wkfid)
    header_refused = False
    last_seq = -1
    for row in rows:
        seq = int(row["seq"])
        if seq <= last_seq:
            raise JournalError(
                f"run {wkfid}: journal seq not strictly monotonic "
                f"({seq} after {last_seq})"
            )
        last_seq = seq
        event = row["event"]
        stage = int(row["stage"])
        key = row["tuple_key"]
        payload = decode_payload(row["payload"])
        if event == JournalEventType.RUN_STARTED.value:
            if isinstance(payload, dict):
                replay.workflow_tag = payload.get("workflow", "")
                replay.pipeline = bool(payload.get("pipeline", True))
                replay.context = dict(payload.get("context") or {})
                replay.resumed_from = payload.get("resumed_from")
            else:
                header_refused = True
        elif event == JournalEventType.SCHEDULED.value:
            tup = payload.get("tup") if isinstance(payload, dict) else None
            replay.scheduled[(stage, key)] = tup
            if stage == 0:
                replay.seed_keys.append(key)
        elif event == JournalEventType.COMPLETED.value:
            outputs = (
                payload.get("outputs") if isinstance(payload, dict) else None
            )
            replay.terminal[(stage, key)] = event
            if isinstance(outputs, list):
                replay.completed[(stage, key)] = outputs
            # An unpicklable output payload degrades to re-execution:
            # the completion is terminal but not replayable.
        elif event in TERMINAL_EVENTS:
            replay.terminal[(stage, key)] = event
        elif event == JournalEventType.RUN_FINISHED.value:
            replay.finished = True
        replay.events += 1
    if header_refused:
        # Resuming under a default context would silently change the
        # grid, engine parameters or fault setup of the re-run work.
        raise JournalError(
            f"run {wkfid}: its run-started header could not be read back "
            "(refused or corrupt payload); it cannot be resumed safely"
        )
    replay.max_seq = last_seq
    return replay


def recover_context(store: ProvenanceStore, wkfid: int) -> dict | None:
    """The journaled run context of ``wkfid``, or ``None`` if unjournaled.

    This is what lets a resumed run re-execute under the same grid /
    engine-parameter / fault-injection configuration as the run that
    produced the failures, without the caller re-supplying it.
    """
    rows = store.sql(
        "SELECT payload FROM hjournal WHERE wkfid = ? AND event = ?"
        " ORDER BY seq LIMIT 1",
        (wkfid, JournalEventType.RUN_STARTED.value),
    )
    if not rows:
        return None
    payload = decode_payload(rows[0]["payload"])
    if not isinstance(payload, dict):
        return None
    context = payload.get("context")
    return dict(context) if isinstance(context, dict) else None
