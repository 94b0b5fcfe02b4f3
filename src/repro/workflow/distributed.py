"""Director: the coordinator-side half of the distributed backend.

SciCumulus distributes activations over MPJ: rank 0 holds the activation
queue, worker ranks pull work, execute, and push results. This module is
that architecture over plain TCP, built on the shared wire vocabulary in
:mod:`repro.workflow.messaging` (length-prefixed pickled frames, a
credit-based pull protocol, HEARTBEAT liveness). Tasks always travel in
TASK_BATCH frames (one member when ``batch_size`` is 1 or a partial
batch is flushed) and completions in RESULT_BATCH frames that carry the
freed credits; WORK_REQUEST is only a node's initial grant.

The :class:`Director` deliberately implements the same duck-type as the
in-process :class:`~repro.workflow.affinity.AffinityRouter` —
``submit(affinity_key, fn, *args) -> Future``, ``abort(future)``,
``shutdown()`` — so the :class:`~repro.workflow.dispatch.AttemptRunner`
drives remote attempts through exactly the code path it uses for local
worker processes: the per-activation watchdog is a timed wait on the
future, a deadline miss aborts the remote task (cooperative token
cancellation on the node), and a node death surfaces every in-flight
future as a :class:`~repro.workflow.affinity.RouterError` — an
*infrastructure* failure, retried on the infra budget and re-placed on
the surviving nodes.

Placement is the router's: the shared
:class:`~repro.workflow.placement.Placement` core, with worker nodes as
its members, homes each receptor on one node so that node accumulates
the receptor's artifacts, and lets a node with an idle slot steal from
the longest backlog of a node that has granted credits. Each accepted
connection's first frame discriminates its role: HELLO starts a
worker-node session (closed at once when its wire version differs),
ARTIFACT_REQUEST is a one-shot content-addressed fetch served from the
director's map cache (the exchange that lets a re-placed receptor's new
home skip rebuilding its maps).
"""

from __future__ import annotations

import itertools
import pickle
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.workflow.affinity import RouterError
from repro.workflow.artifacts import DiskMapCache
from repro.workflow.coordinator import ExecutionPlane
from repro.workflow.dataflow import WorkItem
from repro.workflow.dispatch import AttemptRunner
from repro.workflow.fault import HeartbeatPolicy
from repro.workflow.messaging import (
    CONTEXT_REF,
    WIRE_VERSION,
    FrameConn,
    Message,
    MessageTag,
    MessagingError,
)
from repro.workflow.placement import Placement
from repro.workflow.planes import ThreadedExecutionPlane

#: Bookkeeping threads the director plane keeps for in-flight attempts;
#: threads are cheap (each just waits on a future), nodes are not.
DIRECTOR_BOOKKEEPING_THREADS = 128

#: Seconds a partial batch (and a worker's partial result batch) may
#: wait for more members before it ships anyway.
BATCH_LINGER = 0.005


@dataclass
class _RemoteTask:
    """One activation attempt shipped (or queued to ship) to a node."""

    task_id: int
    affinity: str | None
    fn: object
    args: tuple
    future: Future


@dataclass
class _NodeSession:
    """Director-side state for one connected worker node."""

    rank: int
    node_id: str
    slots: int
    conn: FrameConn
    #: Credit-consumed tasks accumulating toward the next TASK_BATCH
    #: frame. Not yet on the wire: a node loss re-homes these like
    #: queued work instead of failing them.
    pending: list[_RemoteTask] = field(default_factory=list)
    #: When the oldest pending task was admitted (linger clock).
    pending_since: float = 0.0
    #: Sent-but-unfinished tasks by task id.
    inflight: dict[int, _RemoteTask] = field(default_factory=dict)
    #: Unconsumed credits: how many more tasks the node is ready to
    #: receive (idle slots, plus the prefetch window when batching).
    credits: int = 0
    #: The node's pull loop has granted at least one credit. Until then
    #: a backlog just means the initial WORK_REQUEST is still in flight
    #: — not that the node is saturated — so it is not a legitimate
    #: steal victim yet.
    credited: bool = False
    #: HELLO-negotiated frame compression for this peer.
    compress: bool = False
    last_beat: float = field(default_factory=time.monotonic)
    lost: bool = False
    ready: bool = False  # SETUP sent (run context delivered)
    tuples_done: int = 0
    #: Worker-reported statistics (NODE_STATS payload).
    stats: dict = field(default_factory=dict)
    stats_event: threading.Event = field(default_factory=threading.Event)


class Director:
    """Accepts worker nodes and places activation attempts on them.

    Constructed once per engine (binding its listen address immediately
    so workers can join before — or during — a run); armed with a run's
    shipped context via :meth:`start_run`. Nodes joining before the run
    starts are parked until SETUP; nodes joining mid-run are set up and
    journaled on arrival, which is how the live pool grows.
    """

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        *,
        min_nodes: int = 1,
        join_timeout: float = 60.0,
        heartbeat: HeartbeatPolicy | None = None,
        cache_dir: str | None = None,
        batch_size: int = 1,
        compress: bool = False,
    ) -> None:
        self.min_nodes = max(1, int(min_nodes))
        self.join_timeout = join_timeout
        self.heartbeat = heartbeat or HeartbeatPolicy()
        #: Tasks per TASK_BATCH frame (1: every task ships on its own).
        self.batch_size = max(1, int(batch_size))
        #: Offer zlib frame compression to peers that advertise it.
        self.compress = bool(compress)
        #: Content-addressed bundle cache the exchange serves from.
        self.cache = DiskMapCache(cache_dir) if cache_dir else None
        self._lock = threading.RLock()
        self._capacity_cv = threading.Condition(self._lock)
        self._nodes: dict[int, _NodeSession] = {}
        self._by_future: dict[Future, _RemoteTask] = {}
        #: Unsent tasks per ready node (by rank), plus orphans: tasks
        #: whose home node died with no survivor, drained onto the next
        #: node that joins. A node's "running" tasks are its batched
        #: and in-flight ones.
        self._placement = Placement(
            running=lambda rank: len(self._nodes[rank].inflight)
            + len(self._nodes[rank].pending)
        )
        self._rank_seq = itertools.count(1)
        self._task_seq = itertools.count(1)
        self._shipped_context: dict | None = None
        self._journal = None
        self._closed = False
        # Lifetime/wire accounting (survives node loss and shutdown).
        self.nodes_joined = 0
        self.nodes_lost = 0
        self.tuples_per_node: dict[str, int] = {}
        self.node_stats: dict[str, dict] = {}
        self.bytes_sent = 0
        self.bytes_received = 0
        self.bytes_saved = 0
        self.artifact_requests = 0
        self.artifact_hits = 0
        self.artifact_bytes = 0
        # Batch-frame accounting: every frame that carries tasks counts
        # in task_frames_sent; frames with >= 2 members in batches_sent.
        self.task_frames_sent = 0
        self.tasks_framed = 0
        self.batches_sent = 0

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(tuple(bind))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="director-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="director-monitor", daemon=True
        )
        self._monitor_thread.start()
        if self.batch_size > 1:
            self._linger_thread = threading.Thread(
                target=self._linger_loop, name="director-linger", daemon=True
            )
            self._linger_thread.start()

    # -- router duck-type attributes (quarantine = node loss) ----------------
    @property
    def quarantined_workers(self) -> int:
        return self.nodes_lost

    @property
    def steals(self) -> int:
        return self._placement.steals

    # -- run lifecycle -------------------------------------------------------
    def start_run(self, shipped_context: dict, journal=None) -> None:
        """Arm the director with a run's context; set up parked nodes."""
        with self._lock:
            self._shipped_context = shipped_context
            self._journal = journal
            for node in self._nodes.values():
                if not node.lost and not node.ready:
                    self._setup_node(node)

    def end_run(self, cache_token: str | None = None) -> dict:
        """Collect per-node stats (dropping the run's worker state).

        Nodes stay connected — the director outlives runs so a resumed
        run reuses the joined pool — but each reports its plane/transport
        counters and drops the ``cache_token`` run state.
        """
        with self._lock:
            live = [n for n in self._nodes.values() if not n.lost and n.ready]
            for node in live:
                node.stats_event.clear()
                try:
                    node.conn.send(
                        MessageTag.NODE_STATS, {"drop_token": cache_token}
                    )
                except (OSError, MessagingError):
                    self._mark_lost_locked(node, "stats request failed")
            self._shipped_context = None
            self._journal = None
        for node in live:
            node.stats_event.wait(5.0)
        return self.stats()

    def stats(self) -> dict:
        with self._lock:
            # Lost nodes' conn counters were folded into the lifetime
            # sums at loss time — only live conns still count here.
            live = [n for n in self._nodes.values() if not n.lost]
            bytes_sent = self.bytes_sent + sum(
                n.conn.bytes_sent for n in live
            )
            bytes_received = self.bytes_received + sum(
                n.conn.bytes_received for n in live
            )
            # On-wire bytes are the compressed sizes; saved = raw minus
            # wire across both directions (the receive path inflates
            # worker-compressed frames, so director-side counters see
            # both halves of every conversation).
            bytes_saved = self.bytes_saved + sum(
                n.conn.bytes_saved_sent + n.conn.bytes_saved_received
                for n in live
            )
            wire_total = bytes_sent + bytes_received
            return {
                "nodes_joined": self.nodes_joined,
                "nodes_lost": self.nodes_lost,
                "live_nodes": len(live),
                "steals": self.steals,
                "tuples_per_node": dict(self.tuples_per_node),
                "node_stats": {
                    k: dict(v) for k, v in self.node_stats.items()
                },
                "bytes_sent": bytes_sent,
                "bytes_received": bytes_received,
                "bytes_saved": bytes_saved,
                "compression_ratio": (
                    (wire_total + bytes_saved) / wire_total
                    if wire_total
                    else 1.0
                ),
                "task_frames_sent": self.task_frames_sent,
                "tasks_framed": self.tasks_framed,
                "batches_sent": self.batches_sent,
                "avg_batch_fill": (
                    self.tasks_framed / self.task_frames_sent
                    if self.task_frames_sent
                    else 0.0
                ),
                "artifact_requests": self.artifact_requests,
                "artifact_hits": self.artifact_hits,
                "artifact_bytes": self.artifact_bytes,
            }

    # -- capacity ------------------------------------------------------------
    @property
    def _prefetch(self) -> int:
        """Extra per-node credit window that keeps batches fillable."""
        return self.batch_size if self.batch_size > 1 else 0

    def capacity(self) -> int:
        with self._lock:
            return sum(n.slots + self._prefetch for n in self._live_nodes_locked())

    def wait_for_capacity(self, timeout: float) -> bool:
        return self.wait_for_nodes(1, timeout)

    def wait_for_nodes(self, count: int, timeout: float) -> bool:
        """Block until ``count`` nodes are live (``False`` on timeout or
        shutdown)."""
        deadline = time.monotonic() + timeout
        with self._capacity_cv:
            while len(self._placement.live) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return False
                self._capacity_cv.wait(remaining)
            return True

    def _live_nodes_locked(self) -> list[_NodeSession]:
        """Ready, not-lost nodes in join order (the placement members)."""
        return [self._nodes[rank] for rank in self._placement.live]

    # -- placement -----------------------------------------------------------
    def placement(self, affinity_key: str | None) -> str | None:
        """Node an affinity key would land on right now (journal hint)."""
        with self._lock:
            rank = self._placement.home(affinity_key)
            return None if rank is None else self._nodes[rank].node_id

    # -- router duck-type ----------------------------------------------------
    def submit(self, affinity_key: str | None, fn, *args) -> Future:
        """Queue one attempt for a worker node; returns its future."""
        shipped = self._shipped_context
        wired = tuple(
            CONTEXT_REF if (shipped is not None and a is shipped) else a
            for a in args
        )
        future: Future = Future()
        task = _RemoteTask(
            next(self._task_seq), affinity_key, fn, wired, future
        )
        with self._capacity_cv:
            joined = not self._closed and self.wait_for_nodes(1, self.join_timeout)
            if self._closed:
                raise RouterError("director is shut down")
            if not joined:
                raise RouterError(
                    f"no live worker nodes joined within {self.join_timeout:.1f}s"
                )
            self._by_future[future] = task
            home = self._nodes[self._placement.place(task, affinity_key)]
            self._flush_locked(home)
            # A homed-but-unsent task may still run elsewhere: give every
            # idle node a chance to steal it immediately.
            for node in self._live_nodes_locked():
                if node is not home:
                    self._flush_locked(node)
        return future

    def abort(self, future: Future) -> str:
        """Cancel one attempt: dequeue it, or ask its node to kill it."""
        with self._lock:
            task = self._by_future.pop(future, None)
            if task is None or future.done():
                return "finished"
            if self._placement.discard(task):
                return "dequeued"
            for node in self._nodes.values():
                if task in node.pending:
                    # Admitted to a batch but not yet on the wire: the
                    # credit it consumed goes back to the node.
                    node.pending.remove(task)
                    node.credits += 1
                    return "dequeued"
                if node.inflight.pop(task.task_id, None) is not None:
                    try:
                        node.conn.send(
                            MessageTag.ABORT, {"task_id": task.task_id}
                        )
                    except (OSError, MessagingError):
                        self._mark_lost_locked(node, "abort send failed")
                    return "killed"
        return "finished"

    def broadcast(self, fn, *args) -> list:
        """Interface parity with the router; node cleanup rides on
        :meth:`end_run`'s NODE_STATS round-trip instead."""
        return []

    def shutdown(self) -> None:
        """Stop accepting, release every node, close the listener."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            nodes = [n for n in self._nodes.values() if not n.lost]
            for node in nodes:
                try:
                    node.conn.send(MessageTag.SHUTDOWN)
                except (OSError, MessagingError):
                    continue
            self._capacity_cv.notify_all()
        for node in nodes:
            node.stats_event.wait(5.0)
        with self._lock:
            for node in self._nodes.values():
                if not node.lost:
                    self._fold_conn_locked(node.conn)
                node.conn.close()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - double close
            pass

    # -- dispatch internals --------------------------------------------------
    def _flush_locked(self, node: _NodeSession) -> None:
        """Move work to ``node`` while it holds credits.

        Credit-consumed tasks accumulate in ``node.pending`` and ship as
        one TASK_BATCH frame once ``batch_size`` members are admitted (at
        once when ``batch_size`` is 1); a partial batch ships when its
        linger window expires (the linger thread). Stealing is demand-
        driven, not credit-driven: with a prefetch window a node holds
        more credits than slots, and spending those on a peer's backlog
        would skew placement (the thief queues work it cannot run while
        the victim's own slots go hungry). So only a node with a
        genuinely idle slot steals, and only from a node whose pull loop
        has granted credits.
        """
        while node.credits > 0 and not node.lost:
            task = self._placement.take(
                node.rank,
                may_steal=len(node.inflight) + len(node.pending) < node.slots,
                saturated=lambda rank: self._nodes[rank].credited,
            )
            if task is None:
                break
            node.credits -= 1
            if not node.pending:
                node.pending_since = time.monotonic()
            node.pending.append(task)
            if len(node.pending) >= self.batch_size:
                self._ship_pending_locked(node)

    def _ship_pending_locked(self, node: _NodeSession) -> None:
        batch = node.pending[:]
        node.pending.clear()
        self._ship_locked(node, batch)

    def _ship_locked(self, node: _NodeSession, tasks: list[_RemoteTask]) -> None:
        """Put one TASK_BATCH frame on the wire for ``tasks``."""
        for task in tasks:
            node.inflight[task.task_id] = task
        members = [
            {"task_id": t.task_id, "fn": t.fn, "args": t.args} for t in tasks
        ]
        try:
            node.conn.send(
                MessageTag.TASK_BATCH, {"tasks": members}, dst=node.rank
            )
            self.task_frames_sent += 1
            self.tasks_framed += len(members)
            if len(members) >= 2:
                self.batches_sent += 1
        except (OSError, MessagingError):
            self._mark_lost_locked(node, "task send failed")
        except Exception as exc:
            # pickling the frame failed before any byte hit the wire
            # (send_frame serializes fully, then writes): the stream
            # is intact and the node healthy. For a batch, retry the
            # members one by one so only the poisonous task fails; for
            # a single task, fail just its future.
            for task in tasks:
                node.inflight.pop(task.task_id, None)
            if len(tasks) > 1:
                for task in tasks:
                    if node.lost:
                        # The node died mid-retry: these members never
                        # hit the wire, so they re-home like queued work.
                        self._placement.place(task, task.affinity)
                    else:
                        self._ship_locked(node, [task])
                if node.lost:
                    for survivor in self._live_nodes_locked():
                        self._flush_locked(survivor)
                return
            task = tasks[0]
            node.credits += 1
            self._by_future.pop(task.future, None)
            if not task.future.done():
                task.future.set_exception(
                    RuntimeError(
                        f"task {task.task_id} is not serializable "
                        f"for transport: {exc!r}"
                    )
                )

    def _linger_loop(self) -> None:
        """Flush partial batches whose linger window expired."""
        while not self._closed:
            time.sleep(max(BATCH_LINGER / 2.0, 0.001))
            now = time.monotonic()
            with self._lock:
                if self._closed:
                    return
                for node in self._live_nodes_locked():
                    if node.pending and now - node.pending_since >= BATCH_LINGER:
                        self._ship_pending_locked(node)

    # -- connection handling -------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            threading.Thread(
                target=self._serve_connection,
                args=(FrameConn(sock),),
                name="director-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: FrameConn) -> None:
        """First frame discriminates: worker HELLO or one-shot exchange."""
        try:
            first = conn.recv()
        except (MessagingError, OSError):
            conn.close()
            return
        if first is None:
            conn.close()
            return
        if first.tag is MessageTag.ARTIFACT_REQUEST:
            self._serve_artifact(conn, first)
            return
        if first.tag is MessageTag.HELLO:
            self._register_node(conn, first)
            return
        conn.close()

    def _serve_artifact(self, conn: FrameConn, request: Message) -> None:
        payload = request.payload if isinstance(request.payload, dict) else {}
        kind = str(payload.get("kind", ""))
        key = str(payload.get("key", ""))
        # Bundles ship raw whatever the request asks: an .npz of float64
        # maps deflates by ~4 % for ~0.1 s of director CPU per 2.5 MiB.
        blob = self.cache.blob(kind, key) if self.cache is not None else None
        with self._lock:
            self.artifact_requests += 1
            if blob is not None:
                self.artifact_hits += 1
                self.artifact_bytes += len(blob)
        try:
            conn.send(MessageTag.ARTIFACT_DATA, {"blob": blob})
        except (OSError, MessagingError):  # pragma: no cover - client gone
            pass
        finally:
            with self._lock:
                self._fold_conn_locked(conn)
            conn.close()

    def _register_node(self, conn: FrameConn, hello: Message) -> None:
        payload = hello.payload if isinstance(hello.payload, dict) else {}
        with self._lock:
            if self._closed or payload.get("wire") != WIRE_VERSION:
                # A node speaking another wire version would have every
                # result dropped: close before SETUP, count no join.
                self._fold_conn_locked(conn)
                conn.close()
                return
            rank = next(self._rank_seq)
            node = _NodeSession(
                rank=rank,
                node_id=str(payload.get("node_id") or f"node-{rank}"),
                slots=max(1, int(payload.get("slots", 1))),
                conn=conn,
            )
            # HELLO capability negotiation: compression is on for this
            # peer only when the director wants it AND the worker
            # advertises support (old workers simply never see a
            # compressed frame).
            if self.compress and payload.get("compress"):
                node.compress = True
                conn.enable_compression()
            self._nodes[rank] = node
            self.nodes_joined += 1
            if self._shipped_context is not None:
                self._setup_node(node)
        receiver = threading.Thread(
            target=self._node_loop,
            args=(node,),
            name=f"director-node-{node.node_id}",
            daemon=True,
        )
        receiver.start()

    def _setup_node(self, node: _NodeSession) -> None:
        """Ship the run context; journal the join; wake waiters."""
        try:
            node.conn.send(
                MessageTag.SETUP,
                {
                    "context": self._shipped_context,
                    "exchange": self.address,
                    "heartbeat": self.heartbeat,
                    "batch": {
                        "size": self.batch_size,
                        "linger": BATCH_LINGER,
                        "prefetch": self._prefetch,
                    },
                    "compress": node.compress,
                },
                dst=node.rank,
            )
        except (OSError, MessagingError):
            self._mark_lost_locked(node, "setup send failed")
            return
        node.ready = True
        self._placement.add(node.rank)
        if self._journal is not None:
            self._journal.node_joined(node.node_id, node.rank, node.slots)
        self._capacity_cv.notify_all()

    def _node_loop(self, node: _NodeSession) -> None:
        """Per-node receiver: result batches, credits, liveness."""
        while True:
            try:
                message = node.conn.recv()
            except (MessagingError, OSError):
                message = None
            if message is None:
                with self._lock:
                    self._mark_lost_locked(node, "connection closed")
                return
            payload = (
                message.payload if isinstance(message.payload, dict) else {}
            )
            with self._lock:
                node.last_beat = time.monotonic()
                if node.lost:
                    return
                if message.tag is MessageTag.WORK_REQUEST:
                    node.credits += int(payload.get("n", 1))
                    node.credited = True
                    self._flush_locked(node)
                elif message.tag is MessageTag.RESULT_BATCH:
                    for entry in payload.get("results") or []:
                        if not isinstance(entry, dict):
                            continue
                        self._finish_entry_locked(
                            node, entry, failed=bool(entry.get("error"))
                        )
                    # The freed slots' credits ride on the same frame.
                    node.credits += int(payload.get("n", 0) or 0)
                    self._flush_locked(node)
                elif message.tag is MessageTag.NODE_STATS:
                    node.stats = dict(payload.get("stats") or {})
                    self.node_stats[node.node_id] = node.stats
                    node.stats_event.set()
                elif message.tag is MessageTag.HEARTBEAT:
                    pass  # the timestamp update above is the point
                # Unknown tags are ignored: wire compatibility.

    def _finish_entry_locked(
        self, node: _NodeSession, entry: dict, *, failed: bool
    ) -> None:
        """Settle one per-tuple completion (one RESULT_BATCH entry)."""
        task = node.inflight.pop(entry.get("task_id"), None)
        if task is None:
            return
        self._by_future.pop(task.future, None)
        if failed:
            if not task.future.done():
                task.future.set_exception(_unpickle_failure(entry))
            return
        node.tuples_done += 1
        self.tuples_per_node[node.node_id] = (
            self.tuples_per_node.get(node.node_id, 0) + 1
        )
        if not task.future.done():
            task.future.set_result(entry.get("value"))

    def _monitor_loop(self) -> None:
        """Declare nodes dead after a silent heartbeat window."""
        while not self._closed:
            time.sleep(self.heartbeat.interval)
            now = time.monotonic()
            with self._lock:
                if self._closed:
                    return
                for node in list(self._nodes.values()):
                    if node.lost or not node.ready:
                        continue
                    if now - node.last_beat > self.heartbeat.timeout:
                        self._mark_lost_locked(node, "heartbeat timeout")

    def _fold_conn_locked(self, conn: FrameConn) -> None:
        """Roll a dying connection's wire counters into the lifetime sums.

        Counters are zeroed after folding so a later fold or a live-conn
        sum in :meth:`stats` can never double-count the same bytes.
        """
        self.bytes_sent += conn.bytes_sent
        self.bytes_received += conn.bytes_received
        self.bytes_saved += conn.bytes_saved_sent + conn.bytes_saved_received
        conn.bytes_sent = conn.bytes_received = 0
        conn.bytes_saved_sent = conn.bytes_saved_received = 0

    def _mark_lost_locked(self, node: _NodeSession, reason: str) -> None:
        """Node death: fail in-flight work, redistribute unsent work.

        Only tasks that actually went out on the wire (``inflight``) fail
        onto the infra budget — a batch's completed members already left
        ``inflight`` on their own RESULT_BATCH entry, so exactly the
        *uncompleted* members of in-flight batches are failed here.
        Queued and pending (batched-but-unsent) tasks never reached the
        node and re-home losslessly.
        """
        if node.lost:
            return
        node.lost = True
        node.stats_event.set()
        self.nodes_lost += 1
        inflight = list(node.inflight.values())
        pending = list(node.pending)
        node.inflight.clear()
        node.pending.clear()
        self._fold_conn_locked(node.conn)
        node.conn.close()
        if self._journal is not None:
            self._journal.node_lost(node.node_id, reason, len(inflight))
        # In-flight attempts surface as infrastructure failures: the
        # AttemptRunner retries them on the infra budget and its
        # resubmission re-places them on the survivors.
        for task in inflight:
            self._by_future.pop(task.future, None)
            if not task.future.done():
                task.future.set_exception(
                    RouterError(
                        f"worker node {node.node_id} lost ({reason}) with "
                        f"task {task.task_id} in flight"
                    )
                )
        # Never-sent tasks are still good: the placement core re-homes
        # them now, or parks them for the next node to join.
        if node.ready:
            self._placement.remove(node.rank)
        for task in pending:
            self._placement.place(task, task.affinity)
        for survivor in self._live_nodes_locked():
            self._flush_locked(survivor)
        self._capacity_cv.notify_all()


def _unpickle_failure(payload: dict) -> BaseException:
    """Reconstruct a worker-reported activation exception."""
    blob = payload.get("blob")
    if isinstance(blob, (bytes, bytearray)):
        try:
            exc = pickle.loads(blob)
            if isinstance(exc, BaseException):
                return exc
        except Exception:  # pragma: no cover - unpicklable exception class
            pass
    return RuntimeError(str(payload.get("repr", "unknown worker failure")))


class DirectorPlane(ThreadedExecutionPlane):
    """The distributed backend behind the coordinator's plane seam.

    Bookkeeping threads and the AttemptRunner lifecycle are inherited
    unchanged from the threaded plane — the runner's router *is* the
    director, so every attempt becomes one member of a TASK_BATCH frame
    on some node (batching happens inside the director's flush path;
    the plane contract stays per-item). Capacity is the live
    nodes' slot sum plus the director's batching prefetch window (it
    moves as nodes join and die, which is the distributed pool's
    elasticity); speculation stays off because twin attempts would race
    across nodes with no shared completion order to make golden-parity
    runs comparable.
    """

    supports_speculation = False
    elastic = False

    def __init__(
        self,
        runner: AttemptRunner,
        context: dict,
        t0: float,
        director: Director,
    ) -> None:
        super().__init__(
            runner,
            context,
            t0,
            active=DIRECTOR_BOOKKEEPING_THREADS,
            hard_max=DIRECTOR_BOOKKEEPING_THREADS,
        )
        self.director = director

    def capacity(self) -> int:
        return min(self.director.capacity(), self._hard_max)

    def placement(self, item: WorkItem) -> str | None:
        affinity = (
            item.tup.get("receptor_id") if isinstance(item.tup, dict) else None
        )
        return self.director.placement(
            str(affinity) if affinity is not None else None
        )

    def wait_for_capacity(self, timeout: float) -> bool:
        return self.director.wait_for_capacity(timeout)

    def finish(self) -> dict:
        self.drain()
        token = (self.runner.shipped_context or {}).get("cache_token")
        return self.director.end_run(cache_token=token)

    def shutdown(self) -> None:
        # The director itself stays up (it belongs to the engine, and a
        # resumed run reuses the joined node pool); only the run-scoped
        # bookkeeping pool winds down here.
        self.drain()
