"""Worker node: the remote half of the distributed execution plane.

One process per node (``scidock worker --join HOST:PORT --slots N``),
speaking the framed wire protocol in :mod:`repro.workflow.messaging`:

* HELLO announces the node (id, slot count, pid, wire version); the
  director answers with SETUP carrying the run's shipped context, the
  artifact-exchange address, the heartbeat policy and the batch size.
* The node builds its *node context* once per run: the shipped context
  plus node-local entries — a fresh cooperative-cancellation handle and
  a node-owned :class:`~repro.workflow.artifacts.ArtifactPlane` whose
  disk cache fetches missing bundles from the director's exchange.
  TASK_BATCH frames never re-ship any of this: their argument tuples carry a
  :class:`~repro.workflow.messaging.ContextRef` placeholder that the
  node substitutes before executing.
* Work is pulled, not pushed: an initial WORK_REQUEST{n} grants the
  director n task credits (the node's idle slots plus a prefetch window
  when batching); after that every completion returns its credit on the
  RESULT_BATCH frame that carries it — so a slow node naturally
  receives less work. Completions coalesce for up to the linger window
  until ``batch_size`` of them fill a frame (at ``batch_size`` 1 each
  ships at once).
* A daemon thread heartbeats at the policy interval; ABORT cancels a
  running task's cooperative token (the remote face of the watchdog);
  NODE_STATS requests report plane/transport counters and drop the
  run's cached worker state; SHUTDOWN (or director EOF) tears the node
  down.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.workflow.artifacts import ArtifactPlane, drop_run_state
from repro.workflow.fault import (
    ActivationCancelled,
    CancellationToken,
    CancelTokenHandle,
)
from repro.workflow.messaging import (
    WIRE_VERSION,
    ContextRef,
    FrameConn,
    MessageTag,
    MessagingError,
    connect,
)


def sleep_activation(tup: dict, context: dict) -> list[dict]:
    """Sleep-bound benchmark activation (importable on worker nodes).

    Sleeps ``tup["sleep_s"]`` seconds cooperatively and echoes the tuple
    — the scatter benchmark's stand-in for an I/O- or license-bound
    docking stage, chosen so a 2-node speedup is observable even on a
    single-core host.
    """
    seconds = float(tup.get("sleep_s", 0.01))
    token = context.get("cancel_token")
    if token is not None and hasattr(token, "sleep"):
        token.sleep(seconds)
    else:  # pragma: no cover - tokenless context
        time.sleep(seconds)
    return [dict(tup)]


class WorkerNode:
    """One node's full session against a director."""

    def __init__(
        self,
        address: tuple[str, int],
        *,
        slots: int = 2,
        node_id: str | None = None,
        map_cache: str | None = None,
        connect_timeout: float = 30.0,
    ) -> None:
        self.address = tuple(address)
        self.slots = max(1, int(slots))
        self.node_id = node_id or f"{socket.gethostname()}-{os.getpid()}"
        self.map_cache = map_cache
        #: Default cache directory this node created (and removes at
        #: shutdown); an explicit ``map_cache`` is never removed.
        self._own_cache: str | None = None
        self.connect_timeout = connect_timeout
        self.conn: FrameConn | None = None
        self.plane: ArtifactPlane | None = None
        self.context: dict | None = None
        self.cache_token: str | None = None
        self.tuples_done = 0
        self.tasks_failed = 0
        self.result_batches_sent = 0
        self._tokens: dict[int, CancellationToken] = {}
        self._tokens_lock = threading.Lock()
        self._handle = CancelTokenHandle()
        self._pool: ThreadPoolExecutor | None = None
        self._stop = threading.Event()
        # SETUP-negotiated transport config.
        self._batch_size = 1
        self._linger = 0.0
        # Completion coalescer: finished-member entries waiting to ride
        # one RESULT_BATCH frame.
        self._results: list[dict] = []
        self._results_since = 0.0
        self._results_cv = threading.Condition()
        self._flusher: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------
    def run(self) -> int:
        """Join the director and serve tasks until shutdown/EOF."""
        self.conn = connect(self.address, timeout=self.connect_timeout)
        self.conn.send(
            MessageTag.HELLO,
            {
                "node_id": self.node_id,
                "slots": self.slots,
                "pid": os.getpid(),
                "wire": WIRE_VERSION,
                # Capability advertisement: this node can inflate zlib
                # frames (the director enables compression per peer only
                # when both sides agree).
                "compress": True,
            },
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix=f"{self.node_id}-slot"
        )
        try:
            while True:
                try:
                    message = self.conn.recv()
                except (MessagingError, OSError):
                    message = None
                if message is None:
                    return 0  # director gone: clean exit
                payload = (
                    message.payload
                    if isinstance(message.payload, dict)
                    else {}
                )
                if message.tag is MessageTag.SETUP:
                    self._setup(payload)
                elif message.tag is MessageTag.TASK_BATCH:
                    # Members execute independently on slot threads;
                    # tokens are registered per member right here so an
                    # ABORT can hit a member that hasn't started yet.
                    for member in payload.get("tasks") or []:
                        if isinstance(member, dict):
                            self._enqueue(member)
                elif message.tag is MessageTag.ABORT:
                    with self._tokens_lock:
                        token = self._tokens.get(payload.get("task_id"))
                    if token is not None:
                        token.cancel()
                elif message.tag is MessageTag.NODE_STATS:
                    drop_run_state(payload.get("drop_token"), None)
                    self._flush_results()
                    self._send_stats()
                elif message.tag is MessageTag.SHUTDOWN:
                    self._flush_results()
                    self._send_stats()
                    return 0
                # Unknown tags are ignored: wire compatibility.
        finally:
            self._stop.set()
            with self._results_cv:
                self._results_cv.notify_all()
            self._pool.shutdown(wait=False, cancel_futures=True)
            if self.cache_token is not None:
                drop_run_state(self.cache_token, None)
            if self.plane is not None:
                try:
                    self.plane.destroy()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
                self.plane = None
            if self._own_cache is not None:
                shutil.rmtree(self._own_cache, ignore_errors=True)
                self._own_cache = None
            self.conn.close()

    def _setup(self, payload: dict) -> None:
        """Build the node context for a run (re-entrant across runs)."""
        shipped = dict(payload.get("context") or {})
        exchange = payload.get("exchange")
        self.cache_token = shipped.get("cache_token")
        batch = payload.get("batch") if isinstance(payload.get("batch"), dict) else {}
        self._batch_size = max(1, int(batch.get("size", 1)))
        self._linger = max(0.0, float(batch.get("linger", 0.0)))
        if payload.get("compress"):
            # Negotiated at HELLO: our sends compress too (the director's
            # receive path always honors the per-frame flag).
            self.conn.enable_compression()
        if self.plane is None:
            cache_dir = self.map_cache
            if cache_dir is None:
                cache_dir = self._own_cache = tempfile.mkdtemp(
                    prefix=f"repro-node-cache-{os.getpid()}-"
                )
            self.plane = ArtifactPlane.create(
                map_cache_dir=cache_dir,
                exchange=tuple(exchange) if exchange else None,
            )
        context = shipped
        context["artifact_plane"] = self.plane.handle
        context["cancel_token"] = self._handle
        self.context = context
        heartbeat = payload.get("heartbeat")
        interval = getattr(heartbeat, "interval", 2.0)
        threading.Thread(
            target=self._heartbeat_loop,
            args=(float(interval),),
            name=f"{self.node_id}-heartbeat",
            daemon=True,
        ).start()
        if self._batch_size > 1 and self._flusher is None:
            self._flusher = threading.Thread(
                target=self._result_flush_loop,
                name=f"{self.node_id}-coalescer",
                daemon=True,
            )
            self._flusher.start()
        # Initial credit grant: idle slots, plus the director's prefetch
        # window so it can fill whole batches.
        prefetch = int(batch.get("prefetch", 0))
        self.conn.send(MessageTag.WORK_REQUEST, {"n": self.slots + prefetch})

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self.conn.send(MessageTag.HEARTBEAT, {"pid": os.getpid()})
            except (OSError, MessagingError):
                return

    # -- task execution ------------------------------------------------------
    def _enqueue(self, payload: dict) -> None:
        """Admit one batch member to the slot pool.

        The cancellation token is created and registered *now*, before
        the task reaches a slot thread, so a director ABORT addressed at
        a queued batch member cancels it pre-start.
        """
        token = CancellationToken()
        with self._tokens_lock:
            self._tokens[payload.get("task_id")] = token
        self._pool.submit(self._execute, payload, token)

    def _execute(self, payload: dict, token: CancellationToken) -> None:
        """Run one task on a slot thread; report its result or failure."""
        task_id = payload.get("task_id")
        try:
            if token.cancelled:
                # Aborted while still queued: never ran, nothing to
                # undo. The entry exists to hand the credit back (the
                # director already dropped this task_id from inflight).
                raise ActivationCancelled("aborted before start")
            self._handle.bind(token)
            fn = payload["fn"]
            args = tuple(
                self.context if isinstance(a, ContextRef) else a
                for a in payload.get("args", ())
            )
            value = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - shipped to director
            self.tasks_failed += 1
            entry: dict = {"task_id": task_id, "error": True, "repr": repr(exc)}
            try:
                entry["blob"] = pickle.dumps(
                    exc, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:  # pragma: no cover - unpicklable exception
                pass
            self._complete(entry)
        else:
            self.tuples_done += 1
            self._complete({"task_id": task_id, "value": value})
        finally:
            with self._tokens_lock:
                self._tokens.pop(task_id, None)

    def _complete(self, entry: dict) -> None:
        """Report one finished member: it ships once a frame's worth of
        completions has gathered, or when the linger window expires."""
        with self._results_cv:
            if not self._results:
                self._results_since = time.monotonic()
            self._results.append(entry)
            if len(self._results) >= self._batch_size:
                self._flush_results_locked()
            else:
                self._results_cv.notify_all()

    # -- result coalescer ----------------------------------------------------
    def _flush_results(self) -> None:
        with self._results_cv:
            self._flush_results_locked()

    def _flush_results_locked(self) -> None:
        """Ship pending completions: one frame, credits piggybacked."""
        if not self._results:
            return
        entries = self._results[:]
        self._results.clear()
        try:
            self.conn.send(
                MessageTag.RESULT_BATCH,
                {"results": entries, "n": len(entries)},
            )
            self.result_batches_sent += 1
        except (OSError, MessagingError):  # pragma: no cover - director gone
            self._stop.set()

    def _result_flush_loop(self) -> None:
        """Flush coalesced results once their linger window expires."""
        with self._results_cv:
            while not self._stop.is_set():
                if not self._results:
                    self._results_cv.wait(0.2)
                    continue
                age = time.monotonic() - self._results_since
                if age >= self._linger:
                    self._flush_results_locked()
                else:
                    self._results_cv.wait(self._linger - age)

    # -- reporting -----------------------------------------------------------
    def _send_stats(self) -> None:
        stats = {
            "node_id": self.node_id,
            "slots": self.slots,
            "tuples_done": self.tuples_done,
            "tasks_failed": self.tasks_failed,
            "bytes_sent": self.conn.bytes_sent,
            "bytes_received": self.conn.bytes_received,
            "bytes_saved_sent": self.conn.bytes_saved_sent,
            "bytes_saved_received": self.conn.bytes_saved_received,
            "frames_compressed_sent": self.conn.frames_compressed_sent,
            "result_batches_sent": self.result_batches_sent,
            "batch_size": self._batch_size,
            "plane": self.plane.stats() if self.plane is not None else {},
        }
        try:
            self.conn.send(MessageTag.NODE_STATS, {"stats": stats})
        except (OSError, MessagingError):  # pragma: no cover - director gone
            pass


def parse_address(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` join address."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


def main(argv: list[str] | None = None) -> int:
    """``scidock worker`` entrypoint (also usable standalone)."""
    parser = argparse.ArgumentParser(
        prog="scidock worker",
        description="Join a SciDock director as a worker node.",
    )
    parser.add_argument(
        "--join", type=parse_address, required=True, metavar="HOST:PORT",
        help="director address to join",
    )
    parser.add_argument(
        "--slots", type=int, default=2,
        help="concurrent activation slots on this node (default: 2)",
    )
    parser.add_argument(
        "--node-id", default=None, help="stable node name (default: host-pid)"
    )
    parser.add_argument(
        "--map-cache", default=None,
        help="node-local content-addressed map cache directory "
        "(default: a temporary directory removed at shutdown)",
    )
    args = parser.parse_args(argv)
    node = WorkerNode(
        args.join,
        slots=args.slots,
        node_id=args.node_id,
        map_cache=args.map_cache,
    )
    return node.run()


if __name__ == "__main__":  # pragma: no cover - manual entrypoint
    raise SystemExit(main())
