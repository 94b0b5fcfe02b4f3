"""MPJ-style message passing: the shared master/worker wire vocabulary.

The real SciCumulus implements its distribution and execution layers
over MPJ (MPI for Java): rank 0 is the master holding the activation
queue; worker ranks request work, execute, and return results. This
module owns that vocabulary for *both* planes:

* The deterministic simulation — typed messages, latency-modelled
  channels on the :class:`~repro.cloud.simclock.SimClock`, and the
  :class:`MasterWorkerProtocol` — exposing the measured communication
  overhead that feeds the scheduler's dispatch cost (the paper's "high
  communication latency" factor in cloud speedup).
* The real socket transport behind the distributed backend
  (:mod:`repro.workflow.distributed` /
  :mod:`repro.workflow.worker`): the same :class:`Message` /
  :class:`MessageTag` records, serialized as length-prefixed pickled
  frames over TCP (:func:`send_frame` / :func:`recv_frame` /
  :class:`FrameConn`), plus the content-addressed artifact-exchange
  client (:func:`fetch_artifact`).

Because both planes speak the same vocabulary, the simulated channel's
cost model charges the *actual* pickled frame size
(:func:`payload_nbytes`) — what the socket transport really sends — not
a ``repr`` proxy.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import struct
import threading
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.cloud.simclock import SimClock


class MessageTag(Enum):
    # Pull-protocol core (simulation and wire alike).
    WORK_REQUEST = "WORK_REQUEST"
    TASK = "TASK"
    RESULT = "RESULT"
    FAILURE = "FAILURE"
    SHUTDOWN = "SHUTDOWN"
    # Wire-only extensions for the socket transport.
    HELLO = "HELLO"
    SETUP = "SETUP"
    HEARTBEAT = "HEARTBEAT"
    ABORT = "ABORT"
    ARTIFACT_REQUEST = "ARTIFACT_REQUEST"
    ARTIFACT_DATA = "ARTIFACT_DATA"
    NODE_STATS = "NODE_STATS"
    # Batched transport: K tasks per frame out, coalesced results back.
    TASK_BATCH = "TASK_BATCH"
    RESULT_BATCH = "RESULT_BATCH"


@dataclass(frozen=True)
class Message:
    tag: MessageTag
    src: int
    dst: int
    payload: object = None
    msg_id: int = 0


class MessagingError(RuntimeError):
    """Raised for protocol violations."""


class ContextRef:
    """Wire placeholder for the node-resident run context.

    Task frames never carry the full run context — the director ships it
    once per node in the SETUP frame. Anywhere the coordinator's shipped
    context appears in a task's argument tuple, the director substitutes
    a :class:`ContextRef`; the worker substitutes its node context (the
    shipped context plus node-local entries such as the local artifact
    plane handle) back in before executing.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ContextRef>"


#: Shared sentinel instance (identity is irrelevant — workers match on
#: ``isinstance`` because unpickling creates a fresh instance).
CONTEXT_REF = ContextRef()


def payload_nbytes(payload: object) -> int:
    """Actual wire size of a payload: its pickled byte count.

    This is what the socket transport sends per frame (minus the fixed
    header), so the simulated channel charges it too. Unpicklable
    payloads (simulation-only closures) fall back to the ``repr`` size.
    """
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return len(repr(payload).encode())


class Channel:
    """Point-to-point ordered channel with transfer latency.

    Deliveries are scheduled on the shared clock; per-message latency is
    ``base_latency + pickled-payload-bytes / bandwidth`` — the byte
    count the real transport's frames carry for the same payload.
    """

    def __init__(
        self,
        clock: SimClock,
        base_latency: float = 0.001,
        bandwidth: float = 10e6,
        compress_min_bytes: int | None = None,
    ) -> None:
        if base_latency < 0 or bandwidth <= 0:
            raise MessagingError("latency must be >= 0 and bandwidth positive")
        self.clock = clock
        self.base_latency = base_latency
        self.bandwidth = bandwidth
        #: ``None`` models the raw transport (default, parity with the
        #: uncompressed wire); an int models ``--compress-frames`` with
        #: that threshold, charging deflated frame sizes.
        self.compress_min_bytes = compress_min_bytes
        self.delivered_bytes = 0
        self.bytes_saved = 0
        self.message_count = 0

    def size_of(self, message: Message) -> int:
        """Bytes this message's payload occupies on the wire."""
        if self.compress_min_bytes is None:
            return payload_nbytes(message.payload)
        return compressed_nbytes(message.payload, self.compress_min_bytes)

    def latency_of(self, message: Message) -> float:
        return self.base_latency + self.size_of(message) / self.bandwidth

    def send(self, message: Message, deliver: Callable[[Message], None]) -> float:
        """Schedule delivery; returns the simulated latency."""
        latency = self.latency_of(message)
        wire = self.size_of(message)
        self.delivered_bytes += wire
        if self.compress_min_bytes is not None:
            self.bytes_saved += payload_nbytes(message.payload) - wire
        self.message_count += 1
        self.clock.schedule(latency, lambda: deliver(message))
        return latency


@dataclass
class WorkerStats:
    rank: int
    tasks_done: int = 0
    tasks_failed: int = 0
    busy_seconds: float = 0.0
    #: Wire accounting: payload bytes this worker sent to / received
    #: from the master (task frames in, result/failure frames out).
    bytes_sent: int = 0
    bytes_received: int = 0


class MasterWorkerProtocol:
    """Rank-0 master + N workers over latency-modelled channels.

    ``run`` drives a full job set to completion: workers request work,
    the master hands out tasks (largest-first, mirroring the greedy cost
    model), workers "execute" for their declared service time, results
    flow back, and everybody is shut down when the queue drains.
    ``service_fn`` maps a task payload to its service seconds;
    ``fail_fn`` (optional) decides injected failures, which the master
    re-queues — the re-execution mechanism at the messaging level.
    """

    def __init__(
        self,
        n_workers: int,
        clock: SimClock | None = None,
        channel: Channel | None = None,
        max_retries: int = 3,
    ) -> None:
        if n_workers < 1:
            raise MessagingError("need at least one worker")
        self.clock = clock or SimClock()
        self.channel = channel or Channel(self.clock)
        self.n_workers = n_workers
        self.max_retries = max_retries
        self._ids = itertools.count(1)
        self.stats = {r: WorkerStats(rank=r) for r in range(1, n_workers + 1)}
        self.results: list[tuple[object, object]] = []
        self._queue: list[tuple[object, int]] = []  # (task, attempt)
        self._outstanding = 0
        self._service_fn: Callable[[object], float] | None = None
        self._result_fn: Callable[[object], object] | None = None
        self._fail_fn: Callable[[object, int], bool] | None = None
        self.dropped: list[object] = []

    # -- master side -----------------------------------------------------
    def _master_receive(self, message: Message) -> None:
        if message.tag in (MessageTag.WORK_REQUEST, MessageTag.RESULT, MessageTag.FAILURE):
            worker = message.src
            if message.tag is MessageTag.RESULT:
                task, value = message.payload  # type: ignore[misc]
                self.results.append((task, value))
                self.stats[worker].tasks_done += 1
                self._outstanding -= 1
            elif message.tag is MessageTag.FAILURE:
                task, attempt = message.payload  # type: ignore[misc]
                self.stats[worker].tasks_failed += 1
                self._outstanding -= 1
                if attempt + 1 < self.max_retries:
                    self._queue.append((task, attempt + 1))
                else:
                    self.dropped.append(task)
            self._dispatch_to(worker)
        else:  # pragma: no cover - protocol guard
            raise MessagingError(f"master got unexpected {message.tag}")

    def _dispatch_to(self, worker: int) -> None:
        if self._queue:
            # Largest service time first (greedy cost model).
            self._queue.sort(key=lambda p: self._service_fn(p[0]), reverse=True)
            task, attempt = self._queue.pop(0)
            self._outstanding += 1
            msg = Message(
                MessageTag.TASK, 0, worker, (task, attempt), next(self._ids)
            )
            self.channel.send(msg, self._worker_receive)
        elif self._outstanding == 0:
            msg = Message(MessageTag.SHUTDOWN, 0, worker, None, next(self._ids))
            self.channel.send(msg, self._worker_receive)

    # -- worker side ----------------------------------------------------------
    def _worker_receive(self, message: Message) -> None:
        worker = message.dst
        if message.tag is MessageTag.TASK:
            task, attempt = message.payload  # type: ignore[misc]
            service = self._service_fn(task)
            self.stats[worker].busy_seconds += service
            self.stats[worker].bytes_received += self.channel.size_of(message)

            def finish() -> None:
                if self._fail_fn is not None and self._fail_fn(task, attempt):
                    reply = Message(
                        MessageTag.FAILURE, worker, 0, (task, attempt),
                        next(self._ids),
                    )
                else:
                    value = self._result_fn(task) if self._result_fn else task
                    reply = Message(
                        MessageTag.RESULT, worker, 0, (task, value),
                        next(self._ids),
                    )
                self.stats[worker].bytes_sent += self.channel.size_of(reply)
                self.channel.send(reply, self._master_receive)

            self.clock.schedule(service, finish)
        elif message.tag is MessageTag.SHUTDOWN:
            pass  # worker exits
        else:  # pragma: no cover - protocol guard
            raise MessagingError(f"worker got unexpected {message.tag}")

    # -- driver ------------------------------------------------------------------
    def run(
        self,
        tasks: list,
        service_fn: Callable[[object], float],
        result_fn: Callable[[object], object] | None = None,
        fail_fn: Callable[[object, int], bool] | None = None,
    ) -> float:
        """Execute all tasks; returns the simulated makespan."""
        self._service_fn = service_fn
        self._result_fn = result_fn
        self._fail_fn = fail_fn
        self._queue = [(t, 0) for t in tasks]
        start = self.clock.now
        # Workers announce themselves (MPI ranks starting up).
        for worker in range(1, self.n_workers + 1):
            msg = Message(MessageTag.WORK_REQUEST, worker, 0, None, next(self._ids))
            self.channel.send(msg, self._master_receive)
        self.clock.run()
        return self.clock.now - start

    @property
    def communication_seconds(self) -> float:
        """Total simulated time spent in message transfer."""
        return self.channel.message_count * self.channel.base_latency


# -- real socket transport ----------------------------------------------------

#: Frame header: big-endian uint32 body length + one flags byte.
FRAME_HEADER = struct.Struct(">IB")

#: Flags byte: bit 0 marks a zlib-deflated body. A receiver always
#: honors the flag — HELLO/SETUP negotiation only governs whether a
#: *sender* is allowed to set it.
FLAG_ZLIB = 0x01

#: Sanity bound on a single frame (a corrupt header must not allocate
#: gigabytes); generous enough for any map bundle the exchange serves.
MAX_FRAME_BYTES = 1 << 30

#: Bodies below this pickled size never compress: the zlib header plus
#: CPU outweighs any savings on credit/heartbeat-sized frames.
COMPRESS_MIN_BYTES = 512


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF before any byte."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise MessagingError(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def compressed_nbytes(payload: object, min_bytes: int = COMPRESS_MIN_BYTES) -> int:
    """On-wire payload size under the transport's compression rule.

    Mirrors :func:`send_frame`: bodies under ``min_bytes`` ship raw, and
    a deflated body is only kept when it is actually smaller.
    """
    raw = payload_nbytes(payload)
    if raw < min_bytes:
        return raw
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return raw
    return min(raw, len(zlib.compress(blob)))


def send_frame(
    sock: socket.socket,
    message: Message,
    *,
    compress: bool = False,
    compress_min_bytes: int = COMPRESS_MIN_BYTES,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> tuple[int, int]:
    """Write one length-prefixed pickled message.

    Returns ``(wire_bytes, raw_bytes)`` — both include the header, so
    ``raw_bytes - wire_bytes`` is the number of bytes compression saved
    on this frame (zero for raw frames). With ``compress`` the body is
    zlib-deflated when it reaches ``compress_min_bytes`` and the deflate
    actually shrinks it; the flags byte tells the receiver.
    """
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    raw_len = len(body)
    flags = 0
    if compress and raw_len >= compress_min_bytes:
        deflated = zlib.compress(body)
        if len(deflated) < raw_len:
            body = deflated
            flags |= FLAG_ZLIB
    if len(body) > max_frame_bytes:
        raise MessagingError(f"frame too large ({len(body)} bytes)")
    sock.sendall(FRAME_HEADER.pack(len(body), flags) + body)
    return FRAME_HEADER.size + len(body), FRAME_HEADER.size + raw_len


def recv_frame(
    sock: socket.socket,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> tuple[Message, int, int] | None:
    """Read one frame; ``(message, wire_bytes, raw_bytes)`` or ``None`` on EOF.

    The length is validated against ``max_frame_bytes`` *before* any
    body allocation, so a corrupt or hostile header raises a clear
    :class:`MessagingError` instead of attempting a multi-GB ``recv``.
    Corrupt bodies (bad zlib stream, bad pickle, non-:class:`Message`
    object) also surface as :class:`MessagingError`.
    """
    header = _recv_exact(sock, FRAME_HEADER.size)
    if header is None:
        return None
    length, flags = FRAME_HEADER.unpack(header)
    if length > max_frame_bytes:
        raise MessagingError(
            f"oversized frame announced ({length} bytes > "
            f"{max_frame_bytes} limit)"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise MessagingError("connection closed between header and body")
    if flags & FLAG_ZLIB:
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise MessagingError(f"corrupt compressed frame: {exc}") from exc
        if len(body) > max_frame_bytes:
            raise MessagingError(
                f"decompressed frame too large ({len(body)} bytes)"
            )
    try:
        message = pickle.loads(body)
    except Exception as exc:
        raise MessagingError(f"corrupt frame body: {exc!r}") from exc
    if not isinstance(message, Message):
        raise MessagingError(f"expected a Message frame, got {type(message)}")
    return message, FRAME_HEADER.size + length, FRAME_HEADER.size + len(body)


class FrameConn:
    """One socket speaking length-prefixed :class:`Message` frames.

    Sends are serialized under a lock so a heartbeat thread and a main
    protocol thread can share the connection; receives are expected from
    a single reader thread. Byte counters accumulate the full on-wire
    size (header included) for the run report's transport accounting;
    when compression is on, ``bytes_sent``/``bytes_received`` are the
    actual on-wire (compressed) sizes and ``bytes_saved_*`` hold the
    delta versus the raw pickled frames.

    Compression is off until :meth:`enable_compression` — the HELLO
    capability handshake decides per peer. Receiving compressed frames
    always works regardless (the flags byte is authoritative).
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        self._send_lock = threading.Lock()
        self._ids = itertools.count(1)
        self.compress = False
        self.compress_min_bytes = COMPRESS_MIN_BYTES
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_saved_sent = 0
        self.bytes_saved_received = 0
        self.frames_compressed_sent = 0
        self.frames_compressed_received = 0

    def enable_compression(self, min_bytes: int | None = None) -> None:
        """Start compressing outbound frames past the size threshold."""
        self.compress = True
        if min_bytes is not None:
            self.compress_min_bytes = max(0, int(min_bytes))

    def send(
        self,
        tag: MessageTag,
        payload: object = None,
        *,
        src: int = 0,
        dst: int = 0,
    ) -> None:
        message = Message(tag, src, dst, payload, next(self._ids))
        with self._send_lock:
            wire, raw = send_frame(
                self.sock,
                message,
                compress=self.compress,
                compress_min_bytes=self.compress_min_bytes,
                max_frame_bytes=self.max_frame_bytes,
            )
            self.bytes_sent += wire
            self.frames_sent += 1
            if raw > wire:
                self.bytes_saved_sent += raw - wire
                self.frames_compressed_sent += 1

    def recv(self) -> Message | None:
        got = recv_frame(self.sock, max_frame_bytes=self.max_frame_bytes)
        if got is None:
            return None
        message, wire, raw = got
        self.bytes_received += wire
        self.frames_received += 1
        if raw > wire:
            self.bytes_saved_received += raw - wire
            self.frames_compressed_received += 1
        return message

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass


def connect(address: tuple[str, int], timeout: float | None = None) -> FrameConn:
    """Open a framed connection to ``address`` (director or exchange)."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(None)
    return FrameConn(sock)


def fetch_artifact(
    address: tuple[str, int],
    kind: str,
    key: str,
    timeout: float = 30.0,
) -> bytes | None:
    """Content-addressed artifact-exchange client: fetch one bundle.

    Opens a short-lived framed connection to the director's exchange,
    asks for the ``(kind, key)`` bundle, and returns its raw bytes (an
    ``.npz`` file image) or ``None`` when the director doesn't have it.
    Any transport failure degrades to a miss — the caller's map cache
    falls through to building the artifact locally.
    """
    try:
        conn = connect(address, timeout=timeout)
    except OSError:
        return None
    try:
        conn.sock.settimeout(timeout)
        conn.send(MessageTag.ARTIFACT_REQUEST, {"kind": kind, "key": key})
        reply = conn.recv()
    except (OSError, MessagingError):
        return None
    finally:
        conn.close()
    if reply is None or reply.tag is not MessageTag.ARTIFACT_DATA:
        return None
    payload = reply.payload if isinstance(reply.payload, dict) else {}
    blob = payload.get("blob")
    return blob if isinstance(blob, (bytes, bytearray)) else None
