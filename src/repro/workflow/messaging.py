"""MPJ-style message passing: the master/worker wire layer.

The real SciCumulus implements its distribution and execution layers
over MPJ (MPI for Java): rank 0 is the master holding the activation
queue; worker ranks request work, execute, and return results. This
module is that wire layer for the distributed backend
(:mod:`repro.workflow.distributed` / :mod:`repro.workflow.worker`):
typed :class:`Message` / :class:`MessageTag` records, serialized as
length-prefixed pickled frames over TCP (:func:`send_frame` /
:func:`recv_frame` / :class:`FrameConn`) with optional zlib bodies,
plus the content-addressed artifact-exchange client
(:func:`fetch_artifact`).
"""

from __future__ import annotations

import itertools
import pickle
import socket
import struct
import threading
import zlib
from dataclasses import dataclass
from enum import Enum


#: Version of the task/result vocabulary below, carried in HELLO. A
#: director closes a node that speaks another version before SETUP.
WIRE_VERSION = 2


class MessageTag(Enum):
    # Pull-protocol core: a node's initial credit grant, then tasks out
    # (1..K per frame) and completions back with their credits.
    WORK_REQUEST = "WORK_REQUEST"
    TASK_BATCH = "TASK_BATCH"
    RESULT_BATCH = "RESULT_BATCH"
    SHUTDOWN = "SHUTDOWN"
    # Node lifecycle, cancellation and artifact exchange.
    HELLO = "HELLO"
    SETUP = "SETUP"
    HEARTBEAT = "HEARTBEAT"
    ABORT = "ABORT"
    ARTIFACT_REQUEST = "ARTIFACT_REQUEST"
    ARTIFACT_DATA = "ARTIFACT_DATA"
    NODE_STATS = "NODE_STATS"


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

    On a TCP socket (a :func:`connect` or a director's accepted one),
    Nagle's algorithm is switched off: every frame is one complete
    message, so holding a small one back for the peer's delayed ACK
    only adds latency. Other sockets (``socketpair``) are left as given.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if sock.type == socket.SOCK_STREAM and sock.family in (
            socket.AF_INET,
            socket.AF_INET6,
        ):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
