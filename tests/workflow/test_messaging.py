"""Unit tests for the master/worker wire layer."""

import pytest

from repro.workflow.messaging import Message, MessageTag, MessagingError


class TestFrameConn:
    def test_roundtrip_over_socketpair(self):
        import socket

        from repro.workflow.messaging import FrameConn

        a, b = socket.socketpair()
        left, right = FrameConn(a), FrameConn(b)
        try:
            left.send(MessageTag.TASK_BATCH, {"task_id": 7, "args": [1, 2]}, dst=3)
            got = right.recv()
            assert got is not None
            assert got.tag is MessageTag.TASK_BATCH
            assert got.dst == 3
            assert got.payload == {"task_id": 7, "args": [1, 2]}
            # Byte counters agree across the pair and include headers.
            assert left.bytes_sent == right.bytes_received > 0
            assert left.frames_sent == right.frames_received == 1
        finally:
            left.close()
            right.close()

    def test_recv_returns_none_on_clean_close(self):
        import socket

        from repro.workflow.messaging import FrameConn

        a, b = socket.socketpair()
        left, right = FrameConn(a), FrameConn(b)
        left.close()
        try:
            assert right.recv() is None
        finally:
            right.close()

    def test_mid_frame_close_raises(self):
        import socket

        from repro.workflow.messaging import FRAME_HEADER, FrameConn

        a, b = socket.socketpair()
        right = FrameConn(b)
        try:
            # Announce a 100-byte body, send only 3 bytes, then vanish.
            a.sendall(FRAME_HEADER.pack(100, 0) + b"abc")
            a.close()
            with pytest.raises(MessagingError):
                right.recv()
        finally:
            right.close()


class TestNoDelay:
    """TCP frame connections send without Nagle's delay."""

    def test_connect_and_accepted_side_set_tcp_nodelay(self):
        import socket

        from repro.workflow.messaging import FrameConn, connect

        listener = socket.create_server(("127.0.0.1", 0))
        try:
            client = connect(listener.getsockname(), timeout=5.0)
            server = FrameConn(listener.accept()[0])
        finally:
            listener.close()
        try:
            for conn in (client, server):
                opt = conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert opt != 0
            client.send(MessageTag.WORK_REQUEST, {"credits": 2})
            got = server.recv()
            assert got is not None and got.payload == {"credits": 2}
        finally:
            client.close()
            server.close()

    def test_socketpair_left_as_given(self):
        import socket

        from repro.workflow.messaging import FrameConn

        a, b = socket.socketpair()
        left, right = FrameConn(a), FrameConn(b)
        try:
            assert a.family != socket.AF_INET
            left.send(MessageTag.SHUTDOWN)
            assert right.recv().tag is MessageTag.SHUTDOWN
        finally:
            left.close()
            right.close()


class TestFrameHardening:
    """A corrupt or hostile peer must raise, never allocate blindly."""

    def _pair(self):
        import socket

        from repro.workflow.messaging import FrameConn

        a, b = socket.socketpair()
        return a, FrameConn(b)

    def test_truncated_header_raises(self):
        a, right = self._pair()
        try:
            a.sendall(b"\x00\x00")  # 2 of the 5 header bytes
            a.close()
            with pytest.raises(MessagingError, match="mid-frame"):
                right.recv()
        finally:
            right.close()

    def test_truncated_body_raises(self):
        from repro.workflow.messaging import FRAME_HEADER

        a, right = self._pair()
        try:
            a.sendall(FRAME_HEADER.pack(64, 0) + b"short")
            a.close()
            with pytest.raises(MessagingError):
                right.recv()
        finally:
            right.close()

    def test_over_limit_frame_rejected_before_allocation(self):
        """A corrupt length header larger than the cap raises cleanly —
        recv_frame must never try the multi-GB allocation."""
        from repro.workflow.messaging import FRAME_HEADER, recv_frame

        a, right = self._pair()
        right.max_frame_bytes = 1024
        try:
            a.sendall(FRAME_HEADER.pack(1 << 31, 0))
            with pytest.raises(MessagingError, match="oversized"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_recv_frame_honors_custom_limit(self):
        import socket

        from repro.workflow.messaging import recv_frame, send_frame

        a, b = socket.socketpair()
        try:
            msg = Message(MessageTag.TASK_BATCH, 0, 1, "x" * 4096)
            send_frame(a, msg)
            with pytest.raises(MessagingError, match="oversized"):
                recv_frame(b, max_frame_bytes=256)
        finally:
            a.close()
            b.close()

    def test_garbage_body_raises_protocol_error(self):
        from repro.workflow.messaging import FRAME_HEADER

        a, right = self._pair()
        try:
            body = b"\xde\xad\xbe\xef" * 8
            a.sendall(FRAME_HEADER.pack(len(body), 0) + body)
            with pytest.raises(MessagingError, match="corrupt"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_corrupt_zlib_body_raises_protocol_error(self):
        from repro.workflow.messaging import FLAG_ZLIB, FRAME_HEADER

        a, right = self._pair()
        try:
            body = b"this is not a zlib stream"
            a.sendall(FRAME_HEADER.pack(len(body), FLAG_ZLIB) + body)
            with pytest.raises(MessagingError, match="compressed"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_non_message_pickle_rejected(self):
        import pickle

        from repro.workflow.messaging import FRAME_HEADER

        a, right = self._pair()
        try:
            body = pickle.dumps({"not": "a Message"})
            a.sendall(FRAME_HEADER.pack(len(body), 0) + body)
            with pytest.raises(MessagingError, match="expected a Message"):
                right.recv()
        finally:
            a.close()
            right.close()


class TestFrameCompression:
    def _pair(self):
        import socket

        from repro.workflow.messaging import FrameConn

        a, b = socket.socketpair()
        return FrameConn(a), FrameConn(b)

    def test_compressed_roundtrip_and_counters(self):
        left, right = self._pair()
        try:
            left.enable_compression(min_bytes=64)
            payload = {"blob": b"A" * 50_000}
            left.send(MessageTag.ARTIFACT_DATA, payload)
            got = right.recv()
            assert got is not None
            assert got.payload == payload
            # On-wire accounting is the compressed size on both ends...
            assert left.bytes_sent == right.bytes_received
            assert left.bytes_sent < 5_000
            # ...and both ends agree on what compression saved.
            assert left.bytes_saved_sent == right.bytes_saved_received > 40_000
            assert left.frames_compressed_sent == 1
            assert right.frames_compressed_received == 1
        finally:
            left.close()
            right.close()

    def test_receiver_inflates_without_negotiation(self):
        """The flags byte is authoritative: a receiver that never opted
        in still inflates a compressed frame correctly."""
        left, right = self._pair()
        try:
            left.enable_compression(min_bytes=0)
            left.send(MessageTag.RESULT_BATCH, {"value": "v" * 10_000})
            got = right.recv()
            assert got is not None
            assert got.payload == {"value": "v" * 10_000}
        finally:
            left.close()
            right.close()

    def test_small_frames_skip_compression(self):
        left, right = self._pair()
        try:
            left.enable_compression()  # default 512-byte threshold
            left.send(MessageTag.WORK_REQUEST, {"n": 1})
            got = right.recv()
            assert got is not None
            assert left.frames_compressed_sent == 0
            assert left.bytes_saved_sent == 0
            assert right.bytes_saved_received == 0
        finally:
            left.close()
            right.close()

    def test_incompressible_body_ships_raw(self):
        import os

        left, right = self._pair()
        try:
            left.enable_compression(min_bytes=64)
            left.send(MessageTag.ARTIFACT_DATA, {"blob": os.urandom(8192)})
            got = right.recv()
            assert got is not None
            # Random bytes don't deflate: the frame went out unflagged.
            assert left.frames_compressed_sent == 0
            assert left.bytes_sent == right.bytes_received
        finally:
            left.close()
            right.close()
