"""Distributed backend: golden parity, node death, director crash-resume.

Three acceptance properties of the director/worker execution plane:

* **Golden parity** — a ≥2-node socket run produces exactly the same
  completed tuple set, output relation and provenance lineage as a
  single-process threads run of the same workflow.
* **Node loss** — a worker node SIGKILLed mid-run surfaces its in-flight
  activations as infrastructure failures, the run completes on the
  survivors, and the loss is journaled and counted as quarantine.
* **Director crash** — SIGKILL the whole director process group
  mid-pipeline, then ``LocalEngine.resume`` finishes the run with zero
  re-execution of any tuple the crashed run durably completed.
"""

import importlib.util
import os
import pickle
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.provenance.store import ProvenanceStore
from repro.workflow import distributed, messaging
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.artifacts import ArtifactPlane
from repro.workflow.distributed import Director
from repro.workflow.engine import LocalEngine
from repro.workflow.journal import replay_journal
from repro.workflow.messaging import MessageTag
from repro.workflow.relation import Relation

_HERE = Path(__file__).resolve().parent
SRC = _HERE.parents[1] / "src"

# Loaded under the stable module name the workers import from
# PYTHONPATH, so activation callables pickle by reference. Reuse any
# existing registration: a second copy under the same name would break
# pickle's by-reference identity check for the first copy's functions.
da = sys.modules.get("_dist_activities")
if da is None:
    _spec = importlib.util.spec_from_file_location(
        "_dist_activities", _HERE / "_dist_activities.py"
    )
    da = importlib.util.module_from_spec(_spec)
    sys.modules["_dist_activities"] = da
    _spec.loader.exec_module(da)

_crash_spec = importlib.util.spec_from_file_location(
    "_dist_crash_child", _HERE / "_dist_crash_child.py"
)
crash_child = importlib.util.module_from_spec(_crash_spec)
_crash_spec.loader.exec_module(crash_child)

RECEPTORS = ["R1", "R2", "R3"]
KEYS = [f"pair-{i:02d}" for i in range(12)]


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(_HERE), env.get("PYTHONPATH", "")]
    )
    return env


def _spawn_worker(
    address, node_id: str, slots: int = 2, extra_args=(), env=None
) -> subprocess.Popen:
    host, port = address
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.workflow.worker",
            "--join",
            f"{host}:{port}",
            "--slots",
            str(slots),
            "--node-id",
            node_id,
            *extra_args,
        ],
        env=env or _worker_env(),
    )


def _reap(workers, timeout: float = 10.0) -> None:
    for w in workers:
        try:
            w.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            w.kill()
            w.wait(timeout=timeout)


def _two_stage_workflow() -> Workflow:
    return Workflow(
        "distparity",
        [
            Activity("prep", Operator.MAP, fn=da.prep),
            Activity("finish", Operator.MAP, fn=da.finish),
        ],
    )


def _relation() -> Relation:
    return Relation(
        "in",
        [
            {"key": k, "receptor_id": RECEPTORS[i % len(RECEPTORS)]}
            for i, k in enumerate(KEYS)
        ],
    )


def _lineage(store: ProvenanceStore, wkfid: int) -> set:
    """Activation-dependency edges as backend-independent tag tuples."""
    rows = store.sql(
        "SELECT ca.tag AS child_tag, d.child_key,"
        " pa.tag AS parent_tag, d.parent_key"
        " FROM hdependency d"
        " JOIN hactivity ca ON d.child_actid = ca.actid"
        " JOIN hactivity pa ON d.parent_actid = pa.actid"
        " WHERE d.wkfid = ?",
        (wkfid,),
    )
    return {
        (r["child_tag"], r["child_key"], r["parent_tag"], r["parent_key"])
        for r in rows
    }


class TestGoldenParity:
    def test_two_node_run_matches_threads_run(self):
        wf_t = _two_stage_workflow()
        store_t = ProvenanceStore()
        threads_report = LocalEngine(
            store_t, workers=4, backend="threads"
        ).run(wf_t, _relation(), context={"shared_maps": False})

        store_d = ProvenanceStore()
        engine = LocalEngine(
            store_d,
            workers=4,
            backend="distributed",
            min_nodes=2,
            join_timeout=30.0,
        )
        workers = [
            _spawn_worker(engine.director_address, f"parity-{i}")
            for i in range(2)
        ]
        try:
            dist_report = engine.run(
                _two_stage_workflow(),
                _relation(),
                context={"shared_maps": False},
            )
        finally:
            engine.shutdown()
            _reap(workers)

        def out_set(report):
            return sorted(
                (t["key"], t["receptor_id"], t["out"]) for t in report.output
            )

        assert out_set(dist_report) == out_set(threads_report)
        assert len(dist_report.output) == len(KEYS)
        assert dist_report.succeeded and threads_report.succeeded

        # Identical completed tuple sets in the two journals...
        t_done = replay_journal(store_t, threads_report.wkfid).completed
        d_done = replay_journal(store_d, dist_report.wkfid).completed
        assert set(d_done) == set(t_done)
        # ...and identical provenance lineage edges.
        assert _lineage(store_d, dist_report.wkfid) == _lineage(
            store_t, threads_report.wkfid
        )

    def test_per_node_accounting_lands_in_report_and_journal(self):
        store = ProvenanceStore()
        engine = LocalEngine(
            store,
            workers=4,
            backend="distributed",
            min_nodes=2,
            join_timeout=30.0,
        )
        workers = [
            _spawn_worker(engine.director_address, f"acct-{i}")
            for i in range(2)
        ]
        try:
            report = engine.run(
                _two_stage_workflow(),
                _relation(),
                context={"shared_maps": False},
            )
        finally:
            engine.shutdown()
            _reap(workers)
        assert report.succeeded
        assert report.nodes_joined == 2
        assert report.nodes_lost == 0
        assert set(report.tuples_per_node) == {"acct-0", "acct-1"}
        # Every tuple ran twice (two MAP stages), somewhere.
        assert sum(report.tuples_per_node.values()) == 2 * len(KEYS)
        assert report.wire_bytes_sent > 0
        assert report.wire_bytes_received > 0

        events = {e["event"] for e in store.journal_events(report.wkfid)}
        assert "node-joined" in events
        # Dispatch events carry the node placement hint.
        from repro.workflow.journal import decode_payload

        dispatched_nodes = {
            (decode_payload(e["payload"]) or {}).get("node")
            for e in store.journal_events(report.wkfid)
            if e["event"] == "dispatched"
        }
        assert dispatched_nodes <= {"acct-0", "acct-1"}
        assert dispatched_nodes - {None}
        # run_finished records the per-node stats for provenance.
        finished = [
            decode_payload(e["payload"])
            for e in store.journal_events(report.wkfid)
            if e["event"] == "run-finished"
        ]
        assert finished and finished[-1]["nodes_joined"] == 2
        assert sum(
            finished[-1]["tuples_per_node"].values()
        ) == 2 * len(KEYS)


class TestNodeMapCache:
    def test_node_removes_only_the_cache_it_created(self, tmp_path):
        """A node without ``--map-cache`` creates its cache under the
        temp dir and removes it at shutdown; an explicit one survives."""
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        explicit = tmp_path / "explicit-cache"
        env = _worker_env()
        env["TMPDIR"] = str(tmpdir)
        engine = LocalEngine(
            ProvenanceStore(),
            workers=4,
            backend="distributed",
            min_nodes=2,
            join_timeout=30.0,
        )
        workers = [
            _spawn_worker(engine.director_address, "cache-default", env=env),
            _spawn_worker(
                engine.director_address,
                "cache-explicit",
                extra_args=("--map-cache", str(explicit)),
                env=env,
            ),
        ]
        try:
            report = engine.run(
                Workflow(
                    "nodecache",
                    [Activity("probe", Operator.MAP, fn=da.node_cache)],
                ),
                Relation("in", [{"key": f"c{i:02d}"} for i in range(12)]),
                context={"shared_maps": False},
            )
        finally:
            engine.shutdown()
            _reap(workers)
        assert report.succeeded
        assert [w.returncode for w in workers] == [0, 0]
        assert set(report.tuples_per_node) == {"cache-default", "cache-explicit"}
        dirs = {t["cache_dir"] for t in report.output}
        assert all(t["existed"] for t in report.output)
        default = dirs - {str(explicit)}
        assert len(default) == 1
        created = Path(default.pop())
        assert created.parent == tmpdir
        assert created.name.startswith("repro-node-cache-")
        assert not created.exists()
        assert not list(tmpdir.glob("repro-node-cache-*"))
        assert not list(tmpdir.glob("repro-plane-*"))
        assert explicit.is_dir()


class TestNodeLoss:
    def test_sigkill_one_worker_mid_run_completes_on_survivor(self):
        wf = Workflow(
            "distloss", [Activity("paced", Operator.MAP, fn=da.paced)]
        )
        relation = Relation(
            "in",
            [
                {
                    "key": f"k{i:02d}",
                    "receptor_id": RECEPTORS[i % len(RECEPTORS)],
                    "sleep_s": 0.25,
                }
                for i in range(16)
            ],
        )
        store = ProvenanceStore()
        engine = LocalEngine(
            store,
            workers=4,
            backend="distributed",
            min_nodes=2,
            join_timeout=30.0,
        )
        victim = _spawn_worker(engine.director_address, "victim")
        survivor = _spawn_worker(engine.director_address, "survivor")
        box: dict = {}

        def _run():
            box["report"] = engine.run(
                wf, relation, context={"shared_maps": False}
            )

        t = threading.Thread(target=_run)
        t.start()
        try:
            # Kill the victim only while it holds an attempt, so its
            # loss must cost an infrastructure retry.
            director = engine._director

            def victim_busy() -> bool:
                with director._lock:
                    return any(
                        node.node_id == "victim" and node.inflight
                        for node in director._nodes.values()
                    )

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if victim_busy():
                    break
                time.sleep(0.01)
            else:
                pytest.fail("victim never held an in-flight attempt")
            victim.send_signal(signal.SIGKILL)
            t.join(timeout=120.0)
            assert not t.is_alive(), "run hung after node loss"
        finally:
            engine.shutdown()
            _reap([victim, survivor])

        report = box["report"]
        # Every tuple's output landed; the victim's in-flight attempts
        # are recorded FAILED (infra) then re-run, matching the threads
        # backend's worker-crash semantics — so ``succeeded`` may be
        # False here even though the run recovered completely.
        assert sorted(t["key"] for t in report.output) == sorted(
            f"k{i:02d}" for i in range(16)
        )
        assert report.counts.get("FINISHED", 0) == 16
        assert report.infra_retries >= 1
        assert report.nodes_joined == 2
        assert report.nodes_lost == 1
        assert report.quarantined_workers == 1
        # The victim's in-flight work was re-placed, not lost: the
        # survivor finished everything that still needed running.
        assert report.tuples_per_node.get("survivor", 0) > 0
        events = {e["event"] for e in store.journal_events(report.wkfid)}
        assert "node-lost" in events


class TestDirectorCrashResume:
    LAST_STAGE = 1

    @staticmethod
    def _completed_last_stage(db: Path) -> int:
        try:
            con = sqlite3.connect(db, timeout=2.0)
        except sqlite3.Error:
            return 0
        try:
            row = con.execute(
                "SELECT COUNT(*) FROM hjournal WHERE event = 'completed'"
                " AND stage = ?",
                (TestDirectorCrashResume.LAST_STAGE,),
            ).fetchone()
            return int(row[0])
        except sqlite3.Error:
            return 0
        finally:
            con.close()

    @pytest.mark.parametrize("mode", ["plain", "batched"])
    def test_sigkill_director_then_resume_zero_recompute(
        self, tmp_path, mode
    ):
        db = tmp_path / "prov.db"
        gate = tmp_path / "gate"
        gate.write_text("hold")
        env = _worker_env()
        proc = subprocess.Popen(
            [
                sys.executable,
                str(_HERE / "_dist_crash_child.py"),
                str(db),
                str(gate),
                mode,
            ],
            env=env,
            start_new_session=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    out, err = proc.communicate()
                    raise AssertionError(
                        "child exited before the kill: "
                        f"rc={proc.returncode}\n{err.decode()}"
                    )
                if self._completed_last_stage(db) >= 2:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError(
                    "timed out waiting for journaled completions "
                    f"(saw {self._completed_last_stage(db)})"
                )
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10.0)
        gate.unlink()

        with ProvenanceStore(db) as store:
            wkfid = store.sql(
                "SELECT wkfid FROM hworkflow ORDER BY wkfid DESC LIMIT 1"
            )[0]["wkfid"]
            crashed = replay_journal(store, wkfid)
            assert not crashed.finished
            done_last = [
                k for (s, k) in crashed.completed if s == self.LAST_STAGE
            ]
            assert len(done_last) >= 2
            assert (self.LAST_STAGE, "slow-x") not in crashed.terminal

            engine = LocalEngine(store, workers=2, backend="threads")
            report = engine.resume(wkfid, crash_child.build_workflow())

            assert sorted(t["key"] for t in report.output) == sorted(
                crash_child.KEYS
            )
            assert report.replayed == len(crashed.completed)

            # Zero re-execution of durably completed tuples.
            tags = [
                a.tag for a in crash_child.build_workflow().activities
            ]
            executed = {
                (r["tag"], r["tuple_key"])
                for r in store.sql(
                    "SELECT a.tag, t.tuple_key FROM hactivation t"
                    " JOIN hactivity a ON t.actid = a.actid"
                    " WHERE a.wkfid = ?",
                    (report.wkfid,),
                )
            }
            replayed_pairs = {(tags[s], k) for (s, k) in crashed.completed}
            assert executed.isdisjoint(replayed_pairs)
            assert (tags[self.LAST_STAGE], "slow-x") in executed


class TestBatchedGoldenParity:
    """TASK_BATCH + zlib frames are a transport detail: results, journal
    and lineage must be bit-for-bit identical to the unbatched run."""

    def test_batched_compressed_run_matches_threads_run(self, monkeypatch):
        monkeypatch.setattr(distributed, "BATCH_LINGER", 0.05)
        wf_t = _two_stage_workflow()
        store_t = ProvenanceStore()
        threads_report = LocalEngine(
            store_t, workers=4, backend="threads"
        ).run(wf_t, _relation(), context={"shared_maps": False})

        store_d = ProvenanceStore()
        engine = LocalEngine(
            store_d,
            workers=4,
            backend="distributed",
            min_nodes=2,
            join_timeout=30.0,
            batch_size=4,
            compress_frames=True,
        )
        workers = [
            _spawn_worker(engine.director_address, f"batchparity-{i}")
            for i in range(2)
        ]
        try:
            dist_report = engine.run(
                _two_stage_workflow(),
                _relation(),
                context={"shared_maps": False},
            )
            node_stats = {
                k: dict(v) for k, v in engine._director.node_stats.items()
            }
        finally:
            engine.shutdown()
            _reap(workers)

        def out_set(report):
            return sorted(
                (t["key"], t["receptor_id"], t["out"]) for t in report.output
            )

        assert out_set(dist_report) == out_set(threads_report)
        assert len(dist_report.output) == len(KEYS)
        assert dist_report.succeeded and threads_report.succeeded
        t_done = replay_journal(store_t, threads_report.wkfid).completed
        d_done = replay_journal(store_d, dist_report.wkfid).completed
        assert set(d_done) == set(t_done)
        assert _lineage(store_d, dist_report.wkfid) == _lineage(
            store_t, threads_report.wkfid
        )

        # The wire actually batched and compressed.
        assert dist_report.batches_sent >= 1
        assert dist_report.avg_batch_fill > 1.0
        assert dist_report.wire_bytes_saved > 0
        assert dist_report.compression_ratio > 1.0

        # Journal dispatch events stay per-tuple under batching: one
        # dispatched event per (stage, key), each with a node hint.
        dispatched = [
            (e["stage"], e["tuple_key"])
            for e in store_d.journal_events(dist_report.wkfid)
            if e["event"] == "dispatched"
        ]
        assert len(dispatched) == 2 * len(KEYS)
        assert set(dispatched) == {
            (s, k) for s in (0, 1) for k in KEYS
        }

        # NODE_STATS round-trip carries the worker-side wire counters.
        assert set(node_stats) == {"batchparity-0", "batchparity-1"}
        for stats in node_stats.values():
            assert stats["batch_size"] == 4
            assert "result_batches_sent" in stats
            assert "bytes_saved_sent" in stats
            assert "frames_compressed_sent" in stats


class TestNoDelayOnDirectorSockets:
    def test_worker_and_director_sides_set_tcp_nodelay(self, tmp_path):
        director = Director(cache_dir=str(tmp_path / "director-cache"))
        node = messaging.connect(director.address, timeout=5.0)
        try:
            node.send(
                MessageTag.HELLO,
                {"node_id": "nd-node", "slots": 1, "wire": messaging.WIRE_VERSION},
            )
            deadline = time.monotonic() + 5.0
            while not director._nodes and time.monotonic() < deadline:
                time.sleep(0.01)
            [session] = director._nodes.values()
            for conn in (node, session.conn):
                opt = conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert opt != 0
        finally:
            node.close()
            director.shutdown()


class TestRawBundleExchange:
    """Map bundles ship raw on ARTIFACT_DATA frames, even to a node that
    negotiated zlib at HELLO: deflating an ``.npz`` of float64 maps buys
    a few percent of wire bytes for ~0.1 s of director CPU per bundle.
    Task/result frames keep their negotiated compression."""

    KIND, KEY = "vina", "0123456789abcdef" * 2

    @pytest.fixture
    def director(self, tmp_path):
        director = Director(cache_dir=str(tmp_path / "director-cache"), compress=True)
        # A smooth grid deflates well: a compressing sender would flag it.
        maps = np.tile(np.linspace(-1.0, 1.0, 40), 5 * 40 * 40).reshape(5, 40, 40, 40)
        director.cache.save(self.KIND, self.KEY, {"probe": "C_A"}, {"maps": maps})
        blob = director.cache.blob(self.KIND, self.KEY)
        assert len(zlib.compress(blob)) < len(blob) // 2
        try:
            yield director
        finally:
            director.shutdown()

    def test_negotiated_node_fetches_raw_bundle(
        self, director, tmp_path, monkeypatch
    ):
        node = messaging.connect(director.address, timeout=5.0)
        node.send(
            MessageTag.HELLO,
            {
                "node_id": "raw-node",
                "slots": 1,
                "compress": True,
                "wire": messaging.WIRE_VERSION,
            },
        )
        deadline = time.monotonic() + 5.0
        while not director._nodes and time.monotonic() < deadline:
            time.sleep(0.01)
        [session] = director._nodes.values()
        assert session.compress and session.conn.compress

        frames = []
        recv = messaging.recv_frame

        def spy(sock, **kwargs):
            got = recv(sock, **kwargs)
            if got is not None:
                frames.append((got[0].tag, got[1], got[2]))
            return got

        monkeypatch.setattr(messaging, "recv_frame", spy)
        plane = ArtifactPlane.create(
            map_cache_dir=str(tmp_path / "node-cache"), exchange=director.address
        )
        try:
            assert plane.disk.load(self.KIND, self.KEY) is not None
            assert plane.disk.fetches == 1
            with open(plane.disk._path(self.KIND, self.KEY), "rb") as fh:
                assert fh.read() == director.cache.blob(self.KIND, self.KEY)
        finally:
            plane.destroy()
            node.close()
        # A raw frame inflates to exactly its wire size (no FLAG_ZLIB).
        [(wire, raw)] = [
            (wire, raw)
            for tag, wire, raw in frames
            if tag is MessageTag.ARTIFACT_DATA
        ]
        assert wire == raw
        assert director.artifact_hits == 1

    def test_request_asking_for_compression_gets_raw_frame(self, director):
        """Older nodes still send ``"compress": True``; it is ignored."""
        request = messaging.Message(
            MessageTag.ARTIFACT_REQUEST,
            0,
            0,
            {"kind": self.KIND, "key": self.KEY, "compress": True},
            1,
        )
        with socket.create_connection(director.address, timeout=5.0) as sock:
            messaging.send_frame(sock, request)
            header = messaging._recv_exact(sock, messaging.FRAME_HEADER.size)
            length, flags = messaging.FRAME_HEADER.unpack(header)
            body = messaging._recv_exact(sock, length)
        assert not flags & messaging.FLAG_ZLIB
        reply = pickle.loads(body)
        assert reply.tag is MessageTag.ARTIFACT_DATA
        assert reply.payload["blob"] == director.cache.blob(self.KIND, self.KEY)


class TestBatchedNodeLoss:
    def test_sigkill_mid_batch_reexecutes_only_uncompleted_members(
        self, monkeypatch
    ):
        monkeypatch.setattr(distributed, "BATCH_LINGER", 0.02)
        wf = Workflow(
            "distbatchloss", [Activity("paced", Operator.MAP, fn=da.paced)]
        )
        relation = Relation(
            "in",
            [
                {
                    "key": f"k{i:02d}",
                    "receptor_id": RECEPTORS[i % len(RECEPTORS)],
                    "sleep_s": 0.25,
                }
                for i in range(16)
            ],
        )
        store = ProvenanceStore()
        engine = LocalEngine(
            store,
            workers=4,
            backend="distributed",
            min_nodes=2,
            join_timeout=30.0,
            batch_size=4,
            compress_frames=True,
        )
        victim = _spawn_worker(engine.director_address, "bvictim")
        survivor = _spawn_worker(engine.director_address, "bsurvivor")
        box: dict = {}

        def _run():
            box["report"] = engine.run(
                wf, relation, context={"shared_maps": False}
            )

        t = threading.Thread(target=_run)
        t.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if sum(engine._director.tuples_per_node.values()) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("run never got in flight")
            victim.send_signal(signal.SIGKILL)
            t.join(timeout=120.0)
            assert not t.is_alive(), "run hung after node loss"
        finally:
            engine.shutdown()
            _reap([victim, survivor])

        report = box["report"]
        assert sorted(t["key"] for t in report.output) == sorted(
            f"k{i:02d}" for i in range(16)
        )
        assert report.counts.get("FINISHED", 0) == 16
        assert report.infra_retries >= 1
        assert report.nodes_lost == 1
        assert report.tuples_per_node.get("bsurvivor", 0) > 0

        # Only the *uncompleted* members of the victim's in-flight
        # batches re-executed: each infra retry is exactly one extra
        # activation attempt, so completed-before-kill tuples ran once.
        attempts = store.sql(
            "SELECT COUNT(*) AS n FROM hactivation t"
            " JOIN hactivity a ON t.actid = a.actid"
            " WHERE a.wkfid = ?",
            (report.wkfid,),
        )[0]["n"]
        assert attempts == 16 + report.infra_retries


class TestLateJoin:
    def test_node_joining_mid_run_takes_over_after_sole_node_dies(
        self, monkeypatch
    ):
        monkeypatch.setattr(distributed, "BATCH_LINGER", 0.02)
        wf = Workflow(
            "distlate", [Activity("paced", Operator.MAP, fn=da.paced)]
        )
        relation = Relation(
            "in",
            [
                {
                    "key": f"k{i:02d}",
                    "receptor_id": RECEPTORS[i % len(RECEPTORS)],
                    "sleep_s": 0.25,
                }
                for i in range(12)
            ],
        )
        store = ProvenanceStore()
        engine = LocalEngine(
            store,
            workers=4,
            backend="distributed",
            min_nodes=1,
            join_timeout=60.0,
            batch_size=4,
            compress_frames=True,
        )
        early = _spawn_worker(engine.director_address, "early")
        late = None
        box: dict = {}

        def _run():
            box["report"] = engine.run(
                wf, relation, context={"shared_maps": False}
            )

        t = threading.Thread(target=_run)
        t.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if sum(engine._director.tuples_per_node.values()) >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("run never got in flight")
            early.send_signal(signal.SIGKILL)
            # Wait for the loss to register — the backlog is now parked
            # (orphaned or pending resubmission) with zero live nodes.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if engine._director.nodes_lost >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("node loss never registered")
            late = _spawn_worker(engine.director_address, "late")
            t.join(timeout=120.0)
            assert not t.is_alive(), "run hung waiting for the late joiner"
        finally:
            engine.shutdown()
            _reap([w for w in (early, late) if w is not None])

        report = box["report"]
        assert sorted(t["key"] for t in report.output) == sorted(
            f"k{i:02d}" for i in range(12)
        )
        assert report.counts.get("FINISHED", 0) == 12
        assert report.nodes_joined == 2
        assert report.nodes_lost == 1
        # The late joiner finished everything the dead node left behind.
        assert report.tuples_per_node.get("late", 0) > 0
        events = {e["event"] for e in store.journal_events(report.wkfid)}
        assert {"node-joined", "node-lost"} <= events


def _fake_node(director, node_id, credits):
    """A ready node session on one end of a socketpair; the other end
    (returned) plays the worker."""
    from repro.workflow.distributed import _NodeSession
    from repro.workflow.messaging import FrameConn

    a, b = socket.socketpair()
    node = _NodeSession(
        rank=next(director._rank_seq),
        node_id=node_id,
        slots=2,
        conn=FrameConn(a),
    )
    node.ready = True
    node.credits = credits
    with director._lock:
        director._nodes[node.rank] = node
        director._placement.add(node.rank)
        director.nodes_joined += 1
    return node, FrameConn(b)


def _release(director, peers) -> None:
    with director._lock:
        for node in director._nodes.values():
            node.stats_event.set()
    director.shutdown()
    for peer in peers:
        peer.close()


class TestOrphanDrainWhiteBox:
    """Director-level: a lost node's unsent backlog (queued + batched-
    pending) becomes orphans when no survivor exists, and the next node
    to join drains it; only wire-inflight members fail onto infra."""

    def test_orphaned_backlog_drains_to_next_joining_node(self, monkeypatch):
        from repro.workflow.affinity import RouterError

        # Never auto-flush: the test drives the linger window by hand.
        monkeypatch.setattr(distributed, "BATCH_LINGER", 60.0)
        director = Director(min_nodes=1, join_timeout=5.0, batch_size=4)
        placement = director._placement
        peers = []
        try:
            doomed, peer_a = _fake_node(director, "doomed", credits=5)
            peers.append(peer_a)
            futures = [
                director.submit(None, da.prep, {"key": f"wb{i}"})
                for i in range(7)
            ]
            # credits=5, batch_size=4: members 0-3 shipped as one
            # TASK_BATCH, member 4 pending in a partial batch, 5-6 queued.
            frame = peer_a.recv()
            assert frame.tag is MessageTag.TASK_BATCH
            members = frame.payload["tasks"]
            assert len(members) == 4
            assert len(doomed.pending) == 1
            assert len(placement.backlog(doomed.rank)) == 2

            # One batch member completes before the node dies.
            with director._lock:
                director._finish_entry_locked(
                    doomed,
                    {"task_id": members[0]["task_id"], "value": "done"},
                    failed=False,
                )
            assert futures[0].result(timeout=5.0) == "done"

            with director._lock:
                director._mark_lost_locked(doomed, "unit-test kill")

            # Wire-inflight uncompleted members fail as infra errors...
            for future in futures[1:4]:
                with pytest.raises(RouterError):
                    future.result(timeout=5.0)
            # ...while the never-sent backlog is orphaned, not failed.
            assert len(placement.orphans) == 3
            assert all(not f.done() for f in futures[4:])
            assert director.nodes_lost == 1
            assert director.tuples_per_node == {"doomed": 1}

            late, peer_b = _fake_node(director, "late", credits=6)
            peers.append(peer_b)
            with director._lock:
                director._flush_locked(late)
                # The whole orphan backlog was admitted to the new
                # node's batch; expire the linger window by hand.
                assert not placement.orphans
                assert len(late.pending) == 3
                director._ship_pending_locked(late)
            frame = peer_b.recv()
            assert frame.tag is MessageTag.TASK_BATCH
            drained = frame.payload["tasks"]
            assert len(drained) == 3
            with director._lock:
                for entry in drained:
                    director._finish_entry_locked(
                        late,
                        {"task_id": entry["task_id"], "value": "late-done"},
                        failed=False,
                    )
            for future in futures[4:]:
                assert future.result(timeout=5.0) == "late-done"
            assert director.tuples_per_node["late"] == 3
        finally:
            _release(director, peers)


class TestSingleFraming:
    """Tasks always travel as TASK_BATCH and completions as RESULT_BATCH,
    whatever the batch size; a HELLO from another wire version is
    refused before SETUP."""

    def test_unbatched_tasks_ship_as_one_member_batches(self):
        director = Director(min_nodes=1, join_timeout=5.0, batch_size=1)
        node, peer = _fake_node(director, "solo", credits=1)
        threading.Thread(
            target=director._node_loop, args=(node,), daemon=True
        ).start()
        try:
            futures = [
                director.submit("R1", da.prep, {"key": f"u{i}"})
                for i in range(3)
            ]
            for i, future in enumerate(futures):
                frame = peer.recv()
                assert frame.tag is MessageTag.TASK_BATCH
                [member] = frame.payload["tasks"]
                with director._lock:
                    # One credit: the rest wait for this result's credit.
                    assert node.credits == 0
                    assert len(director._placement.backlog(node.rank)) == 2 - i
                peer.send(
                    MessageTag.RESULT_BATCH,
                    {"results": [{"task_id": member["task_id"], "value": i}], "n": 1},
                )
                assert future.result(timeout=5.0) == i
            assert director.task_frames_sent == director.tasks_framed == 3
            assert director.batches_sent == 0
        finally:
            _release(director, [peer])

    def test_hello_from_another_wire_version_is_closed_before_setup(self):
        from repro.workflow.messaging import WIRE_VERSION, FrameConn

        director = Director(min_nodes=1, join_timeout=5.0)
        director.start_run({"run": "context"})
        peers = []

        def hello(payload):
            a, b = socket.socketpair()
            peer = FrameConn(b)
            peers.append(peer)
            peer.send(MessageTag.HELLO, payload)
            director._serve_connection(FrameConn(a))
            return peer.recv()

        try:
            for wire in ({}, {"wire": WIRE_VERSION - 1}, {"wire": "2"}):
                assert hello({"node_id": "old", "slots": 1, **wire}) is None
            assert director.nodes_joined == 0
            assert not director._nodes
            setup = hello({"node_id": "current", "slots": 1, "wire": WIRE_VERSION})
            assert setup.tag is MessageTag.SETUP
            assert director.nodes_joined == 1
        finally:
            _release(director, peers)
