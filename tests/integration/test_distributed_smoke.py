"""End-to-end distributed smoke: director + 2 TCP workers, one killed.

This is the CI ``distributed-smoke`` job's target. It exercises the
full socket stack — join handshake, context shipping, credit-based
pull dispatch, heartbeats, node-loss recovery — over real localhost
TCP with real worker subprocesses, and must finish fast (the CI job
carries a hard ``timeout-minutes``).
"""

import importlib.util
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.provenance.store import ProvenanceStore
from repro.workflow import distributed
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import LocalEngine
from repro.workflow.relation import Relation

_HERE = Path(__file__).resolve().parent
_ACTIVITIES_DIR = _HERE.parent / "workflow"
SRC = _HERE.parents[1] / "src"

da = sys.modules.get("_dist_activities")
if da is None:
    _spec = importlib.util.spec_from_file_location(
        "_dist_activities", _ACTIVITIES_DIR / "_dist_activities.py"
    )
    da = importlib.util.module_from_spec(_spec)
    sys.modules["_dist_activities"] = da
    _spec.loader.exec_module(da)

N_TUPLES = 12


def _spawn_worker(address, node_id: str) -> subprocess.Popen:
    host, port = address
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(_ACTIVITIES_DIR), env.get("PYTHONPATH", "")]
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.workflow.worker",
            "--join",
            f"{host}:{port}",
            "--slots",
            "2",
            "--node-id",
            node_id,
        ],
        env=env,
    )


#: CI matrix axis: one task per TASK_BATCH frame, and four per frame
#: with zlib-compressed frames (lingering 0.02 s for partial batches).
WIRE_MODES = {
    "unbatched": {},
    "batched-zlib": {"batch_size": 4, "compress_frames": True},
}


@pytest.mark.parametrize("wire", sorted(WIRE_MODES))
def test_two_workers_survive_one_sigkill(wire, monkeypatch):
    monkeypatch.setattr(distributed, "BATCH_LINGER", 0.02)
    wf = Workflow(
        "smoke", [Activity("paced", Operator.MAP, fn=da.paced)]
    )
    relation = Relation(
        "in",
        [
            {"key": f"s{i:02d}", "receptor_id": f"R{i % 2}", "sleep_s": 0.2}
            for i in range(N_TUPLES)
        ],
    )
    store = ProvenanceStore()
    engine = LocalEngine(
        store,
        workers=4,
        backend="distributed",
        min_nodes=2,
        join_timeout=60.0,
        **WIRE_MODES[wire],
    )
    victim = _spawn_worker(engine.director_address, "smoke-victim")
    survivor = _spawn_worker(engine.director_address, "smoke-survivor")
    box: dict = {}

    def _run():
        box["report"] = engine.run(
            wf, relation, context={"shared_maps": False}
        )

    runner = threading.Thread(target=_run)
    runner.start()
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if sum(engine._director.tuples_per_node.values()) >= 2:
                break
            time.sleep(0.05)
        else:
            pytest.fail("run never got in flight")
        victim.send_signal(signal.SIGKILL)
        runner.join(timeout=120.0)
        assert not runner.is_alive(), "run hung after worker SIGKILL"
    finally:
        engine.shutdown()
        for proc in (victim, survivor):
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)

    report = box["report"]
    assert sorted(t["key"] for t in report.output) == sorted(
        f"s{i:02d}" for i in range(N_TUPLES)
    )
    assert report.counts.get("FINISHED", 0) == N_TUPLES
    assert report.nodes_joined == 2
    assert report.nodes_lost == 1
    if wire == "batched-zlib":
        assert report.batches_sent >= 1
        assert report.wire_bytes_saved > 0
