"""Director child for the distributed SIGKILL crash-resume chaos test.

Runs a real two-stage pipeline on the *distributed* backend: this
process hosts the director and spawns its own two worker-node
subprocesses (same process group, so the parent's ``killpg`` takes the
director and every node down together). The provenance store's write
buffer is effectively infinite, so the only records that reach disk
before the kill are the run journal's terminal-event flush barriers.
``slow-*`` keys spin in the final stage while the gate file exists,
guaranteeing the parent kills us mid-pipeline.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

# Reuse an already-registered copy (the test module loads one) so a
# second module object never shadows the name pickle resolves against.
da = sys.modules.get("_dist_activities")
if da is None:
    _spec = importlib.util.spec_from_file_location(
        "_dist_activities", HERE / "_dist_activities.py"
    )
    da = importlib.util.module_from_spec(_spec)
    sys.modules["_dist_activities"] = da
    _spec.loader.exec_module(da)

from repro.provenance.store import ProvenanceStore  # noqa: E402
from repro.workflow import distributed  # noqa: E402
from repro.workflow.activity import Activity, Operator, Workflow  # noqa: E402
from repro.workflow.engine import LocalEngine  # noqa: E402
from repro.workflow.relation import Relation  # noqa: E402

KEYS = ["fast-a", "fast-b", "fast-c", "fast-d", "slow-x"]


def build_workflow() -> Workflow:
    return Workflow(
        "distcrash",
        [
            Activity("stage1", Operator.MAP, fn=da.prep),
            Activity("stage2", Operator.MAP, fn=da.gated),
        ],
    )


def build_relation() -> Relation:
    return Relation("in", [{"key": k} for k in KEYS])


def main(db_path: str, gate_path: str, mode: str = "plain") -> None:
    store = ProvenanceStore(
        db_path, buffer_size=100_000, flush_interval=3600.0
    )
    # "batched" exercises the TASK_BATCH + zlib wire path so the parent
    # can assert crash-resume semantics survive transport batching.
    wire_kwargs = (
        {"batch_size": 4, "compress_frames": True} if mode == "batched" else {}
    )
    if mode == "batched":
        distributed.BATCH_LINGER = 0.02
    engine = LocalEngine(
        store,
        workers=2,
        backend="distributed",
        min_nodes=2,
        join_timeout=30.0,
        **wire_kwargs,
    )
    host, port = engine.director_address
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE), env.get("PYTHONPATH", "")]
    )
    for i in range(2):
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.workflow.worker",
                "--join",
                f"{host}:{port}",
                "--slots",
                "2",
                "--node-id",
                f"crash-node-{i}",
            ],
            env=env,
        )
    engine.run(
        build_workflow(),
        build_relation(),
        context={"shared_maps": False, "gate_path": gate_path},
    )
    engine.shutdown()
    store.close()


if __name__ == "__main__":
    main(
        sys.argv[1],
        sys.argv[2],
        sys.argv[3] if len(sys.argv) > 3 else "plain",
    )
