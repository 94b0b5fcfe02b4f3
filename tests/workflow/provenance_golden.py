"""Golden provenance snapshot: what a run leaves in the store.

Runs a fixed set of small workflows — with injected failures, retries,
looping inputs (blocked by the Hg routine, or aborted with it off) and
a steering abort — and folds everything a reader can get back out of
the store into one JSON-able dict: every :mod:`repro.provenance.queries`
query, ``counts_by_status``, the PROV export, the raw ``hactivation`` /
``hfile`` / ``hextract`` / ``hdependency`` rows and the decoded run
journal.

* The :class:`~repro.workflow.engine.SimulatedEngine` runs use virtual
  time, so their snapshot is exact, timestamps included.
* The threads-backend runs (one worker, so taskids and journal order
  are deterministic) keep only the non-time columns.

``test_provenance_golden.py`` compares a fresh snapshot against
``provenance_golden.json``. To re-record the fixture::

    PYTHONPATH=src python tests/workflow/provenance_golden.py \\
        tests/workflow/provenance_golden.json
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

from repro.cloud.cluster import VirtualCluster
from repro.cloud.failures import ActivityFailureModel
from repro.cloud.provider import CloudProvider
from repro.cloud.simclock import SimClock
from repro.provenance.prov_model import export_prov_document
from repro.provenance.queries import (
    activation_durations,
    activity_history_statistics,
    lineage_chain,
    query1_activity_statistics,
    query2_files,
    workflow_tet,
)
from repro.provenance.store import ProvenanceStore
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import LocalEngine, SimulatedEngine
from repro.workflow.extractor import JsonExtractor
from repro.workflow.fault import RetryPolicy
from repro.workflow.journal import decode_payload
from repro.workflow.relation import Relation
from repro.workflow.steering import SteeringControl

#: Columns that carry wall-clock time on a real backend.
TIME_COLUMNS = {
    "starttime", "endtime", "ts", "prov:startTime", "prov:endTime",
}

LOOPING = {"k03", "k08"}
STEERED = "k05"


def prep(t, c):
    return [{
        **t,
        "_files": [(f"{t['key']}.pdbqt", 100 + int(t["key"][1:]), "/prep")],
    }]


def dock(t, c):
    n = int(t["key"][1:])
    return [{
        **t,
        "feb": -float(n),
        "_files": [(f"{t['key']}.dlg", 1000 + n, "/dock")],
        "_extract_payload": json.dumps({"feb": -float(n), "runs": n % 3}),
    }]


def rank(t, c):
    best = min(u["feb"] for u in t["__tuples__"])
    return [{"key": "best", "feb": best}]


def _workflow(dock_fn=dock) -> Workflow:
    return Workflow(
        "golden",
        [
            Activity("prep", Operator.MAP, fn=prep, cost_fn=lambda t: 2.0),
            Activity(
                "dock",
                Operator.MAP,
                fn=dock_fn,
                cost_fn=lambda t: 10.0 + int(t["key"][1:]),
                extractors=[JsonExtractor(keys=("feb", "runs"))],
                looping_predicate=lambda t: t["key"] in LOOPING,
            ),
            Activity("rank", Operator.REDUCE, fn=rank, cost_fn=lambda t: 1.0),
        ],
    )


def _relation(n: int = 12) -> Relation:
    return Relation(
        "pairs",
        [{"key": f"k{i:02d}", "receptor_id": f"R{i % 3}"} for i in range(n)],
    )


def _steering() -> SteeringControl:
    control = SteeringControl()
    control.abort_activation("dock", STEERED)
    return control


def _rows(store: ProvenanceStore, sql: str, wkfid: int) -> list[dict]:
    return [dict(r) for r in store.sql(sql, (wkfid,))]


def snapshot(store: ProvenanceStore, wkfid: int) -> dict:
    """Everything a reader can query back about run ``wkfid``."""
    activations = _rows(
        store,
        "SELECT t.* FROM hactivation t JOIN hactivity a ON t.actid = a.actid"
        " WHERE a.wkfid = ? ORDER BY t.taskid",
        wkfid,
    )
    keys = sorted({r["tuple_key"] for r in activations})
    journal = [
        {
            "seq": r["seq"],
            "event": r["event"],
            "stage": r["stage"],
            "tuple_key": r["tuple_key"],
            "ts": r["ts"],
            "payload": repr(decode_payload(r["payload"])),
        }
        for r in store.journal_events(wkfid)
    ]
    return {
        "counts_by_status": store.counts_by_status(wkfid),
        "query1": [
            asdict(s) for s in query1_activity_statistics(store, wkfid)
        ],
        "query2": [asdict(f) for f in query2_files(store, wkfid)],
        "query2_pdbqt": [
            asdict(f) for f in query2_files(store, wkfid, ".pdbqt")
        ],
        "lineage": {
            k: [asdict(s) for s in lineage_chain(store, wkfid, k)]
            for k in keys
        },
        "durations": activation_durations(store, wkfid),
        "tet": workflow_tet(store, wkfid),
        "prov": export_prov_document(store, wkfid),
        "hactivation": activations,
        "hfile": _rows(
            store,
            "SELECT f.* FROM hfile f JOIN hactivation t ON f.taskid = t.taskid"
            " JOIN hactivity a ON t.actid = a.actid WHERE a.wkfid = ?"
            " ORDER BY f.fileid",
            wkfid,
        ),
        "hextract": _rows(
            store,
            "SELECT e.* FROM hextract e JOIN hactivation t"
            " ON e.taskid = t.taskid JOIN hactivity a ON t.actid = a.actid"
            " WHERE a.wkfid = ? ORDER BY e.extractid",
            wkfid,
        ),
        "hdependency": _rows(
            store,
            "SELECT * FROM hdependency WHERE wkfid = ? ORDER BY depid",
            wkfid,
        ),
        "journal": journal,
    }


def _strip_time(obj):
    """Drop wall-clock fields from a snapshot (threads backend)."""
    if isinstance(obj, dict):
        return {
            k: _strip_time(v) for k, v in obj.items() if k not in TIME_COLUMNS
        }
    if isinstance(obj, list):
        return [_strip_time(v) for v in obj]
    return obj


def simulated_snapshots() -> dict:
    """Two virtual-time runs in one store: Hg routine on, then off."""
    store = ProvenanceStore()
    out = {}
    for label, block in (("sim_blocking", True), ("sim_watchdog", False)):
        cluster = VirtualCluster(CloudProvider(SimClock()))
        cluster.scale_to(4)
        engine = SimulatedEngine(
            store,
            cluster,
            retry=RetryPolicy(max_attempts=2, retry_delay=0.5),
            failure_model=ActivityFailureModel(rate=0.3, seed=3),
            block_known_loopers=block,
        )
        report = engine.run(
            _workflow(), _relation(), context={"steering": _steering()}
        )
        out[label] = snapshot(store, report.wkfid)
    out["sim_history"] = [
        asdict(s) for s in activity_history_statistics(store)
    ]
    store.close()
    return out


def threads_snapshots() -> dict:
    """Real threads-backend runs: activation failures and retries, the
    Hg routine on and off, a steering abort; non-time columns only."""
    store = ProvenanceStore()
    out = {}
    for label, block in (("threads_blocking", True), ("threads_abort", False)):
        tries: dict[str, int] = {}

        def flaky_dock(t, c):
            key = t["key"]
            tries[key] = tries.get(key, 0) + 1
            if key == "k07" or (key in ("k01", "k10") and tries[key] == 1):
                raise RuntimeError(f"injected failure of {key}")
            return dock(t, c)

        engine = LocalEngine(
            store,
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            block_known_loopers=block,
        )
        report = engine.run(
            _workflow(flaky_dock), _relation(),
            context={"steering": _steering()},
        )
        snap = snapshot(store, report.wkfid)
        for key in ("durations", "tet"):
            snap.pop(key)
        # Query 1's aggregates are durations; its counts are not.
        snap["query1"] = [(s["tag"], s["count"]) for s in snap["query1"]]
        out[label] = _strip_time(snap)
    store.close()
    return out


def all_snapshots() -> dict:
    # A JSON round trip turns tuples into lists, as the fixture has them.
    return json.loads(
        json.dumps({**simulated_snapshots(), **threads_snapshots()})
    )


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        json.dump(all_snapshots(), fh, indent=1, sort_keys=True)
        fh.write("\n")
