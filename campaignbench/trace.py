"""Span tracing from outside the program, and the per-layer metrics.

The benchmark does not edit ``src/``: it wraps the entry points of
each layer (public ones, plus ``ProvenanceStore._flush_locked``, the
single place the store writes SQLite) in every process that runs them — the campaign process itself, each pool worker of the
``processes`` backend (through the pool initializer) and each worker
node of the ``distributed`` backend (through ``node.py``). Spans stay in
memory and are written to ``spans-<pid>.json`` when the process ends.

A span records name, start, end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so spans from different processes
of one host share a time axis), its parent span and the time its child
spans cover; self time is duration minus that. Hot scoring calls are
*folded*: instead of one span per call, the enclosing span keeps a
``(calls, seconds)`` total per name, which keeps the span file small
and the tracing overhead low.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time

#: Activity function name in ``repro.core.activities`` -> workflow tag.
ACTIVITY_FUNCTIONS = {
    "babel": "babel",
    "prepare_ligand": "prepare_ligand",
    "prepare_receptor": "prepare_receptor",
    "prepare_gpf_activity": "prepare_gpf",
    "autogrid_activity": "autogrid",
    "docking_filter": "docking_filter",
    "prepare_docking": "prepare_docking",
    "docking": "docking",
}
ACTIVITY_TAGS = tuple(ACTIVITY_FUNCTIONS.values())


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.marks: list[dict] = []
        #: Plain counters (bytes per frame tag): name -> total.
        self.counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, attrs=None, after=None):
        """``fn`` wrapped so each call records one span.

        ``attrs(args, kwargs)`` and ``after(result)`` add attributes
        before and after the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = {
                "name": name,
                "id": f"{tracer.pid}:{next(tracer._ids)}",
                "parent": stack[-1]["id"] if stack else None,
                "pid": tracer.pid,
                "tid": threading.get_ident(),
                "child_s": 0.0,
                "fold": {},
                "attrs": attrs(args, kwargs) if attrs is not None else {},
            }
            stack.append(frame)
            frame["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                frame["end"] = end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += end - frame["start"]
                tracer.spans.append(frame)
            if after is not None:
                frame["attrs"].update(after(result))
            return result

        return wrapper

    def fold(self, name: str, fn):
        """``fn`` wrapped so its time is charged to the enclosing span.

        Nested folded calls (one scorer method calling another) are
        timed once, by the outermost call; calls outside any span are
        not timed.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            if not stack or getattr(local, "folding", False):
                return fn(*args, **kwargs)
            local.folding = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.folding = False
                entry = stack[-1]["fold"].setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                stack[-1]["child_s"] += elapsed

        return wrapper

    def count(self, name: str, amount: int) -> None:
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "marks": self.marks,
            "counters": self.counters,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _pair_attrs(args, kwargs) -> dict:
    tup = args[0] if args else kwargs.get("tup", {})
    return {"rec": tup.get("receptor_id"), "lig": tup.get("ligand_id")}


def _source(result) -> dict:
    return {"source": result[2]}


def _evaluations(result) -> dict:
    return {"evaluations": int(result.evaluations)}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of this process's ``repro`` modules.

    Must run before the workflow is built: activities are bound into
    the workflow by reference, and pickled by name to pool workers and
    nodes, where the same names resolve to that process's wrappers.
    """
    from repro.core import activities
    from repro.docking import scoring_vina
    from repro.docking.autodock import AutoDock4
    from repro.docking.autogrid import AutoGrid
    from repro.docking.scoring_ad4 import AD4Scorer
    from repro.docking.scoring_vina import VinaScorer
    from repro.docking.vina import Vina
    from repro.provenance.store import ProvenanceStore
    from repro.workflow import messaging
    from repro.workflow.artifacts import ArtifactPlane, DiskMapCache
    from repro.workflow.journal import RunJournal

    for fn_name, tag in ACTIVITY_FUNCTIONS.items():
        original = getattr(activities, fn_name)
        setattr(
            activities,
            fn_name,
            tracer.span(f"activity.{tag}", original, attrs=_pair_attrs),
        )

    AutoGrid.run = tracer.span("maps.ad4_build", AutoGrid.run)
    vina_build = tracer.span("maps.vina_build", scoring_vina.build_vina_maps)
    scoring_vina.build_vina_maps = vina_build
    activities.build_vina_maps = vina_build

    for cls in (ArtifactPlane, DiskMapCache):
        cls.get_or_build = tracer.span(
            "artifacts.lookup", cls.get_or_build, after=_source
        )

    AutoDock4.dock = tracer.span(
        "dock.ad4.search", AutoDock4.dock, after=_evaluations
    )
    Vina.dock = tracer.span("dock.vina.search", Vina.dock, after=_evaluations)
    for method in ("docking_energy_batch", "docking_energy", "score"):
        setattr(
            AD4Scorer, method,
            tracer.fold("dock.ad4.score", getattr(AD4Scorer, method)),
        )
    for method in (
        "search_energy", "search_energy_batch", "total", "intramolecular",
    ):
        setattr(
            VinaScorer, method,
            tracer.fold("dock.vina.score", getattr(VinaScorer, method)),
        )

    # The one place the store writes SQLite: every buffered, interval
    # and barrier flush goes through it.
    ProvenanceStore._flush_locked = tracer.span(
        "provenance.flush", ProvenanceStore._flush_locked
    )
    RunJournal.record = tracer.span("journal.record", RunJournal.record)
    original_init = RunJournal.__init__

    @functools.wraps(original_init)
    def journal_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if self.clock is not None:
            # Journal timestamps are perf_counter() - t0; keep t0 so they
            # can be placed on the spans' time axis.
            tracer.marks.append({
                "name": "journal.clock",
                "wkfid": self.wkfid,
                "t0": time.perf_counter() - self.clock(),
            })

    RunJournal.__init__ = journal_init

    # Wire bytes by frame tag: FrameConn.send frames every message
    # through this function, which returns the on-wire size.
    original_send_frame = messaging.send_frame

    @functools.wraps(original_send_frame)
    def send_frame(sock, message, *args, **kwargs):
        wire, raw = original_send_frame(sock, message, *args, **kwargs)
        tracer.count(f"wire.sent.{message.tag.name}", wire)
        return wire, raw

    messaging.send_frame = send_frame


# -- worker-side installation --------------------------------------------------
_WORKER_TRACER: Tracer | None = None


def worker_init(trace_dir: str) -> None:
    """Pool-worker initializer: trace this process, dump spans at exit."""
    from multiprocessing import util

    global _WORKER_TRACER
    _WORKER_TRACER = tracer = Tracer()
    install(tracer)
    util.Finalize(
        None,
        tracer.dump,
        args=(os.path.join(trace_dir, f"spans-{tracer.pid}.json"),),
        exitpriority=100,
    )


def traced_router(trace_dir: str):
    """An ``AffinityRouter`` subclass whose pool workers are traced."""
    from repro.workflow.affinity import AffinityRouter

    class TracedRouter(AffinityRouter):
        def __init__(self, workers, mp_context, initializer=None, **kwargs):
            super().__init__(
                workers,
                mp_context,
                functools.partial(worker_init, trace_dir),
                **kwargs,
            )

    return TracedRouter


def load_dumps(trace_dir: str) -> list[dict]:
    dumps = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                dumps.append(json.load(fh))
    return dumps


# -- per-layer metrics -----------------------------------------------------------
def _quantiles(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def _self_s(span: dict) -> float:
    return span["end"] - span["start"] - span["child_s"]


def layer_metrics(
    *,
    dumps: list[dict],
    window: tuple[float, float],
    store,
    wkfid: int,
    report,
    workflow,
    slots: int,
) -> tuple[dict, list[dict], list[dict]]:
    """Per-layer metrics of one traced run.

    Returns ``(metrics, fig6_rows, self_time_rows)``. Only spans that
    start inside ``window`` (the timed run) count, so set-up work such
    as the map prefill never shows as a run-time build.
    """
    from repro.provenance.queries import query1_activity_statistics
    from repro.workflow.journal import decode_payload

    w0, w1 = window
    tet = w1 - w0
    spans = [
        s for d in dumps for s in d["spans"] if w0 <= s["start"] <= w1
    ]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    metrics: dict[str, float] = {}

    # Fig 6: busy seconds per activity from provenance Query 1.
    stats = {s.tag: s for s in query1_activity_statistics(store, wkfid)}
    fig6 = []
    busy_total = sum(s.sum for s in stats.values()) or 1.0
    for tag in ACTIVITY_TAGS:
        busy = stats[tag].sum if tag in stats else 0.0
        metrics[f"activity.{tag}_s"] = busy
        fig6.append({
            "tag": tag,
            "count": stats[tag].count if tag in stats else 0,
            "busy_s": busy,
            "share": busy / busy_total,
        })

    ad4_builds = named("maps.ad4_build")
    vina_builds = named("maps.vina_build")
    metrics["maps.ad4_build_s"] = sum(s["end"] - s["start"] for s in ad4_builds)
    metrics["maps.vina_build_s"] = sum(
        s["end"] - s["start"] for s in vina_builds
    )
    metrics["maps.builds"] = len(ad4_builds) + len(vina_builds)

    lookups = named("artifacts.lookup")
    hits = sum(1 for s in lookups if s["attrs"].get("source") != "built")
    metrics["artifacts.lookup_s"] = sum(_self_s(s) for s in lookups)
    metrics["artifacts.hit_rate"] = hits / len(lookups) if lookups else 0.0
    exchange = int(report.artifact_stats.get("exchange_bytes_served", 0) or 0)
    metrics["artifacts.exchange_mb"] = exchange / 2**20

    for engine in ("ad4", "vina"):
        docks = named(f"dock.{engine}.search")
        fold_name = f"dock.{engine}.score"
        metrics[f"dock.{engine}.search_self_s"] = sum(_self_s(s) for s in docks)
        metrics[f"dock.{engine}.score_s"] = sum(
            s["fold"].get(fold_name, [0, 0.0])[1] for s in docks
        )
        metrics[f"dock.{engine}.evaluations"] = sum(
            s["attrs"].get("evaluations", 0) for s in docks
        )

    # Coordinator and plane: the journal's scheduled/dispatched events,
    # placed on the span clock through the journal's own t0.
    # Lineage keys name a tuple, which flows through every stage, so an
    # item is (stage, key).
    scheduled: dict[tuple, tuple[dict, float]] = {}
    dispatched: dict[tuple, float] = {}
    attempts = 0
    events = store.journal_events(wkfid)
    for row in events:
        item = (row["stage"], row["tuple_key"])
        if row["event"] == "scheduled":
            payload = decode_payload(row["payload"]) or {}
            scheduled[item] = (payload.get("tup") or {}, row["ts"])
        elif row["event"] == "dispatched":
            dispatched.setdefault(item, row["ts"])
        elif row["event"] == "attempt-start":
            attempts += 1
    waits = [
        ts - scheduled[item][1]
        for item, ts in dispatched.items()
        if item in scheduled
    ]
    p50, p90 = _quantiles(waits)
    metrics["coordinator.queue_wait_p50_s"] = p50
    metrics["coordinator.queue_wait_p90_s"] = p90
    metrics["coordinator.queue_wait_samples"] = len(waits)
    metrics["coordinator.activations"] = attempts
    metrics["coordinator.retries"] = report.retried + report.infra_retries

    # The map prefill runs its own engine (and journal) during set-up;
    # the timed run's journal is the one whose clock starts in the window.
    t0 = next(
        (
            m["t0"]
            for d in dumps
            for m in d["marks"]
            if m["name"] == "journal.clock"
            and m["wkfid"] == wkfid
            and m["t0"] >= w0
        ),
        None,
    )
    starts: dict[tuple, list[float]] = {}
    busy = 0.0
    for tag in ACTIVITY_TAGS:
        for s in named(f"activity.{tag}"):
            key = (tag, s["attrs"].get("rec"), s["attrs"].get("lig"))
            starts.setdefault(key, []).append(s["start"])
            busy += s["end"] - s["start"]
    handoffs = []
    if t0 is not None:
        tags = [a.tag for a in workflow.activities]
        for (stage, key), ts in dispatched.items():
            if (stage, key) not in scheduled:
                continue
            tup = scheduled[(stage, key)][0]
            at = t0 + ts
            later = [
                st
                for st in starts.get(
                    (tags[stage], tup.get("receptor_id"), tup.get("ligand_id")),
                    [],
                )
                if st >= at - 1e-3
            ]
            if later:
                handoffs.append(max(0.0, min(later) - at))
    p50, p90 = _quantiles(handoffs)
    metrics["plane.handoff_p50_s"] = p50
    metrics["plane.handoff_p90_s"] = p90
    metrics["plane.handoff_samples"] = len(handoffs)
    metrics["plane.steals"] = report.steals
    metrics["plane.slot_idle_frac"] = (
        max(0.0, 1.0 - busy / (slots * tet)) if tet > 0 else 0.0
    )

    task_bytes = sum(
        d.get("counters", {}).get(f"wire.sent.{tag}", 0)
        for d in dumps
        for tag in ("TASK", "TASK_BATCH")
    )
    metrics["wire.task_bytes_per_activation"] = task_bytes / max(1, attempts)
    metrics["wire.avg_batch_fill"] = report.avg_batch_fill
    metrics["wire.compression_ratio"] = (
        report.compression_ratio if report.wire_bytes_sent else 0.0
    )
    per_node = report.tuples_per_node or {}
    metrics["node.max_tuple_share"] = (
        max(per_node.values()) / sum(per_node.values()) if per_node else 0.0
    )

    metrics["provenance.flush_s"] = sum(
        s["end"] - s["start"] for s in named("provenance.flush")
    )
    metrics["journal.record_s"] = sum(_self_s(s) for s in named("journal.record"))
    metrics["journal.events"] = len(events)

    rows = []
    for name, group in sorted(by_name.items()):
        rows.append({
            "layer": name,
            "spans": len(group),
            "self_s": sum(_self_s(s) for s in group),
        })
    folds: dict[str, list] = {}
    for s in spans:
        for name, (calls, secs) in s["fold"].items():
            entry = folds.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += secs
    for name, (calls, secs) in sorted(folds.items()):
        rows.append({"layer": name, "spans": calls, "self_s": secs})
    rows.sort(key=lambda r: -r["self_s"])
    return metrics, fig6, rows
