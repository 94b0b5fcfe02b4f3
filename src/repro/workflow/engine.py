"""Execution engines: real (executor backends) and simulated (virtual time).

Both engines are composition roots over one run loop, the
:class:`~repro.workflow.coordinator.Coordinator`: they open the run
(provenance workflow row, run journal, the shared dataflow core of
:mod:`repro.workflow.dataflow` and the scheduler-ordered ready queue),
build an :class:`~repro.workflow.coordinator.ExecutionPlane` and hand
both to the coordinator. Dispatch checks (steering aborts, looping
predicates), settlement, retries accounting, elasticity decisions and
journal emission are therefore the same code whether activations run
for real or on simulated cores. Both record full PROV-Wf provenance —
including activation-dependency edges for lineage queries — re-execute
failed activations, and handle looping-state activations
(dispatch-time blocking when the Hg routine is enabled, watchdog aborts
otherwise).

* :class:`LocalEngine` actually executes the activation callables on a
  pluggable executor backend — used for the biology-side results
  (Table 3) and the provenance queries (Figs 10-12). The per-activation
  watchdog/retry machinery lives in :mod:`repro.workflow.dispatch`; the
  coordinator reads ``time.perf_counter``.
* :class:`SimulatedEngine` runs the coordinator over a
  :class:`~repro.workflow.planes.SimulatedPlane`: a calibrated
  service-time model on simulated VM cores, with the coordinator reading
  the cluster's :class:`~repro.cloud.simclock.SimClock` — used for the
  2..128-core sweeps (Figs 5-9), which would take CPU-days to run for
  real.

Scheduling vs placement: a :class:`~repro.workflow.scheduler.Scheduler`
orders *dispatch* (which ready activation runs next) in both engines;
receptor-affinity routing (:mod:`repro.workflow.affinity`) remains the
*placement* layer beneath it, deciding which worker process a dispatched
activation lands on.

Activation functions may attach two reserved fields to their output
tuples: ``_files`` (list of ``(fname, fsize, fdir)`` records) and
``_extract_payload`` (a string fed to the activity's extractors). The
engine strips both before the tuple continues downstream.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable

from repro.cloud.cluster import VirtualCluster
from repro.cloud.failures import ActivityFailureModel
from repro.provenance.store import ProvenanceStore
from repro.workflow.activity import Workflow
from repro.workflow.affinity import AffinityRouter
from repro.workflow.artifacts import (
    ArtifactPlane,
    DiskMapCache,
    release_cached,
)
from repro.workflow.coordinator import Coordinator, CoordinatorTotals
from repro.workflow.dataflow import DataflowState, ReadyQueue, WorkItem
from repro.workflow.dispatch import AttemptRunner, PARENT_ONLY_CONTEXT_KEYS
from repro.workflow.distributed import Director, DirectorPlane
from repro.workflow.fault import (
    CancelTokenHandle,
    FaultInjector,
    HeartbeatPolicy,
    RetryPolicy,
    Watchdog,
)
from repro.workflow.journal import JournalReplay, RunJournal, replay_journal
from repro.workflow.planes import LocalExecutionPlane, SimulatedPlane
from repro.workflow.relation import Relation
from repro.workflow.scheduler import GreedyCostScheduler, Scheduler


class EngineError(RuntimeError):
    """Raised for unrecoverable engine conditions."""


@dataclass
class ExecutionReport:
    """Summary of one workflow run."""

    wkfid: int
    workflow_tag: str
    tet_seconds: float
    output: Relation
    counts: dict[str, int] = field(default_factory=dict)
    total_activations: int = 0
    retried: int = 0
    blocked: int = 0
    aborted: int = 0
    cost_usd: float = 0.0
    #: Peak concurrency actually observed: the maximum number of
    #: simultaneously in-flight activations (LocalEngine) or the peak
    #: cluster core count (booting VMs included) after elasticity and
    #: ``core_limit`` clamping, as the :class:`SimulatedPlane` reports it
    #: (SimulatedEngine) — not the configured worker count.
    peak_cores: int = 0
    bytes_written: float = 0.0
    #: Artifact-plane accounting for the run (builds / shm hits / disk
    #: hits / builds-per-artifact), empty when no plane was active.
    artifact_stats: dict = field(default_factory=dict)
    #: Activations the affinity router handed to a non-home worker.
    steals: int = 0
    #: Activations aborted by the wall-clock watchdog (real timeouts;
    #: a subset of ``aborted``, which also counts predicate-blocked
    #: looping kills).
    timeouts: int = 0
    #: Re-dispatches caused by infrastructure failures (worker death,
    #: router errors) — these never consume an activation's attempt
    #: budget, unlike ``retried``.
    infra_retries: int = 0
    #: Worker slots the router quarantined after repeated deaths.
    quarantined_workers: int = 0
    #: Duplicate attempts launched by straggler speculation.
    speculative_launched: int = 0
    #: Speculative duplicates that finished first and won their race.
    speculative_won: int = 0
    #: Live worker-pool resizes the elasticity policy applied mid-run.
    pool_resizes: int = 0
    #: Activations satisfied from an ancestor run's journal by
    #: :meth:`LocalEngine.resume` — completed durably before the crash,
    #: so the resumed run never re-executed them.
    replayed: int = 0
    #: Attempt durations fed into the online cost service this run.
    cost_samples: int = 0
    #: Distributed-plane accounting (zero/empty on local backends):
    #: worker nodes that joined / were declared dead during the run,
    #: completed tuples per node id, and total framed bytes the director
    #: put on / took off the wire (headers included).
    nodes_joined: int = 0
    nodes_lost: int = 0
    tuples_per_node: dict = field(default_factory=dict)
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    #: Frame-compression accounting: bytes the negotiated zlib layer
    #: kept off the wire, and raw/wire ratio (1.0 = compression off or
    #: nothing compressible).
    wire_bytes_saved: int = 0
    compression_ratio: float = 1.0
    #: Task-batching accounting: TASK_BATCH frames shipped (>= 2
    #: members) and mean tasks per task-carrying frame (0.0 = no
    #: distributed dispatch happened).
    batches_sent: int = 0
    avg_batch_fill: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.counts.get("FAILED", 0) == 0


#: Executor backends LocalEngine can run activations on.
BACKENDS = ("threads", "processes", "distributed")

@dataclass
class _Run:
    """One run as both engines open it, before a plane is attached."""

    workflow: Workflow
    wkfid: int
    actids: dict[str, int]
    journal: RunJournal
    state: DataflowState
    ready: ReadyQueue
    #: Time source; every timestamp is ``clock() - t0``.
    clock: Callable[[], float]
    t0: float


class _Engine:
    """The run plumbing both engines share around one Coordinator.

    Subclasses set ``store``, ``scheduler``, ``watchdog``,
    ``elasticity``, ``block_known_loopers``, ``pipeline`` and
    ``cost_service``.
    """

    def _open_run(
        self,
        workflow: Workflow,
        relation: Relation,
        context: dict,
        clock: Callable[[], float],
        resumed_from: int | None = None,
    ) -> _Run:
        """Workflow row, activities, run journal, dataflow, ready queue.

        The journal logs every coordinator state transition; terminal
        events flush synchronously, so a SIGKILL'd coordinator resumes
        with zero recomputation of FINISHED tuples. Its run-started
        header snapshots the picklable context before engine-internal
        entries are popped, so a resume re-runs under the same
        grid/engine-parameter/fault-injection configuration.
        """
        t0 = clock()
        store = self.store
        wkfid = store.begin_workflow(
            workflow.tag,
            workflow.description,
            workflow.exectag,
            workflow.expdir,
            starttime=0.0,
        )
        actids = {
            a.tag: store.register_activity(
                wkfid,
                a.tag,
                a.description,
                a.template.templatedir if a.template else "",
                a.template.command if a.template else "",
                a.operator.value,
            )
            for a in workflow.activities
        }
        context["wkfid"] = wkfid
        journal = RunJournal(store, wkfid, clock=lambda: clock() - t0)
        journal.run_started(
            workflow.tag,
            pipeline=self.pipeline,
            context=context,
            relation_size=len(relation),
            resumed_from=resumed_from,
        )
        state = DataflowState(
            workflow,
            pipeline=self.pipeline,
            store=store,
            wkfid=wkfid,
            actids=actids,
            journal=journal,
        )
        service = self.cost_service

        def expected_cost(item: WorkItem) -> float:
            """Learned service-time estimate, static table as fallback."""
            activity = workflow.activities[item.stage]
            if service is not None:
                est = service.expected_seconds(activity.tag, item.tup)
                if est is not None:
                    return est
            return activity.cost(item.tup)

        ready = ReadyQueue(self.scheduler, cost_fn=expected_cost)
        return _Run(workflow, wkfid, actids, journal, state, ready, clock, t0)

    def _drive(
        self,
        run: _Run,
        plane,
        relation: Relation,
        context: dict,
        *,
        hard_max: int,
        replay: JournalReplay | None = None,
    ) -> CoordinatorTotals:
        """Run the shared loop over ``plane`` to completion."""
        return Coordinator(
            run.workflow,
            run.state,
            run.ready,
            plane,
            journal=run.journal,
            actids=run.actids,
            watchdog=self.watchdog,
            clock=run.clock,
            steering=context.get("steering"),
            cost_service=self.cost_service,
            elasticity=self.elasticity,
            block_known_loopers=self.block_known_loopers,
            replay=replay,
        ).run(relation, hard_max=hard_max)

    def _report(
        self,
        run: _Run,
        totals: CoordinatorTotals,
        run_stats: dict | None = None,
        **fields,
    ) -> ExecutionReport:
        """Close the run's journal and workflow row; build the report."""
        tet = run.clock() - run.t0
        run.journal.run_finished(ts=tet, stats=run_stats)
        self.store.end_workflow(run.wkfid, tet)
        return ExecutionReport(
            wkfid=run.wkfid,
            workflow_tag=run.workflow.tag,
            tet_seconds=tet,
            output=Relation(f"{run.workflow.tag}:output", run.state.final),
            counts=self.store.counts_by_status(run.wkfid),
            total_activations=run.state.spawned,
            retried=totals.retried,
            blocked=totals.blocked,
            aborted=totals.aborted,
            timeouts=totals.timeouts,
            infra_retries=totals.infra_retries,
            speculative_launched=totals.speculative_launched,
            speculative_won=totals.speculative_won,
            pool_resizes=totals.pool_resizes,
            replayed=totals.replayed,
            cost_samples=getattr(self.cost_service, "samples", 0),
            **fields,
        )


class LocalEngine(_Engine):
    """Real execution on a pluggable executor backend.

    Runs the shared coordinator loop over a local or distributed
    execution plane, submitting work the moment a slot is free;
    ``pipeline=False`` restores the historical activity-by-activity
    barriers for A/B runs.

    ``backend="threads"`` (default) runs activation callables on a
    thread pool — fine for activations that release the GIL or are
    I/O-bound, and required when the run context carries non-picklable
    state (an in-memory shared FS, a steering controller).

    ``backend="distributed"`` executes activations on remote worker
    nodes (``scidock worker --join HOST:PORT``) behind a
    :class:`~repro.workflow.distributed.Director` speaking the framed
    TCP protocol in :mod:`repro.workflow.messaging`. The director binds
    at engine construction (``engine.director_address``), implements the
    affinity-router duck-type so the attempt lifecycle is unchanged, and
    places through the router's own
    :class:`~repro.workflow.placement.Placement` core with nodes as its
    members — each node builds its shared-memory map plane once and
    fetches missing receptor bundles from the director's
    content-addressed artifact exchange. Dead or silent nodes (heartbeat loss) surface their
    in-flight activations as infrastructure failures, re-placed on the
    survivors; ``engine.shutdown()`` releases the node pool.

    ``backend="processes"`` executes activations in spawn-context worker
    processes, sidestepping the GIL for CPU-bound activations (the
    docking hot path). Bookkeeping threads still drive provenance —
    begin/end activation, file and extractor records all happen in the
    parent, so the provenance store never crosses a process boundary.
    Activation callables and their tuples/context must be picklable; the
    engine ships a sanitized context (parent-only entries stripped) plus
    a per-run ``cache_token`` that workers use to build and reuse
    receptor/ligand artifacts once per process.

    The processes backend routes activations through an
    :class:`~repro.workflow.affinity.AffinityRouter` — sticky-by-receptor
    placement with work stealing, from the shared
    :class:`~repro.workflow.placement.Placement` core — and (unless ``shared_maps`` is
    disabled in the context) publishes receptor grid maps into a shared
    :class:`~repro.workflow.artifacts.ArtifactPlane` so each receptor's
    maps are built once per run, not once per worker. The engine owns
    plane lifecycle: segments are unlinked and worker-side run caches
    dropped when the run ends, even after a worker crash.

    Fault tolerance is *enforced*, not simulated (see
    :class:`~repro.workflow.dispatch.AttemptRunner`): every activation
    runs under a wall-clock :class:`~repro.workflow.fault.Watchdog`
    deadline (hung workers are SIGKILLed and their pool healed; hung
    threads are cancelled cooperatively or abandoned), failed
    activations retry with exponential backoff, infrastructure failures
    retry on a separate budget, and chronically dying worker slots are
    quarantined. A ``fault_injector`` context entry
    (:class:`~repro.workflow.fault.FaultInjector`) forces these paths
    deterministically for chaos tests.

    With a ``cost_service``
    (:class:`~repro.perf.online_cost.OnlineCostService`), the engine
    becomes self-calibrating: ready-queue ordering uses learned
    per-activity/per-size-class service-time estimates instead of the
    static cost table, every successful attempt's duration is observed
    back into the service, and — when the service's speculation
    quantile is below 1.0 — an attempt running past the learned tail
    quantile gets a duplicate launched on an idle slot
    (first-completion-wins, loser cancelled and recorded ABORTED with
    the speculation errormsg, duplicate rows flagged
    ``speculative=True`` in provenance). An ``elasticity`` policy
    additionally grows/shrinks the live worker pool mid-run: the
    dispatch cap moves on the threads backend, and router slots are
    added/retired (the quarantine drain path) on processes.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        workers: int = 4,
        retry: RetryPolicy | None = None,
        watchdog: Watchdog | None = None,
        *,
        backend: str = "threads",
        block_known_loopers: bool = True,
        scheduler: Scheduler | None = None,
        pipeline: bool = True,
        cost_service=None,
        elasticity=None,
        director: tuple[str, int] | None = None,
        min_nodes: int = 1,
        join_timeout: float = 60.0,
        heartbeat: HeartbeatPolicy | None = None,
        batch_size: int = 1,
        compress_frames: bool = False,
    ) -> None:
        if workers < 1:
            raise EngineError("need at least one worker")
        if backend not in BACKENDS:
            raise EngineError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.store = store
        self.workers = workers
        self.backend = backend
        self.retry = retry or RetryPolicy()
        self.watchdog = watchdog or Watchdog()
        self.block_known_loopers = block_known_loopers
        #: Dispatch-order policy; ``None`` = FIFO arrival order.
        self.scheduler = scheduler
        #: Per-tuple pipelining (barriers only at REDUCE) vs historical
        #: full per-activity barriers.
        self.pipeline = pipeline
        #: Online service-time estimator (placement + speculation).
        self.cost_service = cost_service
        #: Live pool-resizing policy (None = fixed worker count).
        self.elasticity = elasticity
        self._router: AffinityRouter | None = None
        self._shipped_context: dict | None = None
        #: Per-worker results of the end-of-run cache-cleanup broadcast
        #: (True where a worker dropped a run-state entry); for tests.
        self.last_cache_cleanup: list = []
        #: Worker nodes a distributed run must see before dispatching.
        self.min_nodes = min_nodes
        self.join_timeout = join_timeout
        self._director: Director | None = None
        if backend == "distributed":
            # Bind immediately so workers can join before run() starts.
            self._director = Director(
                director or ("127.0.0.1", 0),
                min_nodes=min_nodes,
                join_timeout=join_timeout,
                heartbeat=heartbeat,
                batch_size=batch_size,
                compress=compress_frames,
            )

    @property
    def director_address(self) -> tuple[str, int] | None:
        """Where workers join (``None`` outside the distributed backend)."""
        return self._director.address if self._director is not None else None

    def shutdown(self) -> None:
        """Release the distributed node pool (no-op on local backends)."""
        if self._director is not None:
            self._director.shutdown()
            self._director = None

    def run(
        self,
        workflow: Workflow,
        relation: Relation,
        context: dict | None = None,
        *,
        _replay: JournalReplay | None = None,
        _resumed_from: int | None = None,
    ) -> ExecutionReport:
        context = dict(context or {})
        run = self._open_run(
            workflow, relation, context, time.perf_counter, _resumed_from
        )
        t0, journal = run.t0, run.journal

        # Fault injection: chaos tests force crashes/hangs/failures via
        # this context entry; it ships to workers so faults fire where
        # real ones would. Never visible to activations.
        fault_injector: FaultInjector | None = context.pop(
            "fault_injector", None
        )
        # Cooperative cancellation for the threads backend: one handle
        # per run in the *shared* context (activations setdefault caches
        # there, so no per-activation copies); each activation-runner
        # thread binds its private token into the handle.
        cancel_handle = CancelTokenHandle()
        context["cancel_token"] = cancel_handle

        # Artifact-plane policy: ``shared_maps`` tristate (None = auto,
        # on for the processes backend where workers cannot see each
        # other's in-process caches); ``map_cache`` names a persistent
        # content-addressed map directory shared across runs.
        shared_maps = context.pop("shared_maps", None)
        map_cache = context.pop("map_cache", None)
        use_plane = (
            shared_maps if shared_maps is not None else self.backend == "processes"
        )
        plane: ArtifactPlane | None = None
        artifact_stats: dict = {}
        if use_plane:
            plane = ArtifactPlane.create(map_cache_dir=map_cache)
            context["artifact_plane"] = plane.handle
        elif map_cache:
            context["map_cache_dir"] = map_cache

        shipped: dict | None = None
        if self.backend in ("processes", "distributed"):
            shipped = {
                k: v
                for k, v in context.items()
                if k not in PARENT_ONLY_CONTEXT_KEYS
            }
            # Workers key their build-once artifact caches on this token,
            # so one engine run never reuses another run's receptors/maps
            # (grid spacing or preparation settings may differ).
            shipped["cache_token"] = uuid.uuid4().hex
            # Lets injected crashes know there is a real process to kill.
            shipped["worker_process"] = True
            self._shipped_context = shipped

        if self.backend == "processes":
            # Spawn (not fork): the parent runs bookkeeping threads and an
            # open SQLite handle, neither of which survives a fork safely.
            self._router = AffinityRouter(
                self.workers,
                multiprocessing.get_context("spawn"),
                quarantine_after=self.retry.quarantine_after,
            )
        elif self.backend == "distributed":
            # The director serves the artifact exchange out of the
            # persistent map cache when one is configured.
            if map_cache and self._director.cache is None:
                self._director.cache = DiskMapCache(map_cache)
            self._director.start_run(shipped, journal=journal)
            self._director.wait_for_nodes(self.min_nodes, self.join_timeout)

        runner = AttemptRunner(
            journal,
            self.retry,
            self.watchdog,
            router=self._director
            if self.backend == "distributed"
            else self._router,
            shipped_context=self._shipped_context,
            fault_injector=fault_injector,
            cancel_handle=cancel_handle,
        )
        #: Dispatch cap the elasticity policy moves; the plane's thread
        #: pool is sized to the ceiling so a grow needs no new pool.
        hard_max = self.workers
        if self.elasticity is not None:
            hard_max = max(
                hard_max, int(getattr(self.elasticity, "max_cores", 0))
            )
        if self.backend == "distributed":
            exec_plane = DirectorPlane(runner, context, t0, self._director)
            hard_max = exec_plane.hard_max
        else:
            exec_plane = LocalExecutionPlane(
                runner,
                context,
                t0,
                self.workers,
                hard_max,
                router=self._router,
                cache_token=(shipped or {}).get("cache_token"),
                scratch_dir=(
                    plane.handle.scratch_dir if plane is not None else None
                ),
            )
        plane_stats: dict = {}
        try:
            totals = self._drive(
                run, exec_plane, relation, context,
                hard_max=hard_max, replay=_replay,
            )
        finally:
            # The plane quiesces its bookkeeping threads, reports its
            # statistics (router steals/quarantine + the end-of-run
            # cache-cleanup broadcast locally; per-node NODE_STATS
            # collection on the distributed plane) and tears down its
            # transport (the director itself outlives the run).
            try:
                plane_stats = exec_plane.finish()
            finally:
                exec_plane.shutdown()
                self.last_cache_cleanup = getattr(
                    exec_plane, "last_cache_cleanup", []
                )
                self._router = None
                self._shipped_context = None
                if plane is not None:
                    context.pop("artifact_plane", None)
                    # The parent itself attaches in threads mode (or when
                    # a REDUCE ran inline); drop that before unlinking.
                    release_cached(plane.handle.scratch_dir)
                    artifact_stats = plane.destroy()
                context.pop("cancel_token", None)
        steals = int(plane_stats.get("steals", 0))
        quarantined = int(plane_stats.get("quarantined_workers", 0))
        nodes_joined = nodes_lost = 0
        tuples_per_node: dict = {}
        wire_sent = wire_received = 0
        wire_saved = batches_sent = 0
        compression_ratio = 1.0
        avg_batch_fill = 0.0
        run_stats = None
        if self.backend == "distributed":
            nodes_joined = int(plane_stats.get("nodes_joined", 0))
            nodes_lost = int(plane_stats.get("nodes_lost", 0))
            quarantined = nodes_lost
            tuples_per_node = dict(plane_stats.get("tuples_per_node", {}))
            wire_sent = int(plane_stats.get("bytes_sent", 0))
            wire_received = int(plane_stats.get("bytes_received", 0))
            wire_saved = int(plane_stats.get("bytes_saved", 0))
            compression_ratio = float(
                plane_stats.get("compression_ratio", 1.0)
            )
            batches_sent = int(plane_stats.get("batches_sent", 0))
            avg_batch_fill = float(plane_stats.get("avg_batch_fill", 0.0))
            # Aggregate the node-local artifact planes plus the
            # director-side exchange counters into one stats block.
            agg = {
                "builds": 0,
                "shm_hits": 0,
                "disk_hits": 0,
                "requests": 0,
                "exchange_fetches": 0,
                "exchange_bytes": 0,
            }
            for node_report in plane_stats.get("node_stats", {}).values():
                node_plane = node_report.get("plane") or {}
                for field_name in agg:
                    agg[field_name] += int(node_plane.get(field_name, 0) or 0)
            agg["exchange_requests_served"] = int(
                plane_stats.get("artifact_requests", 0)
            )
            agg["exchange_hits_served"] = int(
                plane_stats.get("artifact_hits", 0)
            )
            agg["exchange_bytes_served"] = int(
                plane_stats.get("artifact_bytes", 0)
            )
            artifact_stats = agg
            run_stats = {
                "nodes_joined": nodes_joined,
                "nodes_lost": nodes_lost,
                "tuples_per_node": tuples_per_node,
                "bytes_sent": wire_sent,
                "bytes_received": wire_received,
                "bytes_saved": wire_saved,
                "compression_ratio": compression_ratio,
                "batches_sent": batches_sent,
                "avg_batch_fill": avg_batch_fill,
            }
        return self._report(
            run,
            totals,
            run_stats,
            peak_cores=totals.peak_inflight,
            artifact_stats=artifact_stats,
            steals=steals,
            quarantined_workers=quarantined,
            nodes_joined=nodes_joined,
            nodes_lost=nodes_lost,
            tuples_per_node=tuples_per_node,
            wire_bytes_sent=wire_sent,
            wire_bytes_received=wire_received,
            wire_bytes_saved=wire_saved,
            compression_ratio=compression_ratio,
            batches_sent=batches_sent,
            avg_batch_fill=avg_batch_fill,
        )

    def resume(
        self,
        wkfid: int,
        workflow: Workflow,
        relation: Relation | None = None,
        context: dict | None = None,
    ) -> ExecutionReport:
        """Continue a crashed or incomplete run from its journal.

        Replays run ``wkfid``'s journal, re-seeds the same relation
        (recovered from the journal's stage-0 scheduled events unless
        passed explicitly) under the journaled context (entries in
        ``context`` override), and runs the workflow normally — except
        that any item the ancestor run durably completed is satisfied
        from its logged outputs instead of executing
        (``ExecutionReport.replayed`` counts them). Items that were
        RUNNING, FAILED or timed out at the crash re-execute for real.

        The resumed run gets its own ``wkfid`` and journal (its
        run-started header records ``resumed_from``), so resumes chain:
        a resumed run that crashes can itself be resumed, because every
        replayed completion is re-journaled as a completed event.

        This is the only resume path, and it covers every recovery
        case from the journal alone: under a healed workflow only the
        items that failed re-execute; a larger relation runs just its
        new keys; a watchdog-timed-out item re-executes; a blocked item
        or a predicate-known looper is blocked or aborted again at
        decision time, without reaching a worker; and a tuple won by a
        speculative twin replays like any other completion.

        Raises :class:`~repro.workflow.journal.JournalError` for runs
        without a journal and for a journal whose run-started header
        cannot be read back (resuming under a default context would
        silently change the re-run work's configuration).
        """
        replay = replay_journal(self.store, wkfid)
        if relation is None:
            relation = replay.seed_relation()
        merged = dict(replay.context)
        merged.update(context or {})
        return self.run(
            workflow, relation, merged, _replay=replay, _resumed_from=wkfid
        )


class SimulatedEngine(_Engine):
    """Virtual-time execution over a simulated virtual cluster.

    Drives the same coordinator as :class:`LocalEngine` over a
    :class:`~repro.workflow.planes.SimulatedPlane`, on the cluster's
    :class:`~repro.cloud.simclock.SimClock`. The plane models service
    times, failures, retries, watchdog aborts and scheduler overhead;
    activation callables (which must be lightweight) run zero-cost to
    propagate routing/filter decisions.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        cluster: VirtualCluster,
        scheduler: Scheduler | None = None,
        retry: RetryPolicy | None = None,
        watchdog: Watchdog | None = None,
        failure_model: ActivityFailureModel | None = None,
        elasticity=None,
        *,
        block_known_loopers: bool = True,
        core_limit: int | None = None,
        data_model=None,
        pipeline: bool = True,
        cost_service=None,
    ) -> None:
        self.store = store
        self.cluster = cluster
        self.scheduler = scheduler or GreedyCostScheduler()
        self.retry = retry or RetryPolicy()
        self.watchdog = watchdog or Watchdog()
        self.failure_model = failure_model or ActivityFailureModel(rate=0.0)
        self.elasticity = elasticity
        self.block_known_loopers = block_known_loopers
        self.pipeline = pipeline
        #: Online estimator: orders the ready queue by learned costs
        #: (service *time* still comes from the calibrated model) and
        #: accumulates observed durations like the real engine does.
        self.cost_service = cost_service
        #: Optional (activity_tag, tuple) -> bytes model: accumulates the
        #: shared-FS data volume the run would produce (the paper's
        #: "600 GB for each workflow execution").
        self.data_model = data_model
        # The paper's 2-core baseline uses half an m3.xlarge; core_limit
        # caps how many of the cluster's cores the engine may occupy.
        if core_limit is not None and core_limit < 1:
            raise EngineError("core_limit must be >= 1")
        self.core_limit = core_limit

    def run(
        self,
        workflow: Workflow,
        relation: Relation,
        context: dict | None = None,
    ) -> ExecutionReport:
        context = dict(context or {})
        sim_clock = self.cluster.provider.clock
        run = self._open_run(
            workflow, relation, context, lambda: sim_clock.now
        )
        plane = SimulatedPlane(
            run.journal, self.cluster, self.scheduler,
            retry=self.retry, watchdog=self.watchdog,
            failure_model=self.failure_model, context=context,
            core_limit=self.core_limit, data_model=self.data_model,
        )
        totals = self._drive(
            run, plane, relation, context,
            # A virtual cluster can always grow: no dispatch ceiling.
            hard_max=sys.maxsize,
        )
        # The plane reports cost_usd, bytes_written and peak_cores.
        return self._report(run, totals, **plane.finish())
