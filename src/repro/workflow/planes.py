"""In-process execution planes: bookkeeping threads over local backends.

The coordinator (:mod:`repro.workflow.coordinator`) drives an
:class:`~repro.workflow.coordinator.ExecutionPlane`; this module holds
the plane both historical LocalEngine backends share. A
:class:`ThreadedExecutionPlane` runs one bookkeeping thread per
in-flight attempt — each thread drives the full
:class:`~repro.workflow.dispatch.AttemptRunner` lifecycle (watchdog,
retries, infra budget, provenance rows) and drops a
:class:`~repro.workflow.coordinator.Completion` on a queue the
coordinator consumes. Where the *activation callable* actually runs is
the runner's business: inline on the bookkeeping thread (threads
backend), in a spawn worker process behind the
:class:`~repro.workflow.affinity.AffinityRouter` (processes backend), or
on a remote worker node behind the
:class:`~repro.workflow.distributed.Director` (which subclasses this
plane — the director implements the router duck-type, so the same
bookkeeping threads drive remote attempts unchanged).

The :class:`SimulatedPlane` is the discrete-event stand-in for all of
them: single-threaded, it places each dispatched item on a simulated VM
core and reports completions in virtual-time order, so the paper's
2..128-core sweeps run through the same coordinator as a real campaign.
"""

from __future__ import annotations

import heapq
import itertools
import math
import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.cloud.cluster import CoreHandle, VirtualCluster
from repro.cloud.provider import VMState
from repro.provenance.store import ActivationStatus
from repro.workflow.activity import Activity
from repro.workflow.affinity import AffinityRouter, RouterError
from repro.workflow.artifacts import drop_run_state
from repro.workflow.coordinator import Completion, ExecutionPlane
from repro.workflow.dataflow import WorkItem
from repro.workflow.dispatch import (
    AttemptAbortHandle,
    AttemptOutcome,
    AttemptRunner,
    collect_outputs,
)
from repro.workflow.fault import RetryPolicy, Watchdog
from repro.workflow.journal import RunJournal


class ThreadedExecutionPlane(ExecutionPlane):
    """Bookkeeping-thread plane: the base for local and director planes.

    The thread pool is sized to ``hard_max`` (the elasticity ceiling)
    while the *dispatch cap* — :meth:`capacity` — starts at ``active``
    and moves with :meth:`resize`; a grow decision therefore never needs
    a new pool.
    """

    def __init__(
        self,
        runner: AttemptRunner,
        context: dict,
        t0: float,
        active: int,
        hard_max: int,
    ) -> None:
        self.runner = runner
        #: The run context attempts execute under (parent-side dict; the
        #: runner ships its sanitized twin across process/socket seams).
        self.context = context
        self.t0 = t0
        self._active = active
        self._hard_max = hard_max
        self._completions: queue.Queue = queue.Queue()
        self._pool = ThreadPoolExecutor(max_workers=hard_max)

    # -- capacity ------------------------------------------------------------
    def capacity(self) -> int:
        return self._active

    @property
    def hard_max(self) -> int:
        return self._hard_max

    # -- dispatch ------------------------------------------------------------
    def submit(
        self,
        item: WorkItem,
        activity: Activity,
        actid: int,
        handle: AttemptAbortHandle | None,
    ) -> None:
        self._pool.submit(self._task, item, activity, actid, handle)

    def submit_speculative(
        self,
        item: WorkItem,
        activity: Activity,
        actid: int,
        handle: AttemptAbortHandle,
    ) -> None:
        self._pool.submit(self._spec_task, item, activity, actid, handle)

    def _task(
        self,
        item: WorkItem,
        activity: Activity,
        actid: int,
        handle: AttemptAbortHandle | None,
    ) -> None:
        try:
            outs, outcome = self.runner.run_with_retry(
                activity, actid, item.tup, item.key, self.context, self.t0,
                abort_handle=handle,
            )
            self._completions.put(Completion(item, outs, outcome))
        except BaseException as exc:  # noqa: BLE001 - relayed to coordinator
            self._completions.put(
                Completion(item, [], AttemptOutcome(), exc=exc)
            )

    def _spec_task(
        self,
        item: WorkItem,
        activity: Activity,
        actid: int,
        handle: AttemptAbortHandle,
    ) -> None:
        try:
            outs, outcome = self.runner.run_speculative(
                activity, actid, item.tup, item.key, self.context, self.t0,
                handle,
            )
            self._completions.put(
                Completion(item, outs, outcome, role="speculative")
            )
        except BaseException as exc:  # noqa: BLE001 - relayed to coordinator
            self._completions.put(
                Completion(
                    item, [], AttemptOutcome(speculative=True), exc=exc,
                    role="speculative",
                )
            )

    def next_completion(self, timeout: float | None = None) -> Completion | None:
        try:
            return self._completions.get(timeout=timeout)
        except queue.Empty:
            return None

    # -- lifecycle -----------------------------------------------------------
    def drain(self) -> None:
        """Wait for every bookkeeping thread to finish (idempotent)."""
        self._pool.shutdown(wait=True)

    def shutdown(self) -> None:
        self.drain()


class LocalExecutionPlane(ThreadedExecutionPlane):
    """The historical threads/processes backends behind the plane seam.

    Threads backend: ``router=None`` — activations run inline on the
    bookkeeping threads under cooperative-token watchdogs. Processes
    backend: an :class:`~repro.workflow.affinity.AffinityRouter` places
    each attempt on a sticky worker slot; resize moves real router
    slots; finish() collects steal/quarantine counts and broadcasts the
    end-of-run cache cleanup before the router shuts down.
    """

    supports_speculation = True
    elastic = True

    def __init__(
        self,
        runner: AttemptRunner,
        context: dict,
        t0: float,
        active: int,
        hard_max: int,
        *,
        router: AffinityRouter | None = None,
        cache_token: str | None = None,
        scratch_dir: str | None = None,
    ) -> None:
        super().__init__(runner, context, t0, active, hard_max)
        self.router = router
        self.cache_token = cache_token
        self.scratch_dir = scratch_dir
        #: Per-worker results of the end-of-run cache-cleanup broadcast.
        self.last_cache_cleanup: list = []

    def resize(self, target: int) -> bool:
        if self.router is not None:
            self.router.resize(target)
        self._active = target
        return True

    def finish(self) -> dict:
        """Drain bookkeeping, then collect router stats + cache cleanup.

        Ordering matters: the broadcast must see a quiet pool (no
        attempt mid-flight re-populating a worker's run state) and must
        run *before* :meth:`shutdown` tears the router down.
        """
        self.drain()
        stats: dict = {}
        if self.router is not None:
            stats["steals"] = self.router.steals
            stats["quarantined_workers"] = self.router.quarantined_workers
            try:
                self.last_cache_cleanup = self.router.broadcast(
                    drop_run_state, self.cache_token, self.scratch_dir
                )
            except RouterError:  # pragma: no cover - already shut down
                self.last_cache_cleanup = []
        stats["cache_cleanup"] = list(self.last_cache_cleanup)
        return stats

    def shutdown(self) -> None:
        self.drain()
        if self.router is not None:
            self.router.shutdown()
            self.router = None


@dataclass
class _SimAttempt:
    """One dispatched item's attempt chain on its simulated core."""

    item: WorkItem
    activity: Activity
    actid: int
    core: CoreHandle
    attempt: int = 0
    tid: int = 0
    #: "ok", "fail" (injected failure) or "loop" (killed at the deadline).
    fate: str = "ok"
    #: Virtual seconds the current attempt holds its core.
    service: float = 0.0
    outcome: AttemptOutcome = field(default_factory=AttemptOutcome)


class SimulatedPlane(ExecutionPlane):
    """Discrete-event execution on a :class:`~repro.cloud.cluster.VirtualCluster`.

    An attempt holds its core for ``activity.cost(tuple) / core.speed``
    seconds of the cluster's :class:`~repro.cloud.simclock.SimClock`.
    Each item takes the free RUNNING core (among the first
    ``core_limit``) with the highest ``scheduler.core_priority`` and
    starts after its dispatch round's planning overhead. Activation
    callables, when present, run zero-cost at completion to propagate
    routing/filter decisions. Like
    :class:`~repro.workflow.dispatch.AttemptRunner`, a failed attempt
    (``failure_model``: a hash of lineage key and attempt) retries on
    its core after ``retry.delay`` while the item stays in flight, and
    a looping input spends its watchdog deadline and times out.
    """

    elastic = True
    spends_looper_deadline = True

    def __init__(
        self,
        journal: RunJournal,
        cluster: VirtualCluster,
        scheduler,
        *,
        retry: RetryPolicy,
        watchdog: Watchdog,
        failure_model,
        context: dict,
        core_limit: int | None = None,
        data_model=None,
    ) -> None:
        #: The run's journal: the plane's only writer of activation rows.
        self.journal = journal
        self.cluster = cluster
        self.clock = cluster.provider.clock
        self.t0 = self.clock.now
        self.scheduler = scheduler
        self.retry = retry
        self.watchdog = watchdog
        self.failure_model = failure_model
        self.context = context
        self.core_limit = core_limit
        self.data_model = data_model
        self._busy: set[CoreHandle] = set()
        self._running: list[tuple[float, int, _SimAttempt]] = []
        self._seq = itertools.count()
        #: Cache of :meth:`_usable_cores`; a boot or resize clears it.
        self._usable: list[CoreHandle] | None = None
        self._round_start = self.t0
        self._bytes: list[float] = []
        self.peak_cores = self._planned_cores()

    # -- capacity ------------------------------------------------------------
    def _planned_cores(self) -> int:
        """Cluster cores, booting ones included, the run may occupy."""
        return min(self.cluster.total_cores, self.core_limit or sys.maxsize)

    def _usable_cores(self) -> list[CoreHandle]:
        """RUNNING cores among the first ``core_limit``.

        Busy cores never leave this prefix: only idle VMs are released,
        and new VMs join at the end of the core list.
        """
        if self._usable is None:
            provider = self.cluster.provider
            self._usable = [
                h for h in self.cluster.cores()[: self.core_limit]
                if provider.describe(h.vm_id).state == VMState.RUNNING
            ]
        return self._usable

    def capacity(self) -> int:
        return len(self._usable_cores())

    def wait_for_capacity(self, timeout: float) -> bool:
        while not self.capacity():
            if not self.clock.step():  # the next VM boot
                return False
            self._usable = None
        return True

    def resize(self, target: int) -> bool:
        before = self.cluster.total_cores
        self.cluster.scale_to(target, keep={h.vm_id for h in self._busy})
        self._usable = None
        self.peak_cores = max(self.peak_cores, self._planned_cores())
        return self.cluster.total_cores != before

    # -- dispatch ------------------------------------------------------------
    def start_round(self, n_ready: int) -> None:
        self._round_start = self.clock.now + self.scheduler.overhead_seconds(
            n_ready, self._planned_cores()
        )

    def submit(
        self,
        item: WorkItem,
        activity: Activity,
        actid: int,
        handle: AttemptAbortHandle | None,
    ) -> None:
        core = max(
            (h for h in self._usable_cores() if h not in self._busy),
            key=self.scheduler.core_priority,
        )
        self._busy.add(core)
        self._launch(_SimAttempt(item, activity, actid, core), self._round_start)

    def _launch(self, run: _SimAttempt, start: float) -> None:
        item, activity = run.item, run.activity
        cost = activity.cost(item.tup)
        if activity.would_loop(item.tup):
            run.fate, run.service = "loop", self.watchdog.deadline(cost)
        else:
            key = f"{activity.tag}:{item.key}"
            fails = self.failure_model.fails(key, run.attempt)
            run.fate = "fail" if fails else "ok"
            run.service = cost / run.core.speed
        run.tid = self.journal.attempt_started(
            item.key, activity.tag, run.attempt, actid=run.actid,
            ts=start - self.t0, vm_id=run.core.vm_id,
            core_index=run.core.core_index,
        )
        heapq.heappush(
            self._running, (start + run.service, next(self._seq), run)
        )

    def next_completion(self, timeout: float | None = None) -> Completion | None:
        while self._running:
            finish, _, run = heapq.heappop(self._running)
            self.clock.run(until=finish)  # boots VMs due by then
            self._usable = None
            item, activity = run.item, run.activity
            end = finish - self.t0
            outs: list[dict] = []
            if run.fate == "loop":
                self.journal.attempt_ended(
                    run.tid, end, ActivationStatus.ABORTED, 137,
                    "looping state killed by watchdog",
                )
                run.outcome.timed_out = True
            elif run.fate == "fail":
                self.journal.attempt_ended(
                    run.tid, end, ActivationStatus.FAILED, 1,
                    "injected failure",
                )
                if self.retry.should_retry(run.attempt):
                    run.outcome.retried += 1
                    run.attempt += 1
                    delay = self.retry.delay(run.attempt - 1, item.key)
                    self._launch(run, finish + delay)
                    continue
            else:
                self.journal.attempt_ended(run.tid, end)
                if self.data_model is not None:
                    self._bytes.append(self.data_model(activity.tag, item.tup))
                if activity.fn is not None:
                    raw = activity.run(item.tup, self.context)
                else:
                    raw = [dict(item.tup)]
                outs = collect_outputs(
                    self.journal.store, activity, raw, run.tid
                )
                run.outcome.succeeded = True
                run.outcome.duration = run.service
            self._busy.discard(run.core)
            return Completion(item, outs, run.outcome)
        return None

    # -- lifecycle -----------------------------------------------------------
    def finish(self) -> dict:
        return {
            "cost_usd": self.cluster.cost(),
            # fsum is exact, so the volume cannot depend on completion order.
            "bytes_written": math.fsum(self._bytes),
            "peak_cores": self.peak_cores,
        }

    def shutdown(self) -> None:
        pass
