"""Receptor-affinity routing for the process backend.

SciCumulus places activations on VMs so that tasks sharing input data
land together; our equivalent is routing every activation for a given
receptor to the same worker process, so that worker's per-run caches
(receptor prep, attached grid-map segments) hit instead of rebuild.

A single ``ProcessPoolExecutor`` offers no placement control, so the
router keeps N *single-worker* pools — task-to-process placement is then
exact — fed by one dispatcher thread per worker. Every placement
question (which slot's backlog a task joins, what an idle dispatcher
takes next, where a drained slot's backlog goes) is answered by the
shared :class:`~repro.workflow.placement.Placement` core, called under
the router's lock: a dispatcher that finds its own backlog dry steals
the oldest task of the longest backlog whose worker is busy, trading a
cache miss for idle time; the stolen task still attaches the shared
artifact plane, so the miss costs an attach, not a rebuild.

Fault machinery (driven by the engine's watchdog and retry policy):

* A worker that dies (``BrokenProcessPool``) is replaced with a fresh
  single-worker pool and the in-flight task fails over to the engine's
  retry policy, which resubmits onto the healed worker.
* :meth:`AffinityRouter.abort` lets the engine enforce a wall-clock
  deadline: a still-queued task is dequeued; a running task's worker is
  killed with SIGKILL (the only way to stop a hung activation) and the
  healing path replaces it. Deliberate watchdog kills do not count
  against the worker's health.
* A slot that accumulates ``quarantine_after`` *consecutive* unexpected
  deaths is quarantined instead of endlessly healed: the placement core
  drops it, re-placing its backlog and re-hashing new submissions over
  the surviving slots, and the run degrades gracefully on fewer
  workers. The last live slot is never quarantined.

Elasticity: :meth:`AffinityRouter.resize` grows or shrinks the live
slot count mid-run. Growth appends fresh single-worker pools (each with
its own dispatcher thread); shrinkage *retires* slots through the same
drain path quarantine uses — no new work, backlog redistributed, the
process shut down once its in-flight task finishes.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

from repro.workflow.placement import Placement


class RouterError(RuntimeError):
    """Raised for tasks rejected or orphaned by router shutdown."""


def probe_worker(*_args: Any) -> int:
    """Identity probe: returns the executing worker's pid."""
    return os.getpid()


def sleepy_probe(seconds: float, *_args: Any) -> int:
    """Slow identity probe, for exercising work-stealing in tests."""
    time.sleep(seconds)
    return os.getpid()


class _Task:
    __slots__ = ("fn", "args", "future")

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.future: Future = Future()


class AffinityRouter:
    """Sticky-by-key task routing over N single-process pools."""

    def __init__(
        self,
        workers: int,
        mp_context: Any,
        initializer: Callable | None = None,
        *,
        quarantine_after: int = 3,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.quarantine_after = quarantine_after
        self._mp_context = mp_context
        self._initializer = initializer
        self._pools: list[ProcessPoolExecutor] = []
        #: Pid of each slot's worker process, resolved from an eager
        #: probe submitted at pool creation (single-worker pools execute
        #: FIFO, so the probe resolves before any real task runs).
        self._pid_futures: list[Future] = []
        self._busy: list[bool] = []
        #: Task currently executing on each slot (for abort targeting).
        self._running: list[_Task | None] = []
        self._consecutive_failures: list[int] = []
        #: Backlogs per live slot; quarantined and retired slots leave it.
        self._placement = Placement(running=lambda i: int(self._busy[i]))
        #: Queued (not yet dispatched) tasks by future, for abort.
        self._queued: dict[Future, _Task] = {}
        #: Slots the engine's watchdog killed on purpose — their next
        #: BrokenProcessPool is expected and not a health strike.
        self._expected_kills: set[int] = set()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._shutdown = False
        self.routed = 0
        self.quarantined_workers = 0
        self._dispatchers: list[threading.Thread] = []
        #: Slots ever created (live, quarantined and retired alike).
        self.workers = 0
        with self._lock:
            for _ in range(workers):
                self._add_slot()

    @property
    def steals(self) -> int:
        return self._placement.steals

    def _new_pool(self) -> tuple[ProcessPoolExecutor, Future]:
        pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._mp_context,
            initializer=self._initializer,
        )
        return pool, pool.submit(probe_worker)

    def _add_slot(self) -> None:
        """A fresh single-worker pool with its own dispatcher thread
        (called under the lock)."""
        pool, pid_future = self._new_pool()
        slot = self.workers
        self.workers += 1
        self._pools.append(pool)
        self._pid_futures.append(pid_future)
        self._busy.append(False)
        self._running.append(None)
        self._consecutive_failures.append(0)
        self._placement.add(slot)
        thread = threading.Thread(target=self._dispatch, args=(slot,), daemon=True)
        self._dispatchers.append(thread)
        thread.start()

    # -- submission ----------------------------------------------------------
    def submit(self, affinity_key: str | None, fn: Callable, *args: Any) -> Future:
        """Queue a task for the key's home worker (least-loaded if keyless)."""
        task = _Task(fn, args)
        with self._lock:
            if self._shutdown:
                raise RouterError("router is shut down")
            self._placement.place(task, affinity_key)
            self._queued[task.future] = task
            self.routed += 1
            self._work_ready.notify_all()
        return task.future

    def broadcast(self, fn: Callable, *args: Any) -> list[Any]:
        """Run ``fn`` once on every live worker, returning per-worker results.

        Bypasses the queues (each pool has exactly one process, so
        pool-level submission already pins placement). Worker failures
        surface as exception objects in the result list rather than
        raising, so end-of-run cleanup can't be derailed by one dead
        worker. Quarantined slots are skipped — their processes are gone.
        """
        with self._lock:
            if self._shutdown:
                raise RouterError("router is shut down")
            pools = [self._pools[i] for i in self._placement.live]
        results: list[Any] = []
        for pool in pools:
            try:
                results.append(pool.submit(fn, *args).result())
            except Exception as exc:  # noqa: BLE001 - cleanup is best-effort
                results.append(exc)
        return results

    # -- watchdog abort ------------------------------------------------------
    def abort(self, future: Future) -> str:
        """Abort a submitted task whose deadline expired.

        Returns how the abort landed: ``"dequeued"`` (never started —
        removed from its queue, :class:`RouterError` set), ``"killed"``
        (running — its worker process got SIGKILL; the dispatcher's
        healing path replaces the pool and fails the future), or
        ``"finished"`` (completed in the race window; the result is
        still on the future). Deliberate kills are flagged so they do
        not count toward quarantine.
        """
        with self._lock:
            task = self._queued.pop(future, None)
            if task is not None:
                self._placement.discard(task)
                future.set_exception(RouterError("aborted by watchdog while queued"))
                return "dequeued"
            worker = next(
                (
                    i
                    for i, running in enumerate(self._running)
                    if running is not None and running.future is future
                ),
                None,
            )
            if worker is None:
                return "finished"
            self._expected_kills.add(worker)
            pid_future = self._pid_futures[worker]
            # Kill under the lock: the dispatcher cannot swap in another
            # task on this slot until the lock is released, so the
            # SIGKILL cannot hit an innocent successor task.
            try:
                pid = pid_future.result(timeout=5.0)
                os.kill(pid, signal.SIGKILL)
            except Exception:  # noqa: BLE001 - worker already dead
                pass
            return "killed"

    # -- dispatch ------------------------------------------------------------
    def _take_task(self, worker: int) -> _Task | None:
        """Ask the placement core for this idle worker's next task.

        A dispatcher only asks when its worker is idle, so it may always
        steal; the victims are slots whose worker is busy — an idle home
        worker is about to drain its own queue.
        """
        task = self._placement.take(
            worker, may_steal=True, saturated=lambda i: self._busy[i]
        )
        if task is not None:
            del self._queued[task.future]
        return task

    def _dispatch(self, worker: int) -> None:
        while True:
            with self._lock:
                task = self._take_task(worker)
                while task is None and not self._shutdown:
                    self._work_ready.wait()
                    task = self._take_task(worker)
                if task is None:
                    return
                self._busy[worker] = True
                self._running[worker] = task
                pool = self._pools[worker]
            error: BaseException | None = None
            result = None
            try:
                result = pool.submit(task.fn, *task.args).result()
            except BrokenProcessPool as exc:
                self._heal(worker, pool)
                error = exc
            except BaseException as exc:  # noqa: BLE001 - relay to waiter
                error = exc
            # Go idle *before* unblocking the submitter: a follow-up
            # submission must see this worker as a sticky home again,
            # not as a steal victim.
            with self._lock:
                self._busy[worker] = False
                self._running[worker] = None
                if error is None:
                    self._consecutive_failures[worker] = 0
                retired_pool = (
                    pool
                    if worker not in self._placement.live
                    and self._pools[worker] is pool
                    else None
                )
                self._work_ready.notify_all()
            if retired_pool is not None:
                # The slot was retired while this task ran; its process
                # drains now that the in-flight work is done.
                retired_pool.shutdown(wait=False)
            if error is not None:
                if not task.future.done():
                    task.future.set_exception(error)
            elif not task.future.done():
                task.future.set_result(result)

    def _heal(self, worker: int, dead: ProcessPoolExecutor) -> None:
        """Replace a broken pool so retries land on a live process.

        An *unexpected* death (not a watchdog kill) is a health strike;
        ``quarantine_after`` consecutive strikes quarantine the slot
        instead — unless it is the last one standing.
        """
        dead.shutdown(wait=False)
        with self._lock:
            if self._shutdown or self._pools[worker] is not dead:
                return
            expected = worker in self._expected_kills
            self._expected_kills.discard(worker)
            if expected:
                self._consecutive_failures[worker] = 0
            if worker not in self._placement.live:
                # A retired slot was on its way out anyway: no
                # replacement, no health strike.
                return
            if not expected:
                self._consecutive_failures[worker] += 1
                if (
                    self._consecutive_failures[worker] >= self.quarantine_after
                    and len(self._placement.live) > 1
                ):
                    self.quarantined_workers += 1
                    self._placement.remove(worker)
                    self._work_ready.notify_all()
                    return
            self._pools[worker], self._pid_futures[worker] = self._new_pool()

    # -- elasticity ----------------------------------------------------------
    def resize(self, target: int) -> int:
        """Grow or shrink the live slot count to ``target`` mid-run.

        Growth appends fresh single-worker pools, each with its own
        dispatcher thread. Shrinkage retires slots — idle ones first,
        then highest index — through the quarantine drain path: a
        retired slot takes no new work, the placement core re-places its
        backlog, and its process shuts down as soon as any in-flight
        task completes. The last live slot is never retired. Returns the
        resulting live slot count.
        """
        idle_pools: list[ProcessPoolExecutor] = []
        with self._lock:
            if self._shutdown:
                raise RouterError("router is shut down")
            target = max(1, int(target))
            live = list(self._placement.live)
            for _ in range(target - len(live)):
                self._add_slot()
            if target < len(live):
                # Idle slots first (their processes can drop right now),
                # then newest; sort key is (busy, -index).
                victims = sorted(live, key=lambda i: (self._busy[i], -i))
                for worker in victims[: len(live) - target]:
                    self._placement.remove(worker)
                    if not self._busy[worker]:
                        idle_pools.append(self._pools[worker])
            self._work_ready.notify_all()
            survivors = len(self._placement.live)
        for pool in idle_pools:
            pool.shutdown(wait=False)
        return survivors

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            pending = self._placement.drain()
            self._queued.clear()
            self._work_ready.notify_all()
        for task in pending:
            if not task.future.done():
                task.future.set_exception(
                    RouterError("router shut down with task queued")
                )
        for thread in self._dispatchers:
            thread.join()
        for pool in self._pools:
            pool.shutdown(wait=True)
