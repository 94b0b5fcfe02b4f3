"""The transport-agnostic coordinator core.

:class:`LocalEngine`'s run loop used to be a monolith that knew it was
talking to an in-process thread pool. This module is the split: the
:class:`Coordinator` owns everything about *what* runs — the
scheduler-ordered ready queue over the activation DAG, journal-replay
satisfaction on resume, steering/looping dispatch checks, straggler
speculation twins, elasticity decisions, journal emission and the
settlement of completions back into the dataflow — while an
:class:`ExecutionPlane` owns everything about *where* it runs.

A plane is deliberately small: report capacity, accept a dispatched
item, hand back completions, and say where an item would land. The
in-process thread/process backends implement it
(:class:`~repro.workflow.planes.LocalExecutionPlane`), so does the
socket-transport director/worker backend
(:class:`~repro.workflow.distributed.DirectorPlane`), and so does the
discrete-event simulator (:class:`~repro.workflow.planes.SimulatedPlane`)
— the coordinator cannot tell them apart, which is the point: fault
machinery (watchdog deadlines, infra budgets, quarantine) and journal
semantics (terminal flush barriers, dispatch placement records) behave
identically whether an activation dies on a local worker process, on a
node across the network, or on a simulated VM core. Time comes only from
the injected ``clock`` (``time.perf_counter``, or the simulator's
:class:`~repro.cloud.simclock.SimClock`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.dataflow import DataflowState, ReadyQueue, WorkItem
from repro.workflow.dispatch import AttemptAbortHandle, AttemptOutcome
from repro.workflow.fault import Watchdog
from repro.workflow.journal import JournalReplay, RunJournal
from repro.workflow.relation import Relation


class CoordinatorError(RuntimeError):
    """Raised when the coordinator cannot make progress."""


@dataclass
class Completion:
    """One attempt's terminal report, relayed from a plane's bookkeeping."""

    item: WorkItem
    outs: list
    outcome: AttemptOutcome
    exc: BaseException | None = None
    role: str = "primary"


@dataclass
class Flight:
    """One in-flight activation and its (possible) speculative twin.

    ``pending`` counts attempts still running (1 or 2); ``settled``
    flips once a twin's outcome has been accepted — everything the
    other twin reports afterwards is bookkeeping only.
    """

    item: WorkItem
    activity: Activity
    actid: int
    wall_start: float
    primary_handle: AttemptAbortHandle | None
    spec_handle: AttemptAbortHandle | None = None
    pending: int = 1
    settled: bool = False


class ExecutionPlane(ABC):
    """Where activations execute: the contract the coordinator drives.

    Implementations wrap a pool of execution slots (threads, worker
    processes behind an affinity router, or remote worker nodes behind
    a director) plus the bookkeeping needed to turn an attempt's fate
    into a :class:`Completion`. All methods are called from the single
    coordinator thread except the implementation's own internals.

    The contract is strictly per-item: :meth:`submit` takes one work
    item, and the coordinator journals one ``dispatched`` event (with
    per-tuple node placement) per item. Any aggregation of items into
    larger transport units — e.g. the distributed plane packing K tasks
    into one TASK_BATCH wire frame — is a *transport* concern below this
    seam, invisible to dispatch, journaling, speculation and abort,
    which keep addressing individual tuples.
    """

    #: Whether the coordinator may launch straggler-speculation twins
    #: on this plane (requires an abort lever for the losing twin).
    supports_speculation: bool = False
    #: Whether :meth:`resize` actually moves live capacity (elasticity).
    elastic: bool = False
    #: Whether a known looper (Hg routine off) runs here until its
    #: watchdog deadline instead of being aborted at decision time —
    #: affordable only in virtual time, where that cost is measured.
    spends_looper_deadline: bool = False

    @abstractmethod
    def capacity(self) -> int:
        """Current dispatch cap: how many items may be in flight."""

    @abstractmethod
    def submit(
        self,
        item: WorkItem,
        activity: Activity,
        actid: int,
        handle: AttemptAbortHandle | None,
    ) -> None:
        """Launch an item's primary attempt chain."""

    def submit_speculative(
        self,
        item: WorkItem,
        activity: Activity,
        actid: int,
        handle: AttemptAbortHandle,
    ) -> None:
        """Launch a duplicate attempt of a suspected straggler."""
        raise NotImplementedError("plane does not support speculation")

    @abstractmethod
    def next_completion(self, timeout: float | None = None) -> Completion | None:
        """Block for the next completion; ``None`` on timeout."""

    def start_round(self, n_ready: int) -> None:
        """A dispatch round begins with ``n_ready`` items queued (where a
        simulated plane charges the scheduler's planning overhead)."""

    def placement(self, item: WorkItem) -> str | None:
        """Where ``item`` would land (node id), if the plane knows."""
        return None

    def resize(self, target: int) -> bool:
        """Move live capacity to ``target``; ``True`` if applied."""
        return False

    def wait_for_capacity(self, timeout: float) -> bool:
        """Block until at least one slot exists (distributed planes:
        until a worker node is connected); ``True`` when capacity > 0."""
        return self.capacity() > 0

    def finish(self) -> dict:
        """Post-run plane statistics (steals, nodes, cleanup results)."""
        return {}

    @abstractmethod
    def shutdown(self) -> None:
        """Tear the plane down; idempotent."""


@dataclass
class CoordinatorTotals:
    """Run-loop accounting folded into the engine's ExecutionReport."""

    retried: int = 0
    blocked: int = 0
    aborted: int = 0
    timeouts: int = 0
    infra_retries: int = 0
    speculative_launched: int = 0
    speculative_won: int = 0
    pool_resizes: int = 0
    replayed: int = 0
    peak_inflight: int = 0


class Coordinator:
    """Drives one run's dataflow over any :class:`ExecutionPlane`."""

    #: Completion-wait granularity while watching for stragglers.
    speculation_poll = 0.05
    #: How long to wait for the plane to regain capacity (distributed:
    #: for any worker node to be connected) before declaring deadlock.
    capacity_timeout = 60.0

    def __init__(
        self,
        workflow: Workflow,
        state: DataflowState,
        ready: ReadyQueue,
        plane: ExecutionPlane,
        *,
        journal: RunJournal,
        actids: dict[str, int],
        watchdog: Watchdog,
        clock=time.perf_counter,
        steering=None,
        cost_service=None,
        elasticity=None,
        block_known_loopers: bool = True,
        replay: JournalReplay | None = None,
    ) -> None:
        self.workflow = workflow
        self.state = state
        self.ready = ready
        self.plane = plane
        self.journal = journal
        self.actids = actids
        self.watchdog = watchdog
        self.clock = clock
        self.steering = steering
        self.service = cost_service
        self.elasticity = elasticity
        self.block_known_loopers = block_known_loopers
        self.replay = replay
        self.totals = CoordinatorTotals()
        self._inflight = 0
        #: In-flight activations by item identity (twin accounting).
        self._flights: dict[int, Flight] = {}

    # -- helpers -------------------------------------------------------------
    def _expected_cost(self, item: WorkItem) -> float:
        if self.ready.cost_fn is not None:
            return self.ready.cost_fn(item)
        return self.workflow.activities[item.stage].cost(item.tup)

    def _enqueue(self, items: list[WorkItem]) -> None:
        for item in items:
            self.ready.push(item)

    def _apply_elasticity(self, hard_max: int) -> None:
        """Let the policy move the dispatch cap before a scheduling round."""
        ready = self.ready
        active = self.plane.capacity()
        if ready:
            mean_cost = sum(
                self._expected_cost(j) for j in ready.items()
            ) / len(ready)
        else:
            mean_cost = 0.0
        utilization = self._inflight / active if active else 0.0
        target = self.elasticity.target_cores(
            len(ready), self._inflight, mean_cost, utilization=utilization,
        )
        target = max(1, min(hard_max, int(target)))
        if target != active and self.plane.resize(target):
            self.journal.resized(target, active)
            self.totals.pool_resizes += 1

    def _maybe_speculate(self) -> None:
        """Duplicate attempts running past their learned tail quantile."""
        now = self.clock()
        active = self.plane.capacity()
        for flight in list(self._flights.values()):
            if self._inflight >= active:
                break
            if flight.settled or flight.spec_handle is not None:
                continue
            if flight.activity.operator is Operator.REDUCE:
                continue
            threshold = self.service.straggler_threshold(
                flight.activity.tag, flight.item.tup
            )
            if threshold is None or now - flight.wall_start <= threshold:
                continue
            handle = AttemptAbortHandle()
            flight.spec_handle = handle
            flight.pending += 1
            self._inflight += 1
            self.totals.peak_inflight = max(
                self.totals.peak_inflight, self._inflight
            )
            self.totals.speculative_launched += 1
            self.plane.submit_speculative(
                flight.item, flight.activity, flight.actid, handle
            )

    def _dispatch_one(self, item: WorkItem, spec_enabled: bool) -> bool:
        """Dispatch checks + submission for one popped item.

        Returns ``True`` when the item went in flight, ``False`` when it
        was satisfied/retired without touching a worker (replay hit,
        steering abort, looping predicate).
        """
        totals = self.totals
        if self.replay is not None:
            cached = self.replay.outputs_for(item.stage, item.key)
            if cached is not None:
                # The ancestor run completed this item durably (journal
                # flush barrier): satisfy it from the logged outputs —
                # lineage-stable keys make the match exact — and never
                # touch a worker.
                totals.replayed += 1
                self.journal.replayed(item.stage, item.key)
                self._enqueue(
                    self.state.complete(item, [dict(t) for t in cached])
                )
                return False
        activity = self.workflow.activities[item.stage]
        actid = self.actids[activity.tag]
        if activity.operator is not Operator.REDUCE:
            if self.steering is not None and self.steering.should_abort(
                activity.tag, item.key
            ):
                self.journal.steered(item.stage, item.key, "abort")
                self.journal.blocked(
                    item.stage, item.key, "aborted by user steering",
                    actid=actid,
                )
                totals.blocked += 1
                self._enqueue(self.state.retire(item))
                return False
            if activity.would_loop(item.tup) and (
                self.block_known_loopers
                or not self.plane.spends_looper_deadline
            ):
                if self.block_known_loopers:
                    self.journal.blocked(
                        item.stage, item.key,
                        "known looping input (Hg routine)", actid=actid,
                    )
                    totals.blocked += 1
                else:
                    # Predicate-known looper with the Hg routine
                    # disabled: abort at decision time rather than
                    # burning the real deadline. The row's end time is
                    # the decision's — a fabricated ``start + deadline``
                    # would skew per-activity duration queries; the
                    # deadline it *would* have received is kept in
                    # errormsg.
                    deadline = self.watchdog.deadline(
                        activity.cost(item.tup)
                    )
                    self.journal.aborted(
                        item.stage, item.key,
                        "looping state killed by watchdog",
                        actid=actid,
                        errormsg="looping state killed by watchdog "
                        f"(deadline {deadline:.3f}s)",
                        workdir=self.state_workdir(),
                    )
                    totals.aborted += 1
                self._enqueue(self.state.retire(item))
                return False
        self.journal.dispatched(
            item.stage, item.key, node=self.plane.placement(item)
        )
        handle = AttemptAbortHandle() if spec_enabled else None
        self._flights[id(item)] = Flight(
            item=item,
            activity=activity,
            actid=actid,
            wall_start=self.clock(),
            primary_handle=handle,
        )
        self._inflight += 1
        totals.peak_inflight = max(totals.peak_inflight, self._inflight)
        self.plane.submit(item, activity, actid, handle)
        return True

    def state_workdir(self) -> str:
        """Workdir recorded on coordinator-side activation rows."""
        context = getattr(self.plane, "context", None)
        return context.get("workdir", "") if isinstance(context, dict) else ""

    def _settle(self, record: Completion) -> None:
        """Fold one attempt completion back into the dataflow."""
        totals = self.totals
        item, outcome, role = record.item, record.outcome, record.role
        self._inflight -= 1
        flight = self._flights[id(item)]
        flight.pending -= 1
        if flight.settled:
            # The twin already settled this tuple; this is the loser
            # draining. Count its bookkeeping but do not touch the
            # dataflow again.
            totals.retried += outcome.retried
            totals.infra_retries += outcome.infra_retries
            if flight.pending == 0:
                self._flights.pop(id(item), None)
            return
        if record.exc is not None:
            raise record.exc
        totals.retried += outcome.retried
        totals.infra_retries += outcome.infra_retries
        if outcome.timed_out:
            totals.aborted += 1
            totals.timeouts += 1
        if not outcome.succeeded and flight.pending > 0:
            # This twin failed/timed out but the other is still
            # running — let it decide the tuple.
            return
        flight.settled = True
        if flight.pending == 0:
            self._flights.pop(id(item), None)
        else:
            # First completion wins: cancel the other twin.
            other = (
                flight.spec_handle
                if role == "primary"
                else flight.primary_handle
            )
            if other is not None:
                other.abort()
        if role == "speculative" and outcome.succeeded:
            totals.speculative_won += 1
        if (
            self.service is not None
            and outcome.succeeded
            and outcome.duration is not None
        ):
            self.service.observe(
                flight.activity.tag, item.tup, outcome.duration
            )
        if outcome.succeeded:
            self._enqueue(self.state.complete(item, record.outs))
        else:
            # Terminal non-success: journal the reason (the retire path
            # does not log a completed event) so replay knows this item
            # must re-execute.
            if outcome.timed_out:
                self.journal.aborted(item.stage, item.key, "watchdog timeout")
            elif outcome.cancelled:
                self.journal.aborted(item.stage, item.key, "speculation loss")
            else:
                self.journal.failed(item.stage, item.key, "attempts exhausted")
            self._enqueue(self.state.retire(item))

    # -- the loop ------------------------------------------------------------
    def run(self, relation: Relation, *, hard_max: int | None = None) -> CoordinatorTotals:
        """Drive ``relation`` through the workflow to completion.

        The loop fills free plane slots from the ready queue (keeping
        the backlog coordinator-side — what lets the scheduler order
        dispatch and steering cancel still-queued work), waits for
        completions, and settles them back into the dataflow. On a
        plane whose capacity can drop to zero (all worker nodes lost),
        it blocks up to :attr:`capacity_timeout` for capacity to return
        before declaring the run stuck.
        """
        spec_enabled = (
            self.service is not None
            and self.service.speculation_enabled
            and self.plane.supports_speculation
        )
        if hard_max is None:
            hard_max = self.plane.capacity()
        self._enqueue(self.state.seed(relation))
        while True:
            if self.elasticity is not None and self.plane.elastic:
                self._apply_elasticity(hard_max)
            # Fill free plane slots from the ready queue.
            if self.ready and self._inflight < self.plane.capacity():
                self.plane.start_round(len(self.ready))
            while self.ready and self._inflight < self.plane.capacity():
                self._dispatch_one(self.ready.pop(), spec_enabled)
            if self._inflight == 0:
                if self.ready:
                    # Ready work but zero capacity: every node is gone
                    # (or none has joined yet). Wait for the plane to
                    # heal instead of dropping work on the floor.
                    if not self.plane.wait_for_capacity(self.capacity_timeout):
                        raise CoordinatorError(
                            f"{len(self.ready)} activation(s) ready but the "
                            "execution plane has no capacity (no live "
                            "worker nodes?)"
                        )
                    continue
                break
            # With speculation on and idle capacity, wait in short
            # slices so stragglers are noticed promptly; otherwise
            # block until something completes.
            if spec_enabled and self._inflight < self.plane.capacity():
                record = self.plane.next_completion(
                    timeout=self.speculation_poll
                )
                if record is None:
                    self._maybe_speculate()
                    continue
            else:
                record = self.plane.next_completion()
                if record is None:  # pragma: no cover - defensive
                    continue
            self._settle(record)
        return self.totals
