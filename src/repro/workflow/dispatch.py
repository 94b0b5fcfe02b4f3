"""Attempt lifecycle for real execution: watchdog, retries, budgets.

Extracted from the LocalEngine monolith so the engine proper is only a
dataflow coordinator (see :mod:`repro.workflow.dataflow`) and the
per-activation machinery — wall-clock watchdog enforcement on both
backends, exponential-backoff retries, the infrastructure-failure
budget, reserved-field stripping and the attempts' activation rows
(written through the run journal) — lives in one place with no
knowledge of dispatch order or barriers.

An :class:`AttemptRunner` is constructed once per engine run (it closes
over the run's router, shipped context, fault injector and cancellation
handle) and is safe to call from many bookkeeping threads concurrently:
every method touches only per-call state plus thread-safe collaborators
(the journal's store serializes internally, the affinity router locks
its own slots).

Straggler speculation adds a second dispatch entry point,
:meth:`AttemptRunner.run_speculative` (one attempt, no retry budget,
provenance rows flagged ``speculative=True``), and an
:class:`AttemptAbortHandle` through which the engine cancels whichever
twin loses the race — cooperative token cancellation on the threads
backend, :meth:`AffinityRouter.abort` (dequeue or SIGKILL) on
processes. A losing attempt is recorded ABORTED with an errormsg
starting with :data:`SPECULATION_ERRMSG_PREFIX`; the winning twin's
``completed`` event is what a resume replays.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.provenance.store import ActivationStatus, ProvenanceStore
from repro.workflow.activity import Activity, run_activation
from repro.workflow.affinity import AffinityRouter, RouterError
from repro.workflow.extractor import run_extractors
from repro.workflow.fault import (
    CancellationToken,
    CancelTokenHandle,
    FaultInjector,
    InjectedWorkerCrash,
    RetryPolicy,
    Watchdog,
    WatchdogTimeout,
    run_activation_with_faults,
)
from repro.workflow.journal import RunJournal

#: Context entries that never cross a process boundary: live caches
#: (rebuilt per worker via the cache token), the in-memory shared FS and
#: the steering controller (both hold parent-side state/locks), and the
#: thread-backend cancellation handle (thread-local, meaningless in a
#: worker process — hung workers are killed, not cancelled).
PARENT_ONLY_CONTEXT_KEYS = ("caches", "fs", "steering", "cancel_token")

#: Exceptions that mean the *infrastructure* failed, not the activation:
#: they retry on a separate budget without consuming activation attempts.
INFRA_ERRORS = (BrokenProcessPool, RouterError, InjectedWorkerCrash)

#: Errormsg prefix on ABORTED rows of speculation losers (either twin).
SPECULATION_ERRMSG_PREFIX = "speculation"

#: Full errormsg written for a superseded attempt.
SPECULATION_LOSS_ERRMSG = "speculation: superseded by twin attempt"

#: Polling granularity while an attempt waits under an abort handle.
_ABORT_POLL_S = 0.05


def strip_reserved(tup: dict) -> tuple[dict, list, str | None]:
    """Pop the engine-reserved fields off an output tuple."""
    files = tup.pop("_files", [])
    payload = tup.pop("_extract_payload", None)
    return tup, files, payload


def collect_outputs(
    store: ProvenanceStore, activity: Activity, raw: list[dict], tid: int
) -> list[dict]:
    """Strip reserved fields; record file/extract provenance on ``tid``."""
    outs = []
    for out in raw:
        clean, files, payload = strip_reserved(dict(out))
        for fname, fsize, fdir in files:
            store.record_file(tid, fname, int(fsize), fdir)
        if payload is not None and activity.extractors:
            store.record_extracts(
                tid, run_extractors(activity.extractors, payload)
            )
        outs.append(clean)
    return outs


class AttemptSuperseded(RuntimeError):
    """The twin attempt won the race; this attempt was cancelled."""


class AttemptAbortHandle:
    """One flight's cancellation fan-out, usable from any thread.

    The bookkeeping thread running an attempt *binds* whatever
    cancellation lever its backend offers (the cooperative token on
    threads, the router future on processes); the coordinator calls
    :meth:`abort` when the twin attempt wins. Binding after the abort
    fires the lever immediately, so the race between "twin finished"
    and "attempt just started executing" cannot leak an orphan.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._aborted = False
        self._token: CancellationToken | None = None
        self._router: AffinityRouter | None = None
        self._future: Future | None = None

    @property
    def aborted(self) -> bool:
        return self._aborted

    def bind_token(self, token: CancellationToken) -> None:
        with self._lock:
            self._token = token
            fire = self._aborted
        if fire:
            token.cancel()

    def bind_future(self, router: AffinityRouter, future: Future) -> None:
        with self._lock:
            self._router = router
            self._future = future
            fire = self._aborted
        if fire:
            router.abort(future)

    def abort(self) -> None:
        with self._lock:
            if self._aborted:
                return
            self._aborted = True
            token = self._token
            router = self._router
            future = self._future
        if token is not None:
            token.cancel()
        if router is not None and future is not None:
            router.abort(future)


@dataclass
class AttemptOutcome:
    """Per-activation retry/abort accounting returned by the runners."""

    retried: int = 0
    infra_retries: int = 0
    timed_out: bool = False
    #: The attempt chain ended in a FINISHED activation.
    succeeded: bool = False
    #: The attempt lost a speculation race and was cancelled.
    cancelled: bool = False
    #: Wall-clock seconds of the *successful* attempt (None otherwise) —
    #: the online cost service's observation unit.
    duration: float | None = None
    #: This outcome came from a speculative duplicate attempt.
    speculative: bool = False


class AttemptRunner:
    """Drives one activation from first attempt to terminal outcome."""

    def __init__(
        self,
        journal: RunJournal,
        retry: RetryPolicy,
        watchdog: Watchdog,
        *,
        router: AffinityRouter | None = None,
        shipped_context: dict | None = None,
        fault_injector: FaultInjector | None = None,
        cancel_handle: CancelTokenHandle | None = None,
    ) -> None:
        #: The run's journal: each attempt's activation row and
        #: ``attempt-start`` event go through it.
        self.journal = journal
        self.retry = retry
        self.watchdog = watchdog
        self.router = router
        self.shipped_context = shipped_context
        self.fault_injector = fault_injector
        self.cancel_handle = cancel_handle

    # -- execution ----------------------------------------------------------
    def _call_with_watchdog(
        self,
        call,
        deadline: float,
        key: str,
        abort_handle: AttemptAbortHandle | None = None,
    ):
        """Threads backend: run ``call(token)`` under a wall-clock deadline.

        The activation runs on a dedicated daemon thread while this
        bookkeeping thread does a timed wait. At the deadline the
        cooperative token is cancelled and the activation gets
        ``watchdog.grace`` seconds to notice; threads cannot be killed,
        so a non-cooperative activation is then *abandoned* — its
        provenance says ABORTED and the run moves on, but the thread
        itself survives until its code returns (document long hangs to
        chaos tests; the daemon flag keeps them from pinning exit).

        With an ``abort_handle`` the wait polls so a speculation loss
        lands promptly: the token is cancelled, the activation gets the
        same grace window, and :class:`AttemptSuperseded` is raised.
        """
        token = CancellationToken()
        done = threading.Event()
        box: dict = {}

        def runner() -> None:
            if self.cancel_handle is not None:
                self.cancel_handle.bind(token)
            try:
                box["result"] = call(token)
            except BaseException as exc:  # noqa: BLE001 - relayed below
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(
            target=runner, name=f"activation-{key}", daemon=True
        )
        if abort_handle is not None:
            abort_handle.bind_token(token)
        thread.start()
        if abort_handle is None:
            finished = done.wait(deadline)
        else:
            deadline_at = time.monotonic() + deadline
            finished = False
            while not finished:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0 or abort_handle.aborted:
                    break
                finished = done.wait(min(_ABORT_POLL_S, remaining))
            if not finished and abort_handle.aborted:
                token.cancel()
                done.wait(self.watchdog.grace)
                raise AttemptSuperseded(key)
        if not finished:
            token.cancel()
            cooperative = done.wait(self.watchdog.grace)
            detail = (
                "cancelled cooperatively"
                if cooperative
                else "non-cooperative activation abandoned"
            )
            raise WatchdogTimeout(deadline, detail)
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _execute_activation(
        self,
        activity: Activity,
        tup: dict,
        key: str,
        tries: int,
        context: dict,
        deadline: float,
        abort_handle: AttemptAbortHandle | None = None,
    ) -> list[dict]:
        """Run one activation on the configured backend, under a deadline.

        Threads backend (no router): run the activity on a
        watchdog-supervised thread (cooperative cancellation; see
        ``_call_with_watchdog``). Processes backend: route ``(fn,
        operator, tag, tuple, sanitized context)`` through the affinity
        router — sticky by ``receptor_id`` so each receptor's
        activations revisit the worker holding its artifacts — with a
        timed wait on the result; a deadline miss SIGKILLs the worker
        (``router.abort``) and the router heals the slot. Raises
        :class:`WatchdogTimeout` either way, so the retry/provenance
        flow above is backend-agnostic.
        """
        injector = self.fault_injector
        if self.router is None:

            def call(token: CancellationToken) -> list[dict]:
                if injector is not None:
                    return run_activation_with_faults(
                        injector, key, tries, activity.fn, activity.operator,
                        activity.tag, tup, context,
                    )
                return activity.run(tup, context)

            return self._call_with_watchdog(
                call, deadline, key, abort_handle=abort_handle
            )
        affinity = tup.get("receptor_id") if isinstance(tup, dict) else None
        affinity_key = str(affinity) if affinity is not None else None
        if injector is not None:
            future = self.router.submit(
                affinity_key, run_activation_with_faults,
                injector, key, tries, activity.fn, activity.operator,
                activity.tag, tup, self.shipped_context,
            )
        else:
            future = self.router.submit(
                affinity_key, run_activation,
                activity.fn, activity.operator, activity.tag, tup,
                self.shipped_context,
            )
        if abort_handle is not None:
            # Bind after submit: a speculation loss dequeues a queued
            # task or SIGKILLs the worker running it.
            abort_handle.bind_future(self.router, future)
        try:
            return future.result(timeout=deadline)
        except FuturesTimeout:
            outcome = self.router.abort(future)
            if outcome == "finished":
                # Completed in the race window between the timed wait
                # expiring and the abort landing; the deadline was still
                # missed, so it is a timeout either way.
                pass
            raise WatchdogTimeout(deadline, f"worker {outcome}") from None

    def run_with_retry(
        self,
        activity: Activity,
        actid: int,
        tup: dict,
        key: str,
        context: dict,
        t0: float,
        abort_handle: AttemptAbortHandle | None = None,
    ) -> tuple[list[dict], AttemptOutcome]:
        """Execute one activation with watchdog, retries and backoff.

        Three failure classes, three budgets:

        * **Activation failures** (the callable raised): retried up to
          ``retry.max_attempts`` with exponential backoff, each attempt
          recorded as a FAILED activation.
        * **Infrastructure failures** (worker death, router errors):
          retried up to ``retry.max_infra_retries`` *without* consuming
          the activation's attempt budget — the input wasn't at fault.
        * **Watchdog timeouts**: terminal. A hung activation is aborted
          at its wall-clock deadline (worker killed on the processes
          backend, thread cancelled/abandoned on threads) and recorded
          ABORTED with the real abort timestamp; retrying a looping
          input would loop again.

        With an ``abort_handle`` (speculation enabled), a fourth exit
        exists at any point in the chain: the twin attempt won, this
        one is cancelled, and the current attempt (if any) is recorded
        ABORTED with the speculation-loss errormsg.
        """
        attempt = 0
        infra_failures = 0
        tries = 0  # total dispatches; fault injection re-rolls per try
        outcome = AttemptOutcome()
        while True:
            if abort_handle is not None and abort_handle.aborted:
                # Superseded before this attempt even began: nothing to
                # record — the twin's FINISHED row is the tuple's truth.
                outcome.cancelled = True
                return [], outcome
            start = time.perf_counter() - t0
            tid = self.journal.attempt_started(
                key, activity.tag, attempt, actid=actid, ts=start,
                workdir=context.get("workdir", ""),
            )
            deadline = self.watchdog.deadline(activity.cost(tup))
            try:
                raw = self._execute_activation(
                    activity, tup, key, tries, context, deadline,
                    abort_handle=abort_handle,
                )
            except AttemptSuperseded:
                self._record_loss(tid, t0)
                outcome.cancelled = True
                return [], outcome
            except WatchdogTimeout as exc:
                now = time.perf_counter() - t0
                self.journal.attempt_ended(
                    tid, now, ActivationStatus.ABORTED, 137,
                    f"watchdog timeout after {now - start:.3f}s "
                    f"(deadline {deadline:.3f}s; {exc.detail})",
                )
                outcome.timed_out = True
                return [], outcome
            except INFRA_ERRORS as exc:
                if abort_handle is not None and abort_handle.aborted:
                    # The router.abort that cancelled this attempt
                    # surfaces as a worker death — a speculation loss,
                    # not an infrastructure strike.
                    self._record_loss(tid, t0)
                    outcome.cancelled = True
                    return [], outcome
                now = time.perf_counter() - t0
                self.journal.attempt_ended(
                    tid, now, ActivationStatus.FAILED, 137,
                    f"infrastructure failure: {type(exc).__name__}: {exc}",
                )
                infra_failures += 1
                tries += 1
                if infra_failures > self.retry.max_infra_retries:
                    return [], outcome
                outcome.infra_retries += 1
                time.sleep(self.retry.delay(infra_failures - 1, key))
                continue
            except Exception as exc:  # noqa: BLE001 - activation errors are data
                if abort_handle is not None and abort_handle.aborted:
                    self._record_loss(tid, t0)
                    outcome.cancelled = True
                    return [], outcome
                self.journal.attempt_ended(
                    tid,
                    time.perf_counter() - t0,
                    ActivationStatus.FAILED,
                    1,
                    f"{type(exc).__name__}: {exc}",
                )
                if self.retry.should_retry(attempt):
                    time.sleep(self.retry.delay(attempt, key))
                    attempt += 1
                    tries += 1
                    outcome.retried += 1
                    continue
                return [], outcome
            outs = collect_outputs(self.journal.store, activity, raw, tid)
            now = time.perf_counter() - t0
            self.journal.attempt_ended(tid, now)
            outcome.succeeded = True
            outcome.duration = now - start
            return outs, outcome

    def run_speculative(
        self,
        activity: Activity,
        actid: int,
        tup: dict,
        key: str,
        context: dict,
        t0: float,
        abort_handle: AttemptAbortHandle,
    ) -> tuple[list[dict], AttemptOutcome]:
        """One duplicate attempt of a suspected straggler, no retries.

        The duplicate is a hedge, not a recovery path: it gets a single
        attempt (the primary still holds the retry budget), its
        provenance row carries ``speculative=True``, and whichever twin
        loses the first-completion race is recorded ABORTED with the
        speculation-loss errormsg.
        """
        outcome = AttemptOutcome(speculative=True)
        if abort_handle.aborted:
            outcome.cancelled = True
            return [], outcome
        start = time.perf_counter() - t0
        tid = self.journal.attempt_started(
            key, activity.tag, 0, actid=actid, speculative=True, ts=start,
            workdir=context.get("workdir", ""),
        )
        deadline = self.watchdog.deadline(activity.cost(tup))
        try:
            # tries=1: deterministic first-try fault plans (the usual
            # chaos setup) have already fired on the primary; the
            # duplicate models a re-execution, not a replay.
            raw = self._execute_activation(
                activity, tup, key, 1, context, deadline,
                abort_handle=abort_handle,
            )
        except AttemptSuperseded:
            self._record_loss(tid, t0)
            outcome.cancelled = True
            return [], outcome
        except WatchdogTimeout as exc:
            now = time.perf_counter() - t0
            self.journal.attempt_ended(
                tid, now, ActivationStatus.ABORTED, 137,
                f"watchdog timeout after {now - start:.3f}s "
                f"(deadline {deadline:.3f}s; {exc.detail})",
            )
            outcome.timed_out = True
            return [], outcome
        except Exception as exc:  # noqa: BLE001 - single-attempt duplicate
            if abort_handle.aborted:
                self._record_loss(tid, t0)
                outcome.cancelled = True
                return [], outcome
            self.journal.attempt_ended(
                tid,
                time.perf_counter() - t0,
                ActivationStatus.FAILED,
                1,
                f"{type(exc).__name__}: {exc}",
            )
            return [], outcome
        outs = collect_outputs(self.journal.store, activity, raw, tid)
        now = time.perf_counter() - t0
        self.journal.attempt_ended(tid, now)
        outcome.succeeded = True
        outcome.duration = now - start
        return outs, outcome

    def _record_loss(self, tid: int, t0: float) -> None:
        """Close a superseded attempt's provenance row."""
        self.journal.attempt_ended(
            tid,
            time.perf_counter() - t0,
            ActivationStatus.ABORTED,
            137,
            SPECULATION_LOSS_ERRMSG,
        )
