"""Re-execution of failed work from a previous run.

The paper: "SciCumulus has a re-execution mechanism, which supports long
running workflows, when some activity executions fail and need to be
re-submitted ... Since it has all information stored in the provenance
repository it does not need to restart the entire workflow."

This module answers, from provenance alone, *which tuples still need
work*, and re-runs just those through the engine under a fresh workflow
execution — the recovery path after a crash, a VM loss, or retry
exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.provenance.store import ProvenanceStore
from repro.workflow.activity import Workflow
from repro.workflow.dispatch import SPECULATION_ERRMSG_PREFIX
from repro.workflow.engine import ExecutionReport, LocalEngine
from repro.workflow.journal import recover_context
from repro.workflow.relation import Relation, tuple_key

#: Prefix the real engine writes on watchdog-timeout ABORTED records —
#: the marker that distinguishes "ran out of wall-clock" (transient,
#: worth re-running) from "known-bad input" (Hg looping state, not).
WATCHDOG_ERRMSG_PREFIX = "watchdog timeout"


@dataclass
class RecoveryPlan:
    """What a resume would re-run, and why."""

    wkfid: int
    completed_keys: set[str]
    failed_keys: set[str]
    aborted_keys: set[str]
    blocked_keys: set[str]
    missing_keys: set[str]
    #: ABORTED by the wall-clock watchdog (errormsg says so) rather than
    #: by the looping-state predicate. A timeout may be transient — a
    #: slow VM, a tight deadline — so these are rerunnable, unlike
    #: predicate aborts which re-abort deterministically.
    timeout_keys: set[str] = field(default_factory=set)

    @property
    def keys_to_rerun(self) -> set[str]:
        """Failed, never-started, or watchdog-timed-out tuples;
        predicate aborts and blocked keys stay excluded (they are
        known-bad inputs, e.g. Hg receptors)."""
        return self.failed_keys | self.missing_keys | self.timeout_keys

    def summary(self) -> str:
        return (
            f"workflow {self.wkfid}: {len(self.completed_keys)} complete, "
            f"{len(self.failed_keys)} failed, {len(self.missing_keys)} missing, "
            f"{len(self.aborted_keys)} aborted "
            f"({len(self.timeout_keys)} watchdog timeouts), "
            f"{len(self.blocked_keys)} blocked"
            f" -> re-running {len(self.keys_to_rerun)}"
        )


def _lineage_root_resolver(store: ProvenanceStore, wkfid: int):
    """Map activation tuple keys back to input-relation root keys.

    Under pipelined execution, downstream activations may carry
    lineage-hash keys rather than the input tuple's key; the
    ``hdependency`` edges the dataflow core records let us walk any
    activation key up its spawn chain to the root. Semantic keys (the
    ``<ligand>_<receptor>`` convention, explicit ``key`` fields) are
    self-edges in that table and resolve to themselves, which also keeps
    provenance from runs predating the dependency table analyzable.

    Returns ``root(key) -> str | None``; ``None`` means the key fans in
    from multiple inputs (a REDUCE activation) and classifies no single
    input tuple.
    """
    rows = store.sql(
        "SELECT DISTINCT child_key, parent_key FROM hdependency"
        " WHERE wkfid = ?",
        (wkfid,),
    )
    parents: dict[str, set[str]] = {}
    for r in rows:
        if r["parent_key"] != r["child_key"]:
            parents.setdefault(r["child_key"], set()).add(r["parent_key"])

    def root(key: str) -> str | None:
        seen = {key}
        while True:
            up = parents.get(key)
            if not up:
                return key
            if len(up) > 1:
                return None
            (key,) = up
            if key in seen:  # defensive: malformed cycle
                return key
            seen.add(key)

    return root


def analyze_run(
    store: ProvenanceStore,
    wkfid: int,
    workflow: Workflow,
    relation: Relation,
) -> RecoveryPlan:
    """Classify every input tuple of a prior run by its recovery need.

    A tuple is *complete* when the final activity has a FINISHED
    activation for its key; *failed* when some activation for its key
    ended FAILED without a later FINISHED of the same activity;
    *aborted*/*blocked* when the looping machinery stopped it; *missing*
    when no terminal record exists at all (crash mid-run). ABORTED rows
    whose error message marks a wall-clock watchdog timeout are split
    out as *timeout* keys: real timeouts can happen to any activity on a
    bad day and are worth one more try, whereas predicate aborts
    (looping-state inputs) would just abort again. Straggler
    speculation leaves two kinds of rows that are *not* real work lost
    and classify nothing: non-FINISHED ``speculative`` duplicates, and
    ABORTED rows whose errormsg carries the speculation-loss marker
    (a superseded primary) — both mean the twin attempt finished the
    tuple.
    """
    last_tag = workflow.activities[-1].tag
    rows = store.sql(
        """
        SELECT a.tag, t.tuple_key, t.status, t.attempt, t.errormsg,
               t.speculative
        FROM hactivation t JOIN hactivity a ON t.actid = a.actid
        WHERE a.wkfid = ?
        ORDER BY t.taskid
        """,
        (wkfid,),
    )
    root_of = _lineage_root_resolver(store, wkfid)
    finished_last: set[str] = set()
    # (tag, key) -> last seen status wins (retries overwrite failures).
    final_status: dict[tuple[str, str], str] = {}
    # Watchdog-timeout marks are keyed per (tag, key), exactly like
    # final_status: a predicate ABORT by one activity must not discard
    # a timeout mark left by a *different* activity on the same key
    # (cross-activity clobbering misclassified rerunnable timeouts).
    timeout_marked: set[tuple[str, str]] = set()
    for r in rows:
        if r["speculative"] and r["status"] != "FINISHED":
            # A duplicate that lost (or died): the primary's record is
            # the tuple's truth.
            continue
        errormsg = r["errormsg"] or ""
        if r["status"] == "ABORTED" and errormsg.startswith(
            SPECULATION_ERRMSG_PREFIX
        ):
            # A primary superseded by its winning duplicate.
            continue
        key = root_of(r["tuple_key"])
        if key is None:
            # REDUCE fan-in: classifies no single input tuple.
            continue
        final_status[(r["tag"], key)] = r["status"]
        if r["status"] == "ABORTED":
            errormsg = r["errormsg"] or ""
            if errormsg.startswith(WATCHDOG_ERRMSG_PREFIX):
                timeout_marked.add((r["tag"], key))
            else:
                timeout_marked.discard((r["tag"], key))
        if r["tag"] == last_tag and r["status"] == "FINISHED":
            finished_last.add(key)

    all_keys = {tuple_key(t, i) for i, t in enumerate(relation)}
    failed: set[str] = set()
    aborted: set[str] = set()
    blocked: set[str] = set()
    for (tag, key), status in final_status.items():
        if key not in all_keys:
            continue
        if status == "FAILED":
            failed.add(key)
        elif status == "ABORTED":
            aborted.add(key)
        elif status == "BLOCKED":
            blocked.add(key)
    completed = finished_last & all_keys
    terminalized = completed | failed | aborted | blocked
    missing = all_keys - terminalized
    # A key can appear in several sets (e.g. failed early, finished after
    # retry); completion wins, then abort/block, then failure.
    failed -= completed | aborted | blocked
    # A timeout mark only counts while that same activity's final word
    # on the key is still the watchdog ABORT (a later FINISHED retry of
    # the activity clears it; another activity's abort does not).
    timeout_keys = {
        key
        for (tag, key) in timeout_marked
        if final_status.get((tag, key)) == "ABORTED"
    }
    timeouts = (timeout_keys & aborted) - completed - blocked
    return RecoveryPlan(
        wkfid=wkfid,
        completed_keys=completed,
        failed_keys=failed,
        aborted_keys=aborted,
        blocked_keys=blocked,
        missing_keys=missing,
        timeout_keys=timeouts,
    )


def resume_failed(
    store: ProvenanceStore,
    wkfid: int,
    workflow: Workflow,
    relation: Relation,
    engine: LocalEngine | None = None,
    context: dict | None = None,
    *,
    engine_factory: Callable[[ProvenanceStore], LocalEngine] | None = None,
) -> tuple[ExecutionReport | None, RecoveryPlan]:
    """Re-run only the tuples a prior run left unfinished.

    Returns ``(report, plan)``; ``report`` is ``None`` when nothing
    needed re-execution. The resumed work runs as a new workflow
    execution in the same store, so provenance keeps the full history.

    Pass the original run's ``engine``, or an ``engine_factory`` that
    rebuilds one (backend, worker count, retry/watchdog policies) from
    the store — a resume that silently downgrades to a default engine
    re-runs recovered work under different fault-tolerance semantics
    than the run that produced the failures.

    Likewise for the run *context*: with ``context=None``, the original
    run's journaled context (grid spacing, engine parameters,
    fault-injection setup — see
    :func:`repro.workflow.journal.recover_context`) is recovered from
    provenance, so resumed attempts execute under the same
    configuration that produced the failures instead of silently
    falling back to defaults. Pre-journal runs have nothing to recover
    and keep the historical ``None``.
    """
    if engine is not None and engine_factory is not None:
        raise ValueError("pass engine or engine_factory, not both")
    if context is None:
        context = recover_context(store, wkfid)
    plan = analyze_run(store, wkfid, workflow, relation)
    if not plan.keys_to_rerun:
        return None, plan
    rerun = Relation(f"{relation.name}:resume")
    for i, tup in enumerate(relation):
        if tuple_key(tup, i) in plan.keys_to_rerun:
            rerun.append(dict(tup))
    if engine is None:
        engine = engine_factory(store) if engine_factory else LocalEngine(store)
    report = engine.run(workflow, rerun, context=context)
    return report, plan
