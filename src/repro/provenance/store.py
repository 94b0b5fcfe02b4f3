"""The provenance store API used by the workflow engine and analyses.

One store per experiment (in-memory by default, file-backed on request).
All writes go through typed helpers; reads can use the helpers in
:mod:`repro.provenance.queries` or raw SQL via :meth:`ProvenanceStore.sql`
— the paper stresses that scientists submit *high level database
analytical queries* directly.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from enum import Enum
from pathlib import Path

from repro.provenance.schema import SCHEMA_DDL


class ActivationStatus(str, Enum):
    READY = "READY"
    RUNNING = "RUNNING"
    FINISHED = "FINISHED"
    FAILED = "FAILED"
    ABORTED = "ABORTED"  # looping-state kills
    BLOCKED = "BLOCKED"  # aborted pre-dispatch (e.g. Hg routine)


#: Column order of the batched hactivation INSERT.
_ACTIVATION_COLS = (
    "taskid", "actid", "tuple_key", "starttime", "endtime", "status",
    "exitstatus", "errormsg", "vm_id", "core_index", "workdir", "attempt",
    "speculative",
)

#: Values of the optional hactivation columns a new row leaves unset.
_ACTIVATION_DEFAULTS = {
    "endtime": None,
    "status": ActivationStatus.RUNNING.value,
    "exitstatus": 0,
    "errormsg": "",
    "vm_id": "",
    "core_index": -1,
    "workdir": "",
    "attempt": 0,
    "speculative": 0,
}


class ProvenanceStore:
    """SQLite-backed PROV-Wf repository.

    Locking contract: ``self._lock`` serializes every database touch
    (and therefore every flush, in order); ``self._buf_lock`` guards the
    write buffers and id counters, and is only ever taken *inside*
    ``self._lock`` or alone. A flush swaps the buffers out under
    ``_buf_lock`` and writes them under ``_lock`` only, so threads
    appending records never wait for SQLite. The connection is opened
    with ``check_same_thread=False`` so the engine's bookkeeping threads
    may call in concurrently; any new method must follow the same
    contract (or route through the ``_execute``/``sql``/:meth:`flush`
    helpers, which do).

    Write batching: per-activation records (activation begin/end, file
    and extract rows) dominate write volume at thousands of pairs. With
    ``buffer_size > 1`` those records accumulate in memory and land in
    SQLite as ``executemany`` batches under a single commit — either
    when ``buffer_size`` records are pending, when ``flush_interval``
    seconds have passed since the last flush, on any read
    (:meth:`sql` flushes first, so runtime steering queries always see
    current state), on explicit :meth:`flush`, or on :meth:`close`.
    Row ids are pre-assigned from per-table counters so
    :meth:`begin_activation` can hand out task ids without touching the
    database. The default ``buffer_size=1`` keeps the historical
    write-through behavior.

    Durability has one rule: a run-journal event recorded with
    ``barrier=True`` flushes, and every flush drains all buffers under
    one commit. An attempt's row therefore commits with the terminal
    journal event (completed/failed/aborted/blocked) that follows it,
    and a reader in another process sees it from that barrier on.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        buffer_size: int = 1,
        flush_interval: float | None = None,
    ) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if flush_interval is not None and flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        self._conn = sqlite3.connect(
            str(path) if path else ":memory:", check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.Lock()
        self._buf_lock = threading.Lock()
        self.buffer_size = buffer_size
        self.flush_interval = flush_interval
        #: RUNNING rows not yet flushed, by taskid — end_activation
        #: mutates these in place so begin+end usually costs one INSERT.
        self._pending_activations: dict[int, dict] = {}
        #: Ordered taskids of _pending_activations (insertion order).
        self._pending_order: list[int] = []
        #: UPDATE tuples for activations that were already flushed.
        self._pending_ends: list[tuple] = []
        self._pending_files: list[tuple] = []
        self._pending_extracts: list[tuple] = []
        self._pending_deps: list[tuple] = []
        self._pending_journal: list[tuple] = []
        self._last_flush = time.monotonic()
        with self._lock:
            self._conn.executescript(SCHEMA_DDL)
            # Migrate pre-speculation databases in place: CREATE IF NOT
            # EXISTS leaves an existing hactivation without the
            # ``speculative`` column, which the batched INSERT needs.
            cols = {
                row[1]
                for row in self._conn.execute("PRAGMA table_info(hactivation)")
            }
            if "speculative" not in cols:
                self._conn.execute(
                    "ALTER TABLE hactivation"
                    " ADD COLUMN speculative INTEGER DEFAULT 0"
                )
            if path is not None:
                # File-backed stores take the WAL path the paper's MySQL
                # instance effectively had (group commit): readers don't
                # block the writer and fsync happens per batch, not per row.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.commit()
            self._next_taskid = self._max_id_locked("hactivation", "taskid") + 1
            self._next_fileid = self._max_id_locked("hfile", "fileid") + 1
            self._next_extractid = self._max_id_locked("hextract", "extractid") + 1
            self._next_depid = self._max_id_locked("hdependency", "depid") + 1
            self._next_journalid = self._max_id_locked("hjournal", "eventid") + 1

    def _max_id_locked(self, table: str, col: str) -> int:
        row = self._conn.execute(f"SELECT COALESCE(MAX({col}), 0) FROM {table}")
        return int(row.fetchone()[0])

    # -- write plumbing ------------------------------------------------------
    def _execute(self, query: str, params: tuple = ()) -> sqlite3.Cursor:
        """Serialized write-through entry point (thread-safe)."""
        with self._lock:
            cur = self._conn.execute(query, params)
            self._conn.commit()
            return cur

    @property
    def _pending_count(self) -> int:
        return (
            len(self._pending_order)
            + len(self._pending_ends)
            + len(self._pending_files)
            + len(self._pending_extracts)
            + len(self._pending_deps)
            + len(self._pending_journal)
        )

    def _flush_due_buffered(self) -> bool:
        """Whether the buffers should be flushed (``_buf_lock`` held)."""
        return self._pending_count >= self.buffer_size or (
            self.flush_interval is not None
            and time.monotonic() - self._last_flush >= self.flush_interval
        )

    def _flush_locked(self) -> None:
        """Drain every buffer as executemany batches under one commit.

        Called with ``_lock`` held, so flushes write in the order they
        swapped their buffers out: an UPDATE queued after its row was
        swapped out lands in a later batch than the row's INSERT.
        """
        with self._buf_lock:
            order, acts = self._pending_order, self._pending_activations
            ends, files = self._pending_ends, self._pending_files
            extracts, deps = self._pending_extracts, self._pending_deps
            journal = self._pending_journal
            self._pending_order, self._pending_activations = [], {}
            self._pending_ends, self._pending_files = [], []
            self._pending_extracts, self._pending_deps = [], []
            self._pending_journal = []
            self._last_flush = time.monotonic()
        if order:
            self._conn.executemany(
                "INSERT INTO hactivation"
                f" ({', '.join(_ACTIVATION_COLS)})"
                f" VALUES ({', '.join('?' * len(_ACTIVATION_COLS))})",
                [
                    tuple(acts[tid][c] for c in _ACTIVATION_COLS)
                    for tid in order
                ],
            )
        if ends:
            self._conn.executemany(
                "UPDATE hactivation SET endtime = ?, status = ?, exitstatus = ?,"
                " errormsg = ? WHERE taskid = ?",
                ends,
            )
        if files:
            self._conn.executemany(
                "INSERT INTO hfile (fileid, taskid, fname, fsize, fdir,"
                " direction) VALUES (?, ?, ?, ?, ?, ?)",
                files,
            )
        if extracts:
            self._conn.executemany(
                "INSERT INTO hextract (extractid, taskid, key, value)"
                " VALUES (?, ?, ?, ?)",
                extracts,
            )
        if deps:
            self._conn.executemany(
                "INSERT INTO hdependency (depid, wkfid, child_key,"
                " child_actid, parent_key, parent_actid)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                deps,
            )
        if journal:
            self._conn.executemany(
                "INSERT INTO hjournal (eventid, wkfid, seq, event, stage,"
                " tuple_key, ts, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                journal,
            )
        if order or ends or files or extracts or deps or journal:
            self._conn.commit()

    def flush(self) -> None:
        """Push every buffered provenance record into SQLite and commit."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            self._conn.close()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- workflow lifecycle -------------------------------------------------
    def begin_workflow(
        self,
        tag: str,
        description: str = "",
        exectag: str = "",
        expdir: str = "",
        starttime: float = 0.0,
    ) -> int:
        cur = self._execute(
            "INSERT INTO hworkflow (tag, description, exectag, expdir, starttime)"
            " VALUES (?, ?, ?, ?, ?)",
            (tag, description, exectag, expdir, starttime),
        )
        return int(cur.lastrowid)

    def end_workflow(self, wkfid: int, endtime: float) -> None:
        self._execute(
            "UPDATE hworkflow SET endtime = ? WHERE wkfid = ?", (endtime, wkfid)
        )

    def register_activity(
        self,
        wkfid: int,
        tag: str,
        description: str = "",
        templatedir: str = "",
        activation: str = "",
        optype: str = "MAP",
    ) -> int:
        cur = self._execute(
            "INSERT INTO hactivity (wkfid, tag, description, templatedir,"
            " activation, optype) VALUES (?, ?, ?, ?, ?, ?)",
            (wkfid, tag, description, templatedir, activation, optype),
        )
        return int(cur.lastrowid)

    # -- activation lifecycle -------------------------------------------------
    def _buffer_activation(self, fields: dict) -> int:
        """Queue one hactivation row (unset columns take their defaults;
        ``_buf_lock`` held)."""
        taskid = self._next_taskid
        self._next_taskid += 1
        row = {**_ACTIVATION_DEFAULTS, **fields, "taskid": taskid}
        self._pending_activations[taskid] = row
        self._pending_order.append(taskid)
        return taskid

    def begin_activation(
        self,
        actid: int,
        tuple_key: str,
        starttime: float,
        vm_id: str = "",
        core_index: int = -1,
        workdir: str = "",
        attempt: int = 0,
        speculative: bool = False,
    ) -> int:
        with self._buf_lock:
            taskid = self._buffer_activation({
                "actid": actid,
                "tuple_key": tuple_key,
                "starttime": starttime,
                "vm_id": vm_id,
                "core_index": core_index,
                "workdir": workdir,
                "attempt": attempt,
                "speculative": 1 if speculative else 0,
            })
            due = self._flush_due_buffered()
        if due:
            self.flush()
        return taskid

    def end_activation(
        self,
        taskid: int,
        endtime: float,
        status: ActivationStatus = ActivationStatus.FINISHED,
        exitstatus: int = 0,
        errormsg: str = "",
    ) -> None:
        with self._buf_lock:
            pending = self._pending_activations.get(taskid)
            if pending is not None:
                # Row never hit the database: complete it in place so the
                # whole lifecycle costs a single batched INSERT.
                pending.update(
                    endtime=endtime,
                    status=status.value,
                    exitstatus=exitstatus,
                    errormsg=errormsg,
                )
            else:
                self._pending_ends.append(
                    (endtime, status.value, exitstatus, errormsg, taskid)
                )
            due = self._flush_due_buffered()
        if due:
            self.flush()

    def record_blocked(
        self, actid: int, tuple_key: str, when: float, reason: str
    ) -> int:
        """An activation aborted before dispatch (paper's Hg routine)."""
        with self._buf_lock:
            taskid = self._buffer_activation({
                "actid": actid,
                "tuple_key": tuple_key,
                "starttime": when,
                "endtime": when,
                "status": ActivationStatus.BLOCKED.value,
                "errormsg": reason,
            })
            due = self._flush_due_buffered()
        if due:
            self.flush()
        return taskid

    # -- artifacts -------------------------------------------------------------
    def record_file(
        self,
        taskid: int,
        fname: str,
        fsize: int,
        fdir: str,
        direction: str = "OUTPUT",
    ) -> int:
        with self._buf_lock:
            fileid = self._next_fileid
            self._next_fileid += 1
            self._pending_files.append(
                (fileid, taskid, fname, fsize, fdir, direction)
            )
            due = self._flush_due_buffered()
        if due:
            self.flush()
        return fileid

    def record_extract(self, taskid: int, key: str, value: object) -> int:
        """Domain data pulled out of produced files by extractor components."""
        with self._buf_lock:
            extractid = self._next_extractid
            self._next_extractid += 1
            self._pending_extracts.append((extractid, taskid, key, str(value)))
            due = self._flush_due_buffered()
        if due:
            self.flush()
        return extractid

    def record_dependency(
        self,
        wkfid: int,
        child_key: str,
        child_actid: int,
        parent_key: str,
        parent_actid: int,
    ) -> int:
        """One activation-dependency edge: parent tuple spawned child tuple.

        Recorded by the dataflow core at spawn time so lineage queries
        can reconstruct each output tuple's full activation chain even
        under pipelined (non-lockstep) execution.
        """
        with self._buf_lock:
            depid = self._next_depid
            self._next_depid += 1
            self._pending_deps.append(
                (depid, wkfid, child_key, child_actid, parent_key, parent_actid)
            )
            due = self._flush_due_buffered()
        if due:
            self.flush()
        return depid

    def record_extracts(self, taskid: int, items: dict) -> None:
        with self._buf_lock:
            for k, v in items.items():
                extractid = self._next_extractid
                self._next_extractid += 1
                self._pending_extracts.append((extractid, taskid, k, str(v)))
            due = self._flush_due_buffered()
        if due:
            self.flush()

    # -- run journal -----------------------------------------------------------
    def record_journal_event(
        self,
        wkfid: int,
        seq: int,
        event: str,
        stage: int = -1,
        tuple_key: str = "",
        ts: float = 0.0,
        payload: bytes | None = None,
        *,
        barrier: bool = False,
        activation: dict | None = None,
    ) -> int:
        """Append one run-journal event (see :mod:`repro.workflow.journal`).

        Events ride the same batched write path as activation rows;
        ``barrier=True`` flushes every buffer synchronously, so terminal
        events (completed/failed/aborted/blocked/run-finished) are
        durable before the coordinator acts on them — the crash-resume
        guarantee.

        ``activation`` holds the columns of an ``hactivation`` row (as
        :meth:`begin_activation` takes them; unset ones default) to
        queue together with the event, so both land in the same flush.
        The call then returns that row's task id; otherwise it returns
        the event id.
        """
        with self._buf_lock:
            eventid = self._next_journalid
            self._next_journalid += 1
            taskid = None
            if activation is not None:
                taskid = self._buffer_activation(activation)
            self._pending_journal.append(
                (eventid, wkfid, seq, event, stage, tuple_key, ts, payload)
            )
            due = barrier or self._flush_due_buffered()
        if due:
            # A barrier returns only once this event is committed: by
            # this flush, or by the one holding ``_lock`` that swapped
            # it out first.
            self.flush()
        return eventid if taskid is None else taskid

    def journal_events(self, wkfid: int) -> list[sqlite3.Row]:
        """Every journal event of one run, in sequence order."""
        return self.sql(
            "SELECT * FROM hjournal WHERE wkfid = ? ORDER BY seq", (wkfid,)
        )

    # -- reads -------------------------------------------------------------------
    def sql(self, query: str, params: tuple = ()) -> list[sqlite3.Row]:
        """Run an arbitrary analytical query (read-only by convention).

        Flushes the write buffer first so runtime steering queries always
        observe every record handed to the store so far.
        """
        with self._lock:
            self._flush_locked()
            return self._conn.execute(query, params).fetchall()

    def workflow_row(self, wkfid: int) -> sqlite3.Row:
        rows = self.sql("SELECT * FROM hworkflow WHERE wkfid = ?", (wkfid,))
        if not rows:
            raise KeyError(f"no workflow {wkfid}")
        return rows[0]

    def activations(
        self, wkfid: int, status: ActivationStatus | None = None
    ) -> list[sqlite3.Row]:
        q = (
            "SELECT t.* FROM hactivation t JOIN hactivity a ON t.actid = a.actid"
            " WHERE a.wkfid = ?"
        )
        params: tuple = (wkfid,)
        if status is not None:
            q += " AND t.status = ?"
            params += (status.value,)
        return self.sql(q + " ORDER BY t.taskid", params)

    def failed_activations(self, wkfid: int) -> list[sqlite3.Row]:
        """The paper's recovery query: everything needing re-execution."""
        return self.activations(wkfid, ActivationStatus.FAILED)

    def extracts(self, wkfid: int, key: str) -> list[sqlite3.Row]:
        return self.sql(
            "SELECT t.taskid, t.tuple_key, e.value"
            " FROM hextract e"
            " JOIN hactivation t ON e.taskid = t.taskid"
            " JOIN hactivity a ON t.actid = a.actid"
            " WHERE a.wkfid = ? AND e.key = ? ORDER BY t.taskid",
            (wkfid, key),
        )

    def counts_by_status(self, wkfid: int) -> dict[str, int]:
        rows = self.sql(
            "SELECT t.status, COUNT(*) AS n FROM hactivation t"
            " JOIN hactivity a ON t.actid = a.actid"
            " WHERE a.wkfid = ? GROUP BY t.status",
            (wkfid,),
        )
        return {row["status"]: row["n"] for row in rows}
