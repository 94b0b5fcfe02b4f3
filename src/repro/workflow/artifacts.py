"""Cross-process receptor-artifact plane: shared grid maps for all workers.

The screening workload (238 receptors x 42 ligands in the paper) builds
every receptor's AutoGrid/Vina maps once and reuses them across all of
that receptor's ligand pairings. The process backend used to lose that
property: each spawn worker rebuilt receptor maps privately, multiplying
both work and grid memory by the worker count. This module restores it
with three cooperating tiers:

1. **Shared-memory segments** — map bundles are published into
   ``multiprocessing.shared_memory`` blocks, one segment per artifact.
   The first builder wins under a cross-process file lock; every other
   worker attaches a zero-copy read-only numpy view. Segment names are
   recorded in a scratch-directory registry *before* creation, so the
   engine can unlink every segment at run end even if the worker that
   created one crashed mid-publish.
2. **A content-addressed on-disk cache** (:class:`DiskMapCache`) —
   bundles keyed by receptor-content hash + grid parameters + forcefield
   version, so repeated runs skip AutoGrid entirely.
3. **Per-run worker state** (:func:`run_state`) — the per-process
   registry the activities key their build-once caches on, with an
   explicit :func:`drop_run_state` hook the engine broadcasts at run end
   so long-lived worker pools never accumulate dead runs' artifacts.

Artifacts move through the plane as ``(meta, arrays)`` bundles: a small
JSON-safe dict plus named float arrays. The docking modules own the
conversions (``grid_maps_to_arrays`` / ``vina_maps_to_arrays`` and their
inverses); the plane is agnostic to what the arrays mean.

Every event (build, shared-memory hit, disk hit) is appended to a
JSONL log in the scratch directory; the engine aggregates it into
``ExecutionReport.artifact_stats`` so redundant-build regressions are
visible in benchmarks, not just wall-clock.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Iterator

import numpy as np

try:  # POSIX cross-process locks; a thread lock stands in elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Segment offsets are aligned so every array view starts on a cache line.
_ALIGNMENT = 64


class ArtifactPlaneError(RuntimeError):
    """Raised for unusable plane or cache state."""


@dataclass(frozen=True)
class PlaneHandle:
    """Picklable address of a plane: everything a worker needs to attach."""

    scratch_dir: str
    run_id: str
    map_cache_dir: str | None = None
    #: ``(host, port)`` of a director-served artifact exchange: disk-cache
    #: misses try a network fetch before falling back to a local build.
    exchange: tuple | None = None


# -- cross-process locking ---------------------------------------------------

_FALLBACK_LOCKS: dict[str, threading.Lock] = {}
_FALLBACK_GUARD = threading.Lock()


@contextmanager
def _file_lock(path: str) -> Iterator[None]:
    """Exclusive advisory lock on ``path`` (cross-process via flock)."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        with _FALLBACK_GUARD:
            lock = _FALLBACK_LOCKS.setdefault(path, threading.Lock())
        with lock:
            yield
        return
    with open(path, "a+") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Withdraw a segment from this process's resource tracker.

    ``SharedMemory.__init__`` registers the name on *every* init (create
    and attach alike), and the tracker unlinks registered names when the
    process tree winds down. The engine's plane is the sole unlink owner,
    so both creators and attachers must unregister.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(getattr(shm, "_name", shm.name), "shared_memory")
    except Exception:  # pragma: no cover - platform-dependent tracker layout
        pass


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _segment_layout(arrays: dict[str, np.ndarray]) -> tuple[list[dict], int]:
    """Aligned offsets for packing named arrays into one flat buffer."""
    layout: list[dict] = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        layout.append(
            {
                "name": name,
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "offset": offset,
            }
        )
        offset += -(-arr.nbytes // _ALIGNMENT) * _ALIGNMENT
    return layout, max(offset, _ALIGNMENT)


class DiskMapCache:
    """Content-addressed on-disk cache of ``(meta, arrays)`` bundles.

    One ``.npz`` per artifact, written atomically (temp + rename) with
    the meta dict embedded as a JSON string, so concurrent writers from
    any number of processes can never expose a torn entry. Unreadable
    entries are treated as misses and rebuilt.

    With a ``fetch`` callable (``fetch(kind, key) -> bytes | None`` —
    see :func:`repro.workflow.messaging.fetch_artifact`), a local miss
    tries the content-addressed artifact exchange before reporting a
    miss: the fetched bundle bytes are written atomically into this
    cache, so a worker node pays the network cost once per artifact and
    every later lookup is a plain disk hit. Any fetch failure degrades
    to a miss (the caller builds locally).
    """

    def __init__(self, root: str, fetch=None) -> None:
        self.root = root
        self.fetch = fetch
        #: Exchange-fetch accounting (per process; workers report these
        #: back to the director in their NODE_STATS frame).
        self.fetches = 0
        self.fetch_bytes = 0
        os.makedirs(root, exist_ok=True)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{key}.npz")

    def _fetch_into_cache(self, kind: str, key: str) -> bool:
        """Pull a bundle off the exchange into the local cache."""
        if self.fetch is None:
            return False
        try:
            blob = self.fetch(kind, key)
        except Exception:  # pragma: no cover - exchange failure is a miss
            blob = None
        if not blob:
            return False
        path = self._path(kind, key)
        tmp = f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex[:6]}.npz"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        self.fetches += 1
        self.fetch_bytes += len(blob)
        return True

    def blob(self, kind: str, key: str) -> bytes | None:
        """Raw bundle bytes for serving over the exchange (None = miss)."""
        try:
            with open(self._path(kind, key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def load(self, kind: str, key: str) -> tuple[dict, dict[str, np.ndarray]] | None:
        path = self._path(kind, key)
        if not os.path.exists(path) and not self._fetch_into_cache(kind, key):
            return None
        try:
            with np.load(path, allow_pickle=False) as bundle:
                meta = json.loads(str(bundle["__meta__"][()]))
                arrays = {n: bundle[n] for n in bundle.files if n != "__meta__"}
        except Exception:  # torn/corrupt entry: a miss, not an error
            return None
        return meta, arrays

    def save(self, kind: str, key: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        path = self._path(kind, key)
        tmp = f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex[:6]}.npz"
        np.savez(tmp, __meta__=np.array(json.dumps(meta)), **arrays)
        os.replace(tmp, path)

    def get_or_build(
        self,
        kind: str,
        key: str,
        build: Callable[[], tuple[dict, dict[str, np.ndarray]]],
        label: str = "",
    ) -> tuple[dict, dict[str, np.ndarray], str]:
        """Load a bundle or build-and-save it; first builder wins.

        Returns ``(meta, arrays, source)`` with source ``"disk"`` or
        ``"built"``. ``label`` exists for interface parity with
        :meth:`ArtifactPlane.get_or_build`.
        """
        hit = self.load(kind, key)
        if hit is not None:
            return hit[0], hit[1], "disk"
        with _file_lock(self._path(kind, key) + ".lock"):
            hit = self.load(kind, key)
            if hit is not None:
                return hit[0], hit[1], "disk"
            meta, arrays = build()
            self.save(kind, key, meta, arrays)
            return meta, arrays, "built"


class ArtifactPlane:
    """One run's shared receptor-artifact plane.

    The engine :meth:`create`\\ s the plane (becoming the owner of every
    shared-memory segment published into it) and ships the picklable
    :class:`PlaneHandle` to workers inside the run context; workers
    :meth:`attach`. ``get_or_build`` resolves an artifact through the
    tiers — attached segment, then (under the per-artifact cross-process
    lock) the disk cache, then the builder — and always hands back
    zero-copy read-only views when a segment exists.
    """

    def __init__(self, handle: PlaneHandle, owner: bool = False) -> None:
        self.handle = handle
        self.owner = owner
        fetch = None
        if handle.exchange is not None and handle.map_cache_dir:
            from functools import partial

            from repro.workflow.messaging import fetch_artifact

            fetch = partial(fetch_artifact, tuple(handle.exchange))
        self.disk = (
            DiskMapCache(handle.map_cache_dir, fetch=fetch)
            if handle.map_cache_dir
            else None
        )
        self._attached: dict[tuple[str, str], shared_memory.SharedMemory] = {}
        self._guard = threading.Lock()

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls,
        run_id: str | None = None,
        scratch_root: str | None = None,
        map_cache_dir: str | None = None,
        exchange: tuple | None = None,
    ) -> "ArtifactPlane":
        run_id = run_id or uuid.uuid4().hex
        scratch = tempfile.mkdtemp(
            prefix=f"repro-plane-{run_id[:8]}-", dir=scratch_root
        )
        return cls(
            PlaneHandle(scratch, run_id, map_cache_dir, exchange),
            owner=True,
        )

    @classmethod
    def attach(cls, handle: PlaneHandle) -> "ArtifactPlane":
        return cls(handle)

    # -- scratch-layout helpers ----------------------------------------------
    def _sidecar(self, kind: str, key: str) -> str:
        return os.path.join(self.handle.scratch_dir, f"{kind}-{key}.json")

    def _lockfile(self, kind: str, key: str) -> str:
        return os.path.join(self.handle.scratch_dir, f"{kind}-{key}.lock")

    def _segments_file(self) -> str:
        return os.path.join(self.handle.scratch_dir, "segments.txt")

    def _events_file(self) -> str:
        return os.path.join(self.handle.scratch_dir, "events.jsonl")

    def _segment_name(self, kind: str, key: str) -> str:
        return f"rp{self.handle.run_id[:8]}-{kind}-{key[:16]}"

    def _record_segment(self, name: str) -> None:
        """Register a segment name *before* creating it (crash safety)."""
        with _file_lock(self._segments_file() + ".lock"):
            with open(self._segments_file(), "a") as fh:
                fh.write(name + "\n")

    def segment_names(self) -> list[str]:
        try:
            with open(self._segments_file()) as fh:
                return [line.strip() for line in fh if line.strip()]
        except FileNotFoundError:
            return []

    def _log_event(self, kind: str, key: str, label: str, event: str) -> None:
        record = {
            "kind": kind,
            "key": key[:16],
            "label": label,
            "event": event,
            "pid": os.getpid(),
        }
        # O_APPEND single-line writes interleave atomically across processes.
        with open(self._events_file(), "a") as fh:
            fh.write(json.dumps(record) + "\n")

    # -- publish / attach ----------------------------------------------------
    def _publish(self, kind: str, key: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        layout, size = _segment_layout(arrays)
        name = self._segment_name(kind, key)
        self._record_segment(name)
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            return  # another builder won the race outside our lock scope
        _untrack(shm)
        try:
            for entry, arr in zip(layout, arrays.values()):
                arr = np.ascontiguousarray(arr)
                view = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=entry["offset"]
                )
                view[...] = arr
                del view
        finally:
            shm.close()
        _atomic_write_text(
            self._sidecar(kind, key),
            json.dumps({"shm": name, "layout": layout, "meta": meta}),
        )

    def _attach_bundle(
        self, kind: str, key: str
    ) -> tuple[dict, dict[str, np.ndarray]] | None:
        sidecar = self._sidecar(kind, key)
        try:
            with open(sidecar) as fh:
                doc = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        with self._guard:
            shm = self._attached.get((kind, key))
            if shm is None:
                try:
                    shm = shared_memory.SharedMemory(name=doc["shm"])
                except FileNotFoundError:
                    return None
                _untrack(shm)
                self._attached[(kind, key)] = shm
        arrays: dict[str, np.ndarray] = {}
        for entry in doc["layout"]:
            view = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=shm.buf,
                offset=entry["offset"],
            )
            view.flags.writeable = False
            arrays[entry["name"]] = view
        return doc["meta"], arrays

    def get_or_build(
        self,
        kind: str,
        key: str,
        build: Callable[[], tuple[dict, dict[str, np.ndarray]]],
        label: str = "",
    ) -> tuple[dict, dict[str, np.ndarray], str]:
        """Resolve one artifact through shm -> disk cache -> builder.

        Returns ``(meta, arrays, source)`` with source one of ``"shm"``,
        ``"disk"``, ``"built"``. The arrays are read-only shared views
        whenever a segment backs them.
        """
        got = self._attach_bundle(kind, key)
        if got is not None:
            self._log_event(kind, key, label, "hit_shm")
            return got[0], got[1], "shm"
        with _file_lock(self._lockfile(kind, key)):
            got = self._attach_bundle(kind, key)
            if got is not None:
                self._log_event(kind, key, label, "hit_shm")
                return got[0], got[1], "shm"
            if self.disk is not None:
                hit = self.disk.load(kind, key)
                if hit is not None:
                    self._publish(kind, key, hit[0], hit[1])
                    self._log_event(kind, key, label, "hit_disk")
                    got = self._attach_bundle(kind, key)
                    if got is not None:
                        return got[0], got[1], "disk"
                    return hit[0], hit[1], "disk"
            meta, arrays = build()
            self._log_event(kind, key, label, "build")
            self._publish(kind, key, meta, arrays)
            if self.disk is not None:
                self.disk.save(kind, key, meta, arrays)
        got = self._attach_bundle(kind, key)
        if got is not None:
            return got[0], got[1], "built"
        return meta, arrays, "built"

    # -- accounting ----------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate the event log into the run's artifact statistics."""
        builds = shm_hits = disk_hits = 0
        builds_by_artifact: dict[str, int] = {}
        try:
            with open(self._events_file()) as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if rec["event"] == "build":
                        builds += 1
                        tag = f"{rec['kind']}:{rec.get('label') or rec['key']}"
                        builds_by_artifact[tag] = builds_by_artifact.get(tag, 0) + 1
                    elif rec["event"] == "hit_shm":
                        shm_hits += 1
                    elif rec["event"] == "hit_disk":
                        disk_hits += 1
        except FileNotFoundError:
            pass
        requests = builds + shm_hits + disk_hits
        return {
            "run_id": self.handle.run_id,
            "scratch_dir": self.handle.scratch_dir,
            "builds": builds,
            "shm_hits": shm_hits,
            "disk_hits": disk_hits,
            "exchange_fetches": self.disk.fetches if self.disk else 0,
            "exchange_bytes": self.disk.fetch_bytes if self.disk else 0,
            "requests": requests,
            "hit_rate": round((shm_hits + disk_hits) / requests, 3) if requests else 0.0,
            "builds_by_artifact": builds_by_artifact,
            "segments": self.segment_names(),
        }

    # -- lifecycle -----------------------------------------------------------
    def release(self) -> None:
        """Close this process's attached segment handles (views permitting)."""
        with self._guard:
            for shm in self._attached.values():
                try:
                    shm.close()
                except BufferError:
                    # Live numpy views still export the buffer; the OS
                    # reclaims the mapping at process exit instead.
                    pass
            self._attached.clear()

    def destroy(self) -> dict:
        """Owner teardown: unlink every segment, remove scratch, return stats.

        Safe against worker crashes — the registry records names before
        segments exist, so nothing can leak into ``/dev/shm``.
        """
        if not self.owner:
            raise ArtifactPlaneError("only the creating engine may destroy a plane")
        final = self.stats()
        self.release()
        for name in final["segments"]:
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            try:
                seg.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            # No _untrack here: unlink() itself unregisters the name,
            # balancing the register this attach performed.
            seg.unlink()
        shutil.rmtree(self.handle.scratch_dir, ignore_errors=True)
        return final


# -- per-process plane registry ---------------------------------------------

#: Attached planes by scratch dir, so every activation in a worker process
#: shares one set of open segment handles.
_ATTACHED_PLANES: dict[str, ArtifactPlane] = {}
_ATTACHED_GUARD = threading.Lock()


def attach_cached(handle: PlaneHandle) -> ArtifactPlane:
    """Attach to a plane, reusing this process's existing attachment."""
    with _ATTACHED_GUARD:
        plane = _ATTACHED_PLANES.get(handle.scratch_dir)
        if plane is None:
            plane = _ATTACHED_PLANES[handle.scratch_dir] = ArtifactPlane.attach(handle)
        return plane


def release_cached(scratch_dir: str) -> bool:
    """Drop and close this process's attachment to a plane, if any."""
    with _ATTACHED_GUARD:
        plane = _ATTACHED_PLANES.pop(scratch_dir, None)
    if plane is None:
        return False
    plane.release()
    return True


# -- per-run worker-side state ----------------------------------------------

#: Worker-side per-run state, keyed by the engine run's cache token.
#: Process-backend workers receive a fresh context dict per activation,
#: so ``context.setdefault`` cannot carry artifacts across activations —
#: this registry does, once per (worker process, engine run). Tokens are
#: unique per run, so runs with different grid spacing or preparation
#: settings never see each other's receptors or maps.
_RUN_STATE: dict[str, dict] = {}
_RUN_STATE_GUARD = threading.Lock()


def run_state(token: str) -> dict:
    """The per-run mutable state dict for this process."""
    with _RUN_STATE_GUARD:
        state = _RUN_STATE.get(token)
        if state is None:
            state = _RUN_STATE[token] = {}
        return state


def drop_run_state(token: str | None, scratch_dir: str | None = None) -> bool:
    """End-of-run worker cleanup the engine broadcasts to every worker.

    Drops the token's state entry (receptor/ligand caches, attached map
    objects) and releases the plane attachment for ``scratch_dir``, so a
    long-lived worker pool never accumulates dead runs' artifacts.
    Returns True when a state entry existed.
    """
    with _RUN_STATE_GUARD:
        dropped = _RUN_STATE.pop(token, None) is not None if token else False
    if scratch_dir:
        release_cached(scratch_dir)
    return dropped
