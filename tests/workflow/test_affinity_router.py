"""Affinity router: sticky placement, stealing, healing, shutdown."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.workflow.affinity import (
    AffinityRouter,
    RouterError,
    probe_worker,
    sleepy_probe,
)
from repro.workflow.placement import stable_hash


@pytest.fixture(scope="module")
def spawn_ctx():
    return multiprocessing.get_context("spawn")


def test_stable_hash_is_process_independent():
    # sha256-derived, so these values hold in every interpreter.
    assert stable_hash("2HHN") == stable_hash("2HHN")
    assert stable_hash("2HHN") != stable_hash("1S4V")


def test_same_key_lands_on_same_process(spawn_ctx):
    router = AffinityRouter(2, spawn_ctx)
    try:
        pids = [router.submit("2HHN", probe_worker).result() for _ in range(4)]
        assert len(set(pids)) == 1
        assert router.steals == 0
    finally:
        router.shutdown()


def test_distinct_keys_spread_by_hash(spawn_ctx):
    workers = 3
    router = AffinityRouter(workers, spawn_ctx)
    try:
        keys = [f"REC{i}" for i in range(9)]
        pid_by_key = {k: router.submit(k, probe_worker).result() for k in keys}
        home = {k: stable_hash(k) % workers for k in keys}
        # Keys with equal home hash must share a pid (when never stolen;
        # sequential submission keeps every queue drained, so no steals).
        for a in keys:
            for b in keys:
                if home[a] == home[b]:
                    assert pid_by_key[a] == pid_by_key[b]
        assert len(set(pid_by_key.values())) == len(set(home.values()))
    finally:
        router.shutdown()


def test_idle_worker_steals_backlog(spawn_ctx):
    router = AffinityRouter(2, spawn_ctx)
    try:
        # Warm both pools so steal timing is not dominated by spawn cost.
        router.submit(None, probe_worker).result()
        home = "REC-A"
        # Queue several slow tasks for one home worker; the other worker
        # has nothing and must steal part of the backlog.
        futures = [
            router.submit(home, sleepy_probe, 0.3) for _ in range(6)
        ]
        pids = {f.result() for f in futures}
        assert router.steals > 0
        assert len(pids) == 2
    finally:
        router.shutdown()


def test_exception_propagates_not_fatal(spawn_ctx):
    router = AffinityRouter(1, spawn_ctx)
    try:
        with pytest.raises(ZeroDivisionError):
            router.submit("k", divmod, 1, 0).result()
        # The worker survives a plain exception.
        assert isinstance(router.submit("k", probe_worker).result(), int)
    finally:
        router.shutdown()


def test_broken_worker_heals(spawn_ctx):
    router = AffinityRouter(1, spawn_ctx)
    try:
        before = router.submit("k", probe_worker).result()
        with pytest.raises(Exception) as err:
            router.submit("k", os._exit, 17).result()
        assert "process" in str(err.value).lower() or "abruptly" in str(err.value).lower()
        # The dead pool was replaced: the next task runs in a fresh process.
        after = router.submit("k", probe_worker).result()
        assert isinstance(after, int)
        assert after != before
    finally:
        router.shutdown()


def test_broadcast_runs_on_every_worker(spawn_ctx):
    router = AffinityRouter(3, spawn_ctx)
    try:
        pids = router.broadcast(probe_worker)
        assert len(pids) == 3
        assert all(isinstance(p, int) for p in pids)
        assert len(set(pids)) == 3
    finally:
        router.shutdown()


def test_shutdown_rejects_new_work(spawn_ctx):
    router = AffinityRouter(1, spawn_ctx)
    router.shutdown()
    with pytest.raises(RouterError):
        router.submit("k", probe_worker)
    with pytest.raises(RouterError):
        router.broadcast(probe_worker)
    router.shutdown()  # idempotent


def test_resize_grow_adds_live_slots(spawn_ctx):
    router = AffinityRouter(1, spawn_ctx)
    try:
        assert router.resize(3) == 3
        assert router.workers == 3
        pids = router.broadcast(probe_worker)
        assert len(pids) == 3
        assert len(set(pids)) == 3
    finally:
        router.shutdown()


def test_resize_shrink_retires_slots(spawn_ctx):
    router = AffinityRouter(3, spawn_ctx)
    try:
        assert router.resize(1) == 1
        # All work now lands on the single surviving slot.
        pids = {
            router.submit(f"K{i}", probe_worker).result() for i in range(6)
        }
        assert len(pids) == 1
        assert len(router.broadcast(probe_worker)) == 1
    finally:
        router.shutdown()


def test_resize_never_drops_below_one(spawn_ctx):
    router = AffinityRouter(2, spawn_ctx)
    try:
        assert router.resize(0) == 1
        assert isinstance(router.submit("k", probe_worker).result(), int)
    finally:
        router.shutdown()


def test_resize_shrink_redistributes_backlog(spawn_ctx):
    router = AffinityRouter(2, spawn_ctx)
    try:
        # Queue slow work everywhere, then shrink mid-flight: every
        # already-submitted future must still complete.
        futures = [
            router.submit(f"K{i}", sleepy_probe, 0.2) for i in range(6)
        ]
        router.resize(1)
        results = [f.result(timeout=30) for f in futures]
        assert all(isinstance(pid, int) for pid in results)
    finally:
        router.shutdown()


def test_resize_after_shutdown_raises(spawn_ctx):
    router = AffinityRouter(1, spawn_ctx)
    router.shutdown()
    with pytest.raises(RouterError):
        router.resize(2)
