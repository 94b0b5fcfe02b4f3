"""Module-level activation functions for the distributed-backend tests.

The distributed backend pickles activation callables by reference, so
everything a worker node executes must live in an importable module —
tests load this file under the stable module name ``_dist_activities``
and worker subprocesses import it from ``PYTHONPATH``.
"""

import os
import time
from pathlib import Path


def prep(tup, context):
    """Stage 1: deterministic enrichment, keeps the receptor affinity."""
    return [
        {
            "key": tup["key"],
            "receptor_id": tup.get("receptor_id", ""),
            "weight": len(tup["key"]) * 3,
        }
    ]


def finish(tup, context):
    """Stage 2: deterministic transform of stage 1's output."""
    return [
        {
            "key": tup["key"],
            "receptor_id": tup.get("receptor_id", ""),
            "out": f"{tup['key'].upper()}:{tup['weight']}",
        }
    ]


def paced(tup, context):
    """Cooperative sleep so a run stays in flight long enough to kill a
    node under it; echoes the tuple."""
    token = context.get("cancel_token")
    seconds = float(tup.get("sleep_s", 0.1))
    if token is not None and hasattr(token, "sleep"):
        token.sleep(seconds)
    else:  # pragma: no cover - tokenless context
        time.sleep(seconds)
    return [{"key": tup["key"], "receptor_id": tup.get("receptor_id", "")}]


def node_cache(tup, context):
    """Report the executing node's map-cache directory and that it exists
    (paced like :func:`paced` so every node gets a share of the tuples)."""
    time.sleep(float(tup.get("sleep_s", 0.05)))
    cache_dir = context["artifact_plane"].map_cache_dir
    return [
        {
            "key": tup["key"],
            "cache_dir": cache_dir,
            "existed": os.path.isdir(cache_dir),
        }
    ]


def gated(tup, context):
    """Spin while the gate file exists (``slow-*`` keys only): pins the
    run mid-pipeline so the chaos test can SIGKILL the director group."""
    if tup["key"].startswith("slow"):
        gate = Path(context["gate_path"])
        while gate.exists():
            time.sleep(0.05)
    return [{"key": tup["key"], "out": tup["key"].upper()}]
