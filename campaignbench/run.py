"""Campaign benchmark: real SciDock campaigns, end to end and per layer.

Usage (from the repository root)::

    python3 campaignbench/run.py --workload sweep_cold --seed 0 \\
        --seconds 40 --trace 0

Each repetition runs one whole campaign (set-up, then the engine run)
in a fresh child process with its own directory, then checks that no
process, shared-memory segment or temporary directory outlived it.
Repetitions continue until ``--seconds`` would be exceeded (at least
three), and the end-to-end metrics are their medians. ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, the tracing overhead, the real-mode Fig 6
table and a self-time table, and writes every span to one JSON file
under ``.campaignbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from campaignbench import workloads as wl  # noqa: E402
from campaignbench.trace import ACTIVITY_TAGS  # noqa: E402

MIN_REPS = 3
REP_TIMEOUT_S = 150.0
#: How long helpers of a finished repetition (multiprocessing's resource
#: tracker) may take to exit before they count as survivors.
GRACE_S = 3.0
LEAK_PATTERNS = ("repro-plane-", "repro-node-cache-")
SHM_DIR = "/dev/shm"
PR_SET_CHILD_SUBREAPER = 36

END_TO_END_UNITS = {
    "tet_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "pairs_ok_frac": "ratio",
}
#: Per-layer metric units (the traced run); see README.md for meanings.
LAYER_UNITS = {
    **{f"activity.{tag}_s": "s" for tag in ACTIVITY_TAGS},
    "maps.ad4_build_s": "s",
    "maps.vina_build_s": "s",
    "maps.builds": "count",
    "artifacts.lookup_s": "s",
    "artifacts.hit_rate": "ratio",
    "artifacts.exchange_mb": "MiB",
    "dock.ad4.search_self_s": "s",
    "dock.ad4.score_s": "s",
    "dock.ad4.evaluations": "count",
    "dock.vina.search_self_s": "s",
    "dock.vina.score_s": "s",
    "dock.vina.evaluations": "count",
    "coordinator.queue_wait_p50_s": "s",
    "coordinator.queue_wait_p90_s": "s",
    "coordinator.queue_wait_samples": "count",
    "coordinator.activations": "count",
    "coordinator.retries": "count",
    "plane.handoff_p50_s": "s",
    "plane.handoff_p90_s": "s",
    "plane.handoff_samples": "count",
    "plane.steals": "count",
    "plane.slot_idle_frac": "ratio",
    "wire.task_bytes_per_activation": "B",
    "wire.avg_batch_fill": "count",
    "wire.compression_ratio": "ratio",
    "node.max_tuple_share": "ratio",
    "provenance.flush_s": "s",
    "journal.record_s": "s",
    "journal.events": "count",
    "trace.overhead_frac": "ratio",
}
#: Counts that must repeat bit-for-bit between traced runs of one seed.
EXACT_COUNTS = (
    "maps.builds",
    "dock.ad4.evaluations",
    "dock.vina.evaluations",
    "coordinator.activations",
    "journal.events",
)


def host_metadata() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy < 1.25
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so every process we start is reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: orphans go to init
        pass


def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _sweep_survivors(sid: int) -> list[int]:
    """Wait out a finished repetition's helpers; kill what survives."""
    deadline = time.monotonic() + GRACE_S
    while True:
        _reap_orphans()
        alive = _session_members(sid)
        if not alive:
            return []
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.1)
            _reap_orphans()
            return alive
        time.sleep(0.02)


def _listing(path: str, prefixes: tuple[str, ...] | None = None) -> set[str]:
    try:
        names = os.listdir(path)
    except OSError:
        return set()
    if prefixes is None:
        return set(names)
    return {n for n in names if n.startswith(prefixes)}


def run_rep(
    workload: str,
    variant_file: str,
    rep_dir: Path,
    trace: bool,
    backend: str | None = None,
) -> dict:
    """One campaign in a fresh child process; returns its measurements.

    ``backend`` overrides the workload's backend (parity checks only).
    """
    tmp = rep_dir / "tmp"
    tmp.mkdir(parents=True)
    result_file = rep_dir / "result.json"
    shm_before = _listing(SHM_DIR)
    tmp_before = _listing(tempfile.gettempdir(), LEAK_PATTERNS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp)
    argv = [
        sys.executable, "-m", "campaignbench.campaign",
        "--workload", workload, "--variant", variant_file,
        "--workdir", str(rep_dir), "--result", str(result_file),
    ] + (["--trace"] if trace else []) + (
        ["--backend", backend] if backend else []
    )
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    deadline = time.monotonic() + REP_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    survivors = _sweep_survivors(proc.pid)
    leaked_shm = sorted(_listing(SHM_DIR) - shm_before)
    for name in leaked_shm:  # do not let one repetition tax the next
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    # The program makes its temporary directories through ``tempfile``,
    # so they land in the repetition's TMPDIR (removed with it); the
    # system temp dir catches paths that bypass TMPDIR. Both are leaks.
    leaked_tmp = sorted(
        _listing(tempfile.gettempdir(), LEAK_PATTERNS) - tmp_before
    ) + sorted(f"$TMPDIR/{name}" for name in _listing(str(tmp), LEAK_PATTERNS))
    if proc.returncode != 0 or not result_file.exists():
        raise RuntimeError(
            f"campaign repetition exited with {proc.returncode}"
        )
    with open(result_file) as fh:
        result = json.load(fh)
    result.update(
        traced=trace,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        survivors=survivors,
        leaked_shm=leaked_shm,
        leaked_tmp=leaked_tmp,
    )
    return result


def _fmt(values: dict) -> str:
    return " ".join(f"{k}={v:.3f}" for k, v in values.items())


def _print_rep(index: int, rep: dict) -> None:
    kind = "traced" if rep["traced"] else "untraced"
    ok = rep["pairs"] - len(rep["mismatched"])
    print(
        f"rep {index} [{kind}] tet_s={rep['tet_s']:.3f} "
        f"setup_s={rep['setup_s']:.3f} cpu_s={rep['cpu_s']:.3f} "
        f"peak_rss_mb={rep['peak_rss_mb']:.1f} pairs_ok={ok}/{rep['pairs']}"
    )
    print(f"rep {index} setup {_fmt(rep['setup'])}")
    for pair in rep["mismatched"]:
        got = rep["observed"].get(pair)
        print(f"rep {index} MISMATCH {pair}: observed {got}")
    if rep["survivors"] or rep["nodes_killed"]:
        print(
            f"rep {index} HERMETIC processes outlived the run: "
            f"{rep['survivors']} (+{rep['nodes_killed']} nodes killed)"
        )
    if rep["leaked_shm"]:
        print(f"rep {index} HERMETIC new /dev/shm entries: {rep['leaked_shm']}")
    if rep["leaked_tmp"]:
        print(f"rep {index} HERMETIC new temp dirs: {rep['leaked_tmp']}")


def _print_trace_tables(rep: dict) -> None:
    print("FIGURE 6 (real mode): busy time per activity, from Query 1")
    for row in rep["fig6"]:
        bar = "#" * max(1, int(row["share"] * 50))
        print(
            f"  {row['tag']:<17} n={row['count']:<4} {row['busy_s']:>9.3f} s "
            f"({row['share'] * 100:5.1f}%) {bar}"
        )
    print("per-layer self time (spans inside the timed run)")
    for row in rep["self_time"]:
        print(f"  {row['layer']:<24} {row['spans']:>8} {row['self_s']:>10.4f} s")


def summarize(reps: list[dict], trace: bool) -> dict:
    attempted = sum(r["pairs"] for r in reps)
    failed = sum(len(r["mismatched"]) for r in reps)
    hermetic = all(
        not (r["survivors"] or r["nodes_killed"] or r["leaked_shm"]
             or r["leaked_tmp"])
        for r in reps
    )
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        metrics = {
            "tet_s": statistics.median([r["tet_s"] for r in plain]),
            "setup_s": statistics.median([r["setup_s"] for r in plain]),
            "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
            "pairs_ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    else:
        traced = [r for r in reps if r["traced"]]
        metrics = {
            name: statistics.median([r["layers"][name] for r in traced])
            for name in LAYER_UNITS
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (
            statistics.median([r["tet_s"] for r in traced])
            / statistics.median([r["tet_s"] for r in plain])
            - 1.0
        )
        units = LAYER_UNITS
    return {
        "correct": failed == 0 and hermetic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program (src/repro) is not under {ROOT}",
              file=sys.stderr)
        return 2
    variant = wl.variant_for(args.workload, args.seed)
    trace = bool(args.trace)
    meta = {
        **host_metadata(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant["candidate"],
        "config_seed": variant["seed"],
        "receptors": variant["receptors"],
        "ligands": len(variant["ligands"]),
    }
    print("host " + json.dumps(meta))
    sys.stdout.flush()

    _become_subreaper()
    base = ROOT / ".campaignbench"
    work = base / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reps: list[dict] = []
    try:
        variant_file = work / "variant.json"
        variant_file.write_text(json.dumps(variant))
        started = time.monotonic()
        walls: list[float] = []
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_dir = work / f"rep-{len(reps)}"
            try:
                rep = run_rep(args.workload, str(variant_file), rep_dir, traced)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            _print_rep(len(reps), rep)
            sys.stdout.flush()
            reps.append(rep)
            walls.append(rep["wall_s"])
            elapsed = time.monotonic() - started
            if len(reps) >= MIN_REPS and elapsed + max(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        _print_trace_tables(traced_reps[0])
        for name in EXACT_COUNTS:
            values = {r["layers"][name] for r in traced_reps}
            if len(values) > 1:
                print(f"WARNING exact count {name} differs between reps: {values}")
        traces = base / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out = traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        out.write_text(json.dumps({
            "host": meta,
            "runs": [
                {"window": r["window"], "tet_s": r["tet_s"], "dumps": r["dumps"]}
                for r in traced_reps
            ],
        }))
        print(f"spans written to {out.relative_to(ROOT)}")
    print(json.dumps(summarize(reps, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
