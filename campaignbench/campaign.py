"""One campaign repetition: set up, run, check, report (child process).

``run.py`` starts this module once per repetition in a fresh process,
so every repetition pays what a user's run pays (importing ``repro``,
spawning pools, booting nodes) and no process-wide cache carries over.
Usage::

    python -m campaignbench.campaign --workload W --variant V.json \\
        --workdir DIR --result OUT.json [--trace]

``DIR`` is this repetition's private directory: the store, the map
cache, ``expdir`` and (through ``TMPDIR``, set by the parent) every
temporary directory the program makes live under it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time

from campaignbench import workloads as wl

NODE_JOIN_TIMEOUT_S = 60.0
NODE_EXIT_TIMEOUT_S = 30.0


def _ad4_params(budget: str):
    from repro.core.scidock import FAST_AD4
    from repro.docking.autodock import AD4Parameters
    from repro.docking.ga import GAConfig

    if budget == "fast":
        return FAST_AD4
    # Triage: a first-pass screen whose activations take milliseconds.
    return AD4Parameters(
        ga_runs=1,
        ga=GAConfig(population_size=6, generations=2, local_search_steps=2),
        final_refine_steps=4,
    )


def _prefill(variant: dict, map_cache: str, expdir: str) -> None:
    """Warm the disk map cache the way a previous campaign would have.

    Runs SciDock on one pair per receptor with the minimal AD4 budget;
    the AutoGrid activity writes each receptor's maps into ``map_cache``
    (the cache key does not depend on the search budget).
    """
    from repro.core.datasets import pair_relation
    from repro.core.scidock import SciDockConfig, run_scidock

    config = SciDockConfig(
        scenario="ad4",
        workers=2,
        backend="threads",
        expdir=expdir,
        ad4_params=_ad4_params("triage"),
        map_cache=map_cache,
    )
    report, store = run_scidock(
        pair_relation(variant["receptors"], variant["ligands"][:1]), config
    )
    store.close()
    if not report.succeeded:
        raise RuntimeError(f"map prefill failed: {report.counts}")


def _boot_nodes(engine, count: int, workdir: str, trace_dir: str | None) -> list:
    host, port = engine.director_address
    nodes = []
    for rank in range(count):
        # Each node's map cache lives in the repetition's private
        # directory, like the director's, and goes away with it.
        worker_args = [
            "--join", f"{host}:{port}", "--slots", "1",
            "--node-id", f"node-{rank}",
            "--map-cache", os.path.join(workdir, f"node-{rank}-maps"),
        ]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", "worker", *worker_args]
        else:
            argv = [
                sys.executable, "-m", "campaignbench.node",
                "--trace-dir", trace_dir, *worker_args,
            ]
        nodes.append(subprocess.Popen(argv, stdout=subprocess.DEVNULL))
    director = engine._director
    deadline = time.monotonic() + NODE_JOIN_TIMEOUT_S
    while director.nodes_joined < count:
        if time.monotonic() > deadline:
            raise RuntimeError("worker nodes did not join in time")
        if any(n.poll() is not None for n in nodes):
            raise RuntimeError("a worker node exited before joining")
        time.sleep(0.005)
    return nodes


def _reap_nodes(nodes: list) -> int:
    """Wait for every node to exit; kill stragglers. Returns kills."""
    killed = 0
    for node in nodes:
        try:
            node.wait(timeout=NODE_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            node.kill()
            node.wait()
            killed += 1
    return killed


def _outcomes(store, wkfid: int, report) -> dict:
    """Pair -> {status, feb, rmsd} from the run's output and journal."""
    from repro.workflow.journal import decode_payload

    observed = {}
    for tup in report.output:
        observed[wl.pair_key(tup["receptor_id"], tup["ligand_id"])] = {
            "status": "FINISHED",
            "feb": tup.get("feb"),
            "rmsd": tup.get("dock_rmsd"),
        }
    scheduled = {}
    for row in store.journal_events(wkfid):
        if row["event"] == "scheduled":
            payload = decode_payload(row["payload"]) or {}
            scheduled[row["tuple_key"]] = payload.get("tup") or {}
        elif row["event"] in ("blocked", "failed", "aborted"):
            tup = scheduled.get(row["tuple_key"], {})
            key = wl.pair_key(tup.get("receptor_id"), tup.get("ligand_id"))
            observed.setdefault(key, {"status": row["event"].upper()})
    return observed


def run_campaign(workload: wl.Workload, variant: dict, workdir: str,
                 trace: bool) -> dict:
    setup: dict[str, float] = {}
    t = time.perf_counter()
    from repro.core.datasets import pair_relation
    from repro.core.scidock import (
        SciDockConfig,
        build_scidock_engine,
        build_scidock_workflow,
    )
    from repro.provenance.store import ProvenanceStore

    setup["import_s"] = time.perf_counter() - t

    tracer = trace_dir = None
    if trace:
        from campaignbench import trace as tr

        trace_dir = os.path.join(workdir, "spans")
        os.makedirs(trace_dir)
        tracer = tr.Tracer()
        tr.install(tracer)
        if workload.backend == "processes":
            import repro.workflow.engine as engine_module

            engine_module.AffinityRouter = tr.traced_router(trace_dir)

    t = time.perf_counter()
    pairs = pair_relation(variant["receptors"], variant["ligands"])
    map_cache = os.path.join(workdir, "maps")
    os.makedirs(map_cache)
    expdir = os.path.join(workdir, "exp")
    setup["inputs_s"] = time.perf_counter() - t

    t = time.perf_counter()
    store = ProvenanceStore(
        os.path.join(workdir, "provenance.db") if workload.file_store else None,
        buffer_size=128,
        flush_interval=1.0,
    )
    setup["store_s"] = time.perf_counter() - t

    if workload.warm:
        t = time.perf_counter()
        _prefill(variant, map_cache, expdir)
        setup["prefill_s"] = time.perf_counter() - t

    t = time.perf_counter()
    config = SciDockConfig(
        scenario=workload.scenario,
        seed=int(variant["seed"]),
        workers=workload.slots,
        backend=workload.backend,
        expdir=expdir,
        ad4_params=_ad4_params(workload.ad4_budget),
        map_cache=map_cache,
        director="127.0.0.1:0" if workload.backend == "distributed" else None,
        min_nodes=workload.slots,
        batch_size=workload.batch_size,
        compress_frames=workload.compress_frames,
    )
    engine = build_scidock_engine(config, store)
    workflow = build_scidock_workflow(config)
    context = config.context()
    setup["engine_s"] = time.perf_counter() - t

    nodes: list = []
    try:
        if workload.backend == "distributed":
            t = time.perf_counter()
            nodes = _boot_nodes(engine, workload.slots, workdir, trace_dir)
            setup["nodes_s"] = time.perf_counter() - t
        # tet_s spans what run_scidock does once the engine exists:
        # engine.run, then engine.shutdown.
        t_run = time.perf_counter()
        report = engine.run(workflow, pairs, context=context)
    finally:
        engine.shutdown()
        t_end = time.perf_counter()
        killed = _reap_nodes(nodes)

    observed = _outcomes(store, report.wkfid, report)
    bad = wl.compare(variant["expected"], observed) if "expected" in variant else []
    result = {
        "setup": setup,
        "setup_s": sum(setup.values()),
        "tet_s": t_end - t_run,
        "pairs": len(pairs),
        "mismatched": bad,
        "observed": observed,
        "nodes_killed": killed,
    }
    if trace:
        from campaignbench import trace as tr

        dumps = [tracer.snapshot(), *tr.load_dumps(trace_dir)]
        metrics, fig6, rows = tr.layer_metrics(
            dumps=dumps,
            window=(t_run, t_end),
            store=store,
            wkfid=report.wkfid,
            report=report,
            workflow=workflow,
            slots=workload.slots,
        )
        result.update(
            layers=metrics, fig6=fig6, self_time=rows, window=[t_run, t_end],
            dumps=dumps,
        )
    store.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--variant", required=True, help="variant JSON file")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--backend", choices=("threads", "processes", "distributed"),
        help="run the workload on another backend (parity checks)",
    )
    args = parser.parse_args(argv)
    with open(args.variant) as fh:
        variant = json.load(fh)
    workload = wl.WORKLOADS[args.workload]
    if args.backend:
        workload = dataclasses.replace(workload, backend=args.backend)
    result = run_campaign(workload, variant, args.workdir, args.trace)
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
