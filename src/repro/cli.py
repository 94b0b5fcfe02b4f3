"""``scidock`` command-line interface.

Subcommands:

* ``dock`` — dock receptor-ligand pairs for real and print the outcomes.
* ``worker`` — join a distributed-backend director as a worker node.
* ``sweep`` — run the simulated 2..128-core scalability experiment.
* ``table3`` — reproduce the paper's Table 3 on a pair subset.
* ``spec`` — print the SciDock XML specification.
* ``dataset`` — show the Table 2 dataset summary.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.analysis import collect_outcomes, compute_table3, format_table3, total_favorable
from repro.core.datasets import (
    CL0125_RECEPTORS,
    CP_LIGANDS,
    TABLE3_LIGANDS,
    pair_relation,
)
from repro.core.scidock import SciDockConfig, resume_scidock, run_scidock
from repro.core.spec import scidock_xml
from repro.perf.experiments import run_core_sweep


def _open_store(args: argparse.Namespace):
    """File-backed provenance store when ``--store`` was given, else None
    (run_scidock then creates the default in-memory store)."""
    if getattr(args, "store", None) is None:
        return None
    from repro.provenance.store import ProvenanceStore

    return ProvenanceStore(args.store, buffer_size=128, flush_interval=1.0)


def _exec_kwargs(args: argparse.Namespace) -> dict:
    """SciDockConfig execution settings shared by every docking command."""
    return {
        "workers": args.workers,
        "backend": args.backend,
        "seed": args.seed,
        "shared_maps": args.shared_maps,
        "map_cache": args.map_cache,
        "watchdog_timeout": args.watchdog_timeout,
        "retry_max_attempts": args.retry_max_attempts,
        "retry_base_delay": args.retry_base_delay,
        "inject_failure_rate": args.inject_failure_rate,
        "pipeline": args.pipeline,
        "scheduler": args.scheduler,
        "speculation_quantile": args.speculation_quantile,
        "cost_prior": args.cost_prior,
        "elastic_pool": args.elastic_pool,
        "director": args.director,
        "min_nodes": args.min_nodes,
        "join_timeout": args.join_timeout,
        "batch_size": args.batch_size,
        "compress_frames": args.compress_frames,
    }


def _cmd_dock(args: argparse.Namespace) -> int:
    config = SciDockConfig(scenario=args.scenario, **_exec_kwargs(args))
    store = _open_store(args)
    if args.resume is not None:
        if store is None:
            print(
                "--resume needs --store PATH (the database the crashed "
                "run was writing)",
                file=sys.stderr,
            )
            return 2
        print(f"resuming run {args.resume} from its journal ...")
        report, store = resume_scidock(args.resume, store, config)
        print(
            f"resumed as run {report.wkfid}: {report.replayed} activations "
            "replayed from the journal (zero recomputation), "
            f"{report.total_activations - report.replayed} executed"
        )
    else:
        receptors = args.receptors or list(CL0125_RECEPTORS[: args.n_receptors])
        ligands = args.ligands or list(TABLE3_LIGANDS[: args.n_ligands])
        pairs = pair_relation(receptors=receptors, ligands=ligands)
        print(f"docking {len(pairs)} pairs (scenario={args.scenario}) ...")
        report, store = run_scidock(pairs, config, store=store)
    outcomes = collect_outcomes(store, report.wkfid)
    for o in sorted(outcomes, key=lambda o: o.feb):
        mark = "*" if o.converged else " "
        print(
            f" {mark} {o.ligand}-{o.receptor} [{o.engine}] "
            f"FEB {o.feb:+7.2f} kcal/mol, RMSD {o.rmsd:6.1f} A"
        )
    print(
        f"TET {report.tet_seconds:.1f} s; {report.counts}; "
        f"blocked {report.blocked} (Hg), retried {report.retried}"
    )
    if report.nodes_joined:
        per_node = ", ".join(
            f"{node}={done}"
            for node, done in sorted(report.tuples_per_node.items())
        )
        print(
            f"nodes: {report.nodes_joined} joined, {report.nodes_lost} "
            f"lost; tuples per node: {per_node or 'none'}; wire "
            f"{report.wire_bytes_sent} B out / "
            f"{report.wire_bytes_received} B in"
        )
        if report.batches_sent:
            print(
                f"batching: {report.batches_sent} TASK_BATCH frames, "
                f"avg fill {report.avg_batch_fill:.1f} tasks/frame"
            )
        if report.wire_bytes_saved:
            print(
                f"compression: saved {report.wire_bytes_saved} B "
                f"({report.compression_ratio:.2f}x raw/wire)"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cores = tuple(args.cores)
    sweep = run_core_sweep(
        scenario=args.scenario, core_counts=cores, n_pairs=args.pairs,
        failure_rate=args.failure_rate, seed=args.seed,
    )
    print(f"scenario={args.scenario}, {args.pairs} pairs")
    print(f"{'cores':>6} {'TET (h)':>10} {'speedup':>8} {'eff':>6} {'improv%':>8}")
    for c, t, s, e, i in zip(
        sweep.core_counts, sweep.tets, sweep.speedups(),
        sweep.efficiencies(), sweep.improvements(),
    ):
        print(f"{c:>6} {t / 3600:>10.2f} {s:>8.2f} {e:>6.2f} {i:>8.1f}")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    receptors = list(CL0125_RECEPTORS[: args.n_receptors])
    rows_all = []
    for scenario in ("ad4", "vina"):
        pairs = pair_relation(receptors=receptors, ligands=list(TABLE3_LIGANDS))
        print(f"running {len(pairs)} pairs with {scenario} ...", file=sys.stderr)
        report, store = run_scidock(
            pairs,
            SciDockConfig(scenario=scenario, **_exec_kwargs(args)),
            store=_open_store(args),
        )
        outcomes = collect_outcomes(store, report.wkfid)
        rows_all.extend(compute_table3(outcomes, ligands=TABLE3_LIGANDS))
    print(format_table3(rows_all))
    for engine in ("autodock4", "vina"):
        print(f"total FEB(-) {engine}: {total_favorable(rows_all, engine)}")
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    from repro.dynamics.refine import refine_pose

    result = refine_pose(
        args.receptor,
        args.ligand,
        md_steps=args.md_steps,
        seeds=tuple(range(args.seeds)),
    )
    print(result.summary())
    return 0


def _cmd_qsar(args: argparse.Namespace) -> int:
    from repro.core.analysis import collect_outcomes
    from repro.qsar.screen import describe_model, qsar_screen

    receptors = list(CL0125_RECEPTORS[: args.n_receptors])
    train_ligands = list(CP_LIGANDS[: args.n_train_ligands])
    pairs = pair_relation(receptors=receptors, ligands=train_ligands)
    print(
        f"docking {len(pairs)} pairs to build the QSAR training set ...",
        file=sys.stderr,
    )
    report, store = run_scidock(
        pairs,
        SciDockConfig(scenario="vina", **_exec_kwargs(args)),
        store=_open_store(args),
    )
    training: dict[str, float] = {}
    for o in collect_outcomes(store, report.wkfid):
        if o.ligand not in training or o.feb < training[o.ligand]:
            training[o.ligand] = o.feb
    ranking = qsar_screen(training, CP_LIGANDS)
    print(f"cross-validated q2 = {ranking.q2:.2f} on {ranking.training_size} ligands")
    print(describe_model(ranking.model))
    print("predicted-best ligands:")
    for lig, feb in ranking.top(args.top):
        mark = "drug-like" if ranking.druglike[lig] else "non-drug-like"
        print(f"  {lig}: {feb:+.2f} kcal/mol ({mark})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import campaign_report

    receptors = args.receptors or list(CL0125_RECEPTORS[: args.n_receptors])
    ligands = args.ligands or list(TABLE3_LIGANDS[: args.n_ligands])
    pairs = pair_relation(receptors=receptors, ligands=ligands)
    print(f"running {len(pairs)} pairs ...", file=sys.stderr)
    report, store = run_scidock(
        pairs,
        SciDockConfig(scenario=args.scenario, **_exec_kwargs(args)),
        store=_open_store(args),
    )
    print(campaign_report(store, report.wkfid), end="")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.workflow.worker import WorkerNode

    node = WorkerNode(
        args.join,
        slots=args.slots,
        node_id=args.node_id,
        map_cache=args.map_cache,
    )
    return node.run()


def _cmd_spec(_args: argparse.Namespace) -> int:
    print(scidock_xml(), end="")
    return 0


def _cmd_dataset(_args: argparse.Namespace) -> int:
    print(f"clan Peptidase_CA (CL0125): {len(CL0125_RECEPTORS)} receptors, "
          f"{len(CP_LIGANDS)} ligands, {len(CL0125_RECEPTORS) * len(CP_LIGANDS)} pairs")
    print("receptors:", " ".join(CL0125_RECEPTORS))
    print("ligands:", " ".join(CP_LIGANDS))
    return 0


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by every real-docking subcommand."""
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--backend", choices=("threads", "processes", "distributed"),
        default="threads",
        help="activation executor: GIL-sharing threads, worker processes, "
        "or remote worker nodes behind a TCP director",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shared-maps", dest="shared_maps", action="store_true", default=None,
        help="publish receptor grid maps into a shared-memory artifact "
        "plane (default: auto, on for --backend processes)",
    )
    parser.add_argument(
        "--no-shared-maps", dest="shared_maps", action="store_false",
        help="disable the shared-memory artifact plane",
    )
    parser.add_argument(
        "--map-cache", metavar="DIR", default=None,
        help="persistent content-addressed map cache directory; repeated "
        "runs reuse maps instead of re-running AutoGrid",
    )
    parser.add_argument(
        "--watchdog-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock watchdog floor per activation (default 600); the "
        "deadline is max(floor, 10 x expected cost) and a hung activation "
        "is killed (processes) or cancelled/abandoned (threads)",
    )
    parser.add_argument(
        "--retry-max-attempts", type=int, default=3, metavar="N",
        help="activation attempt budget before a failure is terminal "
        "(1 = no retries)",
    )
    parser.add_argument(
        "--retry-base-delay", type=float, default=1.0, metavar="SECONDS",
        help="base retry backoff delay; doubles each retry up to the "
        "policy maximum",
    )
    parser.add_argument(
        "--inject-failure-rate", type=float, default=0.0, metavar="P",
        help="chaos testing: Bernoulli per-try activation failure "
        "probability injected into the real engine (0 disables)",
    )
    parser.add_argument(
        "--pipeline", dest="pipeline", action="store_true", default=True,
        help="per-tuple pipelined dataflow: each output tuple flows to "
        "the next activity immediately, barriers only at REDUCE "
        "(default)",
    )
    parser.add_argument(
        "--no-pipeline", dest="pipeline", action="store_false",
        help="restore per-activity barriers: every activity completes "
        "on all tuples before the next starts",
    )
    parser.add_argument(
        "--scheduler", choices=("fifo", "greedy"), default="fifo",
        help="dispatch-order policy: fifo (arrival order) or greedy "
        "(longest expected activation first)",
    )
    parser.add_argument(
        "--speculation-quantile", type=float, default=1.0, metavar="Q",
        help="straggler speculation: duplicate an attempt running past "
        "this learned tail quantile of its activity/size-class "
        "distribution (first completion wins; 1.0 disables, 0.95 is the "
        "usual setting)",
    )
    parser.add_argument(
        "--cost-prior", choices=("paper", "provenance"), default="paper",
        help="initial estimates for the online cost service: the "
        "paper's activity-mean table, or Query-1 statistics from prior "
        "runs in the provenance store",
    )
    parser.add_argument(
        "--elastic-pool", action="store_true", default=False,
        help="let the adaptive elasticity policy grow/shrink the real "
        "worker pool mid-run (bounded above by --workers)",
    )
    parser.add_argument(
        "--director", metavar="HOST:PORT", default=None,
        help="(--backend distributed) bind the director here; start "
        "worker nodes with: scidock worker --join HOST:PORT",
    )
    parser.add_argument(
        "--min-nodes", type=int, default=1, metavar="N",
        help="(--backend distributed) worker nodes to wait for before "
        "dispatching (default 1)",
    )
    parser.add_argument(
        "--join-timeout", type=float, default=60.0, metavar="SECONDS",
        help="(--backend distributed) how long to wait for --min-nodes "
        "nodes, or for capacity after every node died (default 60)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=1, metavar="K",
        help="(--backend distributed) activation tuples per TASK_BATCH "
        "frame, amortizing per-frame wire overhead (default 1 = every "
        "task ships in its own one-member frame)",
    )
    parser.add_argument(
        "--compress-frames", action="store_true",
        help="(--backend distributed) negotiate zlib compression of "
        "large frames (task and result batches) with worker "
        "nodes that support it",
    )
    parser.add_argument(
        "--store", metavar="PATH", default=None,
        help="file-backed provenance database (default: in-memory); a "
        "file-backed store makes the run journal durable, so a killed "
        "run can be continued with dock --resume",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scidock",
        description="SciDock molecular docking workflows in (simulated) HPC clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dock = sub.add_parser("dock", help="dock pairs for real")
    dock.add_argument("--receptors", nargs="*", default=None)
    dock.add_argument("--ligands", nargs="*", default=None)
    dock.add_argument("--n-receptors", type=int, default=3)
    dock.add_argument("--n-ligands", type=int, default=2)
    dock.add_argument("--scenario", choices=("adaptive", "ad4", "vina"), default="adaptive")
    dock.add_argument(
        "--resume", type=int, default=None, metavar="WKFID",
        help="continue a crashed/killed run from its journal in --store: "
        "durably-completed activations are replayed with zero "
        "recomputation, only unfinished work executes",
    )
    _add_exec_args(dock)
    dock.set_defaults(fn=_cmd_dock)

    sweep = sub.add_parser("sweep", help="simulated core-count sweep (Figs 7-9)")
    sweep.add_argument("--scenario", choices=("adaptive", "ad4", "vina"), default="ad4")
    sweep.add_argument("--cores", nargs="*", type=int, default=[2, 4, 8, 16, 32, 64, 128])
    sweep.add_argument("--pairs", type=int, default=1000)
    sweep.add_argument("--failure-rate", type=float, default=0.10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(fn=_cmd_sweep)

    table3 = sub.add_parser("table3", help="reproduce Table 3 on a subset")
    table3.add_argument("--n-receptors", type=int, default=20)
    _add_exec_args(table3)
    table3.set_defaults(fn=_cmd_table3)

    rep = sub.add_parser("report", help="run a campaign and print a markdown report")
    rep.add_argument("--receptors", nargs="*", default=None)
    rep.add_argument("--ligands", nargs="*", default=None)
    rep.add_argument("--n-receptors", type=int, default=3)
    rep.add_argument("--n-ligands", type=int, default=2)
    rep.add_argument("--scenario", choices=("adaptive", "ad4", "vina"), default="adaptive")
    _add_exec_args(rep)
    rep.set_defaults(fn=_cmd_report)

    refine = sub.add_parser("refine", help="redock + minimize + MD one pair")
    refine.add_argument("receptor")
    refine.add_argument("ligand")
    refine.add_argument("--md-steps", type=int, default=60)
    refine.add_argument("--seeds", type=int, default=2)
    refine.set_defaults(fn=_cmd_refine)

    qsar = sub.add_parser("qsar", help="ligand-based QSAR screening")
    qsar.add_argument("--n-receptors", type=int, default=3)
    qsar.add_argument("--n-train-ligands", type=int, default=8)
    _add_exec_args(qsar)
    qsar.add_argument("--top", type=int, default=5)
    qsar.set_defaults(fn=_cmd_qsar)

    worker = sub.add_parser(
        "worker", help="join a distributed-backend director as a worker node"
    )
    from repro.workflow.worker import parse_address

    worker.add_argument(
        "--join", type=parse_address, required=True, metavar="HOST:PORT",
        help="director address (the dock run's --director)",
    )
    worker.add_argument(
        "--slots", type=int, default=2,
        help="concurrent activation slots on this node (default: 2)",
    )
    worker.add_argument(
        "--node-id", default=None,
        help="stable node name (default: host-pid)",
    )
    worker.add_argument(
        "--map-cache", metavar="DIR", default=None,
        help="node-local content-addressed map cache directory",
    )
    worker.set_defaults(fn=_cmd_worker)

    spec = sub.add_parser("spec", help="print the SciDock XML specification")
    spec.set_defaults(fn=_cmd_spec)

    dataset = sub.add_parser("dataset", help="show the Table 2 dataset")
    dataset.set_defaults(fn=_cmd_dataset)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
