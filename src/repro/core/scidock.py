"""SciDock workflow assembly and execution entry points.

``build_scidock_workflow`` wires the eight real activities into a
:class:`~repro.workflow.activity.Workflow` for the LocalEngine;
``build_scidock_sim_workflow`` produces the cost-model twin the
SimulatedEngine sweeps over 2..128 cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import activities as acts
from repro.docking.autodock import AD4Parameters
from repro.docking.ga import GAConfig
from repro.docking.mc import ILSConfig
from repro.docking.vina import VinaParameters
from repro.provenance.store import ProvenanceStore
from repro.cloud.failures import ActivityFailureModel
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import BACKENDS, ExecutionReport, LocalEngine
from repro.workflow.fault import FaultInjector, RetryPolicy, Watchdog
from repro.workflow.extractor import JsonExtractor
from repro.workflow.scheduler import GreedyCostScheduler
from repro.workflow.relation import Relation
from repro.workflow.template import ActivityTemplate

#: Reduced-budget engine settings: enough search to reproduce the
#: paper's Table 3 *shape* while keeping a 952-pair run tractable on a
#: laptop (the original budgets are days of CPU).
FAST_AD4 = AD4Parameters(
    ga_runs=2,
    ga=GAConfig(population_size=24, generations=8, local_search_steps=15),
    final_refine_steps=60,
)
FAST_VINA = VinaParameters(
    exhaustiveness=2,
    ils=ILSConfig(restarts=2, steps_per_restart=3, bfgs_iterations=8),
)

_DOCK_EXTRACTOR = JsonExtractor(
    keys=(
        "feb",
        "rmsd",
        "reference_rmsd",
        "engine",
        "modes",
        "evaluations",
        "in_pocket",
        "converged",
    )
)


@dataclass
class SciDockConfig:
    """Everything a SciDock run needs."""

    scenario: str = "adaptive"  # "adaptive" | "ad4" | "vina"
    seed: int = 0
    grid_spacing: float = 0.6
    workers: int = 4
    backend: str = "threads"  # "threads" | "processes" | "distributed"
    expdir: str = "/root/exp_SciDock"
    ad4_params: AD4Parameters = field(default_factory=lambda: FAST_AD4)
    vina_params: VinaParameters = field(default_factory=lambda: FAST_VINA)
    block_known_loopers: bool = True
    #: Tristate artifact-plane switch: None = auto (on for the processes
    #: backend), True/False force it on or off for any backend.
    shared_maps: bool | None = None
    #: Directory of the persistent content-addressed map cache; None
    #: disables cross-run map reuse.
    map_cache: str | None = None
    #: Wall-clock watchdog floor in seconds; None keeps the engine
    #: default (600 s). Every activation's deadline is
    #: ``max(watchdog_timeout, 10 x expected cost)``.
    watchdog_timeout: float | None = None
    #: Activation-failure attempt budget (1 = no retries).
    retry_max_attempts: int = 3
    #: Base backoff delay in seconds; doubles per retry up to the
    #: policy's max.
    retry_base_delay: float = 1.0
    #: Bernoulli per-try activation-failure injection rate (chaos runs);
    #: 0 disables the fault injector entirely.
    inject_failure_rate: float = 0.0
    #: Per-tuple pipelined dataflow (barriers only at REDUCE); False
    #: restores the historical per-activity barriers.
    pipeline: bool = True
    #: Dispatch-order policy: "fifo" (arrival order) or "greedy"
    #: (longest expected activation first — SciCumulus' native policy).
    scheduler: str = "fifo"
    #: Straggler-speculation quantile: an attempt running past this
    #: learned tail quantile of its activity/size-class distribution
    #: gets a duplicate launched on an idle slot. 1.0 disables
    #: speculation (the golden-parity default); the online cost
    #: service's own default, when constructed directly, is p95.
    speculation_quantile: float = 1.0
    #: Where the online cost service's estimates start: "paper" seeds
    #: the static activity-mean table; "provenance" seeds cross-run
    #: Query-1 statistics from the store at engine start.
    cost_prior: str = "paper"
    #: Live elastic pool resizing: let an adaptive policy grow/shrink
    #: the real worker pool mid-run (bounded by ``workers``).
    elastic_pool: bool = False
    #: Distributed backend only: ``HOST:PORT`` the director binds for
    #: worker nodes to join (``scidock worker --join HOST:PORT``).
    director: str | None = None
    #: Worker nodes a distributed run waits for before dispatching.
    min_nodes: int = 1
    #: Seconds to wait for ``min_nodes`` nodes (and for capacity when
    #: every node has died) before the run errors out.
    join_timeout: float = 60.0
    #: Activation tuples per TASK_BATCH frame on the distributed wire
    #: (1 = every task ships in its own one-member frame).
    batch_size: int = 1
    #: Negotiate zlib compression of large frames with worker nodes.
    compress_frames: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in ("adaptive", "ad4", "vina"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "distributed" and not self.director:
            raise ValueError(
                "backend 'distributed' needs director='HOST:PORT' so "
                "worker nodes know where to join"
            )
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.join_timeout <= 0:
            raise ValueError("join_timeout must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.scheduler not in ("fifo", "greedy"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.watchdog_timeout is not None and self.watchdog_timeout <= 0:
            raise ValueError("watchdog_timeout must be positive")
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if self.retry_base_delay < 0:
            raise ValueError("retry_base_delay cannot be negative")
        if not 0.0 <= self.inject_failure_rate <= 1.0:
            raise ValueError("inject_failure_rate must be in [0, 1]")
        if not 0.0 < self.speculation_quantile <= 1.0:
            raise ValueError("speculation_quantile must be in (0, 1]")
        if self.cost_prior not in ("paper", "provenance"):
            raise ValueError(f"unknown cost_prior {self.cost_prior!r}")

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.retry_max_attempts,
            base_delay=self.retry_base_delay,
            seed=self.seed,
        )

    def watchdog(self) -> Watchdog:
        if self.watchdog_timeout is None:
            return Watchdog()
        return Watchdog(timeout=self.watchdog_timeout)

    def scheduler_policy(self) -> GreedyCostScheduler | None:
        """Dispatch-order policy for the engine (None = FIFO arrival)."""
        if self.scheduler == "greedy":
            return GreedyCostScheduler()
        return None

    def context(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "grid_spacing": self.grid_spacing,
            "expdir": self.expdir,
            "ad4_params": self.ad4_params,
            "vina_params": self.vina_params,
            "shared_maps": self.shared_maps,
            "map_cache": self.map_cache,
        }


def _template(tag: str, command: str) -> ActivityTemplate:
    return ActivityTemplate(
        command=command,
        templatedir=f"/root/scidock/template_{tag}/",
        input_relation=f"input_{tag}.txt",
        output_relation=f"output_{tag}.txt",
    )


def build_scidock_workflow(config: SciDockConfig | None = None) -> Workflow:
    """The real 8-activity SciDock workflow (paper Fig. 1)."""
    config = config or SciDockConfig()
    wf = Workflow(
        tag="SciDock",
        description="Molecular docking-based virtual screening",
        exectag="scidock",
        expdir=config.expdir,
    )
    wf.add(Activity(
        "babel", Operator.MAP, fn=acts.babel,
        template=_template("babel", "babel -isdf %=LIGAND_ID%.sdf -omol2 %=LIGAND_ID%.mol2"),
        description="ligand transformation (SDF -> MOL2)",
    ))
    wf.add(Activity(
        "prepare_ligand", Operator.MAP, fn=acts.prepare_ligand,
        template=_template(
            "prepare_ligand",
            "prepare_ligand4.py -l %=LIGAND_ID%.mol2 -o %=LIGAND_ID%.pdbqt",
        ),
        description="ligand preparation (MGLTools)",
    ))
    wf.add(Activity(
        "prepare_receptor", Operator.MAP, fn=acts.prepare_receptor,
        template=_template(
            "prepare_receptor",
            "prepare_receptor4.py -r %=RECEPTOR_ID%.pdb -o %=RECEPTOR_ID%.pdbqt",
        ),
        description="receptor preparation (MGLTools)",
        looping_predicate=acts.receptor_would_loop,
    ))
    wf.add(Activity(
        "prepare_gpf", Operator.MAP, fn=acts.prepare_gpf_activity,
        template=_template(
            "prepare_gpf",
            "prepare_gpf4.py -l %=LIGAND_ID%.pdbqt -r %=RECEPTOR_ID%.pdbqt",
        ),
        description="AutoGrid parameter preparation",
    ))
    wf.add(Activity(
        "autogrid", Operator.MAP, fn=acts.autogrid_activity,
        template=_template("autogrid", "autogrid4 -p %=RECEPTOR_ID%.gpf"),
        description="receptor coordinate-map generation",
    ))
    wf.add(Activity(
        "docking_filter", Operator.FILTER, fn=acts.docking_filter,
        template=_template("docking_filter", "filter_receptors.py %=RECEPTOR_ID%"),
        description="docking filter (route small->AD4, large->Vina)",
    ))
    wf.add(Activity(
        "prepare_docking", Operator.MAP, fn=acts.prepare_docking,
        template=_template(
            "prepare_docking",
            "prepare_dpf4.py -l %=LIGAND_ID%.pdbqt -r %=RECEPTOR_ID%.pdbqt",
        ),
        description="docking parameter preparation (DPF / Vina conf)",
    ))
    wf.add(Activity(
        "docking", Operator.MAP, fn=acts.docking,
        template=_template("docking", "autodock4 -p %=LIGAND_ID%_%=RECEPTOR_ID%.dpf"),
        description="molecular docking execution (AD4 / Vina)",
        extractors=[_DOCK_EXTRACTOR],
    ))
    return wf


def build_scidock_sim_workflow(cost_model, scenario: str = "adaptive") -> Workflow:
    """Cost-model twin of SciDock for the SimulatedEngine.

    Per-tuple costs come from ``cost_model`` (see
    :mod:`repro.perf.cost_model`); only the router carries a real
    callable (zero-cost in simulation) so AD4/Vina tuples keep flowing
    to the right docking branch.
    """
    wf = Workflow(
        tag="SciDock-sim",
        description="SciDock cost-model twin",
        exectag="scidock",
    )
    tags = [
        "babel",
        "prepare_ligand",
        "prepare_receptor",
        "prepare_gpf",
        "autogrid",
        "docking_filter",
        "prepare_docking",
        "docking",
    ]
    for tag in tags:
        kwargs = {}
        if tag == "prepare_receptor":
            kwargs["looping_predicate"] = acts.receptor_would_loop
        if tag == "docking_filter":
            wf.add(Activity(
                tag,
                Operator.FILTER,
                fn=lambda t, c, _s=scenario: acts.docking_filter(
                    t, {"scenario": _s}
                ),
                cost_fn=cost_model.cost_fn(tag),
                **kwargs,
            ))
        else:
            wf.add(Activity(
                tag, Operator.MAP,
                cost_fn=cost_model.cost_fn(tag),
                **kwargs,
            ))
    return wf


def build_scidock_engine(
    config: SciDockConfig, store: ProvenanceStore
) -> LocalEngine:
    """A LocalEngine wired exactly as ``run_scidock`` would wire it.

    Shared by fresh runs and journal resumes so a resumed campaign
    executes under the same backend, fault-tolerance and cost-model
    semantics as the run that crashed.
    """
    # The online cost service and elasticity policy are only built when
    # something consumes them, so the default configuration dispatches
    # through exactly the same code path as before (golden parity).
    cost_service = None
    elasticity = None
    needs_service = (
        config.speculation_quantile < 1.0
        or config.cost_prior == "provenance"
        or config.scheduler == "greedy"
        or config.elastic_pool
    )
    if needs_service:
        # Imported lazily: repro.perf.calibrate imports this module, so
        # a module-level import would be circular.
        from repro.perf.online_cost import OnlineCostService

        cost_service = OnlineCostService(
            prior=config.cost_prior,
            speculation_quantile=config.speculation_quantile,
        )
        if config.cost_prior == "provenance":
            cost_service.seed_from_store(store)
    if config.elastic_pool:
        from repro.workflow.adaptive import AdaptiveElasticityPolicy

        elasticity = AdaptiveElasticityPolicy(
            min_cores=1, max_cores=config.workers
        )
    director = None
    if config.backend == "distributed":
        from repro.workflow.worker import parse_address

        director = parse_address(config.director)
    return LocalEngine(
        store,
        workers=config.workers,
        backend=config.backend,
        block_known_loopers=config.block_known_loopers,
        retry=config.retry_policy(),
        watchdog=config.watchdog(),
        scheduler=config.scheduler_policy(),
        pipeline=config.pipeline,
        cost_service=cost_service,
        elasticity=elasticity,
        director=director,
        min_nodes=config.min_nodes,
        join_timeout=config.join_timeout,
        batch_size=config.batch_size,
        compress_frames=config.compress_frames,
    )


def run_scidock(
    pairs: Relation,
    config: SciDockConfig | None = None,
    store: ProvenanceStore | None = None,
) -> tuple[ExecutionReport, ProvenanceStore]:
    """Execute SciDock for real on the configured executor backend
    (``config.backend``); returns (report, store)."""
    config = config or SciDockConfig()
    # Batched provenance writes: per-tuple records flush as executemany
    # groups; steering queries (store.sql) still see every record because
    # reads flush first.
    store = store or ProvenanceStore(buffer_size=128, flush_interval=1.0)
    engine = build_scidock_engine(config, store)
    workflow = build_scidock_workflow(config)
    context = config.context()
    if config.inject_failure_rate > 0:
        context["fault_injector"] = FaultInjector(
            failure_model=ActivityFailureModel(
                rate=config.inject_failure_rate, seed=config.seed
            ),
            seed=config.seed,
        )
    try:
        report = engine.run(workflow, pairs, context=context)
    finally:
        # Releases the distributed node pool; no-op on local backends.
        engine.shutdown()
    return report, store


def resume_scidock(
    wkfid: int,
    store: ProvenanceStore,
    config: SciDockConfig | None = None,
    pairs: Relation | None = None,
) -> tuple[ExecutionReport, ProvenanceStore]:
    """Continue a crashed/incomplete SciDock run from its journal.

    ``LocalEngine.resume`` replays every durably-completed tuple from the
    logged outputs (zero recomputation) and executes only what the crash
    left unfinished, under the journaled context; ``pairs`` overrides
    the relation recovered from the journal. A run with no readable
    journal raises :class:`~repro.workflow.journal.JournalError`.

    Runs journaled under the removed table-driven energy kernels
    (context ``kernel == "tables"``) are refused: finishing them under
    the analytic kernel would mix two energy functions in one result
    set.
    """
    from repro.workflow.journal import JournalError, recover_context

    journaled = recover_context(store, wkfid)
    if journaled is None:
        raise JournalError(
            f"run {wkfid} has no readable run journal in this store, so "
            "it cannot be resumed; start a fresh run instead"
        )
    if journaled.get("kernel") == "tables":
        raise ValueError(
            f"run {wkfid} was journaled under the table-driven energy "
            "kernels, which no longer exist; its completed tuples carry "
            "table energies, so it cannot be resumed under the analytic "
            "kernel — start a fresh run instead"
        )
    config = config or SciDockConfig()
    engine = build_scidock_engine(config, store)
    try:
        report = engine.resume(
            wkfid, build_scidock_workflow(config), relation=pairs
        )
    finally:
        engine.shutdown()
    return report, store
