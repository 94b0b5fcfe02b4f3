"""Hot-path micro-benchmarks: batched scoring and executor backends.

Two measurements start the repo's performance trajectory:

* scalar-vs-batched population scoring — the GA generation loop's inner
  cost, a population of genotypes scored one-by-one versus through the
  vectorized objective (`evaluate_batch` -> `coords_batch` -> grid
  gather), and
* thread-vs-process engine throughput — the same small pair sweep run
  through ``LocalEngine`` on both executor backends.

Results land in ``BENCH_hotpath.json`` at the repo root so successive
PRs can be compared machine-readably.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1`` — check-only mode for CI: tiny workloads, the
  numbers are recorded but the speedup assertions are skipped (shared CI
  runners make timing assertions flaky).

The process-beats-threads assertion additionally requires >= 2 cores
(the acceptance criterion's own precondition): on a single core the
process backend only adds spawn and pickling overhead.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import TABLE3_RECEPTORS  # noqa: F401  (path side effect)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
RESULTS_PATH = Path(__file__).parent.parent / "BENCH_hotpath.json"


def _record(section: str, payload: dict) -> None:
    """Merge one section into BENCH_hotpath.json (read-modify-write)."""
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    results[section] = payload
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_population_scoring():
    """Scoring a GA population through evaluate_batch vs a scalar loop."""
    from repro.chem.generate import generate_ligand, generate_receptor
    from repro.docking.autogrid import AutoGrid
    from repro.docking.box import GridBox
    from repro.docking.conformation import Conformation
    from repro.docking.objective import PoseEnergyObjective
    from repro.docking.prepare import prepare_ligand, prepare_receptor
    from repro.docking.scoring_ad4 import AD4Scorer

    receptor = generate_receptor("2HHN")
    lig = prepare_ligand(generate_ligand("0E6"))  # 25 atoms, 12 torsions
    box = GridBox.around_pocket(
        np.array(receptor.metadata["pocket_center"]),
        receptor.metadata["pocket_radius"],
        spacing=0.8,
    )
    maps = AutoGrid().run(
        prepare_receptor(receptor).molecule, box, lig.atom_types
    )
    scorer = AD4Scorer(maps, lig.molecule)
    objective = PoseEnergyObjective(lig.tree, scorer.docking_energy_batch)

    population = 16 if SMOKE else 64
    rng = np.random.default_rng(0)
    genotypes = np.stack([
        Conformation.random(
            lig.tree.n_torsions, rng, center=box.center
        ).vector
        for _ in range(population)
    ])

    def scalar_loop():
        return np.array([objective(g) for g in genotypes])

    def batched():
        return objective.evaluate_batch(genotypes)

    assert np.array_equal(scalar_loop(), batched())  # parity before timing
    scalar_s = _best_of(scalar_loop)
    batched_s = _best_of(batched)
    speedup = scalar_s / batched_s

    payload = {
        "population": population,
        "ligand_atoms": len(lig.molecule.atoms),
        "torsions": lig.tree.n_torsions,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": round(speedup, 2),
        "asserted": not SMOKE,
    }
    _record("population_scoring", payload)
    print(
        f"\npopulation scoring: scalar {scalar_s * 1e3:.1f} ms, "
        f"batched {batched_s * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    if not SMOKE:
        assert population >= 50 and len(lig.molecule.atoms) >= 20
        assert speedup >= 3.0, f"batched path only {speedup:.2f}x faster"


def test_engine_backend_throughput():
    """LocalEngine thread vs process backend on a small pair sweep."""
    from repro.core.datasets import CL0125_RECEPTORS, TABLE3_LIGANDS, pair_relation
    from repro.core.scidock import SciDockConfig, run_scidock

    receptors = list(CL0125_RECEPTORS[:1 if SMOKE else 2])
    ligands = list(TABLE3_LIGANDS[:2 if SMOKE else 4])
    cpu = os.cpu_count() or 1
    workers = max(2, min(4, cpu))

    tets = {}
    for backend in ("threads", "processes"):
        pairs = pair_relation(receptors=receptors, ligands=ligands)
        report, store = run_scidock(
            pairs,
            SciDockConfig(scenario="adaptive", workers=workers, backend=backend),
        )
        store.close()
        assert report.counts.get("FINISHED", 0) > 0
        tets[backend] = report.tet_seconds

    speedup = tets["threads"] / tets["processes"]
    multicore = cpu >= 2

    # Oversubscription variant: a sleep-bound workflow (activations wait
    # on I/O, not the CPU) must speed up with extra workers even on a
    # single-core host — this replaces the old permanent skip on
    # cpu_count=1 machines with an assertion that always runs.
    from repro.provenance.store import ProvenanceStore
    from repro.workflow.activity import Activity, Operator, Workflow
    from repro.workflow.engine import LocalEngine
    from repro.workflow.relation import Relation

    nap_s = 0.03 if SMOKE else 0.1
    n_naps = 10

    def _nap(t, c):
        time.sleep(nap_s)
        return [dict(t)]

    over = {}
    for label, nap_workers in (("serial", 1), ("oversubscribed", 5)):
        wf = Workflow("naps", [Activity("nap", Operator.MAP, fn=_nap)])
        rel = Relation("in", [{"key": f"k{i}"} for i in range(n_naps)])
        report = LocalEngine(
            ProvenanceStore(), workers=nap_workers, backend="threads"
        ).run(wf, rel)
        assert report.counts.get("FINISHED", 0) == n_naps
        over[label] = report.tet_seconds
    over_speedup = over["serial"] / over["oversubscribed"]

    payload = {
        "pairs": len(receptors) * len(ligands),
        "workers": workers,
        "cpu_count": cpu,
        "threads_tet_s": tets["threads"],
        "processes_tet_s": tets["processes"],
        "process_speedup": round(speedup, 2),
        "oversubscription": {
            "naps": n_naps,
            "nap_s": nap_s,
            "serial_tet_s": over["serial"],
            "oversubscribed_tet_s": over["oversubscribed"],
            "speedup": round(over_speedup, 2),
            "asserted": True,
        },
        "asserted": multicore and not SMOKE,
    }
    # A sub-1.0 "speedup" on one core is expected spawn/pickle overhead,
    # not a regression — record why the assertion did not run instead of
    # leaving a silently-false ``asserted``.
    if not multicore:
        payload["skipped_reason"] = (
            f"cpu_count={cpu}: process backend cannot beat threads on a "
            "single core (spawn + pickling overhead only); the sleep-bound "
            "oversubscription assertion below still ran"
        )
    elif SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("engine_backends", payload)
    print(
        f"\nengine backends ({payload['pairs']} pairs, {workers} workers, "
        f"{cpu} cores): threads {tets['threads']:.1f} s, "
        f"processes {tets['processes']:.1f} s; oversubscription "
        f"{over['serial']:.2f} s -> {over['oversubscribed']:.2f} s "
        f"({over_speedup:.1f}x)"
    )
    # Sleep-bound work is timing-robust: asserted on every host, SMOKE or
    # not — 10 naps on 5 workers must beat 10 naps on 1 by a wide margin.
    assert over_speedup >= 1.3, (
        f"oversubscribed threads only {over_speedup:.2f}x on {cpu} cores"
    )
    if multicore and not SMOKE:
        assert tets["processes"] < tets["threads"], (
            f"process backend slower on {cpu} cores: {tets}"
        )


def test_stage_pipelining_makespan():
    """Barrier vs pipelined dispatch on a skewed-cost two-stage workflow.

    One straggler dominates the dock stage. Under per-activity barriers
    the straggler cannot start docking until *every* tuple has finished
    prep, so its long tail stacks on top of the prep phase; pipelined
    dispatch lets it flow into docking the moment its own prep is done,
    hiding the prep of every other tuple behind the straggler's dock.
    Both modes run under the greedy cost scheduler (SciCumulus' native
    policy — longest expected activation first), so the only variable is
    barrier placement: the scheduler *wants* to dispatch the straggler's
    dock early, but only pipelining makes it ready early.
    """
    from repro.provenance.store import ProvenanceStore
    from repro.workflow.activity import Activity, Operator, Workflow
    from repro.workflow.engine import LocalEngine
    from repro.workflow.relation import Relation
    from repro.workflow.scheduler import GreedyCostScheduler

    prep_s = 0.02 if SMOKE else 0.1
    dock_straggler_s = 0.2 if SMOKE else 1.0
    dock_s = 0.01 if SMOKE else 0.05
    n_ligands = 8

    def prep(t, c):
        time.sleep(prep_s)
        return [dict(t)]

    def dock(t, c):
        time.sleep(dock_straggler_s if t["key"] == "lig0" else dock_s)
        return [dict(t)]

    def workflow():
        return Workflow(
            "skewed",
            [
                Activity("prep", Operator.MAP, fn=prep, cost_fn=lambda t: prep_s),
                Activity(
                    "dock", Operator.MAP, fn=dock,
                    cost_fn=lambda t: dock_straggler_s
                    if t["key"] == "lig0" else dock_s,
                ),
            ],
        )

    tets = {}
    for mode, pipelined in (("barrier", False), ("pipelined", True)):
        rel = Relation("in", [{"key": f"lig{i}"} for i in range(n_ligands)])
        engine = LocalEngine(
            ProvenanceStore(), workers=2, pipeline=pipelined,
            scheduler=GreedyCostScheduler(),
        )
        report = engine.run(workflow(), rel)
        assert report.counts.get("FINISHED", 0) == 2 * n_ligands
        tets[mode] = report.tet_seconds

    speedup = tets["barrier"] / tets["pipelined"]
    payload = {
        "ligands": n_ligands,
        "workers": 2,
        "prep_s": prep_s,
        "dock_straggler_s": dock_straggler_s,
        "dock_s": dock_s,
        "barrier_tet_s": tets["barrier"],
        "pipelined_tet_s": tets["pipelined"],
        "pipelining_speedup": round(speedup, 2),
        "asserted": not SMOKE,
    }
    _record("stage_pipelining", payload)
    print(
        f"\nstage pipelining ({n_ligands} ligands, 2 workers): "
        f"barrier {tets['barrier']:.2f} s, "
        f"pipelined {tets['pipelined']:.2f} s -> {speedup:.2f}x"
    )
    if not SMOKE:
        assert tets["pipelined"] < tets["barrier"], (
            f"pipelined dispatch not faster: {tets}"
        )


def test_artifact_plane_build_accounting(tmp_path):
    """Map builds and cache hits across the shared artifact plane.

    Two measurements, both deterministic (asserted even in smoke mode):

    * a process-backend screen must build each receptor's map bundle at
      most once across every worker (`builds_by_artifact` <= 1), and
    * a second screen against the same ``--map-cache`` directory must
      serve every bundle from disk — zero AutoGrid reruns.
    """
    from repro.core.datasets import CL0125_RECEPTORS, TABLE3_LIGANDS, pair_relation
    from repro.core.scidock import SciDockConfig, run_scidock

    receptors = list(CL0125_RECEPTORS[:2])
    ligands = list(TABLE3_LIGANDS[:2 if SMOKE else 3])
    cache_dir = str(tmp_path / "mapcache")

    def screen():
        pairs = pair_relation(receptors=receptors, ligands=ligands)
        report, store = run_scidock(
            pairs,
            SciDockConfig(
                scenario="adaptive",
                workers=2,
                backend="processes",
                map_cache=cache_dir,
            ),
        )
        store.close()
        assert report.succeeded
        return report

    cold = screen().artifact_stats
    warm = screen().artifact_stats

    assert cold["builds_by_artifact"]
    assert max(cold["builds_by_artifact"].values()) == 1
    assert cold["builds"] >= len(receptors)
    assert warm["builds"] == 0 and warm["disk_hits"] > 0

    payload = {
        "receptors": len(receptors),
        "ligands": len(ligands),
        "cold_builds": cold["builds"],
        "cold_shm_hits": cold["shm_hits"],
        "cold_hit_rate": cold["hit_rate"],
        "warm_builds": warm["builds"],
        "warm_disk_hits": warm["disk_hits"],
        "warm_hit_rate": warm["hit_rate"],
        "max_builds_per_artifact": max(cold["builds_by_artifact"].values()),
        "asserted": True,
    }
    _record("artifact_plane", payload)
    print(
        f"\nartifact plane ({len(receptors)}x{len(ligands)} pairs): "
        f"cold {cold['builds']} builds / {cold['shm_hits']} shm hits "
        f"(hit rate {cold['hit_rate']:.2f}), "
        f"warm {warm['builds']} builds / {warm['disk_hits']} disk hits"
    )


def _kernel_fixture():
    """Shared receptor/ligand/box setup for the kernel benchmarks."""
    from repro.chem.generate import generate_ligand, generate_receptor
    from repro.docking.box import GridBox
    from repro.docking.prepare import prepare_ligand, prepare_receptor

    receptor = generate_receptor("2HHN")
    rec_prep = prepare_receptor(receptor)
    lig = prepare_ligand(generate_ligand("0E6"))
    box = GridBox.around_pocket(
        np.array(receptor.metadata["pocket_center"]),
        receptor.metadata["pocket_radius"],
        spacing=0.8,
    )
    return rec_prep, lig, box


def test_kernel_table_scoring():
    """Population scoring through table kernels vs the analytic sweep.

    The map-free Vina scorer is the purest pairwise hot path: every pose
    batch evaluates ligand-x-receptor analytic terms. Table mode replaces
    the exp/clip expressions with row interpolation and the dense
    distance tensor with a cell-list gather.
    """
    from repro.docking.etables import shared_etables
    from repro.docking.scoring_vina import VinaScorer

    rec_prep, lig, box = _kernel_fixture()
    etables = shared_etables()
    analytic = VinaScorer(rec_prep.molecule, lig.molecule, box)
    tables = VinaScorer(
        rec_prep.molecule, lig.molecule, box, etables=etables
    )

    population = 32 if SMOKE else 128
    L = len(lig.molecule.atoms)
    rng = np.random.default_rng(0)
    base = lig.molecule.coords - lig.molecule.coords.mean(axis=0) + box.center
    batch = base[None] + rng.normal(0.0, 1.5, size=(population, L, 3))

    ea = analytic.search_energy_batch(batch)
    et = tables.search_energy_batch(batch)
    # Parity before timing: documented tolerance |dE| <= 2e-3 + 2% |E|.
    assert (np.abs(ea - et) <= 2e-3 + 2e-2 * np.abs(ea)).all()

    analytic_s = _best_of(lambda: analytic.search_energy_batch(batch))
    tables_s = _best_of(lambda: tables.search_energy_batch(batch))
    speedup = analytic_s / tables_s

    payload = {
        "population": population,
        "ligand_atoms": L,
        "receptor_atoms": int(analytic.rec_coords.shape[0]),
        "analytic_s": analytic_s,
        "tables_s": tables_s,
        "speedup": round(speedup, 2),
        "asserted": not SMOKE,
    }
    if SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("kernel_tables", payload)
    print(
        f"\nkernel tables ({population} poses x {L} atoms): "
        f"analytic {analytic_s * 1e3:.1f} ms, "
        f"tables {tables_s * 1e3:.1f} ms -> {speedup:.2f}x"
    )
    if not SMOKE:
        assert speedup > 1.0, f"table kernel only {speedup:.2f}x"


def test_map_build_pruning():
    """AutoGrid cold map build: both pruned kernels vs the full sweep.

    The per-receptor setup cost the campaign amortizes over 42 ligands —
    the paper's preparation-phase argument. The full sweep is the dense
    ``(points x atoms)`` oracle the tests keep; the analytic build
    enumerates only in-cutoff (point, atom) pairs and must reproduce its
    maps bit for bit, and the tables build also reads energies from
    lookup rows. Both must beat the full sweep; the analytic-vs-tables
    ratio is recorded, not asserted.
    """
    from repro.docking.autogrid import AutoGrid
    from repro.docking.etables import shared_etables
    from tests.docking.dense_maps import DenseAutoGrid

    rec_prep, lig, box = _kernel_fixture()
    types = lig.atom_types if SMOKE else ("C", "A", "N", "NA", "OA", "SA", "HD")
    etables = shared_etables()
    # Warm the table rows so the benchmark isolates the per-build cost
    # (the rows are built once per process and shared by every receptor).
    AutoGrid(etables=etables).run(rec_prep.molecule, box, types)

    full_sweep_s = _best_of(
        lambda: DenseAutoGrid().run(rec_prep.molecule, box, types)
    )
    analytic_s = _best_of(
        lambda: AutoGrid().run(rec_prep.molecule, box, types)
    )
    tables_s = _best_of(
        lambda: AutoGrid(etables=etables).run(rec_prep.molecule, box, types)
    )

    analytic_speedup = full_sweep_s / analytic_s
    tables_speedup = full_sweep_s / tables_s

    maps_d = DenseAutoGrid().run(rec_prep.molecule, box, types)
    maps_a = AutoGrid().run(rec_prep.molecule, box, types)
    maps_t = AutoGrid(etables=etables).run(rec_prep.molecule, box, types)
    for t in maps_a.affinity:
        assert np.array_equal(maps_a.affinity[t], maps_d.affinity[t]), t
        err = np.abs(maps_a.affinity[t] - maps_t.affinity[t])
        assert (err <= 2e-2 + 2e-2 * np.abs(maps_a.affinity[t])).all(), t

    payload = {
        "grid_points": int(np.prod(box.shape)),
        "map_types": len(types),
        "full_sweep_s": full_sweep_s,
        "analytic_s": analytic_s,
        "tables_s": tables_s,
        "analytic_speedup": round(analytic_speedup, 2),
        "tables_speedup": round(tables_speedup, 2),
        "analytic_over_tables": round(analytic_s / tables_s, 2),
        "asserted": not SMOKE,
    }
    if SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("map_build_pruning", payload)
    print(
        f"\nmap build pruning ({payload['grid_points']} points, "
        f"{len(types)} maps): full sweep {full_sweep_s * 1e3:.0f} ms, "
        f"analytic {analytic_s * 1e3:.0f} ms ({analytic_speedup:.2f}x), "
        f"tables {tables_s * 1e3:.0f} ms ({tables_speedup:.2f}x)"
    )
    if not SMOKE:
        assert analytic_speedup > 1.0, f"analytic build only {analytic_speedup:.2f}x"
        assert tables_speedup > 1.0, f"tables build only {tables_speedup:.2f}x"


def test_search_overhead():
    """Solis-Wets-shaped two-pose batches: original kernels vs current.

    Solis-Wets scores a candidate and its mirror per step, so its cost
    is per-call numpy overhead in posing and the grid gather, not
    arithmetic. The same genotype pairs are posed and scored through
    the original per-call kernels (``tests/docking/search_oracle.py``)
    and through the compiled torsion plan and shared stack gather; the
    energies must be identical before anything is timed.
    """
    from repro.docking import scoring_ad4
    from repro.docking.autogrid import AutoGrid
    from repro.docking.conformation import Conformation, normalize_vectors
    from tests.docking import search_oracle as oracle

    rec_prep, lig, box = _kernel_fixture()
    maps = AutoGrid().run(rec_prep.molecule, box, lig.atom_types)
    current = scoring_ad4.AD4Scorer(maps, lig.molecule)
    gather = scoring_ad4.StackGather
    scoring_ad4.StackGather = oracle.OracleStackGather
    try:
        original = scoring_ad4.AD4Scorer(maps, lig.molecule)
    finally:
        scoring_ad4.StackGather = gather
    tree = lig.tree

    n_steps = 50 if SMOKE else 400
    rng = np.random.default_rng(0)
    x = Conformation.random(tree.n_torsions, rng, center=box.center).vector
    steps = rng.normal(scale=0.5, size=(n_steps, x.size))
    pairs = [normalize_vectors(np.stack([x + d, x - d])) for d in steps]

    def run(pose, scorer):
        return [
            scorer.docking_energy_batch(pose(V[:, :3], V[:, 3:7], V[:, 7:]))
            for V in pairs
        ]

    def run_original():
        return run(lambda *a: oracle.pose_batch(tree, *a), original)

    def run_current():
        return run(tree.pose_batch, current)

    for a, b in zip(run_original(), run_current()):  # parity before timing
        assert np.array_equal(a, b)
    original_s = _best_of(run_original)
    current_s = _best_of(run_current)
    speedup = original_s / current_s

    payload = {
        "batch": 2,
        "steps": n_steps,
        "ligand_atoms": len(lig.molecule.atoms),
        "torsions": tree.n_torsions,
        "original_s": original_s,
        "current_s": current_s,
        "original_us_per_step": round(original_s / n_steps * 1e6, 1),
        "current_us_per_step": round(current_s / n_steps * 1e6, 1),
        "speedup": round(speedup, 2),
        "asserted": not SMOKE,
    }
    if SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("search_overhead", payload)
    print(
        f"\nsearch overhead ({n_steps} two-pose steps, "
        f"{tree.n_torsions} torsions): original "
        f"{payload['original_us_per_step']} us/step, current "
        f"{payload['current_us_per_step']} us/step -> {speedup:.2f}x"
    )
    if not SMOKE:
        assert speedup > 1.0, f"current search path only {speedup:.2f}x"


def test_search_batching(monkeypatch):
    """Whole FAST docks: sequential search loops vs lockstep / batched.

    AD4's GA runs are independent, so they advance in lockstep with one
    scorer call per round; Vina's BFGS scores each finite-difference
    gradient (the point and its ``n`` offsets) as one batch instead of
    ``n + 1`` scalar calls. The sequential loops are the oracle copies
    in ``tests/docking/search_oracle.py``; every dock must be identical
    before anything is timed. Scorer calls per dock are counted at the
    objective's entry points (AD4 ``docking_energy_batch``, Vina
    ``search_energy`` + ``search_energy_batch``).
    """
    from repro.core.scidock import FAST_AD4, FAST_VINA
    from repro.docking import mc
    from repro.docking.autodock import AutoDock4
    from repro.docking.autogrid import AutoGrid
    from repro.docking.scoring_ad4 import AD4Scorer
    from repro.docking.scoring_vina import VinaScorer, build_vina_maps
    from repro.docking.vina import Vina
    from tests.docking import search_oracle as oracle

    rec_prep, lig, box = _kernel_fixture()
    ad4 = AutoDock4(AutoGrid().run(rec_prep.molecule, box, lig.atom_types), FAST_AD4)
    vina = Vina(
        rec_prep, box, FAST_VINA, maps=build_vina_maps(rec_prep.molecule, box)
    )
    seeds = range(1 if SMOKE else 3)
    calls = 0

    def counted(fn):
        def wrapper(self, *args):
            nonlocal calls
            calls += 1
            return fn(self, *args)
        return wrapper

    def run(dock, cls, methods):
        """Results of every seed and the scorer calls per dock."""
        nonlocal calls
        calls = 0
        with monkeypatch.context() as m:
            for method in methods:
                m.setattr(cls, method, counted(getattr(cls, method)))
            results = [dock(seed) for seed in seeds]
        return results, calls / len(seeds)

    def oracle_vina(seed):
        with monkeypatch.context() as m:
            m.setattr(mc, "bfgs_minimize", oracle.bfgs_minimize)
            return oracle.vina_dock(vina, lig, seed=seed)

    variants = {
        "ad4": (
            lambda seed: oracle.ad4_dock(ad4, lig, seed=seed),
            lambda seed: ad4.dock(lig, seed=seed),
            (AD4Scorer, ("docking_energy_batch",)),
        ),
        "vina": (
            oracle_vina,
            lambda seed: vina.dock(lig, seed=seed),
            (VinaScorer, ("search_energy", "search_energy_batch")),
        ),
    }
    payload = {"seeds": len(seeds), "asserted": not SMOKE}
    speedups = {}
    for name, (sequential, batched, (cls, methods)) in variants.items():
        old, old_calls = run(sequential, cls, methods)
        new, new_calls = run(batched, cls, methods)
        for a, b in zip(old, new):
            assert a.evaluations == b.evaluations  # parity before timing
            for pa, pb in zip(a.poses, b.poses):
                assert pa.energy == pb.energy
                assert np.array_equal(pa.coords, pb.coords)
        sequential_s = _best_of(lambda: [sequential(s) for s in seeds], repeats=2)
        batched_s = _best_of(lambda: [batched(s) for s in seeds], repeats=2)
        speedups[name] = sequential_s / batched_s
        payload[name] = {
            "sequential_s_per_dock": round(sequential_s / len(seeds), 4),
            "batched_s_per_dock": round(batched_s / len(seeds), 4),
            "speedup": round(speedups[name], 2),
            "evaluations_per_dock": sum(r.evaluations for r in new) / len(seeds),
            "sequential_scorer_calls_per_dock": old_calls,
            "batched_scorer_calls_per_dock": new_calls,
        }
    if SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("search_batching", payload)
    for name in variants:
        row = payload[name]
        print(
            f"\nsearch batching, FAST {name} ({len(seeds)} seeds): "
            f"{row['sequential_s_per_dock']} -> {row['batched_s_per_dock']} s/dock "
            f"({row['speedup']:.2f}x), scorer calls/dock "
            f"{row['sequential_scorer_calls_per_dock']} -> "
            f"{row['batched_scorer_calls_per_dock']}"
        )
    if not SMOKE:
        for name, speedup in speedups.items():
            assert speedup > 1.0, f"batched {name} search only {speedup:.2f}x"


def test_prep_first_touch(monkeypatch, tmp_path):
    """A node's first touch of a receptor or ligand: prep and map fetch.

    Receptor prep (1ME4, 2P7U) and the 42-ligand library prep run
    through the original PEOE key lookup, ring test and torsion-root
    search (``tests/chem/prep_oracle.py``) and through the current
    one-pass versions; charges, PDBQT text and torsion trees must be
    identical before anything is timed. The exchange leg fetches one AD4 map
    bundle (2P7U, 0.6 A spacing, nine maps) from a director that
    deflates it, as a negotiated-compression director used to, and from
    one that ships it raw; the director runs in-process, so s/bundle
    counts both ends.
    """
    import zlib

    from repro.chem import charges, torsions
    from repro.chem.generate import generate_ligand, generate_receptor
    from repro.chem.torsions import TorsionTree
    from repro.core.activities import STANDARD_MAP_TYPES
    from repro.core.datasets import CP_LIGANDS
    from repro.docking.autogrid import AutoGrid, grid_maps_to_arrays
    from repro.docking.box import GridBox
    from repro.docking.prepare import prepare_ligand, prepare_receptor
    from repro.workflow.distributed import Director
    from repro.workflow.messaging import fetch_artifact
    from tests.chem import prep_oracle as oracle

    receptors = {pdb_id: generate_receptor(pdb_id) for pdb_id in ("1ME4", "2P7U")}
    ligands = [
        generate_ligand(lig_id) for lig_id in (CP_LIGANDS[:6] if SMOKE else CP_LIGANDS)
    ]

    def on_oracle(fn):
        def run():
            with monkeypatch.context() as m:
                m.setattr(charges, "_param_keys", oracle.param_keys)
                m.setattr(torsions, "find_rotatable_bonds", oracle.find_rotatable_bonds)
                m.setattr(TorsionTree, "_pick_root", oracle._pick_root)
                return fn()
        return run

    def assert_same(a, b):
        assert a.pdbqt == b.pdbqt
        assert np.array_equal(
            [x.charge for x in a.molecule.atoms], [x.charge for x in b.molecule.atoms]
        )
        if hasattr(a, "tree"):
            assert a.tree.root == b.tree.root
            for ba, bb in zip(a.tree.branches, b.tree.branches, strict=True):
                assert (ba.axis_from, ba.axis_to) == (bb.axis_from, bb.axis_to)
                assert np.array_equal(ba.moved, bb.moved)

    legs = {
        f"receptor_{pdb_id}": lambda mol=mol: [prepare_receptor(mol)]
        for pdb_id, mol in receptors.items()
    }
    legs["ligands"] = lambda: [prepare_ligand(mol) for mol in ligands]
    payload = {"n_ligands": len(ligands), "asserted": not SMOKE}
    speedups = {}
    for name, current in legs.items():
        original = on_oracle(current)
        for a, b in zip(original(), current(), strict=True):  # parity first
            assert_same(a, b)
        original_s = _best_of(original)
        current_s = _best_of(current)
        speedups[name] = original_s / current_s
        payload[name] = {
            "original_s": round(original_s, 4),
            "current_s": round(current_s, 4),
            "speedup": round(speedups[name], 2),
        }

    mol = receptors["2P7U"]
    box = GridBox.around_pocket(
        np.array(mol.metadata["pocket_center"]),
        mol.metadata["pocket_radius"],
        spacing=0.6,
    )
    maps = AutoGrid().run(prepare_receptor(mol).molecule, box, STANDARD_MAP_TYPES)
    director = Director(cache_dir=str(tmp_path / "director-cache"), compress=True)
    director.cache.save("ad4maps", "bench", *grid_maps_to_arrays(maps))
    blob = director.cache.blob("ad4maps", "bench")
    serve = Director._serve_artifact

    def deflating(self, conn, request):
        conn.enable_compression(self.compress_min_bytes)
        return serve(self, conn, request)

    fetches = 2 if SMOKE else 8

    def fetch_all():
        for _ in range(fetches):
            assert fetch_artifact(director.address, "ad4maps", "bench") == blob

    try:
        raw_s = _best_of(fetch_all) / fetches
        with monkeypatch.context() as m:
            m.setattr(Director, "_serve_artifact", deflating)
            deflated_s = _best_of(fetch_all) / fetches
    finally:
        director.shutdown()
    speedups["exchange"] = deflated_s / raw_s
    payload["exchange"] = {
        "bundle_mib": round(len(blob) / 2**20, 2),
        "deflate_ratio": round(len(blob) / len(zlib.compress(blob)), 3),
        "deflated_s_per_bundle": round(deflated_s, 4),
        "raw_s_per_bundle": round(raw_s, 4),
        "speedup": round(speedups["exchange"], 2),
    }
    if SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("prep_first_touch", payload)
    for name in legs:
        row = payload[name]
        print(
            f"\nfirst touch, {name}: {row['original_s']} -> {row['current_s']} s "
            f"({row['speedup']:.2f}x)"
        )
    row = payload["exchange"]
    print(
        f"\nfirst touch, {row['bundle_mib']} MiB bundle fetch: deflated "
        f"{row['deflated_s_per_bundle']} -> raw {row['raw_s_per_bundle']} s/bundle "
        f"({row['speedup']:.2f}x; deflate ratio {row['deflate_ratio']})"
    )
    if not SMOKE:
        for name, speedup in speedups.items():
            assert speedup > 1.0, f"first-touch {name} only {speedup:.2f}x"


def test_straggler_speculation():
    """TET with and without speculative re-execution of a 10x straggler.

    One tuple's first attempt takes ten times the nominal service time
    (a slow VM, a cold cache — the paper's heterogeneous-cloud tail).
    Without speculation the run waits the straggler out; with a warmed
    online cost service the engine launches a duplicate on an idle slot
    once the attempt blows past the learned p95, and the duplicate's
    second invocation takes the fast path.
    """
    import threading

    from repro.perf.online_cost import OnlineCostService
    from repro.provenance.store import ProvenanceStore
    from repro.workflow.activity import Activity, Operator, Workflow
    from repro.workflow.engine import LocalEngine
    from repro.workflow.relation import Relation

    dock_s = 0.05 if SMOKE else 0.15
    straggler_s = 10 * dock_s
    n_tuples = 8

    def make_dock():
        lock = threading.Lock()
        calls: dict[str, int] = {}

        def dock(t, c):
            with lock:
                n = calls.get(t["key"], 0)
                calls[t["key"]] = n + 1
            if t["slow"] and n == 0:
                # Sleep on the cancellation token so the losing twin is
                # released as soon as the engine aborts it.
                c["cancel_token"].sleep(straggler_s)
            else:
                time.sleep(dock_s)
            return [{"key": t["key"]}]

        return dock

    def warm_service():
        svc = OnlineCostService(speculation_quantile=0.95)
        for _ in range(40):
            svc.observe("dock", {}, dock_s)
        return svc

    tets = {}
    spec_counts = {}
    # Three workers: the straggler pins one slot while the fast tuples
    # drain through the other two, so an idle slot (the speculation
    # precondition) opens well before the straggler would finish.
    for mode, service in (("baseline", None), ("speculative", warm_service())):
        wf = Workflow(
            "straggler", [Activity("dock", Operator.MAP, fn=make_dock())]
        )
        rel = Relation(
            "in", [{"key": f"k{i}", "slow": i == 0} for i in range(n_tuples)]
        )
        engine = LocalEngine(
            ProvenanceStore(), workers=3, cost_service=service
        )
        report = engine.run(wf, rel)
        assert report.counts.get("FINISHED", 0) == n_tuples
        tets[mode] = report.tet_seconds
        spec_counts[mode] = report.speculative_won

    improvement = tets["baseline"] / tets["speculative"]
    payload = {
        "tuples": n_tuples,
        "workers": 3,
        "dock_s": dock_s,
        "straggler_s": straggler_s,
        "baseline_tet_s": tets["baseline"],
        "speculative_tet_s": tets["speculative"],
        "speculative_won": spec_counts["speculative"],
        "tet_improvement": round(improvement, 2),
        "asserted": not SMOKE,
    }
    if SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("straggler_speculation", payload)
    print(
        f"\nstraggler speculation ({n_tuples} tuples, 10x straggler): "
        f"baseline {tets['baseline']:.2f} s, "
        f"speculative {tets['speculative']:.2f} s -> {improvement:.2f}x"
    )
    assert spec_counts["baseline"] == 0
    if not SMOKE:
        assert spec_counts["speculative"] >= 1
        assert improvement >= 1.3, (
            f"speculation only improved TET {improvement:.2f}x: {tets}"
        )


def test_greedy_learned_costs():
    """Makespan: FIFO vs greedy placement fed by learned size-class costs.

    One large-receptor dock dominates the batch (6x the small ones). The
    cost service has seen both size classes, so the greedy scheduler
    fronts the long activation; FIFO dispatches in arrival order and
    strands it at the tail of the run.
    """
    from repro.perf.online_cost import OnlineCostService
    from repro.provenance.store import ProvenanceStore
    from repro.workflow.activity import Activity, Operator, Workflow
    from repro.workflow.engine import LocalEngine
    from repro.workflow.relation import Relation
    from repro.workflow.scheduler import GreedyCostScheduler

    # Hash-derived size classes (repro.chem.generate.receptor_size_class):
    # "1ABC" -> large, "2DEF" -> small.
    long_s = 0.2 if SMOKE else 0.6
    short_s = long_s / 6.0
    n_shorts = 6

    def dock(t, c):
        time.sleep(long_s if t["receptor_id"] == "1ABC" else short_s)
        return [{"key": t["key"]}]

    def warm_service():
        svc = OnlineCostService(
            prior="provenance", speculation_quantile=1.0
        )
        for _ in range(10):
            svc.observe("dock", {"receptor_id": "1ABC"}, long_s)
            svc.observe("dock", {"receptor_id": "2DEF"}, short_s)
        return svc

    def relation():
        # Arrival order puts the long job last — worst case for FIFO.
        rel = Relation(
            "in",
            [
                {"key": f"s{i}", "receptor_id": "2DEF"}
                for i in range(n_shorts)
            ],
        )
        rel.append({"key": "big", "receptor_id": "1ABC"})
        return rel

    tets = {}
    for mode, scheduler, service in (
        ("fifo", None, None),
        ("greedy_learned", GreedyCostScheduler(), warm_service()),
    ):
        wf = Workflow(
            "placement", [Activity("dock", Operator.MAP, fn=dock)]
        )
        engine = LocalEngine(
            ProvenanceStore(), workers=2,
            scheduler=scheduler, cost_service=service,
        )
        report = engine.run(wf, relation())
        assert report.counts.get("FINISHED", 0) == n_shorts + 1
        tets[mode] = report.tet_seconds

    speedup = tets["fifo"] / tets["greedy_learned"]
    payload = {
        "shorts": n_shorts,
        "workers": 2,
        "long_s": long_s,
        "short_s": short_s,
        "fifo_tet_s": tets["fifo"],
        "greedy_learned_tet_s": tets["greedy_learned"],
        "speedup": round(speedup, 2),
        "asserted": not SMOKE,
    }
    if SMOKE:
        payload["skipped_reason"] = "REPRO_BENCH_SMOKE=1"
    _record("greedy_learned_costs", payload)
    print(
        f"\ngreedy learned costs ({n_shorts}+1 docks, 2 workers): "
        f"fifo {tets['fifo']:.2f} s, "
        f"greedy {tets['greedy_learned']:.2f} s -> {speedup:.2f}x"
    )
    if not SMOKE:
        assert tets["greedy_learned"] < tets["fifo"], (
            f"learned-cost greedy not faster than FIFO: {tets}"
        )


def test_distributed_scatter_throughput():
    """Single-process threads vs a 2-node TCP scatter on sleep-bound work.

    The activation sleeps (an I/O- or license-bound docking stage), so
    scattering across two worker nodes — four remote slots against two
    local threads — must win even on a single-core host: the speedup
    comes from concurrency in the sleep, not from CPU parallelism. The
    distributed leg runs three wire variants — the legacy one-frame-
    per-task protocol, TASK_BATCH framing, and TASK_BATCH + zlib — and
    breaks out what each transport costs per tuple: wire bytes
    (serialization) and the non-sleep residue of the makespan (protocol
    overhead — handshakes, credit round-trips, heartbeats). Batched +
    compressed frames must amortize at least 2x of both.
    """
    import pickle
    import signal
    import subprocess
    import sys

    from repro.provenance.store import ProvenanceStore
    from repro.workflow.activity import Activity, Operator, Workflow
    from repro.workflow.engine import LocalEngine
    from repro.workflow.relation import Relation
    from repro.workflow.worker import sleep_activation

    sleep_s = 0.1 if SMOKE else 0.2
    n_tuples = 8 if SMOKE else 16
    local_workers = 2
    n_nodes, slots = 2, 2

    def _wf():
        return Workflow(
            "scatter",
            [Activity("nap", Operator.MAP, fn=sleep_activation)],
        )

    def _rel():
        return Relation(
            "in",
            [
                {"key": f"s{i:02d}", "receptor_id": f"R{i % 2}",
                 "sleep_s": sleep_s}
                for i in range(n_tuples)
            ],
        )

    local_report = LocalEngine(
        ProvenanceStore(), workers=local_workers, backend="threads"
    ).run(_wf(), _rel(), context={"shared_maps": False})
    assert local_report.counts.get("FINISHED", 0) == n_tuples

    from conftest import SRC

    def _scatter(wire_kwargs):
        engine = LocalEngine(
            ProvenanceStore(),
            workers=local_workers,
            backend="distributed",
            min_nodes=n_nodes,
            join_timeout=60.0,
            **wire_kwargs,
        )
        host, port = engine.director_address
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), env.get("PYTHONPATH", "")]
        )
        nodes = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.workflow.worker",
                    "--join", f"{host}:{port}",
                    "--slots", str(slots),
                    "--node-id", f"bench-{i}",
                ],
                env=env,
            )
            for i in range(n_nodes)
        ]
        try:
            # Node boot (python startup + TCP join) is provisioning, not
            # scatter throughput: let both nodes register before the
            # timed run so TET measures dispatch + transport + execution
            # only. (Nodes turn *ready* only once the run ships them its
            # context, so poll registration, not Director.wait_for_nodes.)
            boot_deadline = time.monotonic() + 60.0
            while len(engine._director._nodes) < n_nodes:
                assert time.monotonic() < boot_deadline, "nodes never joined"
                time.sleep(0.02)
            report = engine.run(
                _wf(), _rel(), context={"shared_maps": False}
            )
        finally:
            engine.shutdown()
            for proc in nodes:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=10.0)
        assert report.counts.get("FINISHED", 0) == n_tuples
        assert report.nodes_joined == n_nodes
        return report

    batch_kwargs = {"batch_size": 8, "batch_linger": 0.005}
    reports = {
        "unbatched": _scatter({}),
        "batched": _scatter(dict(batch_kwargs)),
        "batched_zlib": _scatter(
            dict(batch_kwargs, compress_frames=True)
        ),
    }
    dist_report = reports["unbatched"]

    speedup = local_report.tet_seconds / dist_report.tet_seconds
    # Ideal makespans given perfect packing of equal-length naps.
    import math

    local_ideal = math.ceil(n_tuples / local_workers) * sleep_s
    dist_ideal = math.ceil(n_tuples / (n_nodes * slots)) * sleep_s
    tuple_bytes = len(
        pickle.dumps(_rel()[0], protocol=pickle.HIGHEST_PROTOCOL)
    )

    def _variant(report):
        wire = report.wire_bytes_sent + report.wire_bytes_received
        return {
            "tet_s": report.tet_seconds,
            "wire_bytes_sent": report.wire_bytes_sent,
            "wire_bytes_received": report.wire_bytes_received,
            "wire_bytes_per_tuple": round(wire / n_tuples, 1),
            "wire_bytes_saved": report.wire_bytes_saved,
            "compression_ratio": round(report.compression_ratio, 2),
            "batches_sent": report.batches_sent,
            "avg_batch_fill": round(report.avg_batch_fill, 2),
            "overhead_s": round(report.tet_seconds - dist_ideal, 4),
            "overhead_per_tuple_s": round(
                (report.tet_seconds - dist_ideal) / n_tuples, 5
            ),
        }

    variants = {name: _variant(rep) for name, rep in reports.items()}
    base = variants["unbatched"]
    best = variants["batched_zlib"]
    wire_reduction = (
        base["wire_bytes_per_tuple"] / best["wire_bytes_per_tuple"]
        if best["wire_bytes_per_tuple"]
        else float("inf")
    )
    overhead_reduction = (
        base["overhead_per_tuple_s"] / best["overhead_per_tuple_s"]
        if best["overhead_per_tuple_s"] > 0
        else float("inf")
    )
    payload = {
        "tuples": n_tuples,
        "sleep_s": sleep_s,
        "local_workers": local_workers,
        "nodes": n_nodes,
        "slots_per_node": slots,
        "threads_tet_s": local_report.tet_seconds,
        "distributed_tet_s": dist_report.tet_seconds,
        "speedup": round(speedup, 2),
        "tuple_pickle_bytes": tuple_bytes,
        "ideal_tet_s": dist_ideal,
        "variants": variants,
        "wire_bytes_reduction": round(wire_reduction, 2),
        "overhead_reduction": round(overhead_reduction, 2),
        "asserted": True,
        "full_2x_bar_asserted": not SMOKE,
    }
    _record("distributed_scatter", payload)
    print(
        f"\ndistributed scatter ({n_tuples} naps x {sleep_s} s): "
        f"threads({local_workers}) {local_report.tet_seconds:.2f} s "
        f"(ideal {local_ideal:.2f}), {n_nodes}x{slots} nodes "
        f"{dist_report.tet_seconds:.2f} s (ideal {dist_ideal:.2f}) "
        f"-> {speedup:.2f}x"
    )
    for name, var in variants.items():
        print(
            f"  {name}: {var['wire_bytes_per_tuple']} wire B/tuple, "
            f"{var['overhead_per_tuple_s'] * 1e3:.2f} ms overhead/tuple, "
            f"fill {var['avg_batch_fill']}"
        )
    # Sleep-bound: asserted on every host, single-core included. The
    # scatter doubles the slot count, so demand a real win.
    assert speedup >= 1.2, (
        f"2-node scatter only {speedup:.2f}x over "
        f"{local_workers}-thread local: {payload}"
    )
    # The batched protocol actually batched (and the compressed leg
    # actually compressed) — deterministic, asserted everywhere.
    assert variants["batched"]["batches_sent"] >= 1
    assert variants["batched"]["avg_batch_fill"] > 1.0
    assert variants["batched_zlib"]["wire_bytes_saved"] > 0
    # Batched + compressed frames must amortize the per-tuple wire cost
    # at least 2x. Byte counts are near-deterministic, but the fixed
    # per-run frames (HELLO/SETUP/stats) dilute the ratio on the tiny
    # SMOKE relation, so the full 2x bar applies to full-size runs.
    wire_floor = 1.5 if SMOKE else 2.0
    assert wire_reduction >= wire_floor, (
        f"batched+zlib wire bytes only {wire_reduction:.2f}x lower "
        f"(floor {wire_floor}x): {variants}"
    )
    if not SMOKE:
        # Timing half of the claim: protocol overhead (credit round
        # trips, per-frame latency) must also drop at least 2x.
        assert overhead_reduction >= 2.0, (
            f"batched+zlib overhead only {overhead_reduction:.2f}x "
            f"lower: {variants}"
        )
