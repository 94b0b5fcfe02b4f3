"""Bit parity of the lockstep and batched-gradient searches.

AD4's GA runs are step generators advanced together by
``run_lockstep``, one scorer call per round; Vina's BFGS scores each
finite-difference gradient as one batch. Both must reproduce the
sequential loops kept in :mod:`.search_oracle` exactly: the same
coordinates (``np.array_equal``), energies, RMSD and evaluation counts.
"""

import numpy as np
import pytest

from repro.core.scidock import FAST_AD4, FAST_VINA
from repro.docking import mc, vina
from repro.docking.autodock import AD4Parameters, AutoDock4
from repro.docking.flex import FlexibleVina
from repro.docking.ga import GAConfig, LamarckianGA
from repro.docking.local_search import MAX_EVALUATIONS, bfgs_minimize, solis_wets
from repro.docking.mc import ILSConfig
from repro.docking.objective import ScalarBatchAdapter, run_lockstep
from repro.docking.scoring_ad4 import AD4Scorer
from repro.docking.scoring_vina import build_vina_maps
from repro.docking.vina import Vina

from . import search_oracle as oracle

#: The campaign's first-pass screen: one GA run, a few evaluations.
TRIAGE_AD4 = AD4Parameters(
    ga_runs=1,
    ga=GAConfig(population_size=6, generations=2, local_search_steps=2),
    final_refine_steps=4,
)
#: Four runs of 50: three Solis-Wets candidates per generation.
FOUR_RUN_AD4 = AD4Parameters(
    ga_runs=4,
    ga=GAConfig(population_size=50, generations=3, local_search_steps=10),
    final_refine_steps=40,
)
#: The evaluation budget ends the GA mid-search.
CUTOFF_AD4 = AD4Parameters(
    ga_runs=3,
    ga=GAConfig(
        population_size=20, generations=30, local_search_steps=10,
        max_evaluations=150,
    ),
    final_refine_steps=20,
)
#: Refinements long enough that every run stops on ``rho < rho_min``.
LONG_REFINE_AD4 = AD4Parameters(
    ga_runs=2,
    ga=GAConfig(population_size=12, generations=2, local_search_steps=5),
    final_refine_steps=1000,
)


def _assert_same_poses(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.energy == pb.energy
        assert pa.intermolecular == pb.intermolecular
        assert pa.intramolecular == pb.intramolecular
        assert pa.rmsd_from_input == pb.rmsd_from_input
        assert np.array_equal(pa.coords, pb.coords)
        assert np.array_equal(pa.conformation.vector, pb.conformation.vector)


def _assert_same_dock(a, b):
    assert a.evaluations == b.evaluations
    _assert_same_poses(a.poses, b.poses)


@pytest.fixture(scope="module")
def vina_maps(prepared_receptor, pocket_box):
    return build_vina_maps(prepared_receptor.molecule, pocket_box)


class TestRunLockstep:
    @staticmethod
    def _search(name, sizes, log):
        """Yields batches of the given sizes; returns what it was sent."""
        got = []
        for k, size in enumerate(sizes):
            energies = yield np.full((size, 2), float(k))
            got.append((name, energies.tolist()))
        log.append(name)
        return got

    def test_uneven_searches_each_get_their_own_slice(self):
        log: list[str] = []
        batches: list[int] = []

        def objective(vectors):
            batches.append(len(vectors))
            return vectors[:, 0] * 10 + np.arange(len(vectors))

        class Batched:
            def __call__(self, v):
                return float(objective(v[None])[0])

            def evaluate_batch(self, vectors):
                return objective(vectors)

        searches = [
            self._search("a", [1, 2, 2], log),
            self._search("b", [3], log),
            self._search("c", [], log),
            self._search("d", [2, 1, 1, 4], log),
        ]
        results = run_lockstep(Batched(), searches)
        # One call per round over whatever is still running.
        assert batches == [1 + 3 + 0 + 2, 2 + 1, 2 + 1, 4]
        assert log == ["c", "b", "a", "d"]
        assert results[2] == []
        assert results[1] == [("b", [1.0, 2.0, 3.0])]
        assert results[0] == [
            ("a", [0.0]), ("a", [10.0, 11.0]), ("a", [20.0, 21.0]),
        ]
        assert results[3] == [
            ("d", [4.0, 5.0]), ("d", [12.0]), ("d", [22.0]),
            ("d", [30.0, 31.0, 32.0, 33.0]),
        ]

    def test_scalar_objective_makes_one_call_per_row(self):
        calls = []

        def fn(v):
            calls.append(v.copy())
            return float(v.sum())

        results = run_lockstep(fn, [self._search("a", [2, 1], []),
                                    self._search("b", [1], [])])
        assert len(calls) == 2 + 1 + 1
        assert results[1] == [("b", [0.0])]

    def test_no_searches(self):
        assert run_lockstep(lambda v: 0.0, []) == []


def _sphere(x):
    return float((x * x).sum())


class TestSearchesOnPlainFunctions:
    def test_solis_wets_matches_oracle(self):
        for seed in range(5):
            x0 = np.random.default_rng(seed).normal(size=6)
            new = solis_wets(_sphere, x0, np.random.default_rng(seed), max_steps=80)
            old = oracle.solis_wets(
                _sphere, x0, np.random.default_rng(seed), max_steps=80
            )
            assert new.energy == old.energy
            assert new.evaluations == old.evaluations
            assert np.array_equal(new.vector, old.vector)

    def test_ga_matches_oracle(self):
        cfg = GAConfig(population_size=20, generations=6, local_search_steps=8)
        for objective in (_sphere, ScalarBatchAdapter(_sphere)):
            new = LamarckianGA(objective, 2, cfg).run(np.random.default_rng(3))
            old = oracle.LamarckianGA(objective, 2, cfg).run(
                np.random.default_rng(3)
            )
            assert new.best_energy == old.best_energy
            assert new.evaluations == old.evaluations
            assert new.history == old.history
            assert np.array_equal(new.best.vector, old.best.vector)


def _bumpy(x):
    """Smooth, non-quadratic and defined for huge arguments."""
    return float(np.log1p(((x - 0.5) * (x - 0.5)).sum()) + np.sin(x).sum())


def _scipy_fd_lbfgsb(f, x0, **options):
    """scipy's own finite-difference L-BFGS-B with a counted objective."""
    from scipy.optimize import minimize

    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    res = minimize(
        counted, np.asarray(x0, dtype=np.float64), method="L-BFGS-B",
        options={"ftol": 1e-6, **options},
    )
    return res, calls


class TestBatchedGradient:
    @pytest.mark.parametrize(
        "x0",
        [
            [0.0, 0.0, 0.0],
            [-1.5, 0.0, 2.25, -0.125],
            [1e9, -3e9, 0.0, 0.7],
            [2.5e12, 0.0, -1e10],
        ],
    )
    @pytest.mark.parametrize("max_iterations", [1, 8, 40])
    def test_equals_scipy_finite_difference(self, x0, max_iterations):
        new = bfgs_minimize(_bumpy, np.array(x0), max_iterations=max_iterations)
        res, calls = _scipy_fd_lbfgsb(_bumpy, x0, maxiter=max_iterations)
        assert np.array_equal(new.vector, res.x)
        assert new.energy == float(res.fun)
        assert new.evaluations == calls

    def test_matches_oracle(self):
        x0 = np.array([3.0, -2.0, 0.0, 1.0, 0.25])
        new = bfgs_minimize(_bumpy, x0, max_iterations=25)
        old = oracle.bfgs_minimize(_bumpy, x0, max_iterations=25)
        assert np.array_equal(new.vector, old.vector)
        assert new.energy == old.energy
        assert new.evaluations == old.evaluations

    def test_one_batch_per_gradient(self):
        adapter_rows = []

        class Batched:
            def __call__(self, v):
                return _bumpy(v)

            def evaluate_batch(self, vectors):
                adapter_rows.append(len(vectors))
                return np.array([_bumpy(v) for v in vectors])

        x0 = np.array([1.0, -1.0, 2.0])
        res = bfgs_minimize(Batched(), x0, max_iterations=10)
        assert set(adapter_rows) == {x0.size + 1}
        assert res.evaluations == sum(adapter_rows)

    @pytest.mark.parametrize("n", [60, 100])
    def test_evaluation_cap_stops_like_scipy_maxfun(self, n):
        # Rosenbrock in 60+ dimensions needs more than L-BFGS-B's 15000
        # default evaluations, difference rows included.
        def rosen(x):
            return float(
                (100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2).sum()
            )

        x0 = np.tile([-1.2, 1.0], n // 2)
        new = bfgs_minimize(rosen, x0, max_iterations=5000)
        res, calls = _scipy_fd_lbfgsb(rosen, x0, maxiter=5000)
        assert res.status == 1 and res.nit < 5000  # scipy stopped on maxfun
        assert np.array_equal(new.vector, res.x)
        assert new.energy == float(res.fun)
        assert new.evaluations == calls > MAX_EVALUATIONS


def _ad4_pair(engine, ligand, seed):
    return engine.dock(ligand, seed=seed), oracle.ad4_dock(engine, ligand, seed=seed)


class TestAD4Lockstep:
    @pytest.mark.parametrize(
        "params", [FAST_AD4, TRIAGE_AD4], ids=["fast", "triage"]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_budgets_identical(self, grid_maps, prepared_ligand, params, seed):
        new, old = _ad4_pair(AutoDock4(grid_maps, params), prepared_ligand, seed)
        _assert_same_dock(new, old)

    def test_four_runs_three_local_searches(self, grid_maps, prepared_ligand):
        params = FOUR_RUN_AD4
        assert max(1, int(params.ga.local_search_rate * params.ga.population_size)) == 3
        new, old = _ad4_pair(AutoDock4(grid_maps, params), prepared_ligand, 2)
        _assert_same_dock(new, old)
        assert len(new.poses) == 4

    def test_evaluation_cutoff(self, grid_maps, prepared_ligand):
        new, old = _ad4_pair(AutoDock4(grid_maps, CUTOFF_AD4), prepared_ligand, 5)
        _assert_same_dock(new, old)
        # The cutoff, not the generation count, ended every run.
        full = CUTOFF_AD4.ga.generations * CUTOFF_AD4.ga.population_size
        assert new.evaluations < CUTOFF_AD4.ga_runs * full

    def test_runs_finish_in_different_rounds(
        self, grid_maps, prepared_ligand, monkeypatch
    ):
        rows: list[int] = []
        batch = AD4Scorer.docking_energy_batch

        def recording(self, coords):
            rows.append(len(coords))
            return batch(self, coords)

        monkeypatch.setattr(AD4Scorer, "docking_energy_batch", recording)
        engine = AutoDock4(grid_maps, LONG_REFINE_AD4)
        new = engine.dock(prepared_ligand, seed=0)
        lockstep_rows = list(rows)
        old = oracle.ad4_dock(engine, prepared_ligand, seed=0)
        _assert_same_dock(new, old)
        # A refinement step is one round, so both refinements stopped on
        # rho long before their step budget; one run outlived the other,
        # so the last rounds carry a single pair.
        assert len(lockstep_rows) < LONG_REFINE_AD4.final_refine_steps
        assert lockstep_rows[-1] == 2
        assert 4 in lockstep_rows
        # Lockstep scores the same rows in fewer calls.
        assert sum(lockstep_rows) == sum(rows) - sum(lockstep_rows)
        assert len(lockstep_rows) < len(rows) - len(lockstep_rows)


class TestVinaBatchedGradient:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fast_vina_identical(
        self, prepared_receptor, pocket_box, prepared_ligand, vina_maps,
        monkeypatch, seed,
    ):
        engine = Vina(prepared_receptor, pocket_box, FAST_VINA, maps=vina_maps)
        new = engine.dock(prepared_ligand, seed=seed)
        monkeypatch.setattr(mc, "bfgs_minimize", oracle.bfgs_minimize)
        old = oracle.vina_dock(engine, prepared_ligand, seed=seed)
        _assert_same_dock(new, old)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_ranking_matches_scalar_loop(
        self, prepared_receptor, pocket_box, prepared_ligand, vina_maps,
        monkeypatch, seed,
    ):
        """All minima of a dock ranked with one batched call per score
        term equal the scalar per-pose loop, pose for pose."""
        calls = []
        rank = vina.rank_minima

        def spy(scorer, tree, minima):
            calls.append((scorer, tree, minima))
            return rank(scorer, tree, minima)

        monkeypatch.setattr(vina, "rank_minima", spy)
        engine = Vina(prepared_receptor, pocket_box, FAST_VINA, maps=vina_maps)
        engine.dock(prepared_ligand, seed=seed)
        [(scorer, tree, minima)] = calls
        assert len(minima) > 1
        _assert_same_poses(
            rank(scorer, tree, minima),
            oracle.vina_rank_minima(scorer, tree, minima),
        )

    def test_flexible_vina_identical(
        self, prepared_receptor, pocket_box, prepared_ligand, monkeypatch
    ):
        def dock():
            engine = FlexibleVina(
                prepared_receptor, pocket_box, max_flex_residues=2,
                ils=ILSConfig(restarts=1, steps_per_restart=2, bfgs_iterations=4),
            )
            return engine.dock(prepared_ligand, seed=1)

        new = dock()
        monkeypatch.setattr(mc, "bfgs_minimize", oracle.bfgs_minimize)
        old = dock()
        _assert_same_dock(new, old)
