"""Unit tests for conformations, local search, GA and ILS optimizers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docking.conformation import Conformation, DockingResult, Pose
from repro.docking.ga import GAConfig, LamarckianGA
from repro.docking.local_search import bfgs_minimize, solis_wets
from repro.docking.mc import ILSConfig, IteratedLocalSearch


def sphere(x: np.ndarray) -> float:
    """Convex test objective with minimum 0 at the origin."""
    return float((x * x).sum())


class TestConformation:
    def test_vector_too_short_raises(self):
        with pytest.raises(ValueError):
            Conformation(np.zeros(5))

    def test_accessors(self):
        v = np.arange(10.0)
        c = Conformation(v)
        assert np.allclose(c.translation, [0, 1, 2])
        assert np.allclose(c.quaternion, [3, 4, 5, 6])
        assert np.allclose(c.torsions, [7, 8, 9])
        assert c.n_torsions == 3

    def test_normalized_unit_quaternion(self):
        c = Conformation(np.array([0, 0, 0, 3.0, 0, 4.0, 0, 9.0]))
        n = c.normalized()
        assert np.linalg.norm(n.quaternion) == pytest.approx(1.0)
        # torsion wrapped into (-pi, pi]
        assert -np.pi < n.torsions[0] <= np.pi

    def test_normalized_zero_quaternion_becomes_identity(self):
        c = Conformation(np.array([0, 0, 0, 0.0, 0, 0, 0]))
        assert np.allclose(c.normalized().quaternion, [1, 0, 0, 0])

    def test_identity(self):
        c = Conformation.identity(2)
        assert c.vector.size == 9
        assert np.allclose(c.quaternion, [1, 0, 0, 0])

    def test_random_within_extent(self):
        rng = np.random.default_rng(0)
        c = Conformation.random(3, rng, translation_extent=2.0, center=[5, 5, 5])
        assert np.all(np.abs(c.translation - 5) <= 2.0)
        assert np.linalg.norm(c.quaternion) == pytest.approx(1.0)


class TestSolisWets:
    def test_improves_on_sphere(self):
        rng = np.random.default_rng(1)
        x0 = np.ones(8) * 3.0
        res = solis_wets(sphere, x0, rng, max_steps=200)
        assert res.energy < sphere(x0)
        assert res.evaluations > 1

    def test_deterministic_given_rng_state(self):
        r1 = solis_wets(sphere, np.ones(5), np.random.default_rng(7), max_steps=50)
        r2 = solis_wets(sphere, np.ones(5), np.random.default_rng(7), max_steps=50)
        assert r1.energy == r2.energy
        assert np.allclose(r1.vector, r2.vector)

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(2)
        x0 = np.array([0.1, -0.2, 0.05])
        res = solis_wets(sphere, x0, rng, max_steps=30)
        assert res.energy <= sphere(x0)

    def test_respects_step_budget(self):
        rng = np.random.default_rng(3)
        res = solis_wets(sphere, np.ones(4), rng, max_steps=5)
        # Each step costs at most 2 evaluations plus the initial one.
        assert res.evaluations <= 11


class TestBFGS:
    def test_finds_sphere_minimum(self):
        res = bfgs_minimize(sphere, np.ones(6) * 2.0)
        assert res.energy < 1e-6
        assert np.allclose(res.vector, 0.0, atol=1e-3)

    def test_counts_evaluations(self):
        res = bfgs_minimize(sphere, np.ones(3))
        assert res.evaluations > 0

    def test_respects_iteration_cap(self):
        res_few = bfgs_minimize(sphere, np.ones(10) * 5, max_iterations=1)
        res_many = bfgs_minimize(sphere, np.ones(10) * 5, max_iterations=50)
        assert res_many.energy <= res_few.energy


def test_importing_scidock_leaves_scipy_optimize_unloaded():
    # Only Vina's BFGS needs scipy.optimize; every pool worker and worker
    # node imports the workflow, so the import waits for the first call.
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = "import sys, repro.core.scidock; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestGAConfig:
    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=1)

    def test_rejects_bad_elitism(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=10, elitism=10)

    @pytest.mark.parametrize("field", ["crossover_rate", "mutation_rate", "local_search_rate"])
    def test_rejects_out_of_range_rates(self, field):
        with pytest.raises(ValueError, match=field):
            GAConfig(**{field: 1.5})


class TestLamarckianGA:
    def _run(self, seed=0, **kw):
        cfg = GAConfig(population_size=20, generations=8, **kw)
        ga = LamarckianGA(lambda v: sphere(v), n_torsions=2, config=cfg)
        return ga.run(np.random.default_rng(seed))

    def test_minimizes_sphere(self):
        res = self._run()
        assert res.best_energy < 1.0

    def test_history_monotone_nonincreasing(self):
        res = self._run()
        assert all(b <= a + 1e-12 for a, b in zip(res.history, res.history[1:]))

    def test_deterministic(self):
        a, b = self._run(seed=5), self._run(seed=5)
        assert a.best_energy == b.best_energy

    def test_different_seeds_differ(self):
        a, b = self._run(seed=1), self._run(seed=2)
        assert a.best_energy != b.best_energy

    def test_final_population_size(self):
        res = self._run()
        assert len(res.final_population) == 20

    def test_rank_weights_match_per_draw_selection(self):
        # Reference: ranking the fitness vector afresh for every draw.
        # Weights ranked once per generation must be the same array, so
        # rng.choice makes the same draws.
        rng = np.random.default_rng(4)
        for n in (2, 3, 24, 50):
            fitness = rng.normal(size=n)
            fitness[: n // 3] = fitness[0]  # ties
            order = np.argsort(fitness)
            ranks = np.empty_like(order)
            ranks[order] = np.arange(n)
            per_draw = (n - ranks).astype(np.float64)
            per_draw /= per_draw.sum()
            weights = LamarckianGA._rank_weights(order)
            assert np.array_equal(weights, per_draw)
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            assert [LamarckianGA._select(weights, a) for _ in range(30)] == [
                int(b.choice(n, p=per_draw)) for _ in range(30)
            ]

    def test_max_evaluations_respected(self):
        cfg = GAConfig(population_size=10, generations=100, max_evaluations=50)
        ga = LamarckianGA(lambda v: sphere(v), n_torsions=0, config=cfg)
        res = ga.run(np.random.default_rng(0))
        # The cap stops new generations; a small overshoot from the
        # in-flight generation is allowed.
        assert res.evaluations < 200


class TestILS:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ILSConfig(restarts=0)
        with pytest.raises(ValueError):
            ILSConfig(temperature=-1.0)
        with pytest.raises(ValueError):
            ILSConfig(steps_per_restart=0)

    def test_minimizes_sphere(self):
        cfg = ILSConfig(restarts=2, steps_per_restart=4, bfgs_iterations=20)
        ils = IteratedLocalSearch(lambda v: sphere(v), n_torsions=2, config=cfg)
        res = ils.run(np.random.default_rng(0))
        assert res.best_energy < 0.1

    def test_deterministic(self):
        cfg = ILSConfig(restarts=2, steps_per_restart=3)
        ils = IteratedLocalSearch(lambda v: sphere(v), n_torsions=1, config=cfg)
        a = ils.run(np.random.default_rng(3))
        b = ils.run(np.random.default_rng(3))
        assert a.best_energy == b.best_energy

    def test_minima_sorted_by_energy(self):
        cfg = ILSConfig(restarts=3, steps_per_restart=3)
        ils = IteratedLocalSearch(lambda v: sphere(v), n_torsions=0, config=cfg)
        res = ils.run(np.random.default_rng(1))
        energies = [e for _, e in res.minima]
        assert energies == sorted(energies)

    @given(st.integers(0, 5))
    @settings(max_examples=6, deadline=None)
    def test_property_best_is_min_of_minima(self, seed):
        cfg = ILSConfig(restarts=2, steps_per_restart=2, bfgs_iterations=5)
        ils = IteratedLocalSearch(lambda v: sphere(v), n_torsions=1, config=cfg)
        res = ils.run(np.random.default_rng(seed))
        assert res.best_energy == pytest.approx(min(e for _, e in res.minima))


class TestDockingResult:
    def _pose(self, energy):
        return Pose(
            conformation=Conformation.identity(0),
            coords=np.zeros((2, 3)),
            energy=energy,
        )

    def test_best_pose(self):
        r = DockingResult("R", "L", "vina", poses=[self._pose(-3), self._pose(-7)])
        assert r.best_energy == -7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DockingResult("R", "L", "vina").best_pose

    def test_favorable_flag(self):
        assert DockingResult("R", "L", "vina", poses=[self._pose(-1)]).favorable
        assert not DockingResult("R", "L", "vina", poses=[self._pose(2)]).favorable

    def test_summary_fields(self):
        r = DockingResult("R", "L", "autodock4", poses=[self._pose(-2.5)])
        s = r.summary()
        assert s["engine"] == "autodock4"
        assert s["feb"] == -2.5
        assert s["n_poses"] == 1


class TestInhibitionConstant:
    def test_favorable_feb_gives_ki(self):
        from repro.docking.conformation import inhibition_constant

        ki = inhibition_constant(-6.0)
        # -6 kcal/mol at 298 K is ~40 uM.
        assert 1e-6 < ki < 1e-4

    def test_stronger_binding_smaller_ki(self):
        from repro.docking.conformation import inhibition_constant

        assert inhibition_constant(-9.0) < inhibition_constant(-5.0)

    def test_unfavorable_feb_gives_none(self):
        from repro.docking.conformation import inhibition_constant

        assert inhibition_constant(0.0) is None
        assert inhibition_constant(3.0) is None

    def test_temperature_validation(self):
        from repro.docking.conformation import inhibition_constant

        with pytest.raises(ValueError):
            inhibition_constant(-5.0, temperature=0)

    def test_format_units(self):
        from repro.docking.conformation import format_ki

        assert format_ki(None) == "n/a"
        assert format_ki(4e-5).endswith("uM")
        assert format_ki(2e-9).endswith("nM")
        assert format_ki(0.5).endswith("M")

    def test_pose_ki_property(self):
        p = Pose(conformation=Conformation.identity(0), coords=np.zeros((2, 3)), energy=-7.0)
        assert p.ki is not None
        assert Pose(conformation=Conformation.identity(0), coords=np.zeros((2, 3)), energy=1.0).ki is None
