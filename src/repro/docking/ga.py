"""Lamarckian genetic algorithm (AD4's global search).

Morris et al. (1998): a generational GA over conformation genotypes with
proportional selection, two-point/arithmetic crossover, Cauchy mutation,
elitism, and a Solis-Wets local search applied to a fraction of each
generation whose *improved genotype is written back* (the Lamarckian
step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from repro.docking.conformation import Conformation
from repro.docking.local_search import solis_wets_steps
from repro.docking.objective import VectorizedObjective, run_lockstep

Objective = Callable[[np.ndarray], float]


@dataclass
class GAConfig:
    """Tunable knobs; defaults are scaled-down AD4 defaults.

    AD4 ships with population 150 / 2.5M evaluations; a pure-Python
    reproduction uses smaller budgets by default and exposes everything
    for the benchmarks to sweep.
    """

    population_size: int = 50
    generations: int = 20
    elitism: int = 1
    crossover_rate: float = 0.8
    mutation_rate: float = 0.02
    local_search_rate: float = 0.06
    local_search_steps: int = 30
    translation_extent: float = 5.0
    max_evaluations: int | None = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("elitism must be in [0, population_size)")
        for name in ("crossover_rate", "mutation_rate", "local_search_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {v}")


@dataclass
class GAResult:
    best: Conformation
    best_energy: float
    evaluations: int
    history: list[float] = field(default_factory=list)
    final_population: list[tuple[Conformation, float]] = field(default_factory=list)


class LamarckianGA:
    """The search loop, deterministic given the Generator.

    :meth:`steps` is the search as a step generator: it yields each
    genotype batch it needs scored — a whole generation, then every
    Solis-Wets start point and probe pair — and receives the energies.
    :meth:`run` drives it on the engine's objective; AD4 drives several
    runs' generators in lockstep instead
    (:func:`repro.docking.objective.run_lockstep`). Scalar objectives go
    through the loop adapter, which makes one call per genotype in
    order, so the trajectory is the same for both forms given the seed.
    """

    def __init__(
        self,
        objective: Objective | VectorizedObjective,
        n_torsions: int,
        config: GAConfig | None = None,
    ):
        self.objective = objective
        self.n_torsions = n_torsions
        self.config = config or GAConfig()

    # -- operators --------------------------------------------------------
    @staticmethod
    def _rank_weights(order: np.ndarray) -> np.ndarray:
        """Linear-rank selection probabilities (robust to energy scale).

        ``order`` is the generation's ``argsort`` of fitness (ascending
        energy = best first); the best individual gets weight ``n``, the
        worst ``1``, normalized to sum to one.
        """
        ranks = np.empty_like(order)
        ranks[order] = np.arange(len(order))
        weights = (len(order) - ranks).astype(np.float64)
        weights /= weights.sum()
        return weights

    @staticmethod
    def _select(weights: np.ndarray, rng: np.random.Generator) -> int:
        """One linear-rank proportional draw."""
        return int(rng.choice(len(weights), p=weights))

    def _crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Two-point crossover on gene blocks + arithmetic blend on breaks."""
        child = a.copy()
        n = a.size
        p1, p2 = sorted(rng.integers(0, n + 1, size=2).tolist())
        child[p1:p2] = b[p1:p2]
        return child

    def _mutate(self, vec: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Cauchy-distributed gene mutation (AD4 uses Cauchy deviates)."""
        out = vec.copy()
        mask = rng.random(vec.size) < self.config.mutation_rate
        if mask.any():
            cauchy = rng.standard_cauchy(size=int(mask.sum()))
            scales = np.ones(vec.size)
            scales[:3] = 1.0  # translation, Angstrom
            scales[3:7] = 0.2  # quaternion components
            scales[7:] = 0.5  # torsions, radians
            out[mask] += np.clip(cauchy, -4, 4) * scales[mask]
        return out

    # -- main loop ----------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator,
        center: np.ndarray | None = None,
    ) -> GAResult:
        return run_lockstep(self.objective, [self.steps(rng, center)])[0]

    def steps(
        self,
        rng: np.random.Generator,
        center: np.ndarray | None = None,
    ) -> Generator[np.ndarray, np.ndarray, GAResult]:
        cfg = self.config
        pop = [
            Conformation.random(
                self.n_torsions, rng, cfg.translation_extent, center
            ).normalized()
            for _ in range(cfg.population_size)
        ]
        vectors = [c.vector for c in pop]
        fitness = np.array((yield np.stack(vectors)), dtype=np.float64)
        evals = len(vectors)
        history = [float(fitness.min())]

        for _gen in range(cfg.generations):
            if cfg.max_evaluations is not None and evals >= cfg.max_evaluations:
                break
            order = np.argsort(fitness)
            new_vectors: list[np.ndarray] = [
                vectors[i].copy() for i in order[: cfg.elitism]
            ]
            # Fitness is fixed while the children are bred: rank once.
            weights = self._rank_weights(order)
            while len(new_vectors) < cfg.population_size:
                pa = vectors[self._select(weights, rng)]
                if rng.random() < cfg.crossover_rate:
                    pb = vectors[self._select(weights, rng)]
                    child = self._crossover(pa, pb, rng)
                else:
                    child = pa.copy()
                child = self._mutate(child, rng)
                new_vectors.append(Conformation(child).normalized().vector)
            vectors = new_vectors
            fitness = np.array((yield np.stack(vectors)), dtype=np.float64)
            evals += len(vectors)

            # Lamarckian step: local search writes back into the genotype.
            n_ls = max(1, int(cfg.local_search_rate * cfg.population_size))
            candidates = np.argsort(fitness)[:n_ls]
            for idx in candidates:
                res = yield from solis_wets_steps(
                    vectors[idx], rng, max_steps=cfg.local_search_steps
                )
                evals += res.evaluations
                if res.energy < fitness[idx]:
                    # Write the raw optimized genotype back: normalizing
                    # here would desynchronize genotype and stored fitness
                    # for objectives that are not quaternion-scale
                    # invariant (the posing path normalizes on its own).
                    vectors[idx] = res.vector
                    fitness[idx] = res.energy
            history.append(float(fitness.min()))

        best_idx = int(np.argmin(fitness))
        return GAResult(
            best=Conformation(vectors[best_idx]).normalized(),
            best_energy=float(fitness[best_idx]),
            evaluations=evals,
            history=history,
            final_population=[
                (Conformation(v).normalized(), float(f))
                for v, f in zip(vectors, fitness)
            ],
        )
