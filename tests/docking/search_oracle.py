"""Search kernels and loops as they were before the overhead cuts.

The bit-parity oracle for the docking search hot path. These are the
original ``rotation_about_axis_batch`` and
``quaternion_to_matrix_batch`` (one ufunc chain per matrix entry),
``TorsionTree.pose_batch`` (``nonzero`` + ``np.ix_`` row
selection on every branch) and the AD4 and Vina ``_gather_batch``
bodies (per-corner fancy indexing, one call per stack), kept verbatim
apart from ``self`` becoming an argument. The production kernels must
reproduce them bit for bit.

:class:`OracleStackGather` puts the two gather bodies behind the
``StackGather`` interface so a whole dock can run on the oracle.

The sequential searches follow: ``LamarckianGA`` with its one-run
``run`` loop, ``solis_wets`` scoring through the objective itself,
``bfgs_minimize`` on scipy's finite-difference gradient (one scalar call
per difference point), and the ``AutoDock4.dock`` (GA runs one after
another) and ``Vina.dock`` (scalar closure objective) bodies as
``ad4_dock``/``vina_dock``. They too are verbatim; the step-generator
searches, the lockstep driver and the batched gradient must reproduce
them bit for bit. ``vina_rank_minima`` is ``vina_dock``'s ranking loop on
its own (one scalar ``total`` and ``intramolecular`` call per minimum),
the reference for the batched ``repro.docking.vina.rank_minima``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.chem.geometry import rmsd
from repro.chem.torsions import TorsionTree
from repro.docking.autodock import AutoDock4
from repro.docking.box import GridBox
from repro.docking.clustering import cluster_poses
from repro.docking.conformation import Conformation, DockingResult, Pose
from repro.docking.ga import GAConfig, GAResult
from repro.docking.local_search import LocalSearchResult
from repro.docking.mc import IteratedLocalSearch
from repro.docking.objective import (
    PoseEnergyObjective,
    VectorizedObjective,
    as_batch_objective,
    supports_batch,
)
from repro.docking.prepare import LigandPreparation
from repro.docking.scoring_ad4 import AD4Scorer
from repro.docking.scoring_vina import VinaScorer
from repro.docking.vina import Vina

Objective = Callable[[np.ndarray], float]


def rotation_about_axis_batch(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotation matrices for ``(K, 3)`` axes / ``(K,)`` angles.

    Per-row arithmetic matches :func:`rotation_about_axis` exactly, so a
    batched pose evaluation reproduces the scalar one bit-for-bit.
    """
    axes = np.asarray(axes, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    norms = np.sqrt((axes * axes).sum(axis=1))
    if np.any(norms < 1e-12):
        raise ValueError("rotation axis must be non-zero")
    x, y, z = (axes / norms[:, None]).T
    c, s = np.cos(angles), np.sin(angles)
    C = 1.0 - c
    R = np.empty((axes.shape[0], 3, 3))
    R[:, 0, 0] = x * x * C + c
    R[:, 0, 1] = x * y * C - z * s
    R[:, 0, 2] = x * z * C + y * s
    R[:, 1, 0] = y * x * C + z * s
    R[:, 1, 1] = y * y * C + c
    R[:, 1, 2] = y * z * C - x * s
    R[:, 2, 0] = z * x * C - y * s
    R[:, 2, 1] = z * y * C + x * s
    R[:, 2, 2] = z * z * C + c
    return R


def quaternion_to_matrix_batch(q: np.ndarray) -> np.ndarray:
    """Unit quaternions ``(K, 4)`` to rotation matrices ``(K, 3, 3)``.

    Same arithmetic as :func:`quaternion_to_matrix`, vectorized over the
    leading axis.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError("quaternion batch must have shape (K, 4)")
    n = np.sqrt((q * q).sum(axis=1))
    if np.any(n < 1e-12):
        raise ValueError("zero quaternion has no orientation")
    w, x, y, z = (q / n[:, None]).T
    R = np.empty((q.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def pose_batch(
    self: TorsionTree,
    translations: np.ndarray,
    quaternions: np.ndarray,
    torsions: np.ndarray,
) -> np.ndarray:
    """Coordinates for ``P`` conformations at once: ``(P, N, 3)``.

    Branch rotations are applied in tree order (as in :meth:`pose`)
    but vectorized across the pose axis, so scoring a whole GA
    population costs a handful of numpy calls instead of ``P`` Python
    round-trips. Each pose's arithmetic is identical to the scalar
    path — per-pose ``(M, 3) @ (3, 3)`` matmuls — so results match
    pose-by-pose evaluation exactly.
    """
    translations = np.asarray(translations, dtype=np.float64)
    quaternions = np.asarray(quaternions, dtype=np.float64)
    torsions = np.asarray(torsions, dtype=np.float64)
    P = translations.shape[0]
    if translations.shape != (P, 3) or quaternions.shape != (P, 4):
        raise ValueError(
            "expected (P, 3) translations and (P, 4) quaternions, got "
            f"{translations.shape} and {quaternions.shape}"
        )
    if torsions.shape != (P, self.n_torsions):
        raise ValueError(
            f"expected (P, {self.n_torsions}) torsion angles, got "
            f"{torsions.shape}"
        )
    coords = np.repeat(self.reference[None, :, :], P, axis=0)
    for k, br in enumerate(self.branches):
        angles = torsions[:, k]
        origin = coords[:, br.axis_from]  # (P, 3)
        axis = coords[:, br.axis_to] - origin
        norm = np.sqrt((axis * axis).sum(axis=1))
        active = (np.abs(angles) >= 1e-12) & (norm >= 1e-9)
        if not active.any():
            continue
        idx = np.nonzero(active)[0]
        R = rotation_about_axis_batch(axis[idx], angles[idx])
        o = origin[idx][:, None, :]
        moved = coords[np.ix_(idx, br.moved)]
        coords[np.ix_(idx, br.moved)] = (moved - o) @ R.transpose(0, 2, 1) + o
    root_pos = coords[:, self.root][:, None, :]  # (P, 1, 3)
    R = quaternion_to_matrix_batch(quaternions)
    coords = (coords - root_pos) @ R.transpose(0, 2, 1) + root_pos
    return coords + translations[:, None, :]


def ad4_gather_batch(
    box: GridBox, stack: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """``AD4Scorer._gather_batch``: ``(P, n_atoms, 3) -> (P,)`` summed map values.

    ``box`` stands for ``self.maps.box``; ``self._shape`` was
    ``np.array(box.shape)``.
    """
    _shape = np.array(box.shape)
    f = (coords - box.minimum) / box.spacing
    f = np.clip(f, 0.0, _shape - 1.000001)
    i0 = f.astype(np.intp)
    t = f - i0
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    x1, y1, z1 = x0 + 1, y0 + 1, z0 + 1
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    n = np.arange(stack.shape[0])[None, :]
    c00 = stack[n, x0, y0, z0] * (1 - tx) + stack[n, x1, y0, z0] * tx
    c10 = stack[n, x0, y1, z0] * (1 - tx) + stack[n, x1, y1, z0] * tx
    c01 = stack[n, x0, y0, z1] * (1 - tx) + stack[n, x1, y0, z1] * tx
    c11 = stack[n, x0, y1, z1] * (1 - tx) + stack[n, x1, y1, z1] * tx
    c0 = c00 * (1 - ty) + c10 * ty
    c1 = c01 * (1 - ty) + c11 * ty
    return (c0 * (1 - tz) + c1 * tz).sum(axis=1)


def vina_gather_batch(
    box: GridBox, stack: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """``VinaScorer._gather_batch``: ``(P, n_atoms, 3) -> (P,)`` summed values.

    ``box`` is ``self.box`` and ``stack`` is ``self._stack``.
    """
    _shape = np.array(box.shape)
    f = (coords - box.minimum) / box.spacing
    f = np.clip(f, 0.0, _shape - 1.000001)
    i0 = f.astype(np.intp)
    t = f - i0
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    x1, y1, z1 = x0 + 1, y0 + 1, z0 + 1
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    s = stack
    n = np.arange(s.shape[0])[None, :]
    c00 = s[n, x0, y0, z0] * (1 - tx) + s[n, x1, y0, z0] * tx
    c10 = s[n, x0, y1, z0] * (1 - tx) + s[n, x1, y1, z0] * tx
    c01 = s[n, x0, y0, z1] * (1 - tx) + s[n, x1, y0, z1] * tx
    c11 = s[n, x0, y1, z1] * (1 - tx) + s[n, x1, y1, z1] * tx
    c0 = c00 * (1 - ty) + c10 * ty
    c1 = c01 * (1 - ty) + c11 * ty
    return (c0 * (1 - tz) + c1 * tz).sum(axis=1)


class OracleStackGather:
    """The ``StackGather`` interface over the original gather bodies.

    A two-stack set is an AD4 scorer (affinity, electrostatic stacks),
    a one-stack set a Vina scorer; each stack is gathered by its own
    original body, one call per stack as before.
    """

    def __init__(self, box: GridBox, stacks: np.ndarray) -> None:
        self.box = box
        self.stacks = stacks
        self.body = ad4_gather_batch if stacks.shape[0] == 2 else vina_gather_batch

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.body(self.box, stack, coords) for stack in self.stacks]
        )


def solis_wets(
    f: Objective,
    x0: np.ndarray,
    rng: np.random.Generator,
    *,
    max_steps: int = 50,
    rho: float = 1.0,
    rho_min: float = 0.01,
    expand_after: int = 5,
    contract_after: int = 3,
) -> LocalSearchResult:
    """Solis & Wets (1981) adaptive random-walk minimization.

    This is AD4's Lamarckian local-search operator: propose a Gaussian
    step, accept if it improves, try the mirrored step otherwise; expand
    the step size after consecutive successes, contract after consecutive
    failures, stop when ``rho`` underflows or the step budget is spent.

    With a vectorized objective the candidate and its mirror are scored
    eagerly in one two-pose batch per step (the mirror is nearly free
    once the batch is posed). The acceptance sequence — and therefore
    the trajectory — is identical to the lazy scalar path, and
    ``evaluations`` keeps counting only the values the sequential rule
    consumes, so evaluation budgets behave the same under both forms.
    """
    batched = supports_batch(f)
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = float(f(x))
    evals = 1
    successes = failures = 0
    bias = np.zeros_like(x)
    for _ in range(max_steps):
        if rho < rho_min:
            break
        step = rng.normal(scale=rho, size=x.shape) + bias
        candidate = x + step
        if batched:
            pair = f.evaluate_batch(np.stack([candidate, x - step]))
            fc, fm_eager = float(pair[0]), float(pair[1])
        else:
            fc = float(f(candidate))
        evals += 1
        if fc < fx:
            x, fx = candidate, fc
            bias = 0.4 * step + 0.2 * bias
            successes += 1
            failures = 0
        else:
            mirrored = x - step
            fm = fm_eager if batched else float(f(mirrored))
            evals += 1
            if fm < fx:
                x, fx = mirrored, fm
                bias = bias - 0.4 * step
                successes += 1
                failures = 0
            else:
                successes = 0
                failures += 1
                bias *= 0.5
        if successes >= expand_after:
            rho *= 2.0
            successes = 0
        elif failures >= contract_after:
            rho *= 0.5
            failures = 0
    return LocalSearchResult(vector=x, energy=fx, evaluations=evals)


def bfgs_minimize(
    f: Objective,
    x0: np.ndarray,
    *,
    max_iterations: int = 40,
) -> LocalSearchResult:
    """Quasi-Newton refinement (Vina's local optimizer).

    Gradients are finite-differenced by scipy; the conformation space is
    small (6 + T dimensions) so this stays cheap. ``scipy.optimize`` is
    imported here, not at module load: only Vina's refinement needs it,
    and every pool worker and worker node imports this module.
    """
    from scipy.optimize import minimize

    evals = 0

    def counted(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    res = minimize(
        counted,
        np.asarray(x0, dtype=np.float64),
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": 1e-6},
    )
    return LocalSearchResult(
        vector=np.asarray(res.x), energy=float(res.fun), evaluations=evals
    )


class LamarckianGA:
    """The search loop. ``run`` is deterministic given the Generator.

    The objective may be a plain scalar callable or implement the
    vectorized protocol (:mod:`repro.docking.objective`); either way the
    whole population is scored through one ``evaluate_batch`` call per
    generation, so a vectorized objective turns the fitness sweep into a
    handful of numpy calls instead of ``population_size`` Python round
    trips. Scalar objectives are wrapped in a loop-based adapter, which
    performs the exact per-individual calls the old loop made — the GA
    trajectory is identical for both forms given the same seed.
    """

    def __init__(
        self,
        objective: Objective | VectorizedObjective,
        n_torsions: int,
        config: GAConfig | None = None,
    ):
        self.objective = objective
        self._batch = as_batch_objective(objective)
        self.n_torsions = n_torsions
        self.config = config or GAConfig()
        self._evals = 0

    # -- operators --------------------------------------------------------
    def _eval_population(self, vectors: list[np.ndarray]) -> np.ndarray:
        """Fitness of a whole generation in one batched objective call."""
        self._evals += len(vectors)
        return np.asarray(
            self._batch.evaluate_batch(np.stack(vectors)), dtype=np.float64
        )

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
        cfg = self.config
        self._evals = 0
        pop = [
            Conformation.random(
                self.n_torsions, rng, cfg.translation_extent, center
            ).normalized()
            for _ in range(cfg.population_size)
        ]
        vectors = [c.vector for c in pop]
        fitness = self._eval_population(vectors)
        history = [float(fitness.min())]

        for _gen in range(cfg.generations):
            if cfg.max_evaluations is not None and self._evals >= cfg.max_evaluations:
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
            fitness = self._eval_population(vectors)

            # Lamarckian step: local search writes back into the genotype.
            n_ls = max(1, int(cfg.local_search_rate * cfg.population_size))
            candidates = np.argsort(fitness)[:n_ls]
            for idx in candidates:
                res = solis_wets(
                    self.objective,
                    vectors[idx],
                    rng,
                    max_steps=cfg.local_search_steps,
                )
                self._evals += res.evaluations
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
            evaluations=self._evals,
            history=history,
            final_population=[
                (Conformation(v).normalized(), float(f))
                for v, f in zip(vectors, fitness)
            ],
        )


def ad4_dock(
    self: AutoDock4,
    ligand: LigandPreparation,
    seed: int = 0,
) -> DockingResult:
    """Dock a prepared ligand; deterministic for a given seed."""
    started = time.perf_counter()
    scorer = AD4Scorer(self.maps, ligand.molecule, etables=self.etables)
    tree = ligand.tree
    reference = tree.reference

    # Vectorized objective: the GA scores each generation (and
    # Solis-Wets its probe pairs) through one batched pose + grid
    # gather instead of per-individual Python round trips.
    objective = PoseEnergyObjective(
        tree, scorer.docking_energy_batch, kernel=scorer.kernel
    )

    # The GA searches translations around the box center relative to
    # the ligand's root reference position.
    center_offset = self.maps.box.center - reference[tree.root]
    extent = float(min(self.maps.box.dimensions) / 2.0)

    # Initialize inside the pocket half of the box: AD4 samples the
    # whole box, but most of it is the repulsive receptor wall. Copy
    # the config: self.params.ga may be shared across concurrently
    # docking receptors, whose boxes differ.
    ga_config = replace(self.params.ga, translation_extent=max(1.0, extent * 0.5))

    poses: list[Pose] = []
    total_evals = 0
    for run in range(self.params.ga_runs):
        rng = np.random.default_rng((seed, run))
        ga = LamarckianGA(objective, tree.n_torsions, ga_config)
        result = ga.run(rng, center=center_offset)
        total_evals += result.evaluations
        # Final deep local search on the run's champion (AD4 refines
        # the best individual before reporting it).
        refined = solis_wets(
            objective,
            result.best.vector,
            rng,
            max_steps=self.params.final_refine_steps,
        )
        total_evals += refined.evaluations
        if refined.energy < result.best_energy:
            conf = Conformation(refined.vector).normalized()
        else:
            conf = result.best
        coords = conf.coords(tree)
        terms = scorer.score(coords)
        poses.append(
            Pose(
                conformation=conf,
                coords=coords,
                energy=terms.total,
                intermolecular=terms.intermolecular,
                intramolecular=terms.intramolecular,
                torsional=terms.torsional,
                rmsd_from_input=rmsd(coords, reference),
            )
        )
    clusters = cluster_poses(poses, self.params.cluster_tolerance)
    return DockingResult(
        receptor_name=self.maps.receptor_name,
        ligand_name=ligand.molecule.name,
        engine=self.name,
        poses=sorted(poses),
        clusters=clusters,
        evaluations=total_evals,
        runtime_seconds=time.perf_counter() - started,
        seed=seed,
    )


def vina_dock(self: Vina, ligand: LigandPreparation, seed: int = 0) -> DockingResult:
    """Dock a prepared ligand; deterministic for a given seed."""
    started = time.perf_counter()
    scorer = VinaScorer(
        self.receptor,
        ligand.molecule,
        self.box,
        maps=self.maps,
        etables=self.etables,
    )
    tree = ligand.tree
    reference = tree.reference

    def objective(vector: np.ndarray) -> float:
        coords = Conformation(vector).coords(tree)
        return scorer.search_energy(coords)

    center_offset = self.box.center - reference[tree.root]
    extent = float(min(self.box.dimensions) / 2.0)

    # Copy the config: self.params.ils may be shared across
    # concurrently docking receptors, whose boxes differ.
    ils_config = replace(
        self.params.ils, translation_extent=max(1.0, extent * 0.8)
    )

    candidates: list[tuple[Conformation, float]] = []
    total_evals = 0
    for run in range(self.params.exhaustiveness):
        rng = np.random.default_rng((seed, run, 7919))
        ils = IteratedLocalSearch(objective, tree.n_torsions, ils_config)
        result = ils.run(rng, center=center_offset)
        total_evals += result.evaluations
        candidates.extend(result.minima)

    # Rank by the *reported* affinity (normalized intermolecular part).
    scored: list[Pose] = []
    for conf, _search_e in candidates:
        coords = conf.coords(tree)
        affinity = scorer.total(coords)
        scored.append(
            Pose(
                conformation=conf,
                coords=coords,
                energy=affinity,
                intermolecular=affinity,
                intramolecular=scorer.intramolecular(coords),
                rmsd_from_input=rmsd(coords, reference),
            )
        )
    scored.sort()
    # Mode filtering: keep poses separated by rmsd_filter, within
    # energy_range of the best, up to num_modes.
    modes: list[Pose] = []
    for pose in scored:
        if len(modes) >= self.params.num_modes:
            break
        if modes and pose.energy - modes[0].energy > self.params.energy_range:
            break
        if all(
            rmsd(pose.coords, m.coords) >= self.params.rmsd_filter for m in modes
        ):
            modes.append(pose)
    if not modes and scored:
        modes = [scored[0]]
    clusters = cluster_poses(modes)
    return DockingResult(
        receptor_name=self.receptor.name,
        ligand_name=ligand.molecule.name,
        engine=self.name,
        poses=modes,
        clusters=clusters,
        evaluations=total_evals,
        runtime_seconds=time.perf_counter() - started,
        seed=seed,
    )


def vina_rank_minima(
    scorer: VinaScorer, tree: TorsionTree, minima: list[Conformation]
) -> list[Pose]:
    """``vina_dock``'s ranking loop, verbatim apart from its arguments."""
    reference = tree.reference
    candidates = [(conf, None) for conf in minima]
    # Rank by the *reported* affinity (normalized intermolecular part).
    scored: list[Pose] = []
    for conf, _search_e in candidates:
        coords = conf.coords(tree)
        affinity = scorer.total(coords)
        scored.append(
            Pose(
                conformation=conf,
                coords=coords,
                energy=affinity,
                intermolecular=affinity,
                intramolecular=scorer.intramolecular(coords),
                rmsd_from_input=rmsd(coords, reference),
            )
        )
    scored.sort()
    return scored
