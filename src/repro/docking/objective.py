"""Vectorized-objective protocol for the docking searches.

The GA and Solis-Wets hot loops spend almost all their time evaluating
conformation vectors one at a time: pose the ligand, gather the grids,
sum the pair tables — each a handful of tiny numpy calls dominated by
Python dispatch. The batched scorer entry points
(:meth:`AD4Scorer.docking_energy_batch`,
:meth:`VinaScorer.search_energy_batch`) remove that overhead, but the
searches need a uniform way to ask "score this whole population" while
still accepting plain scalar callables.

That contract is the *vectorized objective*: any callable that also
exposes ``evaluate_batch(vectors) -> energies`` where ``vectors`` is a
``(P, D)`` batch of conformation genotypes and the result is a ``(P,)``
float array. Scalar semantics are preserved — ``obj(v)`` must equal
``obj.evaluate_batch(v[None])[0]`` bit-for-bit — so a search can switch
freely between the two forms without changing its trajectory.

Plain functions keep working everywhere: :func:`as_batch_objective`
wraps them in a loop-based adapter whose batch evaluation performs the
exact per-vector calls the search would have made itself.

The searches themselves are *step generators*: each yields the
``(k, D)`` genotype batch it needs scored next, receives the ``(k,)``
energies back through ``send`` and returns its result. They never call
an objective, so :func:`run_lockstep` can advance several independent
searches together — one ``evaluate_batch`` per round over the
concatenation of everything they asked for. Each search keeps its own
RNG and its own sequential logic; only the batching changes.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Protocol, runtime_checkable

import numpy as np

from repro.chem.torsions import TorsionTree
from repro.docking.conformation import coords_batch

#: The legacy scalar form: one genotype in, one energy out.
Objective = Callable[[np.ndarray], float]

#: A search as a step generator: yields genotype batches, is sent their
#: energies, returns its result.
SearchSteps = Generator[np.ndarray, np.ndarray, Any]


@runtime_checkable
class VectorizedObjective(Protocol):
    """An objective that can score a whole genotype batch at once."""

    def __call__(self, vector: np.ndarray) -> float:
        """Energy of a single ``(D,)`` conformation vector."""

    def evaluate_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Energies of a ``(P, D)`` genotype batch as a ``(P,)`` array."""


def supports_batch(objective: object) -> bool:
    """True when ``objective`` implements the vectorized protocol."""
    return callable(getattr(objective, "evaluate_batch", None))


class ScalarBatchAdapter:
    """Loop-based ``evaluate_batch`` over a plain scalar objective.

    The adapter performs exactly the per-vector calls a sequential
    search would have made, in the same order, so wrapping a scalar
    objective never changes results — it only normalizes the interface.
    """

    def __init__(self, fn: Objective) -> None:
        self.fn = fn

    def __call__(self, vector: np.ndarray) -> float:
        return float(self.fn(vector))

    def evaluate_batch(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        return np.array([float(self.fn(v)) for v in vectors])


def as_batch_objective(objective: Objective | VectorizedObjective) -> VectorizedObjective:
    """Coerce any objective to the vectorized protocol."""
    if supports_batch(objective):
        return objective  # type: ignore[return-value]
    return ScalarBatchAdapter(objective)


def run_lockstep(
    objective: Objective | VectorizedObjective, searches: list[SearchSteps]
) -> list[Any]:
    """Drive step generators together; returns their results in order.

    Every round concatenates the batches all unfinished searches asked
    for, scores them with one ``evaluate_batch`` and hands each search
    its own slice. A search that returns drops out while the others go
    on. With a single search this is the plain sequential loop.
    """
    batch = as_batch_objective(objective)
    results: list[Any] = [None] * len(searches)
    pending: dict[int, np.ndarray] = {}

    def advance(i: int, energies: np.ndarray | None) -> None:
        try:
            request = searches[i].send(energies)
        except StopIteration as done:
            results[i] = done.value
        else:
            pending[i] = np.asarray(request, dtype=np.float64)

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        requests = list(pending.items())
        pending.clear()
        energies = np.asarray(
            batch.evaluate_batch(np.concatenate([r for _, r in requests])),
            dtype=np.float64,
        )
        start = 0
        for i, request in requests:
            stop = start + len(request)
            advance(i, energies[start:stop])
            start = stop
    return results


class PoseEnergyObjective:
    """Genotype batch -> pose batch -> energy batch, fully vectorized.

    Binds a ligand :class:`TorsionTree` to a batched energy function
    (e.g. ``AD4Scorer.docking_energy_batch`` or
    ``VinaScorer.search_energy_batch``). The scalar call is a batch of
    one, which keeps per-individual and population-at-once evaluation
    bit-for-bit identical — the property the golden-parity tests pin.
    """

    def __init__(
        self,
        tree: TorsionTree,
        energy_batch: Callable[[np.ndarray], np.ndarray],
        kernel: str = "analytic",
    ) -> None:
        self.tree = tree
        self.energy_batch = energy_batch
        #: Kernel mode of the bound scorer ("analytic"|"tables") —
        #: introspection/provenance only, never consulted in scoring.
        self.kernel = kernel

    def __call__(self, vector: np.ndarray) -> float:
        vector = np.asarray(vector, dtype=np.float64)
        return float(self.evaluate_batch(vector[None])[0])

    def evaluate_batch(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        return np.asarray(self.energy_batch(coords_batch(vectors, self.tree)))
