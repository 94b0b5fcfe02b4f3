"""Local search operators: Solis-Wets (AD4) and BFGS (Vina).

Both operate on the flat conformation vector through a user-supplied
objective; the engines pass a vectorized one
(:mod:`repro.docking.objective`), plain ``f(vector) -> float`` callables
go through the loop adapter. Solis-Wets is a step generator
(:func:`solis_wets_steps`) scoring each step's candidate and mirrored
probe as one two-pose batch, so AD4 can run several of them in
lockstep. BFGS scores each finite-difference gradient — the point and
its ``n`` offsets — as one ``(n + 1)``-pose batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.docking.objective import (
    VectorizedObjective,
    as_batch_objective,
    run_lockstep,
)

Objective = Callable[[np.ndarray], float]

#: L-BFGS-B's default absolute finite-difference step (its ``eps``).
FD_STEP = 1e-8
#: scipy's relative 2-point step, used where ``x + FD_STEP == x``.
FD_REL_STEP = np.finfo(np.float64).eps ** 0.5
#: L-BFGS-B's default ``maxfun``: the search stops at the first
#: iteration after this many objective values (difference rows included).
MAX_EVALUATIONS = 15000


@dataclass
class LocalSearchResult:
    vector: np.ndarray
    energy: float
    evaluations: int


def solis_wets_steps(
    x0: np.ndarray,
    rng: np.random.Generator,
    *,
    max_steps: int = 50,
    rho: float = 1.0,
    rho_min: float = 0.01,
    expand_after: int = 5,
    contract_after: int = 3,
) -> Generator[np.ndarray, np.ndarray, LocalSearchResult]:
    """Solis & Wets (1981) adaptive random-walk minimization, as steps.

    This is AD4's Lamarckian local-search operator: propose a Gaussian
    step, accept if it improves, try the mirrored step otherwise; expand
    the step size after consecutive successes, contract after consecutive
    failures, stop when ``rho`` underflows or the step budget is spent.

    Yields the start point as a batch of one, then one ``(2, D)`` batch
    per step: the candidate and its mirror, scored eagerly together (the
    mirror is nearly free once the batch is posed). The acceptance
    sequence is the lazy sequential rule's, and ``evaluations`` counts
    only the values that rule consumes, so evaluation budgets behave as
    if the mirror were scored on demand.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = float((yield x[None])[0])
    evals = 1
    successes = failures = 0
    bias = np.zeros_like(x)
    for _ in range(max_steps):
        if rho < rho_min:
            break
        step = rng.normal(scale=rho, size=x.shape) + bias
        candidate = x + step
        mirrored = x - step
        pair = yield np.stack([candidate, mirrored])
        fc, fm = float(pair[0]), float(pair[1])
        evals += 1
        if fc < fx:
            x, fx = candidate, fc
            bias = 0.4 * step + 0.2 * bias
            successes += 1
            failures = 0
        else:
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


def solis_wets(
    f: Objective | VectorizedObjective,
    x0: np.ndarray,
    rng: np.random.Generator,
    **options,
) -> LocalSearchResult:
    """One Solis-Wets search on ``f``; see :func:`solis_wets_steps`."""
    return run_lockstep(f, [solis_wets_steps(x0, rng, **options)])[0]


def bfgs_minimize(
    f: Objective | VectorizedObjective,
    x0: np.ndarray,
    *,
    max_iterations: int = 40,
) -> LocalSearchResult:
    """Quasi-Newton refinement (Vina's local optimizer).

    L-BFGS-B with scipy's own forward-difference gradient, computed
    here: the point and its ``n`` offset copies are scored as one
    ``(n + 1)``-row batch, with L-BFGS-B's absolute step and scipy's
    fallback where that step vanishes against ``|x|``. scipy counts
    each difference row as a function evaluation and stops at the next
    iteration once the count exceeds ``maxfun``; the callback keeps that
    rule on rows. The result equals ``minimize(f, x0,
    method="L-BFGS-B")`` on the scalar objective bit for bit, and
    ``evaluations`` counts the same values.

    ``scipy.optimize`` is imported here, not at module load: only
    Vina's refinement needs it, and every pool worker and worker node
    imports this module.
    """
    from scipy.optimize import minimize

    batch = as_batch_objective(f)
    x0 = np.asarray(x0, dtype=np.float64)
    rows = np.arange(1, x0.size + 1)
    cols = np.arange(x0.size)
    evals = 0

    def value_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        sign = (x >= 0).astype(float) * 2 - 1
        h = np.where(
            (x + FD_STEP) - x == 0,
            FD_REL_STEP * sign * np.maximum(1.0, np.abs(x)),
            FD_STEP,
        )
        points = np.repeat(x[None], x.size + 1, axis=0)
        points[rows, cols] = x + h
        energies = np.asarray(batch.evaluate_batch(points), dtype=np.float64)
        evals += len(points)
        return energies[0], (energies[1:] - energies[0]) / ((x + h) - x)

    def stop_past_cap(intermediate_result) -> None:
        if evals > MAX_EVALUATIONS:
            raise StopIteration

    res = minimize(
        value_and_gradient,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=stop_past_cap,
        options={"maxiter": max_iterations, "ftol": 1e-6},
    )
    return LocalSearchResult(
        vector=np.asarray(res.x), energy=float(res.fun), evaluations=evals
    )
