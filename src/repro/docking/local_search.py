"""Local search operators: Solis-Wets (AD4) and BFGS (Vina).

Both operate on the flat conformation vector through a user-supplied
objective ``f(vector) -> float``; the engines close over their scorers.
When the objective implements the vectorized protocol
(:mod:`repro.docking.objective`), Solis-Wets evaluates the candidate
and its mirrored probe in a single batched call per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.docking.objective import supports_batch

Objective = Callable[[np.ndarray], float]


@dataclass
class LocalSearchResult:
    vector: np.ndarray
    energy: float
    evaluations: int


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
