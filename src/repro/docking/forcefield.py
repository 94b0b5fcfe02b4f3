"""AD4 force-field pairwise parameter tables.

Precomputes, for every ordered pair of AutoDock atom types, the 12-6
Lennard-Jones (or 12-10 hydrogen-bond) coefficients and the desolvation
constants used by both AutoGrid map generation and direct scoring. The
tables are cached at module level — they are pure functions of the static
type registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.chem.elements import AUTODOCK_TYPES, AutoDockType

# AD4.1 free-energy coefficient weights (Huey et al. 2007).
FE_COEFF_VDW = 0.1662
FE_COEFF_HBOND = 0.1209
FE_COEFF_ESTAT = 0.1406
FE_COEFF_DESOLV = 0.1322
FE_COEFF_TORS = 0.2983

#: Nonbonded interaction cutoff in Angstrom (AutoGrid's NBC).
NB_CUTOFF = 8.0

#: Force-field fingerprint for content-addressed map caches: any change
#: to the free-energy weights or cutoff must invalidate persisted maps.
FF_VERSION = (
    f"ad4.1/vdw={FE_COEFF_VDW}/hb={FE_COEFF_HBOND}/es={FE_COEFF_ESTAT}"
    f"/ds={FE_COEFF_DESOLV}/tors={FE_COEFF_TORS}/cut={NB_CUTOFF}"
)

#: Solvation sigma for the Gaussian desolvation envelope.
DESOLV_SIGMA = 3.6

#: Mehler-Solmajer distance-dependent dielectric parameters.
_MS_A, _MS_B, _MS_LAMBDA, _MS_K = -8.5525, 86.9525, 0.003627, 7.7839
_ELECSCALE = 332.06363  # (e^2/A) -> kcal/mol


@dataclass(frozen=True)
class PairParams:
    """LJ/H-bond coefficients for one atom-type pair.

    Energy model: ``E(r) = cA / r^m - cB / r^n`` with (m, n) = (12, 6) for
    dispersion pairs and (12, 10) for donor-acceptor hydrogen bonds.
    """

    cA: float
    cB: float
    m: int
    n: int
    is_hbond: bool

    @property
    def req(self) -> float:
        """Equilibrium (minimum-energy) separation in Angstrom."""
        if self.cB <= 0:
            return 0.0
        # dE/dr = 0  =>  r^(m-n) = (m cA) / (n cB)
        return float((self.m * self.cA / (self.n * self.cB)) ** (1.0 / (self.m - self.n)))


def _is_hbond_pair(ti: AutoDockType, tj: AutoDockType) -> bool:
    return (ti.is_donor and tj.is_acceptor) or (ti.is_acceptor and tj.is_donor)


@lru_cache(maxsize=None)
def pair_params(type_i: str, type_j: str) -> PairParams:
    """Coefficients for the (type_i, type_j) pair, symmetric and cached."""
    try:
        ti, tj = AUTODOCK_TYPES[type_i], AUTODOCK_TYPES[type_j]
    except KeyError as exc:
        raise KeyError(f"unknown AutoDock type: {exc}") from None
    # Lorentz-Berthelot style combination on AD4's Rii/epsii tables.
    req = 0.5 * (ti.rii + tj.rii)
    eps = float(np.sqrt(ti.epsii * tj.epsii))
    if _is_hbond_pair(ti, tj):
        # 12-10 potential with AD4's canonical H-bond well depth of 5
        # kcal/mol at the donor-acceptor equilibrium distance 1.9 A.
        req_hb, eps_hb = 1.9, 5.0
        m, n = 12, 10
        cA = eps_hb / (m - n) * n * req_hb**m
        cB = eps_hb / (m - n) * m * req_hb**n
        return PairParams(cA=cA, cB=cB, m=m, n=n, is_hbond=True)
    m, n = 12, 6
    cA = eps / (m - n) * n * req**m
    cB = eps / (m - n) * m * req**n
    return PairParams(cA=cA, cB=cB, m=m, n=n, is_hbond=False)


#: AD4's EINTCLAMP: per-pair repulsion ceiling (kcal/mol, unweighted).
EINTCLAMP = 100000.0

#: Per-pair electrostatic magnitude ceiling (kcal/mol, unweighted); keeps
#: the r -> 0 Coulomb singularity from dominating the clamped vdW wall.
ESTAT_CLAMP = 300.0


#: AutoGrid's potential smoothing half-width ("smooth 0.5" => 0.25 A).
SMOOTH_RADIUS = 0.25


def vdw_energy(
    r: np.ndarray,
    params: PairParams,
    smooth_clamp: float = EINTCLAMP,
    smooth_radius: float = SMOOTH_RADIUS,
) -> np.ndarray:
    """Pairwise LJ/H-bond energy, AutoGrid-smoothed and EINTCLAMP-ed.

    AutoGrid replaces E(r) with the *minimum of E over the window*
    ``[r - s, r + s]``: below the equilibrium distance that is
    ``E(r + s)``, above it ``E(r - s)``, and inside the window the well
    bottom itself — widening basins so the GA landscape is less brittle.
    """
    r = np.maximum(np.asarray(r, dtype=np.float64), 0.01)
    if smooth_radius > 0.0:
        req = params.req
        r = np.where(
            r < req - smooth_radius,
            r + smooth_radius,
            np.where(r > req + smooth_radius, r - smooth_radius, req),
        )
    e = params.cA / r**params.m - params.cB / r**params.n
    return np.minimum(e, smooth_clamp)


def mehler_solmajer_dielectric(r: np.ndarray) -> np.ndarray:
    """Distance-dependent dielectric eps(r) (Mehler & Solmajer 1991)."""
    r = np.asarray(r, dtype=np.float64)
    lam_B = _MS_LAMBDA * _MS_B
    return _MS_A + _MS_B / (1.0 + _MS_K * np.exp(-lam_B * r))


def coulomb_energy(r: np.ndarray, qi: float | np.ndarray, qj: float | np.ndarray) -> np.ndarray:
    """Screened electrostatic energy in kcal/mol, magnitude-clamped."""
    r = np.maximum(np.asarray(r, dtype=np.float64), 0.01)
    eps = mehler_solmajer_dielectric(r)
    e = _ELECSCALE * np.asarray(qi) * np.asarray(qj) / (eps * r)
    return np.clip(e, -ESTAT_CLAMP, ESTAT_CLAMP)


def desolvation_envelope(r: np.ndarray) -> np.ndarray:
    """Gaussian distance envelope ``exp(-r^2 / 2 sigma^2)`` of desolvation."""
    r = np.asarray(r, dtype=np.float64)
    return np.exp(-(r**2) / (2.0 * DESOLV_SIGMA**2))


def solvation_parameter(
    adtype: str, q: float | np.ndarray = 0.0, qsolpar: float = 0.01097
) -> float | np.ndarray:
    """Charge-dependent atomic solvation parameter ``solpar + qsolpar |q|``."""
    return AUTODOCK_TYPES[adtype].solpar + qsolpar * np.abs(np.asarray(q))


def pair_desolvation(
    type_i: str,
    type_j: str,
    si: float | np.ndarray,
    sj: float | np.ndarray,
    envelope: np.ndarray,
) -> np.ndarray:
    """AD4 pair desolvation from solvation parameters and the envelope."""
    ti, tj = AUTODOCK_TYPES[type_i], AUTODOCK_TYPES[type_j]
    return (si * tj.vol + sj * ti.vol) * envelope


def desolvation_energy(
    r: np.ndarray,
    type_i: str,
    type_j: str,
    qi: float | np.ndarray = 0.0,
    qj: float | np.ndarray = 0.0,
    qsolpar: float = 0.01097,
) -> np.ndarray:
    """AD4 desolvation term with the Gaussian distance envelope."""
    return pair_desolvation(
        type_i,
        type_j,
        solvation_parameter(type_i, qi, qsolpar),
        solvation_parameter(type_j, qj, qsolpar),
        desolvation_envelope(r),
    )


@lru_cache(maxsize=None)
def type_index() -> dict[str, int]:
    """Stable integer index for every AutoDock type (for array lookups)."""
    return {name: i for i, name in enumerate(sorted(AUTODOCK_TYPES))}


@lru_cache(maxsize=None)
def coefficient_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense (T, T) matrices (cA, cB, n-exponent, hbond-flag, and m=12).

    Used by the vectorized Vina/AD4 direct scoring paths to avoid Python
    dict lookups inside the pairwise kernels.
    """
    idx = type_index()
    T = len(idx)
    cA = np.zeros((T, T))
    cB = np.zeros((T, T))
    n_exp = np.full((T, T), 6.0)
    hb = np.zeros((T, T), dtype=bool)
    m_exp = np.full((T, T), 12.0)
    for name_i, i in idx.items():
        for name_j, j in idx.items():
            p = pair_params(name_i, name_j)
            cA[i, j] = p.cA
            cB[i, j] = p.cB
            n_exp[i, j] = p.n
            hb[i, j] = p.is_hbond
    return cA, cB, n_exp, hb, m_exp
