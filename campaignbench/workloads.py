"""The three SciDock campaigns the benchmark runs, and their references.

A workload fixes *how* a campaign runs (backend, routing scenario,
search budget, map-cache temperature, store). *What* it docks comes
from a variant: a receptor/ligand pick drawn from Table 2 within the
workload's class mix, plus the ``SciDockConfig.seed``. Variants are
recorded once by ``record.py`` together with every pair's reference
outcome; the benchmark's ``--seed`` selects one of them
(``seed mod len(variants)``), so the same seed always docks the same
pairs and every run can be checked pair by pair.

This module imports nothing from ``repro`` at load time: the benchmark
parent must run where the program is missing (and then fail), and the
campaign child times the ``repro`` import as part of set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

@dataclass(frozen=True)
class Workload:
    """How a campaign runs; BENCHMARK.json says why each one exists."""

    name: str
    backend: str
    scenario: str
    #: Worker slots in total (threads, pool processes, or nodes x 1).
    slots: int
    #: Maps are prefilled into the disk cache during set-up.
    warm: bool
    #: File-backed provenance store (durable journal) instead of memory.
    file_store: bool
    #: AD4 search budget: "fast" (the CLI default) or "triage".
    ad4_budget: str = "fast"
    #: Distributed wire settings (ignored on local backends).
    batch_size: int = 1
    compress_frames: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep_cold",
            backend="threads",
            scenario="adaptive",
            slots=2,
            warm=False,
            file_store=False,
        ),
        Workload(
            name="library_warm",
            backend="processes",
            scenario="ad4",
            slots=2,
            warm=True,
            file_store=False,
        ),
        Workload(
            name="triage_dist",
            backend="distributed",
            scenario="ad4",
            slots=2,
            warm=True,
            file_store=True,
            ad4_budget="triage",
            batch_size=8,
            compress_frames=True,
        ),
    )
}


# -- candidate campaigns (used when recording references) ---------------------
#
# Pools are bands of Table 2 chosen so that candidates cost about the
# same: map-build time and memory grow with a receptor's atom count times
# its grid points, and search time with the ligand's size and torsions.
# record.py then keeps the candidates whose measured times sit closest
# to the median.

#: Small receptors (routed to AD4) with one grid size (30^3 points) and
#: 538-678 atoms.
SMALL_BAND = (
    "1CSB", "2PNS", "2P7U", "3PNR", "1CVZ", "1FH0", "2YJC", "1NPZ",
)
#: Large receptors (routed to Vina) with 30^3 grids and 1051-1118 atoms.
#: A sweep's one large receptor sets its critical path (prep, AutoGrid,
#: Vina maps, Vina search run back to back), so they must cost the same.
SWEEP_LARGE = ("3O1G", "1KHQ", "1AEC", "1ME4")
#: The sweep's ligand: on the critical path too (one Vina search per
#: large receptor), so it is fixed.
SWEEP_LIGAND = "4PR"
#: Mercury-bearing receptors: prepare_receptor loops on them, so the
#: engine blocks them (the paper's looping-activation abort).
HG_RECEPTORS = (
    "1BP4", "1F29", "1NQC", "2ACT", "2DC8", "2XU4", "2XU5", "3S3R", "4AXM",
)
#: Ligands whose FAST_AD4 docking takes 0.33-0.49 s on one core.
LIBRARY_LIGANDS = (
    "042", "074", "015", "0IW", "0PC", "186", "23Z", "25B", "3FC", "599",
    "59A", "75V", "76V", "77B", "78A", "ACY",
)


def _all_ligands() -> tuple[str, ...]:
    from repro.core.datasets import CP_LIGANDS

    return CP_LIGANDS


def candidate(workload: str, index: int) -> dict:
    """Candidate campaign ``index`` of a workload (deterministic)."""
    rng = random.Random(f"{workload}:{index}")
    if workload == "sweep_cold":
        receptors = (
            [rng.choice(SWEEP_LARGE)]
            + rng.sample(SMALL_BAND, 3)
            + [rng.choice(HG_RECEPTORS)]
        )
        ligands = [SWEEP_LIGAND]
    elif workload == "library_warm":
        receptors = rng.sample(SMALL_BAND, 2)
        ligands = rng.sample(LIBRARY_LIGANDS, 10)
    elif workload == "triage_dist":
        receptors = rng.sample(SMALL_BAND, 3)
        ligands = rng.sample(_all_ligands(), len(_all_ligands()))
    else:
        raise KeyError(workload)
    return {
        "candidate": index,
        "seed": index,
        "receptors": receptors,
        "ligands": ligands,
    }


# -- recorded variants ---------------------------------------------------------
def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def variant_for(workload: str, seed: int, reference: dict | None = None) -> dict:
    """The recorded variant the benchmark ``--seed`` selects."""
    reference = reference if reference is not None else load_reference()
    variants = reference[workload]["variants"]
    return variants[seed % len(variants)]


def pair_key(receptor: str, ligand: str) -> str:
    return f"{receptor}|{ligand}"


def compare(expected: dict, observed: dict) -> list[str]:
    """Pairs whose observed outcome differs from the reference.

    ``expected``/``observed`` map :func:`pair_key` to
    ``{"status", "feb", "rmsd"}``. A FINISHED pair matches when FEB and
    RMSD equal the reference at the three decimals the docking activity
    reports; a BLOCKED pair matches on status alone.
    """
    bad = []
    for key, ref in expected.items():
        got = observed.get(key)
        if got is None or got.get("status") != ref["status"]:
            bad.append(key)
        elif ref["status"] == "FINISHED" and (
            got.get("feb") != ref["feb"] or got.get("rmsd") != ref["rmsd"]
        ):
            bad.append(key)
    return sorted(bad)
