"""The eight SciDock activities (paper Fig. 1), as real activations.

Each function has the workflow-engine signature ``(tuple, context) ->
[tuple]`` and mirrors one command of the original pipeline:

1. ``babel``            — SDF -> Sybyl MOL2 ligand conversion.
2. ``prepare_ligand``   — MGLTools ``prepare_ligand4.py`` -> ligand PDBQT.
3. ``prepare_receptor`` — MGLTools ``prepare_receptor4.py`` -> receptor
   PDBQT (the activity that enters a looping state on Hg receptors).
4. ``prepare_gpf``      — Grid Parameter File generation.
5. ``autogrid``         — AutoGrid map generation.
6. ``docking_filter``   — the in-house script routing small receptors to
   AD4 and large ones to Vina.
7. ``prepare_docking``  — DPF (7a, AD4) or Vina config (7b).
8. ``docking``          — AD4 or Vina execution, DLG/log emission.

Per-receptor artifacts (prepared receptor, AutoGrid maps, Vina grids)
are memoized in the run context: the real SciDock reuses them across the
42 ligands of each receptor too.

Inputs come from the deterministic structure generator, standing in for
RCSB-PDB (offline substitution; see DESIGN.md).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import Counter
from typing import Callable

import numpy as np

from repro.chem.babel import convert_molecule
from repro.chem.formats.sdf import write_sdf
from repro.chem.generate import (
    generate_ligand,
    generate_receptor,
    receptor_contains_mercury,
    receptor_size_class,
)
from repro.chem.geometry import rmsd
from repro.docking.autodock import AutoDock4
from repro.docking.autogrid import (
    MAP_LAYOUT,
    AutoGrid,
    grid_maps_from_arrays,
    grid_maps_to_arrays,
    write_fld_file,
)
from repro.docking.box import GridBox
from repro.docking.forcefield import FF_VERSION
from repro.docking.dlg import write_dlg, write_vina_log
from repro.docking.prepare import (
    prepare_dpf,
    prepare_gpf as make_gpf,
    prepare_ligand as do_prepare_ligand,
    prepare_receptor as do_prepare_receptor,
    prepare_vina_config,
)
from repro.docking.scoring_vina import (
    STANDARD_CLASSES,
    VINA_FF_VERSION,
    build_vina_maps,
    vina_maps_from_arrays,
    vina_maps_to_arrays,
)
from repro.docking.vina import Vina
from repro.workflow.artifacts import DiskMapCache, attach_cached, run_state

#: Map atom types SciDock requests from AutoGrid: the union every
#: generated ligand can need, so maps are computed once per receptor.
STANDARD_MAP_TYPES: tuple[str, ...] = ("C", "A", "N", "NA", "OA", "SA", "S", "HD", "H")


class KeyedCache:
    """Thread-safe build-once-per-key memo (receptor artifacts)."""

    def __init__(self) -> None:
        self._data: dict = {}
        self._locks: dict = {}
        self._guard = threading.Lock()

    def get_or_build(self, key, builder: Callable[[], object]):
        with self._guard:
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            if key not in self._data:
                self._data[key] = builder()
            return self._data[key]


def _new_caches() -> dict:
    return {
        "ligand": KeyedCache(),
        "ligand_prep": KeyedCache(),
        "receptor_prep": KeyedCache(),
        "receptor_meta": KeyedCache(),
        "maps": KeyedCache(),
        "vina_maps": KeyedCache(),
    }


def _caches(context: dict) -> dict:
    """Resolve this activation's artifact caches.

    Engine-backend workers receive a fresh context dict per activation,
    so ``context.setdefault`` cannot carry artifacts across activations.
    The per-run ``cache_token`` instead keys worker-side state held in
    :mod:`repro.workflow.artifacts` — which the engine explicitly drops
    at run end, so long-lived worker pools never accumulate dead runs'
    receptors and maps (tokens are unique per run, so runs with
    different grid spacing or preparation settings stay isolated).
    """
    token = context.get("cache_token")
    if token is not None:
        state = run_state(token)
        caches = state.get("caches")
        if caches is None:
            # dict.setdefault is atomic under the GIL; losers adopt the
            # winner's cache dict.
            caches = state.setdefault("caches", _new_caches())
        return caches
    return context.setdefault("caches", _new_caches())


# -- map-build accounting ----------------------------------------------------

#: Per-process map-build counters: ``f"{kind}:{receptor}" -> builds``.
#: The cross-process source of truth for a shared run is the artifact
#: plane's event log (``ExecutionReport.artifact_stats``); these counters
#: cover the threads backend and single-process benchmarks.
MAP_BUILDS: Counter = Counter()
#: Per-process cache-hit counters by source: ``shm`` / ``disk`` / ``memo``.
MAP_CACHE_HITS: Counter = Counter()
_MAP_STATS_GUARD = threading.Lock()


def reset_map_counters() -> None:
    with _MAP_STATS_GUARD:
        MAP_BUILDS.clear()
        MAP_CACHE_HITS.clear()


def _note_map_event(kind: str, rec_id: str, source: str) -> None:
    with _MAP_STATS_GUARD:
        if source == "built":
            MAP_BUILDS[f"{kind}:{rec_id}"] += 1
        else:
            MAP_CACHE_HITS[source] += 1


def _map_store(context: dict):
    """The cross-process/persistent map store for this run, if any.

    An attached :class:`~repro.workflow.artifacts.ArtifactPlane` when the
    engine shipped a plane handle (its disk tier rides inside), else a
    bare :class:`DiskMapCache` when only ``--map-cache`` was given, else
    ``None`` (per-process memoization only).
    """
    handle = context.get("artifact_plane")
    if handle is not None:
        return attach_cached(handle)
    cache_dir = context.get("map_cache_dir")
    if cache_dir:
        return DiskMapCache(cache_dir)
    return None


def _bundle_key(pdbqt: str, box: GridBox, terms: tuple[str, ...], version: str) -> str:
    """Content address of a map bundle.

    Hashes the prepared receptor text (coordinates, types, charges), the
    exact grid geometry, the map-type/probe-class roster, the
    force-field fingerprint and the array layout — any input that
    changes the numbers in the maps or where they sit changes the key,
    so a bundle of another layout (an old cache file, an old exchange
    blob) is rebuilt, never misread.
    """
    h = hashlib.sha256()
    h.update(pdbqt.encode())
    h.update(json.dumps(box.to_dict(), sort_keys=True).encode())
    h.update("|".join(terms).encode())
    h.update(version.encode())
    h.update(MAP_LAYOUT.encode())
    return h.hexdigest()[:32]


def _fs_write(context: dict, path: str, text: str) -> tuple[str, int, str]:
    """Write through the shared FS when present; returns a file record."""
    fs = context.get("fs")
    if fs is not None:
        fs.write_text(path, text)
    fname = path.rsplit("/", 1)[-1]
    fdir = path[: len(path) - len(fname)]
    return (fname, len(text.encode()), fdir or "./")


def _expdir(context: dict) -> str:
    return context.get("expdir", "/root/exp_SciDock").rstrip("/")


# --------------------------------------------------------------------------
# Activity 1: Babel (ligand SDF -> MOL2)
# --------------------------------------------------------------------------
def babel(tup: dict, context: dict) -> list[dict]:
    caches = _caches(context)
    lig_id = tup["ligand_id"]
    ligand = caches["ligand"].get_or_build(lig_id, lambda: generate_ligand(lig_id))
    sdf_text = write_sdf(ligand)
    mol2_text = convert_molecule(ligand, "mol2")
    base = f"{_expdir(context)}/babel/{lig_id}"
    files = [
        _fs_write(context, f"{base}/{lig_id}.sdf", sdf_text),
        _fs_write(context, f"{base}/{lig_id}.mol2", mol2_text),
    ]
    out = dict(tup)
    out["ligand_mol2"] = f"{base}/{lig_id}.mol2"
    out["_files"] = files
    return [out]


# --------------------------------------------------------------------------
# Activity 2: prepare_ligand4.py (MOL2 -> ligand PDBQT)
# --------------------------------------------------------------------------
def prepare_ligand(tup: dict, context: dict) -> list[dict]:
    caches = _caches(context)
    lig_id = tup["ligand_id"]
    ligand = caches["ligand"].get_or_build(lig_id, lambda: generate_ligand(lig_id))
    prep = caches["ligand_prep"].get_or_build(
        lig_id, lambda: do_prepare_ligand(ligand)
    )
    base = f"{_expdir(context)}/prepare_ligand/{lig_id}"
    files = [_fs_write(context, f"{base}/{lig_id}.pdbqt", prep.pdbqt)]
    out = dict(tup)
    out["ligand_pdbqt"] = f"{base}/{lig_id}.pdbqt"
    out["torsdof"] = prep.torsdof
    out["_files"] = files
    return [out]


# --------------------------------------------------------------------------
# Activity 3: prepare_receptor4.py (PDB -> receptor PDBQT)
# --------------------------------------------------------------------------
def prepare_receptor(tup: dict, context: dict) -> list[dict]:
    caches = _caches(context)
    rec_id = tup["receptor_id"]
    prep = _receptor_prep(rec_id, caches)
    base = f"{_expdir(context)}/prepare_receptor/{rec_id}"
    files = [_fs_write(context, f"{base}/{rec_id}.pdbqt", prep.pdbqt)]
    out = dict(tup)
    out["receptor_pdbqt"] = f"{base}/{rec_id}.pdbqt"
    out["receptor_size_class"] = receptor_size_class(rec_id)
    out["_files"] = files
    return [out]


def receptor_would_loop(tup: dict) -> bool:
    """The looping predicate of activity 3: Hg-bearing receptors hang."""
    return receptor_contains_mercury(tup["receptor_id"])


# --------------------------------------------------------------------------
# Activity 4: prepare_gpf4.py (GPF generation)
# --------------------------------------------------------------------------
def prepare_gpf_activity(tup: dict, context: dict) -> list[dict]:
    caches = _caches(context)
    rec_id, lig_id = tup["receptor_id"], tup["ligand_id"]
    rec_prep = _receptor_prep(rec_id, caches)
    lig_prep = _ligand_prep(lig_id, caches)
    box = _box_for(rec_id, context, caches)
    gpf = make_gpf(rec_prep, lig_prep, box)
    base = f"{_expdir(context)}/prepare_gpf/{rec_id}"
    files = [_fs_write(context, f"{base}/{lig_id}_{rec_id}.gpf", gpf)]
    out = dict(tup)
    out["gpf"] = f"{base}/{lig_id}_{rec_id}.gpf"
    out["_files"] = files
    return [out]


def _receptor_prep(rec_id: str, caches: dict):
    return caches["receptor_prep"].get_or_build(
        rec_id, lambda: do_prepare_receptor(generate_receptor(rec_id))
    )


def _ligand_prep(lig_id: str, caches: dict):
    return caches["ligand_prep"].get_or_build(
        lig_id, lambda: do_prepare_ligand(generate_ligand(lig_id))
    )


def _pocket_for(rec_id: str, caches: dict) -> tuple[np.ndarray, float]:
    """Memoized ``(pocket_center, pocket_radius)`` of one receptor.

    Regenerating the whole receptor structure just to read two metadata
    fields dominated `_box_for`/`docking` per-activation cost; the pocket
    tuple is tiny and immutable, so it lives in the run caches.
    """

    def load() -> tuple[np.ndarray, float]:
        meta = generate_receptor(rec_id).metadata
        return np.array(meta["pocket_center"]), float(meta["pocket_radius"])

    return caches["receptor_meta"].get_or_build(rec_id, load)


def _box_for(rec_id: str, context: dict, caches: dict) -> GridBox:
    center, radius = _pocket_for(rec_id, caches)
    spacing = context.get("grid_spacing", 0.6)
    return GridBox.around_pocket(center, radius, spacing=spacing)


def _grid_maps_for(rec_id: str, context: dict, caches: dict):
    """Per-receptor AutoGrid maps via memo -> plane/shm -> disk -> build."""

    def assemble():
        rec_prep = _receptor_prep(rec_id, caches)
        box = _box_for(rec_id, context, caches)
        store = _map_store(context)
        if store is None:
            _note_map_event("ad4", rec_id, "built")
            return AutoGrid().run(rec_prep.molecule, box, STANDARD_MAP_TYPES)

        def build_bundle():
            maps = AutoGrid().run(rec_prep.molecule, box, STANDARD_MAP_TYPES)
            return grid_maps_to_arrays(maps)

        key = _bundle_key(
            rec_prep.pdbqt, box, ("ad4",) + STANDARD_MAP_TYPES, FF_VERSION
        )
        meta, arrays, source = store.get_or_build(
            "ad4maps", key, build_bundle, label=rec_id
        )
        _note_map_event("ad4", rec_id, source)
        return grid_maps_from_arrays(meta, arrays)

    return caches["maps"].get_or_build(rec_id, assemble)


def _vina_maps_for(rec_id: str, context: dict, caches: dict):
    """Per-receptor Vina grids via memo -> plane/shm -> disk -> build."""

    def assemble():
        rec_prep = _receptor_prep(rec_id, caches)
        box = _box_for(rec_id, context, caches)
        store = _map_store(context)
        if store is None:
            _note_map_event("vina", rec_id, "built")
            return build_vina_maps(rec_prep.molecule, box)

        def build_bundle():
            vmaps = build_vina_maps(rec_prep.molecule, box)
            return vina_maps_to_arrays(vmaps)

        classes = tuple(
            f"{c.radius}:{int(c.hydrophobic)}{int(c.donor)}{int(c.acceptor)}"
            for c in STANDARD_CLASSES
        )
        key = _bundle_key(
            rec_prep.pdbqt, box, ("vina",) + classes, VINA_FF_VERSION
        )
        meta, arrays, source = store.get_or_build(
            "vinamaps", key, build_bundle, label=rec_id
        )
        _note_map_event("vina", rec_id, source)
        return vina_maps_from_arrays(meta, arrays)

    return caches["vina_maps"].get_or_build(rec_id, assemble)


# --------------------------------------------------------------------------
# Activity 5: AutoGrid (coordinate map generation)
# --------------------------------------------------------------------------
def autogrid_activity(tup: dict, context: dict) -> list[dict]:
    caches = _caches(context)
    rec_id = tup["receptor_id"]
    maps = _grid_maps_for(rec_id, context, caches)
    # Cache-restored bundles drop the build log; note the provenance.
    glg = maps.log or f"autogrid4: maps for {rec_id} restored from artifact cache"
    base = f"{_expdir(context)}/autogrid/{rec_id}"
    files = [
        _fs_write(context, f"{base}/{rec_id}.maps.fld", write_fld_file(maps)),
        _fs_write(context, f"{base}/{rec_id}.glg", glg),
    ]
    out = dict(tup)
    out["maps_fld"] = f"{base}/{rec_id}.maps.fld"
    out["_files"] = files
    return [out]


# --------------------------------------------------------------------------
# Activity 6: docking filter (in-house receptor-size router)
# --------------------------------------------------------------------------
def docking_filter(tup: dict, context: dict) -> list[dict]:
    """Route each pair to AD4 (small receptors) or Vina (large ones).

    ``context['scenario']`` overrides the adaptive routing to reproduce
    the paper's Scenario I (all AD4) / Scenario II (all Vina) runs.
    """
    scenario = context.get("scenario", "adaptive")
    out = dict(tup)
    if scenario == "ad4":
        out["engine"] = "autodock4"
    elif scenario == "vina":
        out["engine"] = "vina"
    elif scenario == "adaptive":
        size = tup.get("receptor_size_class") or receptor_size_class(
            tup["receptor_id"]
        )
        out["engine"] = "vina" if size == "large" else "autodock4"
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return [out]


# --------------------------------------------------------------------------
# Activity 7: docking parameter preparation (7a DPF / 7b Vina config)
# --------------------------------------------------------------------------
def prepare_docking(tup: dict, context: dict) -> list[dict]:
    caches = _caches(context)
    rec_id, lig_id = tup["receptor_id"], tup["ligand_id"]
    rec_prep = _receptor_prep(rec_id, caches)
    lig_prep = _ligand_prep(lig_id, caches)
    seed = int(context.get("seed", 0))
    out = dict(tup)
    if tup["engine"] == "autodock4":
        text = prepare_dpf(rec_prep, lig_prep, seed=seed)
        base = f"{_expdir(context)}/prepare_dpf/{rec_id}"
        path = f"{base}/{lig_id}_{rec_id}.dpf"
        out["docking_params"] = path
    else:
        box = _box_for(rec_id, context, caches)
        text = prepare_vina_config(rec_prep, lig_prep, box, seed=seed)
        base = f"{_expdir(context)}/prepare_conf/{rec_id}"
        path = f"{base}/{lig_id}_{rec_id}.conf"
        out["docking_params"] = path
    out["_files"] = [_fs_write(context, path, text)]
    return [out]


# --------------------------------------------------------------------------
# Activity 8: molecular docking (8a AD4 / 8b Vina)
# --------------------------------------------------------------------------
def docking(tup: dict, context: dict) -> list[dict]:
    caches = _caches(context)
    rec_id, lig_id = tup["receptor_id"], tup["ligand_id"]
    engine_name = tup["engine"]
    rec_prep = _receptor_prep(rec_id, caches)
    lig_prep = _ligand_prep(lig_id, caches)
    # Stable per-pair seed offset (Python's hash() is salted per process).
    pair_digest = hashlib.sha256(f"{rec_id}|{lig_id}".encode()).digest()
    seed = int(context.get("seed", 0)) + int.from_bytes(pair_digest[:3], "little")
    pocket_center, pocket_radius = _pocket_for(rec_id, caches)

    if engine_name == "autodock4":
        maps = _grid_maps_for(rec_id, context, caches)
        engine = AutoDock4(maps, context.get("ad4_params"))
        result = engine.dock(lig_prep, seed=seed)
        log_text = write_dlg(result)
        log_name = f"{lig_id}_{rec_id}.dlg"
    elif engine_name == "vina":
        box = _box_for(rec_id, context, caches)
        vmaps = _vina_maps_for(rec_id, context, caches)
        engine = Vina(rec_prep, box, context.get("vina_params"), maps=vmaps)
        result = engine.dock(lig_prep, seed=seed)
        log_text = write_vina_log(result)
        log_name = f"{lig_id}_{rec_id}.log"
    else:
        raise ValueError(f"unknown docking engine {engine_name!r}")

    best = result.best_pose
    # Vina's reported RMSD is the mode-table spread (distance from the
    # best mode); AD4 reports RMSD from the input reference frame.
    if engine_name == "vina" and len(result.poses) > 1:
        mode_rmsd = float(
            np.mean([rmsd(p.coords, best.coords) for p in result.poses[1:]])
        )
    else:
        mode_rmsd = 0.0 if engine_name == "vina" else best.rmsd_from_input
    pose_center = best.coords.mean(axis=0)
    in_pocket = bool(
        np.linalg.norm(pose_center - pocket_center) <= pocket_radius + 2.0
    )

    base = f"{_expdir(context)}/{engine_name}/{rec_id}"
    summary = {
        "receptor": rec_id,
        "ligand": lig_id,
        "engine": engine_name,
        "feb": round(result.best_energy, 3),
        "rmsd": round(
            best.rmsd_from_input if engine_name == "autodock4" else mode_rmsd, 3
        ),
        "reference_rmsd": round(best.rmsd_from_input, 3),
        "modes": len(result.poses),
        "evaluations": result.evaluations,
        "in_pocket": in_pocket,
        "converged": in_pocket and result.best_energy < 0.0,
    }
    out = dict(tup)
    out.update(
        feb=summary["feb"],
        dock_rmsd=summary["rmsd"],
        in_pocket=in_pocket,
        converged=summary["converged"],
    )
    out["_files"] = [_fs_write(context, f"{base}/{log_name}", log_text)]
    out["_extract_payload"] = json.dumps(summary)
    return [out]
