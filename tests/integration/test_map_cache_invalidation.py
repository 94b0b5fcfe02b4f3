"""Map-cache keys and invalidation (CI smoke).

Persisted ``.npz`` map bundles are content-addressed by the prepared
receptor, the grid geometry, the map roster, the force-field
fingerprint and the array layout. The contract: the keys of existing
caches move only when what the bundle holds or how it lays it out
changes, unchanged parameters hit the disk cache across runs, a
different grid re-keys the bundle and forces a rebuild, and a bundle of
an older layout is rebuilt, never read.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import activities
from repro.core.activities import (
    MAP_BUILDS,
    MAP_CACHE_HITS,
    reset_map_counters,
)
from repro.core.datasets import pair_relation
from repro.core.scidock import SciDockConfig, run_scidock
from repro.docking.autodock import AD4Parameters
from repro.docking.autogrid import GridError, grid_maps_from_arrays
from repro.docking.ga import GAConfig
from repro.docking.scoring_vina import vina_maps_from_arrays

SMOKE_AD4 = AD4Parameters(
    ga_runs=1,
    ga=GAConfig(population_size=8, generations=2, local_search_steps=4),
    final_refine_steps=10,
)

#: Bundle keys of 2HHN under the default box (grid spacing 0.6) in the
#: one-array ``planes`` layout. A change here orphans every existing map
#: cache.
PINNED_KEYS = {
    "ad4maps": "5b3d87bc0f93ac3d528ef5ffd0719eef",
    "vinamaps": "704f6632965beb26eb2e12abdb1394e7",
}

#: The same bundles' keys before the layout joined the key, when each
#: map was its own array. Caches written then must not be found.
ONE_ARRAY_PER_MAP_KEYS = {
    "ad4maps": "83151562c2365bf026801aa7bc6298cd",
    "vinamaps": "63e7eeb94affd171ee4e2dd2129d87f9",
}


class _KeyCaptured(Exception):
    pass


class _KeyProbe:
    """Stands in for the disk cache: reports the key, builds nothing."""

    def __init__(self, cache_dir: str) -> None:
        pass

    def get_or_build(self, kind, key, build, label=None):
        raise _KeyCaptured(kind, key)


@pytest.mark.parametrize(
    "maps_for",
    [activities._grid_maps_for, activities._vina_maps_for],
    ids=["ad4", "vina"],
)
def test_bundle_keys_are_pinned(maps_for, monkeypatch):
    monkeypatch.setattr(activities, "DiskMapCache", _KeyProbe)
    context = SciDockConfig().context()
    context["map_cache_dir"] = "unused"
    with pytest.raises(_KeyCaptured) as captured:
        maps_for("2HHN", context, activities._caches(context))
    kind, key = captured.value.args
    assert key == PINNED_KEYS[kind]
    assert key != ONE_ARRAY_PER_MAP_KEYS[kind]


def _one_array_per_map_bundle(box) -> tuple[dict, dict[str, np.ndarray]]:
    """An AD4 bundle as written before the planes layout (all zeros)."""
    types = sorted(activities.STANDARD_MAP_TYPES)
    meta = {"box": box.to_dict(), "receptor_name": "2HHN", "atom_types": types}
    arrays = {f"affinity/{t}": np.zeros(box.shape) for t in types}
    arrays["electrostatic"] = np.zeros(box.shape)
    arrays["desolvation"] = np.zeros(box.shape)
    return meta, arrays


def test_old_layout_cache_file_is_rebuilt(tmp_path):
    cache_dir = tmp_path / "mapcache"
    cache_dir.mkdir()
    context = SciDockConfig().context()
    context["map_cache_dir"] = str(cache_dir)
    caches = activities._caches(context)
    box = activities._box_for("2HHN", context, caches)
    meta, arrays = _one_array_per_map_bundle(box)
    old = cache_dir / f"ad4maps-{ONE_ARRAY_PER_MAP_KEYS['ad4maps']}.npz"
    np.savez(old, __meta__=np.array(json.dumps(meta)), **arrays)
    before = old.read_bytes()

    reset_map_counters()
    maps = activities._grid_maps_for("2HHN", context, caches)
    assert MAP_BUILDS["ad4:2HHN"] == 1 and not MAP_CACHE_HITS["disk"]
    assert np.any(maps.planes) and np.any(maps.electrostatic)
    assert old.read_bytes() == before
    bundles = sorted(n for n in os.listdir(cache_dir) if n.endswith(".npz"))
    assert bundles == sorted([old.name, f"ad4maps-{PINNED_KEYS['ad4maps']}.npz"])


@pytest.mark.parametrize(
    "from_arrays", [grid_maps_from_arrays, vina_maps_from_arrays], ids=["ad4", "vina"]
)
def test_old_layout_bundle_is_refused(from_arrays):
    # An old bundle that still reached a reader (say, a stale exchange
    # blob saved under a current key) fails instead of being misread.
    box = activities.GridBox(center=np.zeros(3), npts=(2, 2, 2), spacing=1.0)
    meta, arrays = _one_array_per_map_bundle(box)
    with pytest.raises(GridError, match="layout"):
        from_arrays(meta, arrays)


def _run(cache_dir: str, **overrides) -> None:
    pairs = pair_relation(receptors=["2HHN"], ligands=["0E6"])
    config = SciDockConfig(
        scenario="ad4",
        workers=2,
        backend="threads",
        shared_maps=False,
        map_cache=cache_dir,
        ad4_params=SMOKE_AD4,
        **overrides,
    )
    report, _ = run_scidock(pairs, config)
    assert report.succeeded


@pytest.fixture()
def cache_dir(tmp_path) -> str:
    return str(tmp_path / "mapcache")


class TestMapCacheInvalidation:
    def test_hit_then_respacing_miss(self, cache_dir):
        # Cold run populates the disk cache.
        reset_map_counters()
        _run(cache_dir)
        assert sum(MAP_BUILDS.values()) == 1

        # Identical parameters: disk hit, no rebuild.
        reset_map_counters()
        _run(cache_dir)
        assert sum(MAP_BUILDS.values()) == 0
        assert MAP_CACHE_HITS["disk"] >= 1

        # A different grid spacing changes the box: new key, rebuild.
        reset_map_counters()
        _run(cache_dir, grid_spacing=0.7)
        assert sum(MAP_BUILDS.values()) == 1
