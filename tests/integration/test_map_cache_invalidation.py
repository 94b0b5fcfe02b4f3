"""Map-cache keys and invalidation (CI smoke).

Persisted ``.npz`` map bundles are content-addressed by the prepared
receptor, the grid geometry, the map roster and the force-field
fingerprint. The contract: the keys of existing caches never move,
unchanged parameters hit the disk cache across runs, and a different
grid re-keys the bundle and forces a rebuild.
"""

from __future__ import annotations

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
from repro.docking.ga import GAConfig

SMOKE_AD4 = AD4Parameters(
    ga_runs=1,
    ga=GAConfig(population_size=8, generations=2, local_search_steps=4),
    final_refine_steps=10,
)

#: Bundle keys of 2HHN under the default box (grid spacing 0.6), as
#: persisted by every earlier release. A change here orphans every
#: existing map cache.
PINNED_KEYS = {
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
