"""Integration tests for the performance experiment harness (Figs 5-9)."""

import numpy as np
import pytest

from repro.perf.cost_model import ActivityCostModel
from repro.perf.experiments import CoreSweepResult, run_core_sweep, run_single_scale
from repro.provenance.queries import activation_durations, query1_activity_statistics
from repro.workflow.scheduler import RoundRobinScheduler

SMALL = dict(n_pairs=60, failure_rate=0.05)


@pytest.fixture(scope="module")
def sweep():
    return run_core_sweep(scenario="ad4", core_counts=(2, 8, 32), **SMALL)


class TestSingleScale:
    def test_returns_result(self):
        res = run_single_scale(4, scenario="ad4", **SMALL)
        assert res.cores == 4
        assert res.tet_seconds > 0
        assert res.report.total_activations >= 60 * 8 - 60  # minus blocked tail

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            run_single_scale(0)

    def test_deterministic(self):
        a = run_single_scale(4, scenario="ad4", **SMALL)
        b = run_single_scale(4, scenario="ad4", **SMALL)
        assert a.tet_seconds == b.tet_seconds

    def test_failures_recorded(self):
        res = run_single_scale(8, scenario="ad4", n_pairs=60, failure_rate=0.15)
        assert res.report.retried > 0
        assert res.report.counts.get("FAILED", 0) > 0

    def test_mercury_receptors_blocked(self):
        # The 238-receptor sweep includes Hg receptors; their pipelines
        # stop at receptor preparation.
        res = run_single_scale(8, scenario="ad4", n_pairs=238, failure_rate=0.0)
        assert res.report.blocked > 0

    def test_provenance_activity_stats(self):
        res = run_single_scale(8, scenario="ad4", **SMALL)
        stats = {s.tag: s for s in query1_activity_statistics(res.store, res.report.wkfid)}
        assert "docking" in stats
        # Docking dominates (paper Fig. 6).
        assert stats["docking"].avg > stats["babel"].avg

    def test_durations_histogram_heterogeneous(self):
        """Fig. 5: activation durations form a heterogeneous distribution."""
        res = run_single_scale(8, scenario="ad4", **SMALL)
        durations = activation_durations(res.store, res.report.wkfid)
        assert len(durations) > 300
        assert np.std(durations) > 0.5 * np.mean(durations) * 0.1  # non-degenerate


class TestCoreSweep:
    def test_tet_monotone_decreasing(self, sweep):
        tets = sweep.tets
        assert all(b < a for a, b in zip(tets, tets[1:]))

    def test_speedup_near_linear_to_8(self, sweep):
        sp = dict(zip(sweep.core_counts, sweep.speedups()))
        assert sp[2] == pytest.approx(2.0)
        assert sp[8] > 6.0

    def test_speedup_near_linear_to_32_with_enough_load(self):
        # 32 cores only stay saturated with a big enough backlog; the
        # 60-pair fixture drains too fast (a real small-scale effect).
        sweep = run_core_sweep(
            scenario="ad4", core_counts=(2, 32), n_pairs=300, failure_rate=0.05
        )
        assert sweep.speedups()[-1] > 24.0

    def test_efficiency_declines_at_scale(self):
        sweep = run_core_sweep(scenario="ad4", core_counts=(2, 32, 128), **SMALL)
        eff = dict(zip(sweep.core_counts, sweep.efficiencies()))
        assert eff[128] < eff[32]

    def test_improvement_at_32_cores_matches_paper_band(self):
        """Paper: 95.4% (AD4) improvement at 32 cores vs the 2-core run."""
        sweep = run_core_sweep(scenario="ad4", core_counts=(2, 32), n_pairs=200, failure_rate=0.1)
        imp = sweep.improvements()[-1]
        assert 88.0 < imp < 98.0

    def test_vina_faster_than_ad4(self):
        ad4 = run_core_sweep(scenario="ad4", core_counts=(8,), **SMALL)
        vina = run_core_sweep(scenario="vina", core_counts=(8,), **SMALL)
        assert vina.tets[0] < ad4.tets[0]

    def test_baseline_is_smallest_core_count(self, sweep):
        assert sweep.baseline().cores == 2

    def test_round_robin_scheduler_usable(self):
        sweep = run_core_sweep(
            scenario="ad4", core_counts=(8,), scheduler=RoundRobinScheduler(), **SMALL
        )
        assert sweep.tets[0] > 0

    def test_result_container(self, sweep):
        assert isinstance(sweep, CoreSweepResult)
        assert sweep.scenario == "ad4"
        assert len(sweep.points) == 3


class TestExactCounts:
    """The simulator's counts, pinned exactly.

    Failures are a hash of (lineage key, attempt) and blocking/looping
    are per-tuple predicates, so none of these may depend on dispatch
    order, scheduling overhead or retry placement. ``bytes_written`` is
    a float sum: its last bits depend on summation order, so it is
    pinned to a relative 1e-12.
    """

    def test_adaptive_with_failures(self):
        report = run_single_scale(
            16, scenario="adaptive", n_pairs=150, failure_rate=0.1
        ).report
        assert (report.retried, report.blocked, report.aborted) == (117, 7, 0)
        assert report.timeouts == 0
        assert report.total_activations == 1165
        assert len(report.output) == 143
        assert report.counts == {"BLOCKED": 7, "FAILED": 117, "FINISHED": 1158}
        assert report.bytes_written == pytest.approx(8423838828.157244, rel=1e-12)

    def test_adaptive_watchdog_only(self):
        report = run_single_scale(
            16, scenario="adaptive", n_pairs=238, failure_rate=0.0,
            block_known_loopers=False,
        ).report
        assert (report.retried, report.blocked, report.aborted) == (0, 0, 9)
        assert report.timeouts == 9
        assert report.total_activations == 1859
        assert len(report.output) == 229
        assert report.counts == {"ABORTED": 9, "FINISHED": 1850}
        assert report.bytes_written == pytest.approx(13540583583.112185, rel=1e-12)
