"""Activation scheduling over heterogeneous VM cores.

SciCumulus uses a *weighted cost model with a greedy algorithm*: long
activations go to more powerful cores, short ones to weaker cores. The
paper observes that the greedy plan computation itself becomes expensive
as activations x VMs grows — the cause of the 32 -> 128-core efficiency
decay (Fig. 9) — so the scheduler models that overhead explicitly.

The ready queue pops by job priority in O(log n) per dispatch; the
simulated plane puts each item on the free core of highest priority and
charges the overhead once per dispatch round. :meth:`Scheduler.assign`
offers the equivalent batch semantics for tests and offline planning.

A round-robin baseline is provided for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.cloud.cluster import CoreHandle


@dataclass(frozen=True)
class PendingActivation:
    """What the scheduler sees: a key, an expected cost, an arrival index."""

    key: str
    expected_cost: float
    arrival: int = 0


class Scheduler(Protocol):
    """Assigns pending activations to free cores."""

    def job_priority(self, pending: PendingActivation) -> float:
        """Higher dispatches first."""
        ...  # pragma: no cover

    def core_priority(self, core: CoreHandle) -> float:
        """Higher receives the highest-priority job."""
        ...  # pragma: no cover

    def overhead_seconds(self, n_ready: int, n_total_cores: int) -> float:
        """Plan-computation cost charged per scheduling round."""
        ...  # pragma: no cover


class _AssignMixin:
    """Batch assignment derived from the priority interface."""

    def assign(
        self,
        ready: Sequence[PendingActivation],
        free_cores: Sequence[CoreHandle],
    ) -> list[tuple[PendingActivation, CoreHandle]]:
        jobs = sorted(ready, key=self.job_priority, reverse=True)  # type: ignore[attr-defined]
        cores = sorted(free_cores, key=self.core_priority, reverse=True)  # type: ignore[attr-defined]
        return list(zip(jobs, cores))


@dataclass
class GreedyCostScheduler(_AssignMixin):
    """SciCumulus' native scheduler.

    Assignment: the longest-expected activation goes to the fastest free
    core ("short-term activities to less powerful VMs, long-term
    activities to more powerful VMs"). The expected cost may come from
    the static activity table or — when the engine runs with an
    :class:`~repro.perf.online_cost.OnlineCostService` — from learned
    per-activity, per-size-class service-time estimates.

    Overhead: each scheduling round costs
    ``base + per_pair * n_ready * n_total_cores`` seconds, reflecting the
    greedy plan search whose space grows with (queue x VMs); the
    bilinear term reproduces the paper's efficiency decay from 32 to
    128 cores while staying cheap to simulate.
    """

    base_overhead: float = 0.02
    per_pair_overhead: float = 1.0e-4

    def job_priority(self, pending: PendingActivation) -> float:
        return pending.expected_cost

    def core_priority(self, core: CoreHandle) -> float:
        return core.speed

    def overhead_seconds(self, n_ready: int, n_total_cores: int) -> float:
        return self.base_overhead + self.per_pair_overhead * n_ready * n_total_cores


@dataclass
class RoundRobinScheduler(_AssignMixin):
    """Naive baseline: FIFO activations onto cores in listed order."""

    base_overhead: float = 0.002

    def job_priority(self, pending: PendingActivation) -> float:
        return -float(pending.arrival)  # earliest arrival first

    def core_priority(self, core: CoreHandle) -> float:
        return 0.0  # any core

    def overhead_seconds(self, n_ready: int, n_total_cores: int) -> float:
        return self.base_overhead
