"""Virtual cluster: the pool of VM cores the scheduler dispatches onto.

Mirrors the paper's setup: a mix of m3.xlarge and m3.2xlarge instances
totalling a target core count (2 .. 128), with elastic ``scale_to``
for SciCumulus' adaptive execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.instance import INSTANCE_CATALOG, InstanceType, M3_2XLARGE, M3_XLARGE
from repro.cloud.provider import CloudProvider, ProviderError, VirtualMachine, VMState


@dataclass(frozen=True)
class CoreHandle:
    """One schedulable core: (vm, index) with its relative speed."""

    vm_id: str
    core_index: int
    speed: float
    instance_type: str


class VirtualCluster:
    """Elastic pool of cores built from catalog instances.

    ``plan_mix`` chooses how a core target is met: the paper combines
    m3.xlarge (4c) and m3.2xlarge (8c); we fill with the big instances
    first and top up with the small ones, matching "up to 32 VMs /
    128 virtual cores".
    """

    def __init__(self, provider: CloudProvider, tags: dict | None = None) -> None:
        self.provider = provider
        self.tags = dict(tags or {})
        self._vms: list[VirtualMachine] = []

    @staticmethod
    def plan_mix(target_cores: int) -> list[InstanceType]:
        """Instance mix whose cores sum to >= target (greedy big-first)."""
        if target_cores < 1:
            raise ValueError("target_cores must be >= 1")
        plan: list[InstanceType] = []
        remaining = target_cores
        while remaining >= M3_2XLARGE.cores:
            plan.append(M3_2XLARGE)
            remaining -= M3_2XLARGE.cores
        while remaining > 0:
            plan.append(M3_XLARGE)
            remaining -= M3_XLARGE.cores
        return plan

    # -- elasticity -------------------------------------------------------
    def scale_to(self, target_cores: int, keep=frozenset()) -> None:
        """Acquire/release VMs so active cores meet the target.

        Scale-down terminates the newest VMs first (they have the least
        billed-hour sunk cost under hourly rounding), skipping the VM ids
        in ``keep`` (busy ones).
        """
        current = self.total_cores
        if target_cores == current:
            return
        if target_cores > current:
            deficit = target_cores - current
            for itype in self.plan_mix(deficit):
                self._vms.extend(
                    self.provider.provision(itype, 1, tags=self.tags)
                )
        else:
            for vm in sorted(
                list(self.active_vms), key=lambda v: v.launch_time, reverse=True
            ):
                if self.total_cores - vm.cores < target_cores:
                    break
                if vm.vm_id not in keep:
                    self.provider.terminate(vm.vm_id)

    def terminate_all(self) -> None:
        for vm in self.active_vms:
            self.provider.terminate(vm.vm_id)

    # -- inspection --------------------------------------------------------
    @property
    def active_vms(self) -> list[VirtualMachine]:
        return [vm for vm in self._vms if vm.state != VMState.TERMINATED]

    @property
    def total_cores(self) -> int:
        return sum(vm.cores for vm in self.active_vms)

    def cores(self) -> list[CoreHandle]:
        """Flat list of schedulable cores across active VMs."""
        handles: list[CoreHandle] = []
        for vm in self.active_vms:
            for k in range(vm.cores):
                handles.append(
                    CoreHandle(
                        vm_id=vm.vm_id,
                        core_index=k,
                        speed=vm.instance_type.core_speed,
                        instance_type=vm.instance_type.name,
                    )
                )
        return handles

    def cost(self) -> float:
        """Bill across this cluster's VMs (terminated ones included)."""
        now = self.provider.clock.now
        return sum(vm.cost(now) for vm in self._vms)
