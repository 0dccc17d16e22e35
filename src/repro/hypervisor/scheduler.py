"""L0 vcpu scheduling: multiple VMs time-sharing physical CPUs.

The paper's configurations pin vcpus (one guest vcpu per physical core),
but the cost structure it analyses — what a VM-to-VM switch costs in
register traffic — matters as soon as a host consolidates VMs.  This
module adds a round-robin scheduler on top of the L0 hypervisor: a
preemption tick (driven by virtual time, i.e. the cycle ledger) forces a
vcpu switch, which pays the full EL1/GIC/timer context switch both ways.

It also provides the classic consolidation experiment: how much more
expensive is a hypercall when the vcpu must first be scheduled back in?
"""

from dataclasses import dataclass, field

from repro.hypervisor.vcpu import VcpuMode


@dataclass
class SchedulerStats:
    switches: int = 0
    preemptions: int = 0
    by_vcpu: dict = field(default_factory=dict)

    def record(self, vcpu, preempted):
        self.switches += 1
        if preempted:
            self.preemptions += 1
        key = (vcpu.vm.vmid, vcpu.vcpu_id)
        self.by_vcpu[key] = self.by_vcpu.get(key, 0) + 1


class VcpuScheduler:
    """Round-robin scheduling of several vcpus on one physical CPU."""

    def __init__(self, kvm, cpu, timeslice_cycles=1_000_000):
        if timeslice_cycles <= 0:
            raise ValueError("timeslice must be positive")
        self.kvm = kvm
        self.cpu = cpu
        self.timeslice_cycles = timeslice_cycles
        self.runqueue = []
        self.current = None
        self.slice_start = 0
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------

    def enqueue(self, vcpu):
        if vcpu.cpu is not self.cpu:
            raise ValueError("vcpu is pinned to a different physical CPU")
        if vcpu in self.runqueue:
            raise ValueError("vcpu already enqueued")
        self.runqueue.append(vcpu)

    # ------------------------------------------------------------------
    # Switching
    # ------------------------------------------------------------------

    def _ledger(self):
        return self.kvm.machine.ledger

    def schedule(self, preempted=False):
        """Pick the next runnable vcpu and switch the hardware to it.

        The switch itself is the expensive part: the outgoing vcpu's
        state was already saved by the trap that got us here, but the
        incoming vcpu's EL1/GIC/timer context must be restored — the
        same world-switch flows everything else uses.
        """
        runnable = [v for v in self.runqueue if v.online]
        if not runnable:
            self.current = None
            return None
        if self.current in runnable:
            index = (runnable.index(self.current) + 1) % len(runnable)
        else:
            index = 0
        target = runnable[index]
        if target is not self.current:
            self.cpu.enter_host_context()
            if (self.current is not None
                    and self.kvm.running.get(self.cpu.cpu_id)
                    is self.current):
                # Bank the outgoing vcpu's loaded context.
                self.kvm._switch_to_host(self.cpu, self.current)
            self.cpu.work(650, category="l0_sched")  # pick-next, ctx mgmt
            self.kvm.running[self.cpu.cpu_id] = target
            self.kvm._switch_to_guest(self.cpu, target)
            self.kvm._apply_resume(self.cpu)
            self.stats.record(target, preempted)
        self.current = target
        self.slice_start = self._ledger().total
        return target

    def tick(self):
        """Preemption check: called on exits (the hrtimer tick stands in
        for the host scheduler's timer interrupt)."""
        if self.current is None:
            return self.schedule()
        if self._ledger().total - self.slice_start >= self.timeslice_cycles:
            return self.schedule(preempted=True)
        return self.current

    # ------------------------------------------------------------------
    # Experiments
    # ------------------------------------------------------------------

    def measure_switch_cost(self):
        """Cycles and traps for one forced vcpu switch."""
        ledger = self._ledger()
        traps = self.kvm.machine.traps
        cycles, trap_count = ledger.total, traps.total
        self.schedule(preempted=True)
        return ledger.total - cycles, traps.total - trap_count


#: Interleaving policies for SMP fault campaigns: how the single-threaded
#: discrete-event driver orders the per-vCPU work within one round.
INTERLEAVE_POLICIES = ("roundrobin", "reversed", "oddeven")


def interleave_order(num_cpus, round_index, policy="roundrobin"):
    """Deterministic vcpu execution order for one campaign round.

    The SMP fault campaign runs its vCPUs from a single driver loop;
    this chooses the order within a round.  ``roundrobin`` rotates the
    starting vcpu by round (every vcpu leads once), ``reversed`` runs
    descending ids, ``oddeven`` runs odd ids before even ones — the
    perturbed orders the determinism tests use to show the per-vCPU
    verdicts converge regardless of interleaving.
    """
    if policy not in INTERLEAVE_POLICIES:
        raise ValueError("unknown interleave policy %r (one of %s)"
                         % (policy, ", ".join(INTERLEAVE_POLICIES)))
    ids = list(range(num_cpus))
    if policy == "reversed":
        return list(reversed(ids))
    if policy == "oddeven":
        return [i for i in ids if i % 2] + [i for i in ids if not i % 2]
    start = round_index % num_cpus if num_cpus else 0
    return ids[start:] + ids[:start]


def consolidation_experiment(machine, num_vms=2, timeslice=500_000,
                             hypercalls=6):
    """Run *num_vms* single-vcpu VMs on one physical CPU, alternating
    hypercalls, and report the added scheduling cost per operation."""
    kvm = machine.kvm
    cpu = machine.cpu(0)
    scheduler = VcpuScheduler(kvm, cpu, timeslice_cycles=timeslice)
    vms = []
    for _ in range(num_vms):
        vm = kvm.create_vm(num_vcpus=1)
        vms.append(vm)
        scheduler.enqueue(vm.vcpus[0])
    scheduler.schedule()

    ledger = machine.ledger
    costs = []
    for _ in range(hypercalls):
        current = scheduler.current
        start = ledger.total
        current.cpu.hvc(0)
        scheduler.schedule(preempted=True)  # consolidate: rotate VMs
        costs.append(ledger.total - start)
    return {
        "per_operation_cycles": sum(costs) / len(costs),
        "switches": scheduler.stats.switches,
        "vms": num_vms,
    }
