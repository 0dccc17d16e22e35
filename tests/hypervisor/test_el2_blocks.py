"""L0's compiled EL2 register blocks and compiled world switches
against the per-access and per-phase paths.

At real EL2 the host hypervisor runs its fixed world-switch register
sequences as compiled blocks (``Cpu.run_block``): one bulk move and one
summed charge per category.  When nothing observes the CPU it runs each
whole world switch as one compiled switch (``Cpu.run_switch``): a few
bulk moves and one charge per category for the direction.  The
per-access and per-phase paths are the references.  These tests force
them by patching the eligibility predicates (``Cpu.block_eligible``
turns both off, ``Cpu.switch_eligible`` only the compiled switch) and
require every observable to match: cycles, traps, the ledger's
categories in order, register state, list registers and exports.
"""

import pytest

from repro import ALL_CONFIGS, MICROBENCHMARKS, make_microbench
from repro.analysis.sanitizer import sanitized
from repro.arch.cpu import (
    BLOCK_READ,
    BLOCK_RESTORE,
    BLOCK_SAVE,
    BLOCK_WRITE,
    Cpu,
    Encoding,
)
from repro.arch.exceptions import ExceptionLevel
from repro.arch.features import ARMV8_0, ARMV8_3, ARMV8_4
from repro.arch.registers import RegisterFile
from repro.faults.campaign import run_campaign
from repro.faults.plan import FaultClass, FaultPlan, PlannedFault
from repro.faults.points import FaultInjector
from repro.hypervisor import world_switch as ws
from repro.hypervisor.kvm import Machine
from repro.hypervisor.vcpu import VcpuStruct
from repro.metrics.cycles import CycleLedger
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import chrome_trace_json
from repro.trace.spans import Tracer

ARM_CONFIGS = sorted(name for name, config in ALL_CONFIGS.items()
                     if config.platform == "arm")
ITERATIONS = 2
VCPU_STRUCTS = ("el1_ctx", "vel2_ctx", "shadow_ich", "vel1_shadow",
                "l1_vgic")


def force_per_access(monkeypatch):
    monkeypatch.setattr(Cpu, "block_eligible", lambda self: False)


def force_per_phase(monkeypatch):
    monkeypatch.setattr(Cpu, "switch_eligible", lambda self: False)


def count_compiled_switches(monkeypatch):
    """The compiled switches run from now on, in a list."""
    ran = []
    run_switch = Cpu.run_switch

    def counting(self, switch, structs, vcpu):
        ran.append(switch)
        return run_switch(self, switch, structs, vcpu)

    monkeypatch.setattr(Cpu, "run_switch", counting)
    return ran


def regs(struct):
    return None if struct is None else list(struct.regs.as_dict().items())


def machine_state(machine, vcpus):
    """Everything a machine's run leaves observable: the ledger's
    categories in order, traps by reason, every register bank and vcpu
    struct in insertion order, and the vcpus' list-register bookkeeping
    (live count and queued interrupts)."""
    return {
        "ledger": list(machine.ledger.by_category.items()),
        "traps": list(machine.traps.by_reason.items()),
        "hardware": [(list(cpu.el1_regs.as_dict().items()),
                      list(cpu.el2_regs.as_dict().items()))
                     for cpu in machine.cpus],
        "host_ctx": [regs(machine.kvm.host_ctx[cpu.cpu_id])
                     for cpu in machine.cpus],
        "vcpus": [[regs(getattr(vcpu, attr)) for attr in VCPU_STRUCTS]
                  for vcpu in vcpus],
        "lrs": [(vcpu.used_lrs, list(vcpu.pending_virqs))
                for vcpu in vcpus],
    }


def microbench_state(config, bench):
    """Everything a microbenchmark cell leaves observable."""
    suite = make_microbench(config)
    result = suite.run(bench, ITERATIONS)
    return dict(machine_state(suite.machine, suite.vm.vcpus),
                result=[result.cycles, result.traps])


def campaign_exports(seed, cpus):
    """A traced, metered campaign's digest and exports."""
    registry = MetricsRegistry()
    result = run_campaign(seed, cpus=cpus, trace=True,
                          metrics=MachineMetrics(registry=registry,
                                                 config="parity"))
    return {
        "digest": result.digest,
        "sanitizer_checks": result.sanitizer_checks,
        "journal": result.outcomes,
        "trace": chrome_trace_json(result.tracer),
        "prometheus": registry.prometheus_text(),
        "json": registry.json_snapshot(),
    }


def assert_parity(blocks, per_access):
    """Blocks-on and per-access observations must be equal, key by key
    (lists compare in order, so category order counts too)."""
    assert blocks.keys() == per_access.keys()
    for key in blocks:
        assert blocks[key] == per_access[key], \
            "%s differs between compiled blocks and per-access" % key


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", ARM_CONFIGS)
@pytest.mark.parametrize("bench", MICROBENCHMARKS)
def test_microbench_cells_match_per_access(monkeypatch, config, bench):
    blocks = microbench_state(config, bench)
    force_per_access(monkeypatch)
    assert_parity(blocks, microbench_state(config, bench))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cpus", (1, 2))
def test_campaign_exports_match_per_access(monkeypatch, seed, cpus):
    ran = []
    run_block = Cpu.run_block

    def counting(self, block, ctx=None, values=()):
        ran.append(block)
        return run_block(self, block, ctx, values)

    monkeypatch.setattr(Cpu, "run_block", counting)
    blocks = campaign_exports(seed, cpus)
    assert ran, "no compiled block ran in the campaign"
    force_per_access(monkeypatch)
    assert_parity(blocks, campaign_exports(seed, cpus))


def test_blocks_replace_l0_sysreg_accesses(monkeypatch):
    """Non-vacuity: an arm-nested hypercall makes far fewer per-access
    sysreg calls with blocks on (only the guest hypervisor's remain)."""
    calls = []
    sysreg_access = Cpu.sysreg_access

    def counting(self, *args, **kwargs):
        calls.append(self.current_el)
        return sysreg_access(self, *args, **kwargs)

    monkeypatch.setattr(Cpu, "sysreg_access", counting)
    microbench_state("arm-nested", "hypercall")
    with_blocks = len(calls)
    del calls[:]
    force_per_access(monkeypatch)
    microbench_state("arm-nested", "hypercall")
    assert with_blocks * 20 < len(calls)


def test_edited_el1_state_recompiles_and_moves_the_count(monkeypatch):
    """Blocks are keyed by the register tuples' values: dropping one
    register from EL1_STATE changes both paths alike, and the change
    shows in the arm-nested hypercall's cycles."""
    baseline = microbench_state("arm-nested", "hypercall")
    monkeypatch.setattr(ws, "EL1_STATE", ws.EL1_STATE[:-1])
    blocks = microbench_state("arm-nested", "hypercall")
    force_per_access(monkeypatch)
    assert_parity(blocks, microbench_state("arm-nested", "hypercall"))
    assert blocks["result"][0] != baseline["result"][0]


# ---------------------------------------------------------------------------
# Seeded violations: the parity helper must be able to fail
# ---------------------------------------------------------------------------

class _UnchargedStores:
    """A vcpu struct whose bulk stores move data but do not charge."""

    def __init__(self, struct):
        self.struct = struct

    def load_many(self, names):
        return self.struct.load_many(names)

    def save_many(self, names, values):
        self.struct.regs.write_many(names, values)


def test_parity_catches_an_extra_cycle(monkeypatch):
    force_per_phase(monkeypatch)  # L0's switches run their blocks
    expected = microbench_state("arm-nested", "hypercall")
    run_block = Cpu.run_block

    def one_more(self, block, ctx=None, values=()):
        out = run_block(self, block, ctx, values)
        self.ledger.charge(1, "sysreg")
        return out

    monkeypatch.setattr(Cpu, "run_block", one_more)
    with pytest.raises(AssertionError):
        assert_parity(microbench_state("arm-nested", "hypercall"),
                      expected)


def test_parity_catches_world_switch_charged_before_sysreg_on_save(
        monkeypatch):
    force_per_phase(monkeypatch)  # L0's switches run their blocks
    expected = microbench_state("arm-vm", "hypercall")
    run_block = Cpu.run_block

    def stores_first(self, block, ctx=None, values=()):
        if not block.saves:
            return run_block(self, block, ctx, values)
        self.ledger.charge(len(block.saves) * self.costs.mem_store,
                           "world_switch")
        return run_block(self, block, _UnchargedStores(ctx), values)

    monkeypatch.setattr(Cpu, "run_block", stores_first)
    observed = microbench_state("arm-vm", "hypercall")
    assert observed["result"] == expected["result"]  # same totals...
    with pytest.raises(AssertionError):
        assert_parity(observed, expected)  # ...in the wrong order


# ---------------------------------------------------------------------------
# Compiled world switches against the per-phase runner
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", ARM_CONFIGS)
@pytest.mark.parametrize("bench", MICROBENCHMARKS)
def test_microbench_cells_match_per_phase(monkeypatch, config, bench):
    ran = count_compiled_switches(monkeypatch)
    compiled = microbench_state(config, bench)
    assert ran, "no compiled switch ran"
    force_per_phase(monkeypatch)
    del ran[:]
    per_phase = microbench_state(config, bench)
    assert not ran
    assert_parity(compiled, per_phase)


GIC_STATUS = ("ICH_ELRSR_EL2", "ICH_EISR_EL2", "ICH_MISR_EL2")


def live_list_register_state(ran):
    """Switches that change the GIC status: out to the host, in with a
    queued interrupt flushed into a list register, out again with it
    live.  The status after each switch and the state at the end, and
    how many of the three switches ran compiled (*ran* lists them)."""
    suite = make_microbench("arm-vm")
    machine, vcpu = suite.machine, suite.vm.vcpus[0]
    cpu, kvm = vcpu.cpu, machine.kvm
    vcpu.queue_virq(27)
    statuses = []
    booted = len(ran)
    with cpu.host_mode():
        for switch in (kvm._switch_to_host, kvm._switch_to_guest,
                       kvm._switch_to_host):
            switch(cpu, vcpu)
            statuses.append(cpu.el2_regs.read_many(GIC_STATUS))
    state = dict(machine_state(machine, suite.vm.vcpus), statuses=statuses)
    return state, len(ran) - booted


def test_live_list_registers_match_per_phase(monkeypatch):
    ran = count_compiled_switches(monkeypatch)
    compiled, compiled_runs = live_list_register_state(ran)
    assert compiled_runs == 3
    # ELRSR marks the flushed LR live inside the guest, free outside.
    assert compiled["statuses"] == [[0xF, 0, 0], [0xE, 0, 0], [0xF, 0, 0]]
    assert compiled["lrs"][0] == (1, [])
    force_per_phase(monkeypatch)
    per_phase, compiled_runs = live_list_register_state(ran)
    assert compiled_runs == 0
    assert_parity(compiled, per_phase)


def hypercall_exports_observed_late():
    """Boot a neve-nested machine and run one hypercall with nothing
    attached, then attach a tracer and metrics and run another."""
    suite = make_microbench("neve-nested")
    machine = suite.machine
    cpu = suite.vm.vcpus[0].cpu
    cpu.hvc()
    tracer = Tracer().attach_machine(machine)
    registry = MetricsRegistry()
    MachineMetrics(registry=registry, config="late").attach_machine(machine)
    cpu.hvc()
    tracer.stop()
    return {
        "trace": chrome_trace_json(tracer),
        "prometheus": registry.prometheus_text(),
        "json": registry.json_snapshot(),
        "state": machine_state(machine, suite.vm.vcpus),
    }


def test_exports_after_an_unobserved_start_match_a_run_never_compiled(
        monkeypatch):
    ran = count_compiled_switches(monkeypatch)
    tracer_attach = Tracer.attach_machine
    compiled_before_observing = []

    def attach_machine(tracer, machine):
        compiled_before_observing.append(len(ran))
        return tracer_attach(tracer, machine)

    monkeypatch.setattr(Tracer, "attach_machine", attach_machine)
    observed = hypercall_exports_observed_late()
    assert compiled_before_observing[0] > 0
    assert len(ran) == compiled_before_observing[0], \
        "a compiled switch ran while observed"
    force_per_phase(monkeypatch)
    assert_parity(observed, hypercall_exports_observed_late())


def test_a_fault_injector_keeps_every_switch_per_phase(monkeypatch):
    """The injector counts ws.after-save and ws.before-restore at real
    EL2 too, so with one attached each L0 switch runs phase by phase:
    one hypercall is two switches, two hits at each point."""
    ran = count_compiled_switches(monkeypatch)
    suite = make_microbench("arm-vm")
    del ran[:]
    injector = FaultInjector(FaultPlan(0, []))
    for cpu in suite.machine.cpus:
        cpu.fault_hook = injector
    _l0_world_switch(suite)
    assert not ran
    assert injector.hits.get("ws.after-save") == 2
    assert injector.hits.get("ws.before-restore") == 2


def gic_sysreg_state():
    machine = Machine(arch=ARMV8_3, l0_gic_mmio=False)
    vm = machine.kvm.create_vm(num_vcpus=1)
    machine.kvm.run_vcpu(vm.vcpus[0])
    vm.vcpus[0].cpu.hvc(0)
    vm.vcpus[0].cpu.hvc(0)
    return machine_state(machine, vm.vcpus)


def test_system_register_l0_gic_runs_per_phase(monkeypatch):
    """L0 with a GICv3 system-register vGIC does not compile (reject
    rather than approximate) and matches its per-phase run."""
    ran = count_compiled_switches(monkeypatch)
    default = gic_sysreg_state()
    assert not ran
    force_per_phase(monkeypatch)
    assert_parity(default, gic_sysreg_state())


def test_vhe_l0_switch_does_not_compile():
    """A VHE L0's EL1 context moves through *_EL12 aliases, which no
    block compiles."""
    cpu = Machine(arch=ARMV8_4).cpus[0]
    categories = ("world_switch", "world_switch")
    assert cpu.compile_switch(ws.host_switch_program(True, True), True,
                              categories) is None
    assert cpu.compile_switch(ws.host_switch_program(False, True), False,
                              categories) is not None


def test_edited_el1_state_recompiles_the_switch(monkeypatch):
    """The compiled switch follows an EL1_STATE edit like the per-phase
    runner does, and the edit moves its cycles."""
    baseline = microbench_state("arm-nested", "hypercall")
    monkeypatch.setattr(ws, "EL1_STATE", ws.EL1_STATE[:-1])
    ran = count_compiled_switches(monkeypatch)
    compiled = microbench_state("arm-nested", "hypercall")
    assert ran
    assert compiled["result"][0] != baseline["result"][0]
    force_per_phase(monkeypatch)
    assert_parity(compiled, microbench_state("arm-nested", "hypercall"))


# ---------------------------------------------------------------------------
# Seeded violations in the compiled switch: the parity helper must fail
# ---------------------------------------------------------------------------

def per_phase_and_violated(monkeypatch, violate, config="arm-vm"):
    """The per-phase state, then the state with *violate* applied to the
    compiled switch."""
    with monkeypatch.context() as patch:
        force_per_phase(patch)
        expected = microbench_state(config, "hypercall")
    violate()
    ran = count_compiled_switches(monkeypatch)
    observed = microbench_state(config, "hypercall")
    assert ran, "no compiled switch ran"
    return observed, expected


def test_switch_parity_catches_an_extra_cycle(monkeypatch):
    run_switch = Cpu.run_switch

    def one_more(self, switch, structs, vcpu):
        run_switch(self, switch, structs, vcpu)
        self.ledger.charge(1, "sysreg")

    observed, expected = per_phase_and_violated(
        monkeypatch, lambda: monkeypatch.setattr(Cpu, "run_switch",
                                                 one_more))
    with pytest.raises(AssertionError):
        assert_parity(observed, expected)


class _ChargeLog:
    def __init__(self):
        self.charges = []

    def charge(self, cycles, category="other"):
        self.charges.append((cycles, category))


def test_switch_parity_catches_first_charges_swapped(monkeypatch):
    """The same cycles, with the first two categories' charges swapped:
    on the boot switch into the guest they are new to the ledger, so
    its category order changes."""
    run_switch = Cpu.run_switch

    def swapped(self, switch, structs, vcpu):
        ledger, log = self.ledger, _ChargeLog()
        self.ledger = log
        try:
            run_switch(self, switch, structs, vcpu)
        finally:
            self.ledger = ledger
        charges = log.charges
        charges[0], charges[1] = charges[1], charges[0]
        for cycles, category in charges:
            ledger.charge(cycles, category)

    observed, expected = per_phase_and_violated(
        monkeypatch, lambda: monkeypatch.setattr(Cpu, "run_switch",
                                                 swapped))
    assert observed["result"] == expected["result"]  # same totals...
    with pytest.raises(AssertionError):
        assert_parity(observed, expected)  # ...in the wrong order


def test_switch_parity_catches_a_dropped_register_move(monkeypatch):
    copy_from = RegisterFile.copy_from

    def drop_last(self, other, names, own_names=None):
        copy_from(self, other, names[:-1],
                  None if own_names is None else own_names[:-1])

    observed, expected = per_phase_and_violated(
        monkeypatch, lambda: monkeypatch.setattr(RegisterFile, "copy_from",
                                                 drop_last))
    with pytest.raises(AssertionError):
        assert_parity(observed, expected)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def test_compile_rejects_steps_that_are_not_register_moves():
    cpu = Cpu(arch=ARMV8_3)
    assert cpu.compile_block((("SCTLR_EL1", Encoding.NORMAL,
                               BLOCK_SAVE),)) is not None
    rejected = (
        ("SCTLR_EL1", Encoding.EL12, BLOCK_READ),  # VHE alias
        ("ICC_PMR_EL1", Encoding.NORMAL, BLOCK_READ),  # GIC CPU interface
        ("VNCR_EL2", Encoding.NORMAL, BLOCK_WRITE),
        ("ICH_VTR_EL2", Encoding.NORMAL, BLOCK_RESTORE),  # read-only
    )
    for step in rejected:
        prefix = (("SCTLR_EL1", Encoding.NORMAL, BLOCK_SAVE),)
        assert cpu.compile_block(prefix + (step,)) is None, step
    assert cpu.compile_block(()) is None
    # vhe_only registers UNDEF before the charge without FEAT_VHE.
    step = ("TTBR1_EL2", Encoding.NORMAL, BLOCK_READ)
    assert cpu.compile_block((step,)) is not None
    assert Cpu(arch=ARMV8_0).compile_block((step,)) is None


def test_compiled_routes_follow_the_vhe_host_redirect():
    """With E2H set, an EL1-encoded access at EL2 reaches the EL2
    register, as the ladder routes it."""
    cpu = Cpu(arch=ARMV8_4)
    cpu.host_e2h = True
    block = cpu.compile_block((("SCTLR_EL1", Encoding.NORMAL, BLOCK_WRITE),))
    cpu.run_block(block, values=(0x55,))
    assert cpu.el2_regs.read("SCTLR_EL2") == 0x55
    assert cpu.el1_regs.read("SCTLR_EL1") == 0


SEQUENCES = {
    "save_el1_state": lambda ops, ctx: ws.save_el1_state(ops, ctx),
    "restore_el1_state": lambda ops, ctx: ws.restore_el1_state(ops, ctx),
    "read_exit_context": lambda ops, ctx: ws.read_exit_context(ops, True),
    "activate_traps": lambda ops, ctx: ws.activate_traps(ops, ops.vhe,
                                                         0x1234),
    "deactivate_traps": lambda ops, ctx: ws.deactivate_traps(ops, ops.vhe),
    "timer_save": lambda ops, ctx: ws.timer_save(ops, ctx, ops.vhe),
    "timer_restore": lambda ops, ctx: ws.timer_restore(ops, ctx, ops.vhe),
}


def sequence_state(sequence, vhe):
    """One sequence on a fresh CPU and ledger, where the order of the
    first charges decides the ledger's category order."""
    cpu = Cpu(arch=ARMV8_4)
    cpu.host_e2h = vhe
    ctx = VcpuStruct(cpu)
    names = ws.full_el1_context() + ("CNTV_CTL_EL0", "CNTV_CVAL_EL0")
    for number, name in enumerate(names, 1):
        ctx.poke(name, number)
    cpu.el1_regs.write_many(names, [0x100 + n for n in range(len(names))])
    returned = SEQUENCES[sequence](ws.make_ops(cpu, vhe), ctx)
    return {
        "returned": returned,
        "ledger": list(cpu.ledger.by_category.items()),
        "hardware": (list(cpu.el1_regs.as_dict().items()),
                     list(cpu.el2_regs.as_dict().items())),
        "ctx": regs(ctx),
    }


@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
@pytest.mark.parametrize("vhe", (False, True))
def test_each_sequence_matches_per_access_on_a_fresh_ledger(
        monkeypatch, sequence, vhe):
    blocks = sequence_state(sequence, vhe)
    force_per_access(monkeypatch)
    assert_parity(blocks, sequence_state(sequence, vhe))


class RecordingLedger(CycleLedger):
    """A ledger that also logs the category of every charge."""

    __slots__ = ("categories",)

    def __init__(self):
        super().__init__()
        self.categories = []

    def charge(self, cycles, category="other"):
        self.categories.append(category)
        super().charge(cycles, category)


def test_timer_restore_charges_sysreg_first():
    """Its first access is a sysreg read, though its vcpu-struct loads
    feed later writes: one summed charge per category, sysreg first."""
    ledger = RecordingLedger()
    cpu = Cpu(arch=ARMV8_3, ledger=ledger)
    ws.timer_restore(ws.make_ops(cpu, False), VcpuStruct(cpu), False)
    assert ledger.categories == ["sysreg", "world_switch"]


# ---------------------------------------------------------------------------
# The inertness contracts the eligibility predicate relies on
# ---------------------------------------------------------------------------

class _CountingInjector(FaultInjector):
    def __init__(self, plan):
        super().__init__(plan)
        self.consulted = 0

    def filter_sysreg_write(self, cpu, reg, value):
        self.consulted += 1
        return super().filter_sysreg_write(cpu, reg, value)

    def filter_sysreg_read(self, cpu, reg, value):
        self.consulted += 1
        return super().filter_sysreg_read(cpu, reg, value)


def _l0_world_switch(suite):
    """One guest hypercall: L0 takes the trap and world-switches to its
    host kernel and back, at real EL2."""
    suite.vm.vcpus[0].cpu.hvc()


def test_fault_injector_never_counts_real_el2_accesses(monkeypatch):
    """Blocks skip the fault hook, which is only sound while its
    ``cpu.msr``/``cpu.mrs``/``cpu.serror`` points ignore real-EL2
    accesses.  If this fails, the blocks must now honour the injector
    (run per access while it is attached, or answer it per block)."""
    force_per_access(monkeypatch)
    suite = make_microbench("arm-vm")
    plan = FaultPlan(0, [
        PlannedFault(0, FaultClass.SYSREG_BITFLIP, "cpu.msr", 1,
                     {"bit": 3}),
        PlannedFault(1, FaultClass.SYSREG_BITFLIP, "cpu.mrs", 1,
                     {"bit": 3}),
        PlannedFault(2, FaultClass.SERROR, "cpu.serror", 1),
    ])
    injector = _CountingInjector(plan)
    for cpu in suite.machine.cpus:
        cpu.fault_hook = injector
    _l0_world_switch(suite)
    assert injector.consulted > 0  # the per-access path did ask it
    for point in ("cpu.msr", "cpu.mrs", "cpu.serror"):
        assert point not in injector.hits
    assert injector.events == []


def test_sanitizer_records_no_checks_for_real_el2_accesses(monkeypatch):
    """Blocks bypass the sanitizer's sysreg wrapper, which is only
    sound while it checks nothing at real EL2 for NORMAL encodings.  If
    this fails, the blocks must now honour the sanitizer (run per
    access while it is installed)."""
    calls = []
    sysreg_access = Cpu.sysreg_access

    def counting(self, name, is_write, value=None, enc=Encoding.NORMAL):
        calls.append((self.current_el, enc))
        return sysreg_access(self, name, is_write, value, enc)

    monkeypatch.setattr(Cpu, "sysreg_access", counting)
    force_per_access(monkeypatch)
    suite = make_microbench("arm-vm")
    with sanitized(cpus=suite.machine.cpus) as report:
        _l0_world_switch(suite)
    assert calls and all(el == ExceptionLevel.EL2 and enc is Encoding.NORMAL
                         for el, enc in calls)
    assert report.checks == 0
