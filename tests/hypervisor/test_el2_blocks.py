"""L0's compiled switch programs against the per-access and per-phase
paths.

At real EL2 the host hypervisor has one compiler for its register code
(``Cpu.compile_switch``, run by ``Cpu.run_switch``), at two sizes.
When nothing observes the CPU it runs each whole world switch as one
compiled switch: a few bulk moves and one charge per category for the
direction.  Otherwise the per-phase runner runs each register phase as
a compiled one-phase program, as ``read_exit_context`` does on every
trap.  The per-access and per-phase paths are the references.  These
tests force them by patching the eligibility predicates
(``Cpu.block_eligible`` turns both sizes off, ``Cpu.switch_eligible``
only the whole switch) and require every observable to match: cycles,
traps, the ledger's categories in order, register state, list
registers and exports.
"""

import pytest

from repro import ALL_CONFIGS, MICROBENCHMARKS, make_microbench
from repro.analysis.sanitizer import sanitized
from repro.arch.cpu import (
    BLOCK_READ,
    BLOCK_RESTORE,
    BLOCK_SAVE,
    BLOCK_WRITE,
    SWITCH_PHASE,
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


def count_compiled(monkeypatch):
    """The compiled programs run from now on, in two lists: whole switch
    programs, and one-phase programs (a phase of the per-phase runner,
    or the exit context).  Every caller of ``Cpu.compiled_switch`` runs
    the switch it gets."""
    whole, one_phase = [], []
    compiled_switch = Cpu.compiled_switch

    def counting(self, program, vhe, structs, phase=None):
        switch = compiled_switch(self, program, vhe, structs, phase)
        if switch is not None:
            if phase is None and len(program) > 1:
                whole.append(program)
            else:
                one_phase.append(program)
        return switch

    monkeypatch.setattr(Cpu, "compiled_switch", counting)
    return whole, one_phase


def count_compiled_switches(monkeypatch):
    """The whole compiled switches run from now on, in a list."""
    return count_compiled(monkeypatch)[0]


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


def assert_parity(compiled, reference):
    """Compiled and reference observations must be equal, key by key
    (lists compare in order, so category order counts too)."""
    assert compiled.keys() == reference.keys()
    for key in compiled:
        assert compiled[key] == reference[key], \
            "%s differs between the compiled and the reference run" % key


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", ARM_CONFIGS)
@pytest.mark.parametrize("bench", MICROBENCHMARKS)
def test_microbench_cells_match_per_access(monkeypatch, config, bench):
    compiled = microbench_state(config, bench)
    force_per_access(monkeypatch)
    assert_parity(compiled, microbench_state(config, bench))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cpus", (1, 2))
def test_campaign_exports_match_per_access(monkeypatch, seed, cpus):
    _whole, one_phase = count_compiled(monkeypatch)
    compiled = campaign_exports(seed, cpus)
    assert one_phase, "no one-phase compiled program ran in the campaign"
    force_per_access(monkeypatch)
    assert_parity(compiled, campaign_exports(seed, cpus))


def test_blocks_replace_l0_sysreg_accesses(monkeypatch):
    """Non-vacuity: an arm-nested hypercall makes far fewer per-access
    sysreg calls with compiled programs on (only the guest hypervisor's
    remain)."""
    calls = []
    sysreg_access = Cpu.sysreg_access

    def counting(self, *args, **kwargs):
        calls.append(self.current_el)
        return sysreg_access(self, *args, **kwargs)

    monkeypatch.setattr(Cpu, "sysreg_access", counting)
    microbench_state("arm-nested", "hypercall")
    compiled = len(calls)
    del calls[:]
    force_per_access(monkeypatch)
    microbench_state("arm-nested", "hypercall")
    assert compiled * 20 < len(calls)


def test_edited_el1_state_recompiles_and_moves_the_count(monkeypatch):
    """A machine builds its switch programs from the register tuples as
    they stand: dropping one register from EL1_STATE changes both paths
    alike, and the change shows in the arm-nested hypercall's cycles."""
    baseline = microbench_state("arm-nested", "hypercall")
    monkeypatch.setattr(ws, "EL1_STATE", ws.EL1_STATE[:-1])
    compiled = microbench_state("arm-nested", "hypercall")
    force_per_access(monkeypatch)
    assert_parity(compiled, microbench_state("arm-nested", "hypercall"))
    assert compiled["result"][0] != baseline["result"][0]


@pytest.mark.parametrize("config", ("arm-nested", "neve-nested"))
@pytest.mark.parametrize("observed", (True, False))
def test_compile_cache_stays_bounded(monkeypatch, config, observed):
    """Only interned programs are compiled, so after a warm-up hypercall
    50 more add no entry to any CPU's cache: with trace and metrics
    attached (*observed*: every L0 switch runs per phase) and with
    nothing attached (whole switches)."""
    suite = make_microbench(config)
    machine, cpu = suite.machine, suite.vm.vcpus[0].cpu
    if observed:
        Tracer().attach_machine(machine)
        MachineMetrics(registry=MetricsRegistry(),
                       config="bounded").attach_machine(machine)
    whole, one_phase = count_compiled(monkeypatch)
    cpu.hvc()
    warm = [len(each._switches) for each in machine.cpus]
    for _ in range(50):
        cpu.hvc()
    assert [len(each._switches) for each in machine.cpus] == warm
    assert one_phase
    assert bool(whole) is not observed


# ---------------------------------------------------------------------------
# Seeded violations: the parity helper must be able to fail
# ---------------------------------------------------------------------------

def test_parity_catches_an_extra_cycle(monkeypatch):
    force_per_phase(monkeypatch)  # L0's phases run as one-phase programs
    expected = microbench_state("arm-nested", "hypercall")
    run_switch = Cpu.run_switch

    def one_more(self, switch, structs, vcpu):
        run_switch(self, switch, structs, vcpu)
        self.ledger.charge(1, "sysreg")

    monkeypatch.setattr(Cpu, "run_switch", one_more)
    with pytest.raises(AssertionError):
        assert_parity(microbench_state("arm-nested", "hypercall"),
                      expected)


def test_parity_catches_world_switch_charged_before_sysreg_on_save(
        monkeypatch):
    force_per_phase(monkeypatch)  # L0's phases run as one-phase programs
    expected = microbench_state("arm-vm", "hypercall")
    compile_switch = Cpu.compile_switch

    def stores_first(self, program, vhe, categories):
        switch = compile_switch(self, program, vhe, categories)
        (_kind, phase, _slot), = program
        if switch is not None and any(op == BLOCK_SAVE
                                      for _name, _acc, op in phase[1]):
            switch.charges = switch.charges[::-1]
        return switch

    monkeypatch.setattr(Cpu, "compile_switch", stores_first)
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
    whole, one_phase = count_compiled(monkeypatch)
    compiled = microbench_state(config, bench)
    assert whole, "no compiled switch ran"
    force_per_phase(monkeypatch)
    del whole[:], one_phase[:]
    per_phase = microbench_state(config, bench)
    assert not whole, "a whole-program switch ran per phase"
    assert one_phase, "no phase ran as a one-phase program"
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
    """A VHE L0's EL1 context moves through *_EL12 aliases, which never
    compile."""
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
        if len(charges) > 1:  # a lone exit-context read charges once
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

def one_phase(steps, values=(), slot=0):
    """A one-phase switch program of ``(register, accessor, op)``
    *steps*, its writes taking *values*."""
    return ((SWITCH_PHASE, ("test", steps, values, None, None, False),
             slot),)


def compiles(cpu, steps, vhe=False):
    program = one_phase(steps, (0,) * len(steps))
    return cpu.compile_switch(program, vhe, ("world_switch",)) is not None


def test_compile_rejects_steps_that_are_not_register_moves():
    cpu = Cpu(arch=ARMV8_3)
    save = ("SCTLR_EL1", "raw", BLOCK_SAVE)
    assert compiles(cpu, (save,))
    rejected = (
        (("SCTLR_EL1", "vm", BLOCK_READ), True),  # VHE alias (*_EL12)
        (("ICC_PMR_EL1", "raw", BLOCK_READ), False),  # GIC CPU interface
        (("VNCR_EL2", "raw", BLOCK_WRITE), False),
        (("ICH_VTR_EL2", "raw", BLOCK_RESTORE), False),  # read-only
    )
    for step, vhe in rejected:
        assert not compiles(cpu, (save, step), vhe), step
    assert not compiles(cpu, ())
    # vhe_only registers UNDEF before the charge without FEAT_VHE.
    step = ("TTBR1_EL2", "raw", BLOCK_READ)
    assert compiles(cpu, (step,))
    assert not compiles(Cpu(arch=ARMV8_0), (step,))


def test_compiled_routes_follow_the_vhe_host_redirect():
    """With E2H set, an EL1-encoded access at EL2 reaches the EL2
    register, as the ladder routes it."""
    cpu = Cpu(arch=ARMV8_4)
    cpu.host_e2h = True
    switch = cpu.compile_switch(
        one_phase((("SCTLR_EL1", "raw", BLOCK_WRITE),), (0x55,), None),
        False, ())
    cpu.run_switch(switch, (), None)
    assert cpu.el2_regs.read("SCTLR_EL2") == 0x55
    assert cpu.el1_regs.read("SCTLR_EL1") == 0


def l0_phases(vhe):
    """L0's register phases by span name, each as a one-phase program
    whose slot names the single vcpu struct a test passes twice."""
    steps = ws.host_switch_program(vhe, True) + ws.guest_switch_program(
        vhe, True, 0x1234)
    return {step[1][0]: (step,) for step in steps
            if step[0] == SWITCH_PHASE}


def run_sequence(sequence, ops, ctx):
    """Run one of L0's register sequences on its own at real EL2, as
    the per-phase runner and read_exit_context do."""
    if sequence == "read_exit_context":
        ws.read_exit_context(ops, True)
    else:
        ws.run_switch(ops, l0_phases(ops.vhe)["ws." + sequence],
                      (ctx, ctx), None)


SEQUENCES = ("save_el1_state", "restore_el1_state", "read_exit_context",
             "activate_traps", "deactivate_traps", "timer_save",
             "timer_restore")


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
    run_sequence(sequence, ws.make_ops(cpu, vhe), ctx)
    return {
        "ledger": list(cpu.ledger.by_category.items()),
        "hardware": (list(cpu.el1_regs.as_dict().items()),
                     list(cpu.el2_regs.as_dict().items())),
        "ctx": regs(ctx),
    }


@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
@pytest.mark.parametrize("vhe", (False, True))
def test_each_sequence_matches_per_access_on_a_fresh_ledger(
        monkeypatch, sequence, vhe):
    compiled = sequence_state(sequence, vhe)
    force_per_access(monkeypatch)
    assert_parity(compiled, sequence_state(sequence, vhe))


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
    run_sequence("timer_restore", ws.make_ops(cpu, False), VcpuStruct(cpu))
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
    """Compiled programs skip the fault hook, which is only sound while
    its ``cpu.msr``/``cpu.mrs``/``cpu.serror`` points ignore real-EL2
    accesses.  If this fails, compiled phases must now honour the
    injector (run per access while it is attached, or answer it per
    phase)."""
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
    """Compiled programs bypass the sanitizer's sysreg wrapper, which is
    only sound while it checks nothing at real EL2 for NORMAL encodings.
    If this fails, compiled phases must now honour the sanitizer (run
    per access while it is installed)."""
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
