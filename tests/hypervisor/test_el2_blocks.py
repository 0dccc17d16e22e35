"""L0's compiled EL2 register blocks against the per-access path.

At real EL2 the host hypervisor runs its fixed world-switch register
sequences as compiled blocks (``Cpu.run_block``): one bulk move and one
summed charge per category.  The per-access path is the reference.
These tests force it by patching the eligibility predicate
(``Cpu.block_eligible``) and require every observable to match: cycles,
traps, the ledger's categories in order, register state and exports.
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
from repro.faults.campaign import run_campaign
from repro.faults.plan import FaultClass, FaultPlan, PlannedFault
from repro.faults.points import FaultInjector
from repro.hypervisor import world_switch as ws
from repro.hypervisor.vcpu import VcpuStruct
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import chrome_trace_json

ARM_CONFIGS = sorted(name for name, config in ALL_CONFIGS.items()
                     if config.platform == "arm")
ITERATIONS = 2
VCPU_STRUCTS = ("el1_ctx", "vel2_ctx", "shadow_ich", "vel1_shadow",
                "l1_vgic")


def force_per_access(monkeypatch):
    monkeypatch.setattr(Cpu, "block_eligible", lambda self: False)


def regs(struct):
    return None if struct is None else list(struct.regs.as_dict().items())


def microbench_state(config, bench):
    """Everything a microbenchmark cell leaves observable."""
    suite = make_microbench(config)
    result = suite.run(bench, ITERATIONS)
    machine = suite.machine
    return {
        "result": [result.cycles, result.traps],
        "ledger": list(machine.ledger.by_category.items()),
        "traps": list(machine.traps.by_reason.items()),
        "hardware": [(list(cpu.el1_regs.as_dict().items()),
                      list(cpu.el2_regs.as_dict().items()))
                     for cpu in machine.cpus],
        "host_ctx": [regs(machine.kvm.host_ctx[cpu.cpu_id])
                     for cpu in machine.cpus],
        "vcpus": [[regs(getattr(vcpu, attr)) for attr in VCPU_STRUCTS]
                  for vcpu in suite.vm.vcpus],
    }


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


def test_timer_restore_charges_sysreg_first():
    """Its first access is a sysreg read, though its vcpu-struct loads
    feed later writes: one summed charge per category, sysreg first."""
    charges = []
    cpu = Cpu(arch=ARMV8_3)
    cpu.ledger.observer = lambda cycles, category: charges.append(category)
    ws.timer_restore(ws.make_ops(cpu, False), VcpuStruct(cpu), False)
    assert charges == ["sysreg", "world_switch"]


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
