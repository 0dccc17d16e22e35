"""Generated switch programs against the reference runners.

L0's world switch is a switch program (``repro.arch.cpu``'s
``SWITCH_*`` steps) with two runners at real EL2: the compiler
(``Cpu.compiled_switch`` + ``Cpu.run_switch``) and the per-phase
reference (``world_switch.run_switch``).  The hand-written programs
exercise two shapes.  These tests generate programs from every part a
program may have: register phases with random accessors, ops and 64-bit
write values; the MMIO vGIC save and restore over random live list
registers and queued virtual interrupts; fold, flush, work, barrier and
``eret``.  Each program runs on two twin booted ``arm-vm`` machines, one
per runner, and every observable must match
(:func:`tests.conftest.machine_state`).

A program compiles unless one of ``compile_switch``'s documented
rejection reasons holds (the predicate below), and then it must not.
One-phase programs are also checked against the per-access path.  Run
as L0 runs them, with tracers and a metrics facade attached, a compiled
program's switch summary must export what the per-phase runner's
regions do.
"""

import random
from contextlib import nullcontext
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_microbench
from repro.arch.cpu import (
    BLOCK_READ,
    BLOCK_RESTORE,
    BLOCK_SAVE,
    BLOCK_WRITE,
    SWITCH_BARRIER,
    SWITCH_ERET,
    SWITCH_FLUSH_LRS,
    SWITCH_FOLD_LRS,
    SWITCH_PHASE,
    SWITCH_VGIC_RESTORE,
    SWITCH_VGIC_SAVE,
    SWITCH_VGIC_SYSREG_RESTORE,
    SWITCH_VGIC_SYSREG_SAVE,
    SWITCH_WORK,
    Cpu,
    CpuOps,
    Encoding,
)
from repro.arch.features import ARMV8_0
from repro.arch.gic import LR_NAMES, ListRegister, LrState
from repro.arch.registers import RegClass, lookup_register
from repro.hypervisor import world_switch as ws
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import chrome_trace_json
from repro.trace.spans import Tracer

from tests.conftest import machine_state

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

TIMERS = ("CNTV_CTL_EL0", "CNTV_CVAL_EL0")
EL2_REGS = ("HCR_EL2", "VTTBR_EL2", "CPTR_EL2", "MDCR_EL2", "HSTR_EL2",
            "VTCR_EL2", "VMPIDR_EL2", "VPIDR_EL2", "TPIDR_EL2",
            "CNTHCTL_EL2", "CNTVOFF_EL2", "ELR_EL2", "SPSR_EL2", "ESR_EL2",
            "FAR_EL2", "SCTLR_EL2", "TTBR0_EL2", "TCR_EL2", "VBAR_EL2",
            "TTBR1_EL2", "ICH_VMCR_EL2", "ICH_HCR_EL2", "ICH_LR0_EL2",
            "ICH_LR1_EL2", "ICH_AP0R0_EL2")
#: (register, the accessors that may name it).  The last three are
#: there to be rejected: a GIC CPU-interface register, VNCR_EL2 (whose
#: write is rejected) and a read-only register (whose write is).
ACCESSES = (
    tuple((name, ("vm", "raw")) for name in ws.EL1_STATE + ws.DEBUG_STATE)
    + tuple((name, ("raw",)) for name in ws.EL0_STATE)
    + tuple((name, ("vm_el0", "raw")) for name in TIMERS)
    + tuple((name, ("hyp", "raw")) for name in EL2_REGS)
    + (("ICC_PMR_EL1", ("raw",)), ("VNCR_EL2", ("hyp", "raw")),
       ("ICH_VTR_EL2", ("hyp", "raw"))))
OPS = (BLOCK_READ, BLOCK_WRITE, BLOCK_SAVE, BLOCK_RESTORE)
SLOTS = (ws.GUEST, ws.HOST)
CATEGORIES = ("l0_kernel", "l0_vgic", "world_switch", "sysreg", "trap",
              "vgic_mmio")
STRUCT_CATEGORIES = ("world_switch", "l0_kernel", "vcpu_struct")
MASK64 = (1 << 64) - 1

steps = st.sampled_from(ACCESSES).flatmap(
    lambda entry: st.tuples(st.just(entry[0]), st.sampled_from(entry[1]),
                            st.sampled_from(OPS)))


@st.composite
def register_phases(draw, max_steps=6):
    """``(SWITCH_PHASE, (span, steps, values, before, after, barrier),
    slot)``; an empty phase now and then."""
    program = tuple(draw(st.lists(steps, max_size=max_steps)))
    writes = sum(op == BLOCK_WRITE for _name, _acc, op in program)
    values = tuple(draw(st.lists(st.integers(0, MASK64), min_size=writes,
                                 max_size=writes)))
    moves_struct = any(op in (BLOCK_SAVE, BLOCK_RESTORE)
                       for _name, _acc, op in program)
    slot = draw(st.sampled_from(SLOTS if moves_struct
                                else SLOTS + (None,)))
    phase = (draw(st.sampled_from(("gen.a", "gen.b", "gen.c"))), program,
             values, draw(st.sampled_from((None, "ws.before-restore"))),
             draw(st.sampled_from((None, "ws.after-save"))),
             draw(st.booleans()))
    return (SWITCH_PHASE, phase, slot)


def _vgic_steps(slot):
    return st.sampled_from((
        (SWITCH_VGIC_SAVE, slot) + ws._vgic_step(True, True)[2:],
        (SWITCH_VGIC_RESTORE, slot) + ws._vgic_step(False, True)[2:]))


other_steps = st.one_of(
    st.tuples(st.just(SWITCH_WORK), st.integers(0, 400),
              st.sampled_from(CATEGORIES)),
    st.just((SWITCH_BARRIER,)),
    st.just((SWITCH_ERET,)),
    st.sampled_from(SLOTS).flatmap(_vgic_steps),
    st.tuples(st.just(SWITCH_FOLD_LRS), st.sampled_from(SLOTS)),
    st.tuples(st.just(SWITCH_FLUSH_LRS), st.sampled_from(SLOTS),
              st.integers(0, 80), st.sampled_from(CATEGORIES)),
)


@st.composite
def switch_programs(draw):
    """A whole program, with a system-register vGIC step (which never
    compiles) in about one program in eight."""
    program = draw(st.lists(st.one_of(register_phases(), other_steps),
                            min_size=1, max_size=8))
    if draw(st.integers(0, 7)) == 0:
        step = (draw(st.sampled_from((SWITCH_VGIC_SYSREG_SAVE,
                                      SWITCH_VGIC_SYSREG_RESTORE))),
                draw(st.sampled_from(SLOTS)))
        program.insert(draw(st.integers(0, len(program))), step)
    return tuple(program)


lr_values = st.one_of(
    st.just(0),
    st.builds(ListRegister, vintid=st.integers(16, 64),
              state=st.sampled_from(list(LrState)),
              priority=st.integers(0, 255)).map(ListRegister.encode))

machine_states = st.fixed_dictionaries({
    "vhe": st.integers(0, 3).map(lambda n: n == 0),
    "seed": st.integers(0, 2 ** 32),
    "categories": st.tuples(st.sampled_from(STRUCT_CATEGORIES),
                            st.sampled_from(STRUCT_CATEGORIES)),
    "used_lrs": st.integers(0, 4),
    "lrs": st.lists(lr_values, min_size=4, max_size=4),
    "images": st.lists(st.lists(lr_values, min_size=4, max_size=4),
                       min_size=2, max_size=2),
    "queued": st.lists(st.integers(16, 64), unique=True, max_size=4),
})


# ---------------------------------------------------------------------------
# The rejection predicate, from compile_switch's documentation
# ---------------------------------------------------------------------------

def _phase_rejected(phase, vhe, has_vhe):
    _span, program, _values, _before, _after, _barrier = phase
    if not program:
        return True  # an empty phase
    ops = CpuOps(None, vhe)
    for name, accessor, op in program:
        name, enc = ops.alias(name, accessor)
        reg = lookup_register(name)
        is_write = op in (BLOCK_WRITE, BLOCK_RESTORE)
        if (enc is not Encoding.NORMAL  # a *_EL12/*_EL02 alias
                or reg.reg_class is RegClass.GIC_CPU
                or (reg.vhe_only and not has_vhe)  # pre-charge UNDEFs
                or (is_write and reg.read_only)
                or (is_write and name == "VNCR_EL2")):
            return True
    return False


def _charges(step, categories):
    """The categories *step* charges in the per-phase runner, in order,
    each with whether only a flushed interrupt charges it."""
    kind = step[0]
    if kind == SWITCH_PHASE:
        _kind, (_span, program, _values, _b, _a, barrier), slot = step
        ops = [op for _name, _acc, op in program]
        struct = None if slot is None else categories[slot]
        if ops[0] == BLOCK_RESTORE:
            out = [struct, "sysreg"]
        else:
            out = ["sysreg"] + ([struct] if BLOCK_RESTORE in ops else [])
        if BLOCK_SAVE in ops:
            out.append(struct)
        if barrier:
            out.append("world_switch")
        return [(category, False) for category in out]
    if kind == SWITCH_WORK:
        return [(step[2], False)]
    if kind == SWITCH_BARRIER:
        return [("world_switch", False)]
    if kind == SWITCH_ERET:
        return [("trap", False)]
    if kind in (SWITCH_VGIC_SAVE, SWITCH_VGIC_RESTORE):
        return [("vgic_mmio", False), (categories[step[1]], False)]
    if kind == SWITCH_FLUSH_LRS:
        return [(step[3], True), (categories[step[1]], True)]
    return []


def rejected(program, vhe, categories, has_vhe=True):
    """Whether one of compile_switch's documented reasons rejects
    *program*."""
    first = {}  # category -> first charged by a flush alone
    flushes = 0
    for step in program:
        kind = step[0]
        if kind in (SWITCH_VGIC_SYSREG_SAVE, SWITCH_VGIC_SYSREG_RESTORE):
            return True
        flushes += kind == SWITCH_FLUSH_LRS
        if flushes > 1:
            return True  # a second interrupt flush
        if kind == SWITCH_PHASE and _phase_rejected(step[1], vhe, has_vhe):
            return True
        for category, flush_only in _charges(step, categories):
            if category not in first:
                first[category] = flush_only
            elif first[category] and not flush_only:
                return True  # its position would depend on the flush
    return False


def moves_list_registers(program):
    return any(step[0] not in (SWITCH_PHASE, SWITCH_WORK, SWITCH_BARRIER,
                               SWITCH_ERET) for step in program)


# ---------------------------------------------------------------------------
# Twin machines
# ---------------------------------------------------------------------------

def twin(state):
    """A booted arm-vm machine in the drawn *state*: its vcpu structs'
    categories and registers, the live list registers in hardware and in
    both LR images, and the queued interrupts."""
    suite = make_microbench("arm-vm")
    machine, vcpu = suite.machine, suite.vm.vcpus[0]
    cpu = vcpu.cpu
    cpu.host_e2h = machine.kvm.vhe = state["vhe"]
    structs = (vcpu.el1_ctx, machine.kvm.host_ctx[cpu.cpu_id])
    rng = random.Random(state["seed"])
    names = tuple(name for name, _accessors in ACCESSES)
    for struct, category, image in zip(structs, state["categories"],
                                       state["images"]):
        struct.category = category
        struct.regs.put_many(names, [rng.getrandbits(64) for _ in names])
        struct.regs.put_many(LR_NAMES[:4], image)
    cpu.el2_regs.put_many(LR_NAMES[:4], state["lrs"])
    vcpu.used_lrs = state["used_lrs"]
    for intid in state["queued"]:
        vcpu.queue_virq(intid)
    return machine, vcpu, structs


def run_compiled(state, program):
    machine, vcpu, structs = twin(state)
    cpu = vcpu.cpu
    switch = cpu.compiled_switch(program, state["vhe"], structs)
    assert switch is not None
    with cpu.host_mode():
        cpu.run_switch(switch, structs, vcpu)
    return machine_state(machine, [vcpu])


def run_per_phase(state, program):
    machine, vcpu, structs = twin(state)
    cpu = vcpu.cpu
    with cpu.host_mode():
        ws.run_switch(ws.make_ops(cpu, state["vhe"]), program, structs,
                      vcpu)
    return machine_state(machine, [vcpu])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

#: Two flushes, the first taking the one queued interrupt: before the
#: compiler rejected a second flush, the empty second one dropped the
#: first one's charges.
TWO_FLUSHES = dict(
    program=((SWITCH_FLUSH_LRS, ws.GUEST, 0, "l0_kernel"),
             (SWITCH_FLUSH_LRS, ws.GUEST, 0, "l0_kernel")),
    state={"vhe": False, "seed": 0,
           "categories": ("world_switch", "world_switch"), "used_lrs": 0,
           "lrs": [0] * 4, "images": [[0] * 4] * 2, "queued": [16]})


@SETTINGS
@example(**TWO_FLUSHES)
@given(program=switch_programs(), state=machine_states)
def test_generated_programs_match_the_per_phase_runner(program, state):
    vhe, categories = state["vhe"], state["categories"]
    machine, _vcpu, _structs = twin(state)
    compiled = machine.cpus[0].compile_switch(program, vhe, categories)
    if rejected(program, vhe, categories):
        assert compiled is None
        return
    assert compiled is not None
    assert run_compiled(state, program) == run_per_phase(state, program)


@SETTINGS
@given(program=switch_programs(), vhe=st.booleans(),
       categories=st.tuples(st.sampled_from(STRUCT_CATEGORIES),
                            st.sampled_from(STRUCT_CATEGORIES)))
def test_a_cpu_without_a_gic_or_vhe_rejects_what_it_cannot_run(
        program, vhe, categories):
    """On ARMv8.0 (no VHE, no GIC attached) the ``vhe_only`` registers
    UNDEF before their charge, and the list-register steps have no GIC
    to sync."""
    cpu = Cpu(arch=ARMV8_0)
    cpu.host_e2h = False
    expected_none = (rejected(program, vhe, categories, has_vhe=False)
                     or moves_list_registers(program))
    assert (cpu.compile_switch(program, vhe, categories) is None) \
        is expected_none


@SETTINGS
@given(phase=register_phases(max_steps=10), state=machine_states)
def test_one_phase_programs_match_per_access(phase, state):
    program = (phase,)
    vhe, categories = state["vhe"], state["categories"]
    machine, _vcpu, _structs = twin(state)
    if rejected(program, vhe, categories):
        assert machine.cpus[0].compile_switch(program, vhe,
                                              categories) is None
        return
    compiled = run_compiled(state, program)
    with mock.patch.object(Cpu, "block_eligible", lambda self: False):
        per_access = run_per_phase(state, program)
    assert compiled == per_access


def observed_exports(state, program, per_phase):
    """*program* run as L0 runs a switch (``KvmHypervisor._switch``),
    observed by a tracer, a tracer whose ring evicts, and a metrics
    facade; *per_phase* forces the per-phase runner.  The exports and
    the machine state."""
    machine, vcpu, _structs = twin(state)
    tracers = (Tracer().attach_machine(machine),
               Tracer(capacity=3).attach_machine(machine))
    registry = MetricsRegistry()
    MachineMetrics(registry=registry, config="gen").attach_machine(machine)
    cpu = vcpu.cpu
    with mock.patch.object(Cpu, "switch_eligible", lambda self, switch,
                           vcpu: False) if per_phase else nullcontext():
        with cpu.host_mode():
            machine.kvm._switch(cpu, vcpu, "gen.switch", program)
    return {
        "traces": [chrome_trace_json(tracer) for tracer in tracers],
        "dropped": [(tracer.dropped_spans, tracer.dropped_cycles)
                    for tracer in tracers],
        "prometheus": registry.prometheus_text(),
        "json": registry.json_snapshot(),
        "state": machine_state(machine, [vcpu]),
    }


@SETTINGS
@given(program=switch_programs(), state=machine_states)
def test_observed_programs_export_what_the_per_phase_runner_does(
        program, state):
    if rejected(program, state["vhe"], state["categories"]):
        return
    assert observed_exports(state, program, False) == observed_exports(
        state, program, True)
