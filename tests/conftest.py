"""Shared fixtures for the test suite."""

import pytest

from repro.arch.cpu import Cpu
from repro.arch.exceptions import ExceptionLevel
from repro.arch.features import ARMV8_0, ARMV8_1, ARMV8_3, ARMV8_4
from repro.arch.registers import RegisterFile
from repro.memory.phys import PhysicalMemory


class RecordingHandler:
    """Minimal trap handler for CPU-level tests: records syndromes and
    emulates register accesses against a virtual register file."""

    def __init__(self):
        self.vregs = RegisterFile()
        self.syndromes = []

    def handle_trap(self, cpu, syndrome):
        self.syndromes.append(syndrome)
        if syndrome.register is not None:
            if syndrome.is_write:
                self.vregs.write(syndrome.register, syndrome.value or 0)
                return None
            return self.vregs.read(syndrome.register)
        return 0

    @property
    def trap_count(self):
        return len(self.syndromes)

    def last(self):
        return self.syndromes[-1] if self.syndromes else None


#: The vcpu structs :func:`machine_state` reads from every vcpu.
VCPU_STRUCTS = ("el1_ctx", "vel2_ctx", "shadow_ich", "vel1_shadow",
                "l1_vgic")


def regs(struct):
    """A vcpu struct's registers in insertion order (None: no struct)."""
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


def make_cpu(arch=ARMV8_4, with_memory=True, handler=True):
    cpu = Cpu(arch=arch)
    if with_memory:
        cpu.memory = PhysicalMemory()
    if handler:
        cpu.trap_handler = RecordingHandler()
    return cpu


@pytest.fixture
def cpu_v80():
    return make_cpu(ARMV8_0)


@pytest.fixture
def cpu_v81():
    return make_cpu(ARMV8_1)


@pytest.fixture
def cpu_v83():
    return make_cpu(ARMV8_3)


@pytest.fixture
def cpu_v84():
    return make_cpu(ARMV8_4)


def at_virtual_el2(cpu, vhe=False):
    cpu.enter_guest_context(ExceptionLevel.EL1, nv=True, virtual_e2h=vhe)
    return cpu


def enable_neve(cpu, baddr=0x7000_0000):
    from repro.core.vncr import VncrEl2
    cpu.el2_regs.write("VNCR_EL2", VncrEl2.make(baddr).value)
    return baddr


def seed_wrong_verdict(monkeypatch):
    """Seeded violation for the fast-path parity tests: every
    DispatchTable resolves a non-VHE guest hypervisor's SCTLR_EL1 read
    under NEVE to a trap, where the ladder defers it to the page."""
    from repro.arch.cpu import CTX_VEL2, OP_TRAP
    from repro.arch.dispatch import DispatchTable

    derive = DispatchTable._derive

    def wrong(table, ctx, neve, reg, enc, is_write):
        if (ctx == CTX_VEL2 and neve and reg.name == "SCTLR_EL1"
                and not is_write):
            return (OP_TRAP,)
        return derive(table, ctx, neve, reg, enc, is_write)

    monkeypatch.setattr(DispatchTable, "_derive", wrong)
