"""Parity property tests for the precompiled dispatch fast path.

The fast path (``Cpu._fast_sysreg_access`` over
:class:`repro.arch.dispatch.DispatchTable`) must be observationally
identical to the classification ladder for every (architecture,
context, register, encoding, op) point: same result value, same
:class:`AccessKind`, same exception type, same ledger movement.  The
tests here drive two mirrored CPUs — one with a table, one without —
through the full access matrix twice, so both the cold (resolve) and
warm (verdict-cache hit) paths are exercised.
"""

import pytest

from repro.arch.cpu import (
    CTX_EL2,
    CTX_EL2_E2H,
    CTX_GUEST,
    CTX_VEL2,
    CTX_VEL2_VHE,
    Cpu,
    Encoding,
)
from repro.arch.dispatch import CONTEXTS, DispatchTable
from repro.arch.exceptions import ExceptionLevel, UndefinedInstruction
from repro.arch.features import ARMV8_3, ARMV8_4
from repro.arch.registers import RegClass, RegisterFile, iter_registers
from repro.core.vncr import VncrEl2
from repro.memory.phys import PhysicalMemory
from tests.conftest import seed_wrong_verdict

VNCR_BADDR = 0x7000_0000


class _NullHandler:
    """The conformance suite's synthetic trap handler: trapped writes
    land in a side register file, trapped reads come back from it."""

    def __init__(self):
        self.vregs = RegisterFile()

    def handle_trap(self, cpu, syndrome):
        if syndrome.register is not None:
            if syndrome.is_write:
                self.vregs.write(syndrome.register, syndrome.value or 0)
                return None
            return self.vregs.read(syndrome.register)
        return 0


def _make_cpu(arch, neve, dispatch):
    cpu = Cpu(arch=arch, memory=PhysicalMemory(), dispatch=dispatch)
    cpu.trap_handler = _NullHandler()
    if neve:
        cpu.el2_regs.write("VNCR_EL2", VncrEl2.make(VNCR_BADDR).value)  # lint: allow(sim-sysreg-bypass)
    return cpu


def _configure(cpu, ctx):
    if ctx in (CTX_EL2, CTX_EL2_E2H):
        cpu.enter_host_context()
        cpu.host_e2h = ctx == CTX_EL2_E2H
    elif ctx in (CTX_VEL2, CTX_VEL2_VHE):
        cpu.enter_guest_context(ExceptionLevel.EL1, nv=True,
                                virtual_e2h=(ctx == CTX_VEL2_VHE))
    else:
        cpu.enter_guest_context(ExceptionLevel.EL1)


def _access(cpu, reg, is_write, enc):
    """One access, folded to a comparable outcome tuple."""
    try:
        value, kind = cpu.sysreg_access(
            reg.name, is_write=is_write,
            value=1 if is_write else None, enc=enc)
    except UndefinedInstruction:
        return ("undef",)
    return ("ok", value, kind)


def _encodings_for(reg):
    if reg.el == 1:
        return (Encoding.NORMAL, Encoding.EL12, Encoding.EL02)
    return (Encoding.NORMAL,)


def _assert_matrix_parity(arch, ctx):
    """Drive a ladder CPU and a table CPU through the access matrix
    twice; every outcome and ledger movement must match."""
    neve = arch.has_neve
    table = DispatchTable(arch)
    slow = _make_cpu(arch, neve, dispatch=None)
    fast = _make_cpu(arch, neve, dispatch=table)
    _configure(slow, ctx)
    _configure(fast, ctx)
    compared = 0
    for _round in range(2):  # round 2 runs entirely on cached verdicts
        for reg in iter_registers():
            if reg.reg_class is RegClass.SPECIAL:
                continue
            for enc in _encodings_for(reg):
                for is_write in (False, True):
                    slow_out = _access(slow, reg, is_write, enc)
                    fast_out = _access(fast, reg, is_write, enc)
                    assert slow_out == fast_out, (
                        "%s %s enc=%s ctx=%s: ladder %r, fast path %r"
                        % (reg.name, "write" if is_write else "read",
                           enc.name, ctx, slow_out, fast_out))
                    compared += 1
                    assert slow.ledger.total == fast.ledger.total, (
                        "%s %s enc=%s ctx=%s: ledgers diverged"
                        % (reg.name, "write" if is_write else "read",
                           enc.name, ctx))
    assert compared > 0
    assert slow.ledger.by_category == fast.ledger.by_category
    assert table.resolutions > 0


@pytest.mark.parametrize("arch", [ARMV8_3, ARMV8_4],
                         ids=["v8.3", "v8.4-neve"])
@pytest.mark.parametrize("ctx", CONTEXTS,
                         ids=["el2", "el2+e2h", "vel2", "vel2+vhe",
                              "guest"])
def test_fastpath_matches_ladder(arch, ctx):
    _assert_matrix_parity(arch, ctx)


def test_matrix_parity_catches_a_wrong_table_action(monkeypatch):
    seed_wrong_verdict(monkeypatch)
    with pytest.raises(AssertionError, match="SCTLR_EL1 read"):
        _assert_matrix_parity(ARMV8_4, CTX_VEL2)


def test_verdict_cache_invalidation_clears_state():
    table = DispatchTable(ARMV8_4)
    cpu = _make_cpu(ARMV8_4, neve=True, dispatch=table)
    _configure(cpu, CTX_VEL2)
    cpu.sysreg_access("SCTLR_EL1", is_write=False)
    assert cpu._verdicts
    cpu.invalidate_verdict_cache()
    assert not cpu._verdicts
    assert cpu._neve_verdict_state is None


def test_vncr_write_invalidates_fast_cache():
    """Disabling NEVE through the architectural msr must flip the
    served verdicts (defer -> trap) without an explicit invalidate."""
    table = DispatchTable(ARMV8_4)
    cpu = _make_cpu(ARMV8_4, neve=True, dispatch=table)
    _configure(cpu, CTX_VEL2)
    _value, kind_armed = cpu.sysreg_access("SCTLR_EL1", is_write=False)
    cpu.enter_host_context()
    cpu.sysreg_access("VNCR_EL2", is_write=True,
                      value=VncrEl2.make(VNCR_BADDR, enable=False).value)
    _configure(cpu, CTX_VEL2)
    _value, kind_disabled = cpu.sysreg_access("SCTLR_EL1", is_write=False)
    assert kind_armed is not kind_disabled
