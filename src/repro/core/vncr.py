"""VNCR_EL2 and the deferred access page (Section 6.1, Table 2).

``VNCR_EL2`` is the one new register NEVE adds.  Its fields:

======  =============================================
bits    field
======  =============================================
52:12   BADDR — deferred access page base address
11:1    reserved
0       Enable
======  =============================================

Section 6.3 mandates that software programs a *page-aligned* physical
address into BADDR "to avoid the need to perform alignment checks or
handle address translation faults" in hardware; :class:`VncrEl2` enforces
that at write time, as real hardware would by construction of the field.

The deferred access page layout "can be arbitrarily defined as long as
each VM system register is stored at a well-defined offset from BADDR";
our architecturally-defined layout is the registry order in
:mod:`repro.arch.registers` (8 bytes per register).
"""

from repro.arch.registers import (
    NeveBehavior,
    iter_registers,
    lookup_register,
)
from repro.memory.phys import PAGE_SIZE, is_page_aligned

ENABLE_BIT = 1
BADDR_MASK = ((1 << 53) - 1) & ~0xFFF


class VncrEl2:
    """Typed view over a VNCR_EL2 value."""

    def __init__(self, value=0):
        self.value = value & 0xFFFFFFFFFFFFFFFF

    @classmethod
    def make(cls, baddr, enable=True):
        if not is_page_aligned(baddr):
            raise ValueError(
                "VNCR_EL2.BADDR must be page aligned (Section 6.3), "
                "got %#x" % baddr)
        if baddr & ~BADDR_MASK:
            raise ValueError("BADDR %#x exceeds the 52:12 field" % baddr)
        return cls((baddr & BADDR_MASK) | (ENABLE_BIT if enable else 0))

    @property
    def baddr(self):
        return self.value & BADDR_MASK

    @property
    def enabled(self):
        return bool(self.value & ENABLE_BIT)

    def with_enable(self, enable):
        if enable:
            return VncrEl2(self.value | ENABLE_BIT)
        return VncrEl2(self.value & ~ENABLE_BIT)

    def __repr__(self):
        return "VncrEl2(baddr=%#x, enabled=%r)" % (self.baddr, self.enabled)


def deferred_offset(reg_name):
    """Byte offset of *reg_name* within the deferred access page."""
    reg = lookup_register(reg_name)
    if reg.vncr_offset is None:
        raise KeyError("%s has no deferred access page slot" % reg_name)
    return reg.vncr_offset


def deferred_registers():
    """Every register with a slot in the page, in layout order."""
    regs = [r for r in iter_registers()
            if r.neve in (NeveBehavior.DEFER, NeveBehavior.CACHED_COPY)]
    return sorted(regs, key=lambda r: r.vncr_offset)


class DeferredAccessPage:
    """Host-hypervisor view of one guest hypervisor's deferred page.

    The *hardware* reaches the page through the CPU's deferred-access
    rewriting (:meth:`repro.arch.cpu.Cpu._deferred_access`); this class is
    the software view the host hypervisor uses to populate and read back
    values (the "typical workflow" of Section 6.1).  Both views address
    the same physical memory, which is the point of the design.
    """

    def __init__(self, memory, baddr):
        if not is_page_aligned(baddr):
            raise ValueError("deferred access page must be page aligned")
        from repro.arch.registers import deferred_page_size
        if deferred_page_size() > PAGE_SIZE:
            raise AssertionError(
                "register registry no longer fits one page; layout needs "
                "a second page")
        self.memory = memory
        self.baddr = baddr

    def read_reg(self, reg_name):
        return self.memory.read_word(self.baddr + deferred_offset(reg_name))

    def write_reg(self, reg_name, value):
        self.memory.write_word(self.baddr + deferred_offset(reg_name), value)

    def populate_from(self, regfile, names=None):
        """Copy register values into the page (host entering the guest
        hypervisor: "populates the deferred access page with initial
        values")."""
        if names is None:
            names = [r.name for r in deferred_registers()]
        for name in names:
            self.write_reg(name, regfile.read(name))

    def writeback_to(self, regfile, names=None):
        """Copy page values back into a register file (host consuming the
        guest hypervisor's deferred writes, e.g. on an eret trap)."""
        if names is None:
            names = [r.name for r in deferred_registers()]
        for name in names:
            regfile.write(name, self.read_reg(name))

    def as_dict(self):
        return {r.name: self.read_reg(r.name) for r in deferred_registers()}
