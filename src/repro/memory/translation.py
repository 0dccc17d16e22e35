"""Translation regimes: composing stage-1 and stage-2.

Section 4: "ARM hardware supports only two stages of address translation
via Stage-1 and Stage-2 page tables.  Nested virtualization requires at
least three: L2 VM virtual address (VA) to L2 VM physical address (PA),
L2 VM PA to L1 VM PA, L1 VM PA to L0 PA."  :func:`translate` walks an
arbitrary chain of tables so tests can check that collapsing (shadow
tables) is equivalent to the full chain.
"""

from dataclasses import dataclass

from repro.memory.pagetable import PageTable, Permission


@dataclass
class TranslationRegime:
    """The tables in effect for one running context.

    ``stage1`` may be None (MMU off / identity), ``stage2`` may be None
    (hypervisor context, or stage-2 disabled).
    """

    stage1: PageTable = None
    stage2: PageTable = None
    vmid: int = 0
    label: str = ""

    def translate(self, va, perm=Permission.R, tlb=None):
        """VA -> final PA through this regime, optionally via a TLB."""
        if tlb is not None:
            hit = tlb.lookup(self.vmid, va)
            if hit is not None:
                return hit | (va & 0xFFF)
        ipa = va if self.stage1 is None else self.stage1.translate(va, perm)
        pa = ipa if self.stage2 is None else self.stage2.translate(ipa, perm)
        if tlb is not None:
            tlb.fill(self.vmid, va, pa & ~0xFFF)
        return pa


def translate(address, tables, perm=Permission.R):
    """Walk *address* through a chain of page tables in order.

    Used to express the three-stage nested translation the hardware cannot
    do directly: ``translate(va, [l2_stage1, l1_stage2, l0_stage2])``.
    """
    out = address
    for table in tables:
        if table is None:
            continue
        out = table.translate(out, perm)
    return out

