"""Page tables for stage-1 and stage-2 translation.

The model is a 4 KB-granule, multi-level page table keyed by virtual (or
intermediate-physical) page number.  We keep the *semantics* of ARM
translation — per-page output address, permissions, level of mapping,
faults with a fault IPA — without modelling the bit-level descriptor
format, which the paper's evaluation never depends on.
"""

import enum
from dataclasses import dataclass

from repro.memory.phys import PAGE_SIZE, page_align

#: A level-2 block mapping covers 2 MB (4 KB granule).
BLOCK_SIZE = 2 * 1024 * 1024
BLOCK_MASK = BLOCK_SIZE - 1


def block_align(addr):
    return addr & ~BLOCK_MASK


class Permission(enum.Flag):
    NONE = 0
    R = enum.auto()
    W = enum.auto()
    X = enum.auto()
    RW = R | W
    RX = R | X
    RWX = R | W | X


class FaultType(enum.Enum):
    TRANSLATION = "translation"  # no mapping
    PERMISSION = "permission"  # mapped, insufficient rights


class TranslationFault(Exception):
    """A stage of translation failed.

    ``stage`` is 1 or 2; ``address`` is the input address to the failing
    stage (so for stage-2 faults it is the IPA, matching ``HPFAR_EL2``).
    """

    def __init__(self, stage, address, fault_type, is_write=False):
        self.stage = stage
        self.address = address
        self.fault_type = fault_type
        self.is_write = is_write
        super().__init__(
            "stage-%d %s fault at %#x" % (stage, fault_type.value, address))


@dataclass(frozen=True)
class Mapping:
    """One page mapping: input page -> output page with permissions."""

    output_page: int
    perm: Permission
    is_device: bool = False


class PageTable:
    """A page-granular translation table.

    ``stage`` tags the table (1 or 2) so faults report correctly, and
    ``fmt`` records whether the table uses the EL1 or EL2 descriptor
    format — ARMv8.3 lets a deprivileged hypervisor keep using the EL2
    format at EL1 (Section 2), which we track as metadata so tests can
    assert the behaviour.
    """

    def __init__(self, stage=1, fmt="el1", name=""):
        if stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        if fmt not in ("el1", "el2"):
            raise ValueError("fmt must be 'el1' or 'el2'")
        self.stage = stage
        self.fmt = fmt
        self.name = name
        self._entries = {}
        self._block_entries = {}  # block-aligned input -> 2 MB Mapping

    def map_page(self, in_addr, out_addr, perm=Permission.RWX,
                 is_device=False):
        """Map the page containing *in_addr* to the page containing
        *out_addr*."""
        in_page = page_align(in_addr)
        out_page = page_align(out_addr)
        self._entries[in_page] = Mapping(out_page, perm, is_device)

    def map_range(self, in_base, out_base, size, perm=Permission.RWX,
                  is_device=False):
        if size <= 0:
            raise ValueError("size must be positive")
        offset = 0
        while offset < size:
            self.map_page(in_base + offset, out_base + offset, perm,
                          is_device)
            offset += PAGE_SIZE

    def map_block(self, in_addr, out_addr, perm=Permission.RWX,
                  is_device=False):
        """Install a 2 MB block mapping (both addresses block-aligned).

        Block mappings are what OSes and hypervisors prefer for large
        regions; shadow-table construction must *split* them when the
        other stage only offers page granularity.
        """
        if in_addr & BLOCK_MASK or out_addr & BLOCK_MASK:
            raise ValueError("block mappings must be 2 MB aligned")
        self._block_entries[in_addr] = Mapping(out_addr, perm, is_device)

    def unmap_page(self, in_addr):
        self._entries.pop(page_align(in_addr), None)

    def unmap_block(self, in_addr):
        self._block_entries.pop(block_align(in_addr), None)

    def unmap_all(self):
        self._entries.clear()
        self._block_entries.clear()

    def lookup(self, in_addr):
        """Return the page-granular Mapping for *in_addr* or None.

        Page entries take precedence over a covering block (the split
        case); a block hit is returned as an equivalent page mapping.
        """
        page = self._entries.get(page_align(in_addr))
        if page is not None:
            return page
        block = self._block_entries.get(block_align(in_addr))
        if block is None:
            return None
        offset = page_align(in_addr) - block_align(in_addr)
        return Mapping(block.output_page + offset, block.perm,
                       block.is_device)

    def lookup_block(self, in_addr):
        """The raw block entry covering *in_addr*, if any."""
        return self._block_entries.get(block_align(in_addr))

    @property
    def block_count(self):
        return len(self._block_entries)

    def translate(self, in_addr, perm=Permission.R):
        """Translate *in_addr*, raising TranslationFault on failure."""
        mapping = self.lookup(in_addr)
        if mapping is None:
            raise TranslationFault(self.stage, in_addr,
                                   FaultType.TRANSLATION,
                                   is_write=bool(perm & Permission.W))
        if perm & ~mapping.perm:
            raise TranslationFault(self.stage, in_addr, FaultType.PERMISSION,
                                   is_write=bool(perm & Permission.W))
        return mapping.output_page | (in_addr & (PAGE_SIZE - 1))

    def mapped_pages(self):
        """Iterate ``(input_page, Mapping)`` pairs, sorted by input page."""
        return sorted(self._entries.items())

    def __len__(self):
        return len(self._entries)

    def __contains__(self, in_addr):
        return self.lookup(in_addr) is not None
