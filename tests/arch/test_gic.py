"""GIC model tests: list registers, virtual CPU interface, SGI routing."""

import pytest

from repro.arch.gic import (
    SPURIOUS_INTID,
    Gic,
    ListRegister,
    LrState,
    lr_name,
)

from tests.conftest import make_cpu


@pytest.fixture
def gic_cpu():
    cpu = make_cpu()
    gic = Gic(num_lrs=4)
    gic.attach_cpu(cpu)
    return gic, cpu


# ---------------------------------------------------------------------------
# List register encoding
# ---------------------------------------------------------------------------

def test_lr_encode_decode_round_trip():
    lr = ListRegister(vintid=27, state=LrState.PENDING, priority=0xA0,
                      group=1, hw=True, pintid=0x30)
    assert ListRegister.decode(lr.encode()) == lr


def test_invalid_lr_is_zero():
    assert ListRegister().encode() == 0
    assert ListRegister.decode(0).state is LrState.INVALID


def test_lr_states_encoded_in_top_bits():
    for state in LrState:
        lr = ListRegister(vintid=5, state=state)
        assert ListRegister.decode(lr.encode()).state is state


def test_lr_name():
    assert lr_name(0) == "ICH_LR0_EL2"
    assert lr_name(15) == "ICH_LR15_EL2"


# ---------------------------------------------------------------------------
# Injection and status registers
# ---------------------------------------------------------------------------

def test_attach_reports_lr_count_in_vtr(gic_cpu):
    gic, cpu = gic_cpu
    assert cpu.el2_regs.read("ICH_VTR_EL2") == 3  # ListRegs = num - 1


def test_inject_uses_free_lr(gic_cpu):
    gic, cpu = gic_cpu
    index = gic.inject_virtual_interrupt(cpu, 27)
    assert index == 0
    lr = gic.read_lr(cpu, 0)
    assert lr.vintid == 27
    assert lr.state is LrState.PENDING


def test_inject_fills_lrs_in_order(gic_cpu):
    gic, cpu = gic_cpu
    for expected, intid in enumerate((20, 21, 22, 23)):
        assert gic.inject_virtual_interrupt(cpu, intid) == expected


def test_inject_returns_none_when_full(gic_cpu):
    gic, cpu = gic_cpu
    for intid in range(4):
        gic.inject_virtual_interrupt(cpu, 20 + intid)
    assert gic.inject_virtual_interrupt(cpu, 30) is None


def test_elrsr_tracks_empty_lrs(gic_cpu):
    gic, cpu = gic_cpu
    assert cpu.el2_regs.read("ICH_ELRSR_EL2") == 0b1111
    gic.inject_virtual_interrupt(cpu, 27)
    assert cpu.el2_regs.read("ICH_ELRSR_EL2") == 0b1110


def test_used_lr_count(gic_cpu):
    gic, cpu = gic_cpu
    assert gic.used_lr_count(cpu) == 0
    gic.inject_virtual_interrupt(cpu, 27)
    gic.inject_virtual_interrupt(cpu, 28)
    assert gic.used_lr_count(cpu) == 2


def _decoded_status(values, uie):
    """The status registers from decoded list registers (the reference
    for sync_status' bit tests on the raw values)."""
    elrsr = eisr = 0
    for index, value in enumerate(values):
        lr = ListRegister.decode(value)
        if lr.state is LrState.INVALID:
            elrsr |= 1 << index
            if lr.vintid and not lr.hw:
                eisr |= 1 << index
    used = sum(ListRegister.decode(value).state is not LrState.INVALID
               for value in values)
    return elrsr, eisr, int(uie and used == 0), used


def test_status_bit_tests_match_decoded_list_registers(gic_cpu):
    gic, cpu = gic_cpu
    lrs = [ListRegister(vintid=vintid, state=state, hw=hw, pintid=3)
           for state in LrState for hw in (False, True)
           for vintid in (0, 27)]
    # Every LR in every slot, including an all-invalid bank.
    banks = [[lr.encode() for lr in lrs[start:start + 4]]
             for start in range(0, len(lrs), 4)]
    banks.append([0, 0, 0, 0])
    for uie in (False, True):
        cpu.el2_regs.write("ICH_HCR_EL2", 0x2 if uie else 0)
        for bank in banks:
            cpu.el2_regs.put_many([lr_name(i) for i in range(4)], bank)
            gic.sync_status(cpu)
            got = (cpu.el2_regs.read("ICH_ELRSR_EL2"),
                   cpu.el2_regs.read("ICH_EISR_EL2"),
                   cpu.el2_regs.read("ICH_MISR_EL2"),
                   gic.used_lr_count(cpu))
            assert got == _decoded_status(bank, uie), bank


# ---------------------------------------------------------------------------
# Virtual CPU interface (the trap-free VM side)
# ---------------------------------------------------------------------------

def test_acknowledge_returns_pending_intid(gic_cpu):
    gic, cpu = gic_cpu
    gic.inject_virtual_interrupt(cpu, 27)
    assert gic.cpu_interface_access(cpu, "ICC_IAR1_EL1", False, None) == 27
    assert gic.read_lr(cpu, 0).state is LrState.ACTIVE


def test_acknowledge_empty_returns_spurious(gic_cpu):
    gic, cpu = gic_cpu
    result = gic.cpu_interface_access(cpu, "ICC_IAR1_EL1", False, None)
    assert result == SPURIOUS_INTID


def test_acknowledge_honours_priority(gic_cpu):
    gic, cpu = gic_cpu
    gic.inject_virtual_interrupt(cpu, 40, priority=0xC0)
    gic.inject_virtual_interrupt(cpu, 41, priority=0x20)  # more urgent
    assert gic.cpu_interface_access(cpu, "ICC_IAR1_EL1", False, None) == 41


def test_eoi_completes_interrupt_without_trap(gic_cpu):
    """The Virtual EOI benchmark path: no hypervisor involvement."""
    gic, cpu = gic_cpu
    gic.inject_virtual_interrupt(cpu, 27)
    gic.cpu_interface_access(cpu, "ICC_IAR1_EL1", False, None)
    gic.cpu_interface_access(cpu, "ICC_EOIR1_EL1", True, 27)
    assert gic.read_lr(cpu, 0).state is LrState.INVALID
    assert cpu.traps.total == 0


def test_eoi_pending_active_goes_back_to_pending(gic_cpu):
    gic, cpu = gic_cpu
    gic.write_lr(cpu, 0, ListRegister(vintid=27,
                                      state=LrState.PENDING_ACTIVE))
    gic.cpu_interface_access(cpu, "ICC_EOIR1_EL1", True, 27)
    assert gic.read_lr(cpu, 0).state is LrState.PENDING


def test_eoi_without_matching_interrupt_is_ignored(gic_cpu):
    gic, cpu = gic_cpu
    gic.cpu_interface_access(cpu, "ICC_EOIR1_EL1", True, 99)  # no raise


def test_icc_state_registers_stored_per_cpu(gic_cpu):
    gic, cpu = gic_cpu
    gic.cpu_interface_access(cpu, "ICC_PMR_EL1", True, 0xF0)
    assert gic.cpu_interface_access(cpu, "ICC_PMR_EL1", False, None) == 0xF0


def test_full_interrupt_lifecycle_via_sysreg_path(gic_cpu):
    """Drive the same flow through the CPU's MSR/MRS path, as a guest."""
    from repro.arch.exceptions import ExceptionLevel
    gic, cpu = gic_cpu
    cpu.enter_guest_context(ExceptionLevel.EL1)
    gic.inject_virtual_interrupt(cpu, 27)
    intid = cpu.mrs("ICC_IAR1_EL1")
    assert intid == 27
    cpu.msr("ICC_EOIR1_EL1", intid)
    assert gic.used_lr_count(cpu) == 0
    assert cpu.traps.total == 0


def test_eoi_cost_matches_paper(gic_cpu):
    """Table 1: Virtual EOI is 71 cycles on ARM in every configuration."""
    from repro.arch.exceptions import ExceptionLevel
    gic, cpu = gic_cpu
    cpu.enter_guest_context(ExceptionLevel.EL1)
    gic.inject_virtual_interrupt(cpu, 27)
    cpu.mrs("ICC_IAR1_EL1")
    before = cpu.ledger.total
    cpu.msr("ICC_EOIR1_EL1", 27)
    cost = cpu.ledger.total - before
    assert 55 <= cost <= 85  # paper: 71


# ---------------------------------------------------------------------------
# Physical interrupt plumbing
# ---------------------------------------------------------------------------

def test_sgi_routing(gic_cpu):
    gic, cpu = gic_cpu
    other = make_cpu()
    other.cpu_id = 1
    gic.attach_cpu(other)
    gic.send_sgi(1, 2)
    assert gic.take_physical(1) == 2
    assert gic.take_physical(1) is None


def test_sgi_range_enforced(gic_cpu):
    gic, cpu = gic_cpu
    with pytest.raises(ValueError):
        gic.send_sgi(0, 40)


def test_maintenance_underflow_only_when_enabled(gic_cpu):
    gic, cpu = gic_cpu
    assert cpu.el2_regs.read("ICH_MISR_EL2") == 0
    cpu.el2_regs.write("ICH_HCR_EL2", 0x2)  # UIE
    gic.sync_status(cpu)
    assert cpu.el2_regs.read("ICH_MISR_EL2") == 1


def test_lr_count_limits():
    with pytest.raises(ValueError):
        Gic(num_lrs=0)
    with pytest.raises(ValueError):
        Gic(num_lrs=17)
