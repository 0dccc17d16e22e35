"""Cycle ledger and cost model tests."""

import pytest

from repro.metrics.cycles import (
    ARM_COSTS,
    X86_COSTS,
    CostModel,
    CycleLedger,
    ScopedMeter,
)
from repro.metrics.counters import ExitReason, TrapCounter


def test_ledger_accumulates_by_category():
    ledger = CycleLedger()
    ledger.charge(10, "trap")
    ledger.charge(5, "trap")
    ledger.charge(3, "guest")
    assert ledger.total == 18
    assert ledger.by_category == {"trap": 15, "guest": 3}


def test_ledger_rejects_negative_charges():
    with pytest.raises(ValueError):
        CycleLedger().charge(-1)


def test_snapshot_and_since():
    ledger = CycleLedger()
    ledger.charge(7)
    snap = ledger.snapshot()
    ledger.charge(13)
    assert ledger.since(snap) == 13


def test_reset():
    ledger = CycleLedger()
    ledger.charge(5, "x")
    ledger.reset()
    assert ledger.total == 0
    assert ledger.by_category == {}


def test_ledger_value_semantics():
    """Ledgers compare and print by (total, by_category), as the
    dataclass they replaced did."""
    a = CycleLedger()
    b = CycleLedger()
    assert a == b
    a.charge(4, "guest")
    assert a != b
    b.charge(4, "guest")
    assert a == b
    assert "total=4" in repr(a)


def test_trap_entry_cost_matches_paper_measurement():
    """Section 5: 'trapping from EL1 to EL2 was between 68 to 76 cycles,
    and returning ... was 65 cycles'."""
    assert 68 <= ARM_COSTS.trap_entry <= 76
    assert ARM_COSTS.trap_return == 65


def test_cost_model_is_frozen():
    with pytest.raises(Exception):
        ARM_COSTS.trap_entry = 1


def test_x86_model_differs_where_architecture_differs():
    assert X86_COSTS.vmexit_hw == ARM_COSTS.vmexit_hw  # shared constant
    assert X86_COSTS.sysreg_read > ARM_COSTS.sysreg_read  # msr vs mrs


def test_cost_model_replace_derives_variant():
    from dataclasses import replace
    slow = replace(ARM_COSTS, mem_load=100)
    assert slow.mem_load == 100
    assert ARM_COSTS.mem_load != 100


def test_scoped_meter():
    ledger = CycleLedger()
    traps = TrapCounter()
    with ScopedMeter(ledger, traps) as meter:
        ledger.charge(42)
        traps.record(ExitReason.HVC)
    assert meter.cycles == 42
    assert meter.traps == 1


def test_scoped_meter_without_traps():
    ledger = CycleLedger()
    with ScopedMeter(ledger) as meter:
        ledger.charge(10)
    assert meter.cycles == 10
    assert meter.traps == 0
