"""What is left of :class:`CycleLedger`'s hook slots.

Telemetry pulls from the ledger instead of being called per charge, so
the ledger no longer carries an ``observer``/``metrics_sink`` slot or
fuses its consumers into one callback.  The host profiler's
``profile_sink`` is the only hook left, a plain attribute.
"""

from repro.metrics.cycles import CycleLedger


def _recorder(log, tag):
    def hook(cycles, category):
        log.append((tag, cycles, category))
    return hook


def test_slots_stay_readable_properties():
    ledger = CycleLedger()
    assert ledger.profile_sink is None
    assert not hasattr(ledger, "observer")
    assert not hasattr(ledger, "metrics_sink")
    log = []
    hook = _recorder(log, "x")
    ledger.profile_sink = hook
    assert ledger.profile_sink is hook
    ledger.charge(3, "trap")
    assert log == [("x", 3, "trap")]


def test_value_semantics_ignore_hooks():
    """The old dataclass compared on (total, by_category) with the hook
    slots excluded; the plain class must keep that contract."""
    a = CycleLedger()
    b = CycleLedger()
    a.profile_sink = _recorder([], "a")
    assert a == b
    a.charge(4, "guest")
    assert a != b
    b.charge(4, "guest")
    assert a == b
    assert "total=4" in repr(a)
