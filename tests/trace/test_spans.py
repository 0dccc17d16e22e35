"""Tracer core: attribution, nesting, eviction, the disabled path, and
regions over the observers list."""

import pytest

from repro.metrics.cycles import CycleLedger
from repro.trace.spans import NULL_SPAN, Observer, Tracer, cpu_span


class FakeCpu:
    cpu_id = 0
    current_el = 2

    def __init__(self):
        self.ledger = CycleLedger()
        self.observers = []


class Recorder(Observer):
    """Logs the region events it sees."""

    def __init__(self, log):
        self.log = log

    def begin_phase(self, cpu, name, kind, detail):
        self.log.append(("begin", self, name))
        return name

    def end(self, token):
        self.log.append(("end", self, token))


def make_tracer(**kwargs):
    ledger = CycleLedger()
    tracer = Tracer(**kwargs).attach(ledger)
    return tracer, ledger


def test_charges_attribute_to_innermost_open_span():
    tracer, ledger = make_tracer()
    outer = tracer.begin("outer")
    ledger.charge(10, "a")
    inner = tracer.begin("inner")
    ledger.charge(7, "b")
    tracer.end(inner)
    ledger.charge(3, "c")
    tracer.end(outer)
    spans = {span.name: span for span in tracer.spans()}
    assert spans["inner"].self_cycles == 7
    assert spans["outer"].self_cycles == 13
    assert spans["outer"].duration == 20
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert tracer.assert_reconciled().exact


def test_charges_outside_any_span_are_unattributed():
    tracer, ledger = make_tracer()
    ledger.charge(42, "stray")
    assert tracer.unattributed_cycles == 42
    assert tracer.assert_reconciled().exact


def test_ring_eviction_keeps_reconciliation_exact():
    tracer, ledger = make_tracer(capacity=2)
    for index in range(5):
        with tracer.span("s%d" % index):
            ledger.charge(10, "x")
    assert len(tracer.spans()) == 2
    assert tracer.dropped_spans == 3
    assert tracer.dropped_cycles == 30
    assert tracer.assert_reconciled().exact


def test_end_closes_children_left_open_by_exceptions():
    tracer, ledger = make_tracer()
    outer = tracer.begin("outer")
    tracer.begin("orphan")
    ledger.charge(5, "x")
    tracer.end(outer)  # orphan must be closed too, cycles kept
    assert not tracer.open_spans()
    assert {span.name for span in tracer.spans()} == {"outer", "orphan"}
    assert tracer.assert_reconciled().exact


def test_ending_a_closed_span_is_a_noop():
    tracer, _ledger = make_tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(inner)  # must not drain the stack
    assert tracer.open_spans() == [outer]


def test_stop_closes_open_spans_and_detaches():
    cpu = FakeCpu()
    tracer = Tracer().attach_machine(cpu)
    tracer.begin("left-open")
    cpu.ledger.charge(3, "x")
    tracer.stop()
    assert not tracer.open_spans()
    assert cpu.observers == []
    cpu.ledger.charge(5, "after")  # detached: attributed to nothing
    (span,) = tracer.spans()
    assert span.self_cycles == 3
    assert tracer.unattributed_cycles == 0


def test_double_attach_rejected():
    tracer, _ledger = make_tracer()
    with pytest.raises(RuntimeError):
        tracer.attach(CycleLedger())


def test_disabled_path_returns_shared_null_context():
    cpu = FakeCpu()
    assert cpu_span(cpu, "anything") is NULL_SPAN


def test_cpu_span_records_on_attached_tracer():
    cpu = FakeCpu()
    tracer = Tracer().attach_machine(cpu)
    with cpu_span(cpu, "phase", foo="bar"):
        cpu.ledger.charge(4, "x")
    (span,) = tracer.spans()
    assert span.name == "phase"
    assert span.detail == {"foo": "bar"}
    assert span.self_cycles == 4
    assert span.el == 2 and span.cpu_id == 0


def test_region_ends_only_the_observers_that_saw_its_begin():
    """An observer attached inside an open region never sees its end;
    one detached inside it still does, with its own token.  Attaching
    twice observes once."""
    cpu = FakeCpu()
    log = []
    early, late = Recorder(log), Recorder(log)
    early.attach_machine(cpu)
    early.attach_machine(cpu)
    with cpu_span(cpu, "outer"):
        late.attach_machine(cpu)
        with cpu_span(cpu, "inner"):
            cpu.observers.remove(early)
    assert log == [("begin", early, "outer"),
                   ("begin", early, "inner"), ("begin", late, "inner"),
                   ("end", early, "inner"), ("end", late, "inner"),
                   ("end", early, "outer")]


def test_tracer_never_charges_the_ledger():
    tracer, ledger = make_tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.instant("evt")
    assert ledger.total == 0
