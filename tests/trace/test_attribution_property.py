"""The tracer's boundary attribution equals per-charge attribution, and
a compiled world switch's summary equals the regions it stands for.

The tracer reads a span's cycles off the ledger total when the span
ends.  A reference attributor written here does it the direct way:
every charge goes to the innermost open span, or to "unattributed" when
none is open, and nothing after detach.  Random programs of begin, end
(including ``end(outer)`` over open children and ends of closed spans),
charge, instant and detach, on ring buffers small enough to evict, must
give both the same span cycles, dropped cycles, unattributed cycles and
reconciliation.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.exceptions import ExceptionLevel
from repro.metrics.cycles import CycleLedger
from repro.trace.spans import Tracer


class ReferenceAttributor:
    def __init__(self, capacity):
        self.capacity = capacity
        self.stack = []
        self.closed = deque()
        self.self_cycles = {}
        self.dropped_cycles = 0
        self.unattributed = 0
        self.charged = 0
        self.detached = False

    def begin(self, key):
        self.stack.append(key)
        self.self_cycles[key] = 0

    def end(self, key):
        if key not in self.stack:
            return
        while self.stack:
            top = self.stack.pop()
            self.closed.append(top)
            if len(self.closed) > self.capacity:
                self.dropped_cycles += self.self_cycles[self.closed.popleft()]
            if top == key:
                return

    def charge(self, cycles):
        self.charged += cycles
        if self.detached:
            return
        if self.stack:
            self.self_cycles[self.stack[-1]] += cycles
        else:
            self.unattributed += cycles


operations = st.lists(st.one_of(
    st.just(("begin",)),
    st.tuples(st.just("end"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("charge"), st.integers(min_value=0, max_value=50)),
    st.just(("instant",)),
    st.just(("detach",)),
), max_size=80)


@settings(max_examples=300, deadline=None)
@given(program=operations, capacity=st.integers(min_value=1, max_value=6),
       base=st.integers(min_value=0, max_value=1000))
def test_boundary_attribution_matches_per_charge_attribution(
        program, capacity, base):
    ledger = CycleLedger()
    ledger.charge(base, "before-attach")
    tracer = Tracer(capacity=capacity).attach(ledger)
    reference = ReferenceAttributor(capacity)
    begun = []
    for operation in program:
        kind = operation[0]
        if kind == "begin":
            span = tracer.begin("s%d" % len(begun))
            begun.append(span)
            reference.begin(span.span_id)
        elif kind == "end" and begun:
            span = begun[operation[1] % len(begun)]
            tracer.end(span)
            reference.end(span.span_id)
        elif kind == "charge":
            ledger.charge(operation[1], "x")
            reference.charge(operation[1])
        elif kind == "instant":
            tracer.instant("i")
        elif kind == "detach":
            tracer.detach()
            reference.detached = True
        assert tracer.unattributed_cycles == reference.unattributed

    assert [span.span_id for span in tracer.spans()] == list(reference.closed)
    for span in tracer.spans():
        assert span.self_cycles == reference.self_cycles[span.span_id]
    assert tracer.dropped_cycles == reference.dropped_cycles
    recon = tracer.reconcile()
    assert recon.recorded_cycles == sum(reference.self_cycles[key]
                                        for key in reference.closed)
    assert recon.dropped_cycles == reference.dropped_cycles
    assert recon.open_cycles == sum(reference.self_cycles[key]
                                    for key in reference.stack)
    assert recon.unattributed_cycles == reference.unattributed
    assert recon.ledger_delta == reference.charged
    assert recon.exact == (sum(reference.self_cycles.values())
                           + reference.unattributed == reference.charged)


# ---------------------------------------------------------------------------
# A compiled world switch's summary against the regions it stands for
# ---------------------------------------------------------------------------

class _Cpu:
    """What the tracer reads of a cpu."""

    current_el = ExceptionLevel.EL2
    cpu_id = 1


regions = st.lists(st.tuples(
    st.sampled_from(("ws.save_el1_state", "ws.vgic_save_mmio")),
    st.sampled_from((None, {"used_lrs": 0}, {"used_lrs": 3})),
    st.integers(min_value=0, max_value=40),  # cycles before the region
    st.integers(min_value=0, max_value=60)),  # the region's own
    max_size=6)

summary_operations = st.lists(st.one_of(
    st.just(("begin",)),
    st.tuples(st.just("end"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("charge"), st.integers(min_value=0, max_value=50)),
    st.just(("instant",)),
    st.just(("detach",)),
    st.tuples(st.just("switch"), regions,
              st.integers(min_value=0, max_value=40)),
), max_size=40)


def _span_fields(span):
    return (span.span_id, span.parent_id, span.name, span.kind, span.el,
            span.cpu_id, span.reason, span.detail, span.start_cycle,
            span.end_cycle, span.self_cycles, span.child_cycles)


def _per_region(tracer, ledger, cpu, parts, tail):
    """The per-phase runner's events for one switch."""
    outer = tracer.begin_phase(cpu, "l0.switch_to_host", "phase", None)
    for name, detail, lead, cycles in parts:
        ledger.charge(lead, "x")
        token = tracer.begin_phase(cpu, name, "phase", detail)
        ledger.charge(cycles, "x")
        tracer.end(token)
    ledger.charge(tail, "x")
    tracer.end(outer)


def _summarized(tracer, ledger, cpu, parts, tail):
    """The same switch, charged at once and delivered as a summary."""
    start = at = ledger.total
    summary = []
    for name, detail, lead, cycles in parts:
        at += lead
        summary.append((name, detail, at, at + cycles))
        at += cycles
    ledger.charge(at + tail - start, "x")
    tracer.switch_summary(cpu, "l0.switch_to_host", start, summary)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(program=summary_operations,
       capacity=st.integers(min_value=1, max_value=6),
       base=st.integers(min_value=0, max_value=1000))
def test_a_switch_summary_equals_the_regions_it_stands_for(
        program, capacity, base):
    """Random begin/end/charge/instant/detach programs with world
    switches among them, on rings small enough to evict: one tracer
    sees each switch region by region, the other its summary."""
    runs = []
    for deliver in (_per_region, _summarized):
        ledger = CycleLedger()
        ledger.charge(base, "before-attach")
        tracer = Tracer(capacity=capacity).attach(ledger)
        begun = []
        for operation in program:
            kind = operation[0]
            if kind == "begin":
                begun.append(tracer.begin("s%d" % len(begun)))
            elif kind == "end" and begun:
                tracer.end(begun[operation[1] % len(begun)])
            elif kind == "charge":
                ledger.charge(operation[1], "x")
            elif kind == "instant":
                tracer.instant("i")
            elif kind == "detach":
                tracer.detach()
            elif kind == "switch":
                deliver(tracer, ledger, _Cpu(), operation[1], operation[2])
        runs.append({
            "spans": [_span_fields(span) for span in tracer.spans()],
            "open": [_span_fields(span) for span in tracer.open_spans()],
            "instants": [(event.event_id, event.parent_id, event.ts)
                         for event in tracer.instants()],
            "dropped": (tracer.dropped_spans, tracer.dropped_cycles,
                        tracer.dropped_instants),
            "unattributed": tracer.unattributed_cycles,
            "reconcile": tracer.reconcile(),
        })
    assert runs[0] == runs[1]
