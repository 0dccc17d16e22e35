"""The tracer's boundary attribution equals per-charge attribution.

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
