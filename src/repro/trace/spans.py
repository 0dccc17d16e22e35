"""Span recorder with cycle-exact attribution.

Design constraints, in order:

* **Exact reconciliation.**  Cycles are read off the
  :class:`~repro.metrics.cycles.CycleLedger` total at span boundaries
  (the ledger never calls the tracer).  Spans nest LIFO, so an ended
  span's ``self_cycles`` is its extent minus its closed children's;
  movement while no span is open is ``unattributed_cycles``.  The
  invariant — enforced by
  :func:`repro.analysis.sanitizer.check_trace_reconciliation` — is::

      recorded + dropped + open + unattributed == ledger.total - base

  and it holds *by construction*, even when the bounded ring buffer
  evicts old spans (their cycles move to ``dropped_cycles``).

* **Near-zero-cost disabled path.**  Instrumentation sites check a
  plain attribute (``cpu.tracer is None``) and fall through;
  :func:`cpu_span` returns a shared null context manager.  The tracer
  itself never charges the ledger, so tracing adds **zero** cycles to
  any benchmark, enabled or not.

* **Determinism.**  Timestamps are virtual — the ledger total at the
  time of the event, relative to the attach point — and span ids are
  sequential.  The same seed and workload therefore produce the same
  spans, byte for byte, in the exported JSON.

This module deliberately imports nothing from :mod:`repro` so the hot
layers (``arch/cpu.py`` is the bottom of the import graph) can use it
without cycles.
"""

import enum
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass


def _clean(value):
    """Coerce *value* to a deterministic JSON-friendly primitive."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        inner = value.value
        return inner if isinstance(inner, (str, int)) else value.name
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _clean(val) for key, val in value.items()}
    return str(value)


def _clean_detail(detail):
    if not detail:
        return None
    return {str(key): _clean(val) for key, val in detail.items()}


class Span:
    """One traced operation: a trap, a world-switch phase, a recovery
    action, or a synthetic root/iteration grouping.

    ``self_cycles`` counts only cycles charged while this span was the
    *innermost* open span: fixed at its end as its extent
    ``end_cycle - start_cycle`` (which includes its children, because
    timestamps are ledger totals) minus ``child_cycles``, the extents of
    the children that closed inside it.
    """

    __slots__ = ("span_id", "parent_id", "name", "kind", "el", "cpu_id",
                 "reason", "detail", "start_cycle", "end_cycle",
                 "self_cycles", "child_cycles")

    def __init__(self, span_id, parent_id, name, kind, el, cpu_id,
                 reason, detail, start_cycle):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.el = el
        self.cpu_id = cpu_id
        self.reason = reason
        self.detail = detail
        self.start_cycle = start_cycle
        self.end_cycle = start_cycle
        self.self_cycles = 0
        self.child_cycles = 0

    @property
    def duration(self):
        return self.end_cycle - self.start_cycle

    def __repr__(self):
        return ("Span(id=%d parent=%r name=%r kind=%r cycles=%d self=%d)"
                % (self.span_id, self.parent_id, self.name, self.kind,
                   self.duration, self.self_cycles))


class Instant:
    """A point event (fault annotation, deferred-page access, ...)."""

    __slots__ = ("event_id", "parent_id", "name", "kind", "cpu_id", "ts",
                 "detail")

    def __init__(self, event_id, parent_id, name, kind, cpu_id, ts,
                 detail):
        self.event_id = event_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.cpu_id = cpu_id
        self.ts = ts
        self.detail = detail

    def __repr__(self):
        return ("Instant(id=%d parent=%r name=%r ts=%d)"
                % (self.event_id, self.parent_id, self.name, self.ts))


@dataclass(frozen=True)
class TraceReconciliation:
    """Outcome of checking ``sum(span.cycles) == ledger.total``."""

    recorded_cycles: int
    dropped_cycles: int
    open_cycles: int
    unattributed_cycles: int
    ledger_delta: int

    @property
    def attributed_cycles(self):
        return (self.recorded_cycles + self.dropped_cycles
                + self.open_cycles + self.unattributed_cycles)

    @property
    def exact(self):
        return self.attributed_cycles == self.ledger_delta

    def describe(self):
        return ("span cycles %d (recorded %d + dropped %d + open %d + "
                "unattributed %d) vs ledger delta %d: %s"
                % (self.attributed_cycles, self.recorded_cycles,
                   self.dropped_cycles, self.open_cycles,
                   self.unattributed_cycles, self.ledger_delta,
                   "exact" if self.exact else "MISMATCH"))


class _NullContext:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullContext()


class Tracer:
    """Bounded-ring-buffer span recorder.  It reads the ledger total at
    span boundaries and is never called by the ledger.

    Attach to a machine's ledger and cpus with :meth:`attach_machine`;
    detach — closing any spans left open — with :meth:`stop`.
    """

    def __init__(self, capacity=65536, instant_capacity=65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1: %r" % capacity)
        self.capacity = capacity
        self.instant_capacity = instant_capacity
        self.buffer = deque()
        self.instant_buffer = deque()
        self.dropped_spans = 0
        self.dropped_cycles = 0
        self.dropped_instants = 0
        self.ledger = None
        self.base = 0
        self._stack = []
        self._next_id = 0
        self._attached = []  # objects whose .tracer we set
        self._unattributed = 0  # closed idle intervals (no span open)
        self._idle_since = 0  # start of the current one
        self._stop_cycle = None  # now() at detach: attribution ends

    # -- attachment -------------------------------------------------

    def attach(self, ledger):
        """Attribute *ledger*'s movement from now on; timestamps become
        the ledger total relative to this point."""
        if self.ledger is not None:
            raise RuntimeError("tracer already attached to a ledger")
        self.ledger = ledger
        self.base = ledger.total
        return self

    def detach(self):
        """Stop attributing: ledger movement from here on lands in no
        span and is not unattributed either."""
        if self.ledger is not None and self._stop_cycle is None:
            self._stop_cycle = self.now()
        for obj in self._attached:
            if getattr(obj, "tracer", None) is self:
                obj.tracer = None
        self._attached = []

    def attach_machine(self, machine):
        """Attach to *machine*'s shared ledger and install ``tracer``
        on every cpu."""
        self.attach(machine.ledger)
        for cpu in machine.cpus:
            self.attach_to(cpu)
        return self

    def attach_to(self, obj):
        """Point *obj*.tracer at this tracer (restored by stop())."""
        obj.tracer = self
        self._attached.append(obj)
        return self

    def stop(self):
        """Close any open spans (innermost first) and detach."""
        while self._stack:
            self.end(self._stack[-1])
        self.detach()
        return self

    # -- clock / attribution ----------------------------------------

    def now(self):
        if self.ledger is None:
            return 0
        return self.ledger.total - self.base

    def _observed(self):
        """now(), held where :meth:`detach` stopped attribution."""
        return self.now() if self._stop_cycle is None else self._stop_cycle

    @property
    def unattributed_cycles(self):
        """Ledger movement while no span was open."""
        if self._stack:
            return self._unattributed
        return self._unattributed + self._observed() - self._idle_since

    # -- span lifecycle ---------------------------------------------

    def begin(self, name, kind="span", cpu=None, el=None, reason=None,
              detail=None):
        if self._stack:
            parent_id = self._stack[-1].span_id
        else:
            parent_id = None
            self._unattributed += self._observed() - self._idle_since
        if el is None and cpu is not None:
            el = getattr(cpu, "current_el", None)
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            kind=kind,
            el=_clean(el),
            cpu_id=getattr(cpu, "cpu_id", None) if cpu is not None else None,
            reason=_clean(reason),
            detail=_clean_detail(detail),
            start_cycle=self.now(),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span):
        stack = self._stack
        if span is None or span not in stack:
            return
        now, observed = self.now(), self._observed()
        # Children left open (an exception unwound past them) close
        # here too, each like a normal end.
        while stack:
            top = stack.pop()
            top.end_cycle = now
            extent = max(0, observed - top.start_cycle)
            top.self_cycles = extent - top.child_cycles
            if stack:
                stack[-1].child_cycles += extent
            else:
                self._idle_since = observed
            self._record(top)
            if top is span:
                return

    def _record(self, span):
        self.buffer.append(span)
        while len(self.buffer) > self.capacity:
            evicted = self.buffer.popleft()
            self.dropped_spans += 1
            self.dropped_cycles += evicted.self_cycles

    @contextmanager
    def span(self, name, kind="span", cpu=None, el=None, reason=None,
             detail=None):
        opened = self.begin(name, kind=kind, cpu=cpu, el=el,
                            reason=reason, detail=detail)
        try:
            yield opened
        finally:
            self.end(opened)

    def begin_trap(self, cpu, syndrome, reason):
        """Open a span for one trap to the host hypervisor.  Exactly one
        trap span exists per :meth:`TrapCounter.record`, so the tree's
        trap count *is* the exit-multiplication factor."""
        detail = {"ec": getattr(syndrome.ec, "name", syndrome.ec)}
        if syndrome.register is not None:
            detail["register"] = syndrome.register
        if syndrome.is_write is not None:
            detail["is_write"] = syndrome.is_write
        if syndrome.imm is not None:
            detail["imm"] = syndrome.imm
        if syndrome.fault_ipa is not None:
            detail["fault_ipa"] = syndrome.fault_ipa
        encoding = getattr(syndrome, "encoding", None)
        if encoding is not None and getattr(encoding, "name", "NORMAL") != "NORMAL":
            detail["encoding"] = encoding
        if getattr(cpu, "at_virtual_el2", False):
            detail["virtual_el2"] = True
        name = "trap:%s" % _clean(reason)
        if syndrome.register is not None:
            name = "%s:%s" % (name, syndrome.register)
        return self.begin(name, kind="trap", cpu=cpu, reason=reason,
                          detail=detail)

    def instant(self, name, kind="event", cpu=None, detail=None):
        event = Instant(
            event_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            kind=kind,
            cpu_id=getattr(cpu, "cpu_id", None) if cpu is not None else None,
            ts=self.now(),
            detail=_clean_detail(detail),
        )
        self._next_id += 1
        self.instant_buffer.append(event)
        while len(self.instant_buffer) > self.instant_capacity:
            self.instant_buffer.popleft()
            self.dropped_instants += 1
        return event

    # -- inspection -------------------------------------------------

    def spans(self):
        """Completed spans, oldest first (completion order)."""
        return list(self.buffer)

    def instants(self):
        return list(self.instant_buffer)

    def open_spans(self):
        return list(self._stack)

    def reconcile(self):
        """Check the cycle-exactness invariant against the ledger."""
        recorded = sum(span.self_cycles for span in self.buffer)
        stack = self._stack
        open_cycles = 0
        if stack:
            open_cycles = (max(0, self._observed() - stack[0].start_cycle)
                           - sum(span.child_cycles for span in stack))
        delta = 0 if self.ledger is None else self.ledger.total - self.base
        return TraceReconciliation(
            recorded_cycles=recorded,
            dropped_cycles=self.dropped_cycles,
            open_cycles=open_cycles,
            unattributed_cycles=self.unattributed_cycles,
            ledger_delta=delta,
        )

    def assert_reconciled(self):
        recon = self.reconcile()
        if not recon.exact:
            raise AssertionError(recon.describe())
        return recon


# -- instrumentation helpers (hot-path, disabled-path friendly) -----


class Phase:
    """One ``cpu_span`` region: a span on *tracer* and/or the region's
    ledger delta observed into the histogram *child* (either may be
    None).  Neither charges the ledger."""

    __slots__ = ("cpu", "tracer", "child", "name", "kind", "detail",
                 "span", "mark")

    def __init__(self, cpu, tracer, child, name=None, kind="phase",
                 detail=None):
        self.cpu = cpu
        self.tracer = tracer
        self.child = child
        self.name = name
        self.kind = kind
        self.detail = detail
        self.span = None
        self.mark = 0

    def __enter__(self):
        if self.tracer is not None:
            self.span = self.tracer.begin(self.name, kind=self.kind,
                                          cpu=self.cpu, detail=self.detail)
        if self.child is not None:
            self.mark = self.cpu.ledger.total
        return self.span

    def __exit__(self, exc_type, exc, tb):
        if self.child is not None:
            self.child.observe(self.cpu.ledger.total - self.mark)
        if self.tracer is not None:
            self.tracer.end(self.span)
        return False


def cpu_span(cpu, name, kind="phase", **detail):
    """Context manager opening a span on *cpu*'s tracer and/or timing
    the phase into *cpu*'s metrics facade; a shared no-op when both are
    disabled (the common case)."""
    tracer = getattr(cpu, "tracer", None)
    metrics = getattr(cpu, "metrics", None)
    if tracer is None and metrics is None:
        return NULL_SPAN
    return Phase(cpu, tracer,
                 None if metrics is None else metrics.phase(name),
                 name, kind, detail or None)


def cpu_instant(cpu, name, kind="event", **detail):
    """Record a point event on *cpu*'s tracer, if any."""
    tracer = getattr(cpu, "tracer", None)
    if tracer is not None:
        tracer.instant(name, kind=kind, cpu=cpu, detail=detail or None)
