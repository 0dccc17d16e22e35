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

* **One observer list, near-zero-cost when empty.**  The tracer is one
  :class:`Observer` among the machine's ``observers`` (the metrics
  facade is another).  Every event site loops over that one list; an
  empty list is the disabled path, one truth test per site, and
  :func:`cpu_span` then returns a shared null context manager.  No
  observer charges the ledger, so tracing adds **zero** cycles to any
  benchmark, enabled or not.

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


class Observer:
    """One entry of a machine's ``observers`` list, which the machine's
    cpus and fault injectors share: the fixed event set its sites
    report, each a no-op here.  An observer only reads; it never
    charges the ledger or changes machine state.

    Regions: :meth:`begin_trap` (one per ``TrapCounter.record``) and
    :meth:`begin_phase` (one per :func:`cpu_span`) return a token, and
    the region passes it back to :meth:`end` on the same observer.  A
    compiled world switch opens none: it reports the regions the
    per-phase runner would have opened, after the fact, in one
    :meth:`switch_summary`.
    """

    def attach_machine(self, owner):
        """Observe *owner*, a machine or a bare cpu: join its
        ``observers`` list, once however often this is called."""
        if self not in owner.observers:
            owner.observers.append(self)
        return self

    def begin_trap(self, cpu, syndrome, reason):
        """A trap to the host hypervisor begins on *cpu*."""
        return None

    def begin_phase(self, cpu, name, kind, detail):
        """A named phase (world-switch step, handler, recovery action)
        begins on *cpu*; *detail* is a dict or None."""
        return None

    def end(self, token):
        """The region whose begin returned *token* ends."""

    def switch_summary(self, cpu, name, start, regions):
        """A compiled world switch ran on *cpu* from ledger total
        *start* to now.  It stands for phase region *name* around
        *regions*, each ``(name, detail, begin, end)`` in ledger totals,
        one after another and none open at its end; a vGIC region's
        *detail* dict is shared with other summaries, so read it only."""

    def deferred(self, cpu, reg, is_write):
        """A virtual-EL2 access resolved against the deferred access
        page (register *reg*) instead of trapping."""

    def fault(self, name, detail):
        """An injected fault fired."""

    def nesting(self, cpu, depth):
        """*cpu* now runs at nesting *depth* (1 a VM or its guest
        hypervisor, 2 the nested VM)."""

    def list_registers(self, cpu, used_lrs):
        """A vGIC save or restore moves *used_lrs* list registers."""

    def vel2_exit(self, cpu, reason):
        """The guest hypervisor handles a VM exit at virtual EL2."""

    def boundary_trap(self, cpu, boundary):
        """A trap crosses a recursive-stack boundary."""

    def recovery(self, cpu, event, cycles):
        """The recovery ladder on *cpu* records *event* or charges
        *cycles* (the other is None)."""

    def neve_state(self, cpu, armed, dwell):
        """NEVE is re-armed (*armed* 1, after *dwell* degraded cycles)
        or degraded (*armed* 0, *dwell* None) on *cpu*."""


class Region(list):
    """One open region, a trap or a phase: each observer that saw its
    begin, paired with the token that begin returned.  Ending it ends
    exactly those, so an observer attached or detached while the region
    is open sees all of it or none of it."""

    __slots__ = ()

    def __enter__(self):
        return None

    def close(self, *exc_info):
        """End the region on each observer that saw its begin."""
        for observer, token in self:
            observer.end(token)

    __exit__ = close  # returns None: an exception keeps propagating


def cpu_span(cpu, name, kind="phase", **detail):
    """Open a phase region named *name* on every observer of *cpu*; a
    shared no-op context when nothing observes (the common case)."""
    observers = cpu.observers
    if not observers:
        return NULL_SPAN
    detail = detail or None
    region = Region()
    for observer in observers:
        region.append((observer,
                       observer.begin_phase(cpu, name, kind, detail)))
    return region


class Tracer(Observer):
    """Bounded-ring-buffer span recorder.  It reads the ledger total at
    span boundaries and is never called by the ledger.

    Attach to a machine's ledger and observers with
    :meth:`attach_machine`; detach — closing any spans left open — with
    :meth:`stop`.
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
        self._observers = None  # the observers list attach_machine joined
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
        span and is not unattributed either.  Leaves the observers list
        :meth:`attach_machine` joined."""
        if self.ledger is not None and self._stop_cycle is None:
            self._stop_cycle = self.now()
        if self._observers is not None and self in self._observers:
            self._observers.remove(self)
        self._observers = None

    def attach_machine(self, owner):
        """Attach to *owner*'s ledger and join its observers list."""
        self.attach(owner.ledger)
        self._observers = owner.observers
        return super().attach_machine(owner)

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

    def begin(self, name, kind="span", cpu=None, reason=None, detail=None):
        """Open a span; it nests under the innermost open span."""
        span = self.begin_phase(cpu, name, kind, detail)
        span.reason = _clean(reason)
        return span

    def begin_phase(self, cpu, name, kind, detail):
        """Open a span for a phase region on *cpu* (None: no cpu); its
        exception level is the cpu's now."""
        return self._open(name, kind, _clean(getattr(cpu, "current_el",
                                                     None)),
                          getattr(cpu, "cpu_id", None),
                          _clean_detail(detail), self.now())

    def _open(self, name, kind, el, cpu_id, detail, now):
        """Open a span at clock reading *now* (see :meth:`now`)."""
        stack = self._stack
        if stack:
            parent_id = stack[-1].span_id
        else:
            parent_id = None
            observed = now if self._stop_cycle is None else self._stop_cycle
            self._unattributed += observed - self._idle_since
        span = Span(self._next_id, parent_id, name, kind, el, cpu_id, None,
                    detail, now)
        self._next_id += 1
        stack.append(span)
        return span

    def end(self, span):
        if span is None or span not in self._stack:
            return
        self._close(span, self.now())

    def switch_summary(self, cpu, name, start, regions):
        """Record the spans the per-phase runner would have: *name* and,
        inside it, one span per region, each ended before the next
        begins.  Ids, parents, boundaries, self cycles, completion
        order and eviction are what :meth:`begin_phase` and :meth:`end`
        give them one region at a time; the regions are leaves, so each
        span is built closed.  The ring evicts oldest first, so evicting
        once the outer span is recorded drops what evicting after each
        span would."""
        el, cpu_id, base = _clean(cpu.current_el), cpu.cpu_id, self.base
        outer = self._open(name, "phase", el, cpu_id, None, start - base)
        parent, next_id = outer.span_id, self._next_id
        stop = self._stop_cycle
        closed = []
        for region, detail, begin, end in regions:
            span = Span(next_id, parent, region, "phase", el, cpu_id, None,
                        detail, begin - base)
            next_id += 1
            span.end_cycle = end - base
            span.self_cycles = (end - begin if stop is None
                                else max(0, stop - span.start_cycle))
            outer.child_cycles += span.self_cycles
            closed.append(span)
        self._next_id = next_id
        self.buffer.extend(closed)
        self._close(outer, self.now())

    def _close(self, span, now):
        """End open *span* at clock reading *now*."""
        stack = self._stack
        observed = now if self._stop_cycle is None else self._stop_cycle
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
    def span(self, name, kind="span", cpu=None, reason=None, detail=None):
        opened = self.begin(name, kind=kind, cpu=cpu, reason=reason,
                            detail=detail)
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

    def deferred(self, cpu, reg, is_write):
        self.instant("defer:%s" % reg.name, kind="vncr", cpu=cpu,
                     detail={"register": reg.name, "is_write": is_write,
                             "offset": reg.vncr_offset})

    def fault(self, name, detail):
        self.instant(name, kind="fault", detail=detail)

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
