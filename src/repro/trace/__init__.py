"""Causal exit-multiplication tracer (Section 5 / Table 7 instrument).

The paper's central measurement is *exit multiplication*: one nested-VM
exit fans out into ~82-126 traps to the host hypervisor on ARMv8.3
trap-and-emulate, versus ~16 with NEVE.  :class:`~repro.trace.spans.Tracer`
records every trap, world-switch phase and recovery action as a *span*
carrying (exception level, :class:`~repro.metrics.counters.ExitReason`,
causing register/operation, parent-span id, cycles charged), so a single
nested exit renders as a causal tree whose trap count *is* the
exit-multiplication factor and whose per-span cycles reconcile exactly
against the :class:`~repro.metrics.cycles.CycleLedger` total.

Layout:

``spans``
    Stdlib-only core: :class:`Span`, :class:`Tracer` (bounded ring
    buffer, near-zero-cost disabled path), and the ``cpu_span``
    helper the hot layers call.
``export``
    Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``),
    text breakdown-tree renderer, per-``ExitReason`` latency
    histograms.
``cli``
    ``python -m repro trace`` — run a microbenchmark under the tracer
    and emit the artifacts.
"""

from repro.trace.spans import (  # noqa: F401
    Span,
    TraceReconciliation,
    Tracer,
    cpu_span,
)
