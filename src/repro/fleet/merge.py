"""Deterministic fleet merge: many shards, one byte-stable export.

The merge is a pure fold over the *completed* shards' payloads — which
machines completed is the only input.  Worker count, scheduling order,
retry history and the order results arrived all cancel out:

* machine records are re-sorted by machine index;
* per-shard registry documents are folded into one fresh registry in
  shard-id order via :meth:`~repro.metrics.registry.MetricsRegistry.
  merge_snapshot` (commutative adds over label-disjoint series);
* the fleet-level roll-up families are registered first, from the
  sorted records;
* the fleet digest hashes the canonical text of the sorted records;
* per-machine :class:`~repro.trace.spans.Tracer` ring-buffer exports,
  when the shards collected them, stitch into **one fleet-wide
  Chrome/Perfetto trace** with a process lane per machine — each
  machine's payload is verified against its own ``san-trace-reconcile``
  invariant before it merges.

The sequential reference (:func:`reference_merge`) runs the same shards
in-process through the same fold — ``san-fleet-merge`` and the merge
determinism tests compare the two exports byte for byte.
"""

import hashlib
import json

from repro.fleet.worker import machine_verdict, run_shard
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import verify_machine_trace


class FleetMerge:
    """The folded outcome of every completed shard."""

    def __init__(self, records, registry, traces=None):
        self.records = records  # machine-index sorted
        self.registry = registry
        self.traces = traces    # machine_index -> trace payload, or None

    # -- exports ---------------------------------------------------------

    def prometheus_text(self):
        return self.registry.prometheus_text()

    def json_snapshot(self):
        return self.registry.json_snapshot()

    def canonical(self):
        """Stable text form of the merged records, the digest input."""
        lines = []
        for record in self.records:
            lines.append(
                "machine=%06d seed=%d ok=%s verdict=%s digest=%s "
                "cycles=%d traps=%d"
                % (record["machine"], record["seed"], record["ok"],
                   machine_verdict(record), record["digest"],
                   record["cycles"], record["traps"]))
        return "\n".join(lines)

    @property
    def digest(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    @property
    def machine_count(self):
        return len(self.records)

    @property
    def ok(self):
        """Every merged machine's campaign was clean."""
        return all(record["ok"] for record in self.records)

    # -- the fleet-wide trace --------------------------------------------

    def chrome_trace(self):
        """The stitched fleet trace as a Chrome trace_event document
        (process lane per machine); raises when the shards did not
        collect traces."""
        if self.traces is None:
            raise ValueError("this fleet ran without trace collection; "
                             "enable FleetConfig.trace (CLI: --trace-out)")
        return merge_traces(self.records, self.traces)

    def chrome_trace_json(self):
        """Deterministic serialization of the merged trace (byte-stable
        across worker counts and scheduling, like every other export)."""
        return json.dumps(self.chrome_trace(), sort_keys=True,
                          separators=(",", ":"))

    def write_chrome_trace(self, path):
        with open(path, "w") as fh:
            fh.write(self.chrome_trace_json())
            fh.write("\n")
        return path


def merge_payloads(payloads):
    """Fold completed shard payloads into a :class:`FleetMerge`.

    *payloads* is an iterable of ``(shard_id, records, metrics_document,
    traces)`` tuples in any order — the fold sorts, so two merges over
    the same completed set are byte-identical no matter how the shards
    were scheduled.  Trace payloads merge only when every completed
    shard carried them (a partially traced fleet is a configuration
    bug, surfaced as None).
    """
    normalized = sorted(payloads, key=lambda item: item[0])
    records = sorted((record for _, shard_records, _, _ in normalized
                      for record in shard_records),
                     key=lambda record: record["machine"])
    seen = [record["machine"] for record in records]
    if len(set(seen)) != len(seen):
        raise ValueError("fleet merge saw duplicate machine indexes: %r"
                         % sorted({m for m in seen if seen.count(m) > 1}))

    registry = MetricsRegistry()
    _register_rollup(registry, records)
    for _, _, metrics_document, _ in normalized:
        registry.merge_snapshot(metrics_document)
    total = sum(record["cycles"] for record in records)
    registry.clock = lambda: total

    traces = None
    if normalized and all(t is not None for _, _, _, t in normalized):
        traces = {}
        for _, _, _, shard_traces in normalized:
            for machine_index, payload in shard_traces.items():
                traces[int(machine_index)] = payload
    return FleetMerge(records, registry, traces=traces)


def _register_rollup(registry, records):
    """The fleet-level families, built from the sorted records before
    the per-shard documents fold in (stable registration order)."""
    machines = registry.counter(
        "repro_fleet_machines_total",
        "Machines merged into the fleet result, by campaign verdict",
        ("verdict",))
    recoveries = registry.counter(
        "repro_fleet_recovery_total",
        "Recovery-ladder actions summed across the fleet",
        ("event",))
    cycles = registry.counter(
        "repro_fleet_cycles_total",
        "Simulated cycles summed across the fleet")
    traps = registry.counter(
        "repro_fleet_traps_total",
        "Traps summed across the fleet")
    machine_cycles = registry.histogram(
        "repro_fleet_machine_cycles",
        "Per-machine total simulated cycles across the fleet")
    for record in records:
        machines.labels(machine_verdict(record)).inc()
        for event, count in sorted(record["recovery_counts"].items()):
            recoveries.labels(event).inc(count)
        cycles.labels().inc(record["cycles"])
        traps.labels().inc(record["traps"])
        machine_cycles.labels().observe(record["cycles"])


def merge_traces(records, traces):
    """Stitch per-machine trace payloads into one Chrome trace document.

    Every machine becomes its own **process lane** (``pid`` = machine
    index, with ``process_name``/``process_sort_index`` metadata so
    Perfetto shows ``m000042 seed=…`` lanes in fleet order); the
    per-machine ``tid`` (cpu id) survives as the thread lane.  Each
    payload must pass :func:`~repro.trace.export.verify_machine_trace`
    — the ``san-trace-reconcile`` invariant holds *per machine after
    the merge*, or the merge refuses.
    """
    seeds = {record["machine"]: record["seed"] for record in records}
    events = []
    per_machine = {}
    for machine_index in sorted(traces):
        payload = traces[machine_index]
        problems = verify_machine_trace(payload)
        if problems:
            raise ValueError(
                "fleet trace merge: machine %d fails san-trace-reconcile: "
                "%s" % (machine_index, "; ".join(problems)))
        label = "m%06d" % machine_index
        if machine_index in seeds:
            label += " seed=%d" % seeds[machine_index]
        events.append({"name": "process_name", "cat": "__metadata",
                       "ph": "M", "ts": 0, "pid": machine_index,
                       "tid": 0, "args": {"name": label}})
        events.append({"name": "process_sort_index", "cat": "__metadata",
                       "ph": "M", "ts": 0, "pid": machine_index,
                       "tid": 0, "args": {"sort_index": machine_index}})
        for event in payload["events"]:
            stitched = dict(event)
            stitched["pid"] = machine_index
            events.append(stitched)
        per_machine[str(machine_index)] = dict(payload["reconciliation"])
    meta = {
        "clock": "virtual-cycles",
        "machines": len(per_machine),
        "reconciled": True,  # merge_traces refuses inexact payloads
        "per_machine": per_machine,
    }
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": meta}


def reference_merge(plan, shard_ids=None, trace=False):
    """The in-process sequential reference: run the plan's shards (all,
    or just *shard_ids* — e.g. the set that completed under chaos) one
    after another in shard order, then fold through the identical merge
    path.  A supervised run over the same completed set must export
    byte-identical Prometheus text, JSON, digest — and, with ``trace``,
    the same stitched fleet trace.
    """
    wanted = None if shard_ids is None else set(shard_ids)
    payloads = []
    for shard in plan.shards:
        if wanted is not None and shard.shard_id not in wanted:
            continue
        records, metrics_document, traces = run_shard(shard, trace=trace)
        payloads.append((shard.shard_id, records, metrics_document,
                         traces))
    return merge_payloads(payloads)
