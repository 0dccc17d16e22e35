"""The fleet worker: one shard attempt in one OS process.

A worker receives a :class:`~repro.fleet.plan.Shard`, runs
``run_campaign`` for each machine under a shard-local telemetry registry
(every machine gets its own ``config`` label, ``m000042``-style, so
per-shard exports fold without collisions), streams incremental
telemetry up the pipe as it goes, and finishes with a single result
message whose payload is checksummed — the supervisor recomputes the
checksum, so a corrupted payload is detected rather than merged.

Protocol on the pipe (dicts, one per ``send``), in order per machine:

* ``{"type": "heartbeat", "machine": <index>, "machines_done": <n>,
  "cycles": <total so far>}`` — before every machine.  The supervisor's
  hang detector keys on the gap between heartbeats; the monotonic
  ``machines_done``/``cycles`` fields let it distinguish *slow* (still
  making progress) from *stuck* (beating but frozen) and report the
  last real progress when it classifies a hang.
* ``{"type": "progress", "machine": <index>, "verdict": ..,
  "ok": .., "cycles": .., "traps": .., "recoveries": ..,
  "machines_done": <n>, "machines_planned": <k>,
  "metrics_delta": <repro-metrics/1 delta document>}`` — after every
  machine: the campaign verdict, trap/recovery counts and the registry
  movement this machine caused (folding every delta through
  ``merge_snapshot`` reproduces the final metrics document).
* ``{"type": "result", "records": [...], "metrics": {...},
  "traces": {...}|None, "checksum": <sha256 hex>}`` — exactly once,
  last.  Only this message feeds the merge; progress events are
  telemetry, so a later failure of the attempt never half-merges.

Everything a worker computes is a pure function of the shard's seeds;
the in-process sequential reference calls the same :func:`run_shard`,
which is why the merged exports can be compared byte for byte — the
per-machine event stream itself is deterministic per seed (only the
cross-shard interleaving at the supervisor is scheduling-dependent).

Chaos actions sabotage this worker deliberately (see
:mod:`repro.fleet.chaos`): ``KILL`` hard-exits mid-shard, ``STALL``
stops heartbeating, ``CORRUPT`` tampers the records after checksumming,
``POISON`` dies on arrival every attempt.
"""

import hashlib
import json
import os
import time

from repro.faults.campaign import run_campaign
from repro.fleet.chaos import ChaosAction
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import tracer_payload

#: Exit codes the chaos modes use; anything non-zero reads as a crash.
KILL_EXIT_CODE = 137
POISON_EXIT_CODE = 113

#: How long a stalled worker sleeps.  The supervisor's hang detector
#: kills it long before this elapses; the constant only needs to be
#: comfortably larger than any plausible heartbeat timeout.
STALL_SECONDS = 600.0


def machine_label(machine_index):
    """The ``config`` label one machine's telemetry carries.  Zero-padded
    so label-sorted child order equals machine-index order."""
    return "m%06d" % machine_index


def machine_record(assignment, result):
    """The compact, JSON-clean summary of one machine's campaign — the
    unit the deterministic merge folds."""
    return {
        "machine": assignment.machine_index,
        "seed": assignment.seed,
        "ok": result.ok,
        "digest": result.digest,
        "degraded": result.degraded,
        "repromoted": result.repromoted,
        "recovery_counts": dict(result.recovery_counts),
        "cycles": result.total_cycles,
        "traps": result.total_traps,
        "sanitizer_checks": result.sanitizer_checks,
        "sanitizer_violations": result.sanitizer_violations,
    }


def machine_verdict(record):
    """One word per machine for the fleet roll-up."""
    if record["degraded"]:
        return "degraded"
    if record["repromoted"]:
        return "repromoted"
    return "clean"


def payload_checksum(records, metrics_document, traces=None):
    """sha256 over the canonical JSON of the result payload (trace
    payloads are covered too when the shard collected them — the key is
    added only when present, so checksums of runs without it are
    unchanged)."""
    body = {"records": records, "metrics": metrics_document}
    if traces is not None:
        body["traces"] = traces
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_machine(assignment, registry=None, trace=False):
    """Run one machine's campaign; returns ``(record, trace_payload)``.
    With *registry* the machine's telemetry lands there under its own
    config label; with ``trace=True`` the campaign runs under a
    :class:`~repro.trace.spans.Tracer` and the second element is its
    exported ring buffer (else None).  Neither changes the digest —
    telemetry and tracing are observe-only and charge zero cycles."""
    metrics = None
    if registry is not None:
        metrics = MachineMetrics(
            registry=registry,
            config=machine_label(assignment.machine_index))
    result = run_campaign(assignment.seed, trace=trace, metrics=metrics)
    trace_doc = tracer_payload(result.tracer) if trace else None
    return machine_record(assignment, result), trace_doc


def run_shard(shard, emit=None, trace=False):
    """Run every machine in *shard* in index order.

    Returns ``(records, metrics_document, traces)`` — the same tuple
    whether this runs in a worker process or inline in the sequential
    reference (*traces* is a ``machine_index -> trace payload`` dict
    with ``trace=True``, else None).  *emit*, when given, receives the
    incremental event stream: one enriched ``heartbeat`` before each
    machine and one ``progress`` (verdict, counts, metrics delta) after
    it.
    """
    registry = MetricsRegistry()
    cursor = registry.delta_cursor()
    records = []
    traces = {} if trace else None
    planned = len(shard.machines)
    cycles_done = 0
    for done, assignment in enumerate(shard.machines):
        if emit is not None:
            emit({"type": "heartbeat",
                  "machine": assignment.machine_index,
                  "machines_done": done,
                  "cycles": cycles_done})
        record, trace_doc = run_machine(assignment, registry=registry,
                                        trace=trace)
        records.append(record)
        cycles_done += record["cycles"]
        if trace:
            traces[assignment.machine_index] = trace_doc
        if emit is not None:
            emit({"type": "progress",
                  "machine": assignment.machine_index,
                  "verdict": machine_verdict(record),
                  "ok": record["ok"],
                  "cycles": record["cycles"],
                  "traps": record["traps"],
                  "recoveries": sum(record["recovery_counts"].values()),
                  "machines_done": done + 1,
                  "machines_planned": planned,
                  "metrics_delta": cursor.advance(
                      virtual_cycles=cycles_done)})
    registry.clock = lambda: cycles_done
    return records, json.loads(registry.json_snapshot()), traces


def worker_entry(conn, shard, attempt, chaos_action_value,
                 stall_seconds=STALL_SECONDS, trace=False):
    """Child-process entry point: run the shard, stream telemetry,
    self-sabotage if chaos says so, send exactly one result message."""
    action = ChaosAction(chaos_action_value)
    if action is ChaosAction.POISON:
        os._exit(POISON_EXIT_CODE)
    kill_after = None
    if action is ChaosAction.KILL:
        kill_after = max(1, len(shard.machines) // 2)

    done = 0

    def emit(message):
        nonlocal done
        if message["type"] == "heartbeat":
            # The chaos sabotage points key on machine boundaries, which
            # is exactly where heartbeats fire.
            if kill_after is not None and done >= kill_after:
                os._exit(KILL_EXIT_CODE)
            if action is ChaosAction.STALL and done >= 1:
                time.sleep(stall_seconds)
                os._exit(0)
            conn.send(message)
            done += 1
        else:
            conn.send(message)

    records, metrics_document, traces = run_shard(
        shard, emit=emit, trace=trace)
    # Single-machine shards never reach the mid-shard sabotage point in
    # the heartbeat hook; the transient actions still must not deliver.
    if action is ChaosAction.KILL:
        os._exit(KILL_EXIT_CODE)
    if action is ChaosAction.STALL:
        time.sleep(stall_seconds)
        os._exit(0)
    checksum = payload_checksum(records, metrics_document, traces)
    if action is ChaosAction.CORRUPT and records:
        # Tamper *after* checksumming: the supervisor's recomputation
        # must disagree, which is the whole point.
        records[0]["digest"] = "deadbeef" + records[0]["digest"][8:]
    conn.send({"type": "result", "records": records,
               "metrics": metrics_document, "traces": traces,
               "checksum": checksum})
    conn.close()
