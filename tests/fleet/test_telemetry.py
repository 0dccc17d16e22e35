"""Fleet telemetry: event streams, the flight recorder, trace stitching.

Three guarantees are pinned here:

* the worker event stream is a pure function of the shard's seeds
  (deterministic order and content per seed, deltas loss-checkable
  against the final payload);
* ``replay`` over the flight journal alone reproduces the live
  :class:`FleetResult` accounting — including under the full mixed
  chaos ladder;
* the stitched fleet trace is byte-identical across worker counts and
  to the sequential reference export.
"""

import io
import json

import pytest

from repro.fleet.chaos import ChaosAction, ChaosPlan
from repro.fleet.merge import reference_merge
from repro.fleet.plan import FleetPlan
from repro.fleet.supervisor import FleetConfig, Supervisor, run_fleet
from repro.fleet.telemetry import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    FlightReplayError,
    WatchRenderer,
    canonical_line,
    replay,
)
from repro.fleet.worker import run_shard
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import validate_chrome_trace

_CALM = dict(shard_timeout_s=120.0, heartbeat_timeout_s=60.0,
             backoff_base_s=0.01, poll_interval_s=0.005)


# -- the worker event stream ----------------------------------------------

def _shard(machines=3, seed=0):
    return FleetPlan.generate(seed, machines, shard_size=machines).shards[0]


def _stream(shard, trace=False):
    events = []
    run_shard(shard, emit=events.append, trace=trace)
    return events


def test_worker_event_stream_is_deterministic_per_seed():
    shard = _shard()
    assert _stream(shard) == _stream(shard)


def test_worker_stream_alternates_heartbeat_then_progress():
    events = _stream(_shard(machines=3))
    kinds = [event["type"] for event in events]
    assert kinds == ["heartbeat", "progress"] * 3
    done = [event["machines_done"] for event in events
            if event["type"] == "progress"]
    assert done == [1, 2, 3]  # monotonic, one per machine
    for event in events:
        if event["type"] == "progress":
            assert event["machines_planned"] == 3
            assert event["verdict"] in ("clean", "degraded", "repromoted")


def test_heartbeats_carry_monotonic_progress():
    events = _stream(_shard(machines=3))
    beats = [e for e in events if e["type"] == "heartbeat"]
    assert [b["machines_done"] for b in beats] == [0, 1, 2]
    cycles = [b["cycles"] for b in beats]
    assert cycles == sorted(cycles)


def test_progress_deltas_fold_to_the_final_metrics_document():
    shard = _shard(machines=3)
    events = []
    _, metrics_document, _ = run_shard(shard, emit=events.append)
    folded = MetricsRegistry()
    for event in events:
        if event["type"] == "progress":
            folded.merge_snapshot(event["metrics_delta"])
    # Deltas omit families that never moved, so compare the moving set.
    final = {name: body
             for name, body in metrics_document["metrics"].items()
             if body["series"]}
    assert folded.snapshot() == final


def test_streaming_does_not_change_the_payload():
    shard = _shard(machines=2)
    with_stream = run_shard(shard, emit=lambda event: None)
    without = run_shard(shard)
    assert with_stream == without


# -- the flight recorder ---------------------------------------------------

def test_recorder_journals_canonical_jsonl(tmp_path):
    path = tmp_path / "flight.jsonl"
    with FlightRecorder(path, wall=False) as recorder:
        recorder.record({"event": "run-begin", "shards": 0})
        recorder.record({"event": "run-end", "accounting": {}})
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + the two records
    header = json.loads(lines[0])
    assert header["event"] == "journal-open"
    assert header["schema"] == FLIGHT_SCHEMA
    for index, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["seq"] == index
        assert "wall" not in entry          # stripped for --verify runs
        assert line == canonical_line(entry)


def test_recorder_wall_stamps_are_opt_out_not_missing():
    recorder = FlightRecorder(wall=True)
    entry = recorder.record({"event": "x"})
    assert "wall" in entry


def test_replay_reconstructs_accounting_from_the_journal_alone():
    plan = FleetPlan.generate(0, 4, shard_size=2)
    recorder = FlightRecorder(wall=False)
    result = run_fleet(plan, config=FleetConfig(workers=2, **_CALM),
                       recorder=recorder)
    replayed = replay(recorder.lines())
    assert replayed.matches(result)
    assert replayed.planned == 2
    assert replayed.completed == 2
    assert replayed.digest == result.merge.digest
    assert replayed.protocol_errors == 0
    assert replayed.event_counts["launch"] == 2
    assert replayed.event_counts["progress"] == 4


def test_replay_equals_live_result_under_the_full_chaos_ladder():
    """The flagship: kills, stalls, corruption and poison in one fleet —
    the journal alone must replay to the exact live books."""
    plan = FleetPlan.generate(0, 4, shard_size=1)
    chaos = ChaosPlan({0: ChaosAction.KILL, 1: ChaosAction.STALL,
                       2: ChaosAction.CORRUPT, 3: ChaosAction.POISON})
    config = FleetConfig(workers=2, shard_timeout_s=120.0,
                         heartbeat_timeout_s=2.5, stall_seconds=60.0,
                         max_retries=2, backoff_base_s=0.01,
                         poll_interval_s=0.005)
    recorder = FlightRecorder(wall=False)
    result = run_fleet(plan, chaos=chaos, config=config,
                       recorder=recorder)
    assert result.accounting_ok
    replayed = replay(recorder.lines())
    assert replayed.matches(result)
    assert replayed.quarantined == result.quarantined >= 1
    assert replayed.event_counts.get("failure", 0) >= 3
    assert replayed.event_counts.get("chaos", 0) >= 4


def test_replay_rejects_a_headerless_journal():
    with pytest.raises(FlightReplayError, match="journal-open"):
        replay([{"event": "run-begin", "shards": 1}])


def test_replay_rejects_a_wrong_schema():
    with pytest.raises(FlightReplayError, match="schema"):
        replay([{"event": "journal-open", "schema": "repro-flight/999"}])


def test_replay_rejects_unbalanced_books():
    with pytest.raises(FlightReplayError, match="balance"):
        replay([
            {"event": "journal-open", "schema": FLIGHT_SCHEMA},
            {"event": "run-begin", "shards": 2},
            {"event": "verdict", "shard": 0, "verdict": "completed"},
            # shard 1 vanished: a journal must never pass silently here
        ])


def test_replay_rejects_a_run_end_that_disagrees():
    with pytest.raises(FlightReplayError, match="disagrees"):
        replay([
            {"event": "journal-open", "schema": FLIGHT_SCHEMA},
            {"event": "run-begin", "shards": 1},
            {"event": "verdict", "shard": 0, "verdict": "completed"},
            {"event": "run-end", "accounting": {
                "planned": 1, "completed": 0, "retried": 1,
                "quarantined": 0}},
        ])


# -- protocol errors (unknown messages) ------------------------------------

class _FakeConn:
    def __init__(self, messages):
        self._messages = list(messages)

    def poll(self, _timeout):
        return bool(self._messages)

    def recv(self):
        return self._messages.pop(0)


class _FakeProc:
    exitcode = 0

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


def test_unknown_messages_journal_instead_of_dropping():
    plan = FleetPlan.generate(0, 1, shard_size=1)
    seen = []
    supervisor = Supervisor(plan, sinks=(seen.append,))
    from repro.fleet.supervisor import ShardState, _Attempt
    state = ShardState(plan.shards[0])
    state.attempts = 1
    attempt = _Attempt(state, _FakeProc(), _FakeConn([
        {"type": "gossip", "payload": "?"},
        {"not-even-typed": True},
    ]), 0.0, 60.0)
    assert supervisor._drain(attempt) is None
    kinds = [event["event"] for event in seen]
    assert kinds == ["unknown-message", "unknown-message"]
    family = supervisor.telemetry.get("repro_fleet_protocol_errors_total")
    assert family.total() == 2
    assert family.labels("gossip").value == 1
    assert family.labels("None").value == 1


def test_clean_runs_count_zero_protocol_errors():
    plan = FleetPlan.generate(0, 2, shard_size=1)
    result = run_fleet(plan, config=FleetConfig(workers=2, **_CALM))
    assert result.protocol_errors == 0


# -- hang classification carries last progress -----------------------------

def test_hang_detail_reports_last_progress():
    plan = FleetPlan.generate(0, 2, shard_size=1)
    chaos = ChaosPlan({0: ChaosAction.STALL})
    config = FleetConfig(workers=2, shard_timeout_s=120.0,
                         heartbeat_timeout_s=2.5, stall_seconds=60.0,
                         backoff_base_s=0.01, poll_interval_s=0.005)
    result = run_fleet(plan, chaos=chaos, config=config)
    failure = result.states[0].failures[0]
    assert failure.reason == "hang"
    assert "last progress:" in failure.detail
    assert "machines" in failure.detail and "cycles" in failure.detail


# -- the stitched fleet trace ----------------------------------------------

def test_merged_trace_is_byte_identical_across_worker_counts():
    plan = FleetPlan.generate(0, 4, shard_size=2)
    reference = reference_merge(plan, trace=True).chrome_trace_json()
    for workers in (1, 2, 4):
        config = FleetConfig(workers=workers, trace=True, **_CALM)
        result = run_fleet(plan, config=config)
        assert result.accounting_ok
        assert result.merge.chrome_trace_json() == reference


def test_merged_trace_has_one_process_lane_per_machine():
    plan = FleetPlan.generate(0, 3, shard_size=3)
    merge = reference_merge(plan, trace=True)
    document = merge.chrome_trace()
    counts = validate_chrome_trace(document)
    assert counts["metadata"] == 2 * 3  # name + sort_index per machine
    pids = {event["pid"] for event in document["traceEvents"]}
    assert pids == {0, 1, 2}
    names = [event["args"]["name"]
             for event in document["traceEvents"]
             if event["ph"] == "M" and event["name"] == "process_name"]
    assert names == sorted(names)
    assert all(name.startswith("m0000") for name in names)
    assert document["otherData"]["machines"] == 3
    assert document["otherData"]["reconciled"] is True


def test_merged_trace_refuses_a_cooked_machine_payload():
    plan = FleetPlan.generate(0, 2, shard_size=2)
    merge = reference_merge(plan, trace=True)
    merge.traces[0]["reconciliation"]["recorded_cycles"] += 1
    with pytest.raises(ValueError, match="san-trace-reconcile"):
        merge.chrome_trace()


def test_untraced_fleet_refuses_to_export_a_trace():
    plan = FleetPlan.generate(0, 2, shard_size=2)
    merge = reference_merge(plan)
    assert merge.traces is None
    with pytest.raises(ValueError, match="without trace"):
        merge.chrome_trace()


def test_tracing_never_changes_digest_or_metrics():
    plan = FleetPlan.generate(0, 4, shard_size=2)
    plain = reference_merge(plan)
    traced = reference_merge(plan, trace=True)
    assert plain.digest == traced.digest
    assert plain.prometheus_text() == traced.prometheus_text()
    assert plain.json_snapshot() == traced.json_snapshot()


# -- the watch renderer ----------------------------------------------------

def test_watch_renderer_summarizes_quietly_and_prints_the_rest():
    stream = io.StringIO()
    render = WatchRenderer(stream=stream)
    render({"event": "heartbeat", "vcycles": 0, "shard": 0,
            "machine": 0, "machines_done": 0, "cycles": 0})
    assert stream.getvalue() == ""  # heartbeats are quiet by default
    render({"event": "progress", "vcycles": 1234, "shard": 0,
            "machine": 1, "verdict": "clean", "ok": True, "cycles": 1234,
            "traps": 5, "recoveries": 0, "machines_done": 1,
            "machines_planned": 2})
    render({"event": "quarantine", "vcycles": 1234, "shard": 3,
            "failures": 3})
    out = stream.getvalue()
    assert "progress" in out and "verdict=clean" in out
    assert "quarantine" in out and "shard=3" in out
    assert "1,234" in out  # virtual cycles, humanized


def test_watch_renderer_formats_every_emitted_event_type():
    render = WatchRenderer(stream=io.StringIO())
    for kind in ("run-begin", "launch", "heartbeat", "progress",
                 "failure", "retry", "quarantine", "verdict",
                 "unknown-message", "merge", "run-end"):
        line = render.format({"event": kind, "vcycles": 0})
        assert kind in line


# -- the supervisor stream end-to-end --------------------------------------

def test_supervisor_emits_the_lifecycle_in_order():
    plan = FleetPlan.generate(0, 2, shard_size=2)
    seen = []
    run_fleet(plan, config=FleetConfig(workers=1, **_CALM),
              sinks=(seen.append,))
    kinds = [event["event"] for event in seen]
    assert kinds[0] == "run-begin"
    assert kinds[-1] == "run-end"
    assert kinds[-2] == "merge"
    assert kinds.index("launch") < kinds.index("progress")
    assert kinds.index("result") < kinds.index("verdict")
    vcycles = [event["vcycles"] for event in seen]
    assert vcycles == sorted(vcycles)  # telemetry time is monotonic
