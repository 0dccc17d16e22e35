"""The ``python -m repro fleet`` surface: routing, digest, exit codes."""

import json

import pytest

from repro.fleet import cli


def test_main_routing_knows_fleet():
    from repro.__main__ import SUBCOMMANDS, usage
    names = [name for name, _, _ in SUBCOMMANDS]
    assert "fleet" in names
    assert "fleet" in usage()


def test_clean_run_exits_zero_and_writes_document(tmp_path, capsys):
    out = tmp_path / "fleet-digest.json"
    status = cli.main(["--machines", "2", "--workers", "2",
                       "--shard-size", "1", "--verify",
                       "--out", str(out)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "accounting: planned=2 completed=2 retried=0 quarantined=0 ok" \
        in captured
    assert "byte-identical to the sequential reference" in captured
    document = json.loads(out.read_text())
    assert document["schema"] == "repro-fleet/1"
    assert document["accounting"]["ok"] is True
    assert document["merged"]["machine_count"] == 2
    assert len(document["merged"]["records"]) == 2
    assert document["merged"]["metrics"]["schema"] == "repro-metrics/1"
    assert [s["verdict"] for s in document["shards"]] == ["completed"] * 2


def test_chaos_run_tolerates_quarantine(tmp_path):
    # Seed 0 over 4 shards draws corrupt/stall/poison (deterministic);
    # the poisoned shard quarantines, and that is *not* a failure under
    # --chaos.
    out = tmp_path / "chaos.json"
    status = cli.main(["--machines", "4", "--workers", "2",
                       "--shard-size", "1", "--chaos",
                       "--heartbeat-timeout", "2.5",
                       "--backoff", "0.01", "--out", str(out)])
    assert status == 0
    document = json.loads(out.read_text())
    accounting = document["accounting"]
    assert accounting["ok"] is True
    assert (accounting["completed"] + accounting["retried"]
            + accounting["quarantined"]) == accounting["planned"] == 4


def test_rejects_malformed_requests(capsys):
    assert cli.main(["--machines", "0"]) == 2
    assert cli.main(["--machines", "4", "--workers", "0"]) == 2
    assert cli.main(["--machines", "4", "--shard-size", "0"]) == 2


@pytest.mark.parametrize("setting", (
    ("--timeout", "0"), ("--timeout", "-1"), ("--heartbeat-timeout", "0"),
    ("--heartbeat-timeout", "-1"), ("--retries", "-1"),
    ("--backoff", "-1")))
def test_rejects_supervision_settings_that_cannot_work(monkeypatch, capsys,
                                                       setting):
    """A usage error (exit 2) before any worker starts, not a fleet
    failure."""
    def no_run(supervisor):
        raise AssertionError("the supervisor ran")

    monkeypatch.setattr(cli.Supervisor, "run", no_run)
    assert cli.main(["--machines", "2", "--workers", "1", *setting]) == 2
    assert "fleet: %s must be" % setting[0] in capsys.readouterr().err


def test_flight_recorder_writes_a_replayable_journal(tmp_path, capsys):
    journal_dir = tmp_path / "flight"
    status = cli.main(["--machines", "2", "--workers", "2",
                       "--shard-size", "1", "--verify",
                       "--flight-recorder", str(journal_dir)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "replays to the live accounting" in captured
    journal = journal_dir / cli.FLIGHT_JOURNAL
    assert journal.exists()
    from repro.fleet.telemetry import replay
    replayed = replay(str(journal))
    assert replayed.planned == 2
    assert replayed.completed == 2
    # --verify runs strip wall-clock stamps from every record.
    for line in journal.read_text().splitlines():
        assert "wall" not in json.loads(line)


def test_trace_out_writes_a_loadable_fleet_trace(tmp_path, capsys):
    trace_file = tmp_path / "fleet-trace.json"
    status = cli.main(["--machines", "2", "--workers", "2",
                       "--shard-size", "1", "--verify",
                       "--trace-out", str(trace_file)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "traces included" in captured
    assert "machine lanes" in captured
    from repro.trace.export import validate_chrome_trace
    document = json.loads(trace_file.read_text())
    counts = validate_chrome_trace(document)
    assert counts["metadata"] == 4  # two lanes, two metadata each
    assert document["otherData"]["machines"] == 2


def test_watch_streams_events_to_stderr(capsys):
    status = cli.main(["--machines", "2", "--workers", "1",
                       "--shard-size", "1", "--watch"])
    assert status == 0
    err = capsys.readouterr().err
    assert "watch: " in err
    assert "run-begin" in err and "run-end" in err
    assert "progress" in err


def test_chaos_run_with_recorder_still_replays(tmp_path, capsys):
    journal_dir = tmp_path / "flight"
    status = cli.main(["--machines", "4", "--workers", "2",
                       "--shard-size", "1", "--chaos",
                       "--heartbeat-timeout", "2.5",
                       "--backoff", "0.01",
                       "--flight-recorder", str(journal_dir)])
    assert status == 0
    assert "replays to the live accounting" in capsys.readouterr().out


def test_recorder_and_stitched_trace_ride_one_supervised_run(tmp_path,
                                                             capsys):
    # The observability stack at once: flight recorder + stitched trace,
    # both riding one supervised run.
    journal_dir = tmp_path / "flight"
    trace_file = tmp_path / "fleet-trace.json"
    status = cli.main(["--machines", "2", "--workers", "2",
                       "--shard-size", "1",
                       "--flight-recorder", str(journal_dir),
                       "--trace-out", str(trace_file)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "replays to the live accounting" in captured
    assert "machine lanes" in captured
    assert (journal_dir / cli.FLIGHT_JOURNAL).exists()
    assert trace_file.exists()
