"""``python -m repro fleet`` — supervised multi-process campaigns.

Shards ``--machines M`` seeded campaigns across ``--workers N``
processes under the supervisor (heartbeats, wall-clock timeouts,
retry/backoff, poison-shard quarantine) and prints the fleet digest:
per-shard verdicts with their failure ladders, the exact accounting
line, and the merged result digest.

Live telemetry rides the same event stream the supervisor journals:
``--watch`` renders every decision to stderr as it happens,
``--flight-recorder DIR`` writes the ``repro-flight/1`` JSONL journal
(and the run replays it afterwards — the journal must reproduce the
live accounting or the run fails), and ``--trace-out FILE``
collects per-machine trace ring buffers and writes the stitched
fleet-wide Chrome/Perfetto trace.

Exit status: 0 when the books balance and every merged machine was
clean (quarantines are expected — and tolerated — only under
``--chaos``); 1 when a merged machine failed, a shard was quarantined
without chaos, or ``--verify`` found a byte difference against the
sequential reference; 2 on accounting violations — including a flight
journal that does not replay to the live books.
"""

import argparse
import json
import os
import sys

from repro.fleet.chaos import ChaosPlan
from repro.fleet.merge import reference_merge
from repro.fleet.plan import DEFAULT_SHARD_SIZE, FleetPlan
from repro.fleet.supervisor import (
    FleetAccountingError,
    FleetConfig,
    Supervisor,
)
from repro.fleet.telemetry import (
    FlightRecorder,
    FlightReplayError,
    WatchRenderer,
    replay,
)

FLEET_SCHEMA = "repro-fleet/1"

#: Journal filename inside the ``--flight-recorder`` directory.
FLIGHT_JOURNAL = "flight.jsonl"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="fault-tolerant fleet engine: supervised "
                    "multi-process campaigns with deterministic merge, "
                    "flight recorder and live telemetry")
    parser.add_argument("--machines", type=int, default=16, metavar="M",
                        help="simulated machines to run (default 16); "
                             "machine i runs campaign seed "
                             "split_seed(seed, i)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="concurrent worker processes (default 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fleet seed every machine seed derives "
                             "from (default 0)")
    parser.add_argument("--shard-size", type=int,
                        default=DEFAULT_SHARD_SIZE, metavar="K",
                        help="machines per shard — the retry/quarantine "
                             "unit (default %d)" % DEFAULT_SHARD_SIZE)
    parser.add_argument("--chaos", action="store_true",
                        help="seed-deterministically kill, stall and "
                             "corrupt workers to exercise every "
                             "supervisor path (quarantines become "
                             "expected)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        metavar="S",
                        help="wall-clock budget per shard attempt "
                             "(default 300)")
    parser.add_argument("--heartbeat-timeout", type=float, default=30.0,
                        metavar="S",
                        help="max silence between worker heartbeats "
                             "before the attempt is declared hung "
                             "(default 30)")
    parser.add_argument("--retries", type=int, default=2, metavar="R",
                        help="failed attempts beyond which a shard is "
                             "quarantined (default 2)")
    parser.add_argument("--backoff", type=float, default=0.05,
                        metavar="S",
                        help="base retry backoff, doubling per failure "
                             "(default 0.05)")
    parser.add_argument("--verify", action="store_true",
                        help="also run the in-process sequential "
                             "reference over the completed shards and "
                             "demand byte-identical merged exports")
    parser.add_argument("--watch", action="store_true",
                        help="render the live supervisor event stream "
                             "to stderr as the fleet runs")
    parser.add_argument("--flight-recorder", metavar="DIR", default=None,
                        help="journal every supervisor decision as "
                             "repro-flight/1 JSONL into DIR/%s, then "
                             "replay the journal and demand it "
                             "reproduce the live accounting"
                             % FLIGHT_JOURNAL)
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="collect per-machine trace ring buffers "
                             "and write the stitched fleet-wide "
                             "Chrome/Perfetto trace to FILE")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the fleet digest document "
                             "(repro-fleet/1 JSON) to FILE")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-machine rows, not just shards")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        plan = FleetPlan.generate(args.seed, args.machines,
                                  shard_size=args.shard_size)
    except ValueError as exc:
        print("fleet: %s" % exc, file=sys.stderr)
        return 2
    # Supervision settings that cannot work are the user's error, not a
    # fleet failure: reject them before any worker starts.
    for wrong, message in (
            (args.workers < 1, "workers must be >= 1"),
            (not args.timeout > 0, "--timeout must be > 0"),
            (not args.heartbeat_timeout > 0,
             "--heartbeat-timeout must be > 0"),
            (args.retries < 0, "--retries must be >= 0"),
            (not args.backoff >= 0, "--backoff must be >= 0")):
        if wrong:
            print("fleet: %s" % message, file=sys.stderr)
            return 2
    chaos = (ChaosPlan.generate(args.seed, len(plan.shards))
             if args.chaos else None)
    config = FleetConfig(workers=args.workers,
                         shard_timeout_s=args.timeout,
                         heartbeat_timeout_s=args.heartbeat_timeout,
                         max_retries=args.retries,
                         backoff_base_s=args.backoff,
                         trace=args.trace_out is not None)

    recorder = None
    journal_path = None
    if args.flight_recorder is not None:
        os.makedirs(args.flight_recorder, exist_ok=True)
        journal_path = os.path.join(args.flight_recorder, FLIGHT_JOURNAL)
        # Wall-clock stamps are for post-mortems; --verify runs demand
        # deterministic journal fields, so strip them there.
        recorder = FlightRecorder(journal_path, wall=not args.verify)
    sinks = (WatchRenderer(),) if args.watch else ()

    try:
        result = Supervisor(plan, config=config, chaos=chaos,
                            recorder=recorder, sinks=sinks).run()
    except FleetAccountingError as exc:
        print("fleet: ACCOUNTING VIOLATION: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            recorder.close()

    render(result, verbose=args.verbose)

    status = 0
    if result.merge is not None and not result.merge.ok:
        print("fleet: FAIL: a merged machine's campaign was not clean")
        status = 1
    if result.quarantined and not args.chaos:
        print("fleet: FAIL: %d shard(s) quarantined without --chaos"
              % result.quarantined)
        status = 1
    if result.protocol_errors:
        print("fleet: WARNING: %d unknown worker message(s) journalled"
              % result.protocol_errors)
    if recorder is not None:
        status = max(status, _check_replay(journal_path, result))
    if args.trace_out is not None and result.merge is not None:
        try:
            result.merge.write_chrome_trace(args.trace_out)
            print("fleet: wrote %s (%d machine lanes)"
                  % (args.trace_out, len(result.merge.traces or ())))
        except ValueError as exc:
            print("fleet: TRACE FAILED: %s" % exc, file=sys.stderr)
            status = max(status, 1)
    if args.verify:
        status = max(status, _verify(plan, result))
    if args.out is not None:
        _write_document(args.out, args, plan, result)
    return status


def render(result, verbose=False):
    """The fleet digest, human form."""
    plan = result.plan
    print(plan.describe() + ", workers=%d%s"
          % (result.config.workers,
             ", chaos=on" if result.chaos is not None else ""))
    if result.chaos is not None:
        print(result.chaos.describe())
    print()
    header = ("%-18s %8s %10s %12s  %s"
              % ("shard", "machines", "attempts", "verdict", "failures"))
    print(header)
    print("-" * len(header))
    for state in result.states:
        ladder = "; ".join(f.describe() for f in state.failures) or "-"
        print("%-18s %8d %10d %12s  %s"
              % (state.shard.describe(), len(state.shard.machines),
                 state.attempts, state.verdict, ladder))
    print()
    print("accounting: %s %s"
          % (result.accounting_line(),
             "ok" if result.accounting_ok else "VIOLATED"))
    merge = result.merge
    if merge is None or not merge.records:
        print("merged: nothing (every shard quarantined)")
        return
    if verbose:
        for record in merge.records:
            print("  m%06d seed=%-10d %-10s digest %.16s  "
                  "cycles=%d traps=%d"
                  % (record["machine"], record["seed"],
                     ("ok" if record["ok"] else "FAIL"),
                     record["digest"], record["cycles"],
                     record["traps"]))
    print("merged: %d/%d machines, %s, fleet digest %.16s"
          % (merge.machine_count, plan.machine_count,
             "all clean" if merge.ok else "FAILURES",
             merge.digest))


def _check_replay(journal_path, result):
    """Replay the flight journal from disk and demand it reproduce the
    live run's books — a journal that cannot is an accounting-grade
    failure (exit 2), because the journal *is* the post-mortem record."""
    try:
        replayed = replay(journal_path)
    except FlightReplayError as exc:
        print("fleet: REPLAY FAILED: %s" % exc, file=sys.stderr)
        return 2
    if not replayed.matches(result):
        print("fleet: REPLAY FAILED: journal replays to [%s], live run "
              "was [%s]" % (replayed.accounting_line(),
                            result.accounting_line()), file=sys.stderr)
        return 2
    print("flight: journal %s replays to the live accounting "
          "(%d events, %d protocol errors)"
          % (journal_path, replayed.events, replayed.protocol_errors))
    return 0


def _verify(plan, result):
    """Re-run the completed shards sequentially in-process and compare
    the merged exports byte for byte."""
    if result.merge is None:
        return 0
    completed = [state.shard_id for state in result.states
                 if state.verdict in ("completed", "retried")]
    traced = result.merge.traces is not None
    reference = reference_merge(plan, shard_ids=completed, trace=traced)
    mismatches = []
    if reference.digest != result.merge.digest:
        mismatches.append("fleet digest")
    if reference.prometheus_text() != result.merge.prometheus_text():
        mismatches.append("prometheus export")
    if reference.json_snapshot() != result.merge.json_snapshot():
        mismatches.append("json export")
    if traced and (reference.chrome_trace_json()
                   != result.merge.chrome_trace_json()):
        mismatches.append("stitched fleet trace")
    if mismatches:
        print("fleet: VERIFY FAILED: supervised merge diverged from the "
              "sequential reference in: %s" % ", ".join(mismatches))
        return 1
    print("verify: merged exports byte-identical to the sequential "
          "reference (%d shards%s)"
          % (len(completed), ", traces included" if traced else ""))
    return 0


def _write_document(path, args, plan, result):
    merge = result.merge
    document = {
        "schema": FLEET_SCHEMA,
        "seed": args.seed,
        "machines": plan.machine_count,
        "workers": result.config.workers,
        "shard_size": args.shard_size,
        "chaos": result.chaos is not None,
        "protocol_errors": result.protocol_errors,
        "accounting": {
            "planned": result.planned,
            "completed": result.completed,
            "retried": result.retried,
            "quarantined": result.quarantined,
            "ok": result.accounting_ok,
        },
        "shards": [
            {"shard": state.shard_id,
             "machines": list(state.shard.machine_indexes),
             "attempts": state.attempts,
             "verdict": state.verdict,
             "failures": [{"attempt": f.attempt, "reason": f.reason,
                           "detail": f.detail}
                          for f in state.failures]}
            for state in result.states
        ],
        "merged": None if merge is None else {
            "digest": merge.digest,
            "machine_count": merge.machine_count,
            "ok": merge.ok,
            "records": merge.records,
            "metrics": json.loads(merge.json_snapshot()),
        },
    }
    with open(path, "w") as fh:
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print("fleet: wrote %s" % path)


if __name__ == "__main__":
    sys.exit(main())
