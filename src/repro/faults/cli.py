"""``python -m repro faults`` — run seeded fault campaigns.

Exit status 0 means every campaign was clean: every injected fault
ended recovered, explicitly degraded, or re-promoted after cooling off;
the sanitizer saw no invariant violations; no cross-CPU recovery
ordering rule was broken; and the post-recovery probes behaved like the
surviving configuration (including the re-probe after a re-promotion,
which must be back to NEVE's trap count).  Any silent fault fails the
run.

With ``--cpus N`` every campaign boots N pinned vCPUs with independent
seed-split fault plans and reports a per-vCPU verdict column; see
``docs/faults.md`` for how to read the output.
"""

import argparse
import sys

from repro.faults.campaign import run_campaign
from repro.faults.plan import FaultClass
from repro.hypervisor.scheduler import INTERLEAVE_POLICIES


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="deterministic fault-injection campaigns over the "
                    "nested stack")
    parser.add_argument("--seeds", type=int, default=20, metavar="N",
                        help="number of seeds to run (default 20)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed (campaign i runs seed base+i)")
    parser.add_argument("--cpus", type=int, default=1, metavar="N",
                        help="vCPUs per campaign; each gets its own "
                             "seed-split fault plan (default 1)")
    parser.add_argument("--interleave", default="roundrobin",
                        choices=INTERLEAVE_POLICIES,
                        help="per-round vcpu execution order (the "
                             "determinism tests perturb this; verdicts "
                             "must converge)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-fault outcomes for every seed")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="run each campaign under the causal tracer "
                             "and write per-seed Chrome trace JSON into "
                             "DIR (injected faults appear as annotated "
                             "events; digests are unaffected)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds wants at least 1 campaign, not %d"
                     % args.seeds)
    if args.cpus < 1:
        parser.error("--cpus wants at least 1 vCPU, not %d" % args.cpus)

    results = []
    for index in range(args.seeds):
        result = run_campaign(args.seed_base + index,
                              trace=args.trace is not None,
                              cpus=args.cpus, interleave=args.interleave)
        if args.trace is not None:
            _write_trace(args.trace, result)
        results.append(result)

    _print_class_table(results)
    print()
    failed = [r for r in results if not r.ok]
    for result in results:
        marker = "ok" if result.ok else "FAIL"
        line = ("seed %4d  %s  degraded=%-5s repromoted=%-5s probe=%3d  "
                "sanitizer %d/%d  digest %s"
                % (result.seed, marker, result.degraded,
                   result.repromoted, result.probe_traps,
                   result.sanitizer_violations,
                   result.sanitizer_checks,
                   result.digest[:16]))
        print(line)
        if args.cpus > 1 and (args.verbose or not result.ok):
            for row in result.per_vcpu:
                reprobe = ("reprobe=%3d" % row["reprobe"]
                           if row["reprobe"] is not None else "")
                print("    vcpu%(vcpu)d %(verdict)-10s "
                      "probe=%(probe)3d " % row + reprobe)
        if args.verbose or not result.ok:
            for entry in result.outcomes:
                print("    cpu%(cpu)s #%(fault_id)d %(class)-18s "
                      "@%(point)-17s[%(trigger)3d]  %(outcome)s "
                      "(%(recovery)s)" % entry)
            for violation in result.ordering_violations:
                print("    ORDERING: %s" % violation)
            for silent in result.silent:
                print("    SILENT: %s" % silent)

    print()
    print("%d/%d campaigns clean" % (len(results) - len(failed),
                                     len(results)))
    return 1 if failed else 0


def _write_trace(out_dir, result):
    import os

    from repro.trace.export import write_chrome_trace

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "campaign-seed-%d.json" % result.seed)
    write_chrome_trace(result.tracer, path,
                       label="campaign/seed-%d" % result.seed)
    return path


def _print_class_table(results):
    """Aggregate per fault class: planned / fired / recovered / degraded
    / re-promoted / not-triggered across all seeds."""
    rows = {fc.value: {"planned": 0, "fired": 0, "recovered": 0,
                       "degraded": 0, "repromoted": 0, "not-triggered": 0}
            for fc in FaultClass}
    for result in results:
        for entry in result.outcomes:
            row = rows[entry["class"]]
            row["planned"] += 1
            if entry["fired"]:
                row["fired"] += 1
                if entry["outcome"] in row:
                    row[entry["outcome"]] += 1
            else:
                row["not-triggered"] += 1
    header = ("%-20s %8s %6s %10s %9s %11s %8s"
              % ("fault class", "planned", "fired", "recovered",
                 "degraded", "repromoted", "missed"))
    print(header)
    print("-" * len(header))
    for name in sorted(rows):
        row = rows[name]
        print("%-20s %8d %6d %10d %9d %11d %8d"
              % (name, row["planned"], row["fired"], row["recovered"],
                 row["degraded"], row["repromoted"],
                 row["not-triggered"]))


if __name__ == "__main__":
    sys.exit(main())
