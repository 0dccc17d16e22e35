"""``python -m repro``: the one-shot reproduction verdict, plus tools.

Run with no arguments for the verification layers and the PASS/FAIL
verdict per paper claim; run a subcommand from the table below for the
individual tools.  The usage string is generated from the table, so
adding a tool is one line.
"""

import importlib
import sys

#: (name, module with a ``main(argv)``, one-line description).
SUBCOMMANDS = (
    ("lint", "repro.analysis.cli",
     "spec-conformance checker, simulator-invariant lint, the "
     "runtime-sanitizer scenario, the telemetry and fleet-merge "
     "checks, the doc lint and the shared-state shardability gate "
     "(--statecheck)"),
    ("faults", "repro.faults.cli",
     "seeded fault-injection campaigns with the recovery paths armed"),
    ("trace", "repro.trace.cli",
     "causal exit-multiplication tracer (Chrome trace JSON + breakdowns)"),
    ("bench", "repro.harness.bench",
     "benchmark trajectory: run the suites, diff against BENCH_*.json "
     "and the goldens"),
    ("metrics", "repro.metrics.cli",
     "run a scenario and export the telemetry registry "
     "(Prometheus/JSON)"),
    ("fleet", "repro.fleet.cli",
     "supervised multi-process campaign fleet: crash/hang recovery, "
     "quarantine, deterministic merge, flight recorder and live "
     "telemetry (--chaos for the hostile mode)"),
)


def usage():
    lines = ["usage: python -m repro [%s] [options]"
             % "|".join(name for name, _, _ in SUBCOMMANDS),
             "",
             "With no subcommand: run the verification layers and print",
             "the reproduction verdict.  Subcommands:",
             ""]
    for name, _, description in SUBCOMMANDS:
        lines.append("  %-8s %s" % (name, description))
    return "\n".join(lines)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        print(usage())
        return 0
    if argv:
        for name, module_name, _ in SUBCOMMANDS:
            if argv[0] == name:
                module = importlib.import_module(module_name)
                return module.main(argv[1:])
        print(usage(), file=sys.stderr)
        return 2
    from repro.harness.summary import main as summary_main
    return summary_main()


if __name__ == "__main__":
    sys.exit(main())
