"""``python -m repro metrics``: run a scenario, export the registry.

Runs the requested microbenchmark across the requested configurations
under one shared :class:`~repro.metrics.registry.MetricsRegistry` and
prints either the Prometheus text exposition or the JSON snapshot.  The
simulation is deterministic and timestamps are virtual cycles, so the
same invocation always produces byte-identical output — pipe it to a
file and diff across commits.
"""

import sys
from pathlib import Path

from repro.harness.configs import ALL_CONFIGS, make_microbench
from repro.metrics.registry import MetricsRegistry
from repro.workloads.microbench import MICROBENCHMARKS


def export_metrics(configs, workload="hypercall", iterations=6,
                   fmt="prometheus"):
    """Run *workload* on each config under one registry; return the
    export text."""
    registry = MetricsRegistry()
    machines = []
    for name in configs:
        suite = make_microbench(name, registry=registry)
        machines.append(suite.machine)
        suite.run(workload, iterations)
    registry.clock = lambda: sum(machine.ledger.total
                                 for machine in machines)
    if fmt == "json":
        return registry.json_snapshot()
    return registry.prometheus_text()


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    configs = []
    workload = "hypercall"
    iterations = 6
    fmt = "prometheus"
    out = None
    while argv:
        arg = argv.pop(0)
        if arg == "--config" and argv:
            configs.append(argv.pop(0))
        elif arg == "--workload" and argv:
            workload = argv.pop(0)
        elif arg == "--iterations" and argv:
            value = argv.pop(0)
            if not value.isdigit() or int(value) < 1:
                print("metrics: --iterations wants a positive integer, "
                      "not %r" % value, file=sys.stderr)
                return 2
            iterations = int(value)
        elif arg == "--format" and argv:
            fmt = argv.pop(0)
        elif arg == "--out" and argv:
            out = Path(argv.pop(0))
        elif arg in ("-h", "--help"):
            print("usage: python -m repro metrics [--config NAME ...] "
                  "[--workload NAME] [--iterations N] "
                  "[--format prometheus|json] [--out FILE]")
            return 0
        else:
            print("metrics: unknown argument %r" % arg, file=sys.stderr)
            return 2
    if fmt not in ("prometheus", "json"):
        print("metrics: unknown format %r" % fmt, file=sys.stderr)
        return 2
    if workload not in MICROBENCHMARKS:
        print("metrics: unknown workload %r (have: %s)"
              % (workload, ", ".join(MICROBENCHMARKS)), file=sys.stderr)
        return 2
    for name in configs:
        if name not in ALL_CONFIGS:
            print("metrics: unknown config %r (have: %s)"
                  % (name, ", ".join(sorted(ALL_CONFIGS))),
                  file=sys.stderr)
            return 2
    if not configs:
        configs = sorted(ALL_CONFIGS)

    text = export_metrics(configs, workload=workload,
                          iterations=iterations, fmt=fmt)
    if out is not None:
        out.write_text(text)
        print("metrics: wrote %s (%d bytes)" % (out, len(text)))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
