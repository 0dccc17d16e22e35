"""``python -m repro trace`` — run a microbenchmark under the tracer.

Runs the chosen microbenchmark on each requested platform configuration
with the causal tracer attached, then emits:

* a Chrome ``trace_event`` JSON file per configuration (loadable in
  Perfetto or ``chrome://tracing``),
* the text breakdown tree, whose trap-span count *is* the
  exit-multiplication factor (Table 7: 16 for NEVE vs ~126 for ARMv8.3
  trap-and-emulate on the hypercall),
* per-``ExitReason`` latency histograms,
* the span/ledger reconciliation line (must be exact).

Exit status 0 means every configuration produced a valid, non-empty,
exactly-reconciled trace.
"""

import argparse
import json
import os
import sys

from repro.analysis.sanitizer import check_trace_reconciliation
from repro.harness.configs import ALL_CONFIGS, make_microbench
from repro.trace.export import (
    chrome_trace_json,
    render_breakdown,
    render_histograms,
    trap_stats,
    validate_chrome_trace,
)
from repro.trace.spans import Tracer
from repro.workloads.microbench import MICROBENCHMARKS

#: Configurations the tracer can drive (the ARM machine model; the x86
#: model exists for Table 1 parity but is not span-instrumented).
ARM_CONFIG_NAMES = tuple(name for name, config in ALL_CONFIGS.items()
                         if config.platform == "arm")

#: Default pair: the two columns of Table 7 side by side.
DEFAULT_CONFIGS = ("neve-nested", "arm-nested")


def trace_microbench(config_name, workload, iterations=1,
                     capacity=65536):
    """Run *workload* on *config_name* under a fresh tracer.

    The suite is warmed up untraced first (steady-state trap counts,
    like :meth:`ArmMicrobench.run`), then each traced iteration runs
    inside an ``iteration`` span under one root span.  Returns
    ``(suite, tracer)`` with the tracer already stopped.
    """
    suite = make_microbench(config_name)
    once = {
        "hypercall": suite.hypercall_once,
        "device_io": suite.device_io_once,
        "virtual_ipi": suite.virtual_ipi_once,
        "virtual_eoi": suite.virtual_eoi_once,
    }[workload]
    prime = suite._prime_eoi if workload == "virtual_eoi" else None

    # Warm up untraced: populates contexts and shadow structures.
    if prime:
        prime()
    once()

    tracer = Tracer(capacity=capacity)
    tracer.attach_machine(suite.machine)
    root = tracer.begin("%s/%s" % (config_name, workload), kind="root")
    try:
        for index in range(iterations):
            if prime:
                with tracer.span("prime_eoi", kind="setup"):
                    prime()
            with tracer.span("iteration", kind="iteration",
                             detail={"index": index}):
                once()
    finally:
        tracer.end(root)
        tracer.stop()
    return suite, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="run a microbenchmark under the causal "
                    "exit-multiplication tracer and export artifacts")
    parser.add_argument("--workload", choices=MICROBENCHMARKS,
                        default="hypercall",
                        help="microbenchmark to trace (default hypercall)")
    parser.add_argument("--config", action="append", dest="configs",
                        choices=ARM_CONFIG_NAMES, metavar="NAME",
                        help="platform configuration (repeatable; "
                             "default: neve-nested and arm-nested)")
    parser.add_argument("--iterations", type=int, default=1, metavar="N",
                        help="traced iterations per configuration "
                             "(default 1)")
    parser.add_argument("--out", default="traces", metavar="DIR",
                        help="directory for trace JSON files "
                             "(default ./traces)")
    parser.add_argument("--capacity", type=int, default=65536,
                        help="span ring-buffer capacity (default 65536)")
    parser.add_argument("--max-depth", type=int, default=None,
                        help="limit breakdown tree depth")
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations wants at least 1, not %d"
                     % args.iterations)
    if args.capacity < 1:
        parser.error("--capacity wants at least 1 span, not %d"
                     % args.capacity)
    configs = list(args.configs or DEFAULT_CONFIGS)

    os.makedirs(args.out, exist_ok=True)
    failures = []
    for config_name in configs:
        label = "%s/%s" % (config_name, args.workload)
        suite, tracer = trace_microbench(
            config_name, args.workload, iterations=args.iterations,
            capacity=args.capacity)
        payload = chrome_trace_json(tracer, label=label)
        counts = validate_chrome_trace(json.loads(payload))
        path = os.path.join(args.out, "trace-%s-%s.json"
                            % (config_name, args.workload))
        with open(path, "w") as fh:
            fh.write(payload)
            fh.write("\n")

        print("=== %s ===" % label)
        print(render_breakdown(tracer, max_depth=args.max_depth))
        print(render_histograms(tracer))
        stats = trap_stats(tracer)
        print("wrote %s (%d events: %d spans, %d instants)"
              % (path, counts["events"], counts["spans"],
                 counts["instants"]))
        print()

        report = check_trace_reconciliation(tracer)
        if not report.passed:
            failures.append("%s: %s" % (label, report.summary()))
        if counts["events"] == 0 or stats["trap_spans"] == 0:
            failures.append("%s: empty trace" % label)

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
