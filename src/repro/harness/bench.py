"""``python -m repro bench``: the continuous benchmark trajectory.

Runs the microbenchmark suites across every configuration in
:data:`~repro.harness.configs.ALL_CONFIGS` under a shared telemetry
registry, writes the measurement as ``BENCH_<n>.json`` at the repo root
(per config x benchmark simulated cycles and traps, plus the full
registry snapshot), and diffs the run against

* the **previous** ``BENCH_*.json`` in the trajectory, and
* the :mod:`repro.harness.regression` **goldens**,

reusing the goldens' per-metric tolerances where one covers the
(config, benchmark, metric) tuple and the default tolerances below
otherwise.  Any drift outside tolerance exits non-zero and names the
regressed metric — the simulation is deterministic, so out-of-tolerance
movement is always a code change, never noise.

File schema (``repro-bench/1``)::

    {"schema": "repro-bench/1",
     "sequence": <n>,
     "iterations": <per-benchmark iterations>,
     "results": {config: {benchmark: {"cycles": .., "traps": ..}}},
     "metrics": <registry JSON snapshot document>}

Everything is virtual-cycle timestamped; two runs of the same tree
produce byte-identical files (modulo the sequence number — and the
optional ``host`` section below, which records nondeterministic host
wall-clock time and therefore never participates in the
trajectory/golden byte-diffs).  ``diff_payloads`` compares ``results``
within tolerance; when the ``results`` equal the last trajectory entry,
its ``metrics`` must be equal too, or the run fails naming the first
differing family (``--force`` records the point instead).

``--compare-fastpath`` runs the sweep twice — dispatch fast path
disabled (the reference) and enabled — demands the ``results`` and
``metrics`` sections are byte-identical (the fast path is a pure
speedup; ``san-fastpath-parity`` enforces the same at lint time), and
attaches a ``host`` section (``repro-bench-host/1``) to the written
payload with both runs' wall seconds and cycles-per-host-second plus
the speedup ratio::

    {"schema": "repro-bench-host/1",
     "reference_wall_s": .., "fastpath_wall_s": ..,
     "reference_cycles_per_host_s": .., "fastpath_cycles_per_host_s": ..,
     "speedup": ..}
"""

import json
import re
import sys
import time
from pathlib import Path

from repro.harness.configs import ALL_CONFIGS, make_microbench
from repro.harness.regression import GOLDENS
from repro.metrics.registry import MetricsRegistry
from repro.workloads.microbench import MICROBENCHMARKS

BENCH_SCHEMA = "repro-bench/1"
BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")
DEFAULT_ITERATIONS = 6

#: Fallback relative tolerances for (config, benchmark, metric) tuples no
#: golden covers.  Trap counts are structural (tight); cycle counts are
#: calibrated (looser) — same policy as the goldens themselves.
DEFAULT_TOLERANCES = {"cycles": 0.10, "traps": 0.05}


def tolerance_for(config, benchmark, metric):
    """The golden's tolerance when one covers this tuple, else the
    metric-class default — reused, not duplicated."""
    for golden in GOLDENS:
        if (golden.config, golden.benchmark,
                golden.metric) == (config, benchmark, metric):
            return golden.rel_tol
    return DEFAULT_TOLERANCES[metric]


def run_bench(iterations=DEFAULT_ITERATIONS, configs=None,
              arm_costs=None, x86_costs=None, fastpath=None,
              host_meter=None):
    """Measure every config x benchmark cell under one shared registry.

    Returns the payload dict (without a sequence number — the caller
    assigns it when writing the trajectory file).

    *fastpath* forces the dispatch fast path on (True) or off (False)
    for every ARM machine in the sweep (None = machine default).
    *host_meter*, when given, is a dict the run fills with host-side
    measurements — ``wall_ns`` (sweep wall time) and ``cycles`` (total
    simulated cycles across all machines); host time is
    nondeterministic and never lands in the deterministic payload
    sections.
    """
    names = list(configs) if configs is not None else sorted(ALL_CONFIGS)
    registry = MetricsRegistry()
    machines = []
    results = {}
    started_ns = time.perf_counter_ns()  # lint: allow(sim-nondeterminism)
    for name in names:
        costs = (arm_costs if ALL_CONFIGS[name].platform == "arm"
                 else x86_costs)
        suite = make_microbench(name, costs=costs, registry=registry,
                                fastpath=fastpath)
        machines.append(suite.machine)
        cells = {}
        for benchmark in MICROBENCHMARKS:
            measured = suite.run(benchmark, iterations)
            cells[benchmark] = {"cycles": measured.cycles,
                                "traps": measured.traps}
        results[name] = cells
    if host_meter is not None:
        host_meter["wall_ns"] = (
            time.perf_counter_ns() - started_ns)  # lint: allow(sim-nondeterminism)
        host_meter["cycles"] = sum(machine.ledger.total
                                   for machine in machines)
    # The registry's virtual clock: total simulated cycles across every
    # machine the run touched (read-only — exporting charges nothing).
    registry.clock = lambda: sum(machine.ledger.total
                                 for machine in machines)
    return {
        "schema": BENCH_SCHEMA,
        "iterations": iterations,
        "results": results,
        "metrics": json.loads(registry.json_snapshot()),
    }


def validate_payload(payload):
    """Schema check for a bench payload; returns a list of problems."""
    problems = []
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append("schema is %r, want %r"
                        % (payload.get("schema"), BENCH_SCHEMA))
    results = payload.get("results")
    if not isinstance(results, dict) or not results:
        problems.append("results missing or empty")
        return problems
    for config, cells in sorted(results.items()):
        if not isinstance(cells, dict) or not cells:
            problems.append("%s: no benchmark cells" % config)
            continue
        for benchmark, cell in sorted(cells.items()):
            for metric in ("cycles", "traps"):
                if not isinstance(cell.get(metric), (int, float)):
                    problems.append("%s/%s: missing %s"
                                    % (config, benchmark, metric))
    metrics = payload.get("metrics")
    if (not isinstance(metrics, dict)
            or metrics.get("schema") != "repro-metrics/1"):
        problems.append("metrics snapshot missing or wrong schema")
    return problems


def diff_payloads(previous, current):
    """Out-of-tolerance movement between two bench payloads.

    Returns a list of ``(config, benchmark, metric, before, after, tol)``
    tuples for every cell present in both payloads whose relative change
    exceeds the (golden-derived) tolerance.  Two-sided on purpose: an
    unexplained improvement is still an unexplained shift in the model.
    """
    regressions = []
    prev_results = previous.get("results", {})
    cur_results = current.get("results", {})
    for config in sorted(set(prev_results) & set(cur_results)):
        prev_cells = prev_results[config]
        cur_cells = cur_results[config]
        for benchmark in sorted(set(prev_cells) & set(cur_cells)):
            for metric in ("cycles", "traps"):
                before = prev_cells[benchmark][metric]
                after = cur_cells[benchmark][metric]
                tol = tolerance_for(config, benchmark, metric)
                if before == 0:
                    ok = after == 0
                else:
                    ok = abs(after - before) / before <= tol
                if not ok:
                    regressions.append((config, benchmark, metric,
                                        before, after, tol))
    return regressions


def first_metrics_difference(previous, current):
    """The first metric family, in name order, whose export differs
    between two bench payloads (``"virtual_cycles"`` when only the
    timestamp does); None when their ``metrics`` are equal."""
    if previous.get("metrics") == current.get("metrics"):
        return None
    before, after = ((payload.get("metrics") or {}).get("metrics", {})
                     for payload in (previous, current))
    for name in sorted(set(before) | set(after)):
        if before.get(name) != after.get(name):
            return name
    return "virtual_cycles"


def check_golden_payload(payload):
    """Check the payload's cells against the goldens directly.  Returns
    ``(golden, measured)`` failures for every golden the payload covers."""
    failures = []
    results = payload.get("results", {})
    for golden in GOLDENS:
        cell = results.get(golden.config, {}).get(golden.benchmark)
        if cell is None:
            continue
        measured = cell[golden.metric]
        if not golden.check(measured):
            failures.append((golden, measured))
    return failures


def find_trajectory(directory):
    """Existing ``BENCH_<n>.json`` files, as ``(n, Path)`` sorted by n."""
    found = []
    for path in Path(directory).iterdir():
        match = BENCH_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def write_payload(payload, directory, sequence):
    payload = dict(payload)
    payload["sequence"] = sequence
    path = Path(directory) / ("BENCH_%d.json" % sequence)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def host_section(ref_meter, fast_meter):
    """The ``repro-bench-host/1`` section from two sweep host meters
    (reference = fast path off, fastpath = on).  Wall seconds are host
    time — nondeterministic by nature, excluded from all byte-diffs."""
    ref_s = ref_meter["wall_ns"] / 1e9
    fast_s = fast_meter["wall_ns"] / 1e9
    return {
        "schema": "repro-bench-host/1",
        "reference_wall_s": round(ref_s, 4),
        "fastpath_wall_s": round(fast_s, 4),
        "reference_cycles_per_host_s": round(ref_meter["cycles"] / ref_s, 1),
        "fastpath_cycles_per_host_s": round(fast_meter["cycles"] / fast_s, 1),
        "speedup": round(ref_s / fast_s, 3),
    }


def main(argv=None, arm_costs=None, x86_costs=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    iterations = DEFAULT_ITERATIONS
    directory = Path(".")
    configs = []
    write = True
    force = False
    compare_fastpath = False
    while argv:
        arg = argv.pop(0)
        if arg == "--iterations" and argv:
            value = argv.pop(0)
            if not value.isdigit() or int(value) < 1:
                print("bench: --iterations wants a positive integer, "
                      "not %r" % value, file=sys.stderr)
                return 2
            iterations = int(value)
        elif arg == "--dir" and argv:
            directory = Path(argv.pop(0))
        elif arg == "--config" and argv:
            configs.append(argv.pop(0))
        elif arg == "--no-write":
            write = False
        elif arg == "--force":
            force = True
        elif arg == "--compare-fastpath":
            compare_fastpath = True
        elif arg in ("-h", "--help"):
            print("usage: python -m repro bench [--iterations N] "
                  "[--dir PATH] [--config NAME ...] [--no-write] "
                  "[--force] [--compare-fastpath]")
            return 0
        else:
            print("bench: unknown argument %r" % arg, file=sys.stderr)
            return 2
    for name in configs:
        if name not in ALL_CONFIGS:
            print("bench: unknown config %r (have: %s)"
                  % (name, ", ".join(sorted(ALL_CONFIGS))), file=sys.stderr)
            return 2
    if not directory.is_dir():
        print("bench: --dir wants an existing directory, not %r"
              % str(directory), file=sys.stderr)
        return 2

    host = None
    if compare_fastpath:
        # Reference sweep first (fast path off); the recorded payload
        # below is the fast-path run.
        ref_meter = {}
        reference = run_bench(iterations=iterations,
                              configs=configs or None,
                              arm_costs=arm_costs, x86_costs=x86_costs,
                              fastpath=False, host_meter=ref_meter)
    fast_meter = {}
    payload = run_bench(iterations=iterations,
                        configs=configs or None,
                        arm_costs=arm_costs, x86_costs=x86_costs,
                        fastpath=True if compare_fastpath else None,
                        host_meter=fast_meter)
    if compare_fastpath:
        if reference["results"] != payload["results"] \
                or reference["metrics"] != payload["metrics"]:
            print("bench: FASTPATH PARITY FAILURE — the fast path "
                  "changed emergent counts; run `python -m repro lint` "
                  "(san-fastpath-parity) to localize", file=sys.stderr)
            return 1
        host = host_section(ref_meter, fast_meter)
        payload["host"] = host
        print("bench: fastpath compare — reference %.3fs "
              "(%.0f cycles/host-s), fastpath %.3fs (%.0f cycles/host-s), "
              "speedup %.2fx; results byte-identical"
              % (host["reference_wall_s"],
                 host["reference_cycles_per_host_s"],
                 host["fastpath_wall_s"],
                 host["fastpath_cycles_per_host_s"],
                 host["speedup"]))
    problems = validate_payload(payload)
    if problems:
        for problem in problems:
            print("bench: invalid payload: %s" % problem, file=sys.stderr)
        return 1

    failed = False
    golden_failures = check_golden_payload(payload)
    for golden, measured in golden_failures:
        failed = True
        print("bench: GOLDEN REGRESSION %s/%s %s: golden %.0f "
              "(rel_tol %.2f), measured %.1f"
              % (golden.config, golden.benchmark, golden.metric,
                 golden.value, golden.rel_tol, measured))

    trajectory = find_trajectory(directory)
    if trajectory:
        last_sequence, last_path = trajectory[-1]
        previous = json.loads(last_path.read_text())
        for (config, benchmark, metric, before, after,
             tol) in diff_payloads(previous, payload):
            failed = True
            print("bench: TRAJECTORY REGRESSION %s/%s %s: %s had %.1f, "
                  "now %.1f (rel_tol %.2f)"
                  % (config, benchmark, metric, last_path.name,
                     before, after, tol))
        unchanged = previous.get("results") == payload["results"]
        drifted = unchanged and first_metrics_difference(previous, payload)
        if drifted and not force:
            failed = True
            print("bench: METRICS DRIFT %s differs from %s with identical "
                  "results (--force records it as a new point)"
                  % (drifted, last_path.name))
    else:
        last_sequence, previous, unchanged = 0, None, False

    if failed:
        print("bench: FAIL — not extending the trajectory",
              file=sys.stderr)
        return 1

    total = sum(len(cells) for cells in payload["results"].values())
    if unchanged and not force:
        # `--force` records the point anyway — used to pin one
        # trajectory entry per change even when the costs held still.
        print("bench: OK — %d cells identical to BENCH_%d.json, "
              "trajectory unchanged" % (total, last_sequence))
    elif write:
        path = write_payload(payload, directory, last_sequence + 1)
        print("bench: OK — %d cells written to %s" % (total, path))
    else:
        print("bench: OK — %d cells (not written)" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
