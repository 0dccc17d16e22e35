"""Host-time benchmark of the NEVE simulator.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with no probe attached;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a unit whose
simulated output differs from the reference counts in ``failed``, so
``failed / attempted`` is the fail ratio.  See README.md.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = {cls.name: cls for cls in (workloads.Sweep, workloads.Campaigns,
                                       workloads.Fleet)}

#: Set-ups timed in fresh interpreters after the measured rounds, on top
#: of the run's own; ``setup_s`` is the median of all of them.
EXTRA_SETUPS = 10

#: Percentiles tried for a tail, highest first: a tail is the highest
#: one with at least TAIL_BEYOND samples beyond it (else the median).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

#: Boundaries that must show no calls on ``sweep`` (telemetry off, no
#: fault injection), and ones that must show none outside ``fleet``.
SWEEP_IDLE = ("metrics.labels", "metrics.counter_inc",
              "metrics.histogram_observe", "trace.spans", "faults.injector")
FLEET_ONLY = ("fleet.checksum", "fleet.merge")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that seeded violations fail and that "
                        "the probes resolve, pass through and restore")
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text())
    if args.setup_sample:
        workload = WORKLOADS[args.workload](args.seed, reference)
        start = time.perf_counter()
        workload.setup()
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    build()
    if args.self_test:
        return self_test(reference)
    workload = WORKLOADS[args.workload](args.seed, reference)
    if args.trace:
        outcome = traced_run(args, workload)
    else:
        outcome = untraced_run(args, workload)
    print(json.dumps(outcome, sort_keys=True))
    return 0 if outcome["correct"] else 1


def build():
    """Byte-compile the simulator first, so that no timed set-up pays
    for compiling it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC / "repro")], check=True)


def timed_rounds(workload, seconds, traced_size=False):
    """Closed loop: whole rounds until *seconds* have passed.  Every
    round runs the same units, so each must repeat round 0's outputs.
    A host-speed probe runs after every round."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        rnd = workload.run_round(traced_size=traced_size)
        if rounds and rnd.outputs != rounds[0].outputs:
            rnd.problems.append("a round did not repeat round 0's outputs")
        rnd.host_s = min(host_probe() for _ in range(HOST_PROBES))
        rounds.append(rnd)
    return rounds


def host_probe():
    """Host time of a fixed piece of interpreter-bound work (string-keyed
    dicts, slotted attribute access, method calls, small allocations,
    like the simulator's hot loop) that no change to the simulator
    touches."""
    start = time.perf_counter()
    table = {"r%d" % index: index for index in range(256)}
    kept = []
    total = 0
    for index in range(20000):
        key = "r%d" % (index & 255)
        probe = _HostProbe(key, table[key])
        if len(kept) < 64:
            kept.append(probe)
        else:
            kept[index & 63] = probe
        total += probe.value + len(kept)
    return time.perf_counter() - start


class _HostProbe:
    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = value


WALL, CPU = 1, 2  # positions in a Round slice: [traps, wall, cpu]

#: Host-speed probes after each round, and the fastest probe time on the
#: reference host (2-vCPU Intel Xeon container): rates are scaled to it.
HOST_PROBES = 3
REFERENCE_HOST_S = 0.0090


def fastest_rate(rounds, clock):
    """Traps per second with every slice timed at its fastest across the
    rounds, on a host as fast as the reference host.  Rounds repeat
    identical work, and on a shared host other tenants only ever slow a
    slice down; whole minutes can run slower, so the time is scaled by
    the reference host's probe time over this run's fastest probe."""
    traps = sum(traps for traps, _, _ in rounds[0].slices.values())
    seconds = sum(min(r.slices[label][clock] for r in rounds)
                  for label in rounds[0].slices)
    host = min(r.host_s for r in rounds)
    return traps / seconds * host / REFERENCE_HOST_S


def fresh_setup(args):
    """One more set-up, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-sample",
         "--workload", args.workload, "--seed", str(args.seed)],
        check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def peak_rss_mb(children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN)
                   .ru_maxrss)
    return peak / 1024.0


def untraced_run(args, workload):
    start = time.perf_counter()
    workload.setup()
    setups = [time.perf_counter() - start]
    rounds = timed_rounds(workload, args.seconds)
    # Workers are reaped by now; the set-up samples below are children
    # too, so read the peak first.
    peak = peak_rss_mb(children=workload.name == "fleet")
    setups += [fresh_setup(args) for _ in range(EXTRA_SETUPS)]
    print("perfbench: %s seed %d: %d rounds, %.1f s measured; traps/s "
          "per round: %s; host probe ms: %s"
          % (workload.name, args.seed, len(rounds),
             sum(r.wall_s for r in rounds),
             " ".join("%.0f" % (r.traps / r.wall_s) for r in rounds),
             " ".join("%.2f" % (1e3 * r.host_s) for r in rounds)))
    metrics = {
        "traps_per_s": (fastest_rate(rounds, WALL), "1/s"),
        "traps_per_cpu_s": (fastest_rate(rounds, CPU), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return outcome_of(rounds, metrics)


def traced_run(args, workload):
    workload.setup()
    base = timed_rounds(workload, args.seconds, traced_size=True)
    OUT.mkdir(exist_ok=True)
    worker_dir = OUT / ("workers-%d" % os.getpid())
    shutil.rmtree(worker_dir, ignore_errors=True)
    worker_dir.mkdir()
    probe = probes.Probe()
    originals = probes.snapshot_targets(probe)
    problems = []
    probe.install(worker_dir=str(worker_dir))
    try:
        if not sanitizer_passes_through(probe):
            problems.append("probes: the sanitizer's per-instance "
                            "sysreg_access bypassed Cpu.sysreg_access")
        probe.reset()
        probe.start()
        try:
            traced = workload.run_round(probe=probe, traced_size=True)
        finally:
            probe.stop()
    finally:
        probe.restore()
    if probes.snapshot_targets(probe) != originals:
        problems.append("probes: an original was not restored")
    wait_for_workers(worker_dir, traced.extra.get("attempts", 0))
    probe.merge_workers()
    shutil.rmtree(worker_dir)
    for missing in probe.missing:
        print("perfbench: probe target missing: %s" % missing,
              file=sys.stderr)
    if traced.outputs != base[0].outputs:
        problems.append("trace: the traced round's outputs differ from "
                        "the untraced round's")
    rounds = base + [traced]
    metrics = layer_metrics(probe, traced,
                            statistics.median(r.wall_s for r in base))
    metrics["bench.fail_ratio"] = (
        sum(r.failed for r in rounds) / sum(r.attempted for r in rounds),
        "ratio")
    problems += layer_checks(probe, workload.name, traced)
    stem = OUT / ("spans-%s-seed%d" % (workload.name, args.seed))
    probe.write_spans(str(stem), {"workload": workload.name,
                                  "seed": args.seed})
    print("perfbench: %d spans in %s.json/.bin; traced round %.2f s, "
          "untraced %.2f s" % (len(probe.spans), stem, traced.wall_s,
                               base[0].wall_s))
    return outcome_of(rounds, metrics, problems)


def wait_for_workers(worker_dir, expected, timeout=30.0):
    """Fleet workers leave their totals after sending their result, so
    the supervisor can finish first: wait for every file."""
    deadline = time.monotonic() + timeout
    while (len(list(worker_dir.glob("*.json"))) < expected
           and time.monotonic() < deadline):
        time.sleep(0.05)


def sanitizer_passes_through(probe):
    """The campaign sanitizer replaces ``cpu.sysreg_access`` per instance
    with a checker that calls the bound method it found at install time.
    That must be the wrapped class method, or sanitized campaigns would
    hide their sysreg traffic from ``arch.sysreg_access``."""
    if "arch.sysreg_access" not in probe.present:
        return True
    from repro.analysis.sanitizer import sanitized
    from repro.arch.cpu import Cpu
    cpu = Cpu()
    probe.start()
    try:
        with sanitized(cpus=[cpu]):
            per_instance = "sysreg_access" in vars(cpu)
            cpu.mrs("SCTLR_EL1")
    finally:
        probe.stop()
    calls, _ = probe.totals()["arch.sysreg_access"]
    return per_instance and calls == 1


def distribution(values):
    """``(p50, tail percentile, tail, samples)`` of *values*."""
    if not values:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(values)
    count = len(ordered)
    median = statistics.median(ordered)
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return (median, pct, ordered[math.ceil(pct / 100.0 * count) - 1],
                    count)
    return median, 50.0, median, count


def add_distribution(metrics, prefix, values, scale, unit, suffix=""):
    p50, pct, tail, count = distribution(values)
    metrics["%s.p50_%s%s" % (prefix, unit, suffix)] = (p50 / scale, unit)
    metrics["%s.tail_%s%s" % (prefix, unit, suffix)] = (tail / scale, unit)
    metrics["%s.tail_pct%s" % (prefix, suffix)] = (pct, "%")
    metrics["%s.samples%s" % (prefix, suffix)] = (count, "count")


def per_call(calls, self_ns):
    return self_ns / calls if calls else 0.0


def layer_metrics(probe, traced, untraced_wall_s):
    """Every per-layer metric whose probe target exists.  Metrics with
    no samples on this workload read 0."""
    metrics = {}
    totals = probe.totals()
    for boundary, (calls, self_ns) in totals.items():
        metrics[boundary + ".calls"] = (calls, "count")
        metrics[boundary + ".busy_ms"] = (self_ns / 1e6, "ms")
        metrics[boundary + ".ns_per_call"] = (per_call(calls, self_ns), "ns")
    # sweep units carry their config: arm-nested* is trap-and-emulate
    # (nv), neve-nested* is NEVE.
    splits = {
        "": None,
        ".nv": probe.units_where(
            lambda config: (config or "").startswith("arm-nested")),
        ".neve": probe.units_where(
            lambda config: (config or "").startswith("neve-nested")),
    }
    if "hypervisor.handle_trap" in totals:
        bid = probe.bid["hypervisor.handle_trap"]
        for suffix, units in splits.items():
            add_distribution(metrics, "hypervisor.handle_trap",
                             probe.spans.durations(bid, units), 1e3, "us",
                             suffix)
    if "hypervisor.world_switch" in totals:
        for suffix in (".nv", ".neve"):
            calls, self_ns = probe.totals(splits[suffix])[
                "hypervisor.world_switch"]
            metrics["hypervisor.world_switch.ns_per_call" + suffix] = (
                per_call(calls, self_ns), "ns")
    if "arch.sysreg_access" in totals and "arch.dispatch_resolve" in totals:
        accesses = totals["arch.sysreg_access"][0]
        misses = totals["arch.dispatch_resolve"][0]
        metrics["arch.verdict_cache.hit_ratio"] = (
            1.0 - misses / accesses if accesses else 0.0, "ratio")
    for name, _ in probe.counter_specs:
        if name in probe.present:
            metrics[name] = (probe.counts[name], "count")
    if "faults.campaign" in totals:
        add_distribution(metrics, "faults.campaign", probe.spans.durations(
            probe.bid["faults.campaign"]), 1e6, "ms")
    extra = traced.extra
    metrics["faults.transitions"] = (extra.get("transitions", 0), "count")
    metrics["analysis.sanitizer.checks"] = (
        extra.get("sanitizer_checks", 0), "count")
    recorded = extra.get("recorded_spans", 0)
    metrics["trace.kept_ratio"] = (
        extra.get("kept_spans", 0) / recorded if recorded else 0.0, "ratio")
    add_distribution(metrics, "fleet.shard", extra.get("shard_ms", []), 1.0,
                     "ms")
    waits = extra.get("spawn_wait_ms", [])
    metrics["fleet.spawn_wait_ms"] = (
        statistics.median(waits) if waits else 0.0, "ms")
    metrics["fleet.retries"] = (extra.get("retries", 0), "count")
    metrics["fleet.worker_utilization"] = (extra.get("utilization", 0.0),
                                           "ratio")
    metrics["bench.traced_wall_ms"] = (
        (probe.wall_ns + probe.worker_wall_ns) / 1e6, "ms")
    metrics["bench.unattributed_ms"] = (probe.unattributed_ns() / 1e6, "ms")
    metrics["bench.trace_overhead"] = (traced.wall_s / untraced_wall_s,
                                       "ratio")
    metrics["bench.traps"] = (traced.traps, "count")
    metrics["bench.traps.x86"] = (traced.x86_traps, "count")
    return metrics


def layer_checks(probe, workload, traced):
    """The traced run's own invariants; each broken one is a problem."""
    problems = []
    totals = probe.totals()
    busy = sum(self_ns for _, self_ns in totals.values())
    if busy + probe.unattributed_ns() != probe.wall_ns + probe.worker_wall_ns:
        problems.append("trace: busy plus unattributed time is not the "
                        "traced wall time")
    if "hypervisor.handle_trap" in totals:
        calls = totals["hypervisor.handle_trap"][0]
        arm_traps = traced.traps - traced.x86_traps
        if calls != arm_traps:
            problems.append("trace: hypervisor.handle_trap.calls is %d, the "
                            "round took %d ARM traps" % (calls, arm_traps))
    idle = SWEEP_IDLE if workload == "sweep" else ()
    if workload != "fleet":
        idle += FLEET_ONLY
    for boundary in idle:
        if totals.get(boundary, (0, 0))[0]:
            problems.append("trace: %s has calls on %s"
                            % (boundary, workload))
    return problems


def outcome_of(rounds, metrics, problems=()):
    """Print the metrics and problems; return the result object."""
    problems = [p for r in rounds for p in r.problems] + list(problems)
    for problem in problems[:20]:
        print("perfbench: FAIL %s" % problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("perfbench: %-48s %16.6g %s" % (name, value, unit))
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def self_test(reference):
    """Seeded violations must drive the fail ratio above 0; the probes
    must report missing targets as absent, pass through the sanitizer
    and restore every original."""
    failures = []
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls(workloads.DEFAULT_SEED, reference, violate=True)
        workload.setup()
        rnd = workload.run_round(traced_size=True)
        print("self-test: %s with a seeded violation: %d of %d units failed"
              % (name, rnd.failed, rnd.attempted))
        if not rnd.failed:
            failures.append("%s: the seeded violation went unseen" % name)
    bogus = ("selftest.missing", ("repro.no_such_module:Thing.method",
                                  "repro.arch.cpu:NoSuchClass.method",
                                  "repro.arch.cpu:Cpu.no_such_method"),
             False)
    probe = probes.Probe(boundaries=probes.BOUNDARIES + (bogus,))
    originals = probes.snapshot_targets(probe)
    probe.install()
    try:
        passes = sanitizer_passes_through(probe)
    finally:
        probe.restore()
    checks = {
        "a boundary with only missing targets is absent":
            "selftest.missing" not in probe.totals(),
        "each missing target is reported":
            all(any(m.startswith(t) for m in probe.missing)
                for t in bogus[1]),
        "the sanitizer passes through the wrapped Cpu.sysreg_access":
            passes,
        "restore puts every original back":
            probes.snapshot_targets(probe) == originals,
    }
    for label, ok in checks.items():
        print("self-test: %s: %s" % (label, "ok" if ok else "FAILED"))
        if not ok:
            failures.append(label)
    print("self-test: %d of %d boundaries resolve"
          % (len([b for b, _, _ in probes.BOUNDARIES if b in probe.present]),
             len(probes.BOUNDARIES)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
