"""The benchmark's workloads: timed set-up, rounds of units, output checks.

A workload drives the simulator only through its public entry points.
``setup`` is what a user pays before the first unit (``setup_s`` times
it, ``import repro`` included).  ``run_round`` runs one round of units,
closed loop from this one process, and checks every unit's simulated
output.  Every round of a run repeats the same units, so rounds differ
only in host time.  A round is timed in slices: one per unit, or the
whole round where its units run in worker processes (``fleet``).

* ``sweep``: every config in ``ALL_CONFIGS`` x the four
  ``MICROBENCHMARKS``, machines built and booted in set-up, telemetry
  off.  Unit: one (config, microbenchmark) cell.  Nearly all host time
  is the ``arch`` sysreg loop and ``hypervisor`` world switches; the
  metrics, trace, faults and fleet layers do no work, so this is the
  no-change control for telemetry and fault-path changes.  Uses no seed.
* ``campaigns``: a batch of NEVE fault campaigns with telemetry left on
  (one shared registry; a tracer per campaign whose trace is exported
  and released), ending with the registry's Prometheus and JSON exports.
  Unit: one campaign.
* ``fleet``: ``run_fleet`` over a generated plan on ``min(2, nproc)``
  forked workers, no chaos, no trace.  Unit: one machine.  The only
  workload that reaches ``repro.fleet`` and the pull side of the
  registry (delta snapshots, ``merge_snapshot``).
"""

import hashlib
import os
import resource
import time
import traceback
from dataclasses import replace

#: The seed whose campaign and fleet digests reference.json records; on
#: other seeds the check falls back to the simulator's own verdicts.
DEFAULT_SEED = 0

#: Microbenchmark iterations per sweep cell, as in BENCH_4.json.
SWEEP_ITERATIONS = 6
#: Iterations per cell in the trace run.  The per-iteration outputs do
#: not depend on the count, and one iteration keeps the spans small.
SWEEP_TRACE_ITERATIONS = 1
#: Campaigns per batch: enough that one run's trap mix does not hinge on
#: whether a single campaign degraded.
CAMPAIGNS_PER_BATCH = 12
FLEET_MACHINES = 32

#: The paper's Table 7: traps to the host hypervisor per hypercall.
TABLE7 = {"arm-nested": 126, "neve-nested": 16}


def campaign_cpus(number):
    """Campaigns alternate between one and two vCPUs."""
    return 1 + number % 2


def cpu_seconds(children_only=False):
    """CPU time of this process plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = kids.ru_utime + kids.ru_stime
    if not children_only:
        own = resource.getrusage(resource.RUSAGE_SELF)
        total += own.ru_utime + own.ru_stime
    return total


def _last_line():
    return traceback.format_exc().strip().splitlines()[-1]


class Round:
    """What one round of units measured, produced and got wrong.  The
    clocks start when the round is created."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.traps = 0
        self.x86_traps = 0
        self.attempted = 0
        self.failed = 0
        self.outputs = {}
        self.problems = []
        self.extra = {}
        #: label -> [traps, wall seconds, CPU seconds] of each timed
        #: slice of the round (a unit, or a round's shared tail work).
        self.slices = {}
        self._started = (time.perf_counter(), cpu_seconds())
        self._slice = self._started

    def close_slice(self, label, traps=0):
        """Charge the host time since the previous slice to *label*."""
        now = (time.perf_counter(), cpu_seconds())
        self.slices[label] = [traps, now[0] - self._slice[0],
                              now[1] - self._slice[1]]
        self._slice = now

    def unit(self, label, why):
        """Book one unit; a non-empty *why* fails it."""
        self.attempted += 1
        if why:
            self.failed += 1
            self.problems.append("%s: %s" % (label, why))

    def done(self):
        wall, cpu = self._started
        self.wall_s = time.perf_counter() - wall
        self.cpu_s = cpu_seconds() - cpu


class Sweep:
    name = "sweep"

    def __init__(self, seed, reference, violate=False):
        self.expected = reference["sweep"]
        self.violate = violate

    def setup(self):
        from repro import ALL_CONFIGS, MICROBENCHMARKS, make_microbench
        from repro.metrics.cycles import ARM_COSTS
        self.suites = {}
        for name in sorted(ALL_CONFIGS):
            costs = None
            if self.violate and ALL_CONFIGS[name].platform == "arm":
                # Seeded violation: every ARM trap entry costs one more
                # cycle, so every trapping ARM cell must fail its check.
                costs = replace(ARM_COSTS,
                                trap_entry=ARM_COSTS.trap_entry + 1)
            self.suites[name] = make_microbench(name, costs=costs)
        self.x86 = {name for name in self.suites
                    if ALL_CONFIGS[name].platform == "x86"}
        self.cells = [(name, bench) for name in self.suites
                      for bench in MICROBENCHMARKS]

    def run_round(self, probe=None, traced_size=False):
        iterations = (SWEEP_TRACE_ITERATIONS if traced_size
                      else SWEEP_ITERATIONS)
        rnd = Round()
        for name, bench in self.cells:
            label = "%s/%s" % (name, bench)
            suite = self.suites[name]
            before = suite.machine.traps.total
            if probe is not None:
                probe.begin_unit(label, name)
            try:
                result, why = suite.run(bench, iterations), ""
            except Exception:  # a unit that raises is a failed unit
                result, why = None, _last_line()
            if probe is not None:
                probe.end_unit()
            traps = suite.machine.traps.total - before
            rnd.close_slice(label, traps)
            rnd.traps += traps
            if name in self.x86:
                rnd.x86_traps += traps
            if result is not None:
                got = [result.cycles, result.traps]
                want = self.expected[name][bench]
                rnd.outputs[label] = got
                if got != want:
                    why = ("per-iteration [cycles, traps] %r, BENCH_4 has %r"
                           % (got, want))
            rnd.unit(label, why)
        rnd.done()
        for name, traps in sorted(TABLE7.items()):
            got = rnd.outputs.get(name + "/hypercall", [None, None])[1]
            if got != traps:
                rnd.problems.append("table7: a %s hypercall took %s traps, "
                                    "Table 7 has %d" % (name, got, traps))
        return rnd


class Campaigns:
    name = "campaigns"

    def __init__(self, seed, reference, violate=False):
        self.seed = seed
        self.expected = (reference["campaigns"]
                         if seed == reference["default_seed"] else None)
        if violate:
            self.expected = ["0" * 64] * CAMPAIGNS_PER_BATCH

    def setup(self):
        import repro  # noqa: F401  (the import is part of set-up)
        from repro.faults import campaign
        from repro.faults.plan import split_seed
        from repro.metrics.instrument import MachineMetrics
        from repro.metrics.registry import MetricsRegistry
        from repro.trace import export
        self._campaign = campaign
        self._export = export
        self._metrics = MachineMetrics
        self._registry = MetricsRegistry
        self.seeds = [split_seed(self.seed, number)
                      for number in range(CAMPAIGNS_PER_BATCH)]
        self.exports = None

    def run_round(self, probe=None, traced_size=False):
        rnd = Round()
        registry = self._registry()
        digests = []
        cycles = kept = recorded = transitions = checks = 0
        for number, seed in enumerate(self.seeds):
            label = "c%02d" % number
            if probe is not None:
                probe.begin_unit(label)
            try:
                result = self._campaign.run_campaign(
                    seed, cpus=campaign_cpus(number), trace=True,
                    metrics=self._metrics(registry=registry, config=label))
                self._export.chrome_trace_json(result.tracer)
                why = ""
            except Exception:  # a unit that raises is a failed unit
                result, why = None, _last_line()
            if probe is not None:
                probe.end_unit()
            rnd.close_slice(label, result.total_traps if result else 0)
            if result is None:
                digests.append(None)
                rnd.unit(label, why)
                continue
            tracer, result.tracer = result.tracer, None  # release it
            kept += len(tracer.spans())
            recorded += len(tracer.spans()) + tracer.dropped_spans
            del tracer
            cycles += result.total_cycles
            rnd.traps += result.total_traps
            transitions += (result.recovery_counts.get("neve_degrade", 0)
                            + result.recovery_counts.get("neve_repromote",
                                                         0))
            checks += result.sanitizer_checks
            digests.append(result.digest)
            if not result.ok:
                why = "campaign not ok: %s" % "; ".join(result.silent[:2])
            elif self.expected is not None \
                    and result.digest != self.expected[number]:
                why = ("digest %.12s, reference %.12s"
                       % (result.digest, self.expected[number]))
            rnd.unit(label, why)
        if probe is not None:
            probe.begin_unit("exports")
        registry.clock = lambda: cycles
        self.exports = (registry.prometheus_text(),
                        registry.json_snapshot())
        if probe is not None:
            probe.end_unit()
        rnd.close_slice("exports")
        rnd.done()
        rnd.outputs = {"digests": digests,
                       "exports": [hashlib.sha256(text.encode()).hexdigest()
                                   for text in self.exports]}
        rnd.extra = {"kept_spans": kept, "recorded_spans": recorded,
                     "transitions": transitions, "sanitizer_checks": checks}
        return rnd


class FleetStamps:
    """A ``run_fleet`` sink: host time of each shard attempt's launch,
    first heartbeat and result (as the supervisor's poll loop sees
    them)."""

    def __init__(self):
        self.launch = {}
        self.first_beat = {}
        self.result = {}
        self._attempt = {}

    def __call__(self, event):
        now = time.perf_counter()
        kind = event["event"]
        if kind == "launch":
            self._attempt[event["shard"]] = event["attempt"]
            self.launch[(event["shard"], event["attempt"])] = now
        elif kind == "heartbeat":
            key = (event["shard"], self._attempt.get(event["shard"]))
            self.first_beat.setdefault(key, now)
        elif kind == "result":
            self.result[(event["shard"], event["attempt"])] = now

    def waits_ms(self, ends):
        return [1e3 * (ends[key] - start)
                for key, start in sorted(self.launch.items()) if key in ends]


class Fleet:
    name = "fleet"

    def __init__(self, seed, reference, violate=False):
        self.seed = seed
        self.expected = (reference["fleet"]
                         if seed == reference["default_seed"] else None)
        if violate:
            self.expected = "0" * 64

    def setup(self):
        import repro  # noqa: F401  (the import is part of set-up)
        from repro.fleet import supervisor
        from repro.fleet.plan import FleetPlan
        self._supervisor = supervisor
        self.plan = FleetPlan.generate(self.seed, FLEET_MACHINES)
        self.workers = min(2, len(os.sched_getaffinity(0)))

    def run_round(self, probe=None, traced_size=False):
        config = self._supervisor.FleetConfig(workers=self.workers)
        stamps = FleetStamps()
        kids = cpu_seconds(children_only=True)
        rnd = Round()
        if probe is not None:
            probe.begin_unit("fleet")
        try:
            result = self._supervisor.run_fleet(
                self.plan, config, sinks=(stamps,) if probe else ())
            why = ""
        except Exception:  # the whole fleet failed: every machine fails
            result, why = None, _last_line()
        if probe is not None:
            probe.end_unit()
        rnd.done()
        kids = cpu_seconds(children_only=True) - kids
        rnd.slices["fleet"] = [0, rnd.wall_s, rnd.cpu_s]
        machines = [assignment.machine_index
                    for assignment in self.plan.machines]
        if result is None:
            for machine in machines:
                rnd.unit("m%06d" % machine, why)
            return rnd
        records = {record["machine"]: record
                   for record in result.merge.records}
        digest = result.merge.digest
        retried = {machine for state in result.states if state.failures
                   for machine in state.shard.machine_indexes}
        if not result.accounting_ok:
            why = "accounting: %s" % result.accounting_line()
        elif self.expected is not None and digest != self.expected:
            why = ("merged digest %.12s, reference %.12s"
                   % (digest, self.expected))
        for machine in machines:
            record = records.get(machine)
            unit_why = why
            if not unit_why and record is None:
                unit_why = "missing from the merge"
            elif not unit_why and machine in retried:
                unit_why = "its shard failed an attempt"
            elif not unit_why and not record["ok"]:
                unit_why = "campaign not ok"
            rnd.unit("m%06d" % machine, unit_why)
            if record is not None:
                rnd.traps += record["traps"]
        rnd.slices["fleet"][0] = rnd.traps
        rnd.outputs = {"digest": digest}
        rnd.extra = {
            "transitions": sum(record["recovery_counts"].get(event, 0)
                               for record in records.values()
                               for event in ("neve_degrade",
                                             "neve_repromote")),
            "sanitizer_checks": sum(record["sanitizer_checks"]
                                    for record in records.values()),
            "retries": sum(len(state.failures) for state in result.states),
            "attempts": len(stamps.launch),
            "shard_ms": stamps.waits_ms(stamps.result),
            "spawn_wait_ms": stamps.waits_ms(stamps.first_beat),
            "utilization": kids / (self.workers * rnd.wall_s),
        }
        return rnd
