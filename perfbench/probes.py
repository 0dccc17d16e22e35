"""Run-time probes for the traced run.

Each *boundary* names a layer's public functions by dotted target:
``module:Class.method``, ``module:Class.*`` for every public method the
class defines, or ``module:*`` for every public function the module
defines.  :meth:`Probe.install` resolves the targets at run time and
replaces each one, where its callers look it up, with a timing wrapper;
:meth:`Probe.restore` puts every original back.  A target that does not
exist is reported missing, and a boundary whose targets are all missing
reports no metrics (absent, not 0), so deleting a layer needs no
benchmark edit.

Every wrapped call pushes a frame on one call stack.  On return the
call's duration is charged to its parent frame, so a boundary's busy
time is its *self* time: its duration minus the time covered by nested
wrapped calls.  Non-leaf boundaries also store one span per call
(boundary, start, end, parent span, unit) in flat arrays; leaf
boundaries only add to per-unit call and self-time totals, because they
run tens of thousands of times per unit.  The benchmark's own root,
unit and worker frames are not boundaries: their self time is the
unattributed time, so boundary busy times plus unattributed time equal
the traced wall time exactly.
"""

import importlib
import inspect
import json
import os
import time
from array import array

#: (name, targets, leaf), in report order.
BOUNDARIES = (
    ("arch.sysreg_access", ("repro.arch.cpu:Cpu.sysreg_access",), False),
    ("arch.regfile", ("repro.arch.registers:RegisterFile.read",
                      "repro.arch.registers:RegisterFile.write"), True),
    ("arch.gic", ("repro.arch.gic:Gic.cpu_interface_access",
                  "repro.arch.gic:Gic.inject_virtual_interrupt",
                  "repro.arch.gic:Gic.raise_physical",
                  "repro.arch.gic:Gic.send_sgi"), False),
    ("arch.dispatch_resolve",
     ("repro.arch.dispatch:DispatchTable.resolve",), False),
    ("core.deferred", ("repro.arch.cpu:Cpu.load",
                       "repro.arch.cpu:Cpu.store"), False),
    ("core.neve_runner", ("repro.core.neve:NeveRunner.*",), False),
    ("hypervisor.handle_trap",
     ("repro.hypervisor.kvm:KvmHypervisor.handle_trap",), False),
    ("hypervisor.world_switch", ("repro.hypervisor.world_switch:*",), False),
    ("hypervisor.guest_hyp",
     ("repro.hypervisor.nested:GuestHypervisor.*",), False),
    ("memory.phys", ("repro.memory.phys:PhysicalMemory.read_word",
                     "repro.memory.phys:PhysicalMemory.write_word"), False),
    ("memory.shadow_s2", ("repro.memory.shadow:ShadowStage2.translate",
                          "repro.memory.shadow:ShadowStage2.handle_fault"),
     False),
    ("x86.vm_exit", ("repro.x86.vmx:X86Cpu.vm_exit",
                     "repro.x86.vmx:X86Cpu.vm_entry"), False),
    ("metrics.ledger_charge",
     ("repro.metrics.cycles:CycleLedger.charge",), True),
    ("metrics.trap_record", ("repro.metrics.counters:TrapCounter.record",
                             "repro.metrics.counters:RecoveryCounter.record"),
     False),
    ("metrics.labels", ("repro.metrics.registry:MetricFamily.labels",), True),
    ("metrics.counter_inc",
     ("repro.metrics.registry:CounterValue.inc",), True),
    ("metrics.histogram_observe",
     ("repro.metrics.registry:HistogramValue.observe",), False),
    ("metrics.export",
     ("repro.metrics.registry:MetricsRegistry.snapshot",
      "repro.metrics.registry:MetricsRegistry.json_snapshot",
      "repro.metrics.registry:MetricsRegistry.prometheus_text"), False),
    ("metrics.delta", ("repro.metrics.registry:DeltaCursor.advance",), False),
    ("metrics.merge_snapshot",
     ("repro.metrics.registry:MetricsRegistry.merge_snapshot",), False),
    ("trace.spans", ("repro.trace.spans:Tracer.begin",
                     "repro.trace.spans:Tracer.end",
                     "repro.trace.spans:Tracer.begin_trap",
                     "repro.trace.spans:Tracer.instant"), False),
    ("trace.export", ("repro.trace.export:chrome_trace_json",
                      "repro.trace.export:tracer_payload",
                      "repro.fleet.worker:tracer_payload"), False),
    ("faults.injector", ("repro.faults.points:FaultInjector.*",), False),
    ("faults.recovery", ("repro.faults.recovery:RecoveryManager.*",
                         "repro.faults.recovery:RecoveryCoordinator.*"),
     False),
    ("faults.campaign", ("repro.faults.campaign:run_campaign",
                         "repro.fleet.worker:run_campaign"), False),
    ("fleet.checksum", ("repro.fleet.worker:payload_checksum",
                        "repro.fleet.supervisor:payload_checksum"), False),
    ("fleet.merge", ("repro.fleet.merge:merge_payloads",
                     "repro.fleet.supervisor:merge_payloads"), False),
)

#: Calls counted, not timed: (name, target).
COUNTERS = (
    ("arch.verdict_cache.invalidations",
     "repro.arch.cpu:Cpu.invalidate_verdict_cache"),
)

#: ``core.deferred`` times only VNCR page traffic: a load or store whose
#: ``category`` argument is this value.
DEFERRED_CATEGORY = "neve_deferred"

#: The fleet supervisor's process target, wrapped in the supervisor's
#: namespace: a forked worker inherits the parent's wrappers and totals,
#: so the wrapper zeroes them on start and ships the worker's own totals
#: back (through a file) before the worker exits.
WORKER_ENTRY = "repro.fleet.supervisor:worker_entry"

#: Inside a fleet worker each call of this boundary starts a new unit
#: (one machine).
WORKER_UNIT_BOUNDARY = "faults.campaign"

BENCH_RUN = "bench.run"
BENCH_UNIT = "bench.unit"
BENCH_WORKER = "bench.worker"

clock = time.perf_counter_ns


class Missing(LookupError):
    """A dotted target that does not resolve at this commit."""


def resolve(target):
    """Resolve one dotted target to ``[(owner, attr, function)]``.

    Raises :class:`Missing` when the module, class or function does not
    exist.  A wildcard expands to the public plain functions the class or
    module itself defines; properties, inherited, imported and private
    names are skipped."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise Missing("%s (%s)" % (target, exc)) from None
    parts = path.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise Missing("%s (no %s)" % (target, part))
    last = parts[-1]
    if last != "*":
        function = getattr(owner, last, None)
        if not callable(function):
            raise Missing("%s (no %s)" % (target, last))
        return [(owner, last, function)]
    found = [(owner, attr, value) for attr, value in vars(owner).items()
             if not attr.startswith("_") and inspect.isfunction(value)
             and (owner is not module or value.__module__ == module_name)]
    if not found:
        raise Missing("%s (no public functions)" % target)
    return found


class SpanStore:
    """Spans as parallel flat arrays: one row per wrapped non-leaf call,
    plus the benchmark's root, unit and worker frames."""

    def __init__(self):
        self.boundary = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")

    def __len__(self):
        return len(self.boundary)

    def open(self, bid, parent, unit):
        index = len(self.boundary)
        self.boundary.append(bid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(parent)
        self.unit.append(unit)
        return index

    def columns(self):
        return (("boundary", self.boundary), ("start_ns", self.start),
                ("end_ns", self.end), ("parent", self.parent),
                ("unit", self.unit))

    def extend(self, other, unit_map):
        """Append *other*'s rows, re-basing parent and unit indexes."""
        base = len(self.boundary)
        self.boundary.extend(other.boundary)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(array("i", (p + base if p >= 0 else p
                                       for p in other.parent)))
        self.unit.extend(array("i", (unit_map[u] for u in other.unit)))

    def durations(self, bid, units=None):
        """Inclusive durations (ns) of the spans of boundary *bid*,
        optionally only those of the given unit indexes."""
        boundary, start, end, unit = (self.boundary, self.start, self.end,
                                      self.unit)
        return [end[i] - start[i] for i in range(len(boundary))
                if boundary[i] == bid
                and (units is None or unit[i] in units)]


class Probe:
    """Wrappers, call stack and per-unit totals for one traced run."""

    def __init__(self, boundaries=BOUNDARIES, counters=COUNTERS):
        self.boundaries = tuple(boundaries)
        self.counter_specs = tuple(counters)
        self.names = [name for name, _, _ in self.boundaries]
        self.names += [BENCH_RUN, BENCH_UNIT, BENCH_WORKER]
        self.bid = {name: index for index, name in enumerate(self.names)}
        self.present = set()   # boundary and counter names that resolved
        self.missing = []      # unresolved targets, with the reason
        self.patches = []      # (owner, attr, original, owner_had_attr)
        self.worker_dir = None
        self.reset()

    # -- frames and units --------------------------------------------------

    def reset(self):
        """Drop every total, span and unit."""
        self.stack = []
        self.spans = SpanStore()
        self.units = []       # index -> (label, config)
        self.unit_calls = []  # index -> call count per boundary id
        self.unit_self = []   # index -> self time (ns) per boundary id
        self.counts = {name: 0 for name, _ in self.counter_specs}
        self.wall_ns = 0
        self.worker_wall_ns = 0
        self._unit_queue = None
        self._new_unit("bench", None)

    def _new_unit(self, label, config):
        self.units.append((label, config))
        self.unit_calls.append([0] * len(self.names))
        self.unit_self.append([0] * len(self.names))
        self.unit = len(self.units) - 1
        self.cur_calls = self.unit_calls[self.unit]
        self.cur_self = self.unit_self[self.unit]
        return self.unit

    def _push(self, name):
        parent = self.stack[-1][1] if self.stack else -1
        index = self.spans.open(self.bid[name], parent, self.unit)
        frame = [0, index, clock()]
        self.spans.start[index] = frame[2]
        self.stack.append(frame)

    def _pop(self, name):
        end = clock()
        frame = self.stack.pop()
        self.spans.end[frame[1]] = end
        duration = end - frame[2]
        if self.stack:
            self.stack[-1][0] += duration
        bid = self.bid[name]
        self.cur_calls[bid] += 1
        self.cur_self[bid] += duration - frame[0]
        return duration

    def start(self):
        """Open the root frame: the traced wall time starts here."""
        self._push(BENCH_RUN)

    def stop(self):
        """Close the root frame (and any unit left open)."""
        while len(self.stack) > 1:
            self._pop(BENCH_UNIT)
        if self.stack:
            self.wall_ns += self._pop(BENCH_RUN)

    def begin_unit(self, label, config=None):
        self._new_unit(label, config)
        self._push(BENCH_UNIT)

    def end_unit(self):
        self._pop(BENCH_UNIT)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, bid, original, unit_start=False):
        probe = self

        def probed(*args, **kwargs):
            if unit_start and probe._unit_queue is not None:
                probe._new_unit(next(probe._unit_queue), None)
            stack = probe.stack
            parent = stack[-1]
            spans = probe.spans
            index = spans.open(bid, parent[1], probe.unit)
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                probe.cur_calls[bid] += 1
                probe.cur_self[bid] += duration - frame[0]
                spans.start[index] = start
                spans.end[index] = end
        return probed

    def _leaf_wrapper(self, bid, original):
        probe = self

        def probed(*args, **kwargs):
            stack = probe.stack
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[0] += duration
                probe.cur_calls[bid] += 1
                probe.cur_self[bid] += duration - frame[0]
        return probed

    def _deferred_wrapper(self, bid, original):
        """Time only the calls made with the VNCR page traffic category;
        every other load and store passes straight through."""
        timed = self._span_wrapper(bid, original)
        position = list(inspect.signature(original).parameters).index(
            "category")

        def probed(*args, **kwargs):
            category = kwargs.get("category")
            if category is None and len(args) > position:
                category = args[position]
            if category == DEFERRED_CATEGORY:
                return timed(*args, **kwargs)
            return original(*args, **kwargs)
        return probed

    def _count_wrapper(self, name, original):
        probe = self

        def probed(*args, **kwargs):
            probe.counts[name] += 1
            return original(*args, **kwargs)
        return probed

    def _worker_wrapper(self, original):
        probe = self

        def probed(conn, shard, *args, **kwargs):
            probe.reset()
            probe.units[0] = ("shard%d" % shard.shard_id, None)
            probe._unit_queue = iter(["m%06d" % assignment.machine_index
                                      for assignment in shard.machines])
            probe._push(BENCH_WORKER)
            try:
                return original(conn, shard, *args, **kwargs)
            finally:
                probe.wall_ns += probe._pop(BENCH_WORKER)
                probe.dump_worker(shard.shard_id)
        return probed

    def _wrap(self, name, leaf, original):
        bid = self.bid[name]
        if name == "core.deferred":
            return self._deferred_wrapper(bid, original)
        if leaf:
            return self._leaf_wrapper(bid, original)
        return self._span_wrapper(bid, original,
                                  unit_start=name == WORKER_UNIT_BOUNDARY)

    def _patch(self, target, make_wrapper):
        try:
            found = resolve(target)
        except Missing as exc:
            self.missing.append(str(exc))
            return False
        for owner, attr, original in found:
            owner_had_attr = attr in vars(owner)
            setattr(owner, attr, make_wrapper(original))
            self.patches.append((owner, attr, original, owner_had_attr))
        return True

    def install(self, worker_dir=None):
        """Resolve and wrap every target.  With *worker_dir*, forked
        fleet workers leave their totals there for
        :meth:`merge_workers`."""
        if self.patches:
            raise RuntimeError("probes already installed")
        for name, targets, leaf in self.boundaries:
            for target in targets:
                if self._patch(target, lambda original, name=name,
                               leaf=leaf: self._wrap(name, leaf, original)):
                    self.present.add(name)
        for name, target in self.counter_specs:
            if self._patch(target, lambda original, name=name:
                           self._count_wrapper(name, original)):
                self.present.add(name)
        if worker_dir is not None:
            self.worker_dir = worker_dir
            self._patch(WORKER_ENTRY, self._worker_wrapper)
        return self

    def restore(self):
        """Put every original back, last patch first."""
        while self.patches:
            owner, attr, original, owner_had_attr = self.patches.pop()
            if owner_had_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- fleet workers -----------------------------------------------------

    def dump_worker(self, shard_id):
        """Write this worker's totals and spans for the parent."""
        stem = os.path.join(self.worker_dir,
                            "worker-%d-%d" % (shard_id, os.getpid()))
        with open(stem + ".bin", "wb") as fh:
            for _, column in self.spans.columns():
                column.tofile(fh)
        header = {"names": self.names, "units": self.units,
                  "calls": self.unit_calls, "self_ns": self.unit_self,
                  "counts": self.counts, "wall_ns": self.wall_ns,
                  "spans": len(self.spans)}
        with open(stem + ".json.tmp", "w") as fh:
            json.dump(header, fh)
        os.replace(stem + ".json.tmp", stem + ".json")

    def merge_workers(self):
        """Fold every worker's file into this (parent) probe; returns how
        many workers were merged."""
        merged = 0
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.endswith(".json"):
                continue
            stem = os.path.join(self.worker_dir, entry[:-len(".json")])
            with open(stem + ".json") as fh:
                header = json.load(fh)
            if header["names"] != self.names:
                raise RuntimeError("%s reports other boundaries" % entry)
            other = SpanStore()
            with open(stem + ".bin", "rb") as fh:
                for _, column in other.columns():
                    column.fromfile(fh, header["spans"])
            unit_map = []
            for (label, config), calls, self_ns in zip(
                    header["units"], header["calls"], header["self_ns"]):
                unit_map.append(self._new_unit(label, config))
                self.cur_calls[:] = calls
                self.cur_self[:] = self_ns
            self.spans.extend(other, unit_map)
            for name, value in header["counts"].items():
                self.counts[name] += value
            self.worker_wall_ns += header["wall_ns"]
            merged += 1
        return merged

    # -- results -----------------------------------------------------------

    def totals(self, units=None):
        """``{boundary: (calls, self_ns)}`` over *units* (all when None)
        for every boundary with a resolved target."""
        indexes = range(len(self.units)) if units is None else units
        out = {}
        for name, _, _ in self.boundaries:
            if name in self.present:
                bid = self.bid[name]
                out[name] = (sum(self.unit_calls[u][bid] for u in indexes),
                             sum(self.unit_self[u][bid] for u in indexes))
        return out

    def unattributed_ns(self):
        """Self time of the benchmark's own frames: traced time that no
        boundary accounts for."""
        bench = [self.bid[BENCH_RUN], self.bid[BENCH_UNIT],
                 self.bid[BENCH_WORKER]]
        return sum(row[bid] for row in self.unit_self for bid in bench)

    def units_where(self, predicate):
        return {index for index, (_, config) in enumerate(self.units)
                if predicate(config)}

    def write_spans(self, stem, meta):
        """Write the spans (each column a raw native-endian int array)
        and a JSON index that locates the columns."""
        columns = {}
        with open(stem + ".bin", "wb") as fh:
            for name, column in self.spans.columns():
                columns[name] = {"offset": fh.tell(),
                                 "typecode": column.typecode,
                                 "itemsize": column.itemsize}
                column.tofile(fh)
        index = {"schema": "perfbench-spans/1", "rows": len(self.spans),
                 "columns": columns, "boundaries": self.names,
                 "units": self.units, "meta": meta}
        with open(stem + ".json", "w") as fh:
            json.dump(index, fh, indent=1, sort_keys=True)
            fh.write("\n")


def snapshot_targets(probe):
    """Identity of every attribute the probe patches, taken before
    install and compared after restore."""
    targets = [t for _, targets, _ in probe.boundaries for t in targets]
    targets += [target for _, target in probe.counter_specs]
    targets.append(WORKER_ENTRY)
    seen = []
    for target in targets:
        try:
            found = resolve(target)
        except Missing:
            continue
        for owner, attr, _ in found:
            seen.append((target, attr, attr in vars(owner),
                         id(vars(owner).get(attr))))
    return sorted(seen)
