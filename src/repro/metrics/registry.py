"""Unified telemetry registry: labelled counters, gauges and histograms.

The paper's argument is quantitative — trap counts and cycle costs per
exit class (Tables 1, 6, 7) — and until now the repo's counters lived in
three disconnected islands (:class:`~repro.metrics.counters.TrapCounter`,
:class:`~repro.metrics.counters.RecoveryCounter`, the
:class:`~repro.metrics.cycles.CycleLedger` categories) with no common
export.  The registry gives them one home with machine-readable exports:

* **Primitives.**  :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` families, each with a fixed tuple of label names
  (the conventional dimensions: ``config``, exception level ``el``,
  ``reason`` (:class:`~repro.metrics.counters.ExitReason`), recovery
  ``event``, nesting ``depth``).  Children are created on first use per
  label-value tuple.

* **Determinism.**  Families iterate in registration order; children
  iterate sorted by label values.  Timestamps are *virtual* — the cycle
  ledger total via the registry's ``clock`` — never the wall clock, so
  the Prometheus text exposition and the JSON snapshot are byte-identical
  across runs of the same seeded scenario.

* **Cost.**  The registry only ever *reads* the ledger (the clock, and
  counting dicts :meth:`Counter.mirror` folds in at read time); it
  never charges it.  The hot layers reach it through the machine's
  observers list, so telemetry adds zero simulated cycles, enabled or
  not (the observer gate in ``tests/trace/test_observers.py``).

This module deliberately imports nothing from :mod:`repro` so the hot
layers can use it without import cycles.
"""

import json
import math
from bisect import bisect_left
from itertools import accumulate


def format_value(value):
    """Prometheus-style number formatting, deterministic across runs:
    integral values print without a fraction, infinities as ``+Inf``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value == int(value)):
        return "%d" % int(value)
    return repr(float(value))


def escape_label_value(value):
    """Escape a label value per the Prometheus text exposition format."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_text(names, values):
    return ",".join('%s="%s"' % (name, escape_label_value(value))
                    for name, value in zip(names, values))


class _Child:
    """Base for one labelled time series inside a family."""

    __slots__ = ("label_values",)

    def __init__(self, label_values):
        self.label_values = label_values


class CounterValue(_Child):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, label_values):
        super().__init__(label_values)
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up; got %r" % (amount,))
        self.value += amount

    def get(self):
        return self.value


class GaugeValue(_Child):
    """A value that can go up and down (depth, queue length, ...)."""

    __slots__ = ("value",)

    def __init__(self, label_values):
        super().__init__(label_values)
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount

    def get(self):
        return self.value


class HistogramValue(_Child):
    """Histogram of observations: one count per bucket, made cumulative
    where it is read (:attr:`counts`)."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, label_values, buckets):
        super().__init__(label_values)
        self.buckets = buckets  # upper bounds, ascending, +Inf last
        self.bucket_counts = [0] * len(buckets)  # the lowest bound >= value
        self.sum = 0
        self.count = 0

    def observe(self, value):
        self.sum += value
        self.count += 1
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def counts(self):
        """The cumulative bucket counts: every bound >= a value counts
        it, as the exports show them."""
        return list(accumulate(self.bucket_counts))

    def get(self):
        return {"sum": self.sum, "count": self.count,
                "buckets": self.counts}


#: Default histogram buckets for simulated-cycle observations: spans
#: the range from a bare trap entry (~72 cycles) to a full ARMv8.3
#: nested exit (~413k cycles, Table 1).
CYCLE_BUCKETS = (100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
                 50_000, 100_000, 250_000, 500_000, 1_000_000, math.inf)


class MetricFamily:
    """One named metric with a fixed label schema and many children."""

    kind = None  # "counter" | "gauge" | "histogram"

    def __init__(self, name, help_text="", labelnames=()):
        _validate_name(name)
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self._children = {}  # label-values tuple -> child
        self._mirrors = {}  # id(source dict) -> _Mirror (counters only)

    def _make_child(self, values):
        raise NotImplementedError

    def child(self, values):
        """The child for *values*, label strings in ``labelnames`` order
        (what :meth:`labels` makes of its arguments), created on first
        use; no validation, for a caller that built them itself."""
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make_child(values)
        return child

    def _pull(self):
        """Fold the mirrored sources' movement in (every read does)."""
        for mirror in self._mirrors.values():
            mirror.pull(self)

    def labels(self, *values, **kwargs):
        """The child for one label-value combination (created on first
        use).  Positional values follow ``labelnames`` order; keyword
        values may come in any order."""
        if kwargs:
            if values:
                raise ValueError("pass labels positionally or by "
                                 "keyword, not both")
            try:
                values = tuple(kwargs.pop(name) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError("missing label %s for %s"
                                 % (exc, self.name))
            if kwargs:
                raise ValueError("unknown label(s) %s for %s"
                                 % (sorted(kwargs), self.name))
        values = tuple(map(label_str, values))
        if len(values) != len(self.labelnames):
            raise ValueError("%s takes %d label(s) %r, got %r"
                             % (self.name, len(self.labelnames),
                                self.labelnames, values))
        self._pull()
        return self.child(values)

    def children(self):
        """Children sorted by label values — the deterministic order
        every exporter uses."""
        self._pull()
        return [self._children[key] for key in sorted(self._children)]

    def reset(self):
        """Drop every child; mirrored sources count only what moves
        from now on."""
        self._pull()
        self._children.clear()

    @property
    def signature(self):
        return (self.kind, self.labelnames)


class Counter(MetricFamily):
    kind = "counter"

    def _make_child(self, values):
        return CounterValue(values)

    def total(self):
        """Sum across all children (migration-parity checks)."""
        self._pull()
        return sum(child.value for child in self._children.values())

    def mirror(self, source, *prefix):
        """Count *source*'s movement from now on, read when the family
        is read.  *source* maps a key (the last label, after *prefix*)
        to a running count, like a ledger's ``by_category``.  Mirroring
        it again folds its movement and restarts it: never counted
        twice."""
        self.unmirror(source)
        self._mirrors[id(source)] = _Mirror(source, prefix)

    def unmirror(self, source):
        """Fold *source*'s last movement and stop reading it."""
        mirror = self._mirrors.pop(id(source), None)
        if mirror is not None:
            mirror.pull(self)


class _Mirror:
    """One counting dict read into a counter family: holds the dict and
    what it last saw of it, never the object that owns it."""

    __slots__ = ("source", "prefix", "seen")

    def __init__(self, source, prefix):
        self.source = source
        self.prefix = tuple(label_str(value) for value in prefix)
        self.seen = dict(source)  # the baseline: earlier counts are not ours

    def pull(self, family):
        seen = self.seen
        for key, count in self.source.items():
            before = seen.get(key)
            if before != count:
                # A key new since the baseline gets its series even at
                # 0: a zero-cycle charge to a new category is exported.
                family.child(self.prefix + (label_str(key),)).inc(
                    count - (before or 0))
                seen[key] = count


class Gauge(MetricFamily):
    kind = "gauge"

    def _make_child(self, values):
        return GaugeValue(values)


class Histogram(MetricFamily):
    kind = "histogram"

    def __init__(self, name, help_text="", labelnames=(),
                 buckets=CYCLE_BUCKETS):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds

    def _make_child(self, values):
        return HistogramValue(values, self.buckets)

    @property
    def signature(self):
        return (self.kind, self.labelnames, self.buckets)


class MetricsRegistry:
    """Holds metric families; the single source for both exporters.

    ``clock``, when set, is a zero-argument callable returning the
    current *virtual* timestamp (conventionally the shared cycle
    ledger's ``total``).  It is only ever read — exporting metrics must
    never advance simulated time.
    """

    def __init__(self, clock=None):
        self._families = {}  # name -> family, registration-ordered
        self.clock = clock

    # -- registration ----------------------------------------------------

    def _register(self, cls, name, help_text, labelnames, **kwargs):
        family = self._families.get(name)
        if family is not None:
            wanted = cls(name, help_text, labelnames, **kwargs).signature
            if family.signature != wanted:
                raise ValueError(
                    "metric %r re-registered with a different schema: "
                    "have %r, want %r" % (name, family.signature, wanted))
            return family
        family = cls(name, help_text, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name, help_text="", labelnames=()):
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name, help_text="", labelnames=()):
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(self, name, help_text="", labelnames=(),
                  buckets=CYCLE_BUCKETS):
        return self._register(Histogram, name, help_text, labelnames,
                              buckets=buckets)

    # -- inspection ------------------------------------------------------

    def collect(self):
        """Families in registration order."""
        return list(self._families.values())

    def get(self, name):
        return self._families.get(name)

    def reset(self):
        """Drop every child (families and schemas stay registered)."""
        for family in self._families.values():
            family.reset()

    def now(self):
        return 0 if self.clock is None else self.clock()

    # -- exporters -------------------------------------------------------

    def prometheus_text(self):
        """The Prometheus text exposition format (0.0.4).

        Byte-identical across runs of the same seeded scenario: family
        order is registration order, child order is sorted label values,
        and the only timestamp is the virtual-cycle clock.
        """
        lines = ["# Virtual-cycle timestamp: %d" % self.now()]
        for family in self.collect():
            lines.append("# HELP %s %s" % (family.name, family.help))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            for child in family.children():
                label_text = _label_text(family.labelnames,
                                         child.label_values)
                if family.kind == "histogram":
                    lines.extend(self._histogram_lines(
                        family, child, label_text))
                else:
                    lines.append("%s%s %s" % (
                        family.name,
                        "{%s}" % label_text if label_text else "",
                        format_value(child.value)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _histogram_lines(family, child, label_text):
        # ``counts`` are cumulative, as the exposition format requires.
        lines = []
        prefix = label_text
        for bound, count in zip(family.buckets, child.counts):
            le = 'le="%s"' % format_value(bound)
            labels = "%s,%s" % (prefix, le) if prefix else le
            lines.append("%s_bucket{%s} %d" % (family.name, labels, count))
        brace = "{%s}" % prefix if prefix else ""
        lines.append("%s_sum%s %s" % (family.name, brace,
                                      format_value(child.sum)))
        lines.append("%s_count%s %d" % (family.name, brace, child.count))
        return lines

    def snapshot(self):
        """Nested-dict view of every family (the JSON export's body)."""
        out = {}
        for family in self.collect():
            series = []
            for child in family.children():
                entry = {"labels": dict(zip(family.labelnames,
                                            child.label_values))}
                if family.kind == "histogram":
                    entry.update(child.get())
                    entry["le"] = [format_value(bound)
                                   for bound in family.buckets]
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "labelnames": list(family.labelnames),
                                "series": series}
        return out

    def json_snapshot(self, indent=2):
        """Deterministic JSON export (sorted keys, virtual timestamp)."""
        document = {"schema": "repro-metrics/1",
                    "virtual_cycles": self.now(),
                    "metrics": self.snapshot()}
        return json.dumps(document, sort_keys=True, indent=indent) + "\n"

    def delta_cursor(self):
        """A :class:`DeltaCursor` positioned at the registry's current
        state — the streaming-export hook the fleet workers use."""
        return DeltaCursor(self)

    # -- merging (the fleet layer's fold hook) ---------------------------

    def merge_snapshot(self, document):
        """Fold a previously exported ``repro-metrics/1`` document (or a
        bare :meth:`snapshot` dict) into this registry.

        Counters and histogram series *add*; gauge series *set*.  The
        fold is therefore order-independent whenever the merged series
        are label-disjoint or counter/histogram shaped — which is how
        the fleet merge stays byte-identical no matter how shards were
        scheduled.  Families are registered on first sight (document
        order, which ``json_snapshot`` keeps sorted by name); a family
        already registered with a different schema raises ``ValueError``
        rather than merging apples into oranges.
        """
        if isinstance(document, str):
            document = json.loads(document)
        metrics = document.get("metrics", document)
        for name, body in metrics.items():
            kind = body["kind"]
            labelnames = tuple(body.get("labelnames", ()))
            help_text = body.get("help", "")
            series = body.get("series", ())
            if kind == "counter":
                family = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                family = self.gauge(name, help_text, labelnames)
            elif kind == "histogram":
                buckets = tuple(_parse_bound(le)
                                for entry in series[:1]
                                for le in entry["le"]) or CYCLE_BUCKETS
                family = self.histogram(name, help_text, labelnames,
                                        buckets=buckets)
            else:
                raise ValueError("cannot merge metric %r of unknown "
                                 "kind %r" % (name, kind))
            for entry in series:
                labels = entry["labels"]
                values = tuple(labels[label] for label in labelnames)
                child = family.labels(*values)
                if kind == "counter":
                    child.inc(entry["value"])
                elif kind == "gauge":
                    child.set(entry["value"])
                else:
                    bounds = tuple(_parse_bound(le)
                                   for le in entry["le"])
                    if bounds != family.buckets:
                        raise ValueError(
                            "histogram %r merged with mismatched "
                            "buckets: have %r, got %r"
                            % (name, family.buckets, bounds))
                    child.sum += entry["sum"]
                    child.count += entry["count"]
                    below = 0  # the documents' buckets are cumulative
                    for index, count in enumerate(entry["buckets"]):
                        child.bucket_counts[index] += count - below
                        below = count
        return self


def snapshot_delta(base, current):
    """Pure diff of two :meth:`MetricsRegistry.snapshot` dicts.

    Returns a snapshot-shaped dict containing only what moved since
    *base*: counter and histogram series subtract (value, sum, count and
    per-bucket counts), gauge series carry their current value when it
    changed.  Unchanged series and empty families are omitted, so the
    delta of a quiet interval is ``{}``.  Folding every delta of a run
    through :meth:`MetricsRegistry.merge_snapshot` reproduces the final
    counters and histograms exactly — which is what makes the fleet's
    streaming ``progress`` events loss-checkable against the final
    result payload.
    """
    out = {}
    for name, body in current.items():
        base_series = {}
        base_body = base.get(name)
        if base_body is not None:
            if (base_body["kind"] != body["kind"]
                    or base_body["labelnames"] != body["labelnames"]):
                raise ValueError(
                    "metric %r changed schema between snapshots: "
                    "%r -> %r" % (name,
                                  (base_body["kind"],
                                   base_body["labelnames"]),
                                  (body["kind"], body["labelnames"])))
            for entry in base_body["series"]:
                key = tuple(entry["labels"][label]
                            for label in base_body["labelnames"])
                base_series[key] = entry
        moved = []
        for entry in body["series"]:
            key = tuple(entry["labels"][label]
                        for label in body["labelnames"])
            before = base_series.get(key)
            delta = _series_delta(body["kind"], before, entry)
            if delta is not None:
                moved.append(delta)
        if moved:
            out[name] = {"kind": body["kind"], "help": body["help"],
                         "labelnames": list(body["labelnames"]),
                         "series": moved}
    return out


def _series_delta(kind, before, entry):
    """One series' movement between two snapshots; None when quiet."""
    if kind == "histogram":
        if before is None:
            changed = entry["count"] != 0 or entry["sum"] != 0
            delta = {"labels": dict(entry["labels"]),
                     "le": list(entry["le"]),
                     "sum": entry["sum"], "count": entry["count"],
                     "buckets": list(entry["buckets"])}
        else:
            delta = {
                "labels": dict(entry["labels"]),
                "le": list(entry["le"]),
                "sum": entry["sum"] - before["sum"],
                "count": entry["count"] - before["count"],
                "buckets": [after - prior for after, prior
                            in zip(entry["buckets"], before["buckets"])],
            }
            changed = delta["count"] != 0 or delta["sum"] != 0
        return delta if changed else None
    previous = 0 if before is None else before["value"]
    if kind == "counter":
        moved = entry["value"] - previous
        if moved == 0:
            return None
        return {"labels": dict(entry["labels"]), "value": moved}
    # Gauges merge by *set*, so the delta carries the current value —
    # but only when it moved (or the series is new).
    if before is not None and entry["value"] == previous:
        return None
    return {"labels": dict(entry["labels"]), "value": entry["value"]}


class DeltaCursor:
    """Incremental ``repro-metrics/1`` delta documents over a registry.

    Each :meth:`advance` returns the movement since the previous call
    (or since construction) as a mergeable document — the fleet workers
    stream one per machine so the supervisor can watch counters grow
    without waiting for the shard's final checksummed payload.
    """

    def __init__(self, registry):
        self.registry = registry
        self._base = registry.snapshot()

    def advance(self, virtual_cycles=None):
        current = self.registry.snapshot()
        delta = snapshot_delta(self._base, current)
        self._base = current
        return {
            "schema": "repro-metrics/1",
            "delta": True,
            "virtual_cycles": (self.registry.now()
                               if virtual_cycles is None
                               else virtual_cycles),
            "metrics": delta,
        }


def _parse_bound(text):
    """Invert :func:`format_value` for histogram bucket bounds."""
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return int(text)
    except ValueError:
        return float(text)


def _validate_name(name):
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError("invalid metric/label name %r" % (name,))
    if name[0].isdigit():
        raise ValueError("metric/label name %r starts with a digit"
                         % (name,))


def label_str(value):
    """Coerce a label value to its canonical string form (enum members
    export their ``value`` so ``ExitReason.HVC`` becomes ``"hvc"``)."""
    inner = getattr(value, "value", value)
    if isinstance(inner, bool):
        return "true" if inner else "false"
    return str(inner)
