"""Golden pin of the telemetry exports.

Four traced fault campaigns (seeds ``split_seed(0, i)`` for i = 0..3,
alternating one and two vCPUs) share one metrics registry, as the
campaign benchmark batch does.  The sha256 of every campaign's Chrome
trace and of the registry's Prometheus and JSON exports is pinned, so a
change to how telemetry is collected (pushed per event or pulled at
read time) must leave every exported byte where it was.
"""

import hashlib

from repro.faults.campaign import run_campaign
from repro.faults.plan import split_seed
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import chrome_trace_json

TRACE_SHA256 = (
    "35d8f50ba2741324ec31737b6045579ac1dd8be436b26c879f403638b634ff51",
    "37d465efe37718dfd7ac812d98fcca58663ef1677be390066363a170838e9c3a",
    "52b9f4de402acc8ea020228aa2156289c638e56ad21f2179164325c00c367672",
    "3a0227efda74dbc2206aa207a161d3268043508eca0111f5e4bb8b25a142c398",
)
PROMETHEUS_SHA256 = (
    "1f4bedb20cfa903110b34dac9c1fddea01daed09ae3ee421643820955a5cee6b")
JSON_SHA256 = (
    "6d9823cd86bb77b49fd44d34ca05750eebdcdfc241fe8281909fa7066b9e0626")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_batch():
    registry = MetricsRegistry()
    traces = []
    cycles = 0
    for number in range(len(TRACE_SHA256)):
        result = run_campaign(
            split_seed(0, number), cpus=1 + number % 2, trace=True,
            metrics=MachineMetrics(registry=registry,
                                   config="c%02d" % number))
        traces.append(_sha256(chrome_trace_json(result.tracer)))
        cycles += result.total_cycles
    registry.clock = lambda: cycles
    return (traces, _sha256(registry.prometheus_text()),
            _sha256(registry.json_snapshot()))


def test_exports_match_the_golden_hashes():
    traces, prometheus, json_doc = run_batch()
    assert traces == list(TRACE_SHA256)
    assert prometheus == PROMETHEUS_SHA256
    assert json_doc == JSON_SHA256
