"""End-to-end parity of the dispatch fast path, per configuration.

For every configuration in ALL_CONFIGS the fast path must leave every
export byte-identical to the classification ladder's: microbench
cells, ledger breakdown, trap reasons, the metrics registry's JSON and
Prometheus text, and the canonical trace serialization.  The metrics
facade and the tracer attach before the machine boots, so the nested
boot is compared as well as the hypercalls; the configurations cover
nv and neve, each with and without a VHE guest hypervisor.
"""

import json

import pytest

from repro.harness.configs import ALL_CONFIGS, arm_arch_for, make_microbench
from repro.hypervisor.kvm import Machine
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry
from repro.trace.export import tracer_payload
from repro.trace.spans import Tracer
from repro.workloads.microbench import ArmMicrobench
from tests.conftest import seed_wrong_verdict

EXPORTS = ("results", "ledger", "traps", "json", "prometheus", "trace")


def _build_suite(name, fastpath, registry):
    """*name*'s suite and its tracer, attached before the machine
    boots; x86 has no dispatch ladder, so no tracer and no fast path."""
    config = ALL_CONFIGS[name]
    if config.platform != "arm":
        return make_microbench(name, registry=registry), None
    machine = Machine(arch=arm_arch_for(config), fastpath=fastpath)
    MachineMetrics(registry, config=name).attach_machine(machine)
    tracer = Tracer().attach_machine(machine)
    suite = ArmMicrobench(machine=machine, nested=config.nested,
                          guest_vhe=config.guest_vhe)
    return suite, tracer


def _run_config(name, fastpath):
    registry = MetricsRegistry()
    suite, tracer = _build_suite(name, fastpath, registry)
    results = suite.run_all()
    machine = suite.machine
    registry.clock = lambda: machine.ledger.total
    trace_json = None
    if tracer is not None:
        tracer.stop()
        trace_json = json.dumps(tracer_payload(tracer), sort_keys=True,
                                separators=(",", ":"))
    return {
        "results": results,
        "ledger": machine.ledger.snapshot(),
        "traps": dict(machine.traps.by_reason),
        "json": registry.json_snapshot(),
        "prometheus": registry.prometheus_text(),
        "trace": trace_json,
        "machine": machine,
    }


def _diverged_exports(name):
    """The exports of *name* that differ between the ladder and the
    fast path, and the fast-path machine."""
    slow = _run_config(name, fastpath=False)
    fast = _run_config(name, fastpath=True)
    return ([key for key in EXPORTS if slow[key] != fast[key]],
            fast["machine"])


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_exports_identical_fastpath_on_vs_off(name):
    diverged, machine = _diverged_exports(name)
    assert not diverged, (
        "%s: %s diverged under the fast path" % (name, ", ".join(diverged)))
    if ALL_CONFIGS[name].platform == "arm":
        assert machine.dispatch is not None
        assert machine.dispatch.resolutions > 0


def test_export_parity_catches_a_wrong_table_action(monkeypatch):
    seed_wrong_verdict(monkeypatch)
    diverged, _machine = _diverged_exports("neve-nested")
    assert "traps" in diverged and "trace" in diverged
