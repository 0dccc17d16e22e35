"""MachineMetrics: migration parity, zero added cycles, determinism."""

from types import SimpleNamespace

import pytest

from repro.analysis.sanitizer import (check_metrics_ledger,
                                      check_metrics_reconcile,
                                      run_metrics_checks)
from repro.harness.configs import ALL_CONFIGS, make_microbench
from repro.metrics.counters import (ExitReason, RecoveryCounter,
                                    RecoveryEvent, TrapCounter)
from repro.metrics.cycles import CycleLedger
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry, _Mirror

ARM_CONFIGS = sorted(name for name, config in ALL_CONFIGS.items()
                     if config.platform == "arm")


def _run_suite(name, registry=None, iterations=3):
    suite = make_microbench(name, registry=registry)
    suite.run("hypercall", iterations)
    return suite


class TestMigrationParity:
    """The registry mirrors equal the legacy counters they replaced."""

    @pytest.mark.parametrize("name", ARM_CONFIGS)
    def test_trap_counter_parity(self, name):
        registry = MetricsRegistry()
        suite = _run_suite(name, registry)
        machine = suite.machine
        traps = registry.get("repro_traps_total")
        assert traps.total() == machine.traps.total
        for reason, count in machine.traps.by_reason.items():
            assert traps.labels(name, reason).value == count

    @pytest.mark.parametrize("name", ARM_CONFIGS)
    def test_cycle_ledger_parity(self, name):
        registry = MetricsRegistry()
        suite = _run_suite(name, registry)
        machine = suite.machine
        cycles = registry.get("repro_cycles_total")
        assert cycles.total() == machine.ledger.total
        for category, count in machine.ledger.by_category.items():
            assert cycles.labels(name, category).value == count

    def test_x86_parity(self):
        registry = MetricsRegistry()
        suite = _run_suite("x86-nested", registry)
        machine = suite.machine
        assert registry.get("repro_traps_total").total() \
            == machine.traps.total
        assert registry.get("repro_cycles_total").total() \
            == machine.ledger.total

    def test_sanitizer_reconcile_check(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        report = check_metrics_reconcile(suite.machine,
                                         suite.machine.metrics)
        assert report.passed
        assert report.checks > 4

    def test_recovery_counter_sink(self):
        """The recovery mirror reads the machine's RecoveryCounter when
        the registry is read, counting only what moved since attach."""
        metrics = MachineMetrics(config="test")
        counter = RecoveryCounter()
        counter.record(RecoveryEvent.REPLAY)  # before attach: not ours
        machine = SimpleNamespace(ledger=CycleLedger(), traps=TrapCounter(),
                                  recoveries=counter, cpus=[])
        metrics.attach_machine(machine)
        counter.record(RecoveryEvent.VNCR_RESYNC)
        counter.record(RecoveryEvent.VNCR_RESYNC)
        counter.record(RecoveryEvent.REPLAY)
        family = metrics.registry.get("repro_recoveries_total")
        assert family.total() == counter.total - 1 == 3
        assert family.labels("test", RecoveryEvent.VNCR_RESYNC).value == 2
        assert family.labels("test", RecoveryEvent.REPLAY).value == 1

    def test_reconcile_catches_a_mirror_that_drops_a_reason(
            self, monkeypatch):
        """Seeded violation: a mirror that loses one exit reason fails
        the check, and the check adds no series to the export."""
        pull = _Mirror.pull

        def lossy(mirror, family):
            source = mirror.source
            mirror.source = {key: count for key, count in source.items()
                             if key is not ExitReason.ERET_TRAP}
            try:
                pull(mirror, family)
            finally:
                mirror.source = source

        monkeypatch.setattr(_Mirror, "pull", lossy)
        registry = MetricsRegistry()
        machine = _run_suite("neve-nested", registry).machine
        assert machine.traps.count(ExitReason.ERET_TRAP) > 0
        before = registry.prometheus_text()
        report = check_metrics_reconcile(machine, machine.metrics)
        assert not report.passed
        assert any("for eret" in violation.message
                   for violation in report.violations)
        assert registry.prometheus_text() == before
        assert ('repro_traps_total{config="neve-nested",reason="eret"}'
                not in before)

    def test_reconcile_reads_only_its_own_config_on_a_shared_registry(
            self):
        """Two configs in one registry: each machine reconciles against
        its own config's series, not the whole family."""
        registry = MetricsRegistry()
        suites = [_run_suite(name, registry, iterations=1)
                  for name in ("arm-nested", "neve-nested")]
        for suite in suites:
            machine = suite.machine
            report = check_metrics_reconcile(machine, machine.metrics)
            assert report.passed, [violation.message
                                   for violation in report.violations]
        assert registry.get("repro_traps_total").total() \
            == sum(suite.machine.traps.total for suite in suites)

    def test_reconcile_records_a_missing_family(self):
        """A registry without the mirror families is two violations,
        not an AttributeError."""
        machine = _run_suite("neve-nested").machine
        bare = SimpleNamespace(registry=MetricsRegistry(), config="x")
        report = check_metrics_reconcile(machine, bare)
        assert not report.passed
        assert sorted(violation.message for violation in report.violations) \
            == ["mirror family repro_cycles_total is missing",
                "mirror family repro_traps_total is missing"]


class TestZeroCost:
    """Telemetry must be free in simulated time."""

    @pytest.mark.parametrize("name", ["arm-nested", "neve-nested"])
    def test_metrics_add_zero_cycles(self, name):
        bare = _run_suite(name)
        metered = _run_suite(name, MetricsRegistry())
        assert metered.machine.ledger.total == bare.machine.ledger.total
        assert metered.machine.traps.total == bare.machine.traps.total
        assert metered.machine.ledger.by_category \
            == bare.machine.ledger.by_category

    def test_export_charges_nothing(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        mark = suite.machine.ledger.total
        registry.prometheus_text()
        registry.json_snapshot()
        assert suite.machine.ledger.total == mark

    def test_sanitizer_ledger_check(self):
        report = check_metrics_ledger(hypercalls=1)
        assert report.passed

    def test_run_metrics_checks_clean(self):
        report = run_metrics_checks(hypercalls=1)
        assert report.passed
        assert report.checks > 10


class TestDeterminism:
    """Byte-identical exports for the same seeded scenario."""

    def _export(self, fmt):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        registry.clock = lambda: suite.machine.ledger.total
        if fmt == "json":
            return registry.json_snapshot()
        return registry.prometheus_text()

    def test_prometheus_byte_identical(self):
        assert self._export("prom") == self._export("prom")

    def test_json_byte_identical(self):
        assert self._export("json") == self._export("json")


class TestHotLayerSignals:
    """The gauges/histograms threaded through the hot layers fire."""

    def _metered(self, name):
        registry = MetricsRegistry()
        suite = _run_suite(name, registry)
        return suite, registry

    def test_vncr_deferred_counter_neve_only(self):
        _, neve_reg = self._metered("neve-nested")
        deferred = neve_reg.get("repro_vncr_deferred_total")
        assert deferred.total() > 0
        _, nv_reg = self._metered("arm-nested")
        assert nv_reg.get("repro_vncr_deferred_total").total() == 0

    def test_trap_cycles_histogram_covers_traps(self):
        suite, registry = self._metered("arm-nested")
        histogram = registry.get("repro_trap_cycles")
        observed = sum(child.count for child in histogram.children())
        assert observed == suite.machine.traps.total

    def test_nesting_depth_gauge(self):
        suite, registry = self._metered("neve-nested")
        depth = registry.get("repro_nesting_depth")
        # The nested VM was running last: depth 2 on the booted vcpus.
        values = {child.label_values: child.value
                  for child in depth.children()}
        assert values[("neve-nested", "0")] == 2

    def test_phase_cycles_histogram_populated(self):
        _, registry = self._metered("arm-nested")
        phases = registry.get("repro_phase_cycles")
        names = {child.label_values[1] for child in phases.children()}
        assert "l0.forward_to_vel2" in names
        assert "ws.vgic_save" in names
        assert "l1.handle_vm_exit" in names

    def test_vel2_exit_counter(self):
        _, registry = self._metered("arm-nested")
        assert registry.get("repro_vel2_exits_total").total() > 0

    def test_vgic_used_lrs_gauge_exists(self):
        _, registry = self._metered("arm-nested")
        assert registry.get("repro_vgic_used_lrs").children()

    def test_detach_restores_bare_machine(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        machine = suite.machine
        machine.ledger.charge(7, "late")  # never read before the detach
        machine.metrics.detach_machine(machine)
        assert machine.metrics is None
        assert all(cpu.metrics is None for cpu in machine.cpus)
        cycles = registry.get("repro_cycles_total")
        traps = registry.get("repro_traps_total")
        # Detaching folded the last movement, then stopped reading.
        assert cycles.total() == machine.ledger.total
        assert traps.total() == machine.traps.total
        before = (cycles.total(), traps.total())
        suite.run("hypercall", 1)
        assert (cycles.total(), traps.total()) == before
