"""The benchmark-trajectory pipeline (``python -m repro bench``)."""

import dataclasses
import json

import pytest

from repro.harness import bench
from repro.harness.configs import ALL_CONFIGS
from repro.harness.regression import GOLDENS
from repro.metrics.cycles import ARM_COSTS
from repro.metrics.instrument import MachineMetrics
from repro.workloads.microbench import MICROBENCHMARKS

#: A small but cross-platform slice of ALL_CONFIGS, to keep the pipeline
#: tests fast; the committed baseline covers every config.
FAST_CONFIGS = ("arm-vm", "neve-nested", "x86-vm")


@pytest.fixture(scope="module")
def payload():
    return bench.run_bench(iterations=2, configs=FAST_CONFIGS)


class TestRunBench:
    def test_payload_schema_valid(self, payload):
        assert bench.validate_payload(payload) == []

    def test_covers_requested_cells(self, payload):
        assert sorted(payload["results"]) == sorted(FAST_CONFIGS)
        for cells in payload["results"].values():
            assert sorted(cells) == sorted(MICROBENCHMARKS)

    def test_embeds_registry_snapshot(self, payload):
        metrics = payload["metrics"]
        assert metrics["schema"] == "repro-metrics/1"
        assert metrics["virtual_cycles"] > 0
        assert "repro_traps_total" in metrics["metrics"]

    def test_deterministic(self, payload):
        again = bench.run_bench(iterations=2, configs=FAST_CONFIGS)
        assert again == payload

    def test_validate_catches_damage(self, payload):
        broken = json.loads(json.dumps(payload))
        del broken["results"]["arm-vm"]["hypercall"]["cycles"]
        assert any("arm-vm/hypercall" in problem
                   for problem in bench.validate_payload(broken))


class TestTolerances:
    def test_golden_tolerance_reused(self):
        golden = GOLDENS[0]
        assert bench.tolerance_for(golden.config, golden.benchmark,
                                   golden.metric) == golden.rel_tol

    def test_default_tolerance_for_uncovered_cell(self):
        assert bench.tolerance_for("arm-vm", "device_io", "cycles") \
            == bench.DEFAULT_TOLERANCES["cycles"]


class TestDiff:
    def test_self_diff_is_empty(self, payload):
        assert bench.diff_payloads(payload, payload) == []

    def test_perturbed_cost_model_regresses(self, payload):
        bumped = dataclasses.replace(ARM_COSTS, trap_entry=500)
        perturbed = bench.run_bench(iterations=2, configs=FAST_CONFIGS,
                                    arm_costs=bumped)
        regressions = bench.diff_payloads(payload, perturbed)
        assert regressions
        named = {(config, benchmark, metric)
                 for config, benchmark, metric, *_ in regressions}
        assert ("arm-vm", "hypercall", "cycles") in named
        # x86 cells are untouched by an ARM cost perturbation.
        assert not any(config == "x86-vm" for config, *_ in named)

    def test_within_tolerance_is_quiet(self, payload):
        nudged = json.loads(json.dumps(payload))
        cell = nudged["results"]["arm-vm"]["hypercall"]
        cell["cycles"] *= 1.01  # inside the 10% golden tolerance
        assert bench.diff_payloads(payload, nudged) == []


class TestGoldenPayloadCheck:
    def test_clean_payload_passes(self):
        # Goldens demand the calibrated iteration count.
        full = bench.run_bench(iterations=6,
                               configs=("arm-vm", "neve-nested"))
        assert bench.check_golden_payload(full) == []

    def test_regressed_payload_fails(self, payload):
        broken = json.loads(json.dumps(payload))
        broken["results"]["arm-vm"]["hypercall"]["cycles"] *= 2
        failures = bench.check_golden_payload(broken)
        assert any(golden.config == "arm-vm" and golden.metric == "cycles"
                   for golden, _ in failures)


class TestTrajectoryFiles:
    def test_find_trajectory_orders_numerically(self, tmp_path):
        for sequence in (10, 2, 1):
            (tmp_path / ("BENCH_%d.json" % sequence)).write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored
        assert [n for n, _ in bench.find_trajectory(tmp_path)] == [1, 2, 10]

    def test_write_payload_stamps_sequence(self, payload, tmp_path):
        path = bench.write_payload(payload, tmp_path, 3)
        assert path.name == "BENCH_3.json"
        assert json.loads(path.read_text())["sequence"] == 3


class TestMain:
    def _args(self, tmp_path):
        args = ["--dir", str(tmp_path), "--iterations", "2"]
        for name in FAST_CONFIGS:
            args += ["--config", name]
        return args

    def test_first_run_writes_baseline(self, tmp_path, capsys):
        assert bench.main(self._args(tmp_path)) == 0
        document = json.loads((tmp_path / "BENCH_1.json").read_text())
        assert document["sequence"] == 1
        assert "BENCH_1.json" in capsys.readouterr().out

    def test_unchanged_rerun_does_not_extend(self, tmp_path, capsys):
        assert bench.main(self._args(tmp_path)) == 0
        assert bench.main(self._args(tmp_path)) == 0
        assert not (tmp_path / "BENCH_2.json").exists()
        assert "unchanged" in capsys.readouterr().out

    def test_perturbed_cost_model_exits_nonzero(self, tmp_path, capsys):
        assert bench.main(self._args(tmp_path)) == 0
        bumped = dataclasses.replace(ARM_COSTS, trap_entry=500)
        rc = bench.main(self._args(tmp_path), arm_costs=bumped)
        captured = capsys.readouterr()
        assert rc != 0
        # The failure names the regressed metric.
        assert "REGRESSION" in captured.out
        assert "cycles" in captured.out
        # A failing run must not poison the trajectory.
        assert not (tmp_path / "BENCH_2.json").exists()

    def test_metrics_drift_with_same_results_fails(self, tmp_path, capsys,
                                                   monkeypatch):
        """Seeded case: an extra metric family leaves every result cell
        alone but changes the export; the run must fail naming it."""
        assert bench.main(self._args(tmp_path)) == 0
        init = MachineMetrics.__init__

        def with_extra_family(metrics, registry=None, config="default"):
            init(metrics, registry, config)
            metrics.registry.counter("repro_seeded_total", "seeded drift",
                                     ("config",)).labels(config).inc()

        monkeypatch.setattr(MachineMetrics, "__init__", with_extra_family)
        capsys.readouterr()
        assert bench.main(self._args(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "METRICS DRIFT repro_seeded_total" in out
        assert "unchanged" not in out
        assert not (tmp_path / "BENCH_2.json").exists()
        # --force records the intended export change as a new point.
        assert bench.main(self._args(tmp_path) + ["--force"]) == 0
        assert (tmp_path / "BENCH_2.json").exists()

    def test_unknown_config_rejected(self, tmp_path, capsys):
        assert bench.main(["--dir", str(tmp_path),
                           "--config", "no-such"]) == 2
        assert "unknown config" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", "0", "-1"])
    def test_bad_iterations_rejected(self, tmp_path, capsys, value):
        """A non-integer or non-positive count is a usage error, not a
        traceback or a trajectory comparison of an empty run."""
        assert bench.main(["--dir", str(tmp_path),
                           "--iterations", value]) == 2
        captured = capsys.readouterr()
        assert "--iterations" in captured.err
        assert "REGRESSION" not in captured.out
        assert not list(tmp_path.iterdir())

    def test_unknown_flag_rejected(self, capsys):
        assert bench.main(["--frobnicate"]) == 2

    def test_help(self, capsys):
        assert bench.main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


def test_all_configs_known_to_bench():
    """The committed BENCH_1.json baseline covers every config; keep the
    default config list in sync with ALL_CONFIGS."""
    payload_configs = sorted(ALL_CONFIGS)
    assert payload_configs  # sanity
    assert len(payload_configs) == 7
