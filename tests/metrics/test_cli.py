"""``python -m repro metrics`` and the table-driven top-level CLI."""

import pytest

from repro.__main__ import SUBCOMMANDS, main as repro_main, usage
from repro.metrics import cli


class TestTopLevel:
    def test_usage_generated_from_table(self):
        text = usage()
        for name, _, _ in SUBCOMMANDS:
            assert name in text
        # Historical ordering contract: lint|faults|trace stays a prefix.
        assert "lint|faults|trace|bench|metrics" in text

    def test_help_exits_zero(self, capsys):
        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "bench" in out and "metrics" in out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert repro_main(["no-such-subcommand"]) == 2
        assert "lint|faults|trace" in capsys.readouterr().err

    def test_bench_routed(self, capsys):
        assert repro_main(["bench", "--help"]) == 0
        assert "python -m repro bench" in capsys.readouterr().out

    def test_metrics_routed(self, capsys):
        assert repro_main(["metrics", "--help"]) == 0
        assert "python -m repro metrics" in capsys.readouterr().out


class TestMetricsCli:
    ARGS = ["--config", "neve-nested", "--iterations", "1"]

    def test_prometheus_output(self, capsys):
        assert cli.main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Virtual-cycle timestamp:")
        assert 'repro_traps_total{config="neve-nested"' in out

    def test_json_output(self, capsys):
        import json
        assert cli.main(self.ARGS + ["--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-metrics/1"

    def test_byte_identical_across_runs(self, capsys):
        assert cli.main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert cli.main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        assert cli.main(self.ARGS + ["--out", str(target)]) == 0
        assert target.read_text().startswith("# Virtual-cycle timestamp:")

    def test_rejects_unknown_config(self, capsys):
        assert cli.main(["--config", "no-such"]) == 2

    def test_rejects_unknown_workload(self, capsys):
        assert cli.main(["--workload", "no-such"]) == 2

    def test_rejects_unknown_format(self, capsys):
        assert cli.main(["--format", "xml"]) == 2

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_rejects_bad_iterations_before_any_run(self, value, capsys):
        assert cli.main(["--config", "neve-nested",
                         "--iterations", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--iterations wants a positive integer" in captured.err
