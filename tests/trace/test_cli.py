"""``python -m repro trace``: artifacts and Table 7 trap counts."""

import json

import pytest

from repro.trace.cli import main, trace_microbench
from repro.trace.export import trap_stats, validate_chrome_trace
from tests.analysis.test_cli import FIXTURES, SINGLE_PASS


def test_cli_writes_valid_traces_and_exits_zero(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    assert main(["--workload", "hypercall", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "=== neve-nested/hypercall ===" in out
    assert "=== arm-nested/hypercall ===" in out
    assert "exact" in out
    for name in ("neve-nested", "arm-nested"):
        path = out_dir / ("trace-%s-hypercall.json" % name)
        document = json.loads(path.read_text())
        counts = validate_chrome_trace(document)
        assert counts["events"] > 0
        assert document["otherData"]["reconciled"] is True


@pytest.mark.parametrize("args", [["--capacity", "0"],
                                  ["--iterations", "0"],
                                  ["--iterations", "-2"]],
                         ids=["capacity-0", "iterations-0", "iterations-2"])
def test_cli_rejects_bad_counts_before_any_run(tmp_path, capsys, args):
    out_dir = tmp_path / "traces"
    with pytest.raises(SystemExit) as exit_info:
        main(args + ["--out", str(out_dir)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "wants at least 1" in captured.err
    assert not out_dir.exists()


def test_cli_respects_config_selection(tmp_path):
    out_dir = tmp_path / "traces"
    assert main(["--config", "arm-vm", "--out", str(out_dir)]) == 0
    assert (out_dir / "trace-arm-vm-hypercall.json").exists()
    assert not (out_dir / "trace-arm-nested-hypercall.json").exists()


@pytest.mark.parametrize("config,paper", [
    ("neve-nested", 16),  # Table 7: NEVE hypercall
    ("arm-nested", 126),  # Table 7: ARMv8.3 trap-and-emulate hypercall
])
def test_hypercall_tree_matches_table7_exit_multiplication(config, paper):
    suite, tracer = trace_microbench(config, "hypercall")
    stats = trap_stats(tracer)
    tolerance = max(3, round(paper * 0.15))
    assert abs(stats["trap_spans"] - paper) <= tolerance, stats
    assert abs(stats["leaf_traps"] - paper) <= tolerance, stats
    # One trap span per TrapCounter.record: the tree count is the
    # machine's own exit count over the traced window.
    assert stats["trap_spans"] <= suite.machine.traps.total


def test_main_dispatch_routes_all_subcommands(tmp_path, capsys):
    from repro.__main__ import main as repro_main

    assert repro_main(["trace", "--workload", "hypercall", "--config",
                       "neve-nested", "--out",
                       str(tmp_path / "t")]) == 0
    assert repro_main(["faults", "--seeds", "1"]) == 0
    assert repro_main(["lint", *SINGLE_PASS,
                       str(FIXTURES / "clean_module.py")]) == 0
    assert repro_main(["lint", *SINGLE_PASS,
                       str(FIXTURES / "bad_ledger.py")]) == 1
    capsys.readouterr()
    assert repro_main(["no-such-subcommand"]) == 2
    err = capsys.readouterr().err
    assert "lint|faults|trace" in err
