"""``python -m repro lint`` exit codes and output."""

from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"
#: Flags that leave only the AST lint running, for single-fixture tests.
SINGLE_PASS = ["--no-sanitize", "--no-spec", "--no-metrics", "--no-docs",
               "--no-fleet", "--no-statecheck"]


def test_clean_tree_exits_zero(capsys):
    assert lint_main([]) == 0
    out = capsys.readouterr().out
    assert "repro lint: clean" in out
    assert "sanitizer" in out


@pytest.mark.parametrize("fixture", ["bad_sysreg_bypass.py",
                                     "bad_nondeterminism.py",
                                     "bad_ledger.py"])
def test_each_seeded_fixture_fails(fixture, capsys):
    status = lint_main(SINGLE_PASS + [str(FIXTURES / fixture)])
    assert status == 1
    out = capsys.readouterr().out
    assert fixture in out


def test_clean_fixture_passes(capsys):
    status = lint_main(SINGLE_PASS + [str(FIXTURES / "clean_module.py")])
    assert status == 0
    assert "lint: 0" in capsys.readouterr().out


def test_findings_are_printed_with_location(capsys):
    lint_main(SINGLE_PASS + [str(FIXTURES / "bad_ledger.py")])
    out = capsys.readouterr().out
    assert "bad_ledger.py:" in out
    assert "sim-ledger-bypass" in out


def test_missing_path_is_a_clean_usage_error(capsys):
    status = lint_main(["/no/such/path.py"])
    assert status == 2
    err = capsys.readouterr().err
    assert "no such file or directory" in err
    assert "/no/such/path.py" in err


def test_module_dispatch_to_lint(capsys):
    assert repro_main(["lint", "--no-sanitize", "-q"]) == 0
    assert capsys.readouterr().out == ""


def test_module_rejects_unknown_command(capsys):
    assert repro_main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err
