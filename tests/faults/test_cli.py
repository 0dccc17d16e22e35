"""The ``python -m repro faults`` entry point."""

import pytest

from repro.faults.cli import main


def test_clean_campaigns_exit_zero(capsys):
    assert main(["--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "2/2 campaigns clean" in out
    assert "fault class" in out  # the aggregate table header


def test_seed_base_shifts_the_sweep(capsys):
    assert main(["--seeds", "1", "--seed-base", "5"]) == 0
    out = capsys.readouterr().out
    assert "seed    5" in out


def test_verbose_prints_per_fault_outcomes(capsys):
    assert main(["--seeds", "1", "-v"]) == 0
    out = capsys.readouterr().out
    assert "@" in out and "(" in out  # outcome rows are present


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--seeds", "-1"],
                                  ["--cpus", "0"]],
                         ids=["seeds-0", "seeds-negative", "cpus-0"])
def test_empty_runs_are_usage_errors(argv, capsys, monkeypatch):
    def no_campaign(*args, **kwargs):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr("repro.faults.cli.run_campaign", no_campaign)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[0] in err
