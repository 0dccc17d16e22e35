"""The shared-state & determinism analyzer (statecheck).

Three layers: classification of the fixture package (constant vs.
cache vs. singleton plus the ordering hazards), the baseline
suppression round-trip, and the dynamic two-machines-in-one-process
determinism property the whole pass exists to protect.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.statecheck import (
    BASELINE_SCHEMA,
    SCHEMA,
    check_shardability,
    load_baseline,
    run_shared_state_check,
    snapshot_shared_state,
    write_baseline,
)

STATEPKG = Path(__file__).parent / "fixtures" / "statepkg"


@pytest.fixture(scope="module")
def fixture_report():
    return check_shardability(root=STATEPKG, package="statepkg",
                              baseline=set())


def _object(report, module, name):
    for obj in report.objects:
        if obj.module == module and obj.name == name:
            return obj
    raise AssertionError("%s.%s not inventoried" % (module, name))


def _rules_for(report, name):
    return {f.rule for f in report.findings if f.key.endswith(name)}


# ---------------------------------------------------------------------------
# Classification on the fixture package
# ---------------------------------------------------------------------------

def test_import_time_registry_is_constant(fixture_report):
    obj = _object(fixture_report, "statepkg.registry", "_TABLE")
    assert obj.classification == "constant"
    assert not _rules_for(fixture_report, "statepkg.registry._TABLE")


def test_plain_mapping_is_constant(fixture_report):
    obj = _object(fixture_report, "statepkg.registry", "LIMITS")
    assert obj.classification == "constant"
    assert obj.mutators == ()


def test_guarded_memo_with_reset_is_clean_cache(fixture_report):
    obj = _object(fixture_report, "statepkg.cache", "_MEMO")
    assert obj.classification == "cache"
    assert obj.has_reset
    assert not _rules_for(fixture_report, "statepkg.cache._MEMO")


def test_cache_without_reset_is_flagged(fixture_report):
    obj = _object(fixture_report, "statepkg.cache", "_NO_RESET")
    assert obj.classification == "cache"
    assert not obj.has_reset
    assert _rules_for(fixture_report, "statepkg.cache._NO_RESET") \
        == {"sc-cache-no-reset"}


def test_runtime_mutated_list_is_singleton(fixture_report):
    obj = _object(fixture_report, "statepkg.singleton",
                  "_ACTIVE_MACHINES")
    assert obj.classification == "singleton"
    assert "statepkg.singleton:register" in obj.mutators
    assert _rules_for(fixture_report,
                      "statepkg.singleton._ACTIVE_MACHINES") \
        == {"sc-singleton"}


def test_global_rebound_counter_is_singleton(fixture_report):
    obj = _object(fixture_report, "statepkg.singleton", "_SEQUENCE")
    assert obj.classification == "singleton"


def test_pragma_suppresses_singleton_finding(fixture_report):
    obj = _object(fixture_report, "statepkg.singleton", "_BLESSED")
    assert obj.classification == "singleton"
    assert not _rules_for(fixture_report, "statepkg.singleton._BLESSED")


def test_cross_module_import_time_append_is_hook_hazard(fixture_report):
    rules = _rules_for(fixture_report, "statepkg.hooks.BOOT_HOOKS")
    assert "sc-import-order-hook" in rules


def test_shared_set_iteration_is_flagged(fixture_report):
    assert _rules_for(fixture_report, "statepkg.hooks._MODES") \
        == {"sc-set-iteration"}


def test_readers_cross_module(fixture_report):
    obj = _object(fixture_report, "statepkg.hooks", "BOOT_HOOKS")
    assert "statepkg.hooks:run_hooks" in obj.readers


# ---------------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------------

def test_baseline_round_trip(tmp_path, fixture_report):
    path = tmp_path / "baseline.json"
    write_baseline(fixture_report.findings, path=path)
    keys = load_baseline(path)
    assert keys == {f.key for f in fixture_report.findings}
    suppressed = check_shardability(root=STATEPKG, package="statepkg",
                                    baseline=keys)
    assert suppressed.new_findings == []
    assert len(suppressed.baselined_findings) \
        == len(fixture_report.findings)


def test_new_violation_escapes_the_baseline(fixture_report):
    keys = {f.key for f in fixture_report.findings
            if f.rule != "sc-singleton"}
    partial = check_shardability(root=STATEPKG, package="statepkg",
                                 baseline=keys)
    new_rules = {f.rule for f in partial.new_findings}
    assert new_rules == {"sc-singleton"}


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == set()


def test_wrong_baseline_schema_is_loud(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "elsewhere/9"}))
    with pytest.raises(ValueError):
        load_baseline(path)


# ---------------------------------------------------------------------------
# The live tree and the CLI
# ---------------------------------------------------------------------------

def test_live_tree_has_no_machine_coupled_singletons():
    report = check_shardability()
    assert report.by_classification("singleton") == []
    assert report.new_findings == []


def test_cost_cache_classified_as_cache_with_reset():
    report = check_shardability()
    for obj in report.objects:
        if obj.key == "repro.workloads.appbench._COST_CACHE":
            assert obj.classification == "cache"
            assert obj.has_reset
            return
    raise AssertionError("_COST_CACHE missing from the inventory")


def test_json_report_schema(tmp_path):
    report = check_shardability()
    document = json.loads(report.to_json())
    assert document["schema"] == SCHEMA
    assert document["summary"]["new_violations"] == 0
    names = {(o["module"], o["name"]) for o in document["objects"]}
    assert ("repro.workloads.appbench", "_COST_CACHE") in names


def test_cli_statecheck_mode(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status = lint_main(["--statecheck",
                        "--statecheck-json", str(out_path)])
    assert status == 0
    out = capsys.readouterr().out
    assert "shardability report" in out
    assert "machine-coupled singleton" in out
    document = json.loads(out_path.read_text())
    assert document["schema"] == SCHEMA


def test_cli_baseline_update_writes_schema(tmp_path, monkeypatch,
                                           capsys):
    import repro.analysis.statecheck as statecheck
    path = tmp_path / "STATECHECK_BASELINE.json"
    monkeypatch.setattr(statecheck, "default_baseline_path",
                        lambda: path)
    status = lint_main(["--statecheck", "--update-statecheck-baseline"])
    assert status == 0
    document = json.loads(path.read_text())
    assert document["schema"] == BASELINE_SCHEMA
    assert document["suppressions"] == []


# ---------------------------------------------------------------------------
# Dynamic counterpart: san-shared-state
# ---------------------------------------------------------------------------

def test_two_machines_are_byte_identical():
    report = run_shared_state_check()
    assert report.checks > 2
    assert report.passed, report.summary()


def test_shared_state_check_detects_a_seeded_mutation():
    from repro.analysis.statecheck import StateObject
    import repro.workloads.appbench as appbench

    appbench.clear_cost_cache()
    poisoned = StateObject(
        module="repro.workloads.appbench", name="_COST_CACHE",
        kind="dict", line=1, path="x", classification="cache",
        readers=(), mutators=())
    live = check_shardability().objects

    class _Trip:
        """Mutates the cache between machine constructions by hooking
        snapshot via a sentinel read."""

    snap = snapshot_shared_state([poisoned])
    assert snap["repro.workloads.appbench._COST_CACHE"] == "{}"
    # Simulate a machine leaking into the shared cache mid-run: mutate
    # between the two scenario runs via a monkeypatched scenario.
    import repro.analysis.sanitizer as sanitizer
    original = sanitizer._metrics_scenario
    state = {"runs": 0}

    def leaking(mode, hypercalls):
        state["runs"] += 1
        if state["runs"] == 2:
            appbench._COST_CACHE[("leak", 1)] = object()
        return original(mode, hypercalls)

    sanitizer._metrics_scenario = leaking
    try:
        report = run_shared_state_check(objects=live)
    finally:
        sanitizer._metrics_scenario = original
        appbench.clear_cost_cache()
    assert not report.passed
    assert any("_COST_CACHE" in f.message for f in report.violations)


def test_metric_exports_identical_across_two_machines():
    from repro.analysis.sanitizer import _metrics_scenario

    _machine_a, metrics_a = _metrics_scenario("neve", 2)
    _machine_b, metrics_b = _metrics_scenario("neve", 2)
    assert metrics_a.registry.json_snapshot() \
        == metrics_b.registry.json_snapshot()
    assert metrics_a.registry.prometheus_text() \
        == metrics_b.registry.prometheus_text()
