"""Merge determinism: the fold must be blind to scheduling history.

These tests run the campaigns in-process (no worker processes) — the
fold itself is what is under test; the supervised end-to-end runs live
in test_supervisor.py.
"""

import itertools

import pytest

from repro.fleet.merge import merge_payloads, reference_merge
from repro.fleet.plan import FleetPlan
from repro.fleet.worker import machine_label, payload_checksum, run_shard
from repro.metrics.registry import MetricsRegistry

MACHINES = 4


@pytest.fixture(scope="module")
def payloads():
    plan = FleetPlan.generate(0, MACHINES, shard_size=1)
    out = []
    for shard in plan.shards:
        records, document, _ = run_shard(shard)
        out.append((shard.shard_id, records, document, None))
    return out


def test_every_payload_order_merges_byte_identically(payloads):
    baseline = merge_payloads(payloads)
    for order in itertools.permutations(payloads):
        merge = merge_payloads(list(order))
        assert merge.digest == baseline.digest
        assert merge.prometheus_text() == baseline.prometheus_text()
        assert merge.json_snapshot() == baseline.json_snapshot()


def test_merge_matches_sequential_reference(payloads):
    plan = FleetPlan.generate(0, MACHINES, shard_size=1)
    reference = reference_merge(plan)
    merged = merge_payloads(list(reversed(payloads)))
    assert merged.digest == reference.digest
    assert merged.prometheus_text() == reference.prometheus_text()
    assert merged.json_snapshot() == reference.json_snapshot()


def test_sharding_layout_does_not_change_the_merge():
    # 4 machines as 4 shards of 1 vs 2 shards of 2: same machines, same
    # merged bytes.
    fine = reference_merge(FleetPlan.generate(0, MACHINES, shard_size=1))
    coarse = reference_merge(FleetPlan.generate(0, MACHINES,
                                                shard_size=2))
    assert fine.digest == coarse.digest
    assert fine.prometheus_text() == coarse.prometheus_text()
    assert fine.json_snapshot() == coarse.json_snapshot()


def test_partial_merge_is_a_restriction_not_a_rescale(payloads):
    subset = [p for p in payloads if p[0] != 2]
    merged = merge_payloads(subset)
    assert merged.machine_count == MACHINES - 1
    assert all(r["machine"] != 2 for r in merged.records)
    plan = FleetPlan.generate(0, MACHINES, shard_size=1)
    reference = reference_merge(plan, shard_ids=[0, 1, 3])
    assert merged.prometheus_text() == reference.prometheus_text()


def test_duplicate_machines_refuse_to_merge(payloads):
    with pytest.raises(ValueError, match="duplicate machine"):
        merge_payloads([payloads[0], payloads[0]])


def test_rollup_families_account_for_every_machine(payloads):
    merge = merge_payloads(payloads)
    registry = merge.registry
    machines = registry.get("repro_fleet_machines_total")
    assert machines.total() == MACHINES
    traps = registry.get("repro_fleet_traps_total")
    assert traps.total() == sum(r["traps"] for r in merge.records)
    cycles = registry.get("repro_fleet_cycles_total")
    assert cycles.total() == sum(r["cycles"] for r in merge.records)
    hist = registry.get("repro_fleet_machine_cycles").labels()
    assert hist.count == MACHINES


def test_merged_export_carries_per_machine_labels(payloads):
    merge = merge_payloads(payloads)
    text = merge.prometheus_text()
    for index in range(MACHINES):
        assert 'config="%s"' % machine_label(index) in text


def test_checksum_is_order_sensitive_and_content_sensitive(payloads):
    _, records, document, _ = payloads[0]
    good = payload_checksum(records, document)
    assert good == payload_checksum(records, document)
    tampered = [dict(records[0], digest="0" * 64)]
    assert payload_checksum(tampered, document) != good


def test_registry_merge_snapshot_adds_counters_and_histograms():
    a = MetricsRegistry()
    counter = a.counter("m_total", "h", ("k",))
    counter.labels("x").inc(3)
    hist = a.histogram("m_cycles", "h", ("k",), buckets=(10, 100))
    hist.labels("x").observe(5)
    hist.labels("x").observe(50)
    import json
    document = json.loads(a.json_snapshot())

    b = MetricsRegistry()
    b.merge_snapshot(document)
    b.merge_snapshot(document)
    assert b.get("m_total").labels("x").value == 6
    child = b.get("m_cycles").labels("x")
    assert child.count == 4
    assert child.sum == 110
    assert child.counts == [2, 4, 4]  # cumulative buckets, doubled


def test_registry_merge_snapshot_rejects_schema_drift():
    a = MetricsRegistry()
    a.counter("m_total", "h", ("k",)).labels("x").inc()
    import json
    document = json.loads(a.json_snapshot())
    b = MetricsRegistry()
    b.gauge("m_total", "h", ("k",))
    with pytest.raises(ValueError, match="different schema"):
        b.merge_snapshot(document)
