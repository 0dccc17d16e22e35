"""Byte-identical exports and exact reconciliation on every benchmark
config.  That the tracer adds zero cycles is the observer gate's
(tests/trace/test_observers.py)."""

import pytest

from repro.analysis.sanitizer import check_trace_reconciliation
from repro.harness.configs import ALL_CONFIGS
from repro.trace.cli import trace_microbench
from repro.trace.export import chrome_trace_json

ARM_CONFIGS = [name for name, config in ALL_CONFIGS.items()
               if config.platform == "arm"]


def test_same_workload_produces_byte_identical_trace_json():
    first = trace_microbench("neve-nested", "hypercall")[1]
    second = trace_microbench("neve-nested", "hypercall")[1]
    assert (chrome_trace_json(first, label="x")
            == chrome_trace_json(second, label="x"))


@pytest.mark.parametrize("config", ARM_CONFIGS)
@pytest.mark.parametrize("workload", ["hypercall", "virtual_eoi"])
def test_reconciliation_exact_on_every_config(config, workload):
    _suite, tracer = trace_microbench(config, workload)
    recon = tracer.assert_reconciled()
    assert recon.exact
    report = check_trace_reconciliation(tracer)
    assert report.passed and report.checks == 1
