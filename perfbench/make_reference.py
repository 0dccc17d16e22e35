"""Regenerate perfbench/reference.json, the outputs every unit is
checked against.  Run from the repository root::

    python3 perfbench/make_reference.py

* ``sweep``: per-iteration [cycles, traps] of every (config,
  microbenchmark) cell, copied from the committed BENCH_4.json.
* ``campaigns`` and ``fleet``: at the default seed, the digest of every
  campaign in the batch and the fleet's merged digest, computed here with
  telemetry off (telemetry is observe-only, so the digests are the same
  with it on).
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from repro.faults.campaign import run_campaign  # noqa: E402
from repro.faults.plan import split_seed  # noqa: E402
from repro.fleet.merge import reference_merge  # noqa: E402
from repro.fleet.plan import FleetPlan  # noqa: E402


def main():
    bench = json.loads((ROOT / "BENCH_4.json").read_text())
    if bench["iterations"] != workloads.SWEEP_ITERATIONS:
        raise SystemExit("BENCH_4.json ran %d iterations, the sweep runs %d"
                         % (bench["iterations"], workloads.SWEEP_ITERATIONS))
    seed = workloads.DEFAULT_SEED
    reference = {
        "default_seed": seed,
        "sweep": {config: {name: [cell["cycles"], cell["traps"]]
                           for name, cell in cells.items()}
                  for config, cells in bench["results"].items()},
        "campaigns": [run_campaign(split_seed(seed, number),
                                   cpus=workloads.campaign_cpus(number)).digest
                      for number in range(workloads.CAMPAIGNS_PER_BATCH)],
        "fleet": reference_merge(FleetPlan.generate(
            seed, workloads.FLEET_MACHINES)).digest,
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
