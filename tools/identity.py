"""Named Monte Carlo plans and a short hash of each one's panels.

A change that must leave results as they were compares these hashes before
and after it.  Each plan runs at workers 1 and 2 and prints

    plan workers=W -> sha256(repr(panels))[:12]

and then one ``sha256(repr(panel))[:12]`` per panel label.  The run exits 1
when a plan's panels differ between worker counts.  Hashes are of bits, so
they hold on one host; another BLAS build may change them.

    python tools/identity.py             # every plan
    python tools/identity.py --list      # the plan names
    python tools/identity.py --only criterion-4
"""
from __future__ import annotations

import argparse
import hashlib
import sys

from snnselect.estimator import BandwidthRule
from snnselect.montecarlo import TablePlan, run_table
from snnselect.registry import EstimatorConfig

WORKERS = (1, 2)
_FIVE = [EstimatorConfig(method) for method in ("snn", "ols", "heckman", "h90", "as98")]

# name -> (plan, base seed)
PLANS = {
    # perfbench's mc-dgp2-table at its default seed and at the held-out seed
    "benchmark-seed1": (TablePlan("dgp2", 200, _FIVE, reps=50), 1),
    "benchmark-seed4242": (TablePlan("dgp2", 200, _FIVE, reps=50), 4242),
    # tests/test_acceptance.py's DGP2 table
    "criterion-4": (TablePlan("dgp2", 100, _FIVE, reps=1000), 20260809),
    # CI's dgp2 n=25 table, where every estimator refuses some draws
    "ci-dgp2-n25-failures": (TablePlan(
        "dgp2", 25,
        [EstimatorConfig("snn"), EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.05))]
        + _FIVE[1:],
        rhos=(0.5,), alphas=(2.0, 1.0), reps=30), 0),
    # CI's dgp1 n=100 table, where some draws fit the plug-in's polynomial pilot
    "dgp1-pilot": (TablePlan(
        "dgp1", 100,
        [EstimatorConfig("snn"), EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.3)),
         EstimatorConfig("h90"), EstimatorConfig("as98")],
        rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=40), 0),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the plan names and exit")
    parser.add_argument("--only", choices=PLANS, action="append", help="repeatable")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(PLANS))
        return 0
    status = 0
    for name in args.only or PLANS:
        plan, seed = PLANS[name]
        hashes = set()
        for workers in WORKERS:
            panels = run_table(plan, base_seed=seed, workers=workers).panels
            digest = _digest(panels)
            hashes.add(digest)
            print(f"{name} workers={workers} -> {digest}", flush=True)
        for label, panel in panels.items():
            print(f"  {label} -> {_digest(panel)}")
        if len(hashes) > 1:
            print(f"{name}: panels differ between workers {WORKERS}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
