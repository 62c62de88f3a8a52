"""Named Monte Carlo plans and a short hash of each one's panels.

A change that must leave results as they were compares these hashes before
and after it.  Each plan runs at workers 1 and 2 and prints

    plan workers=W -> sha256(repr(panels))[:12]

and then one ``sha256(repr(panel))[:12]`` per panel label.  The run exits 1
when a plan's panels differ between worker counts.  The plan ``one-row``
instead hashes the five public one-sample estimators over a sweep of
simulated draws, the bits of every field or the failure message of every
fit, and prints one line

    one-row -> sha256(repr(outcomes))[:12] (F fits, E failed)

It imports those estimators from ``snnselect`` alone, so the same script
runs on any tree that exports them.  Hashes are of bits, so they hold on
one host; another BLAS build may change them.

    python tools/identity.py             # every plan
    python tools/identity.py --list      # the plan names
    python tools/identity.py --only criterion-4
"""
from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from snnselect import (
    BandwidthRule,
    DgpSpec,
    EstimationError,
    as98_intercept,
    h90_intercept,
    heckman_two_step,
    ols_selected,
    simulate,
    snn_intercept,
)
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


ONE_ROW = "one-row"
NAMES = [*PLANS, ONE_ROW]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def _one_row_outcomes():
    """Each public estimator on each draw of dgp1 and dgp2 at n = 30 to 400:
    the bytes of every field of its result, or its failure message."""
    for family in ("dgp1", "dgp2"):
        for n in (30, 50, 100, 200, 400):
            for seed in range(75):
                draw = simulate(DgpSpec(family, n, rho=(0.0, 0.5, 0.95)[seed % 3],
                                        alpha=(2.0, 1.0)[seed // 3 % 2], seed=seed))
                data, beta, gamma = draw.dataset, draw.beta0, draw.gamma0
                for call in (lambda: snn_intercept(data, beta, gamma),
                             lambda: snn_intercept(data, beta, gamma, kernel_order=4),
                             lambda: snn_intercept(data, beta, gamma, rule=BandwidthRule.fixed(0.1)),
                             lambda: h90_intercept(data, beta, gamma),
                             lambda: as98_intercept(data, beta, gamma),
                             lambda: ols_selected(data),
                             lambda: heckman_two_step(data)):
                    try:
                        yield tuple(np.asarray(field, dtype=float).tobytes() for field in call())
                    except EstimationError as exc:
                        yield str(exc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the plan names and exit")
    parser.add_argument("--only", choices=NAMES, action="append", help="repeatable")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(NAMES))
        return 0
    status = 0
    for name in args.only or NAMES:
        if name == ONE_ROW:
            outcomes = list(_one_row_outcomes())
            failed = sum(isinstance(outcome, str) for outcome in outcomes)
            print(f"{name} -> {_digest(outcomes)} ({len(outcomes)} fits, {failed} failed)", flush=True)
            continue
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
