"""Named Monte Carlo plans and a short hash of each one's results.

A change that must leave results as they were compares these hashes before
and after it.  Each plan runs at each of its worker counts and prints

    plan workers=W -> sha256(repr(outcome))[:12]

and then its notes, one line each.  A Monte Carlo plan's outcome is its
panels, run at workers 1, 2 and 8 (as many processes as the usable CPUs
allow), and its notes are one ``sha256(repr(panel))[:12]`` per panel label.
The run exits 1 when a plan's outcome differs between worker counts.

The plan ``one-row`` runs in one process.  It hashes the five public
one-sample estimators over a sweep of simulated draws, the bits of every
field or the failure message of every fit, and notes the count of fits and
of failures.  It imports those estimators from ``snnselect`` alone, so the
same script runs on any tree that exports them.  The plan
``decompose-probit`` hashes the full-sample quantities of a two-group
decomposition under the probit nuisance with the bootstrap SEs and failure
count of B = 20 replicates.  Hashes are of bits, so they hold on one host;
another BLAS build may change them.

    python tools/identity.py             # every plan
    python tools/identity.py --list      # the plan names
    python tools/identity.py --only criterion-4
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Callable, NamedTuple

import numpy as np

from snnselect import (
    BandwidthRule,
    DecompositionConfig,
    DgpSpec,
    EstimationError,
    as98_intercept,
    bootstrap_se,
    decompose,
    h90_intercept,
    heckman_two_step,
    ols_selected,
    simulate,
    snn_intercept,
)
from snnselect.montecarlo import TablePlan, run_table
from snnselect.registry import EstimatorConfig

WORKERS = (1, 2, 8)
_FIVE = [EstimatorConfig(method) for method in ("snn", "ols", "heckman", "h90", "as98")]
_PROBIT = [EstimatorConfig("snn", nuisance="probit"),
           EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.3), nuisance="probit"),
           EstimatorConfig("h90", nuisance="probit"), EstimatorConfig("as98", nuisance="probit"),
           EstimatorConfig("ols")]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


class Plan(NamedTuple):
    run: Callable[[int], tuple]  # workers -> (outcome, notes)
    workers: tuple = WORKERS


def _table(plan: TablePlan, seed: int) -> Plan:
    def run(workers):
        panels = run_table(plan, base_seed=seed, workers=workers).panels
        return panels, [f"{label} -> {_digest(panel)}" for label, panel in panels.items()]

    return Plan(run)


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


def _one_row(workers: int):
    outcomes = list(_one_row_outcomes())
    failed = sum(isinstance(outcome, str) for outcome in outcomes)
    return outcomes, [f"{len(outcomes)} fits, {failed} failed"]


def _decompose(workers: int):
    """The full-sample quantities of two fixed dgp1 groups of 600 rows under
    snn with the probit nuisance, then the SEs and failure count of a
    B = 20 bootstrap on ``workers`` processes."""
    group0 = simulate(DgpSpec("dgp1", 600, rho=0.5, alpha=2.0, theta0=1.0, seed=11)).dataset
    group1 = simulate(DgpSpec("dgp1", 600, rho=0.25, alpha=1.5, theta0=1.4, seed=12)).dataset
    config = DecompositionConfig(EstimatorConfig("snn", nuisance="probit"))
    boot = bootstrap_se(group0, group1, config, n_boot=20, seed=13, workers=workers)
    return (decompose(group0, group1, config).quantities(), dict(boot.ses), boot.n_failed), []


PLANS = {
    # perfbench's mc-dgp2-table at its default seed and at the held-out seed
    "benchmark-seed1": _table(TablePlan("dgp2", 200, _FIVE, reps=50), 1),
    "benchmark-seed4242": _table(TablePlan("dgp2", 200, _FIVE, reps=50), 4242),
    # tests/test_acceptance.py's DGP2 table
    "criterion-4": _table(TablePlan("dgp2", 100, _FIVE, reps=1000), 20260809),
    # dgp2 at n = 25, where every estimator but snn at a fixed h refuses
    # some draws and the plug-in refuses all of them
    "ci-dgp2-n25-failures": _table(TablePlan(
        "dgp2", 25,
        [EstimatorConfig("snn"), EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.05))]
        + _FIVE[1:],
        rhos=(0.5,), alphas=(2.0, 1.0), reps=30), 0),
    # dgp1 at n = 100, where some draws fit the plug-in's polynomial pilot
    "dgp1-pilot": _table(TablePlan(
        "dgp1", 100,
        [EstimatorConfig("snn"), EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.3)),
         EstimatorConfig("h90"), EstimatorConfig("as98")],
        rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=40), 0),
    # the probit nuisance fitted once per draw and shared by four configs,
    # where a draw whose probit fails fails every one of them
    "dgp2-probit-nuisance": _table(TablePlan(
        "dgp2", 100, _PROBIT, rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=40), 0),
    # the same at n = 800, where far-tail rows sit alone in the smoother's
    # windows
    "dgp2-probit-n800": _table(TablePlan(
        "dgp2", 800, _PROBIT, rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=40), 0),
    # dgp1 at n = 40, where every draw's window at a fixed h of 0.01 or
    # 0.001 holds one rank and widens before it fits
    "widening": _table(TablePlan(
        "dgp1", 40,
        [EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.01)),
         EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.001)), EstimatorConfig("snn")],
        rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=40), 0),
    # the Klein-Spady nuisance fitted once per draw and shared by snn and
    # h90, where a draw whose fit fails fails both
    "dgp2-ks-nuisance": _table(TablePlan(
        "dgp2", 1000,
        [EstimatorConfig("snn", nuisance="klein_spady"), EstimatorConfig("h90", nuisance="klein_spady")],
        rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=10), 0),
    # dgp1 at an odd n, so each draw's Box-Muller ends mid-pair, with a
    # probit nuisance fitted on its table rows (at a fixed h, since the
    # panel label of snn omits the nuisance)
    "dgp1-odd-n": _table(TablePlan(
        "dgp1", 101,
        _FIVE + [EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.3), nuisance="probit")],
        rhos=(0.0, 0.95), alphas=(2.0, 1.0), reps=40), 0),
    "one-row": Plan(_one_row, (1,)),
    "decompose-probit": Plan(_decompose),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the plan names and exit")
    parser.add_argument("--only", choices=list(PLANS), action="append", help="repeatable")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(PLANS))
        return 0
    status = 0
    for name in args.only or PLANS:
        plan = PLANS[name]
        hashes = set()
        for workers in plan.workers:
            outcome, notes = plan.run(workers)
            digest = _digest(outcome)
            hashes.add(digest)
            print(f"{name} workers={workers} -> {digest}", flush=True)
        for note in notes:
            print(f"  {note}")
        if len(hashes) > 1:
            print(f"{name}: results differ between workers {plan.workers}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
