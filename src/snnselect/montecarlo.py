"""Deterministic, parallelizable Monte Carlo harness.

Replication seeds are derived by hashing (base seed, cell label, replication
index), so reports are bitwise identical regardless of how replications are
scheduled across workers.  The cell label deliberately excludes the
estimator: every estimator in a table panel sees the same draws, which makes
cross-estimator comparisons common-random-number comparisons.

Estimators are ``registry.EstimatorConfig`` records, and ``run_cell``,
``run_table`` and ``rate_check`` take nothing else; each is one dispatch of
its cells.  The engine is cell-major: each draw is made once and every
estimator of its cell runs on it, and the reps of all cells go as
contiguous chunks to one ``seeding.run_tasks`` call, whose ``workers``
processes count the caller as one.  A chunk runs in blocks of
draws, each drawn as one stack (``dgp._draw_rows``), and each estimator
runs over a whole ``registry.Block`` in one ``registry.fit_thetas`` call,
the block fit that ``registry.fit`` runs on one dataset.  A draw whose fit
fails is NaN in its row and counts as a failed rep.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import dgp
from .dgp import DgpSpec
from .estimator import BandwidthRule, undersmoothing_bandwidth
from .exceptions import EstimationError
from .registry import Block, EstimatorConfig, fit_thetas
from .seeding import derive_seed, processes, run_tasks

__all__ = [
    "CellStats",
    "MonteCarloReport",
    "RateCheckResult",
    "derive_seed",
    "run_cell",
    "run_table",
    "rate_check",
    "DEFAULT_RHOS",
    "DEFAULT_ALPHAS",
]

DEFAULT_RHOS = (0.0, 0.25, 0.50, 0.75, 0.95)
DEFAULT_ALPHAS = (2.00, 1.50, 1.25, 1.00)
# A block of draws holds at most this many rows (at least one draw), which
# bounds the memory of the stacked probit and of the stacked least squares
# of OLS and the second stage at any n.  No estimate depends on how the
# draws are blocked.
_BLOCK_ROWS = 2 ** 16


@dataclass(frozen=True)
class CellStats:
    sq_bias: float
    sd: float
    rmse_scaled: float  # sqrt(n) * RMSE
    reps_ok: int
    reps_failed: int


@dataclass(frozen=True)
class MonteCarloReport:
    family: str
    n: int
    reps: int
    base_seed: int
    rhos: tuple
    alphas: tuple
    panels: Mapping[str, Mapping[tuple, CellStats]]  # label -> (rho, alpha) -> stats

    def to_json(self) -> str:
        """Strict JSON: a cell where every rep failed has null statistics."""
        payload = {
            "family": self.family,
            "n": self.n,
            "reps": self.reps,
            "base_seed": self.base_seed,
            "rhos": list(self.rhos),
            "alphas": list(self.alphas),
            "panels": {
                label: [{"rho": rho, "alpha": alpha, **_json_stats(st)} for (rho, alpha), st in cells.items()]
                for label, cells in self.panels.items()
            },
        }
        return json.dumps(payload, indent=2, allow_nan=False)

    def _rows(self, cells):
        """Text rows of one panel: rho, then (sq bias, sd, rmse) per alpha."""
        for rho in self.rhos:
            row = [f"{rho:g}"]
            for a in self.alphas:
                st = cells[(rho, a)]
                if st.reps_ok == 0:
                    row += ["failed"] * 3
                else:
                    row += [f"{st.sq_bias:.4f}", f"{st.sd:.4f}", f"{st.rmse_scaled:.4f}"]
            yield row

    def to_csv(self) -> str:
        """One row per rho, per-alpha column triplets, one block per panel."""
        lines = [f"# family={self.family} n={self.n} reps={self.reps} seed={self.base_seed}"]
        header = ",".join(
            ["rho"] + [f"{col}(a={a:g})" for a in self.alphas for col in ("sq_bias", "sd", "rmse_scaled")]
        )
        for label, cells in self.panels.items():
            lines += [f"# panel: {label}", header]
            lines += [",".join(row) for row in self._rows(cells)]
            fails = sum(st.reps_failed for st in cells.values())
            if fails:
                lines.append(f"# panel failures: {fails} replication(s) across cells")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [f"**{self.family}, n={self.n}, {self.reps} replications** (seed {self.base_seed})", ""]
        header = ["rho"] + [f"a={a:g} {col}" for a in self.alphas for col in ("sq bias", "sd", "rmse")]
        for label, cells in self.panels.items():
            lines += [f"*{label}*", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
            lines += ["| " + " | ".join(row) + " |" for row in self._rows(cells)]
            lines.append("")
        return "\n".join(lines)


def _json_stats(st: CellStats) -> dict:
    """A cell's JSON fields: null statistics where every rep failed."""
    fields = asdict(st)
    if st.reps_ok == 0:
        fields.update(sq_bias=None, sd=None, rmse_scaled=None)
    return fields


def _repeated(values) -> list:
    """The values that occur more than once, each once, in first-seen order."""
    values = list(values)
    return [v for v in dict.fromkeys(values) if values.count(v) > 1]


def _cell_label(spec: DgpSpec) -> str:
    return f"{spec.family}:n={spec.n}:rho={spec.rho:.6g}:alpha={spec.alpha:.6g}"


def _run_chunk(task):
    """Draw reps [start, stop) of one cell, each once, and run every
    estimator on each draw.  Returns the (estimators, reps) array of
    estimates in rep order, NaN where a fit raised EstimationError.

    The reps run in blocks of at most ``_BLOCK_ROWS`` rows.  Each block is
    drawn in one ``dgp._draw_rows`` call, and each estimator runs over the
    whole block in one ``fit_thetas`` call.  The configs of a draw share
    one nuisance fit per gamma method; when that fit fails, every config
    that uses it counts the rep as failed.
    """
    spec, estimators, base_seed, start, stop = task
    label = _cell_label(spec)
    per_block = max(1, _BLOCK_ROWS // spec.n)
    out = np.full((len(estimators), stop - start), math.nan)
    for lo in range(start, stop, per_block):
        reps = range(lo, min(lo + per_block, stop))
        draws = dgp._draw_rows(spec, [derive_seed(base_seed, label, rep) for rep in reps])
        block = Block.stacked(draws.d, draws.y, draws.X, draws.Z,
                              [(draws.beta0, draws.gamma0)] * len(reps))
        for e, est in enumerate(estimators):
            out[e, lo - start:lo - start + len(reps)] = fit_thetas(block, est)
    return out


def _collect(values: np.ndarray, theta0: float, n: int) -> CellStats:
    """CellStats of one estimator's per-rep estimates; NaN marks a failed rep
    (``registry.fit_thetas`` gives no other non-finite theta)."""
    vals = values[~np.isnan(values)]
    failed = values.size - vals.size
    if vals.size == 0:
        return CellStats(math.nan, math.nan, math.nan, 0, failed)
    mean = float(vals.mean())
    sq_bias = (mean - theta0) ** 2
    sd = float(np.sqrt(np.mean((vals - mean) ** 2)))
    rmse_scaled = math.sqrt(n) * math.sqrt(sq_bias + sd * sd)
    return CellStats(sq_bias, sd, rmse_scaled, int(vals.size), failed)


def _run_cells(cells, reps, base_seed, workers):
    """CellStats of every (spec, estimators) cell, as ``stats[cell][estimator]``.

    Each cell's reps are split into contiguous chunks, about 4 tasks per
    process used over all cells (``seeding.processes``: ``workers``, capped
    at the usable CPUs), and all chunks go to one ``seeding.run_tasks`` call.
    The caller is one of its processes, so nothing is forked when
    ``workers`` is 1.
    """
    if reps < 2:
        raise ValueError("need at least 2 replications")
    per_cell = min(reps, -(-4 * processes(workers) // len(cells)))
    tasks = [
        (spec, tuple(estimators), base_seed, int(c[0]), int(c[-1]) + 1)
        for spec, estimators in cells
        for c in np.array_split(np.arange(reps), per_cell)
    ]
    chunks = run_tasks(_run_chunk, tasks, workers)
    return [
        [_collect(row, spec.theta0, spec.n)
         for row in np.hstack(chunks[c * per_cell:(c + 1) * per_cell])]
        for c, (spec, _) in enumerate(cells)
    ]


def run_cell(
    spec: DgpSpec,
    estimator: EstimatorConfig,
    reps: int,
    base_seed: int,
    workers: int = 1,
) -> CellStats:
    """Monte Carlo statistics of one estimator on one (rho, alpha) cell.

    Failures (EstimationError) are counted, not propagated; the aggregation
    order is fixed by replication index, so results do not depend on worker
    scheduling.
    """
    return _run_cells([(spec, [estimator])], reps, base_seed, workers)[0][0]


@dataclass(frozen=True)
class TablePlan:
    family: str
    n: int
    estimators: Sequence[EstimatorConfig]
    rhos: Sequence[float] = DEFAULT_RHOS
    alphas: Sequence[float] = DEFAULT_ALPHAS
    reps: int = 1000

    def __post_init__(self) -> None:
        if not self.estimators or not self.rhos or not self.alphas:
            raise ValueError("table plan must be nonempty")
        # cells are keyed by (rho, alpha), so a repeated value would be
        # simulated again and then overwrite its twin's cell
        for name, values in (("rho", self.rhos), ("alpha", self.alphas)):
            repeated = _repeated(values)
            if repeated:
                raise ValueError(f"repeated {name}: {', '.join(f'{v:g}' for v in repeated)}")
        # The report keys its panels by label, so configs that share one
        # (say, differing only in nuisance or kernel order) would overwrite
        # each other's panel.
        shared = _repeated(config.label for config in self.estimators)
        if shared:
            raise ValueError(f"estimators share a panel label: {', '.join(map(repr, shared))}")


def run_table(plan: TablePlan, base_seed: int, workers: int = 1) -> MonteCarloReport:
    """Compute every cell of the plan; deterministic for fixed base_seed.

    Cell-major: each draw is made once and every estimator of the plan
    runs on it; the whole table is one ``seeding.run_tasks`` dispatch.
    """
    keys = [(rho, alpha) for rho in plan.rhos for alpha in plan.alphas]
    cells = [(DgpSpec(plan.family, plan.n, rho=rho, alpha=alpha), plan.estimators)
             for rho, alpha in keys]
    stats = _run_cells(cells, plan.reps, base_seed, workers)
    panels = {
        config.label: {key: stats[c][e] for c, key in enumerate(keys)}
        for e, config in enumerate(plan.estimators)
    }
    return MonteCarloReport(
        family=plan.family,
        n=plan.n,
        reps=plan.reps,
        base_seed=base_seed,
        rhos=tuple(plan.rhos),
        alphas=tuple(plan.alphas),
        panels=panels,
    )


@dataclass(frozen=True)
class RateCheckResult:
    slope: float
    ns: tuple
    rmse: tuple


def rate_check(
    ns: Sequence[int],
    spec_template: DgpSpec,
    estimator: EstimatorConfig,
    c: float = 0.5,
    reps: int = 400,
    base_seed: int = 0,
    workers: int = 1,
) -> RateCheckResult:
    """Least-squares slope of log RMSE on log n under the rate-optimal
    bandwidth schedule h_n = c * n^(-1/(2p+1)).

    For snn the bandwidth is re-derived at each n; every other method keeps
    its own tuning.  Needs at least 3 distinct sample sizes, none repeated.
    All sizes are one dispatch, as a table is.
    """
    ns = sorted(int(n) for n in ns)
    if len(set(ns)) < 3:
        raise ValueError("need at least 3 distinct sample sizes")
    # a repeated size would enter the log-log fit twice
    repeated = _repeated(ns)
    if repeated:
        raise ValueError(f"repeated sample size: {', '.join(map(str, repeated))}")
    cells = []
    for n in ns:
        est = estimator
        if estimator.method == "snn":
            h = undersmoothing_bandwidth(n, estimator.kernel_order, c)
            est = replace(estimator, bandwidth=BandwidthRule.fixed(h))
        cells.append((replace(spec_template, n=n), [est]))
    stats = [cell[0] for cell in _run_cells(cells, reps, base_seed, workers)]
    for n, st in zip(ns, stats):
        if st.reps_ok == 0:
            raise EstimationError(f"rate check cell n={n} failed entirely")
    rmses = [math.sqrt(st.sq_bias + st.sd**2) for st in stats]
    logn = np.log(np.asarray(ns, dtype=float))
    logr = np.log(np.asarray(rmses, dtype=float))
    A = np.column_stack([np.ones(len(ns)), logn])
    coef, *_ = np.linalg.lstsq(A, logr, rcond=None)
    return RateCheckResult(slope=float(coef[1]), ns=tuple(ns), rmse=tuple(rmses))
