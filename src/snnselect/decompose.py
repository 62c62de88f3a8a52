"""Two-group outcome-gap decomposition with bootstrap standard errors.

The observed gap in mean outcomes between two groups (over selected
observations) splits into a wage-structure part A, an endowment part B, and
a selection residual C = gap - A - B.  A + B is the selection-corrected gap;
the difference in intercepts is the discrimination measure.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .baselines import probit_mle
from .data import Dataset
from .exceptions import EstimationError
from .nuisance import GAMMA_METHODS
from .registry import METHODS, EstimatorConfig, fit
from .seeding import derive_seed, generator, processes, run_tasks

__all__ = [
    "DecompositionConfig",
    "DecompositionReport",
    "BootstrapSummary",
    "decompose",
    "bootstrap_se",
]

WEIGHTINGS = ("group0", "group1")

@dataclass(frozen=True)
class DecompositionConfig:
    """Pipeline settings for one decomposition run.

    ``estimator`` is the intercept fit run on each group.  A method that
    needs the nuisance gets one fit per group, whose slopes also enter B, so
    its ``estimator.nuisance`` must name a gamma method (ValueError
    otherwise); OLS and the two-step carry their own slope estimates and fit
    no nuisance.
    """

    estimator: EstimatorConfig = EstimatorConfig(nuisance="klein_spady")
    weighting: str = "group0"

    def __post_init__(self) -> None:
        if self.weighting not in WEIGHTINGS:
            raise ValueError("weighting must be 'group0' or 'group1'")
        if METHODS[self.estimator.method].needs_nuisance and self.estimator.nuisance is None:
            raise ValueError(f"{self.estimator.method} on observed groups needs a nuisance of"
                             f" {GAMMA_METHODS}: nuisance=None pins the generating beta and gamma"
                             " of a simulated draw")


@dataclass(frozen=True)
class DecompositionReport:
    """The reported quantities, in the order the CLI prints them."""

    gap_overall: float
    component_A: float
    component_B: float
    component_C: float
    gap_selection_corrected: float
    theta_group0: float
    theta_group1: float
    intercept_difference: float

    def quantities(self) -> dict:
        return asdict(self)


def _fit_group(data: Dataset, config: DecompositionConfig, tag: str, start):
    try:
        result, beta = fit(data, config.estimator, start=start)
    except EstimationError as exc:
        raise EstimationError(f"{tag}: {exc}") from exc
    sel = data.selected()
    ybar = float(data.y[sel].mean())
    xbar = data.X[sel].mean(axis=0)
    return result.theta, np.asarray(beta, dtype=float), ybar, xbar


def decompose(data0: Dataset, data1: Dataset, config: DecompositionConfig | None = None,
              starts=(None, None)) -> DecompositionReport:
    """Full two-group decomposition with the configured pipeline.

    ``starts`` are the two groups' probit starts (``registry.fit``'s
    ``start``), which ``bootstrap_se`` gives its replicates."""
    config = config or DecompositionConfig()
    th0, b0, ybar0, xbar0 = _fit_group(data0, config, "group0", starts[0])
    th1, b1, ybar1, xbar1 = _fit_group(data1, config, "group1", starts[1])
    gap = ybar1 - ybar0
    xw, bw = (xbar0, b1) if config.weighting == "group0" else (xbar1, b0)
    A = (th1 - th0) + float(xw @ (b1 - b0))
    B = float((xbar1 - xbar0) @ bw)
    C = gap - A - B
    return DecompositionReport(
        gap_overall=gap,
        component_A=A,
        component_B=B,
        component_C=C,
        gap_selection_corrected=A + B,
        theta_group0=th0,
        theta_group1=th1,
        intercept_difference=th1 - th0,
    )


@dataclass(frozen=True)
class BootstrapSummary:
    ses: Mapping[str, float]
    n_failed: int


def _resample(data: Dataset, seed: int) -> Dataset:
    rows = generator(seed).integers(0, data.n, size=data.n)
    return data.take(rows)


def _probit_start(data: Dataset, config: DecompositionConfig, tag: str):
    """The group's unnormalised full-sample probit MLE, the same fit that
    ``nuisance.probit_gamma`` makes, when the estimator fits the probit
    nuisance; None otherwise.  A failed fit raises with the group's tag."""
    est = config.estimator
    if not (METHODS[est.method].needs_nuisance and est.nuisance == "probit"):
        return None
    try:
        return probit_mle(data.d, data.Z)
    except EstimationError as exc:
        raise EstimationError(f"{tag}: {exc}") from exc


def _bootstrap_chunk(task) -> list:
    """Replicates [start, stop): each one's quantities, None where it failed."""
    data0, data1, config, starts, seed, start, stop = task
    out = []
    for b in range(start, stop):
        r0 = _resample(data0, derive_seed(seed, "bootstrap:group0", b))
        r1 = _resample(data1, derive_seed(seed, "bootstrap:group1", b))
        try:
            out.append(decompose(r0, r1, config, starts=starts).quantities())
        except EstimationError:
            out.append(None)
    return out


def bootstrap_se(
    data0: Dataset,
    data1: Dataset,
    config: DecompositionConfig | None = None,
    n_boot: int = 200,
    seed: int = 0,
    workers: int = 1,
) -> BootstrapSummary:
    """Row-resampling bootstrap, independent within each group.

    SEs are sample standard deviations of each reported quantity over the
    successful replications; failed replications are counted and excluded.
    Under the probit nuisance a replicate's probit is the k-step bootstrap's
    (Davidson & MacKinnon 1999, Int. Econ. Rev. 40; Andrews 2002,
    Econometrica 70): k = 2 Newton steps from its group's unnormalised
    full-sample probit MLE, with no score test.  A fit whose second step
    still moved an index by 0.1 or more iterates on to convergence, so a
    resample without an MLE fails on separation or divergence as a fully
    iterated replicate does.  That MLE is fitted once per group before any
    replicate, and a group whose fit fails raises its tagged
    EstimationError ("group0: probit failed").  Every other nuisance and
    estimator is refitted in full in each replicate.
    The replicates run as contiguous chunks, about 8 per process used, on
    ``workers`` processes of which the caller is one (``seeding.run_tasks``);
    each replicate's resamples are keyed by its index, and the results are
    joined in replicate order, so the SEs do not depend on ``workers``.
    """
    if n_boot < 2:
        raise EstimationError("bootstrap failed")
    config = config or DecompositionConfig()
    chunks = np.array_split(np.arange(n_boot), min(n_boot, 8 * processes(workers)))
    starts = (_probit_start(data0, config, "group0"), _probit_start(data1, config, "group1"))
    tasks = [(data0, data1, config, starts, seed, int(c[0]), int(c[-1]) + 1) for c in chunks]
    ok = [q for chunk in run_tasks(_bootstrap_chunk, tasks, workers) for q in chunk if q is not None]
    if len(ok) < 2:
        raise EstimationError("bootstrap failed")
    ses = {k: float(np.std(np.asarray([float(q[k]) for q in ok]), ddof=1)) for k in ok[0]}
    return BootstrapSummary(ses=ses, n_failed=n_boot - len(ok))
