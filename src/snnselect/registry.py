"""The intercept estimators by name, how one fit of them is specified, and
the one function that runs it.

``METHODS`` is the one list of valid method names; ``EstimatorConfig`` the
one settings record.  ``fit_thetas`` runs a config over a ``Block`` of
same-shaped datasets, and ``fit`` is that block fit on one dataset; the
five public estimators (``snn_intercept``, ``ols_selected``,
``heckman_two_step``, ``h90_intercept``, ``as98_intercept``) are ``fit``.
The block owns the nuisance: it takes only simulated draws' generating
(beta, gamma), or a probit start for a bootstrap resample, and fits any
other once per dataset and gamma method.
A method's ``fit(block, cfg)`` returns its stacked rows and {row: reason}
from one stacked pass; OLS, the two-step's second stage and snn's plug-in
pilot share one stacked least-squares body, ``numerics._ls_rows``.  OLS
and the two-step estimate their own slopes and fit no nuisance.  One
failure rule, in ``_fit_block``, adds to that dict each row's reason, and
no fit is rerun.  The adapters reach the stacked bodies and the nuisance
fit through their modules, so that rebinding a module attribute (as a
profiler or a test does) reaches every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, estimator, nuisance, ranks
from .baselines import OlsFit, TailRule, TwoStepFit
from .data import Dataset
from .estimator import BandwidthRule, InterceptEstimate
from .exceptions import EstimationError
from .numerics import _check_order

__all__ = [
    "Method", "METHODS", "EstimatorConfig", "Block", "fit", "fit_thetas",
    "snn_intercept", "ols_selected", "heckman_two_step", "h90_intercept", "as98_intercept",
]


class Method(NamedTuple):
    needs_nuisance: bool
    report: Callable  # result -> the estimate command's JSON fields
    label: Callable  # cfg -> Monte Carlo panel label
    # (block, cfg) -> (rows, errors): the method's fit of every dataset of
    # the block, and {row: reason} for the rows that failed in it
    fit: Callable


def _snn_fit(block, cfg):
    arrays = block.under(cfg.nuisance)
    return estimator._snn_rows(block.ranks(cfg.nuisance), arrays["index"], arrays["residuals"],
                               cfg.kernel_order, cfg.bandwidth)


def _h90_fit(block, cfg):
    arrays = block.under(cfg.nuisance)
    return baselines._tail_rows(block.D, arrays["index"], arrays["residuals"], cfg.tail,
                                np.zeros(len(block)))


def _as98_fit(block, cfg):
    arrays = block.under(cfg.nuisance)
    return baselines._as98_rows(block.D, arrays["index"], arrays["residuals"], cfg.tail)


def _fields(*names):
    return lambda result: {name: getattr(result, name) for name in names}


def _snn_label(cfg) -> str:
    bw = cfg.bandwidth
    rule = f"h={bw.value:g}" if bw.kind == "fixed" else f"plugin x{bw.value:g}"
    order = f", order {cfg.kernel_order}" if cfg.kernel_order != 2 else ""
    return f"snn ({rule}{order})"


def _tail_label(name: str):
    return lambda cfg: f"{name} (b_n at {cfg.tail.quantile:g} quantile)"


_TAIL_FIELDS = _fields("theta", "std_error", "effective_n")

METHODS: dict[str, Method] = {
    "snn": Method(True, _fields("theta", "std_error", "bandwidth", "effective_n"), _snn_label,
                  _snn_fit),
    "ols": Method(False, lambda fit: {"theta": fit.theta, "std_error": float(fit.std_errors[0])},
                  lambda cfg: "ols",
                  lambda block, cfg: baselines._ols_rows(block.D, block.X, block.Y)),
    "heckman": Method(False, lambda fit: {"theta": fit.theta, "lambda_coef": fit.lambda_coef},
                      lambda cfg: "heckman",
                      lambda block, cfg: baselines._two_step_rows(block.D, block.X, block.Y, block.Z)),
    "h90": Method(True, _TAIL_FIELDS, _tail_label("h90"), _h90_fit),
    "as98": Method(True, _TAIL_FIELDS, _tail_label("as98"), _as98_fit),
}


@dataclass(frozen=True)
class EstimatorConfig:
    """How one intercept fit is specified.

    ``nuisance`` is where a method that needs beta and gamma gets them:
    ``None`` pins them to the generating values a simulated draw carries
    (the simulation design of record), passed as ``fit``'s ``truth``; a
    name of ``nuisance.GAMMA_METHODS`` fits them first.  OLS and the
    two-step estimate their own slopes and never use the nuisance.
    """

    method: str = "snn"
    kernel_order: int = 2
    bandwidth: BandwidthRule = field(default_factory=BandwidthRule.plug_in)
    tail: TailRule = field(default_factory=TailRule)
    nuisance: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown estimator {self.method!r}; valid: {tuple(METHODS)}")
        _check_order(self.kernel_order)
        if self.nuisance is not None and self.nuisance not in nuisance.GAMMA_METHODS:
            raise ValueError(f"unknown nuisance {self.nuisance!r}; valid: {nuisance.GAMMA_METHODS}")

    @property
    def label(self) -> str:
        return METHODS[self.method].label(self)


def fit(data, config: EstimatorConfig, truth=None, start=None):
    """Run one intercept fit; returns (the method's result, the slopes it used).

    This is ``fit_thetas``'s block fit on one dataset; a reason for failing
    is raised as EstimationError.  ``truth`` is the generating (beta, gamma)
    of a simulated draw, read only by a method that needs the nuisance under
    ``nuisance=None``, which without it raises ValueError; a gamma method
    as ``config.nuisance`` fits them instead.  ``start`` is the probit
    nuisance fit's (``nuisance.probit_gamma``).

    A theta or standard error that overflowed to inf or NaN raises
    EstimationError("non-finite <quantity>"); no fit returns one.
    """
    block = Block([data], None if truth is None else [truth], None if start is None else [start])
    result = _one_row(*_fit_block(block, config))
    needs = METHODS[config.method].needs_nuisance
    return result, (block.under(config.nuisance)["beta"][0] if needs else result.beta)


def _one_row(rows: NamedTuple, errors: dict):
    """A stacked body's R = 1 result: its record with row 0 of each field (a
    Python scalar for a field of one value per row), or its error raised."""
    if errors:
        raise EstimationError(errors[0])
    return rows._make(value[0] if value.ndim > 1 else value[0].item() for value in rows)


def snn_intercept(data: Dataset, beta: np.ndarray, gamma: np.ndarray, kernel_order: int = 2,
                  rule: BandwidthRule | None = None) -> InterceptEstimate:
    """Locally linear boundary estimate of the outcome intercept.

    With ranks eta_i and t_i = eta_i - 1, solves the kernel-weighted least
    squares fit of W on (1, t) and returns the level at t = 0.  The standard
    error is sqrt(sigma2(1) * sum(w_i^2)) with w the equivalent intercept
    weights and sigma2(1) the kernel-weighted mean squared residual of the
    local fit; for h -> 0 this is the finite-sample version of
    sigma2(1) * Int K^2 / (n h).  ``kernel_order`` is one of
    ``numerics.KERNEL_ORDERS``.  This is ``fit`` with (beta, gamma) as the
    nuisance.
    """
    return fit(data, EstimatorConfig("snn", kernel_order, rule or BandwidthRule.plug_in()),
               (beta, gamma))[0]


def ols_selected(data: Dataset) -> OlsFit:
    """Least squares of y on (1, X) over the selected subsample: ``fit``
    of the method ``ols``."""
    return fit(data, EstimatorConfig("ols"))[0]


def heckman_two_step(data: Dataset) -> TwoStepFit:
    """Two-step correction: probit of d on Z, then least squares of y on
    (1, X, lambda(Z'gamma)) over the selected subsample: ``fit`` of the
    method ``heckman``."""
    return fit(data, EstimatorConfig("heckman"))[0]


def h90_intercept(data: Dataset, beta: np.ndarray, gamma: np.ndarray,
                  rule: TailRule | None = None) -> InterceptEstimate:
    """Mean of the selection-masked residuals over the selected upper tail
    of the index (hard threshold at the ``rule.quantile`` sample quantile):
    the tau = 0 case of ``as98_intercept``'s weighting.  This is ``fit``
    with (beta, gamma) as the nuisance."""
    return fit(data, EstimatorConfig("h90", tail=rule or TailRule()), (beta, gamma))[0]


def as98_intercept(data: Dataset, beta: np.ndarray, gamma: np.ndarray,
                   rule: TailRule | None = None) -> InterceptEstimate:
    """Smooth-weighted tail mean: weights s(index - b_n) ramp from 0 to 1
    over a span tau set to the ``rule.tau_quantile`` quantile of the index
    over the selected subsample (only selected observations carry weight).
    tau <= 0 reduces to the hard-threshold tail mean.  This is ``fit`` with
    (beta, gamma) as the nuisance."""
    return fit(data, EstimatorConfig("as98", tail=rule or TailRule()), (beta, gamma))[0]


def _stacked(arrays) -> np.ndarray:
    """``np.stack(arrays)``; for one array, a view of it with a leading axis
    of 1, or of its contiguous copy when it is strided, which is the copy
    ``np.stack`` makes, so the stacked fits read the same bits either way."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0])[None]
    return np.stack(arrays)


class Block:
    """Datasets of one n and l, with the generating (beta, gamma) of each
    when they are simulated draws (``truths``), the start of each one's
    probit nuisance fit when they are bootstrap resamples (``starts``), and
    the stacked arrays that the stacked fits of a block share, each built
    on first use and then kept for every config.  The stacked fits only
    read them: on a block of one they may be the dataset's own arrays.

    ``Block.stacked`` builds a block the other way round, from the stacked
    arrays of simulated draws (``dgp._draw_rows``): the fits read those,
    and a row's Dataset is built only when ``datasets`` is read, as a
    fitted nuisance does."""

    def __init__(self, datasets, truths=None, starts=None):
        self._datasets = list(datasets)
        self._rows = len(self._datasets)
        self.truths = None if truths is None else list(truths)
        self.starts = None if starts is None else list(starts)
        self._under = {}

    @classmethod
    def stacked(cls, D, Y, X, Z, truths) -> "Block":
        """The block whose row r is ``Dataset(D[r], Y[r], X[r], Z[r])``, with
        ``truths``.  The rows are checked as their Datasets would be: the
        first row a Dataset refuses raises that Dataset's error."""
        X = np.ascontiguousarray(X)  # the copy np.stack makes of strided rows
        valid = (((D == 0.0) | (D == 1.0)).all(axis=1) & np.isfinite(Y).all(axis=1)
                 & np.isfinite(X).all(axis=(1, 2)) & np.isfinite(Z).all(axis=(1, 2)))
        if not valid.all():
            row = np.flatnonzero(~valid)[0]
            Dataset(D[row], Y[row], X[row], Z[row])  # raises that row's error
        block = cls([], truths)
        block._datasets, block._rows = None, len(D)
        block.D, block.Y, block.X, block.Z = D, Y, X, Z
        return block

    @property
    def datasets(self) -> list:
        if self._datasets is None:
            self._datasets = [Dataset(self.D[i], self.Y[i], self.X[i], self.Z[i])
                              for i in range(len(self))]
        return self._datasets

    def __len__(self) -> int:
        return self._rows

    @cached_property
    def D(self) -> np.ndarray:
        return _stacked([data.d for data in self.datasets])

    @cached_property
    def Z(self) -> np.ndarray:
        return _stacked([data.Z for data in self.datasets])

    @cached_property
    def X(self) -> np.ndarray:
        return _stacked([data.X for data in self.datasets])

    @cached_property
    def Y(self) -> np.ndarray:
        return _stacked([data.y for data in self.datasets])

    def under(self, key) -> dict:
        """The block's arrays under the nuisance ``key``: each row has its
        dataset's (beta, gamma) from ``truths`` for ``key=None`` (ValueError
        without them), else from one ``fit_nuisance`` call, given its start
        from ``starts``, whose EstimationError fails that row.  A beta that
        is not of shape (k,), or a gamma not of shape (l,), raises
        ValueError.  ``errors``, {row: the message of its nuisance error,
        else "non-finite index" for a row whose index is not finite, else
        "degenerate index" for a row whose gamma is all zero} (a row with a
        nuisance error holds zeros below); ``beta`` (R, k); ``gamma``
        (R, l); ``index`` (R, n), each row bitwise data.Z @ gamma;
        ``residuals`` (R, n), each row bitwise
        ``residualized_outcome(data, beta)``."""
        if key not in self._under:
            if key is None and self.truths is None:
                raise ValueError("nuisance=None needs the generating beta and gamma"
                                 " of a simulated draw")
            errors = {}
            B = np.zeros((len(self), self.X.shape[2]))
            G = np.zeros((len(self), self.Z.shape[2]))
            for i in range(len(self)):
                if key is None:
                    beta, gamma = self.truths[i]
                else:
                    try:
                        start = None if self.starts is None else self.starts[i]
                        est = nuisance.fit_nuisance(self.datasets[i], key, start)
                    except EstimationError as exc:
                        errors[i] = str(exc)
                        continue
                    beta, gamma = est.beta, est.gamma
                if np.shape(beta) != B.shape[1:] or np.shape(gamma) != G.shape[1:]:
                    raise ValueError(f"beta and gamma need shapes {B.shape[1:]} and {G.shape[1:]},"
                                     f" not {np.shape(beta)} and {np.shape(gamma)}")
                B[i], G[i] = beta, gamma
            index = (self.Z @ G[:, :, None])[:, :, 0]
            unranked = np.flatnonzero(~np.isfinite(index).all(axis=1))
            flat = np.flatnonzero(~G.any(axis=1))
            errors = {**dict.fromkeys(flat.tolist(), "degenerate index"),
                      **dict.fromkeys(unranked.tolist(), "non-finite index"), **errors}
            self._under[key] = {"errors": errors, "beta": B, "gamma": G, "index": index,
                                "residuals": self.D * (self.Y - (self.X @ B[:, :, None])[:, :, 0])}
        return self._under[key]

    def ranks(self, key) -> np.ndarray:
        """(R, n) rank transform of ``under(key)["index"]``."""
        arrays = self.under(key)
        if "ranks" not in arrays:
            arrays["ranks"] = ranks._rank_rows(arrays["index"])
        return arrays["ranks"]


def _fit_block(block: Block, config: EstimatorConfig):
    """The method's rows over the block, and the failure rule: {row: reason}
    for every row whose fit does not stand.  The first that applies wins:
    the row's nuisance error, "non-finite index" or "degenerate index", the
    method's error, a non-finite theta, a non-finite standard error."""
    method = METHODS[config.method]
    with np.errstate(over="ignore", invalid="ignore"):
        unfitted = block.under(config.nuisance)["errors"] if method.needs_nuisance else {}
        rows, errors = method.fit(block, config)
    errors = {**errors, **unfitted}
    for name in ("theta", "std_error", "std_errors"):
        value = getattr(rows, name, None)
        if value is not None:
            finite = np.isfinite(value).reshape(len(block), -1).all(axis=1)
            for row in np.flatnonzero(~finite):
                errors.setdefault(row, f"non-finite {name}")
    return rows, errors


def fit_thetas(block: Block, config: EstimatorConfig) -> np.ndarray:
    """``fit(block.datasets[i], config, block.truths[i])[0].theta`` for
    every i, NaN where that raises EstimationError: one block fit of every
    dataset, with no fit rerun."""
    rows, errors = _fit_block(block, config)
    thetas = np.array(rows.theta, dtype=float)
    thetas[list(errors)] = math.nan
    return thetas
