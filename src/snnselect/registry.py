"""The intercept estimators by name, how one fit of them is specified, and
the one function that runs it.

``METHODS`` is the one list of valid method names; ``EstimatorConfig`` the
one settings record; ``fit`` the one path from data to an estimate, which
the Monte Carlo engine, the decomposition and the CLI all call.  A method's
``fit(data, beta, gamma, cfg)`` returns a result with a ``.theta``.  Methods
whose ``needs_nuisance`` is False (OLS and the two-step) estimate their own
slopes and ignore ``beta``; the two-step takes a given ``gamma`` as its
first stage and fits the probit itself when ``gamma`` is None.
``fit_thetas`` runs one config over a ``Block`` of same-shaped datasets
through the method's ``stacked_fit``: snn, h90 and as98 in one stacked pass
on each dataset's own (beta, gamma), the two-step's first stage in one
stacked solve, and OLS one dataset at a time.  A dataset whose fit fails
is NaN, set from the stacked body that found the failure.  The adapters
reach the estimators, their stacked bodies and the nuisance fit through
their modules, so that rebinding a module attribute (as a profiler or a
test does) reaches every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, estimator, nuisance, ranks
from .baselines import TailRule
from .estimator import BandwidthRule
from .exceptions import EstimationError
from .numerics import _check_order

__all__ = ["Method", "METHODS", "EstimatorConfig", "Block", "fit", "fit_thetas"]


class Method(NamedTuple):
    fit: Callable  # (data, beta, gamma, cfg) -> result
    needs_nuisance: bool
    report: Callable  # result -> the estimate command's JSON fields
    label: Callable  # cfg -> Monte Carlo panel label
    # (block, cfg) -> ``fit``'s theta on every dataset of the block, NaN
    # where ``fit`` would raise
    stacked_fit: Callable


def _snn(data, beta, gamma, cfg):
    return estimator.snn_intercept(data, beta, gamma, cfg.kernel_order, cfg.bandwidth)


def _h90(data, beta, gamma, cfg):
    return baselines.h90_intercept(data, beta, gamma, cfg.tail)


def _as98(data, beta, gamma, cfg):
    return baselines.as98_intercept(data, beta, gamma, cfg.tail)


def _intercept_stack(body):
    """The ``stacked_fit`` of a stacked intercept body ``body(block, arrays,
    cfg) -> (InterceptRows, errors)``, ``arrays`` being the block's under
    cfg's nuisance.  A row is NaN where its nuisance fit failed, where the
    body reports an error, or where its theta or standard error is
    non-finite."""
    def stacked_fit(block, cfg):
        arrays = block.under(cfg.nuisance)
        rows, errors = body(block, arrays, cfg)
        failed = arrays["failed"] | ~(np.isfinite(rows.theta) & np.isfinite(rows.std_error))
        failed[list(errors)] = True
        return np.where(failed, math.nan, rows.theta)

    return stacked_fit


_snn_stack = _intercept_stack(lambda block, arrays, cfg: estimator._snn_rows(
    block.ranks(cfg.nuisance), arrays["index"], arrays["residuals"], cfg.kernel_order, cfg.bandwidth))
_h90_stack = _intercept_stack(lambda block, arrays, cfg: baselines._tail_rows(
    block.D, arrays["index"], arrays["residuals"], cfg.tail, np.zeros(len(block))))
_as98_stack = _intercept_stack(lambda block, arrays, cfg: baselines._as98_rows(
    block.D, arrays["index"], arrays["residuals"], cfg.tail))


def _heckman_stack(block, cfg):
    """The probit of every dataset in one stacked solve, then each second
    stage under ``fit``'s checks; NaN where either failed."""
    G, failed = baselines._probit_newton(block.D, block.Z)
    thetas = np.full(len(block), math.nan)
    for i in np.flatnonzero(~failed):
        try:
            thetas[i] = _checked_fit(METHODS["heckman"], block.datasets[i], None, G[i], cfg)[0].theta
        except EstimationError:
            pass
    return thetas


def _each_fit(block, cfg):
    """The ``stacked_fit`` that runs ``fit`` on each dataset."""
    thetas = np.full(len(block), math.nan)
    for i, (data, fitted) in enumerate(zip(block.datasets, block.fitted)):
        try:
            thetas[i] = fit(data, cfg, fitted)[0].theta
        except EstimationError:
            pass
    return thetas


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
    "snn": Method(_snn, True, _fields("theta", "std_error", "bandwidth", "effective_n"),
                  _snn_label, _snn_stack),
    "ols": Method(lambda data, *_: baselines.ols_selected(data), False,
                  lambda fit: {"theta": fit.theta, "std_error": float(fit.std_errors[0])},
                  lambda cfg: "ols", _each_fit),
    "heckman": Method(lambda data, beta, gamma, cfg: baselines.heckman_two_step(data, gamma),
                      False, lambda fit: {"theta": fit.theta, "lambda_coef": fit.lambda_coef},
                      lambda cfg: "heckman", _heckman_stack),
    "h90": Method(_h90, True, _TAIL_FIELDS, _tail_label("h90"), _h90_stack),
    "as98": Method(_as98, True, _TAIL_FIELDS, _tail_label("as98"), _as98_stack),
}


@dataclass(frozen=True)
class EstimatorConfig:
    """How one intercept fit is specified.

    ``nuisance`` is where a method that needs beta and gamma gets them:
    ``None`` pins them to the generating values a simulated draw carries
    (the simulation design of record); a name of ``nuisance.GAMMA_METHODS``
    fits them first.  OLS and the two-step estimate their own slopes and
    never use the nuisance either way.
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


def fit(data, config: EstimatorConfig, fitted: dict | None = None):
    """Run one intercept fit; returns (the method's result, the slopes it used).

    A method that needs the nuisance takes (beta, gamma) from
    ``fitted[config.nuisance]``.  A missing entry is fitted and stored there,
    or the EstimationError its fit raised, so configs that share ``fitted``
    share one nuisance fit per gamma method, and its failure.  The generating
    values of ``nuisance=None`` exist only for simulated draws, whose caller
    puts them in ``fitted[None]``; without them this raises ValueError.

    A theta or standard error that overflowed to inf or NaN raises
    EstimationError("non-finite <quantity>"); no fit returns one.
    """
    method = METHODS[config.method]
    beta = gamma = None
    if method.needs_nuisance:
        found = _nuisance(data, {} if fitted is None else fitted, config.nuisance)
        if isinstance(found, EstimationError):
            raise found
        beta, gamma = found
    return _checked_fit(method, data, beta, gamma, config)


def _nuisance(data, fitted: dict, key):
    """``fitted[key]``: the (beta, gamma) of ``data`` under the nuisance
    ``key``, or the EstimationError its fit raised, fitted and stored there
    on first use."""
    if key not in fitted:
        if key is None:
            raise ValueError("nuisance=None needs the generating beta and gamma of a simulated draw")
        try:
            est = nuisance.fit_nuisance(data, key)
            fitted[key] = (est.beta, est.gamma)
        except EstimationError as exc:
            fitted[key] = exc
    return fitted[key]


def _checked_fit(method, data, beta, gamma, config):
    with np.errstate(over="ignore", invalid="ignore"):
        result = method.fit(data, beta, gamma, config)
    for name in ("theta", "std_error", "std_errors"):
        value = getattr(result, name, 0.0)
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise EstimationError(f"non-finite {name}")
    return result, (beta if method.needs_nuisance else result.beta)


class Block:
    """Datasets of one n and l, each with the ``fitted`` dict that ``fit``
    takes for it, and the stacked arrays that the stacked fits of a block
    share, each built on first use and then kept for every config."""

    def __init__(self, datasets, fitted):
        self.datasets = list(datasets)
        self.fitted = list(fitted)
        self._under = {}

    def __len__(self) -> int:
        return len(self.datasets)

    @cached_property
    def D(self) -> np.ndarray:
        return np.stack([data.d for data in self.datasets])

    @cached_property
    def Z(self) -> np.ndarray:
        return np.stack([data.Z for data in self.datasets])

    def under(self, key) -> dict:
        """The block's arrays under the nuisance ``key``, where each row has
        its own dataset's (beta, gamma), got or fitted in its ``fitted`` dict
        as ``fit`` does: ``failed`` (R,), the rows whose nuisance fit failed
        (they hold zeros); ``index`` (R, n), each row bitwise data.Z @ gamma;
        ``residuals`` (R, n), each row bitwise ``residualized_outcome(data,
        beta)``."""
        if key not in self._under:
            found = [_nuisance(data, f, key) for data, f in zip(self.datasets, self.fitted)]
            failed = np.array([isinstance(x, EstimationError) for x in found])
            B = np.zeros((len(self), self.datasets[0].k))
            G = np.zeros((len(self), self.datasets[0].l))
            for i in np.flatnonzero(~failed):
                B[i], G[i] = found[i]
            X = np.stack([data.X for data in self.datasets])
            Y = np.stack([data.y for data in self.datasets])
            self._under[key] = {"failed": failed, "index": (self.Z @ G[:, :, None])[:, :, 0],
                                "residuals": self.D * (Y - (X @ B[:, :, None])[:, :, 0])}
        return self._under[key]

    def ranks(self, key) -> np.ndarray:
        """(R, n) rank transform of ``under(key)["index"]``."""
        arrays = self.under(key)
        if "ranks" not in arrays:
            arrays["ranks"] = ranks._rank_rows(arrays["index"])
        return arrays["ranks"]


def fit_thetas(block: Block, config: EstimatorConfig) -> np.ndarray:
    """``fit(block.datasets[i], config, block.fitted[i])[0].theta`` for
    every i, NaN where that raises EstimationError: the method's
    ``stacked_fit`` over the whole block, or NaN in every row when that
    raises, as a plug-in rule on fewer than 30 observations does."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return METHODS[config.method].stacked_fit(block, config)
    except EstimationError:
        return np.full(len(block), math.nan)
