"""The intercept estimators by name, how one fit of them is specified, and
the one function that runs it.

``METHODS`` is the one list of valid method names; ``EstimatorConfig`` the
one settings record; ``fit`` the one path from data to an estimate, which
the Monte Carlo engine, the decomposition and the CLI all call.  A method's
``fit(data, beta, gamma, cfg)`` returns a result with a ``.theta``.  Methods
whose ``needs_nuisance`` is False (OLS and the two-step) estimate their own
slopes and ignore ``beta``; the two-step takes a given ``gamma`` as its
first stage and fits the probit itself when ``gamma`` is None.
``fit_thetas`` runs one config over a ``Block`` of same-shaped datasets:
the two-step's first stage in one stacked solve, and snn, h90 and as98 in
one stacked pass when the block shares one (beta, gamma).  The adapters
reach the estimators and the nuisance fit through their modules, so that
rebinding a module attribute (as a profiler does) reaches every call.
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
from .numerics import KERNEL_ORDERS

__all__ = ["Method", "METHODS", "EstimatorConfig", "Block", "fit", "fit_thetas"]


class Method(NamedTuple):
    fit: Callable  # (data, beta, gamma, cfg) -> result
    needs_nuisance: bool
    report: Callable  # result -> the estimate command's JSON fields
    label: Callable  # cfg -> Monte Carlo panel label
    # block -> (G, failed): the gamma ``fit`` would find on each dataset of
    # the block, all in one stacked solve, for a method that fits its own gamma
    stacked_gamma: Callable | None = None
    # (block, cfg) -> InterceptRows: ``fit`` on every dataset of a block
    # whose datasets share cfg's (beta, gamma), in one stacked pass; NaN
    # theta in a row where ``fit`` would raise
    stacked_fit: Callable | None = None


def _snn(data, beta, gamma, cfg):
    return estimator.snn_intercept(data, beta, gamma, cfg.kernel_order, cfg.bandwidth)


def _h90(data, beta, gamma, cfg):
    return baselines.h90_intercept(data, beta, gamma, cfg.tail)


def _as98(data, beta, gamma, cfg):
    return baselines.as98_intercept(data, beta, gamma, cfg.tail)


def _snn_stack(block, cfg):
    return estimator.snn_intercept_stack(block.ranks(cfg.nuisance), block.index(cfg.nuisance),
                                         block.residuals(cfg.nuisance), cfg.kernel_order, cfg.bandwidth)


def _h90_stack(block, cfg):
    return baselines.h90_intercept_stack(block.D, block.index(cfg.nuisance),
                                         block.residuals(cfg.nuisance), cfg.tail)


def _as98_stack(block, cfg):
    return baselines.as98_intercept_stack(block.D, block.index(cfg.nuisance),
                                          block.residuals(cfg.nuisance), cfg.tail)


def _probit_stack(block):
    return baselines.probit_mle_stack(block.D, block.Z)


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
                  _snn_label, stacked_fit=_snn_stack),
    "ols": Method(lambda data, *_: baselines.ols_selected(data), False,
                  lambda fit: {"theta": fit.theta, "std_error": float(fit.std_errors[0])},
                  lambda cfg: "ols"),
    "heckman": Method(lambda data, beta, gamma, cfg: baselines.heckman_two_step(data, gamma),
                      False, lambda fit: {"theta": fit.theta, "lambda_coef": fit.lambda_coef},
                      lambda cfg: "heckman", stacked_gamma=_probit_stack),
    "h90": Method(_h90, True, _TAIL_FIELDS, _tail_label("h90"), stacked_fit=_h90_stack),
    "as98": Method(_as98, True, _TAIL_FIELDS, _tail_label("as98"), stacked_fit=_as98_stack),
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
        if self.kernel_order not in KERNEL_ORDERS:
            raise ValueError("kernel order must be 2 or 4")
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
        key = config.nuisance
        fitted = {} if fitted is None else fitted
        if key not in fitted:
            if key is None:
                raise ValueError("nuisance=None needs the generating beta and gamma of a simulated draw")
            try:
                est = nuisance.fit_nuisance(data, key)
                fitted[key] = (est.beta, est.gamma)
            except EstimationError as exc:
                fitted[key] = exc
        if isinstance(fitted[key], EstimationError):
            raise fitted[key]
        beta, gamma = fitted[key]
    return _checked_fit(method, data, beta, gamma, config)


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
        self._by_nuisance = {}

    def __len__(self) -> int:
        return len(self.datasets)

    @cached_property
    def D(self) -> np.ndarray:
        return np.stack([data.d for data in self.datasets])

    @cached_property
    def Z(self) -> np.ndarray:
        return np.stack([data.Z for data in self.datasets])

    def shared(self, key) -> dict | None:
        """The block's stacked index values and masked residuals under the
        nuisance ``key``, when every dataset holds the same (beta, gamma)
        there, bit for bit; else None."""
        if key not in self._by_nuisance:
            self._by_nuisance[key] = self._stack_nuisance(key)
        return self._by_nuisance[key]

    def _stack_nuisance(self, key) -> dict | None:
        first = self.fitted[0].get(key)
        if not isinstance(first, tuple):
            return None
        beta, gamma = (np.asarray(a, dtype=float) for a in first)
        for f in self.fitted[1:]:
            other = f.get(key)
            if not (isinstance(other, tuple) and all(
                    np.shape(a) == b.shape and np.asarray(a, dtype=float).tobytes() == b.tobytes()
                    for a, b in zip(other, (beta, gamma)))):
                return None
        X = np.stack([data.X for data in self.datasets])
        Y = np.stack([data.y for data in self.datasets])
        # each row bitwise data.Z @ gamma and residualized_outcome(data, beta)
        return {"index": self.Z @ gamma, "residuals": self.D * (Y - X @ beta)}

    def index(self, key) -> np.ndarray:
        """(R, n) index values Z @ gamma under the shared nuisance ``key``."""
        return self.shared(key)["index"]

    def residuals(self, key) -> np.ndarray:
        """(R, n) masked residuals d * (y - X @ beta) under ``key``."""
        return self.shared(key)["residuals"]

    def ranks(self, key) -> np.ndarray:
        """(R, n) rank transform of ``index(key)``."""
        arrays = self.shared(key)
        if "ranks" not in arrays:
            arrays["ranks"] = ranks.rank_rows(arrays["index"])
        return arrays["ranks"]


def fit_thetas(block: Block, config: EstimatorConfig) -> np.ndarray:
    """``fit(block.datasets[i], config, block.fitted[i])[0].theta`` for
    every i, NaN where that raised EstimationError.

    A method with a ``stacked_gamma`` fits its gamma on all datasets in one
    stacked solve and then runs each fit with its row, under ``fit``'s
    finiteness checks.  A method with a ``stacked_fit`` runs the whole block
    in one pass when its datasets share the config's (beta, gamma), as the
    simulation design of record's do.  A dataset whose stacked step failed,
    or gave a non-finite theta or standard error, runs the plain ``fit``,
    so it fails as it would alone: with the same reason, raised from the
    same call.
    """
    method = METHODS[config.method]
    thetas = np.full(len(block), math.nan)
    alone = np.ones(len(block), dtype=bool)  # the datasets that run ``fit``
    G = None
    with np.errstate(over="ignore", invalid="ignore"):
        if method.stacked_gamma is not None:
            G, alone = method.stacked_gamma(block)
        elif method.stacked_fit is not None and block.shared(config.nuisance) is not None:
            try:
                rows = method.stacked_fit(block, config)
                alone = ~(np.isfinite(rows.theta) & np.isfinite(rows.std_error))
                thetas[~alone] = rows.theta[~alone]
            except EstimationError:
                pass
    for i, data in enumerate(block.datasets):
        try:
            if alone[i]:
                thetas[i] = fit(data, config, block.fitted[i])[0].theta
            elif G is not None:
                thetas[i] = _checked_fit(method, data, None, G[i], config)[0].theta
        except EstimationError:
            pass
    return thetas
