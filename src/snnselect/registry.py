"""The intercept estimators by name, how one fit of them is specified, and
the one function that runs it.

``METHODS`` is the one list of valid method names; ``EstimatorConfig`` the
one settings record; ``fit`` the one path from data to an estimate, which
the Monte Carlo engine, the decomposition and the CLI all call.  A method's
``fit(data, beta, gamma, cfg)`` returns a result with a ``.theta``.  Methods
whose ``needs_nuisance`` is False (OLS and the two-step) estimate their own
slopes and ignore ``beta``; the two-step takes a given ``gamma`` as its
first stage and fits the probit itself when ``gamma`` is None.
``fit_thetas`` runs one config over many same-shaped datasets, fitting that
first stage for all of them in one stacked solve.  The adapters reach the
estimators and the nuisance fit through their modules, so that rebinding a
module attribute (as a profiler does) reaches every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, estimator, nuisance
from .baselines import TailRule
from .estimator import BandwidthRule
from .exceptions import EstimationError
from .numerics import KERNEL_ORDERS

__all__ = ["Method", "METHODS", "EstimatorConfig", "fit", "fit_thetas"]


class Method(NamedTuple):
    fit: Callable  # (data, beta, gamma, cfg) -> result
    needs_nuisance: bool
    report: Callable  # result -> the estimate command's JSON fields
    label: Callable  # cfg -> Monte Carlo panel label
    # datasets -> (G, failed): the gamma ``fit`` would find on each dataset,
    # all in one stacked solve, for a method that fits its own gamma
    stacked_gamma: Callable | None = None


def _snn(data, beta, gamma, cfg):
    return estimator.snn_intercept(data, beta, gamma, cfg.kernel_order, cfg.bandwidth)


def _h90(data, beta, gamma, cfg):
    return baselines.h90_intercept(data, beta, gamma, cfg.tail)


def _as98(data, beta, gamma, cfg):
    return baselines.as98_intercept(data, beta, gamma, cfg.tail)


def _probit_stack(datasets):
    return baselines.probit_mle_stack(np.stack([data.d for data in datasets]),
                                      np.stack([data.Z for data in datasets]))


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
                  _snn_label),
    "ols": Method(lambda data, *_: baselines.ols_selected(data), False,
                  lambda fit: {"theta": fit.theta, "std_error": float(fit.std_errors[0])},
                  lambda cfg: "ols"),
    "heckman": Method(lambda data, beta, gamma, cfg: baselines.heckman_two_step(data, gamma),
                      False, lambda fit: {"theta": fit.theta, "lambda_coef": fit.lambda_coef},
                      lambda cfg: "heckman", stacked_gamma=_probit_stack),
    "h90": Method(_h90, True, _TAIL_FIELDS, _tail_label("h90")),
    "as98": Method(_as98, True, _TAIL_FIELDS, _tail_label("as98")),
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


def fit_thetas(datasets, config: EstimatorConfig, fitted: list) -> np.ndarray:
    """``fit(datasets[i], config, fitted[i])[0].theta`` for every i, NaN
    where that raised EstimationError; the datasets share n and l.

    A method with a ``stacked_gamma`` fits its gamma on all datasets in one
    stacked solve and then runs each fit with its row, under ``fit``'s
    finiteness checks.  A dataset whose stacked fit failed runs the plain
    ``fit``, so it fails as it would alone: with the same reason, raised
    from the same call.
    """
    method = METHODS[config.method]
    G = None
    if method.stacked_gamma is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            G, failed = method.stacked_gamma(datasets)
    thetas = np.full(len(datasets), math.nan)
    for i, data in enumerate(datasets):
        try:
            if G is None or failed[i]:
                thetas[i] = fit(data, config, fitted[i])[0].theta
            else:
                thetas[i] = _checked_fit(method, data, None, G[i], config)[0].theta
        except EstimationError:
            pass
    return thetas
