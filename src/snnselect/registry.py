"""The intercept estimators by name: the one list of valid method names and
the one table that the Monte Carlo engine, the decomposition and the CLI
dispatch through.

``fit(data, beta, gamma, cfg)`` returns a result with a ``.theta``; ``cfg``
is any record with ``kernel_order``, ``bandwidth`` and ``tail`` fields.
Methods whose ``needs_nuisance`` is False (OLS and the two-step) estimate
their own slopes and ignore ``beta`` and ``gamma``.  The adapters reach the
estimators through their modules, so that rebinding a module attribute (as
a profiler does) reaches every call.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from . import baselines, estimator
from .numerics import epanechnikov

__all__ = ["Method", "METHODS"]


class Method(NamedTuple):
    fit: Callable  # (data, beta, gamma, cfg) -> result
    needs_nuisance: bool
    report: Callable  # result -> the estimate command's JSON fields
    label: Callable  # cfg -> Monte Carlo panel label


def _snn(data, beta, gamma, cfg):
    return estimator.snn_intercept(data, beta, gamma, epanechnikov(cfg.kernel_order), cfg.bandwidth)


def _h90(data, beta, gamma, cfg):
    return baselines.h90_intercept(data, beta, gamma, cfg.tail)


def _as98(data, beta, gamma, cfg):
    return baselines.as98_intercept(data, beta, gamma, cfg.tail)


def _fields(*names):
    return lambda result: {name: getattr(result, name) for name in names}


def _snn_label(cfg) -> str:
    bw = cfg.bandwidth
    return f"snn (h={bw.value:g})" if bw.kind == "fixed" else f"snn (plugin x{bw.value:g})"


def _tail_label(name: str):
    return lambda cfg: f"{name} (b_n at {cfg.tail.quantile:g} quantile)"


_TAIL_FIELDS = _fields("theta", "std_error", "effective_n")

METHODS: dict[str, Method] = {
    "snn": Method(_snn, True, _fields("theta", "std_error", "bandwidth", "effective_n"),
                  _snn_label),
    "ols": Method(lambda data, *_: baselines.ols_selected(data), False,
                  lambda fit: {"theta": fit.theta, "std_error": float(fit.std_errors[0])},
                  lambda cfg: "ols"),
    "heckman": Method(lambda data, *_: baselines.heckman_two_step(data), False,
                      lambda fit: {"theta": fit.theta, "lambda_coef": fit.lambda_coef},
                      lambda cfg: "heckman"),
    "h90": Method(_h90, True, _TAIL_FIELDS, _tail_label("h90")),
    "as98": Method(_as98, True, _TAIL_FIELDS, _tail_label("as98")),
}
