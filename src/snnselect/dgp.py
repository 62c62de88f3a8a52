"""Simulation data generators and the tail identification diagnostic.

Sampling uses a counter-based generator (Philox) feeding explicit inverse
and Box-Muller transforms, so draws are reproducible bit-for-bit across
platforms and worker processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .data import Dataset
from .exceptions import EstimationError
from .numerics import _special
from .seeding import generator

__all__ = [
    "FAMILIES",
    "DgpSpec",
    "LatentDraw",
    "simulate",
    "true_gamma",
    "identification_ratio",
]

FAMILIES = ("dgp1", "dgp2")

# dgp2 draws its Pareto selection error as (1 - r) ** (-1 / alpha), and 1 - r
# can be as small as 2^-53, so the draw is 2^(53 / alpha) at worst.  That
# overflows once 53 / alpha reaches 1024, the largest double exponent.
_DGP2_ALPHA_MIN = 53 / 1024


@dataclass(frozen=True)
class DgpSpec:
    """Configuration of one simulated sampling design.

    dgp1: jointly normal covariates and selection error, the selection
    coefficient scaled so Var(index) = alpha.  dgp2: Cauchy covariates with
    a Pareto(alpha) selection error; the index is the last covariate.  Both
    draw l = 7 selection covariates, the first k = 4 of which enter the
    outcome.
    """

    family: str
    n: int
    rho: float = 0.0
    alpha: float = 2.0
    theta0: float = 1.0
    seed: int = 0
    l: ClassVar[int] = 7
    k: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown DGP family: {self.family!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        for name in ("alpha", "theta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.family == "dgp2" and self.alpha <= _DGP2_ALPHA_MIN:
            raise ValueError(f"dgp2 needs alpha > 53/1024 = {_DGP2_ALPHA_MIN}; "
                             "a smaller alpha overflows the Pareto selection error")

    def with_seed(self, seed: int) -> "DgpSpec":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class LatentDraw:
    """A simulated sample together with its latent components."""

    dataset: Dataset
    u: np.ndarray
    v: np.ndarray
    index: np.ndarray
    gamma0: np.ndarray
    beta0: np.ndarray


def _standard_normal(g: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller transform of m = ceil(n/2) uniform pairs: the m cosine
    normals, then the m sine normals, the first n of them.

    Worked out in place in the output; besides it, one array of m values
    (a uniform draw, then the sines) is held at a time.
    """
    m = (n + 1) // 2
    z = np.empty(2 * m)
    r, t = z[:m], z[m:]  # radius and angle, then the cosine and sine normals
    np.subtract(1.0, g.random(m), out=r)  # (0, 1], keeps the log finite
    t[:] = g.random(m)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= 2.0 * np.pi
    sines = np.sin(t)
    sines *= r
    np.cos(t, out=t)
    r *= t
    t[:] = sines
    return z[:n]


def _standard_cauchy(g: np.random.Generator, n: int) -> np.ndarray:
    return np.tan(np.pi * (g.random(n) - 0.5))


def _pareto(g: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    return (1.0 - g.random(n)) ** (-1.0 / alpha)


def true_gamma(spec: DgpSpec) -> np.ndarray:
    if spec.family == "dgp1":
        return np.full(spec.l, math.sqrt(spec.alpha / spec.l))
    g = np.zeros(spec.l)
    g[-1] = 1.0
    return g


def simulate(spec: DgpSpec) -> LatentDraw:
    """Draw one sample; a deterministic function of the spec (incl. seed).

    Draw order is fixed: covariates (n*l), selection error (n), then the
    independent outcome noise (n).  The outcome error is rho*V + E with
    E ~ N(0, 1 - rho^2); under dgp2 the Pareto V is used as drawn, so rho is
    the exact correlation only when Var(V) exists (alpha > 2).
    """
    g = generator(spec.seed)
    n, l, k = spec.n, spec.l, spec.k
    if spec.family == "dgp1":
        Z = _standard_normal(g, n * l).reshape(n, l)
        v = _standard_normal(g, n)
    else:
        Z = _standard_cauchy(g, n * l).reshape(n, l)
        v = _pareto(g, n, spec.alpha)
    e = math.sqrt(max(1.0 - spec.rho**2, 0.0)) * _standard_normal(g, n)
    u = spec.rho * v + e

    gamma0 = true_gamma(spec)
    beta0 = np.ones(k)
    index = Z @ gamma0
    d = (index >= v).astype(float)
    X = Z[:, :k]
    y = d * (spec.theta0 + X @ beta0 + u)
    return LatentDraw(
        dataset=Dataset(d=d, y=y, X=X, Z=Z),
        u=u,
        v=v,
        index=index,
        gamma0=gamma0,
        beta0=beta0,
    )


def identification_ratio(family: str, alpha: float, q) -> float | np.ndarray:
    """Density of F0(V) at q: g_V(F0^-1(q)) / f0(F0^-1(q)).

    F0 is the index distribution (normal with variance alpha under dgp1,
    standard Cauchy under dgp2) and g_V the selection-error density.
    Finiteness of the ratio as q -> 1 is the identification diagnostic:
    it diverges for alpha < 1 under both families.  A q outside [0, 1]
    raises ValueError; one within 1e-9 of 0 or 1 raises
    EstimationError("out of numeric range").
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown DGP family: {family!r}")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    scalar = np.ndim(q) == 0
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all(np.isfinite(q_arr)):
        raise ValueError("q must be finite")
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise ValueError("q must lie in [0, 1]")
    if np.any(q_arr < 1e-9) or np.any(q_arr > 1.0 - 1e-9):
        raise EstimationError("out of numeric range")
    with np.errstate(over="raise"):
        try:
            if family == "dgp1":
                s = math.sqrt(alpha)
                x = s * _special().ndtri(q_arr)
                # phi(x)/phi(x/s) written as one exponential to dodge underflow
                out = s * np.exp(-0.5 * x * x * (1.0 - 1.0 / alpha))
            else:
                x = np.tan(np.pi * (q_arr - 0.5))
                out = np.zeros_like(x)
                m = x >= 1.0
                out[m] = alpha * x[m] ** (-alpha - 1.0) * np.pi * (1.0 + x[m] * x[m])
        except FloatingPointError:
            raise EstimationError("out of numeric range") from None
    if not np.all(np.isfinite(out)):
        raise EstimationError("out of numeric range")
    if scalar:
        return float(out[0])
    return out
