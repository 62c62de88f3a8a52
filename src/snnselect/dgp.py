"""Simulation data generators and the tail identification diagnostic.

Sampling uses a counter-based generator (Philox) feeding explicit inverse
and Box-Muller transforms, so draws are reproducible bit-for-bit across
platforms and worker processes.

One body draws a block of R samples of a spec as one stack
(``_draw_rows``).  Each row draws its uniforms from its own seed's stream,
one generator being rekeyed from row to row (``seeding.rekey``); the
transforms, the index, d and y then run once over the (R, ...) stack.
``simulate`` is its call of one row, where the transforms work in place in
the drawn arrays; the Monte Carlo engine calls it once per block.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .data import Dataset
from .exceptions import EstimationError
from .numerics import _special
from .seeding import generator, rekey

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
        for name in ("n", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
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


def _standard_normal(z: np.ndarray) -> np.ndarray:
    """Box-Muller transform of each row of z, in place: a row of 2m uniforms,
    m radius uniforms then m angle uniforms, becomes its m cosine normals
    and then its m sine normals.

    Besides z, one array of half its length (the sines) is held at a time.
    """
    m = z.shape[-1] // 2
    r, t = z[..., :m], z[..., m:]  # radius and angle, then the cosine and sine normals
    np.subtract(1.0, r, out=r)  # (0, 1], keeps the log finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= 2.0 * np.pi
    sines = np.sin(t)
    sines *= r
    np.cos(t, out=t)
    r *= t
    t[...] = sines
    return z


def _standard_cauchy(z: np.ndarray) -> np.ndarray:
    """tan(pi * (u - 0.5)) of the uniforms z, in place."""
    z -= 0.5
    z *= np.pi
    return np.tan(z, out=z)


def _uniforms(seeds, sizes) -> list:
    """One (R, size) array of uniforms per size, row r drawn from the stream
    of ``seeds[r]``: ``sizes[0]`` uniforms, then ``sizes[1]``, and so on.
    One generator is rekeyed from row to row; a single row is the drawn
    arrays themselves, with no copy."""
    g = generator(seeds[0])
    rows = []
    for r, seed in enumerate(seeds):
        if r:
            rekey(g, seed)
        rows.append([g.random(size) for size in sizes])
    if len(rows) == 1:
        return [u[None] for u in rows[0]]
    return [np.stack(column) for column in zip(*rows)]


def true_gamma(spec: DgpSpec) -> np.ndarray:
    if spec.family == "dgp1":
        return np.full(spec.l, math.sqrt(spec.alpha / spec.l))
    g = np.zeros(spec.l)
    g[-1] = 1.0
    return g


class _Draws(NamedTuple):
    """Draws of one spec stacked along a leading axis of R rows."""

    d: np.ndarray  # (R, n)
    y: np.ndarray  # (R, n)
    X: np.ndarray  # (R, n, k), a view of Z's first k columns
    Z: np.ndarray  # (R, n, l)
    u: np.ndarray  # (R, n)
    v: np.ndarray  # (R, n)
    index: np.ndarray  # (R, n)
    beta0: np.ndarray  # (k,), every row's
    gamma0: np.ndarray  # (l,), every row's


def _draw_rows(spec: DgpSpec, seeds) -> _Draws:
    """The draws of ``spec`` at each of ``seeds``, stacked: row r is the draw
    of ``spec.with_seed(seeds[r])``, and ``simulate`` is the call of one row.

    Each row draws its uniforms from its own stream, in the order
    ``simulate`` documents.  Every step after that runs once over the whole
    stack and computes each row from that row alone, so a row's bits do not
    depend on R or on the other rows.
    """
    n, l, k = spec.n, spec.l, spec.k
    pairs = 2 * ((n + 1) // 2)  # the uniforms of n Box-Muller normals
    if spec.family == "dgp1":
        Zu, Vu, Eu = _uniforms(seeds, (2 * ((n * l + 1) // 2), pairs, pairs))
        Z = _standard_normal(Zu)[:, :n * l]
        v = _standard_normal(Vu)[:, :n]
    else:
        Zu, Vu, Eu = _uniforms(seeds, (n * l, n, pairs))
        Z = _standard_cauchy(Zu)
        v = (1.0 - Vu) ** (-1.0 / spec.alpha)
    Z = Z.reshape(len(seeds), n, l)
    u = _standard_normal(Eu)[:, :n]
    u *= math.sqrt(max(1.0 - spec.rho**2, 0.0))  # E, then rho * V + E
    u += spec.rho * v

    gamma0 = true_gamma(spec)
    beta0 = np.ones(k)
    index = Z @ gamma0
    d = (index >= v).astype(float)
    X = Z[:, :, :k]
    y = d * (spec.theta0 + X @ beta0 + u)
    return _Draws(d, y, X, Z, u, v, index, beta0, gamma0)


def simulate(spec: DgpSpec) -> LatentDraw:
    """Draw one sample; a deterministic function of the spec (incl. seed).

    Draw order is fixed: covariates (n*l), selection error (n), then the
    independent outcome noise (n).  The outcome error is rho*V + E with
    E ~ N(0, 1 - rho^2); under dgp2 the Pareto V is used as drawn, so rho is
    the exact correlation only when Var(V) exists (alpha > 2).
    """
    draws = _draw_rows(spec, [spec.seed])
    return LatentDraw(
        dataset=Dataset(d=draws.d[0], y=draws.y[0], X=draws.X[0], Z=draws.Z[0]),
        u=draws.u[0],
        v=draws.v[0],
        index=draws.index[0],
        gamma0=draws.gamma0,
        beta0=draws.beta0,
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
