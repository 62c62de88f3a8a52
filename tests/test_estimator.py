import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mse_optimal_bandwidth, snn_bruteforce
from snnselect import estimator
from snnselect.data import Dataset
from snnselect.dgp import DgpSpec, simulate
from snnselect.estimator import (
    BANDWIDTH_CLAMP,
    BandwidthRule,
    residualized_outcome,
    snn_intercept,
    undersmoothing_bandwidth,
)
from snnselect.exceptions import EstimationError


def make_data(d, y, X, Z):
    return Dataset(d=np.asarray(d, float), y=np.asarray(y, float),
                   X=np.asarray(X, float), Z=np.asarray(Z, float))


def plug_in_h(data, beta, gamma, scale=1.0):
    """The plug-in bandwidth, as snn_intercept reports it."""
    return snn_intercept(data, beta, gamma, rule=BandwidthRule.plug_in(scale)).bandwidth


def uniform_index_data(n, w_fn, noise, seed=0, d=None):
    """One-column uniform Z (bounded, regular boundary); y built from ranks."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 1.0, size=n)
    order = np.sort(z)
    ranks = np.searchsorted(order, z, side="right") / n
    y = w_fn(ranks) + noise * rng.standard_normal(n)
    dd = np.ones(n) if d is None else d
    return make_data(dd, y, np.zeros((n, 1)), z[:, None])


class TestResidualizedOutcome:
    def test_beta_zero_masks(self):
        data = make_data([1, 0], [3.0, 9.0], [[1.0], [2.0]], [[0.0], [1.0]])
        assert np.array_equal(residualized_outcome(data, np.zeros(1)), [3.0, 0.0])

    def test_exact_fit_gives_zero(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 3))
        beta = np.array([1.0, -2.0, 0.5])
        data = make_data(np.ones(8), X @ beta, X, rng.normal(size=(8, 2)))
        assert np.allclose(residualized_outcome(data, beta), 0.0, atol=1e-14)

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(6)
        n, k = 10, 4
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        d = (rng.random(n) < 0.7).astype(float)
        beta = rng.normal(size=k)
        data = make_data(d, y, X, rng.normal(size=(n, 2)))
        expected = np.array([d[i] * (y[i] - X[i] @ beta) for i in range(n)])
        assert np.allclose(residualized_outcome(data, beta), expected, atol=1e-14)


class TestSnnIntercept:
    def test_constant_w_reproduced_exactly(self):
        data = uniform_index_data(50, lambda q: np.full_like(q, 5.0), 0.0)
        est = snn_intercept(data, np.zeros(1), np.array([1.0]),
                            rule=BandwidthRule.fixed(0.5))
        assert est.theta == pytest.approx(5.0, abs=1e-12)

    def test_affine_w_recovers_intercept(self):
        data = uniform_index_data(80, lambda q: 2.0 + 3.0 * (q - 1.0), 0.0)
        est = snn_intercept(data, np.zeros(1), np.array([1.0]),
                            rule=BandwidthRule.fixed(0.6))
        assert est.theta == pytest.approx(2.0, abs=1e-10)

    def test_matches_bruteforce_fixed_h(self):
        rng = np.random.default_rng(7)
        n, k, ell = 10, 2, 3
        X = rng.normal(size=(n, k))
        Z = rng.normal(size=(n, ell))
        d = (rng.random(n) < 0.8).astype(float)
        y = rng.normal(size=n) * d
        beta = rng.normal(size=k)
        gamma = rng.normal(size=ell)
        data = make_data(d, y, X, Z)
        est = snn_intercept(data, beta, gamma, rule=BandwidthRule.fixed(0.8))
        oracle = snn_bruteforce(d, y, X, Z, beta, gamma, 0.8)
        assert est.theta == pytest.approx(oracle, abs=1e-10)

    def test_bruteforce_equivalence_many_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(5, 50))
            k = int(rng.integers(1, 3))
            ell = int(rng.integers(1, 4))
            X = rng.normal(size=(n, k))
            Z = rng.normal(size=(n, ell))
            d = (rng.random(n) < 0.8).astype(float)
            y = rng.normal(size=n)
            beta = rng.normal(size=k)
            gamma = rng.normal(size=ell)
            if not np.any(gamma):
                gamma[0] = 1.0
            h = float(rng.uniform(0.3, 1.0))
            data = make_data(d, y, X, Z)
            est = snn_intercept(data, beta, gamma, rule=BandwidthRule.fixed(h))
            oracle = snn_bruteforce(d, y, X, Z, beta, gamma, h)
            assert est.theta == pytest.approx(oracle, abs=1e-10)

    def test_gamma_scaling_bitwise_invariance(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(size=(60, 3))
        X = rng.normal(size=(60, 2))
        d = (rng.random(60) < 0.7).astype(float)
        y = rng.normal(size=60)
        data = make_data(d, y, X, Z)
        beta = np.array([0.3, -0.2])
        g = np.array([1.0, 0.5, -0.25])
        rule = BandwidthRule.fixed(0.5)
        a = snn_intercept(data, beta, g, rule=rule)
        b = snn_intercept(data, beta, 7.25 * g, rule=rule)
        assert a.theta == b.theta  # bitwise

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=50)
        X = rng.normal(size=(50, 2))
        d = (rng.random(50) < 0.8).astype(float)
        y = rng.normal(size=50)
        beta = np.zeros(2)
        rule = BandwidthRule.fixed(0.4)
        a = snn_intercept(make_data(d, y, X, z[:, None]), beta, np.array([1.0]), rule=rule)
        for transform in (np.exp, np.arctan, lambda v: v**3 + 2 * v):
            b = snn_intercept(make_data(d, y, X, transform(z)[:, None]), beta,
                              np.array([1.0]), rule=rule)
            assert a.theta == b.theta  # bitwise: ranks unchanged

    def test_effective_n_monotone_in_h(self):
        data = uniform_index_data(100, lambda q: q, 0.1, seed=11)
        prev = None
        for h in (0.8, 0.6, 0.4, 0.2, 0.1):
            est = snn_intercept(data, np.zeros(1), np.array([1.0]),
                                rule=BandwidthRule.fixed(h))
            if prev is not None:
                assert est.effective_n <= prev
            prev = est.effective_n

    def test_se_scaling_with_n(self):
        ses = {}
        for n in (400, 800):
            data = uniform_index_data(n, lambda q: np.zeros_like(q), 1.0, seed=13)
            est = snn_intercept(data, np.zeros(1), np.array([1.0]),
                                rule=BandwidthRule.fixed(0.5))
            ses[n] = est.std_error
        ratio = ses[800] / ses[400]
        assert abs(ratio - 1 / math.sqrt(2)) < 0.25 / math.sqrt(2)

    def test_degenerate_design_error(self):
        data = make_data([1, 1, 1], [1.0, 2.0, 3.0], np.zeros((3, 1)),
                         np.ones((3, 1)))  # all-tied index: single rank value
        with pytest.raises(EstimationError, match="degenerate local design"):
            snn_intercept(data, np.zeros(1), np.array([1.0]),
                          rule=BandwidthRule.fixed(0.5))

    def test_window_widening_keeps_small_h_alive(self):
        # h far below the rank spacing: widening must rescue the fit
        data = uniform_index_data(40, lambda q: q, 0.05, seed=14)
        est = snn_intercept(data, np.zeros(1), np.array([1.0]),
                            rule=BandwidthRule.fixed(0.001))
        assert est.effective_n >= 2
        assert est.bandwidth > 0.001

    def test_rank_on_window_edge_has_no_weight(self):
        # ranks (0.5, 1): at h = 0.5 the lower rank sits at u = -1, where the
        # kernel is 0, so the window widens once to h = 0.75
        data = make_data([1, 1], [1.0, 2.0], np.zeros((2, 1)), [[0.0], [1.0]])
        est = snn_intercept(data, np.zeros(1), np.array([1.0]),
                            rule=BandwidthRule.fixed(0.5))
        assert est.bandwidth == 0.75
        assert est.theta == pytest.approx(2.0, abs=1e-12)
        assert est.effective_n == 2


class TestUndersmoothingBandwidth:
    def test_n_one(self):
        assert undersmoothing_bandwidth(1, 2, 0.3) == pytest.approx(0.3)

    def test_power_of_two(self):
        assert undersmoothing_bandwidth(32, 2, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_decreasing(self):
        hs = [undersmoothing_bandwidth(n, 2, 1.0) for n in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(hs, hs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            undersmoothing_bandwidth(0, 2, 1.0)
        with pytest.raises(ValueError):
            undersmoothing_bandwidth(10, 2, -1.0)
        for c in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="c must be finite"):
                undersmoothing_bandwidth(10, 2, c)


class TestPlugInBandwidth:
    def test_flat_curvature_hits_upper_clamp(self):
        # exogenous-selection surrogate: pure-noise W, bounded uniform index
        data = uniform_index_data(500, lambda q: np.zeros_like(q), 1.0, seed=15)
        h = plug_in_h(data, np.zeros(1), np.array([1.0]))
        assert h == BANDWIDTH_CLAMP[1]

    def test_heavy_tail_index_hits_upper_clamp(self):
        # identification-at-infinity regime: curvature present but the index
        # has an unbounded upper tail, so the boundary constant is treated as 0
        rng = np.random.default_rng(16)
        n = 500
        z = rng.standard_cauchy(n)
        ranks = np.searchsorted(np.sort(z), z, side="right") / n
        y = 4.0 * (ranks - 1.0) ** 2 + 0.2 * rng.standard_normal(n)
        data = make_data(np.ones(n), y, np.zeros((n, 1)), z[:, None])
        h = plug_in_h(data, np.zeros(1), np.array([1.0]))
        assert h == BANDWIDTH_CLAMP[1]

    def test_matches_optimal_formula_on_known_quadratic(self):
        # m(q) = (q-1)^2, unit noise: true m''(1) = 2, sigma2 = 1
        n = 5000
        data = uniform_index_data(n, lambda q: (q - 1.0) ** 2, 1.0, seed=17)
        h = plug_in_h(data, np.zeros(1), np.array([1.0]))
        oracle = mse_optimal_bandwidth(sigma2=1.0, m_p=2.0, n=n)
        assert oracle == pytest.approx(0.2371, abs=5e-4)
        assert abs(h - oracle) <= 0.35 * oracle

    def test_sixteenfold_n_rate(self):
        # strong clean curvature so the formula is engaged at both sizes
        hs = {}
        for n in (600, 9600):
            data = uniform_index_data(n, lambda q: 4.0 * (q - 1.0) ** 2, 0.3, seed=18)
            hs[n] = plug_in_h(data, np.zeros(1), np.array([1.0]))
        lo, hi = BANDWIDTH_CLAMP
        assert lo < hs[600] < hi and lo < hs[9600] < hi
        ratio = hs[9600] / hs[600]
        assert ratio == pytest.approx((1 / 16) ** 0.2, abs=0.08)

    def test_plugin_scale_applies_before_clamp(self):
        data = uniform_index_data(500, lambda q: np.zeros_like(q), 1.0, seed=19)
        for scale in (2 / 3, 1.0, 3 / 2):
            h = plug_in_h(data, np.zeros(1), np.array([1.0]), scale=scale)
            assert h == BANDWIDTH_CLAMP[1]

    def test_failed_tail_gate_skips_pilot(self, monkeypatch):
        def no_pilot(*args):
            raise AssertionError("pilot fitted after the tail gate failed")

        monkeypatch.setattr(estimator, "_ls_rows", no_pilot)
        draw = simulate(DgpSpec("dgp2", 200, rho=0.5, alpha=1.5, seed=3))
        h = plug_in_h(draw.dataset, draw.beta0, draw.gamma0)
        assert h == BANDWIDTH_CLAMP[1]

    def test_both_gates_pass_gives_formula_via_pilot(self, monkeypatch):
        pilots = []
        real = estimator._ls_rows

        def counted(*args):
            pilots.append(real(*args))
            return pilots[-1]

        monkeypatch.setattr(estimator, "_ls_rows", counted)
        data = uniform_index_data(5000, lambda q: (q - 1.0) ** 2, 1.0, seed=17)
        h = plug_in_h(data, np.zeros(1), np.array([1.0]))
        lo, hi = BANDWIDTH_CLAMP
        assert lo < h < hi and len(pilots) == 1
        # the formula with the exact kernel constants (kappa_2 = 0.2, IntK2 = 0.6)
        coef, sigma2, _, errors = pilots[0]
        assert coef.shape == (1, 3) and not errors
        oracle = mse_optimal_bandwidth(sigma2=sigma2[0], m_p=2.0 * coef[0, 2], n=data.n)
        assert h == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_small_sample_precondition(self):
        data = uniform_index_data(20, lambda q: q, 0.1, seed=20)
        with pytest.raises(EstimationError, match="insufficient sample"):
            plug_in_h(data, np.zeros(1), np.array([1.0]))


class TestBandwidthRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthRule.fixed(-0.1)
        with pytest.raises(ValueError):
            BandwidthRule.fixed(100.0)
        with pytest.raises(ValueError):
            BandwidthRule.plug_in(0.0)
        with pytest.raises(ValueError):
            BandwidthRule("adaptive", 1.0)
        for value in (float("nan"), float("inf"), float("-inf")):
            for make in (BandwidthRule.fixed, BandwidthRule.plug_in):
                with pytest.raises(ValueError, match="must be finite"):
                    make(value)


_SEEDS = st.integers(0, 2**32 - 1)
_DESIGNS = st.sampled_from(["dgp1", "dgp2"])
_RHOS = st.sampled_from([0.0, 0.5, 0.95])
_RULES = st.sampled_from([BandwidthRule.plug_in(), BandwidthRule.fixed(0.4)])


def _property_draw(family, rho, seed):
    return simulate(DgpSpec(family, 300, rho=rho, seed=seed))


class TestSnnProperties:
    """Invariances of the estimator that hold on every sample."""

    @given(family=_DESIGNS, rho=_RHOS, seed=_SEEDS, perm_seed=_SEEDS, rule=_RULES)
    @settings(max_examples=40, deadline=None)
    def test_row_permutation(self, family, rho, seed, perm_seed, rule):
        draw = _property_draw(family, rho, seed)
        rows = np.random.default_rng(perm_seed).permutation(draw.dataset.n)
        a = snn_intercept(draw.dataset, draw.beta0, draw.gamma0, rule=rule)
        b = snn_intercept(draw.dataset.take(rows), draw.beta0, draw.gamma0, rule=rule)
        assert abs(b.theta - a.theta) <= 1e-12 * max(1.0, abs(a.theta))

    @given(family=_DESIGNS, rho=_RHOS, seed=_SEEDS, rule=_RULES)
    @settings(max_examples=40, deadline=None)
    def test_scaling_outcome_and_slopes(self, family, rho, seed, rule):
        # doubling is exact in floating point, so theta doubles exactly
        draw = _property_draw(family, rho, seed)
        data = draw.dataset
        doubled = Dataset(data.d, 2.0 * data.y, data.X, data.Z)
        a = snn_intercept(data, draw.beta0, draw.gamma0, rule=rule)
        b = snn_intercept(doubled, 2.0 * draw.beta0, draw.gamma0, rule=rule)
        assert b.bandwidth == a.bandwidth
        assert b.theta == 2.0 * a.theta

    @given(rho=_RHOS, seed=_SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_increasing_transform_of_the_index(self, rho, seed):
        # dgp2's index is its last Z column; cubing it keeps every rank
        draw = _property_draw("dgp2", rho, seed)
        data = draw.dataset
        Z = data.Z.copy()
        Z[:, -1] = Z[:, -1] ** 3
        rule = BandwidthRule.fixed(0.4)
        a = snn_intercept(data, draw.beta0, draw.gamma0, rule=rule)
        b = snn_intercept(Dataset(data.d, data.y, data.X, Z), draw.beta0, draw.gamma0, rule=rule)
        assert b.theta == a.theta

    @given(family=_DESIGNS, rho=_RHOS, seed=_SEEDS, c=st.floats(-100.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_shift_when_every_row_is_selected(self, family, rho, seed, c):
        # the local fit weights unselected rows too (W = 0 there), so y + c*d
        # shifts theta by exactly c only when every row is selected
        draw = _property_draw(family, rho, seed)
        data = draw.dataset
        y = 1.0 + data.X @ draw.beta0 + draw.u
        full = Dataset(np.ones(data.n), y, data.X, data.Z)
        shifted = Dataset(full.d, y + c * full.d, data.X, data.Z)
        rule = BandwidthRule.fixed(0.4)
        a = snn_intercept(full, draw.beta0, draw.gamma0, rule=rule)
        b = snn_intercept(shifted, draw.beta0, draw.gamma0, rule=rule)
        assert abs(b.theta - (a.theta + c)) <= 1e-9 * (1.0 + abs(c) + abs(a.theta))
