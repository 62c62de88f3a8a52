import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.special import ndtr

from oracles import as98_bruteforce, h90_bruteforce, ols_bruteforce
import snnselect.baselines as baselines
from snnselect.baselines import (
    TailRule,
    _probit_newton,
    probit_mle,
    smooth_tail_weight,
)
from snnselect.data import Dataset
from snnselect.dgp import DgpSpec, simulate
from snnselect.estimator import residualized_outcome
from snnselect.exceptions import EstimationError
from snnselect.numerics import inverse_mills
from snnselect.registry import as98_intercept, h90_intercept, heckman_two_step, ols_selected


def make_data(d, y, X, Z):
    return Dataset(d=np.asarray(d, float), y=np.asarray(y, float),
                   X=np.asarray(X, float), Z=np.asarray(Z, float))


def probit_sample(n, gamma, seed=0, k=2):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, len(gamma)))
    v = rng.normal(size=n)
    d = (Z @ np.asarray(gamma) >= v).astype(float)
    X = Z[:, :k]
    y = d * (1.0 + X @ np.ones(k) + rng.normal(size=n))
    return make_data(d, y, X, Z)


class TestOlsSelected:
    def test_exact_linear_data(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        beta = np.array([2.0, -1.0, 0.5])
        d = np.ones(30)
        d[:5] = 0.0
        y = 4.0 + X @ beta
        fit = ols_selected(make_data(d, y * d, X, rng.normal(size=(30, 1))))
        assert fit.theta == pytest.approx(4.0, abs=1e-10)
        assert np.allclose(fit.beta, beta, atol=1e-10)

    def test_no_selected_observations(self):
        rng = np.random.default_rng(22)
        data = make_data(np.zeros(20), np.zeros(20), rng.normal(size=(20, 2)),
                         rng.normal(size=(20, 1)))
        with pytest.raises(EstimationError, match="insufficient selected"):
            ols_selected(data)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(23)
        n, k = 200, 4
        X = rng.normal(size=(n, k))
        d = (rng.random(n) < 0.6).astype(float)
        y = d * (1.5 + X @ rng.normal(size=k) + rng.normal(size=n))
        data = make_data(d, y, X, rng.normal(size=(n, 2)))
        fit = ols_selected(data)
        sel = d > 0.5
        theta0, beta0 = ols_bruteforce(y[sel], X[sel])
        assert fit.theta == pytest.approx(theta0, abs=1e-10)
        assert np.allclose(fit.beta, beta0, atol=1e-10)

    def test_singular_design(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 2))
        X = np.column_stack([X, X[:, 0]])  # exact collinearity
        data = make_data(np.ones(40), rng.normal(size=40), X, rng.normal(size=(40, 1)))
        with pytest.raises(EstimationError, match="singular design"):
            ols_selected(data)


class TestProbit:
    def test_recovers_coefficients(self):
        data = probit_sample(20000, [1.0, -0.5, 0.25], seed=25)
        g = probit_mle(data.d, data.Z)
        assert np.allclose(g, [1.0, -0.5, 0.25], atol=0.06)

    def test_constant_outcome_fails(self):
        rng = np.random.default_rng(26)
        with pytest.raises(EstimationError, match="probit failed"):
            probit_mle(np.ones(50), rng.normal(size=(50, 2)))

    def test_complete_separation_fails(self):
        rng = np.random.default_rng(27)
        z = rng.normal(size=(200, 1))
        d = (z[:, 0] > 0).astype(float)  # perfectly separated
        with pytest.raises(EstimationError, match="probit failed"):
            probit_mle(d, z)

    def test_one_dimensional_z_is_one_column(self):
        rng = np.random.default_rng(28)
        z = rng.normal(size=300)
        d = (z >= rng.normal(size=300)).astype(float)
        g = probit_mle(d, z)
        assert g.shape == (1,)
        assert g.tobytes() == probit_mle(d, z[:, None]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_regressor_is_named(self, bad):
        # before any arithmetic: no RuntimeWarning, and not "probit failed"
        z = np.array([[1.0, 0.3], [1.0, -0.2], [1.0, 0.8], [1.0, -1.1]])
        z[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="probit regressors must be finite"):
                probit_mle(np.array([0.0, 1.0, 1.0, 0.0]), z)

    def test_length_mismatch_names_both_shapes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"shape \(3,\) does not match regressors of shape \(4, 2\)"):
                probit_mle(np.array([0.0, 1.0, 1.0]), np.ones((4, 2)))


def _probit_or_none(d, Z):
    try:
        return probit_mle(d, Z)
    except EstimationError:
        return None


def _mixed_probit_stack():
    """(names, D, Z): ordinary dgp1 and dgp2 samples at n = 120 beside one
    problem of each way the probit fails."""
    names, D, Z = [], [], []
    for family in ("dgp1", "dgp2"):
        for seed in range(4):
            data = simulate(DgpSpec(family, 120, rho=0.5, seed=seed)).dataset
            names.append(f"{family}-{seed}")
            D.append(data.d)
            Z.append(data.Z)
    z = np.random.default_rng(31).normal(size=(120, 7))
    separated = (z[:, 0] > 0).astype(float)
    names += ["constant-d", "separated", "diverging", "singular"]
    D += [np.ones(120), separated, separated, D[0]]
    # at 1e-6 the separating coefficient passes 1e4 before the fit converges;
    # a zero column makes every Hessian singular
    Z += [z, z, z * 1e-6, np.column_stack([z[:, :6], np.zeros(120)])]
    return names, np.stack(D), np.stack(Z)


class TestProbitStack:
    def test_every_member_matches_its_scalar_fit(self):
        names, D, Z = _mixed_probit_stack()
        scalar = [_probit_or_none(d, z) for d, z in zip(D, Z)]
        assert [g is None for g in scalar] == [False] * 8 + [True] * 4
        pieces = [[i] for i in range(len(D))]  # each problem alone
        reverse = list(range(len(D)))[::-1]
        for order in (range(len(D)), reverse):
            order = list(order)
            for cut in (order, order[:5], order[5:9], order[9:]):
                pieces.append(cut)
        for members in pieces:
            G, failed = _probit_newton(D[members], Z[members])
            for row, i in enumerate(members):
                if scalar[i] is None:
                    assert failed[row], names[i]
                    assert np.isnan(G[row]).all()
                else:
                    assert not failed[row], names[i]
                    assert G[row].tobytes() == scalar[i].tobytes(), names[i]

    def test_malformed_input_rejected(self):
        z = np.random.default_rng(35).normal(size=(50, 2))
        with pytest.raises(ValueError, match="0/1"):
            probit_mle(np.full(50, 0.5), z)

    def test_separation_verdict_short_circuits(self, monkeypatch):
        calls = []
        real = special.log_ndtr

        def counted(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(special, "log_ndtr", counted)
        data = probit_sample(400, [1.0, -0.5], seed=32)
        probit_mle(data.d, data.Z)
        assert calls == []  # some row's margin is below 4: not separated
        z = np.random.default_rng(33).normal(size=(200, 1))
        with pytest.raises(EstimationError, match="probit failed"):
            probit_mle((z[:, 0] > 0).astype(float), z)
        assert calls


# sha256 of the bytes of (G, failed) from _probit_newton on _mixed_probit_stack(),
# iterated from zero to convergence, as recorded before the k-step existed
MIXED_STACK_DIGEST = "929d02876f0d"


def _separable_sample():
    """d = 1{z0 > 0} with every |z0| above 0.1: a start of 60 on z0 already
    classifies every row with a margin of at least 4."""
    z = np.random.default_rng(31).normal(size=(120, 7))
    z = z[np.abs(z[:, 0]) > 0.1]
    return (z[:, 0] > 0).astype(float), z


def _counted_verdicts(monkeypatch) -> list:
    """Record every separation verdict _probit_newton reaches."""
    verdicts = []
    real = baselines._separated
    monkeypatch.setattr(baselines, "_separated",
                        lambda d, xb: verdicts.append(real(d, xb)) or verdicts[-1])
    return verdicts


class TestKStepNewton:
    def test_default_is_the_fully_iterated_fit(self):
        names, D, Z = _mixed_probit_stack()
        G, failed = _probit_newton(D, Z)
        digest = hashlib.sha256(G.tobytes() + failed.tobytes()).hexdigest()[:12]
        assert digest == MIXED_STACK_DIGEST

    def test_unsettled_start_iterates_on_as_the_fully_iterated_fit(self):
        # from zero every row's second step still moves an index by 0.1 or
        # more, so each goes on under the fully iterated rule to its bits
        names, D, Z = _mixed_probit_stack()
        G, failed = _probit_newton(D, Z)
        G0, failed0 = _probit_newton(D, Z, np.zeros(G.shape))
        assert G0.tobytes() == G.tobytes() and (failed0 == failed).all()

    def test_k_steps_from_the_mle_stay_there(self, monkeypatch):
        data = probit_sample(2000, [1.0, -0.5, 0.25], seed=36)
        mle = probit_mle(data.d, data.Z)
        for steps in (1, baselines._PROBIT_START_STEPS, 5):
            monkeypatch.setattr(baselines, "_PROBIT_START_STEPS", steps)
            assert np.abs(probit_mle(data.d, data.Z, mle) - mle).max() <= 1e-12

    def test_every_member_matches_its_scalar_fit(self):
        names, D, Z = _mixed_probit_stack()
        mle, _ = _probit_newton(D, Z)
        # a different start in every row: its MLE scaled, zero where it has
        # none; the rows near their MLE end after k steps, the others go on
        G0 = np.where(np.isnan(mle), 0.0, mle) * np.linspace(0.5, 1.5, len(D))[:, None]
        G0[names.index("separated"), 0] = 60.0
        scalar = [_probit_newton(D[i:i + 1], Z[i:i + 1], G0[i:i + 1]) for i in range(len(D))]
        for members in ([*range(len(D))], [*range(len(D))][::-1], [0, 9, 3, 11], [8, 10]):
            G, failed = _probit_newton(D[members], Z[members], G0[members])
            for row, i in enumerate(members):
                assert failed[row] == scalar[i][1][0], names[i]
                assert G[row].tobytes() == scalar[i][0][0].tobytes(), names[i]

    @pytest.mark.parametrize("kind", ["constant", "singular", "diverging", "separated",
                                      "separated-near-its-start"])
    def test_each_failure_kind_fails_the_k_step(self, kind, monkeypatch):
        names, D, Z = _mixed_probit_stack()
        d, z, start = D[0], Z[0], np.zeros(Z.shape[2])
        if kind == "constant":
            d = np.ones_like(d)
        elif kind == "singular":  # a zero column
            z = np.column_stack([z[:, :-1], np.zeros(len(d))])
        elif kind == "diverging":  # a separating coefficient past 1e4 at the first step
            d, z = D[names.index("diverging")], Z[names.index("diverging")]
        elif kind == "separated":
            d, z = _separable_sample()
            start[0] = 60.0
        else:
            # the start is the MLE of the same rows with 8 outcomes flipped,
            # as a resample's start is its full sample's: finite, and two
            # steps from it classify no row with a margin of 4
            d, z = _separable_sample()
            flipped = d.copy()
            rows = np.random.default_rng(3).choice(len(d), 8, replace=False)
            flipped[rows] = 1.0 - flipped[rows]
            start = probit_mle(flipped, z)
        verdicts = _counted_verdicts(monkeypatch)
        with pytest.raises(EstimationError, match="^probit failed$"):
            probit_mle(d, z, start)
        if kind.startswith("separated"):
            assert verdicts == [True]  # failed on the verdict, not on divergence

    def test_no_score_test(self, monkeypatch):
        # with one step allowed, a fit from zero fails on its score norm; a
        # k-step fit of one step that settled near the MLE stands, short of it
        monkeypatch.setattr(baselines, "_PROBIT_MAX_ITER", 1)
        monkeypatch.setattr(baselines, "_PROBIT_START_STEPS", 1)
        data = probit_sample(2000, [1.0, -0.5, 0.25], seed=37)
        with pytest.raises(EstimationError, match="probit failed"):
            probit_mle(data.d, data.Z)
        monkeypatch.setattr(baselines, "_PROBIT_MAX_ITER", 100)
        mle = probit_mle(data.d, data.Z)
        monkeypatch.setattr(baselines, "_PROBIT_MAX_ITER", 1)
        one_step = probit_mle(data.d, data.Z, mle + 0.01)
        assert 1e-6 < np.abs(one_step - mle).max() < 1e-3
        # a start whose step still moves an index by 0.1 goes on, and here
        # runs out of steps with its score test
        with pytest.raises(EstimationError, match="probit failed"):
            probit_mle(data.d, data.Z, mle + 0.05)


class TestHeckmanTwoStep:
    def test_recovers_planted_lambda_structure(self):
        # build y exactly from the step-2 regression at the probit estimate
        data = probit_sample(3000, [1.0, 0.7, -0.4], seed=28)
        gamma_hat = probit_mle(data.d, data.Z)
        lam = inverse_mills(data.Z @ gamma_hat)
        theta, beta, lam_coef = 1.25, np.array([0.5, -2.0]), 0.8
        y = (theta + data.X @ beta + lam_coef * lam) * data.d
        data2 = make_data(data.d, y, data.X, data.Z)
        fit = heckman_two_step(data2)
        assert fit.theta == pytest.approx(theta, abs=1e-8)
        assert np.allclose(fit.beta, beta, atol=1e-8)
        assert fit.lambda_coef == pytest.approx(lam_coef, abs=1e-8)
        assert inverse_mills(0.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-10)

    def test_separation_propagates(self):
        rng = np.random.default_rng(29)
        z = rng.normal(size=(100, 1))
        d = (z[:, 0] > 0).astype(float)
        y = d * rng.normal(size=100)
        data = make_data(d, y, rng.normal(size=(100, 2)), z)
        with pytest.raises(EstimationError, match="probit failed"):
            heckman_two_step(data)

    def test_lambda_constrained_to_zero_is_ols(self):
        # dropping the correction column reduces step 2 to selected-sample OLS
        data = probit_sample(500, [1.0, 0.5], seed=30)
        sel = data.selected()
        A = np.column_stack([np.ones(sel.sum()), data.X[sel]])
        coef = np.linalg.lstsq(A, data.y[sel], rcond=None)[0]
        fit = ols_selected(data)
        assert fit.theta == pytest.approx(float(coef[0]), abs=1e-12)
        assert np.allclose(fit.beta, coef[1:], atol=1e-12)


class TestH90:
    def test_single_survivor(self):
        d = [1.0, 1.0, 1.0, 0.0]
        y = [1.0, 2.0, 3.0, 7.0]
        Z = np.array([[0.1], [0.2], [0.9], [0.95]])
        data = make_data(d, y, np.zeros((4, 1)), Z)
        # b_n = 0.5 corresponds to a mid-range quantile of the index
        est = h90_intercept(data, np.zeros(1), np.array([1.0]), TailRule(quantile=0.6))
        b_n = np.quantile(Z[:, 0], 0.6)
        assert 0.2 < b_n < 0.9
        assert est.theta == pytest.approx(3.0)
        assert est.effective_n == 1

    def test_empty_tail(self):
        d = [0.0, 0.0, 1.0, 1.0]
        Z = np.array([[0.1], [0.2], [0.05], [0.0]])  # selected are all low-index
        data = make_data(d, [0.0, 0.0, 1.0, 1.0], np.zeros((4, 1)), Z)
        with pytest.raises(EstimationError, match="empty tail"):
            h90_intercept(data, np.zeros(1), np.array([1.0]), TailRule(quantile=0.5))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        n = 150
        Z = rng.normal(size=(n, 3))
        d = (rng.random(n) < 0.7).astype(float)
        X = rng.normal(size=(n, 2))
        y = d * rng.normal(size=n)
        beta = rng.normal(size=2)
        gamma = rng.normal(size=3)
        data = make_data(d, y, X, Z)
        est = h90_intercept(data, beta, gamma, TailRule(quantile=0.9))
        W = residualized_outcome(data, beta)
        idx = Z @ gamma
        oracle = h90_bruteforce(d, W, idx, float(np.quantile(idx, 0.9)))
        assert est.theta == pytest.approx(oracle, abs=1e-10)

    def test_gamma_rescaling_invariance(self):
        rng = np.random.default_rng(32)
        n = 100
        Z = rng.normal(size=(n, 2))
        d = (rng.random(n) < 0.8).astype(float)
        X = rng.normal(size=(n, 2))
        y = d * rng.normal(size=n)
        data = make_data(d, y, X, Z)
        beta = np.zeros(2)
        g = np.array([1.0, -0.5])
        a = h90_intercept(data, beta, g)
        b = h90_intercept(data, beta, 3.0 * g)
        assert a.theta == pytest.approx(b.theta, abs=1e-12)


class TestAs98:
    def test_ramp_midpoint_value(self):
        tau = 0.8
        assert smooth_tail_weight(tau / 2, tau) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_ramp_shape(self):
        tau = 0.5
        us = np.linspace(-1, 1, 2001)
        s = smooth_tail_weight(us, tau)
        assert np.all(np.diff(s) >= -1e-15)
        assert smooth_tail_weight(0.0, tau) == 0.0
        assert smooth_tail_weight(tau, tau) == 1.0
        assert np.all((s >= 0) & (s <= 1))
        # continuity on the grid
        assert np.max(np.abs(np.diff(s))) < 5e-3

    def test_tau_zero_reduces_to_hard_threshold(self):
        us = np.array([-0.5, 0.0, 1e-9, 0.3, 2.0])
        assert np.array_equal(smooth_tail_weight(us, 0.0), (us > 0).astype(float))

    def test_negative_tau_quantile_equals_h90(self):
        # index centered below zero: the tau quantile is negative, so the
        # smooth weight degenerates to the hard threshold
        rng = np.random.default_rng(33)
        n = 120
        Z = rng.normal(loc=-2.0, size=(n, 1))
        d = (rng.random(n) < 0.8).astype(float)
        y = d * rng.normal(size=n)
        data = make_data(d, y, np.zeros((n, 1)), Z)
        rule = TailRule(quantile=0.9, tau_quantile=0.5)
        a = as98_intercept(data, np.zeros(1), np.array([1.0]), rule)
        b = h90_intercept(data, np.zeros(1), np.array([1.0]), rule)
        assert a.theta == pytest.approx(b.theta, abs=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(34)
        n = 150
        Z = rng.normal(loc=1.0, size=(n, 3))
        d = (rng.random(n) < 0.7).astype(float)
        X = rng.normal(size=(n, 2))
        y = d * rng.normal(size=n)
        beta = rng.normal(size=2)
        gamma = np.array([1.0, 0.4, 0.2])
        data = make_data(d, y, X, Z)
        est = as98_intercept(data, beta, gamma, TailRule(quantile=0.85, tau_quantile=0.5))
        W = residualized_outcome(data, beta)
        idx = Z @ gamma
        oracle = as98_bruteforce(d, W, idx, float(np.quantile(idx, 0.85)),
                                 float(np.quantile(idx[np.asarray(d) > 0.5], 0.5)))
        assert est.theta == pytest.approx(oracle, abs=1e-10)

    def test_zero_total_weight_is_empty_tail(self):
        d = [1.0, 1.0, 0.0, 0.0]
        Z = np.array([[0.0], [0.1], [5.0], [6.0]])  # selected far below b_n
        data = make_data(d, [1.0, 1.0, 0.0, 0.0], np.zeros((4, 1)), Z)
        with pytest.raises(EstimationError, match="empty tail"):
            as98_intercept(data, np.zeros(1), np.array([1.0]),
                           TailRule(quantile=0.7, tau_quantile=0.4))

    def test_tail_rule_validation(self):
        with pytest.raises(ValueError):
            TailRule(quantile=1.5)
        with pytest.raises(ValueError):
            TailRule(tau_quantile=0.0)


class TestReferenceCells:
    """Frozen reference values for the comparison estimators on the two
    simulation designs (tolerance ±10%: same design, fresh random streams).
    """

    def test_two_step_table_cell(self):
        from snnselect.dgp import DgpSpec
        from snnselect.montecarlo import EstimatorConfig, run_cell

        st = run_cell(DgpSpec("dgp1", 400, rho=0.95, alpha=1.0),
                      EstimatorConfig(method="heckman"),
                      reps=1000, base_seed=20260809, workers=2)
        assert st.reps_failed == 0
        assert abs(st.rmse_scaled - 3.2917) <= 0.10 * 3.2917

    def test_hard_tail_mean_table_cell(self):
        from snnselect.dgp import DgpSpec
        from snnselect.montecarlo import EstimatorConfig, run_cell

        st = run_cell(DgpSpec("dgp1", 100, rho=0.95, alpha=2.0),
                      EstimatorConfig(method="h90"),
                      reps=1000, base_seed=20260809, workers=2)
        assert st.reps_failed == 0
        assert abs(st.rmse_scaled - 4.5641) <= 0.10 * 4.5641


class TestNormalCdfUse:
    def test_probit_fit_probabilities_in_range(self):
        data = probit_sample(1000, [1.0, 2.0], seed=35)
        g = probit_mle(data.d, data.Z)
        p = ndtr(data.Z @ g)
        assert np.all((p > 0) & (p < 1))


_SHIFT_FITS = {
    "ols": lambda data, draw: ols_selected(data).theta,
    "heckman": lambda data, draw: heckman_two_step(data).theta,
    "h90": lambda data, draw: h90_intercept(data, draw.beta0, draw.gamma0).theta,
    "as98": lambda data, draw: as98_intercept(data, draw.beta0, draw.gamma0).theta,
}


class TestShiftProperty:
    @given(method=st.sampled_from(sorted(_SHIFT_FITS)), family=st.sampled_from(["dgp1", "dgp2"]),
           rho=st.sampled_from([0.0, 0.5, 0.95]), seed=st.integers(0, 2**32 - 1),
           c=st.floats(-100.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_outcome_shift_on_selected_rows_moves_theta_by_c(self, method, family, rho, seed, c):
        # y + c*d adds c to every selected outcome, and each of these fits
        # reads y only through the selected rows
        draw = simulate(DgpSpec(family, 300, rho=rho, seed=seed))
        data = draw.dataset
        shifted = Dataset(data.d, data.y + c * data.d, data.X, data.Z)
        fit = _SHIFT_FITS[method]
        try:
            a = fit(data, draw)
        except EstimationError:  # failures depend on d, X and Z alone
            with pytest.raises(EstimationError):
                fit(shifted, draw)
            return
        b = fit(shifted, draw)
        assert abs(b - (a + c)) <= 1e-9 * (1.0 + abs(c) + abs(a))
