import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oracles import ks_loglik_bruteforce, loo_nw_bruteforce
from snnselect import derive_seed, nuisance
from snnselect.data import Dataset
from snnselect.dgp import DgpSpec, simulate
from snnselect.exceptions import EstimationError
from snnselect.nuisance import (
    _PROB_CLIP,
    _ks_loglik_and_grad,
    _loo_epanechnikov,
    klein_spady_gamma,
    klein_spady_objective,
    probit_gamma,
    robinson_beta,
    silverman_bandwidth,
)
from snnselect.registry import EstimatorConfig, fit


def make_data(d, y, X, Z):
    return Dataset(d=np.asarray(d, float), y=np.asarray(y, float),
                   X=np.asarray(X, float), Z=np.asarray(Z, float))


def selection_sample(n, gamma, seed=0, k=2, rho=0.0):
    rng = np.random.default_rng(seed)
    gamma = np.asarray(gamma, float)
    Z = rng.normal(size=(n, len(gamma)))
    v = rng.normal(size=n)
    d = (Z @ gamma >= v).astype(float)
    X = Z[:, :k]
    u = rho * v + np.sqrt(1 - rho**2) * rng.normal(size=n)
    y = d * (1.0 + X @ np.ones(k) + u)
    return make_data(d, y, X, Z)


# sha256 of the bytes of (estimates, valid) from _loo_epanechnikov on the
# dgp2 draw of test_dgp2_draw_bits_pinned at h = 0.05 and 0.5, as recorded
# when a valid row came to need another row in its open window
LOO_DGP2_DIGEST = "1d803182eb76"


class TestLooSmoother:
    def test_dgp2_draw_bits_pinned(self):
        # the Cauchy index puts the prefix sums near 1e13, where a kernel sum
        # over an empty window is rounding noise: the flags must still be
        # the oracle's
        draw = simulate(DgpSpec("dgp2", 3000, rho=0.5, alpha=1.5, seed=36))
        values = np.column_stack([draw.dataset.y, draw.dataset.X, draw.dataset.d])
        digest = hashlib.sha256()
        for h in (0.05, 0.5):  # both leave some rows with an empty window
            est, valid = _loo_epanechnikov(draw.index, values, h)
            oest, ovalid = loo_nw_bruteforce(draw.index, values, h)
            assert not valid.all()
            assert np.array_equal(valid, ovalid)
            if h == 0.5:
                # at 0.05, two valid rows still differ by about 4e-8, from
                # cancellation in the prefix sums themselves
                assert np.allclose(est[valid], oest[valid], atol=1e-9)
            digest.update(est.tobytes() + valid.tobytes())
        assert digest.hexdigest()[:12] == LOO_DGP2_DIGEST

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(36)
        for n in (15, 60):
            x = rng.normal(size=n)
            V = rng.normal(size=(n, 3))
            h = 0.7
            est, valid = _loo_epanechnikov(x, V, h)
            oest, ovalid = loo_nw_bruteforce(x, V, h)
            assert np.array_equal(valid, ovalid)
            assert np.allclose(est[valid], oest[valid], atol=1e-9)

    def test_neighbours_on_the_window_edge(self):
        # a 0.1 grid at h = 0.2: rows 1017.6 and 1017.8 see only each other,
        # on the window's open edge, where the kernel is 0 (up to rounding)
        x = 1000.0 + 0.1 * np.array([9, 27, 33, 48, 50, 71, 84, 87, 115, 164, 176, 178])
        V = np.arange(12.0)[:, None]
        with np.errstate(divide="raise", invalid="raise"):
            est, valid = _loo_epanechnikov(x, V, 0.2)
        oest, ovalid = loo_nw_bruteforce(x, V, 0.2)
        assert np.array_equal(valid, ovalid)
        assert np.allclose(est[valid], oest[valid], atol=1e-9)

    def test_flags_isolated_points(self):
        x = np.array([0.0, 0.01, 10.0])
        est, valid = _loo_epanechnikov(x, np.ones((3, 1)), 0.5)
        assert valid.tolist() == [True, True, False]


class TestHeavyTailedIndex:
    """dgp2's Cauchy covariates put far-tail rows alone in their windows."""

    def test_row_order_never_moves_snn_theta(self):
        config = EstimatorConfig("snn", nuisance="probit")
        for seed in range(30):
            data = simulate(DgpSpec("dgp2", 800, rho=0.5, seed=seed)).dataset
            perm = np.random.default_rng(seed).permutation(data.n)
            permuted = make_data(data.d[perm], data.y[perm], data.X[perm], data.Z[perm])
            a, b = _theta_or_reason(data, config), _theta_or_reason(permuted, config)
            if isinstance(a, str):
                assert a == b, seed
            else:
                assert abs(a - b) <= 1e-9 * abs(a), seed

    def test_klein_spady_value_matches_the_oracle(self):
        # the value at the probit start and the Silverman pilot, where
        # klein_spady_gamma begins
        for seed in range(6):
            data = simulate(DgpSpec("dgp2", 1000, rho=0.5, seed=seed)).dataset
            gamma = probit_gamma(data)
            index = data.Z @ gamma
            assert np.ptp(index) >= 1e5
            h = silverman_bandwidth(index)
            value = _ks_loglik_and_grad(data, gamma, h)[0]
            ovalue = ks_loglik_bruteforce(data.d, data.Z, gamma, h)[0]
            assert abs(value - ovalue) <= 1e-9 * abs(ovalue), seed


class TestRobinsonMemory:
    def test_peak_at_most_the_probit_peak(self, traced_peak):
        # the smoother holds a few columns of the selected rows at a time, so
        # Robinson's step never needs more memory than the probit before it
        data = simulate(DgpSpec("dgp1", 100_000, rho=0.5, seed=4242)).dataset
        gamma = probit_gamma(data)  # and scipy.special is loaded before tracing
        assert traced_peak(robinson_beta, data, gamma) <= traced_peak(probit_gamma, data)


class TestProbitGamma:
    def test_consistency(self):
        data = selection_sample(20000, [1.0, 2.0], seed=37)
        g = probit_gamma(data)
        assert g[0] == 1.0
        assert np.allclose(g, [1.0, 2.0], atol=0.1)

    def test_negative_first_coefficient_still_normalizes(self):
        # scaled by |g[0]|, so the index keeps its direction
        data = selection_sample(5000, [-1.0, 0.8], seed=38)
        g = probit_gamma(data)
        assert g[0] == -1.0
        assert g[1] == pytest.approx(0.8, abs=0.1)

    def test_normalization_impossible(self, monkeypatch):
        # the guard is numeric: a first coefficient within 1e-8 of zero, for
        # the fully iterated fit and for the k-step fit from a start alike
        import snnselect.nuisance as nuis

        monkeypatch.setattr(nuis, "probit_mle", lambda d, Z, start: np.array([5e-9, 1.0]))
        data = selection_sample(200, [0.0, 1.0], seed=39)
        for start in (None, np.array([0.5, 1.0])):
            with pytest.raises(EstimationError, match="normalization impossible"):
                nuis.probit_gamma(data, start)

    def test_start_takes_k_steps(self):
        # a start means the k-step fit from it, then the same normalization
        data = selection_sample(400, [1.0, 0.5], seed=41)
        start = np.array([0.9, 0.4])
        g = nuisance.probit_mle(data.d, data.Z, start)
        expected = (g / abs(g[0])).tobytes()
        assert probit_gamma(data, start).tobytes() == expected
        assert nuisance.fit_nuisance(data, "probit", start).gamma.tobytes() == expected
        with pytest.raises(ValueError, match="probit"):
            nuisance.fit_nuisance(data, "klein_spady", start)

    def test_constant_outcome(self):
        rng = np.random.default_rng(40)
        data = make_data(np.ones(100), np.ones(100), rng.normal(size=(100, 2)),
                         rng.normal(size=(100, 2)))
        with pytest.raises(EstimationError, match="probit failed"):
            probit_gamma(data)


class TestKleinSpady:
    def test_first_component_is_one(self):
        data = selection_sample(300, [1.0, 0.8, -0.3], seed=41)
        g = klein_spady_gamma(data)
        assert g[0] == 1.0

    def test_direction_consistency(self):
        truth = np.ones(5)
        data = selection_sample(2000, truth, seed=42, k=2)
        g = klein_spady_gamma(data)
        cos = (g @ truth) / (np.linalg.norm(g) * np.linalg.norm(truth))
        assert cos >= 0.98

    def test_negative_first_coefficient_keeps_the_direction(self):
        truth = np.array([-1.0, 0.8, -0.3])
        data = selection_sample(2000, truth, seed=46)
        g = klein_spady_gamma(data)
        assert g[0] == -1.0
        assert (g @ truth) / (np.linalg.norm(g) * np.linalg.norm(truth)) >= 0.98

    def test_objective_dominates_probit_start(self):
        data = selection_sample(400, [1.0, -0.6, 0.4], seed=43)
        start = probit_gamma(data)
        h = silverman_bandwidth(data.Z @ start)  # the pilot klein_spady_gamma fits at
        g = klein_spady_gamma(data)
        assert klein_spady_objective(data, g, h) >= klein_spady_objective(data, start, h) - 1e-8

    def test_degenerate_outcome(self):
        rng = np.random.default_rng(44)
        data = make_data(np.ones(200), np.ones(200), rng.normal(size=(200, 2)),
                         rng.normal(size=(200, 2)))
        with pytest.raises(EstimationError, match="degenerate outcome"):
            klein_spady_gamma(data)

    def test_small_sample_rejected(self):
        data = selection_sample(50, [1.0, 0.5], seed=45)
        with pytest.raises(EstimationError, match="insufficient sample"):
            klein_spady_gamma(data)

    def test_permutation_invariance(self):
        data = selection_sample(300, [1.0, 0.5], seed=46)
        rng = np.random.default_rng(47)
        perm = rng.permutation(data.n)
        data_p = make_data(data.d[perm], data.y[perm], data.X[perm], data.Z[perm])
        g1 = klein_spady_gamma(data)
        g2 = klein_spady_gamma(data_p)
        assert np.allclose(g1, g2, atol=1e-6)

    def test_one_selection_covariate_is_the_probit_normalization(self):
        data = selection_sample(300, [1.0], seed=48, k=1)
        assert klein_spady_gamma(data).tobytes() == probit_gamma(data).tobytes()

    def test_optimizer_failure_raises(self, monkeypatch):
        data = selection_sample(300, [1.0, 0.5], seed=49)

        def failing(fun, x0, **kwargs):
            return optimize.OptimizeResult(x=x0, fun=fun(x0), success=False)

        monkeypatch.setattr(optimize, "minimize", failing)
        with pytest.raises(EstimationError, match="no convergence"):
            klein_spady_gamma(data)

    def test_never_worse_than_the_start(self, monkeypatch):
        data = selection_sample(300, [1.0, 0.5], seed=50)
        tried = []

        def worse(fun, x0, **kwargs):
            x = x0 + 5.0  # far from the probit start
            tried.append(fun(x) > fun(x0))  # fun is the negative quasi-likelihood
            return optimize.OptimizeResult(x=x, fun=fun(x), success=True)

        monkeypatch.setattr(optimize, "minimize", worse)
        assert klein_spady_gamma(data).tobytes() == probit_gamma(data).tobytes()
        assert tried == [True]

    def test_every_point_is_evaluated_once(self, monkeypatch):
        # the final comparison of the fit and its start reads the values the
        # optimizer computed
        data = simulate(DgpSpec("dgp1", 600, rho=0.5, seed=11)).dataset
        evaluations, results = [], []
        ks_evaluator, minimize = nuisance._ks_evaluator, optimize.minimize

        def counted(data, h):
            evaluate = ks_evaluator(data, h)

            def each(gamma):
                evaluations.append(gamma.tobytes())
                return evaluate(gamma)

            return each

        def kept(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(nuisance, "_ks_evaluator", counted)
        monkeypatch.setattr(optimize, "minimize", kept)
        g = klein_spady_gamma(data)
        assert len(evaluations) == results[0].nfev == len(set(evaluations))
        assert g.tobytes() in evaluations and probit_gamma(data).tobytes() in evaluations

    # Nelder-Mead used up its 2000 evaluations and raised on each of these
    @pytest.mark.parametrize("spec", [
        DgpSpec("dgp1", 600, rho=0.5, seed=11),
        DgpSpec("dgp1", 1500, rho=0.5, seed=21),
        DgpSpec("dgp1", 400, rho=0.3, theta0=1.5, seed=13),
    ])
    def test_fits_samples_nelder_mead_could_not(self, spec):
        data = simulate(spec).dataset
        g = klein_spady_gamma(data)
        start = probit_gamma(data)
        h = silverman_bandwidth(data.Z @ start)
        assert g[0] == 1.0
        assert klein_spady_objective(data, g, h) > klein_spady_objective(data, start, h)

    def test_every_seeded_dgp1_draw_fits(self):
        for seed in range(40):
            data = simulate(DgpSpec("dgp1", 400, rho=0.5, seed=seed)).dataset
            assert np.all(np.isfinite(klein_spady_gamma(data))), seed


def _ks_sample(n, seed, far_row=False, separated=False):
    """A selection sample and a random gamma (first component 1) near the
    generating one."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, 3))
    gamma = np.concatenate([[1.0], rng.normal(size=2)])
    if far_row:
        Z[0, 0] = 100.0  # its window holds no other row: the fallback
    v = 0.0 if separated else rng.normal(size=n)
    d = (Z @ gamma >= v).astype(float)  # separated: many p_hat clip at 0 or 1
    gamma[1:] += 0.2 * rng.normal(size=2)
    return make_data(d, d, Z[:, :1], Z), gamma


class TestKleinSpadyGradient:
    """The fast value and gradient against a double loop that differentiates
    each kernel weight; central differences are no oracle on this kinked
    surface."""

    @pytest.mark.parametrize("n,seed,far_row,separated", [
        (15, 60, False, False),
        (60, 61, False, False),
        (300, 62, False, False),
        (60, 63, True, False),
        (300, 64, False, True),
    ])
    def test_matches_bruteforce(self, n, seed, far_row, separated):
        data, gamma = _ks_sample(n, seed, far_row, separated)
        h = 0.8 if n == 15 else 0.5
        value, grad = _ks_loglik_and_grad(data, gamma, h)
        ovalue, ograd = ks_loglik_bruteforce(data.d, data.Z, gamma, h)
        assert abs(value - ovalue) <= 1e-9 * abs(ovalue)
        assert np.all(np.abs(grad - ograd) <= 1e-9 * np.maximum(1.0, np.abs(ograd)))
        assert klein_spady_objective(data, gamma, h) == value
        p, valid = _loo_epanechnikov(data.Z @ gamma, data.d[:, None], h)
        # the objective is the log-likelihood of Robinson's smooth of d, bit for bit
        fallback = float(np.clip(data.d.mean(), _PROB_CLIP, 1.0 - _PROB_CLIP))
        q = np.clip(np.where(valid, p[:, 0], fallback), _PROB_CLIP, 1.0 - _PROB_CLIP)
        assert value == float(data.d @ np.log(q) + (1.0 - data.d) @ np.log(1.0 - q))
        if far_row:
            assert not valid[0]
        if separated:
            clipped = (p[valid, 0] <= _PROB_CLIP) | (p[valid, 0] >= 1.0 - _PROB_CLIP)
            assert 0 < clipped.sum() < valid.sum()


# sha256 of the bytes of (value, gradient) at the 8 gammas of
# _ks_design_gammas, as recorded before a fit's evaluations came to share
# their work arrays
KS_DESIGN_DIGEST = "5251723cf3b6"


def _ks_design_gammas():
    """The estimate-ks-4000 benchmark's design sample (dgp1, n = 4000,
    l = 7), the Silverman pilot of its probit index, and 8 gammas: the
    probit start and 7 perturbations of its free components."""
    data = simulate(DgpSpec("dgp1", 4000, rho=0.5, alpha=2.0,
                            seed=derive_seed(0, "estimate-ks-4000", 0))).dataset
    start = probit_gamma(data)
    rng = np.random.default_rng(35)
    gammas = [start] + [np.concatenate([start[:1], start[1:] + 0.05 * rng.normal(size=data.l - 1)])
                        for _ in range(7)]
    return data, silverman_bandwidth(data.Z @ start), gammas


class TestKleinSpadyWorkArrays:
    """A fit's evaluations write into work arrays allocated once per fit."""

    def test_design_sample_bits_pinned(self):
        # one evaluator across all 8 gammas, its arrays first filled at
        # another gamma: each evaluation is bitwise a one-off call
        data, h, gammas = _ks_design_gammas()
        evaluate = nuisance._ks_evaluator(data, h)
        evaluate(gammas[-1])
        digest = hashlib.sha256()
        for gamma in gammas:
            value, grad = evaluate(gamma)
            once = _ks_loglik_and_grad(data, gamma, h)
            assert value == once[0] and grad.tobytes() == once[1].tobytes()
            digest.update(np.float64(value).tobytes() + grad.tobytes())
        assert digest.hexdigest()[:12] == KS_DESIGN_DIGEST

    def test_an_evaluation_allocates_no_work_arrays(self, traced_peak):
        # the one-off call holds about 4.2 MB here, most of it the (2, 15,
        # n) stacks; an evaluation of a fit holds the row arrays alone
        data, h, gammas = _ks_design_gammas()
        evaluate = nuisance._ks_evaluator(data, h)
        evaluate(gammas[0])
        assert traced_peak(evaluate, gammas[1]) <= 2_000_000


class TestStableOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=300),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=1, max_size=100),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50),
        st.tuples(st.floats(-1e6, 1e6), st.integers(1, 200)).map(lambda t: [t[0]] * t[1]),
        st.tuples(st.integers(1, 2000), st.integers(0, 2**32 - 1)).map(
            lambda t: np.random.default_rng(t[1]).normal(size=t[0])[
                np.random.default_rng(t[1] + 1).integers(0, t[0], size=t[0])].tolist()),
    ))
    def test_is_the_stable_argsort(self, values):
        # small integers as floats, a mix of +-0.0, any floats with NaN and
        # inf, all values equal, and resample-style duplicates of a draw
        x = np.asarray(values, dtype=float)
        assert np.array_equal(nuisance._stable_order(x), np.argsort(x, kind="stable"))

    @pytest.mark.parametrize("x", [[5.0], [1.0, 1.0], [2.0, 1.0], [-0.0, 0.0], [0.0, -0.0]])
    def test_one_and_two_rows(self, x):
        x = np.asarray(x)
        assert np.array_equal(nuisance._stable_order(x), np.argsort(x, kind="stable"))


class TestRobinson:
    def test_exact_recovery_noiseless_linear(self):
        rng = np.random.default_rng(48)
        n, k = 300, 3
        X = rng.normal(size=(n, k))
        Z = np.column_stack([rng.normal(size=n), X])
        beta = np.array([1.5, -0.5, 2.0])
        y = 4.0 + X @ beta  # no noise, d = 1 everywhere
        data = make_data(np.ones(n), y, X, Z)
        est = robinson_beta(data, np.array([1.0, 0.0, 0.0, 0.0]), bandwidth=0.5)
        assert np.allclose(est, beta, atol=1e-8)

    def test_pure_noise_slopes_near_zero(self):
        rng = np.random.default_rng(49)
        n, k = 5000, 2
        X = rng.normal(size=(n, k))
        Z = np.column_stack([rng.normal(size=n), X])
        y = rng.normal(size=n)
        data = make_data(np.ones(n), y, X, Z)
        est = robinson_beta(data, np.array([1.0, 0.0, 0.0]))
        assert np.all(np.abs(est) <= 0.1)

    def test_insufficient_selected(self):
        rng = np.random.default_rng(50)
        n, k = 40, 3
        d = np.zeros(n)
        d[:5] = 1.0
        data = make_data(d, rng.normal(size=n), rng.normal(size=(n, k)),
                         rng.normal(size=(n, 2)))
        with pytest.raises(EstimationError, match="insufficient selected"):
            robinson_beta(data, np.array([1.0, 0.0]))

    def test_too_few_rows_with_a_neighbour(self):
        # 20 selected rows 10 apart, one pair 0.5 apart: at h = 1 only the
        # pair has another row in its window, 2 < k + 2
        n, k = 20, 2
        z = np.arange(n) * 10.0
        z[1] = 0.5
        rng = np.random.default_rng(54)
        data = make_data(np.ones(n), rng.normal(size=n), rng.normal(size=(n, k)), z)
        with pytest.raises(EstimationError, match="^singular design$"):
            robinson_beta(data, np.array([1.0]), bandwidth=1.0)

    def test_rank_deficient_residual_design(self):
        rng = np.random.default_rng(55)
        n = 200
        x = rng.normal(size=n)
        data = make_data(np.ones(n), rng.normal(size=n), np.column_stack([x, x]),
                         rng.normal(size=(n, 2)))
        with pytest.raises(EstimationError, match="^singular design$"):
            robinson_beta(data, np.array([1.0, 0.5]), bandwidth=0.5)

    def test_huge_bandwidth_degenerates_to_demeaned_ols(self):
        rng = np.random.default_rng(51)
        n, k = 200, 2
        X = rng.normal(size=(n, k))
        Z = np.column_stack([rng.normal(size=n), X])
        y = 1.0 + X @ np.array([0.7, -1.2]) + rng.normal(size=n)
        data = make_data(np.ones(n), y, X, Z)
        est = robinson_beta(data, np.array([1.0, 0.0, 0.0]), bandwidth=1e6)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        expected = np.linalg.lstsq(Xc, yc, rcond=None)[0]
        assert np.allclose(est, expected, atol=1e-6)

    def test_permutation_invariance(self):
        data = selection_sample(400, [1.0, 0.3, 0.3], seed=52)
        gamma = np.array([1.0, 0.3, 0.3])
        rng = np.random.default_rng(53)
        perm = rng.permutation(data.n)
        data_p = make_data(data.d[perm], data.y[perm], data.X[perm], data.Z[perm])
        b1 = robinson_beta(data, gamma, 0.5)
        b2 = robinson_beta(data_p, gamma, 0.5)
        assert np.allclose(b1, b2, atol=1e-8)


class TestNuisanceBundle:
    def test_fit_nuisance_probit_route(self):
        from snnselect.nuisance import NuisanceEstimates, fit_nuisance

        data = selection_sample(500, [1.0, 0.6, -0.2], seed=55)
        est = fit_nuisance(data, gamma_method="probit")
        assert isinstance(est, NuisanceEstimates)
        assert est.gamma[0] == 1.0
        assert est.gamma.tobytes() == probit_gamma(data).tobytes()
        assert est.beta.tobytes() == robinson_beta(data, est.gamma).tobytes()
        assert est.beta.shape == (2,)

    def test_normalization_enforced(self):
        from snnselect.nuisance import NuisanceEstimates

        with pytest.raises(ValueError):
            NuisanceEstimates(np.zeros(2), np.array([0.5, 1.0]))
        assert NuisanceEstimates(np.zeros(2), np.array([-1.0, 0.5])).gamma[0] == -1.0
        with pytest.raises(ValueError):
            NuisanceEstimates(np.array([np.nan]), np.array([1.0]))


def _theta_or_reason(data, config):
    try:
        return fit(data, config)[0].theta
    except EstimationError as exc:
        return str(exc)


class TestIndexDirection:
    @given(family=st.sampled_from(["dgp1", "dgp2"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_negating_the_normalizing_column(self, family, seed):
        # negating Z's first column (and its twin, X's first column) flips
        # the sign of the probit's first coefficient; the normalized index,
        # and so every estimate on it, must not move, nor may OLS's or the
        # two-step's intercept
        data = simulate(DgpSpec(family, 400, rho=0.5, seed=seed)).dataset
        flip = np.ones(data.l)
        flip[0] = -1.0
        flipped = make_data(data.d, data.y, data.X * flip[:data.k], data.Z * flip)
        for method in ("snn", "ols", "heckman", "h90", "as98"):
            config = EstimatorConfig(method, nuisance="probit")
            a = _theta_or_reason(data, config)
            b = _theta_or_reason(flipped, config)
            if isinstance(a, str):
                assert a == b, method
            else:
                assert abs(a - b) <= 1e-9, method


class TestSilverman:
    def test_scales_with_n(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=1000)
        h1 = silverman_bandwidth(x)
        h2 = silverman_bandwidth(np.repeat(x, 32))
        assert h2 == pytest.approx(h1 * 32 ** (-0.2), rel=1e-6)

    def test_degenerate_index(self):
        with pytest.raises(EstimationError, match="degenerate index"):
            silverman_bandwidth(np.zeros(100))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=200),
        st.tuples(st.sampled_from(["normal", "cauchy"]), st.integers(5, 5000),
                  st.integers(0, 2**32 - 1)).map(
            lambda t: getattr(np.random.default_rng(t[2]),
                              "standard_" + t[0])(size=t[1]).tolist()),
    ))
    def test_bitwise_the_two_quantile_calls(self, values):
        # both quartiles from one np.quantile call are the two calls' bits
        x = np.asarray(values)
        iqr = float(np.quantile(x, 0.75) - np.quantile(x, 0.25))
        scale = min(float(x.std()), iqr / 1.349) if iqr > 0 else float(x.std())
        if scale <= 0.0:
            with pytest.raises(EstimationError, match="degenerate index"):
                silverman_bandwidth(x)
        else:
            assert repr(silverman_bandwidth(x)) == repr(1.06 * scale * len(x) ** (-0.2))


_IMPORT_FOOTPRINT = """
import json, os, sys
from pathlib import Path
import snnselect

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import snnselect": scipy_modules(),
        "pool at import": [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]}
out, steps = Path(sys.argv[1]), sys.argv[2:]
from snnselect.cli import cli_main
from snnselect.montecarlo import TablePlan, run_table
from snnselect.registry import EstimatorConfig

def cli(*argv, code=0):
    assert cli_main(list(argv)) == code, argv

def table(*configs, workers=1):
    run_table(TablePlan("dgp2", 200, list(configs), rhos=(0.5,), alphas=(2.0,), reps=3), 7, workers=workers)

def two_worker_table():
    os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
    table(EstimatorConfig("ols"), workers=2)

def decompose():
    rows = (out / "s.csv").read_text().splitlines()
    (out / "g.csv").write_text("\\n".join([rows[0] + ",g"] + [f"{r},{i % 2}" for i, r in enumerate(rows[1:])]))
    cli("decompose", str(out / "g.csv"), *columns, "--group-col", "g", "--nuisance", "probit",
        "--bootstrap", "2", "--format", "json", "--out", str(out / "d.json"))

csv = str(out / "s.csv")
columns = ("--outcome-col", "y", "--selection-col", "d", "--x-cols", "x1,x2,x3,x4",
           "--z-cols", "z1,z2,z3,z4,z5,z6,z7")
STEPS = {
    "simulate": lambda: cli("simulate", "--n", "400", "--rho", "0.5", "--seed", "3", "--out", csv),
    "kernel-check": lambda: cli("kernel-check", "--format", "json", "--out", str(out / "k.json")),
    "true-nuisance table": lambda: table(*(EstimatorConfig(m) for m in ("snn", "ols", "h90", "as98"))),
    "mc-table snn": lambda: cli("mc-table", "--dgp", "dgp1", "--n", "100", "--reps", "2", "--rho", "0",
                                "--alpha", "2", "--estimator", "snn", "--workers", "1", "--format", "json",
                                "--out", str(out / "m.json")),
    "rate-check snn": lambda: cli("rate-check", "--ns", "50,100,200", "--reps", "2", "--workers", "1",
                                  "--format", "json", "--out", str(out / "r.json")),
    "ident-check": lambda: cli("ident-check", "--points", "3", "--format", "json", "--out", str(out / "i.json")),
    # the module loads before the command reads its data
    "estimate of a missing file": lambda: cli("estimate", str(out / "missing.csv"), *columns, code=1),
    "estimate --nuisance probit": lambda: cli(
        "estimate", csv, *columns, "--nuisance", "probit", "--format", "json", "--out", str(out / "e.json")),
    "decompose --workers 1": decompose,
    "heckman table": lambda: table(EstimatorConfig("heckman"), EstimatorConfig("snn", nuisance="probit")),
    "klein_spady_gamma": lambda: snnselect.klein_spady_gamma(
        snnselect.load_csv(csv, snnselect.default_schema(4, 7))),
    "2-worker table": two_worker_table,
}
for step in steps:
    STEPS[step]()
    seen[step] = {m: m in sys.modules for m in ("scipy.special", "scipy.optimize", "concurrent.futures",
                                                "concurrent.futures.process", "multiprocessing")}
    seen[step]["scipy"] = scipy_modules()
print(json.dumps(seen))
"""

_SINGLE_PROCESS_CHAIN = ("simulate", "kernel-check", "true-nuisance table", "mc-table snn",
                         "rate-check snn", "estimate of a missing file", "estimate --nuisance probit",
                         "decompose --workers 1", "klein_spady_gamma")


@pytest.fixture(scope="module")
def footprints(fresh_python, tmp_path_factory):
    """Which modules are loaded after each step.  One interpreter runs every
    single-process path in turn and then a 2-worker table; a second runs
    only the heckman table and a third only ident-check, so that each is
    the first to need scipy.special."""
    out = str(tmp_path_factory.mktemp("footprint"))
    chain = fresh_python(_IMPORT_FOOTPRINT, out, *_SINGLE_PROCESS_CHAIN, "2-worker table")
    return (chain, fresh_python(_IMPORT_FOOTPRINT, out, "heckman table"),
            fresh_python(_IMPORT_FOOTPRINT, out, "ident-check"))


def _steps(record: dict) -> dict:
    return {step: seen for step, seen in record.items() if step not in ("import snnselect", "pool at import")}


def test_only_the_klein_spady_fit_loads_scipy_optimize(footprints):
    chain, heckman, ident = footprints
    assert {step: seen["scipy.optimize"] for step, seen in _steps(chain).items()} == {
        "simulate": False, "kernel-check": False, "true-nuisance table": False, "mc-table snn": False,
        "rate-check snn": False, "estimate of a missing file": False, "estimate --nuisance probit": False,
        "decompose --workers 1": False, "klein_spady_gamma": True, "2-worker table": True,
    }
    assert heckman["heckman table"]["scipy.optimize"] is False
    assert ident["ident-check"]["scipy.optimize"] is False


def test_scipy_special_loads_at_first_use_or_before_a_csv_is_read(footprints):
    chain, heckman, ident = footprints
    assert chain["import snnselect"] == heckman["import snnselect"] == ident["import snnselect"] == []
    assert {step: seen["scipy.special"] for step, seen in _steps(chain).items()} == {
        "simulate": False, "kernel-check": False, "true-nuisance table": False, "mc-table snn": False,
        "rate-check snn": False, "estimate of a missing file": True, "estimate --nuisance probit": True,
        "decompose --workers 1": True, "klein_spady_gamma": True, "2-worker table": True,
    }
    assert heckman["heckman table"]["scipy.special"] is True
    assert ident["ident-check"]["scipy.special"] is True


def test_simulate_and_kernel_check_load_no_scipy(footprints):
    chain = footprints[0]
    assert chain["simulate"]["scipy"] == chain["kernel-check"]["scipy"] == []


def test_import_loads_no_process_pool(footprints):
    for record in footprints:
        assert record["pool at import"] == []


def test_only_a_pool_loads_the_process_pool_modules(footprints):
    chain, heckman, ident = footprints
    pool = ("concurrent.futures.process", "multiprocessing")
    for step in _SINGLE_PROCESS_CHAIN:
        assert [m for m in pool if chain[step][m]] == [], step
    assert [m for m in pool if heckman["heckman table"][m] or ident["ident-check"][m]] == []
    # scipy may import the concurrent.futures package (not its process pool)
    # itself, so the package is only required absent until scipy.special loads
    assert [step for step in _SINGLE_PROCESS_CHAIN
            if chain[step]["concurrent.futures"] and not chain[step]["scipy.special"]] == []
    assert all(chain["2-worker table"][m] for m in ("concurrent.futures",) + pool)
