"""The stacked bodies and the block fit built on them.

Every row of a stacked snn, h90, as98 or rank body is bitwise the R = 1
call on its sample, and a row that fails there is in the body's errors
with the same reason.  Since ``fit`` is the block fit on a block of one, and
the public R = 1 functions are ``fit``, the block fit is checked against
``_reference``: each body called on one row whose inputs are built apart
from ``Block``, by ``eta_hat``, ``data.Z @ gamma`` and
``residualized_outcome``.  Over a block, ``fit_thetas`` gives each
dataset's reference theta, NaN exactly where the failure rule written out
in ``_reference`` finds a reason, and ``fit`` raises that reason, for every
method, without calling the R = 1 functions or ``fit``."""
import dataclasses
import math

import numpy as np
import pytest

from oracles import ols_lstsq, pilot_bandwidth, polynomial_pilot, two_step_lstsq
from snnselect import baselines, estimator, nuisance, registry
from snnselect.baselines import (
    TailRule,
    _as98_rows,
    _ols_rows,
    _selected_quantile,
    _tail_rows,
    _two_step_rows,
    probit_mle,
)
from snnselect.data import Dataset
from snnselect.dgp import DgpSpec, simulate
from snnselect.estimator import BandwidthRule, _snn_rows, residualized_outcome
from snnselect.exceptions import EstimationError
from snnselect.nuisance import fit_nuisance
from snnselect.ranks import _rank_rows, eta_hat
from snnselect.registry import (
    METHODS,
    Block,
    EstimatorConfig,
    as98_intercept,
    fit,
    fit_thetas,
    h90_intercept,
    snn_intercept,
)

N = 100


def _mixed_samples():
    """(names, datasets, beta, gamma): n = 100 samples sharing the dgp1
    generating (beta, gamma), chosen to reach every branch of the stacked
    fits beside ordinary rows."""
    names, datasets = [], []
    for seed in range(12):
        draw = simulate(DgpSpec("dgp1", N, rho=0.5, seed=seed))
        names.append(f"dgp1-{seed}")
        datasets.append(draw.dataset)
    beta, gamma = draw.beta0, draw.gamma0
    base = datasets[0]
    # coarse covariates tie many index values, six of them at the top, so a
    # fixed h of 0.05 must widen before a second rank has weight
    Z = np.round(base.Z, 0)
    Z[:6] = 3.0
    d = (Z @ gamma >= simulate(DgpSpec("dgp1", N, seed=99)).v).astype(float)
    X = Z[:, :4]
    tied = Dataset(d, d * (1.0 + X @ beta), X, Z)
    # selected only below the index median, under every tail threshold:
    # h90's and as98's tails are empty
    low = (base.Z @ gamma < np.quantile(base.Z @ gamma, 0.5)).astype(float)
    nobody = np.zeros(N)  # no selected row: as98's tail is empty too
    names += ["tied", "low-selected", "none-selected"]
    datasets += [tied,
                 Dataset(low, low * base.y, base.X, base.Z),
                 Dataset(nobody, nobody, base.X, base.Z)]
    return names, datasets, beta, gamma


# at fixed h = 0.0125 the one rank below the top that has weight sits at
# u = -0.8, where the order-4 kernel is negative: the local design is
# degenerate in every row without ties at the top
_SNN_RULES = [(BandwidthRule.plug_in(), 2), (BandwidthRule.plug_in(1.5), 4),
              (BandwidthRule.fixed(0.05), 2), (BandwidthRule.fixed(0.3), 4),
              (BandwidthRule.fixed(0.0125), 4)]
_TAIL_RULES = [TailRule(), TailRule(0.9, 0.3)]


def _alone(fn, *args):
    try:
        return fn(*args), None
    except EstimationError as exc:
        return None, str(exc)


def _row0(rows, errors):
    """Row 0 of a stacked body's (rows, errors), or its error raised."""
    if errors:
        raise EstimationError(errors[0])
    return rows._make(value[0] if value.ndim > 1 else value[0].item() for value in rows)


def _reference(data, config, generating):
    """(result, reason) of one dataset by its method's body on one row, with
    the failure rule written out: the nuisance fit's error, then the body's
    error (for snn, ``eta_hat``'s first), then a non-finite theta, then a
    non-finite standard error.  ``generating`` is the (beta, gamma) of
    ``nuisance=None``."""
    beta, gamma = generating
    if METHODS[config.method].needs_nuisance and config.nuisance is not None:
        est, message = _alone(fit_nuisance, data, config.nuisance)
        if message is not None:
            return None, message
        beta, gamma = est.beta, est.gamma
    if METHODS[config.method].needs_nuisance:
        index, W = (data.Z @ gamma)[None], residualized_outcome(data, beta)[None]
    D, X, Y, Z = data.d[None], data.X[None], data.y[None], data.Z[None]
    one = {
        "snn": lambda: _row0(*_snn_rows(eta_hat(data.Z, gamma)[None], index, W,
                                        config.kernel_order, config.bandwidth)),
        "h90": lambda: _row0(*_tail_rows(D, index, W, config.tail, np.zeros(1))),
        "as98": lambda: _row0(*_as98_rows(D, index, W, config.tail)),
        "ols": lambda: _row0(*_ols_rows(D, X, Y)),
        "heckman": lambda: _row0(*_two_step_rows(D, X, Y, Z)),
    }[config.method]
    with np.errstate(over="ignore", invalid="ignore"):
        result, message = _alone(one)
    if message is not None:
        return None, message
    for name in ("theta", "std_error", "std_errors"):
        if getattr(result, name, None) is not None and not np.isfinite(getattr(result, name)).all():
            return None, f"non-finite {name}"
    return result, None


def _assert_block_fit(thetas, datasets, config, nuisances):
    """Each of the block's ``thetas``, and ``fit`` alone on each dataset,
    against ``_reference``; returns the reference reasons."""
    reasons = []
    for i, data in enumerate(datasets):
        want, reason = _reference(data, config, nuisances[i])
        expected = math.nan if want is None else want.theta
        assert np.float64(thetas[i]).tobytes() == np.float64(expected).tobytes(), (config, i, reason)
        got, message = _alone(fit, data, config, {None: nuisances[i]})
        assert message == reason, (config, i)
        if want is not None:
            assert np.float64(got[0].theta).tobytes() == np.float64(want.theta).tobytes(), (config, i)
        reasons.append(reason)
    return reasons


def _pieces(count):
    order = list(range(count))
    pieces = [[i] for i in order]
    for members in (order, order[::-1]):
        pieces += [members, members[:5], members[5:11], members[11:]]
    return pieces


def _assert_rows_match(name, rows, errors, row, alone, message):
    """Row ``row`` of a stacked body's result (rows, errors) against the
    sample's R = 1 call."""
    if alone is None:
        assert errors[row] == message, name
        return
    assert row not in errors, name
    for field in ("theta", "std_error", "bandwidth"):
        want = np.float64(getattr(alone, field)).tobytes()
        assert np.float64(getattr(rows, field)[row]).tobytes() == want, (name, field)
    assert rows.effective_n[row] == alone.effective_n, name


class TestRowsMatchAlone:
    def setup_method(self):
        self.names, self.datasets, self.beta, self.gamma = _mixed_samples()
        self.index = np.stack([data.Z @ self.gamma for data in self.datasets])
        self.W = np.stack([residualized_outcome(data, self.beta) for data in self.datasets])
        self.D = np.stack([data.d for data in self.datasets])

    def test_ranks(self):
        eta = _rank_rows(self.index)
        for i, data in enumerate(self.datasets):
            assert eta[i].tobytes() == eta_hat(data.Z, self.gamma).tobytes(), self.names[i]

    def test_ranks_match_sort_and_searchsorted(self):
        # the one-sort reference: ties, infinities and NaN, which sorts last
        # and ties with NaN there
        rng = np.random.default_rng(11)
        index = np.round(rng.normal(size=(6, 40)), 1)
        index[1, :3] = np.inf
        index[2, :5] = -np.inf
        index[3, [4, 9, 17]] = np.nan
        index[4] = 2.5
        eta = _rank_rows(index)
        for row, values in zip(eta, index):
            want = np.searchsorted(np.sort(values), values, side="right") / values.size
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rule, order", _SNN_RULES)
    def test_snn(self, rule, order, monkeypatch):
        pilots = []
        real = estimator._ls_rows

        def counted(*args):
            pilots.append(1)
            return real(*args)

        monkeypatch.setattr(estimator, "_ls_rows", counted)
        alone = [_alone(snn_intercept, data, self.beta, self.gamma, order, rule)
                 for data in self.datasets]
        if rule.kind == "plugin":
            assert pilots, "no row took the pilot path"
        if rule.value == 0.05:
            tied = self.names.index("tied")
            assert alone[tied][0].bandwidth > 0.05, "the tied sample did not widen"
        if rule.value == 0.0125:
            assert {message for _, message in alone} >= {"degenerate local design"}
        eta = _rank_rows(self.index)
        for members in _pieces(len(self.datasets)):
            rows, errors = _snn_rows(eta[members], self.index[members], self.W[members], order, rule)
            for row, i in enumerate(members):
                _assert_rows_match(self.names[i], rows, errors, row, *alone[i])

    @pytest.mark.parametrize("rule", _TAIL_RULES)
    @pytest.mark.parametrize("method", ["h90", "as98"])
    def test_tail_means(self, method, rule):
        one = {"h90": h90_intercept, "as98": as98_intercept}[method]
        alone = [_alone(one, data, self.beta, self.gamma, rule) for data in self.datasets]
        assert alone[self.names.index("low-selected")][1] == "empty tail"
        assert alone[self.names.index("none-selected")][1] == "empty tail"
        for members in _pieces(len(self.datasets)):
            args = (self.D[members], self.index[members], self.W[members], rule)
            if method == "h90":
                rows, errors = _tail_rows(*args, np.zeros(len(members)))
            else:
                rows, errors = _as98_rows(*args)
            for row, i in enumerate(members):
                _assert_rows_match(self.names[i], rows, errors, row, *alone[i])

    def test_plug_in_on_a_small_sample_fails_every_row(self):
        index, W = self.index[:, :20], self.W[:, :20]
        with pytest.raises(EstimationError, match="insufficient sample"):
            _snn_rows(_rank_rows(index), index, W, 2, BandwidthRule.plug_in())


def _counted(monkeypatch, targets):
    """Rebind each (module, name) in ``targets`` to count its calls; returns
    the list of names called, one entry per outermost call (``_as98_rows``
    calls ``_tail_rows`` inside)."""
    calls, depth = [], []
    for module, name in targets:
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            if not depth:
                calls.append(name)
            depth.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(module, name, counted)
    return calls


_BODIES = ((estimator, "_snn_rows"), (baselines, "_tail_rows"), (baselines, "_as98_rows"),
           (baselines, "_ols_rows"), (baselines, "_two_step_rows"))


class TestFitThetas:
    CONFIGS = [EstimatorConfig("snn"), EstimatorConfig("snn", kernel_order=4,
                                                       bandwidth=BandwidthRule.fixed(0.0125)),
               EstimatorConfig("h90"), EstimatorConfig("as98", tail=TailRule(0.9, 0.3))]

    def _check(self, datasets, nuisances, stacked_calls):
        """Each config in one stacked call over the block, with theta i
        bitwise the R = 1 call on dataset i and its (beta, gamma)."""
        for config in self.CONFIGS:
            block = Block(datasets, [{None: (beta.copy(), gamma.copy())} for beta, gamma in nuisances])
            del stacked_calls[:]  # the R = 1 references below call the bodies too
            thetas = fit_thetas(block, config)
            assert len(stacked_calls) == 1, config
            _assert_block_fit(thetas, datasets, config, nuisances)

    def _count_stacked(self, monkeypatch):
        return _counted(monkeypatch, _BODIES)

    def test_block_matches_fit_one_at_a_time(self, monkeypatch):
        _, datasets, beta, gamma = _mixed_samples()
        self._check(datasets, [(beta, gamma)] * len(datasets), self._count_stacked(monkeypatch))

    def test_failed_rows_rerun_alone_with_their_reason(self, monkeypatch):
        # a zero gamma fails each sample alone in eta_hat; the stacked pass
        # finds the same failure itself, so every row is NaN from that one
        # pass and nothing reruns the scalar fit
        _, datasets, beta, gamma = _mixed_samples()
        nuisances = [(beta, np.zeros_like(gamma))] * len(datasets)
        calls = self._count_stacked(monkeypatch)
        scalar = _counted(monkeypatch, [(registry, "snn_intercept"), (registry, "fit")])
        block = Block(datasets, [{None: nuisance} for nuisance in nuisances])
        thetas = fit_thetas(block, EstimatorConfig("snn"))
        assert np.isnan(thetas).all()
        assert calls == ["_snn_rows"] and scalar == []
        reasons = _assert_block_fit(thetas, datasets, EstimatorConfig("snn"), nuisances)
        assert reasons == ["degenerate index"] * len(datasets)

    def test_non_finite_rows_rerun_alone(self):
        # scaled by 1e200 every theta stays finite, but snn's and the tail
        # means' standard errors overflow; those rows must fail alone
        _, datasets, beta, gamma = _mixed_samples()
        scaled = [dataclasses.replace(data, y=data.y * 1e200) for data in datasets]
        fitted = [{None: (beta * 1e200, gamma)} for _ in scaled]
        for method in ("snn", "h90", "as98"):
            thetas = fit_thetas(Block(scaled, fitted), EstimatorConfig(method))
            messages = _assert_block_fit(thetas, scaled, EstimatorConfig(method),
                                         [nuisance[None] for nuisance in fitted])
            # all but the three samples built to fail otherwise or not at all
            assert messages.count("non-finite std_error") >= len(scaled) - 3, method

    def test_per_draw_nuisance_in_one_stacked_call(self, monkeypatch):
        # gammas that differ per draw in their last bits still run stacked
        _, datasets, beta, gamma = _mixed_samples()
        nuisances = [(beta, gamma * (1.0 + 1e-12 * i)) for i in range(len(datasets))]
        self._check(datasets, nuisances, self._count_stacked(monkeypatch))

    def test_failed_nuisance_fits_fail_alone_with_their_reason(self, monkeypatch):
        # two constant-d draws among fitted-nuisance draws: their probit
        # fails, so those rows are NaN with the stored error as their reason,
        # while every other row is its R = 1 call from the stacked pass
        draws = [simulate(DgpSpec("dgp1", 200, rho=0.5, seed=seed)).dataset for seed in range(8)]
        base = draws[0]
        draws[2] = Dataset(np.zeros(base.n), np.zeros(base.n), base.X, base.Z)
        draws[5] = Dataset(np.ones(base.n), base.y, base.X, base.Z)
        # the configs that fit every draw whose nuisance fit succeeds
        configs = [dataclasses.replace(self.CONFIGS[i], nuisance="probit") for i in (0, 2, 3)]
        block = Block(draws, [{} for _ in draws])
        block.under("probit")  # the nuisance fits, before anything is counted
        calls = self._count_stacked(monkeypatch)
        scalar = _counted(monkeypatch, [(registry, "snn_intercept"), (registry, "h90_intercept"),
                                        (registry, "as98_intercept"), (registry, "fit")])
        for config in configs:
            del calls[:], scalar[:]
            thetas = fit_thetas(block, config)
            assert len(calls) == 1 and scalar == [], config
            # no generating values: every reference fits its own nuisance
            reasons = _assert_block_fit(thetas, draws, config, [(None, None)] * len(draws))
            assert [i for i, reason in enumerate(reasons) if reason] == [2, 5], config
            assert reasons[2] == reasons[5] == "probit failed", config
        for i in (2, 5):
            assert str(block.fitted[i]["probit"]) == "probit failed"


def _failing_block(n):
    """(names, datasets, generating): dgp1 draws of size n with their
    generating (beta, gamma), beside one draw of each way a fit fails."""
    draws = [simulate(DgpSpec("dgp1", n, rho=0.5, seed=seed)) for seed in range(6)]
    names = [f"dgp1-{seed}" for seed in range(6)]
    datasets = [draw.dataset for draw in draws]
    generating = [(draw.beta0, draw.gamma0) for draw in draws]
    base, (beta, gamma) = datasets[0], generating[0]
    index = base.Z @ gamma
    separated = (index > np.median(index)).astype(float)
    few = (np.arange(n) <= base.k).astype(float)  # k + 1 selected rows
    extra = {
        # the probit fails on both, as first stage and as nuisance
        "constant-d": (Dataset(np.ones(n), base.y, base.X, base.Z), (beta, gamma)),
        "separated": (Dataset(separated, separated * base.y, base.X, base.Z), (beta, gamma)),
        # OLS and the two-step refuse it
        "few-selected": (Dataset(few, few * base.y, base.X, base.Z), (beta, gamma)),
        "zero-gamma": (datasets[1], (beta, np.zeros_like(gamma))),
        # snn's and the tail means' standard errors overflow
        "scaled": (dataclasses.replace(datasets[2], y=datasets[2].y * 1e200), (beta * 1e200, gamma)),
    }
    for name, (data, nuisance) in extra.items():
        names.append(name)
        datasets.append(data)
        generating.append(nuisance)
    return names, datasets, generating


class TestFitThetasContract:
    """``fit_thetas`` on one block, and ``fit`` on each dataset, against
    ``_reference``, for every method and both nuisance sources."""

    CONFIGS = [EstimatorConfig("snn"), EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.05)),
               EstimatorConfig("ols"), EstimatorConfig("heckman"), EstimatorConfig("h90"),
               EstimatorConfig("as98", tail=TailRule(0.9, 0.3))]
    CONFIGS += [dataclasses.replace(config, nuisance="probit") for config in CONFIGS
                if METHODS[config.method].needs_nuisance]

    @pytest.mark.parametrize("n", [100, 25])
    def test_each_theta_is_fit_alone(self, n, monkeypatch):
        names, datasets, generating = _failing_block(n)
        block = Block(datasets, [{None: nuisance} for nuisance in generating])
        block.under("probit")  # the nuisance fits, before anything is counted
        for i in (names.index("constant-d"), names.index("separated")):
            assert str(block.fitted[i]["probit"]) == "probit failed"
        bodies = _counted(monkeypatch, _BODIES)
        scalar = _counted(monkeypatch, [(baselines, "probit_mle"), (registry, "snn_intercept"),
                                        (registry, "h90_intercept"), (registry, "as98_intercept"),
                                        (registry, "ols_selected"), (registry, "heckman_two_step"),
                                        (registry, "fit")])
        messages = set()
        for config in self.CONFIGS:
            del bodies[:], scalar[:]
            thetas = fit_thetas(block, config)
            assert len(bodies) == 1 and scalar == [], config
            # the bodies ``_reference`` calls and this module's ``fit`` are
            # the functions, not the counted rebindings
            messages.update(_assert_block_fit(thetas, datasets, config, generating))
        if n == 25:
            assert "insufficient sample" in messages
        else:
            assert messages >= {None, "probit failed", "insufficient selected observations",
                                "degenerate index", "non-finite std_error", "empty tail"}


    def test_zero_gamma_reason_is_the_r1_message(self):
        # snn fails in eta_hat's check before its body runs, the tail means
        # on their empty tail; the block row and ``fit`` name it the same
        names, datasets, generating = _failing_block(100)
        i = names.index("zero-gamma")
        block = Block(datasets, [{None: nuisance} for nuisance in generating])
        for config in (EstimatorConfig("snn"), EstimatorConfig("h90"), EstimatorConfig("as98")):
            _, want = _reference(datasets[i], config, generating[i])
            assert want == ("degenerate index" if config.method == "snn" else "empty tail")
            assert _alone(fit, datasets[i], config, {None: generating[i]})[1] == want
            assert registry._fit_block(block, config)[1].get(i) == want


class TestLeastSquaresOracle:
    """OLS and the two-step's rows, after the failure rule, against the
    ``lstsq`` fits of one draw at a time in ``oracles``: on 2080 dgp1 and
    dgp2 draws at n = 25 and 100 and on ``_failing_block``'s rows, the same
    reason in every row, and each coefficient and OLS standard error within
    1e-11 * max(1, |value|) where the row stands."""

    @staticmethod
    def _blocks():
        cells = [(0.0, 2.0), (0.5, 1.5), (0.95, 1.0), (0.5, 2.0)]
        for family in ("dgp1", "dgp2"):
            for n in (25, 100):
                draws = [simulate(DgpSpec(family, n, rho=rho, alpha=alpha, seed=seed))
                         for rho, alpha in cells for seed in range(130)]
                yield [draw.dataset for draw in draws]
        _, datasets, _ = _failing_block(100)
        base = datasets[0]
        X = base.X.copy()
        X[:, 3] = X[:, 2]
        yield datasets + [dataclasses.replace(base, X=X)]  # collinear slopes

    @staticmethod
    def _oracle(data):
        """{method: (coefficients with the SEs, reason)} by the oracles."""
        with np.errstate(over="ignore", invalid="ignore"):
            coef, se, reason = ols_lstsq(data)
            gamma, _ = _alone(probit_mle, data.d, data.Z)
            two_step, two_step_reason = two_step_lstsq(data, gamma)
        if reason is None and not math.isfinite(coef[0]):
            reason = "non-finite theta"
        elif reason is None and not np.isfinite(se).all():
            reason = "non-finite std_errors"
        if two_step_reason is None and not math.isfinite(two_step[0]):
            two_step_reason = "non-finite theta"
        return {"ols": (None if reason else np.concatenate([coef, se]), reason),
                "heckman": (two_step, two_step_reason)}

    def test_rows_match_lstsq(self):
        seen = {"ols": set(), "heckman": set()}
        draws = 0
        for datasets in self._blocks():
            block = Block(datasets, [{} for _ in datasets])
            oracle = [self._oracle(data) for data in datasets]
            for method in ("ols", "heckman"):
                rows, reasons = registry._fit_block(block, EstimatorConfig(method))
                got = np.column_stack([rows.theta, *([rows.beta, rows.std_errors] if method == "ols"
                                                     else [rows.beta, rows.lambda_coef])])
                for i, (want, want_reason) in enumerate(o[method] for o in oracle):
                    reason = reasons.get(i)
                    assert reason == want_reason, (method, i)
                    seen[method].add(reason)
                    if reason is None:
                        err = np.abs(got[i] - want) / np.maximum(1.0, np.abs(want))
                        assert err.max() <= 1e-11, (method, i, err.max())
            draws += len(datasets)
        assert draws >= 2000 + 12
        assert seen["ols"] >= {None, "insufficient selected observations", "singular design",
                               "non-finite std_errors"}
        # the two-step reports no standard error, so none fails its row
        assert seen["heckman"] >= {None, "insufficient selected observations", "singular design",
                                   "probit failed"}
        assert not any(reason and "std_err" in reason for reason in seen["heckman"])

    def test_scaled_row_fails_ols_only_on_its_standard_errors(self):
        names, datasets, _ = _failing_block(100)
        block = Block(datasets, [{} for _ in datasets])
        i = names.index("scaled")
        assert registry._fit_block(block, EstimatorConfig("ols"))[1].get(i) == "non-finite std_errors"
        assert registry._fit_block(block, EstimatorConfig("heckman"))[1].get(i) is None


class TestPilotOracle:
    """The plug-in's stacked polynomial pilot against the ``lstsq`` fit of
    one row at a time in ``oracles``, on over 1000 rows whose tail gate
    passes: the same rows singular, coefficients within 1e-12 of the
    oracle's relative to their norm, sigma2 within 1e-12 relative, the same
    formula-or-clamp regime, and the formula's h within 1e-12 relative.
    se_top is within 1e-12 relative, or within 8 eps cond(T)^2 where that
    is larger: the oracle's inv(T'T) loses eps cond(T)^2 on the degree-4
    rows, where the stacked fit's SVD does not."""

    @staticmethod
    def _blocks():
        rng = np.random.default_rng(5)
        for n in (30, 60, 150, 400):
            for p in (2, 4):
                idx = rng.uniform(size=(160, n))
                idx[40:80] = np.round(idx[40:80], 1)  # tied ranks
                idx[80:90] = rng.integers(0, 3, size=(10, n))  # three distinct ranks
                t = _rank_rows(idx) - 1.0
                curvature = rng.uniform(0.0, 8.0, size=(160, 1))
                noise = rng.uniform(0.05, 1.0, size=(160, 1))
                yield t, idx, curvature * t * t + noise * rng.standard_normal((160, n)), p

    def test_rows_match_lstsq(self, monkeypatch):
        pilots = []
        real = estimator._ls_rows

        def counted(*args):
            pilots.append(real(*args))
            return pilots[-1]

        monkeypatch.setattr(estimator, "_ls_rows", counted)
        lo, hi = estimator.BANDWIDTH_CLAMP
        eps = np.finfo(float).eps
        seen = {"singular": 0, "tied": 0, "formula": 0, "clamp": 0}
        for t, idx, W, p in self._blocks():
            del pilots[:]
            h = estimator._plug_in_from_ranks(t, idx, W, p, 1.0)
            # a formula row's h scales with ``scale``, a clamped row's does not
            formula = estimator._plug_in_from_ranks(t, idx, W, p, 1e-12) == lo
            assert len(pilots) == 2
            coef, sigma2, se, errors = pilots[0]
            rows = np.flatnonzero(estimator._upper_tail_ratio(idx) <= 1.2)
            assert len(coef) == len(rows)
            for j, r in enumerate(rows):
                seen["tied"] += len(np.unique(t[r])) < t.shape[1]
                want_coef, want_sigma2, want_se = polynomial_pilot(t[r], W[r], p)
                want_h, want_formula = pilot_bandwidth(t[r], W[r], p, 1.0)
                assert formula[r] == want_formula, (p, r)
                seen["formula" if want_formula else "clamp"] += 1
                if want_formula:
                    assert h[r] == pytest.approx(want_h, rel=1e-12, abs=0.0), (p, r)
                else:
                    assert h[r] == hi, (p, r)
                if math.isinf(want_se):
                    assert errors.get(j) == "singular design", (p, r)
                    seen["singular"] += 1
                    continue
                assert j not in errors, (p, r)
                err = np.linalg.norm(coef[j] - want_coef) / np.linalg.norm(want_coef)
                assert err <= 1e-12, (p, r, err)
                assert sigma2[j] == pytest.approx(want_sigma2, rel=1e-12, abs=0.0), (p, r)
                T = np.vander(t[r], p + 1, increasing=True)
                tol = max(1e-12, 8.0 * eps * np.linalg.cond(T) ** 2)
                assert se[j, p] == pytest.approx(want_se, rel=tol, abs=0.0), (p, r)
        assert seen["formula"] + seen["clamp"] >= 1000
        assert seen["singular"] and seen["tied"] >= 300 and seen["formula"] >= 100, seen
        assert seen["clamp"] - seen["singular"] >= 100, seen


class TestFitIsTheBlockFit:
    """``fit`` runs the block fit on a block of one dataset: one stacked body
    call, no public R = 1 call, and the nuisance stored in ``fitted``."""

    @pytest.mark.parametrize("config, body", [
        (EstimatorConfig("snn"), "_snn_rows"),
        (EstimatorConfig("snn", bandwidth=BandwidthRule.fixed(0.3), nuisance="probit"), "_snn_rows"),
        (EstimatorConfig("h90"), "_tail_rows"),
        (EstimatorConfig("as98", nuisance="probit"), "_as98_rows"),
        (EstimatorConfig("heckman"), "_two_step_rows"),
        (EstimatorConfig("ols"), "_ols_rows"),
    ])
    def test_one_body_call_and_no_r1_call(self, config, body, monkeypatch):
        draw = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=4))
        est = fit_nuisance(draw.dataset, "probit")
        fitted = {None: (draw.beta0, draw.gamma0), "probit": (est.beta, est.gamma)}
        bodies = _counted(monkeypatch, _BODIES)
        scalar = _counted(monkeypatch, [(registry, "snn_intercept"), (registry, "h90_intercept"),
                                        (registry, "as98_intercept"), (baselines, "probit_mle"),
                                        (registry, "ols_selected"), (registry, "heckman_two_step")])
        result, _ = fit(draw.dataset, config, fitted)
        assert bodies == [body] and scalar == [], config
        want, _ = _reference(draw.dataset, config, fitted[None])
        assert np.float64(result.theta).tobytes() == np.float64(want.theta).tobytes()

    def test_fitted_receives_the_nuisance_fit_or_its_error(self, monkeypatch):
        data = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=4)).dataset
        constant = Dataset(np.ones(data.n), data.y, data.X, data.Z)
        fits = _counted(monkeypatch, [(nuisance, "fit_nuisance")])
        fitted = {}
        _, beta = fit(data, EstimatorConfig("snn", nuisance="probit"), fitted)
        est = fit_nuisance(data, "probit")
        assert list(fitted) == ["probit"] and fitted["probit"][0] is beta
        assert [a.tobytes() for a in fitted["probit"]] == [est.beta.tobytes(), est.gamma.tobytes()]
        fit(data, EstimatorConfig("h90", nuisance="probit"), fitted)  # shares the fit
        assert fits == ["fit_nuisance"]
        failed = {}
        for method in ("as98", "snn"):  # the second raises the stored error
            with pytest.raises(EstimationError, match="^probit failed$"):
                fit(constant, EstimatorConfig(method, nuisance="probit"), failed)
        assert fits == ["fit_nuisance"] * 2
        assert list(failed) == ["probit"] and isinstance(failed["probit"], EstimationError)
        assert str(failed["probit"]) == "probit failed"
        untouched = {}
        for method in ("ols", "heckman"):  # estimate their own slopes
            fit(data, EstimatorConfig(method, nuisance="probit"), untouched)
        assert untouched == {} and fits == ["fit_nuisance"] * 2
        with pytest.raises(ValueError, match="generating"):
            fit(data, EstimatorConfig("snn"), {})


class TestSelectedQuantile:
    def test_each_row_is_np_quantile_of_its_kept_values(self):
        rng = np.random.default_rng(7)
        values = rng.standard_cauchy(size=(40, 30))
        values[5] = np.round(values[5])  # ties
        values[6, :4] = np.inf
        values[7, :4] = -np.inf
        values[8, 3] = np.nan
        keep = rng.random(size=(40, 30)) < rng.random(size=(40, 1))
        keep[0] = True
        keep[1] = False
        keep[2] = np.arange(30) == 17  # one kept value
        keep[6:9, :4] = True
        for q in (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.95, 1.0):
            with np.errstate(invalid="ignore"):  # lerp between two infinities
                got = _selected_quantile(values, keep, q)
                for r in range(len(values)):
                    kept = values[r][keep[r]]
                    if kept.size == 0:
                        assert math.isnan(got[r])
                        continue
                    want = np.quantile(kept, q)
                    assert np.float64(got[r]).tobytes() == np.float64(want).tobytes(), (q, r)
