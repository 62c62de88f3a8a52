"""The stacked snn, h90 and as98 fits: every row of a stack is bitwise the
fit of its sample alone, and a row that fails there fails with the same
reason alone."""
import dataclasses
import math

import numpy as np
import pytest

from snnselect import baselines, estimator, registry
from snnselect.baselines import (
    TailRule,
    _as98_rows,
    _selected_quantile,
    _tail_rows,
    as98_intercept,
    as98_intercept_stack,
    h90_intercept,
    h90_intercept_stack,
)
from snnselect.data import Dataset
from snnselect.dgp import DgpSpec, simulate
from snnselect.estimator import (
    BandwidthRule,
    _snn_rows,
    residualized_outcome,
    snn_intercept,
    snn_intercept_stack,
)
from snnselect.exceptions import EstimationError
from snnselect.ranks import eta_hat, rank_rows
from snnselect.registry import Block, EstimatorConfig, fit, fit_thetas

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


def _pieces(count):
    order = list(range(count))
    pieces = [[i] for i in order]
    for members in (order, order[::-1]):
        pieces += [members, members[:5], members[5:11], members[11:]]
    return pieces


def _assert_rows_match(name, rows, errors, public, row, alone, message):
    """Row ``row`` of a stacked body's result (rows, errors) and of its
    public call against the sample's fit alone."""
    if alone is None:
        assert errors[row] == message, name
        assert math.isnan(public.theta[row]) and math.isnan(public.std_error[row]), name
        return
    assert row not in errors, name
    for field in ("theta", "std_error", "bandwidth"):
        want = np.float64(getattr(alone, field)).tobytes()
        assert np.float64(getattr(rows, field)[row]).tobytes() == want, (name, field)
        assert np.float64(getattr(public, field)[row]).tobytes() == want, (name, field)
    assert rows.effective_n[row] == public.effective_n[row] == alone.effective_n, name


class TestRowsMatchAlone:
    def setup_method(self):
        self.names, self.datasets, self.beta, self.gamma = _mixed_samples()
        self.index = np.stack([data.Z @ self.gamma for data in self.datasets])
        self.W = np.stack([residualized_outcome(data, self.beta) for data in self.datasets])
        self.D = np.stack([data.d for data in self.datasets])

    def test_ranks(self):
        eta = rank_rows(self.index)
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
        eta = rank_rows(index)
        for row, values in zip(eta, index):
            want = np.searchsorted(np.sort(values), values, side="right") / values.size
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rule, order", _SNN_RULES)
    def test_snn(self, rule, order, monkeypatch):
        pilots = []
        real = estimator._polynomial_pilot

        def counted(*args):
            pilots.append(1)
            return real(*args)

        monkeypatch.setattr(estimator, "_polynomial_pilot", counted)
        alone = [_alone(snn_intercept, data, self.beta, self.gamma, order, rule)
                 for data in self.datasets]
        if rule.kind == "plugin":
            assert pilots, "no row took the pilot path"
        if rule.value == 0.05:
            tied = self.names.index("tied")
            assert alone[tied][0].bandwidth > 0.05, "the tied sample did not widen"
        if rule.value == 0.0125:
            assert {message for _, message in alone} >= {"degenerate local design"}
        eta = rank_rows(self.index)
        for members in _pieces(len(self.datasets)):
            rows, errors = _snn_rows(eta[members], self.index[members], self.W[members], order, rule)
            public = snn_intercept_stack(eta[members], self.index[members], self.W[members],
                                         order, rule)
            for row, i in enumerate(members):
                _assert_rows_match(self.names[i], rows, errors, public, row, *alone[i])

    @pytest.mark.parametrize("rule", _TAIL_RULES)
    @pytest.mark.parametrize("method", ["h90", "as98"])
    def test_tail_means(self, method, rule):
        one, stack = {"h90": (h90_intercept, h90_intercept_stack),
                      "as98": (as98_intercept, as98_intercept_stack)}[method]
        alone = [_alone(one, data, self.beta, self.gamma, rule) for data in self.datasets]
        assert alone[self.names.index("low-selected")][1] == "empty tail"
        assert alone[self.names.index("none-selected")][1] == "empty tail"
        for members in _pieces(len(self.datasets)):
            args = (self.D[members], self.index[members], self.W[members], rule)
            if method == "h90":
                rows, errors = _tail_rows(*args, np.zeros(len(members)))
            else:
                rows, errors = _as98_rows(*args)
            public = stack(*args)
            for row, i in enumerate(members):
                _assert_rows_match(self.names[i], rows, errors, public, row, *alone[i])

    def test_plug_in_on_a_small_sample_fails_every_row(self):
        with pytest.raises(EstimationError, match="insufficient sample"):
            snn_intercept_stack(rank_rows(self.index[:, :20]), self.index[:, :20], self.W[:, :20])

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            snn_intercept_stack(self.index, self.index, self.W[:, :50])
        with pytest.raises(ValueError, match="shape"):
            h90_intercept_stack(self.D[0], self.index[0], self.W[0])
        with pytest.raises(ValueError, match="shape"):
            rank_rows(self.index[0])


class TestFitThetas:
    CONFIGS = [EstimatorConfig("snn"), EstimatorConfig("snn", kernel_order=4,
                                                       bandwidth=BandwidthRule.fixed(0.0125)),
               EstimatorConfig("h90"), EstimatorConfig("as98", tail=TailRule(0.9, 0.3))]

    def _check(self, datasets, nuisances, stacked_calls):
        """Each config in one stacked call over the block, with theta i
        bitwise ``fit`` alone on dataset i and its (beta, gamma)."""
        for config in self.CONFIGS:
            block = Block(datasets, [{None: (beta.copy(), gamma.copy())} for beta, gamma in nuisances])
            thetas = fit_thetas(block, config)
            for i, data in enumerate(datasets):
                theta, _ = _alone(fit, data, config, {None: nuisances[i]})
                expected = math.nan if theta is None else theta[0].theta
                assert np.float64(thetas[i]).tobytes() == np.float64(expected).tobytes()
        assert len(stacked_calls) == len(self.CONFIGS)

    def _count_stacked(self, monkeypatch):
        calls = []
        for module, name in ((estimator, "snn_intercept_stack"), (baselines, "h90_intercept_stack"),
                             (baselines, "as98_intercept_stack")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        return calls

    def test_block_matches_fit_one_at_a_time(self, monkeypatch):
        _, datasets, beta, gamma = _mixed_samples()
        self._check(datasets, [(beta, gamma)] * len(datasets), self._count_stacked(monkeypatch))

    def test_failed_rows_rerun_alone_with_their_reason(self, monkeypatch):
        # a zero gamma fails each sample in eta_hat, which the stacked pass
        # never calls: its rows fail there and rerun alone
        _, datasets, beta, gamma = _mixed_samples()
        calls = self._count_stacked(monkeypatch)
        reasons = []
        real = estimator.snn_intercept

        def recorded(*args):
            try:
                return real(*args)
            except EstimationError as exc:
                reasons.append(str(exc))
                raise

        monkeypatch.setattr(estimator, "snn_intercept", recorded)
        block = Block(datasets, [{None: (beta, np.zeros_like(gamma))} for _ in datasets])
        assert np.isnan(fit_thetas(block, EstimatorConfig("snn"))).all()
        assert len(calls) == 1
        assert reasons == ["degenerate index"] * len(datasets)

    def test_non_finite_rows_rerun_alone(self):
        # scaled by 1e200 every theta stays finite, but snn's and the tail
        # means' standard errors overflow; those rows must fail alone
        _, datasets, beta, gamma = _mixed_samples()
        scaled = [dataclasses.replace(data, y=data.y * 1e200) for data in datasets]
        fitted = [{None: (beta * 1e200, gamma)} for _ in scaled]
        for method in ("snn", "h90", "as98"):
            thetas = fit_thetas(Block(scaled, fitted), EstimatorConfig(method))
            messages = []
            for i, data in enumerate(scaled):
                theta, message = _alone(fit, data, EstimatorConfig(method), fitted[i])
                expected = math.nan if theta is None else theta[0].theta
                assert np.float64(thetas[i]).tobytes() == np.float64(expected).tobytes()
                messages.append(message)
            # all but the three samples built to fail otherwise or not at all
            assert messages.count("non-finite std_error") >= len(scaled) - 3, method

    def test_per_draw_nuisance_in_one_stacked_call(self, monkeypatch):
        # gammas that differ per draw in their last bits still run stacked
        _, datasets, beta, gamma = _mixed_samples()
        nuisances = [(beta, gamma * (1.0 + 1e-12 * i)) for i in range(len(datasets))]
        self._check(datasets, nuisances, self._count_stacked(monkeypatch))

    def test_failed_nuisance_fits_fail_alone_with_their_reason(self, monkeypatch):
        # two constant-d draws among fitted-nuisance draws: their probit
        # fails, so those rows rerun ``fit`` and raise the stored error,
        # while every other row stays in the stacked pass
        draws = [simulate(DgpSpec("dgp1", 200, rho=0.5, seed=seed)).dataset for seed in range(8)]
        base = draws[0]
        draws[2] = Dataset(np.zeros(base.n), np.zeros(base.n), base.X, base.Z)
        draws[5] = Dataset(np.ones(base.n), base.y, base.X, base.Z)
        calls = self._count_stacked(monkeypatch)
        reruns = []
        real = registry.fit

        def recorded(data, config, fitted):
            row = [d is data for d in draws].index(True)
            try:
                result = real(data, config, fitted)
            except EstimationError as exc:
                reruns.append((row, str(exc)))
                raise
            reruns.append((row, None))
            return result

        monkeypatch.setattr(registry, "fit", recorded)
        # the configs that fit every draw whose nuisance fit succeeds
        configs = [dataclasses.replace(self.CONFIGS[i], nuisance="probit") for i in (0, 2, 3)]
        block = Block(draws, [{} for _ in draws])
        for config in configs:
            thetas = fit_thetas(block, config)
            assert np.isnan(thetas[[2, 5]]).all()
            for i in (0, 1, 3, 4, 6, 7):
                theta, _ = _alone(real, draws[i], config, {})
                assert np.float64(thetas[i]).tobytes() == np.float64(theta[0].theta).tobytes()
        assert len(calls) == len(configs)
        assert reruns == [(2, "probit failed"), (5, "probit failed")] * len(configs)
        for i in (2, 5):
            assert str(block.fitted[i]["probit"]) == "probit failed"


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
