import importlib
import math
import os

import numpy as np
import pytest

from snnselect.data import Dataset
from snnselect.decompose import DecompositionConfig, bootstrap_se, decompose
from snnselect.exceptions import EstimationError
from snnselect.registry import EstimatorConfig


def make_data(d, y, X, Z):
    return Dataset(d=np.asarray(d, float), y=np.asarray(y, float),
                   X=np.asarray(X, float), Z=np.asarray(Z, float))


def group_sample(n, theta, seed, rho=0.0, beta=(1.0, -0.5), gamma=(1.0, 0.8, 0.4),
                 x_shift=0.0):
    """Selection-model sample with normal covariates; selection exogenous at rho=0."""
    rng = np.random.default_rng(seed)
    ell = len(gamma)
    k = len(beta)
    Z = rng.normal(size=(n, ell))
    Z[:, 1:k+1] += x_shift
    v = rng.normal(size=n)
    d = (Z @ np.asarray(gamma) >= v).astype(float)
    X = Z[:, 1:k+1]
    u = rho * v + math.sqrt(1 - rho**2) * rng.normal(size=n)
    y = d * (theta + X @ np.asarray(beta) + u)
    return make_data(d, y, X, Z)


PROBIT = EstimatorConfig(nuisance="probit")
FAST = DecompositionConfig(PROBIT)
# bootstrap SE of the intercept difference in TestBootstrap.test_se_pinned_bitwise,
# with fully iterated replicates, and with the k-step replicates bootstrap_se runs
PINNED_SE = "0.13415521822679896"
PINNED_SE_K_STEP = "0.13421292452933975"


@pytest.fixture
def fully_iterated(monkeypatch):
    """Replicates without a probit start: each iterates its probit from zero
    to convergence, as the full-sample fit does."""
    monkeypatch.setattr(importlib.import_module("snnselect.decompose"), "_probit_start",
                        lambda data, config, tag: None)


def criterion9_sample(nn, theta, seed):
    """tests/test_acceptance.py's criterion-9 generator: four selection
    covariates, the first two of them the outcome's."""
    g = np.random.default_rng(seed)
    Z = g.normal(size=(nn, 4))
    v = g.normal(size=nn)
    d = (Z @ np.array([1.0, 0.8, 0.5, 0.3]) >= v).astype(float)
    X = Z[:, :2]
    y = d * (theta + X @ np.array([1.0, -0.5]) + g.normal(size=nn))
    return Dataset(d=d, y=y, X=X, Z=Z)


class TestDecompose:
    def test_identical_groups_all_zero(self):
        data = group_sample(800, 1.0, seed=60)
        rep = decompose(data, data, FAST)
        assert rep.gap_overall == 0.0
        assert rep.component_A == pytest.approx(0.0, abs=1e-12)
        assert rep.component_B == pytest.approx(0.0, abs=1e-12)
        assert rep.component_C == pytest.approx(0.0, abs=1e-12)
        assert rep.intercept_difference == 0.0

    def test_accounting_identity(self):
        d0 = group_sample(700, 1.0, seed=61)
        d1 = group_sample(650, 1.4, seed=62, x_shift=0.3)
        for weighting in ("group0", "group1"):
            cfg = DecompositionConfig(PROBIT, weighting=weighting)
            rep = decompose(d0, d1, cfg)
            assert rep.gap_overall == pytest.approx(
                rep.component_A + rep.component_B + rep.component_C, abs=1e-12
            )
            assert rep.gap_selection_corrected == pytest.approx(
                rep.component_A + rep.component_B, abs=1e-12
            )

    def test_group_swap_symmetry(self):
        d0 = group_sample(700, 1.0, seed=63)
        d1 = group_sample(750, 1.5, seed=64, x_shift=0.2)
        a = decompose(d0, d1, DecompositionConfig(PROBIT, weighting="group0"))
        b = decompose(d1, d0, DecompositionConfig(PROBIT, weighting="group1"))
        assert b.gap_overall == pytest.approx(-a.gap_overall, abs=1e-12)
        assert b.intercept_difference == pytest.approx(-a.intercept_difference, abs=1e-12)
        assert b.component_A == pytest.approx(-a.component_A, abs=1e-10)
        assert b.component_B == pytest.approx(-a.component_B, abs=1e-10)

    def test_recovers_planted_intercept_gap(self):
        # exogenous selection; moderate n with the parametric nuisance chain
        d0 = group_sample(2500, 1.0, seed=65)
        d1 = group_sample(2500, 1.5, seed=66)
        rep = decompose(d0, d1, FAST)
        assert rep.intercept_difference == pytest.approx(0.5, abs=0.15)

    def test_component_b_shared_beta_matches_ols_route(self):
        # h90 uses the same Robinson slopes as snn, so with the intercept
        # method swapped B is identical: it depends only on those slopes
        d0 = group_sample(4000, 1.0, seed=67)
        d1 = group_sample(4000, 1.3, seed=68, x_shift=0.1)
        snn_cfg = DecompositionConfig(PROBIT)
        h90_cfg = DecompositionConfig(EstimatorConfig("h90", nuisance="probit"))
        a = decompose(d0, d1, snn_cfg)
        b = decompose(d0, d1, h90_cfg)
        assert b.component_B == a.component_B  # bitwise: same betas, same endowments
        assert abs(a.component_A - b.component_A) <= 0.2

    def test_quantities_in_cli_row_order(self):
        d0 = group_sample(600, 1.0, seed=83)
        d1 = group_sample(600, 1.2, seed=84)
        assert list(decompose(d0, d1, FAST).quantities()) == [
            "gap_overall", "component_A", "component_B", "component_C",
            "gap_selection_corrected", "theta_group0", "theta_group1", "intercept_difference",
        ]

    def test_error_carries_group_tag(self):
        good = group_sample(600, 1.0, seed=69)
        bad = make_data(np.zeros(600), np.zeros(600), good.X, good.Z)
        with pytest.raises(EstimationError, match="group1"):
            decompose(good, bad, FAST)

    @pytest.mark.parametrize("method, nuisance, reason", [
        ("snn", "probit", "probit failed"),
        ("h90", "probit", "probit failed"),
        ("as98", "probit", "probit failed"),
        ("heckman", "probit", "probit failed"),
        ("snn", "klein_spady", "degenerate outcome"),
        ("ols", None, "insufficient selected observations"),
    ])
    def test_group_with_no_selected_row_fails_in_its_fit(self, method, nuisance, reason):
        # every method refuses a group with no selected row before its
        # selected means are taken
        good = group_sample(600, 1.0, seed=69)
        bad = make_data(np.zeros(600), np.zeros(600), good.X, good.Z)
        config = DecompositionConfig(EstimatorConfig(method, nuisance=nuisance))
        with pytest.raises(EstimationError) as info:
            decompose(good, bad, config)
        assert str(info.value) == f"group1: {reason}"


class TestBootstrap:
    def test_mean_difference_matches_analytic_se(self):
        # gap_overall is the difference of the groups' selected-sample means
        n = 500
        mk = lambda mu, seed: group_sample(n, mu, seed=seed)
        d0, d1 = mk(1.0, 73), mk(1.5, 74)
        summary = bootstrap_se(d0, d1, DecompositionConfig(EstimatorConfig("ols")),
                               n_boot=200, seed=6)
        assert summary.n_failed == 0
        s0 = d0.y[d0.selected()]
        s1 = d1.y[d1.selected()]
        analytic = math.sqrt(s0.var(ddof=1) / len(s0) + s1.var(ddof=1) / len(s1))
        assert abs(summary.ses["gap_overall"] - analytic) <= 0.25 * analytic

    def test_single_replication_rejected(self):
        d0 = group_sample(200, 1.0, seed=75)
        with pytest.raises(EstimationError, match="bootstrap failed"):
            bootstrap_se(d0, d0, n_boot=1, seed=7)

    def test_all_failures_is_bootstrap_failed(self):
        # two selected rows: a resample's OLS design (1, x1, x2) has at most
        # two distinct rows, so every replicate raises
        d0 = group_sample(200, 1.0, seed=76)
        d = np.zeros(d0.n)
        d[np.flatnonzero(d0.d)[:2]] = 1.0
        sparse = make_data(d, d0.y * d, d0.X, d0.Z)
        ols = DecompositionConfig(EstimatorConfig("ols"))
        with pytest.raises(EstimationError, match="bootstrap failed"):
            bootstrap_se(sparse, d0, ols, n_boot=5, seed=8)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # five selected rows in group 0: a resample that holds fewer than
        # three of them cannot fit OLS's (1, x1, x2), so some replicates fail
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        d0 = group_sample(200, 1.0, seed=76)
        d = np.zeros(d0.n)
        d[np.flatnonzero(d0.d)[:5]] = 1.0
        sparse = make_data(d, d0.y * d, d0.X, d0.Z)
        ols = DecompositionConfig(EstimatorConfig("ols"))
        runs = [bootstrap_se(sparse, d0, ols, n_boot=30, seed=8, workers=w) for w in (1, 2, 3)]
        assert 0 < runs[0].n_failed < 28
        assert [r.n_failed for r in runs[1:]] == [runs[0].n_failed] * 2
        assert all(repr(r.ses) == repr(runs[0].ses) for r in runs[1:])

    def test_workers_below_one_rejected(self):
        d0 = group_sample(200, 1.0, seed=75)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            bootstrap_se(d0, d0, FAST, n_boot=2, seed=7, workers=0)

    def test_identity_holds_in_every_replication(self, monkeypatch):
        d0 = group_sample(500, 1.0, seed=77)
        d1 = group_sample(500, 1.2, seed=78)
        reports = []

        # bootstrap_se looks decompose up at call time, so this sees every replicate
        def checked(a, b, config, starts):
            rep = decompose(a, b, config, starts=starts)
            assert rep.gap_overall == pytest.approx(
                rep.component_A + rep.component_B + rep.component_C, abs=1e-12
            )
            # a k-step replicate: both groups' probits start at their full-sample fit
            assert all(start is not None for start in starts)
            reports.append(rep)
            return rep

        monkeypatch.setattr(importlib.import_module("snnselect.decompose"), "decompose", checked)
        summary = bootstrap_se(d0, d1, FAST, n_boot=12, seed=9)
        assert summary.n_failed == 0
        assert len(reports) == 12

    def test_se_pinned_bitwise(self, fully_iterated):
        # pins the resampling streams: the Philox draws of every replicate
        d0 = group_sample(400, 1.0, seed=81, rho=0.5)
        d1 = group_sample(400, 1.3, seed=82, rho=0.25)
        summary = bootstrap_se(d0, d1, FAST, n_boot=8, seed=9)
        assert summary.n_failed == 0
        assert repr(summary.ses["intercept_difference"]) == PINNED_SE

    def test_k_step_se_pinned_bitwise(self):
        # the same streams, each replicate's probit two Newton steps from its
        # group's full-sample fit
        d0 = group_sample(400, 1.0, seed=81, rho=0.5)
        d1 = group_sample(400, 1.3, seed=82, rho=0.25)
        summary = bootstrap_se(d0, d1, FAST, n_boot=8, seed=9)
        assert summary.n_failed == 0
        assert repr(summary.ses["intercept_difference"]) == PINNED_SE_K_STEP

    def test_k_step_agrees_with_fully_iterated(self, monkeypatch):
        # criterion 9's design at B = 200: every SE within 1% relative of the
        # fully iterated replicates', and the same replicates fail
        d0, d1 = criterion9_sample(4000, 1.0, 31), criterion9_sample(4000, 1.5, 32)
        k_step = bootstrap_se(d0, d1, FAST, n_boot=200, seed=20)
        monkeypatch.setattr(importlib.import_module("snnselect.decompose"), "_probit_start",
                            lambda data, config, tag: None)
        reference = bootstrap_se(d0, d1, FAST, n_boot=200, seed=20)
        assert k_step.n_failed == reference.n_failed
        assert list(k_step.ses) == list(reference.ses)
        for name, se in reference.ses.items():
            assert abs(k_step.ses[name] - se) <= 0.01 * se, name

    def test_k_step_fails_the_replicates_that_have_no_mle(self, monkeypatch):
        # group 0's selection is six times as sharp at n = 120, so many
        # resamples separate; two steps from the full-sample fit do not show
        # it, and the replicate must still fail as the fully iterated one does
        d0 = group_sample(120, 1.0, seed=100, gamma=(6.0, 4.8, 2.4))
        d1 = group_sample(120, 1.2, seed=200)
        k_step = bootstrap_se(d0, d1, FAST, n_boot=100, seed=0)
        monkeypatch.setattr(importlib.import_module("snnselect.decompose"), "_probit_start",
                            lambda data, config, tag: None)
        reference = bootstrap_se(d0, d1, FAST, n_boot=100, seed=0)
        assert reference.n_failed > 0
        assert k_step.n_failed == reference.n_failed
        for name, se in reference.ses.items():
            assert abs(k_step.ses[name] - se) <= 0.01 * se, name

    def test_failed_start_raises_before_any_replicate(self, monkeypatch):
        # group 1's selection is d = 1{z0 > 0}: its full-sample probit separates
        d0 = group_sample(300, 1.0, seed=85)
        d1 = group_sample(300, 1.2, seed=86)
        separated = make_data((d1.Z[:, 0] > 0).astype(float), d1.y, d1.X, d1.Z)

        def no_replicates(*args):
            raise AssertionError("replicates ran")

        monkeypatch.setattr(importlib.import_module("snnselect.decompose"), "run_tasks",
                            no_replicates)
        with pytest.raises(EstimationError, match="^group1: probit failed$"):
            bootstrap_se(d0, separated, FAST, n_boot=20, seed=11, workers=2)
        # the methods without the probit nuisance need no start
        ols = DecompositionConfig(EstimatorConfig("ols"))
        with pytest.raises(AssertionError, match="replicates ran"):
            bootstrap_se(d0, separated, ols, n_boot=20, seed=11)

    def test_default_statistic_covers_every_quantity(self):
        d0 = group_sample(500, 1.0, seed=79)
        d1 = group_sample(500, 1.3, seed=80)
        summary = bootstrap_se(d0, d1, FAST, n_boot=15, seed=10)
        assert summary.n_failed == 0
        assert list(summary.ses) == list(decompose(d0, d1, FAST).quantities())
        assert all(v >= 0 for v in summary.ses.values())


class TestConfigValidation:
    def test_bad_weighting(self):
        with pytest.raises(ValueError):
            DecompositionConfig(weighting="both")

    def test_bad_nuisance(self):
        for name in ("oracle", "none"):
            with pytest.raises(ValueError):
                DecompositionConfig(EstimatorConfig(nuisance=name))

    def test_bad_method(self):
        with pytest.raises(ValueError):
            DecompositionConfig(EstimatorConfig(method="magic"))

    def test_generating_nuisance_needs_a_simulated_draw(self):
        # observed data carry no generating beta and gamma to pin, so the
        # config is refused when it is built, before any fit or replicate
        data = group_sample(300, 1.0, seed=81)
        for method in ("snn", "h90", "as98"):
            with pytest.raises(ValueError, match="generating") as info:
                DecompositionConfig(EstimatorConfig(method, nuisance=None))
            assert "klein_spady" in str(info.value) and "probit" in str(info.value)
        ols = DecompositionConfig(EstimatorConfig("ols", nuisance=None))
        assert decompose(data, data, ols).intercept_difference == 0.0
