import concurrent.futures
import math
import os
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from snnselect import baselines, dgp, montecarlo, nuisance
from snnselect.baselines import TailRule
from snnselect.dgp import DgpSpec
from snnselect.estimator import BandwidthRule
from snnselect.exceptions import EstimationError
from snnselect.registry import METHODS
from snnselect.montecarlo import (
    EstimatorConfig,
    TablePlan,
    derive_seed,
    rate_check,
    run_cell,
    run_table,
)


OLS = EstimatorConfig(method="ols")


def _stub_ols(monkeypatch, theta_of):
    """Make the registered ols method estimate theta_of(data) on each
    dataset of a block, failing a row where it raises EstimationError.

    The registry looks its methods up at call time, so this holds for runs
    in this process (workers=1).
    """
    def fit(block, cfg):
        theta, errors = np.full(len(block), math.nan), {}
        for i, data in enumerate(block.datasets):
            try:
                theta[i] = theta_of(data)
            except EstimationError as exc:
                errors[i] = str(exc)
        return SimpleNamespace(theta=theta), errors

    monkeypatch.setitem(METHODS, "ols", METHODS["ols"]._replace(fit=fit))


def _fails(data):
    raise EstimationError("empty tail")


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "cell", 5) == derive_seed(1, "cell", 5)

    def test_distinct_inputs_distinct_seeds(self):
        seeds = {
            derive_seed(1, "cell", 5),
            derive_seed(1, "cell", 6),
            derive_seed(2, "cell", 5),
            derive_seed(1, "other", 5),
        }
        assert len(seeds) == 4

    def test_64_bit_range(self):
        s = derive_seed(123, "x", 999)
        assert 0 <= s < 2**64


class TestRunCell:
    def test_constant_estimator_zero_stats(self, monkeypatch):
        spec = DgpSpec("dgp1", 50, seed=0)
        _stub_ols(monkeypatch, lambda data: spec.theta0)
        stats = run_cell(spec, OLS, reps=20, base_seed=7)
        assert stats.sq_bias == 0.0
        assert stats.sd == 0.0
        assert stats.rmse_scaled == 0.0
        assert stats.reps_ok == 20 and stats.reps_failed == 0

    def test_rmse_identity(self):
        spec = DgpSpec("dgp1", 100, rho=0.5, alpha=2.0)
        config = EstimatorConfig(method="ols")
        stats = run_cell(spec, config, reps=50, base_seed=11)
        assert stats.rmse_scaled == pytest.approx(
            math.sqrt(100) * math.sqrt(stats.sq_bias + stats.sd**2), abs=1e-9
        )

    def test_failure_accounting(self, monkeypatch):
        def odd_selected_only(data):
            if data.d.sum() % 2 == 0:
                raise EstimationError("empty tail")
            return 1.1

        spec = DgpSpec("dgp1", 40)
        _stub_ols(monkeypatch, odd_selected_only)
        stats = run_cell(spec, OLS, reps=30, base_seed=3)
        assert stats.reps_ok + stats.reps_failed == 30
        assert stats.reps_failed > 0

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            run_cell(DgpSpec("dgp1", 40), OLS, reps=1, base_seed=0)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_validation(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_cell(DgpSpec("dgp1", 40), OLS, reps=2, base_seed=0, workers=workers)

    def test_worker_count_does_not_change_results(self):
        spec = DgpSpec("dgp1", 60, rho=0.25, alpha=1.5)
        config = EstimatorConfig(method="snn")
        a = run_cell(spec, config, reps=24, base_seed=19, workers=1)
        b = run_cell(spec, config, reps=24, base_seed=19, workers=4)
        assert a == b  # bitwise equality of every field

    def test_shared_draws_across_estimators(self):
        # the replication seed depends on the cell, not the estimator
        spec = DgpSpec("dgp1", 80, rho=0.0, alpha=2.0)
        s1 = run_cell(spec, EstimatorConfig(method="ols"), reps=10, base_seed=23)
        s2 = run_cell(spec, EstimatorConfig(method="heckman"), reps=10, base_seed=23)
        assert s1.reps_ok == s2.reps_ok == 10


class TestRunTable:
    def test_single_cell_plan_matches_run_cell(self):
        config = EstimatorConfig(method="ols")
        plan = TablePlan("dgp1", 50, [config], rhos=(0.5,), alphas=(2.0,), reps=15)
        report = run_table(plan, base_seed=29)
        spec = DgpSpec("dgp1", 50, rho=0.5, alpha=2.0)
        cell = run_cell(spec, config, reps=15, base_seed=29)
        assert report.panels[config.label][(0.5, 2.0)] == cell

    def test_complete_grid(self):
        config = EstimatorConfig(method="h90")
        plan = TablePlan("dgp2", 60, [config], rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=8)
        report = run_table(plan, base_seed=31)
        assert set(report.panels[config.label]) == {(0.0, 2.0), (0.0, 1.0), (0.5, 2.0), (0.5, 1.0)}

    def test_worker_invariance_bitwise(self):
        config = EstimatorConfig(method="snn")
        plan = TablePlan("dgp1", 50, [config], rhos=(0.0, 0.95), alphas=(2.0,), reps=12)
        a = run_table(plan, base_seed=37, workers=1)
        b = run_table(plan, base_seed=37, workers=4)
        assert a.panels == b.panels

    def test_chunks_follow_the_processes_used(self, monkeypatch):
        # about 4 tasks per process used, min(workers, usable CPUs); no
        # chunking changes a panel
        plan = TablePlan("dgp1", 50, [EstimatorConfig(method="snn")], rhos=(0.0, 0.95),
                         alphas=(2.0,), reps=12)
        counts = []
        real = montecarlo.run_tasks

        def counted(fn, tasks, workers):
            counts.append(len(tasks))
            return real(fn, tasks, workers)

        monkeypatch.setattr(montecarlo, "run_tasks", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        serial = repr(run_table(plan, base_seed=37, workers=1).panels)
        for workers in (2, 8, 32):
            assert repr(run_table(plan, base_seed=37, workers=workers).panels) == serial
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            assert repr(run_table(plan, base_seed=37, workers=32).panels) == serial
        # 2 cells of 12 reps: ceil(4 * procs / 2) chunks per cell
        assert counts == [4, 8, 8, 8, 4, 12]

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            TablePlan("dgp1", 50, [], reps=10)

    def test_shared_panel_labels_rejected(self):
        # snn configs that differ only in nuisance share the label
        # "snn (plugin x1)", and would overwrite each other's panel; the
        # order-4 config has a label of its own
        configs = [EstimatorConfig("snn"), EstimatorConfig("snn", nuisance="probit"),
                   EstimatorConfig("snn", kernel_order=4)]
        with pytest.raises(ValueError, match=r"share a panel label: 'snn \(plugin x1\)'$"):
            TablePlan("dgp1", 120, configs, reps=3)
        # one config per registered method, as the benchmark's table plan has
        plan = TablePlan("dgp2", 200, [EstimatorConfig(method=m) for m in METHODS], reps=3)
        assert len({config.label for config in plan.estimators}) == len(METHODS) == 5

    def test_repeated_rho_or_alpha_rejected(self):
        # a repeated value would simulate its cells twice and print them once
        configs = [EstimatorConfig("h90")]
        with pytest.raises(ValueError, match=r"^repeated rho: 0$"):
            TablePlan("dgp1", 50, configs, rhos=(0.0, 0.0), alphas=(2.0,), reps=3)
        with pytest.raises(ValueError, match=r"^repeated alpha: 2, 1$"):
            TablePlan("dgp1", 50, configs, rhos=(0.0, 0.5), alphas=(2.0, 1.0, 2.0, 1.0), reps=3)

    def test_kernel_orders_get_separate_panels(self):
        configs = [EstimatorConfig("snn"), EstimatorConfig("snn", kernel_order=4)]
        plan = TablePlan("dgp1", 60, configs, rhos=(0.0,), alphas=(2.0,), reps=2)
        report = run_table(plan, base_seed=3)
        assert list(report.panels) == ["snn (plugin x1)", "snn (plugin x1, order 4)"]

    def test_three_bandwidth_panels_full_grid(self):
        # the reference layout: one panel per bandwidth setting, 20 cells each
        configs = [
            EstimatorConfig(method="snn", bandwidth=BandwidthRule.plug_in(s))
            for s in (1.0, 2 / 3, 3 / 2)
        ]
        plan = TablePlan("dgp1", 100, configs, reps=3)
        report = run_table(plan, base_seed=2)
        assert len(report.panels) == 3
        for cells in report.panels.values():
            assert len(cells) == 20
            assert all(st.reps_ok + st.reps_failed == 3 for st in cells.values())

    def test_serializations(self):
        config = EstimatorConfig(method="ols")
        plan = TablePlan("dgp1", 40, [config], rhos=(0.0,), alphas=(2.0,), reps=6)
        report = run_table(plan, base_seed=41)
        csv_text = report.to_csv()
        assert "rho" in csv_text and "sq_bias(a=2)" in csv_text
        md = report.to_markdown()
        assert md.count("|") > 4
        import json

        payload = json.loads(report.to_json())
        assert payload["n"] == 40
        assert payload["panels"][config.label][0]["reps_ok"] == 6


class TestSerializationText:
    """Exact CSV and markdown text of a small hand-built report."""

    @staticmethod
    def _report():
        from snnselect.montecarlo import CellStats, MonteCarloReport

        keys = [(0.0, 2.0), (0.0, 1.25), (0.5, 2.0), (0.5, 1.25)]
        ols = dict(zip(keys, [
            CellStats(0.0025, 0.125, 1.5, 9, 1),
            CellStats(math.nan, math.nan, math.nan, 0, 10),
            CellStats(0.01, 0.2, 1.4142135, 10, 0),
            CellStats(1 / 3, 2 / 3, 4.0, 10, 0),
        ]))
        snn = {key: CellStats(0.0, 0.5, 3.1622777, 10, 0) for key in keys}
        return MonteCarloReport("dgp2", 40, 10, 7, (0.0, 0.5), (2.0, 1.25),
                                {"ols": ols, "snn (plugin x1)": snn})

    def test_csv_text(self):
        header = ("rho,sq_bias(a=2),sd(a=2),rmse_scaled(a=2),"
                  "sq_bias(a=1.25),sd(a=1.25),rmse_scaled(a=1.25)")
        assert self._report().to_csv() == "\n".join([
            "# family=dgp2 n=40 reps=10 seed=7",
            "# panel: ols",
            header,
            "0,0.0025,0.1250,1.5000,failed,failed,failed",
            "0.5,0.0100,0.2000,1.4142,0.3333,0.6667,4.0000",
            "# panel failures: 11 replication(s) across cells",
            "# panel: snn (plugin x1)",
            header,
            "0,0.0000,0.5000,3.1623,0.0000,0.5000,3.1623",
            "0.5,0.0000,0.5000,3.1623,0.0000,0.5000,3.1623",
        ]) + "\n"

    def test_json_is_strict_with_null_for_failed_cells(self):
        import json

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        ok, failed = json.loads(self._report().to_json(), parse_constant=reject)["panels"]["ols"][:2]
        assert ok == {"rho": 0.0, "alpha": 2.0, "sq_bias": 0.0025, "sd": 0.125,
                      "rmse_scaled": 1.5, "reps_ok": 9, "reps_failed": 1}
        assert failed == {"rho": 0.0, "alpha": 1.25, "sq_bias": None, "sd": None,
                          "rmse_scaled": None, "reps_ok": 0, "reps_failed": 10}
        # the in-memory statistics of the failed cell stay NaN
        assert math.isnan(self._report().panels["ols"][(0.0, 1.25)].sd)

    def test_markdown_text(self):
        header = ("| rho | a=2 sq bias | a=2 sd | a=2 rmse "
                  "| a=1.25 sq bias | a=1.25 sd | a=1.25 rmse |")
        assert self._report().to_markdown() == "\n".join([
            "**dgp2, n=40, 10 replications** (seed 7)",
            "",
            "*ols*",
            header,
            "|---|---|---|---|---|---|---|",
            "| 0 | 0.0025 | 0.1250 | 1.5000 | failed | failed | failed |",
            "| 0.5 | 0.0100 | 0.2000 | 1.4142 | 0.3333 | 0.6667 | 4.0000 |",
            "",
            "*snn (plugin x1)*",
            header,
            "|---|---|---|---|---|---|---|",
            "| 0 | 0.0000 | 0.5000 | 3.1623 | 0.0000 | 0.5000 | 3.1623 |",
            "| 0.5 | 0.0000 | 0.5000 | 3.1623 | 0.0000 | 0.5000 | 3.1623 |",
            "",
        ])


class TestCellMajorEngine:
    """run_table draws each draw once and shares it across estimators."""

    @staticmethod
    def _counting(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def _rows_drawn(monkeypatch):
        """The seeds of each block the engine draws, one list per block."""
        blocks = []
        real = dgp._draw_rows

        def counted(spec, seeds):
            blocks.append(list(seeds))
            return real(spec, seeds)

        monkeypatch.setattr(dgp, "_draw_rows", counted)
        return blocks

    def test_one_simulate_per_draw(self, monkeypatch):
        blocks = self._rows_drawn(monkeypatch)
        configs = [EstimatorConfig(method=m) for m in ("snn", "ols", "h90")]
        plan = TablePlan("dgp1", 50, configs, rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=5)
        run_table(plan, base_seed=61, workers=1)
        seeds = [seed for block in blocks for seed in block]
        assert len(seeds) == len(set(seeds)) == 4 * 5  # cells x reps, not x estimators

    def test_table_matches_run_cell_with_failures(self):
        # at n=40 under dgp2 OLS and the two-step refuse some draws
        configs = [EstimatorConfig(method=m) for m in ("snn", "ols", "heckman", "as98")]
        plan = TablePlan("dgp2", 40, configs, rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=20)
        a = run_table(plan, base_seed=67, workers=1)
        b = run_table(plan, base_seed=67, workers=2)
        assert repr(a.panels) == repr(b.panels)
        assert sum(st.reps_failed for st in a.panels["ols"].values()) > 0
        for config in configs:
            for (rho, alpha), st in a.panels[config.label].items():
                spec = DgpSpec("dgp2", 40, rho=rho, alpha=alpha)
                assert repr(st) == repr(run_cell(spec, config, reps=20, base_seed=67))

    # at n=40 under dgp2 the two-step's probit fails on some draws
    HECKMAN_PLAN = TablePlan("dgp2", 40, [EstimatorConfig(method=m) for m in ("heckman", "ols")],
                             rhos=(0.0, 0.5), alphas=(2.0, 1.0), reps=30)

    def test_heckman_refusals_worker_invariant(self):
        plan = self.HECKMAN_PLAN
        a = run_table(plan, base_seed=83, workers=1)
        b = run_table(plan, base_seed=83, workers=2)
        assert repr(a.panels) == repr(b.panels)
        assert sum(st.reps_failed for st in a.panels["heckman"].values()) > 0
        for config in plan.estimators:
            for (rho, alpha), st in a.panels[config.label].items():
                spec = DgpSpec("dgp2", 40, rho=rho, alpha=alpha)
                assert repr(st) == repr(run_cell(spec, config, reps=30, base_seed=83))

    def test_blocks_simulate_each_draw_once(self, monkeypatch):
        # blocks of 4 draws over chunks of 30 reps give the same panels
        plan = self.HECKMAN_PLAN
        whole = run_table(plan, base_seed=83, workers=1)
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 4 * 40 + 39)
        blocks = self._rows_drawn(monkeypatch)
        blocked = run_table(plan, base_seed=83, workers=1)
        seeds = [seed for block in blocks for seed in block]
        assert len(seeds) == len(set(seeds)) == 4 * 30
        assert max(map(len, blocks)) == 4  # 30 reps a cell, in blocks of at most 4
        assert repr(blocked.panels) == repr(whole.panels)

    def test_failed_stacked_probit_reruns_scalar_fit(self, monkeypatch):
        # a draw whose stacked probit fails is a failed heckman rep, as the
        # scalar fit fails on it, with no scalar probit run again
        plan = self.HECKMAN_PLAN
        stacked_failures = []
        real_newton = baselines._probit_newton

        def counted_newton(D, Z):
            G, failed = real_newton(D, Z)
            stacked_failures.append(int(failed.sum()))
            return G, failed

        monkeypatch.setattr(baselines, "_probit_newton", counted_newton)
        scalar = self._counting(monkeypatch, baselines, "probit_mle")
        report = run_table(plan, base_seed=83, workers=1)
        assert scalar == [] and sum(stacked_failures) > 0
        heckman = report.panels["heckman"].values()
        assert sum(st.reps_failed for st in heckman) >= sum(stacked_failures)
        # a stack that fails every problem fails every heckman rep, and no other
        monkeypatch.setattr(baselines, "_probit_newton",
                            lambda D, Z: (np.full(D.shape[:1] + Z.shape[2:], np.nan),
                                          np.ones(len(D), dtype=bool)))
        failing = run_table(plan, base_seed=83, workers=1)
        assert all(st.reps_ok == 0 for st in failing.panels["heckman"].values())
        assert scalar == []
        assert repr(failing.panels["ols"]) == repr(report.panels["ols"])

    def test_nuisance_fitted_once_per_draw(self, monkeypatch):
        # labels differ by bandwidth or tail quantile, so every panel is kept
        configs = [
            EstimatorConfig(method="snn", nuisance=None),
            EstimatorConfig(method="snn", bandwidth=BandwidthRule.fixed(0.4), nuisance="klein_spady"),
            EstimatorConfig(method="h90", nuisance="klein_spady"),
            EstimatorConfig(method="as98", nuisance="probit"),
            EstimatorConfig(method="h90", tail=TailRule(0.9), nuisance="probit"),
            EstimatorConfig(method="ols", nuisance="probit"),
        ]
        plan = TablePlan("dgp1", 120, configs, rhos=(0.5,), alphas=(2.0,), reps=3)
        spec = DgpSpec("dgp1", 120, rho=0.5, alpha=2.0)
        separate = [run_cell(spec, c, reps=3, base_seed=79) for c in configs]
        calls = self._counting(monkeypatch, nuisance, "fit_nuisance")
        report = run_table(plan, base_seed=79, workers=1)
        assert len(calls) == 2 * 3  # klein_spady and probit, once per draw each
        assert len(report.panels) == len(configs)
        assert [repr(report.panels[c.label][(0.5, 2.0)]) for c in configs] == [repr(s) for s in separate]
        assert all(s.reps_ok == 3 for s in separate)

    def test_failed_nuisance_fit_fails_every_dependent_estimator(self, monkeypatch):
        def no_convergence(data, *args):
            raise EstimationError("no convergence")

        monkeypatch.setattr(nuisance, "klein_spady_gamma", no_convergence)
        configs = [
            EstimatorConfig(method="snn", nuisance="klein_spady"),
            EstimatorConfig(method="h90", nuisance="klein_spady"),
            EstimatorConfig(method="as98"),
        ]
        plan = TablePlan("dgp1", 60, configs, rhos=(0.5,), alphas=(2.0,), reps=4)
        panels = run_table(plan, base_seed=73, workers=1).panels
        fitted, true_nuisance = configs[:2], configs[2]
        for config in fitted:
            assert panels[config.label][(0.5, 2.0)].reps_failed == 4
        assert panels[true_nuisance.label][(0.5, 2.0)].reps_ok == 4

    @pytest.mark.parametrize("method", ["ols", "heckman"])
    def test_slope_estimating_methods_fit_no_nuisance(self, method):
        # n=60 is below the Klein-Spady minimum, so a nuisance fit would fail
        spec = DgpSpec("dgp1", 60, rho=0.5)
        fitted = run_cell(spec, EstimatorConfig(method, nuisance="klein_spady"), reps=4, base_seed=1)
        true = run_cell(spec, EstimatorConfig(method, nuisance=None), reps=4, base_seed=1)
        assert true.reps_ok == 4
        assert repr(fitted) == repr(true)


class TestRateCheck:
    def test_exact_loglinear_recovery(self, monkeypatch):
        spec = DgpSpec("dgp1", 100)
        _stub_ols(monkeypatch, lambda data: spec.theta0 + 3.0 * data.n ** (-0.4))
        result = rate_check([100, 200, 400, 800], spec, OLS, reps=3, base_seed=43)
        assert result.slope == pytest.approx(-0.4, abs=1e-10)

    def test_sample_mean_parametric_rate(self):
        # at rho = 0 selection is ignorable, so OLS on the selected subsample
        # is a parametric estimator of the intercept: RMSE ~ n^(-1/2)
        spec = DgpSpec("dgp1", 100, rho=0.0)
        result = rate_check([100, 400, 1600], spec, OLS, reps=1000, base_seed=47)
        assert result.slope == pytest.approx(-0.5, abs=0.05)

    def test_needs_three_sizes(self):
        # repeated sizes would leave the log-log fit rank-deficient
        for ns in ([100, 200], [200, 200, 200], [100, 100, 200, 200]):
            with pytest.raises(ValueError, match="3 distinct"):
                rate_check(ns, DgpSpec("dgp1", 100), OLS, reps=5)

    def test_repeated_size_rejected(self):
        # three distinct sizes, but the repeated one would enter the fit twice
        with pytest.raises(ValueError, match=r"^repeated sample size: 100$"):
            rate_check([100, 100, 200, 400], DgpSpec("dgp1", 100), OLS, reps=3)

    def test_total_failure_reported(self, monkeypatch):
        _stub_ols(monkeypatch, _fails)
        with pytest.raises(EstimationError, match="n=100"):
            rate_check([100, 200, 400], DgpSpec("dgp1", 100), OLS, reps=3, base_seed=1)

    def test_one_pool_for_all_sizes(self, monkeypatch):
        pools = []
        real = concurrent.futures.ProcessPoolExecutor

        def counted(*args, **kwargs):
            pools.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rate_check([100, 200, 400], DgpSpec("dgp1", 100), OLS, reps=4, base_seed=5, workers=2)
        assert len(pools) == 1

    def test_pool_size_capped_by_tasks_and_cpus(self, monkeypatch):
        # 3 sizes x 4 reps make 12 tasks at 3 or more processes (6 at one).
        # The fake pool runs the first task it is given at once, in this
        # process, and leaves the rest pending, so the caller takes back and
        # runs the other 11.
        sizes, pool_ran, chunks_run = [], [], []
        real_chunk = montecarlo._run_chunk

        def counted_chunk(task):
            chunks_run.append(task)
            return real_chunk(task)

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)
                self.futures = []

            def submit(self, fn, task):
                future = Future()
                if not self.futures:
                    future.set_running_or_notify_cancel()
                    future.set_result(fn(task))
                    pool_ran.append(task)
                self.futures.append(future)
                return future

            def shutdown(self, cancel_futures=False):
                assert cancel_futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(montecarlo, "_run_chunk", counted_chunk)
        run = lambda workers: rate_check([100, 200, 400], DgpSpec("dgp1", 100), OLS,
                                         reps=4, base_seed=5, workers=workers)
        serial = run(1)
        assert sizes == [] and len(chunks_run) == 6
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(100)), raising=False)
        assert run(64) == serial
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert run(64) == serial
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert run(64) == serial
        # procs - 1 workers: procs is 12 (tasks), then 3 and 5 (CPUs)
        assert sizes == [11, 2, 4]
        # each pool held one task and the caller ran the other 11
        assert len(pool_ran) == 3 and len(chunks_run) == 6 + 3 * 12

    def test_worker_count_does_not_change_results(self):
        spec = DgpSpec("dgp1", 100, rho=0.5)
        config = EstimatorConfig(method="snn")
        a = rate_check([100, 200, 400], spec, config, reps=6, base_seed=71, workers=1)
        b = rate_check([100, 200, 400], spec, config, reps=6, base_seed=71, workers=2)
        assert a == b  # bitwise equality of the slope and every rmse

    def test_snn_uses_undersmoothing_schedule(self):
        config = EstimatorConfig(method="snn")
        spec = DgpSpec("dgp1", 100, rho=0.0, alpha=2.0)
        result = rate_check([100, 200, 400], spec, config, c=0.5, reps=30, base_seed=53)
        assert len(result.rmse) == 3
        assert all(r > 0 for r in result.rmse)


class TestCellStatsInvariants:
    def test_all_failed_cell(self, monkeypatch):
        _stub_ols(monkeypatch, _fails)
        stats = run_cell(DgpSpec("dgp1", 30), OLS, reps=5, base_seed=59)
        assert stats.reps_ok == 0 and stats.reps_failed == 5
        assert math.isnan(stats.rmse_scaled)
