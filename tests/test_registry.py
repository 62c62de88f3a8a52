import dataclasses
import importlib
import pkgutil
import warnings

import numpy as np
import pytest

import snnselect
from snnselect import dgp, montecarlo, seeding
from snnselect.cli import build_parser
from snnselect.data import Dataset
from snnselect.dgp import FAMILIES, DgpSpec, simulate
from snnselect.exceptions import DataError, EstimationError
from snnselect.numerics import KERNEL_ORDERS
from snnselect.nuisance import GAMMA_METHODS
from snnselect.registry import (
    METHODS,
    Block,
    EstimatorConfig,
    _fit_block,
    _stacked,
    as98_intercept,
    fit,
    fit_thetas,
    h90_intercept,
    heckman_two_step,
    ols_selected,
    snn_intercept,
)


def _choices(parser, dest):
    """The choices of every option stored in ``dest``, per subcommand."""
    subparsers = next(a for a in parser._actions if a.dest == "command")
    out = {}
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest == dest:
                out[name] = list(action.choices)
    return out


class TestOneNameList:
    def test_registry_holds_the_five_methods(self):
        assert list(METHODS) == ["snn", "ols", "heckman", "h90", "as98"]
        assert [m for m, entry in METHODS.items() if not entry.needs_nuisance] == ["ols", "heckman"]

    def test_configs_accept_exactly_the_registry_keys(self):
        for name in METHODS:
            assert EstimatorConfig(method=name).method == name
        for name in ("magic", "SNN", "heckit", ""):
            with pytest.raises(ValueError):
                EstimatorConfig(method=name)

    def test_every_estimator_option_offers_the_registry_keys(self):
        choices = _choices(build_parser(), "estimator")
        assert set(choices) == {"mc-table", "rate-check", "estimate", "decompose"}
        assert all(names == list(METHODS) for names in choices.values())


class TestChoiceListsFromTheirOwners:
    @pytest.mark.parametrize("dest, owner, commands", [
        ("kernel_order", KERNEL_ORDERS,
         {"mc-table", "rate-check", "estimate", "decompose", "kernel-check"}),
        ("dgp", FAMILIES, {"simulate", "mc-table", "rate-check", "ident-check"}),
    ])
    def test_every_option_offers_its_owners_list(self, dest, owner, commands):
        choices = _choices(build_parser(), dest)
        assert set(choices) == commands
        assert all(names == list(owner) for names in choices.values())


class TestOneGammaMethodList:
    def test_config_accepts_none_and_exactly_the_gamma_methods(self):
        assert GAMMA_METHODS == ("klein_spady", "probit")
        for name in (None, *GAMMA_METHODS):
            assert EstimatorConfig(nuisance=name).nuisance == name
        for name in ("klein-spady", "oracle", "none", ""):
            with pytest.raises(ValueError, match="nuisance"):
                EstimatorConfig(nuisance=name)

    def test_every_nuisance_option_offers_the_gamma_methods(self):
        choices = _choices(build_parser(), "nuisance")
        assert set(choices) == {"estimate", "decompose"}
        assert all(names == ["klein-spady", "probit"] for names in choices.values())

    def test_fit_nuisance_rejects_other_names(self):
        from snnselect.nuisance import fit_nuisance

        with pytest.raises(ValueError, match="klein_spady"):
            fit_nuisance(None, "oracle")


class TestSeeding:
    def test_derive_seed_resolves_from_every_old_location(self):
        assert snnselect.derive_seed is seeding.derive_seed
        assert montecarlo.derive_seed is seeding.derive_seed

    def test_generator_is_keyed_by_the_low_64_bits(self):
        a = seeding.generator(5).random(4)
        b = seeding.generator(5 + 2**64).random(4)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != seeding.generator(6).random(4).tobytes()


class TestPublicNames:
    def test_every_all_name_resolves(self):
        # the benchmark's tracer getattr()s each of these names
        modules = [importlib.import_module(f"snnselect.{m.name}")
                   for m in pkgutil.iter_modules(snnselect.__path__)]
        missing = [f"{module.__name__}.{name}" for module in modules
                   for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert len(modules) >= 14 and not missing


class TestNonFiniteOutput:
    @staticmethod
    def _overflowing_draw():
        """A dgp1 draw whose outcomes and slopes are scaled by 1e200: every
        theta stays finite, but snn and OLS square residuals to inf and the
        tail-mean SEs become NaN."""
        draw = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3))
        return dataclasses.replace(draw.dataset, y=draw.dataset.y * 1e200), draw.beta0 * 1e200, draw.gamma0

    CASES = [("snn", "std_error"), ("ols", "std_errors"), ("h90", "std_error"),
             ("as98", "std_error")]

    @classmethod
    def _calls(cls, method):
        """The method by ``fit`` and by its public one-sample function, each
        on the overflowing draw."""
        data, beta, gamma = cls._overflowing_draw()
        public = {
            "snn": lambda: snn_intercept(data, beta, gamma),
            "ols": lambda: ols_selected(data),
            "heckman": lambda: heckman_two_step(data),
            "h90": lambda: h90_intercept(data, beta, gamma),
            "as98": lambda: as98_intercept(data, beta, gamma),
        }[method]
        return [lambda: fit(data, EstimatorConfig(method), (beta, gamma))[0], public]

    def _assert_named_error(self, method, quantity, action):
        for call in self._calls(method):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                with pytest.raises(EstimationError, match=f"^non-finite {quantity}$"):
                    call()

    @pytest.mark.parametrize("method, quantity", CASES)
    def test_named_error_under_warnings_as_errors(self, method, quantity):
        # as CI runs the suite, with -X dev -W error: the overflow must
        # surface as the named error, not as a bare RuntimeWarning
        self._assert_named_error(method, quantity, "error")

    @pytest.mark.parametrize("method, quantity", CASES)
    def test_named_error_with_warnings_shown(self, method, quantity):
        self._assert_named_error(method, quantity, "default")

    def test_finite_fits_pass_through(self):
        for call in self._calls("heckman"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = call()
            assert abs(result.theta) < float("inf")


class TestNonFiniteIndex:
    """An inf or NaN in gamma leaves the index without ranks: every route
    fails the row as "non-finite index" and returns no number."""

    BAD = [np.inf, np.nan]
    RANKED = ["snn", "h90", "as98"]  # the methods that read the index

    @staticmethod
    def _calls(method, bad):
        """The method by ``fit`` and by its public one-sample function, with
        ``bad`` in a dgp1 draw's gamma."""
        draw = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3))
        data, beta, gamma = draw.dataset, draw.beta0, draw.gamma0.copy()
        gamma[1] = bad
        public = {"snn": snn_intercept, "h90": h90_intercept, "as98": as98_intercept}[method]
        return [lambda: fit(data, EstimatorConfig(method), (beta, gamma))[0],
                lambda: public(data, beta, gamma)]

    @pytest.mark.parametrize("action", ["error", "default"])
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("method", RANKED)
    def test_named_error(self, method, bad, action):
        # "error" as CI runs the suite, with -X dev -W error
        for call in self._calls(method, bad):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                with pytest.raises(EstimationError, match="^non-finite index$"):
                    call()

    @pytest.mark.parametrize("bad", BAD)
    def test_block_fails_only_that_row(self, bad):
        draws = [simulate(DgpSpec("dgp1", 200, rho=0.5, seed=seed)) for seed in (3, 4, 5)]
        truths = [(draw.beta0, draw.gamma0.copy()) for draw in draws]
        truths[1][1][0] = bad
        datasets = [draw.dataset for draw in draws]
        for method in self.RANKED:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                block = Block(datasets, truths)
                thetas = fit_thetas(block, EstimatorConfig(method))
            assert np.isnan(thetas[1]), method
            assert _fit_block(block, EstimatorConfig(method))[1] == {1: "non-finite index"}, method
            for i in (0, 2):
                alone = fit(datasets[i], EstimatorConfig(method), truths[i])[0].theta
                assert np.float64(thetas[i]).tobytes() == np.float64(alone).tobytes(), method


class TestZeroGamma:
    """A gamma of zeros leaves an index with no direction: every method that
    reads it fails the row as "degenerate index", by ``fit``, by its public
    one-sample function and in a block."""

    RANKED = ["snn", "h90", "as98"]

    @pytest.mark.parametrize("method", RANKED)
    def test_named_error(self, method):
        draw = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3))
        data, beta, gamma = draw.dataset, draw.beta0, np.zeros_like(draw.gamma0)
        public = {"snn": snn_intercept, "h90": h90_intercept, "as98": as98_intercept}[method]
        for call in (lambda: fit(data, EstimatorConfig(method), (beta, gamma)),
                     lambda: public(data, beta, gamma)):
            with pytest.raises(EstimationError, match="^degenerate index$"):
                call()

    def test_block_fails_only_that_row(self):
        draws = [simulate(DgpSpec("dgp1", 200, rho=0.5, seed=seed)) for seed in (3, 4, 5)]
        truths = [(draw.beta0, draw.gamma0) for draw in draws]
        truths[1] = (draws[1].beta0, np.zeros_like(draws[1].gamma0))
        datasets = [draw.dataset for draw in draws]
        block = Block(datasets, truths)
        for config in [EstimatorConfig(method) for method in self.RANKED] + [EstimatorConfig("ols")]:
            thetas = fit_thetas(block, config)
            reasons = _fit_block(block, config)[1]
            if config.method == "ols":  # reads no index
                assert reasons == {} and not np.isnan(thetas).any()
                continue
            assert np.isnan(thetas[1]) and reasons == {1: "degenerate index"}, config.method
            for i in (0, 2):
                alone = fit(datasets[i], config, truths[i])[0].theta
                assert np.float64(thetas[i]).tobytes() == np.float64(alone).tobytes(), config.method

    def test_a_nuisance_error_still_wins(self):
        # a row whose nuisance fit failed holds a zero gamma too
        data = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3)).dataset
        constant = dataclasses.replace(data, d=np.ones(data.n))
        block = Block([data, constant])
        assert block.under("probit")["errors"] == {1: "probit failed"}


class TestNuisanceShape:
    """A beta that is not (k,) or a gamma that is not (l,) is rejected, not
    broadcast over the coefficients."""

    @pytest.mark.parametrize("method", ["snn", "h90", "as98"])
    @pytest.mark.parametrize("wrong", ["beta", "gamma", "both"])
    def test_wrong_length_raises(self, method, wrong):
        draw = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3))
        beta = [1.0] if wrong != "gamma" else draw.beta0
        gamma = [0.5] if wrong != "beta" else draw.gamma0
        with pytest.raises(ValueError, match="shapes"):
            fit(draw.dataset, EstimatorConfig(method), (beta, gamma))
        with pytest.raises(ValueError, match="shapes"):
            fit_thetas(Block([draw.dataset] * 2, [(draw.beta0, draw.gamma0), (beta, gamma)]),
                       EstimatorConfig(method))

    def test_public_function_and_column_vector(self):
        draw = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3))
        with pytest.raises(ValueError, match="shapes"):
            snn_intercept(draw.dataset, [1.0], [0.5])
        with pytest.raises(ValueError, match="shapes"):
            h90_intercept(draw.dataset, draw.beta0, draw.gamma0[:, None])

    def test_right_shapes_as_lists_fit(self):
        draw = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3))
        as_list = snn_intercept(draw.dataset, list(draw.beta0), list(draw.gamma0))
        assert as_list == snn_intercept(draw.dataset, draw.beta0, draw.gamma0)


class TestBlockOfOne:
    """A block of one reads its dataset's arrays in place, and a strided
    array as the contiguous copy that np.stack makes."""

    FIELDS = ("d", "y", "X", "Z")

    @staticmethod
    def _draw():
        return simulate(DgpSpec("dgp1", 300, rho=0.5, seed=3))

    def test_stacked_one_array(self):
        a = np.arange(12.0).reshape(4, 3)
        assert np.shares_memory(_stacked([a]), a) and _stacked([a]).shape == (1, 4, 3)
        strided = a[:, ::2]
        assert _stacked([strided]).flags.c_contiguous
        assert _stacked([strided]).tobytes() == np.stack([strided]).tobytes()

    def test_fit_on_contiguous_data_reads_it_in_place(self):
        draw = self._draw()
        arrays = [np.ascontiguousarray(getattr(draw.dataset, f)) for f in self.FIELDS]
        before = [a.tobytes() for a in arrays]
        for a in arrays:
            a.flags.writeable = False  # a fit that wrote to the dataset would raise
        data = Dataset(*arrays)
        block = Block([data])
        assert np.shares_memory(block.D, data.d) and np.shares_memory(block.Z, data.Z)
        for method in METHODS:
            for key in (None, "probit"):
                truth = (draw.beta0, draw.gamma0)
                result, _ = fit(data, EstimatorConfig(method, nuisance=key), truth)
                strided, _ = fit(draw.dataset, EstimatorConfig(method, nuisance=key), truth)
                assert np.float64(result.theta).tobytes() == np.float64(strided.theta).tobytes()
        assert [a.tobytes() for a in arrays] == before


class TestStackedBlock:
    """``Block.stacked`` over the stacked arrays of simulated draws fits as
    the block of their datasets does, and checks its rows as their
    Datasets would."""

    CONFIGS = [EstimatorConfig(method) for method in METHODS] + [
        EstimatorConfig("snn", nuisance="probit")]

    @staticmethod
    def _draws(family, n, rows=6):
        spec = DgpSpec(family, n, rho=0.5, alpha=1.5)
        seeds = [seeding.derive_seed(3, family, rep) for rep in range(rows)]
        return spec, seeds, dgp._draw_rows(spec, seeds)

    @pytest.mark.parametrize("family, n", [("dgp1", 101), ("dgp2", 40), ("dgp2", 200)])
    def test_same_thetas_as_datasets(self, family, n):
        spec, seeds, draws = self._draws(family, n)
        singles = [simulate(spec.with_seed(seed)) for seed in seeds]
        truths = [(draws.beta0, draws.gamma0)] * len(seeds)
        stacked = Block.stacked(draws.d, draws.y, draws.X, draws.Z, truths)
        listed = Block([one.dataset for one in singles], [(one.beta0, one.gamma0) for one in singles])
        for config in self.CONFIGS:
            assert fit_thetas(stacked, config).tobytes() == fit_thetas(listed, config).tobytes(), \
                config
        assert stacked.X.flags.c_contiguous
        for data, one in zip(stacked.datasets, singles):
            for field in ("d", "y", "X", "Z"):
                assert getattr(data, field).tobytes() == getattr(one.dataset, field).tobytes()

    def test_first_bad_row_raises_its_dataset_error(self):
        _, _, draws = self._draws("dgp1", 50)
        D, Y, Z = draws.d.copy(), draws.y.copy(), draws.Z.copy()
        Y[4, 7] = np.nan
        Z[2, 3, 1] = np.inf
        Z[2, 9, 0] = -np.inf
        with pytest.raises(DataError) as expected:
            Dataset(D[2], Y[2], Z[2, :, :4], Z[2])
        assert str(expected.value) == "non-finite value in X at row 3, 9; non-finite value in Z at row 3, 9"
        with pytest.raises(DataError) as raised:
            Block.stacked(D, Y, Z[:, :, :4], Z, [(draws.beta0, draws.gamma0)] * len(D))
        assert str(raised.value) == str(expected.value)
        D[1, 0] = 0.5
        with pytest.raises(ValueError, match="selection indicator must be 0/1"):
            Block.stacked(D, Y, Z[:, :, :4], Z, [(draws.beta0, draws.gamma0)] * len(D))
