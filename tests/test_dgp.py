import numpy as np
import pytest

from snnselect import dgp
from snnselect.dgp import DgpSpec, identification_ratio, simulate, true_gamma
from snnselect.exceptions import EstimationError
from snnselect.seeding import derive_seed


class TestSpecValidation:
    def test_family(self):
        with pytest.raises(ValueError):
            DgpSpec("dgp3", 100)

    def test_rho_range(self):
        with pytest.raises(ValueError):
            DgpSpec("dgp1", 100, rho=1.5)

    def test_dims(self):
        # l and k are constants of both designs, not settable fields
        spec = DgpSpec("dgp1", 100)
        assert (spec.l, spec.k) == (7, 4)
        with pytest.raises(TypeError):
            DgpSpec("dgp1", 100, l=3, k=3)

    def test_rho_one_allowed_but_degenerate(self):
        draw = simulate(DgpSpec("dgp1", 1000, rho=1.0, seed=5))
        assert np.allclose(draw.u, draw.v, atol=1e-12)


    @pytest.mark.parametrize("field, value", [("n", 100.0), ("n", "100"), ("seed", 1.5),
                                              ("seed", None)])
    def test_integer_fields(self, field, value):
        spec = {"n": 100, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            DgpSpec("dgp1", **spec)

    def test_numpy_integer_fields(self):
        spec = DgpSpec("dgp1", np.int32(100), seed=np.uint64(2**63 + 1))
        assert (type(spec.n), type(spec.seed)) == (int, int)
        assert spec == DgpSpec("dgp1", 100, seed=2**63 + 1)
        assert spec.with_seed(np.int64(5)).seed == 5

    def test_non_finite_alpha(self):
        for family in ("dgp1", "dgp2"):
            for alpha in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match="alpha must be finite"):
                    DgpSpec(family, 100, alpha=alpha)

    def test_non_finite_theta0(self):
        for theta0 in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="theta0 must be finite"):
                DgpSpec("dgp1", 100, theta0=theta0)

    def test_dgp2_alpha_bound(self):
        # 53/1024 = 0.0517578125: below it the Pareto draw 2^(53/alpha) overflows
        with pytest.raises(ValueError, match="53/1024"):
            DgpSpec("dgp2", 100, alpha=0.05)
        with pytest.raises(ValueError, match="53/1024"):
            DgpSpec("dgp2", 100, alpha=dgp._DGP2_ALPHA_MIN)
        assert dgp._DGP2_ALPHA_MIN == 53 / 1024
        DgpSpec("dgp1", 100, alpha=0.01)  # dgp1's normal draws have no such bound

    def test_worst_case_dgp2_draw_is_finite_at_the_smallest_alpha(self, monkeypatch):
        # every uniform at its largest value, 1 - 2^-53: the Pareto error is
        # then at its largest, and so is every Cauchy covariate
        class Largest:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        monkeypatch.setattr(dgp, "generator", lambda seed: Largest())
        alpha = np.nextafter(dgp._DGP2_ALPHA_MIN, 1.0)
        for rho in (-1.0, 0.5, 1.0):
            draw = simulate(DgpSpec("dgp2", 20, rho=rho, alpha=alpha))
            assert draw.v.max() > 1e308
            for values in (draw.u, draw.v, draw.index, draw.dataset.y):
                assert np.all(np.isfinite(values))


class TestSimulate:
    def test_bitwise_reproducibility(self):
        spec = DgpSpec("dgp2", 500, rho=0.5, alpha=1.5, seed=987654321)
        a = simulate(spec)
        b = simulate(spec)
        for x, y in ((a.dataset.y, b.dataset.y), (a.dataset.Z, b.dataset.Z),
                     (a.u, b.u), (a.v, b.v)):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = simulate(DgpSpec("dgp1", 100, seed=1))
        b = simulate(DgpSpec("dgp1", 100, seed=2))
        assert not np.array_equal(a.dataset.Z, b.dataset.Z)

    def test_structural_identities(self):
        for family in ("dgp1", "dgp2"):
            spec = DgpSpec(family, 400, rho=0.3, alpha=1.25, seed=7)
            draw = simulate(spec)
            ds = draw.dataset
            assert np.array_equal(ds.d, (draw.index >= draw.v).astype(float))
            y_expected = ds.d * (spec.theta0 + ds.X @ draw.beta0 + draw.u)
            assert np.array_equal(ds.y, y_expected)
            assert np.array_equal(draw.beta0, np.ones(ds.k))
            assert np.array_equal(ds.X, ds.Z[:, : ds.k])
            assert np.array_equal(draw.index, ds.Z @ draw.gamma0)

    def test_rho_zero_independence(self):
        draw = simulate(DgpSpec("dgp1", 50000, rho=0.0, alpha=2.0, seed=11))
        corr = np.corrcoef(draw.u, draw.v)[0, 1]
        assert abs(corr) < 0.02

    def test_dgp1_index_variance_alpha(self):
        draw = simulate(DgpSpec("dgp1", 50000, rho=0.25, alpha=2.0, seed=13))
        assert draw.index.var() == pytest.approx(2.0, rel=0.05)

    def test_dgp1_normal_marginals(self):
        draw = simulate(DgpSpec("dgp1", 100000, seed=17))
        Z = draw.dataset.Z
        for j in range(Z.shape[1]):
            col = Z[:, j]
            zc = (col - col.mean()) / col.std()
            assert abs(np.mean(zc**3)) < 0.05
            assert abs(np.mean(zc**4) - 3.0) < 0.1

    def test_dgp2_selection_rate_matches_independent_oracle(self):
        spec = DgpSpec("dgp2", 50000, rho=0.0, alpha=1.0, seed=19)
        draw = simulate(spec)
        rate = draw.dataset.d.mean()
        # independent oracle: fresh streams from a different generator family
        g = np.random.default_rng(20240809)
        m = 1_000_000
        cauchy = g.standard_cauchy(m)
        pareto = (1.0 - g.random(m)) ** (-1.0 / spec.alpha)
        oracle = float(np.mean(cauchy >= pareto))
        assert rate == pytest.approx(oracle, abs=0.01)

    def test_dgp2_pareto_support(self):
        draw = simulate(DgpSpec("dgp2", 10000, alpha=1.5, seed=23))
        assert draw.v.min() >= 1.0

    def test_rho_sign_correlation_dgp1(self):
        draw = simulate(DgpSpec("dgp1", 50000, rho=0.75, seed=29))
        assert np.corrcoef(draw.u, draw.v)[0, 1] == pytest.approx(0.75, abs=0.02)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 1001, 4096])
    def test_standard_normal_matches_concatenated_box_muller(self, n):
        # the transform as first written, with its cosine and sine halves
        # concatenated; the in-place one must give the same bits
        def concatenated(g, n):
            m = (n + 1) // 2
            u1 = 1.0 - g.random(m)
            u2 = g.random(m)
            r = np.sqrt(-2.0 * np.log(u1))
            return np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]

        for seed in (0, 4242):
            z = dgp._standard_normal(dgp.generator(seed).random(2 * ((n + 1) // 2)))[:n]
            assert z.shape == (n,)
            assert z.tobytes() == concatenated(dgp.generator(seed), n).tobytes()


class TestDrawRows:
    """``dgp._draw_rows`` draws a block of R seeds as one stack, and every row
    is bitwise ``simulate``'s draw at that seed.  Odd n ends a Box-Muller
    transform mid-pair, and rho = 1 zeroes the scale of E."""

    FIELDS = ("d", "y", "X", "Z", "u", "v", "index")

    @pytest.mark.parametrize("family", ["dgp1", "dgp2"])
    @pytest.mark.parametrize("n", [2, 3, 7, 101, 200])
    def test_every_row_is_simulate(self, family, n):
        for rows in (1, 3, 50):
            for rho in (0.0, 0.5, 1.0):
                spec = DgpSpec(family, n, rho=rho, alpha=1.5)
                seeds = [derive_seed(n, f"{family}:{rho}", rep) for rep in range(rows)]
                draws = dgp._draw_rows(spec, seeds)
                assert draws.beta0.tobytes() == np.ones(spec.k).tobytes()
                assert draws.gamma0.tobytes() == true_gamma(spec).tobytes()
                for r, seed in enumerate(seeds):
                    one = simulate(spec.with_seed(seed))
                    data = one.dataset
                    alone = {"d": data.d, "y": data.y, "X": data.X, "Z": data.Z,
                             "u": one.u, "v": one.v, "index": one.index}
                    for field in self.FIELDS:
                        row = getattr(draws, field)[r]
                        assert row.shape == alone[field].shape, (rows, rho, r, field)
                        assert row.tobytes() == alone[field].tobytes(), (rows, rho, r, field)

    @pytest.mark.parametrize("family", ["dgp1", "dgp2"])
    def test_simulate_memory(self, family, traced_peak):
        # beyond its output arrays, a draw at n = 1e5 holds little more
        # than the sines of its Box-Muller transform at a time
        spec = DgpSpec(family, 100_000, rho=0.5, alpha=2.0, seed=4242)
        draw = simulate(spec)
        arrays = (draw.dataset.d, draw.dataset.y, draw.dataset.Z, draw.u, draw.v, draw.index)
        assert traced_peak(simulate, spec) <= 1.2 * sum(a.nbytes for a in arrays)


def _outcome_at(spec):
    draw = simulate(spec)
    ds = draw.dataset
    return ds.y, ds.d * (spec.theta0 + ds.X @ draw.beta0 + draw.u)


class TestTrueIntercept:
    def test_default(self):
        spec = DgpSpec("dgp1", 100)
        assert spec.theta0 == 1.0
        y, y_expected = _outcome_at(spec)
        assert np.array_equal(y, y_expected)

    def test_zero_and_negative(self):
        for spec in (DgpSpec("dgp1", 100, theta0=0.0), DgpSpec("dgp2", 100, theta0=-2.5)):
            y, y_expected = _outcome_at(spec)
            assert np.array_equal(y, y_expected)

    def test_true_gamma_shapes(self):
        g1 = true_gamma(DgpSpec("dgp1", 100, alpha=2.0))
        assert np.allclose(g1, np.full(7, np.sqrt(2.0 / 7.0)))
        g2 = true_gamma(DgpSpec("dgp2", 100))
        assert g2.tolist() == [0, 0, 0, 0, 0, 0, 1]


class TestIdentificationRatio:
    def test_dgp1_alpha_one_is_unity(self):
        for q in (0.01, 0.3, 0.5, 0.77, 0.999):
            assert identification_ratio("dgp1", 1.0, q) == pytest.approx(1.0, abs=1e-12)

    def test_dgp2_alpha_one_tail_limit_pi(self):
        assert identification_ratio("dgp2", 1.0, 1 - 1e-6) == pytest.approx(np.pi, abs=1e-3)

    def test_dgp2_alpha_half_diverges(self):
        # exact tail value at q = 1-1e-6 is pi/2*sqrt(cot(pi*1e-6)) ~ 886; the
        # divergence crosses 1e3 slightly closer to the boundary
        assert identification_ratio("dgp2", 0.5, 1 - 1e-7) > 1e3
        assert identification_ratio("dgp2", 0.5, 1 - 1e-7) > identification_ratio("dgp2", 0.5, 1 - 1e-6) > identification_ratio("dgp2", 0.5, 1 - 1e-5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha(self, alpha):
        for family in ("dgp1", "dgp2"):
            with pytest.raises(ValueError, match="alpha must be finite"):
                identification_ratio(family, alpha, 0.5)

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), [0.5, float("nan")]])
    def test_non_finite_q(self, q):
        with pytest.raises(ValueError, match="q must be finite"):
            identification_ratio("dgp1", 2.0, q)

    def test_dgp1_alpha_above_one_vanishes_in_tail(self):
        assert identification_ratio("dgp1", 2.0, 1 - 1e-9) < 1e-6

    def test_nonnegative_and_continuous_on_grids(self):
        qs = np.linspace(0.01, 0.999, 400)
        for family, alpha in (("dgp1", 1.5), ("dgp1", 0.8), ("dgp2", 2.0)):
            vals = identification_ratio(family, alpha, qs)
            assert np.all(vals >= 0)
        # continuity away from the dgp2 density jump at q = 0.75
        for lo, hi in ((0.01, 0.74), (0.76, 0.999)):
            qs = np.linspace(lo, hi, 300)
            vals = identification_ratio("dgp2", 1.5, qs)
            assert np.max(np.abs(np.diff(vals))) < 0.2

    def test_out_of_range(self):
        with pytest.raises(EstimationError, match="out of numeric range"):
            identification_ratio("dgp1", 2.0, 1e-12)
        with pytest.raises(EstimationError, match="out of numeric range"):
            identification_ratio("dgp2", 1.0, 1.0)
        # the ends of [0, 1] are inside the domain, outside the numeric range
        for q in (0.0, 1.0 - 1e-10):
            with pytest.raises(EstimationError, match="out of numeric range"):
                identification_ratio("dgp1", 2.0, q)

    @pytest.mark.parametrize("q", [-0.5, -1e-300, 1.0 + 1e-15, 1.5, [0.5, 2.0]])
    def test_q_outside_unit_interval(self, q):
        for family in ("dgp1", "dgp2"):
            with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\]$"):
                identification_ratio(family, 2.0, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            identification_ratio("dgp9", 1.0, 0.5)
        with pytest.raises(ValueError):
            identification_ratio("dgp1", -1.0, 0.5)
