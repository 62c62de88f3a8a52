import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import eta_hat_bruteforce
from snnselect.exceptions import EstimationError
from snnselect.ranks import eta_hat


def one_col(values):
    return np.asarray(values, dtype=float)[:, None]


class TestEtaHat:
    def test_strict_ordering(self):
        out = eta_hat(one_col([0.1, 0.2, 0.3]), np.array([1.0]))
        assert np.array_equal(out, np.array([1 / 3, 2 / 3, 1.0]))

    def test_all_ties_share_top_rank(self):
        out = eta_hat(one_col([5.0, 5.0, 5.0]), np.array([1.0]))
        assert np.array_equal(out, np.ones(3))

    def test_positive_scaling_invariance_exact(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(40, 3))
        g = rng.normal(size=3)
        assert np.array_equal(eta_hat(Z, g), eta_hat(Z, 2.0 * g))

    def test_max_rank_is_one(self):
        rng = np.random.default_rng(1)
        out = eta_hat(rng.normal(size=(25, 2)), np.array([1.0, -0.5]))
        assert out.max() == 1.0
        assert out.min() >= 1 / 25

    def test_continuous_sample_gives_full_grid(self):
        rng = np.random.default_rng(2)
        n = 64
        out = eta_hat(rng.normal(size=(n, 1)), np.array([1.0]))
        assert sorted(out) == pytest.approx([(i + 1) / n for i in range(n)])

    def test_errors(self):
        with pytest.raises(EstimationError, match="insufficient sample"):
            eta_hat(one_col([1.0]), np.array([1.0]))
        with pytest.raises(EstimationError, match="degenerate index"):
            eta_hat(one_col([1.0, 2.0]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_index_raises(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimationError, match="^non-finite index$"):
                eta_hat(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, bad]))

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.integers(2, 30)
            ell = rng.integers(1, 4)
            Z = rng.normal(size=(n, ell))
            if rng.random() < 0.3:  # force ties
                Z = np.round(Z)
            g = rng.normal(size=ell)
            if not np.any(g):
                g[0] = 1.0
            assert np.array_equal(eta_hat(Z, g), eta_hat_bruteforce(Z, g))

    @given(
        hnp.arrays(np.float64, st.integers(2, 20), elements=st.floats(-50, 50)),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_property(self, z, c):
        # quantize so rescaling cannot round two distinct indices into a tie
        Z = np.round(z, 3)[:, None]
        g = np.array([1.0])
        assert np.array_equal(eta_hat(Z, g), eta_hat(Z, c * g))


    @given(st.data(), st.integers(2, 30), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_ties_share_the_count_of_indices_weakly_below(self, data, n, ell):
        # small integers make ties common and every index exact in floating point
        small = st.integers(-3, 3)
        Z = data.draw(hnp.arrays(np.int64, (n, ell), elements=small)).astype(float)
        g = data.draw(hnp.arrays(np.int64, ell, elements=small).filter(np.any)).astype(float)
        idx = Z @ g
        out = eta_hat(Z, g)
        for i in range(n):
            assert out[i] == np.count_nonzero(idx <= idx[i]) / n
            assert np.all(out[idx == idx[i]] == out[i])
