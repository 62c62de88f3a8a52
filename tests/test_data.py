import numpy as np
import pytest

from snnselect.data import Dataset


def _arrays(n=5, k=3, l=2, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, n).astype(float), rng.normal(size=n),
            rng.normal(size=(n, k)), rng.normal(size=(n, l)))


class TestShapes:
    def test_one_dimensional_is_one_column(self):
        d, y, X, Z = _arrays()
        data = Dataset(d, y, X[:, 0], Z[:, 1])
        assert (data.k, data.l) == (1, 1)
        assert np.array_equal(data.X[:, 0], X[:, 0]) and np.array_equal(data.Z[:, 0], Z[:, 1])

    @pytest.mark.parametrize("field", ["X", "Z"])
    def test_transposed_rejected(self, field):
        # a (k, n) array is an error, never transposed
        d, y, X, Z = _arrays()
        arrays = {"X": X, "Z": Z}
        arrays[field] = arrays[field].T
        with pytest.raises(ValueError, match="inconsistent dataset dimensions"):
            Dataset(d, y, **arrays)

    @pytest.mark.parametrize("bad", [np.zeros((4, 3)), np.zeros(4), np.float64(1.0), np.zeros((5, 1, 1))],
                             ids=["rows", "length", "scalar", "three-d"])
    def test_other_shapes_rejected(self, bad):
        d, y, X, Z = _arrays()
        with pytest.raises(ValueError, match="inconsistent dataset dimensions"):
            Dataset(d, y, bad, Z)
        with pytest.raises(ValueError, match="inconsistent dataset dimensions"):
            Dataset(d, y, X, bad)
