import numpy as np
import pytest

from snnselect.data import Dataset
from snnselect.dgp import DgpSpec, simulate
from snnselect.exceptions import DataError


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


class TestNonFinite:
    """A value no estimator can use is rejected where the sample is built."""

    @staticmethod
    def _draw():
        return simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3)).dataset

    def _with(self, field, row, col, value):
        data = self._draw()
        arrays = {f: getattr(data, f).copy() for f in ("d", "y", "X", "Z")}
        if col is None:
            arrays[field][row] = value
        else:
            arrays[field][row, col] = value
        return arrays

    def test_nan_in_z(self):
        with pytest.raises(DataError) as exc:
            Dataset(**self._with("Z", 17, 2, np.nan))
        assert str(exc.value) == "non-finite value in Z at row 17"

    def test_nan_outcome_of_unselected_row(self):
        data = self._draw()
        row = int(np.flatnonzero(data.d == 0.0)[0])
        with pytest.raises(DataError) as exc:
            Dataset(**self._with("y", row, None, np.nan))
        assert str(exc.value) == f"non-finite value in y at row {row}"

    def test_inf_outcome_of_selected_row(self):
        data = self._draw()
        row = int(np.flatnonzero(data.d == 1.0)[0])
        with pytest.raises(DataError, match=f"in y at row {row}$"):
            Dataset(**self._with("y", row, None, np.inf))

    def test_rows_capped_and_arrays_named(self):
        arrays = self._with("X", slice(0, 12), 0, -np.inf)
        arrays["Z"][150] = np.nan
        with pytest.raises(DataError) as exc:
            Dataset(**arrays)
        rows = ", ".join(str(i) for i in range(10))
        assert str(exc.value) == (f"non-finite value in X at row {rows}, ... and 2 more rows; "
                                  "non-finite value in Z at row 150")


class TestTake:
    FIELDS = ("d", "y", "X", "Z")

    def test_row_numbers_gather_the_bits_of_fancy_indexing(self):
        data = simulate(DgpSpec("dgp1", 300, rho=0.5, seed=3)).dataset
        rows = np.random.default_rng(1).integers(-data.n, data.n, data.n)
        taken = data.take(rows)
        for f in self.FIELDS:
            assert getattr(taken, f).tobytes() == getattr(data, f)[rows].tobytes()
        assert data.take(list(rows[:5])).Z.tobytes() == data.Z[rows[:5]].tobytes()

    def test_boolean_mask_selects_its_rows(self):
        data = Dataset(*_arrays(n=6))
        mask = np.array([True, False, True, True, False, True])
        taken = data.take(mask)
        assert taken.n == 4
        for f in self.FIELDS:
            assert np.array_equal(getattr(taken, f), getattr(data, f)[mask])
        assert data.take(list(mask)).n == 4

    def test_boolean_mask_of_another_length_rejected(self):
        data = Dataset(*_arrays(n=6))
        with pytest.raises(IndexError, match="boolean mask"):
            data.take(np.ones(5, dtype=bool))
