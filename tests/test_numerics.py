import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from snnselect.numerics import (
    KERNEL_ORDERS,
    eval_kernel,
    inverse_mills,
    kernel_l2,
    kernel_moment,
    normal_pdf,
)
from snnselect.registry import EstimatorConfig

# Closed forms on [-1, 1]: order 2 is (3/4)(1 - u^2); order 4 multiplies it by
# (15 - 35 u^2)/8.  Even moments of (1 - u^2) u^j are 2/(j+1) - 2/(j+3).
def _even_moment(j: int) -> Fraction:
    return Fraction(2, j + 1) - Fraction(2, j + 3)


EXACT_MOMENTS = {
    2: lambda j: Fraction(3, 4) * _even_moment(j),
    4: lambda j: Fraction(3, 32) * (15 * _even_moment(j) - 35 * _even_moment(j + 2)),
}
EXACT_L2 = {2: Fraction(3, 5), 4: Fraction(5, 4)}


class TestKernels:
    def test_epanechnikov2_peak(self):
        assert eval_kernel(2, 0.0) == 0.75

    def test_outside_support_is_zero(self):
        for k in (2, 4):
            assert eval_kernel(k, 1.5) == 0.0
            assert eval_kernel(k, -1.0001) == 0.0

    def test_epanechnikov4_closed_form_point(self):
        # (15/8 - 35/8 u^2)(3/4)(1 - u^2) at u = 0.5
        expected = (15 / 8 - 35 / 32) * 0.75 * 0.75
        assert eval_kernel(4, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_moment_normalization(self):
        assert kernel_moment(2, 0) == pytest.approx(1.0, abs=1e-8)
        assert kernel_moment(4, 0) == pytest.approx(1.0, abs=1e-8)

    def test_moment_symmetry(self):
        assert kernel_moment(2, 1) == pytest.approx(0.0, abs=1e-8)

    def test_moment_second_analytic(self):
        # ∫ u^2 (3/4)(1-u^2) du = 0.2 exactly
        assert kernel_moment(2, 2) == pytest.approx(0.2, abs=1e-8)

    def test_fourth_order_moment_conditions(self):
        k4 = 4
        for j in range(1, 4):
            assert kernel_moment(k4, j) == pytest.approx(0.0, abs=1e-8)
        m4 = kernel_moment(k4, 4)
        assert math.isfinite(m4) and abs(m4) > 1e-3
        assert m4 == pytest.approx(-1.0 / 21.0, abs=1e-8)  # analytic value

    def test_l2_analytic(self):
        # ∫ (9/16)(1-u^2)^2 du = 0.6 exactly
        assert kernel_l2(2) == pytest.approx(0.6, abs=1e-8)

    @pytest.mark.parametrize("order, j", [(2, j) for j in range(5)] + [(4, j) for j in range(9)])
    def test_moments_and_l2_exact(self, order, j):
        k = order
        expected = EXACT_MOMENTS[order](j) if j % 2 == 0 else Fraction(0)
        assert kernel_moment(k, j) == float(expected)
        assert kernel_l2(k) == float(EXACT_L2[order])

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=200)
    def test_evenness(self, u):
        for k in (2, 4):
            assert eval_kernel(k, u) == pytest.approx(eval_kernel(k, -u), abs=1e-15)

    def test_unknown_order_rejected(self):
        assert KERNEL_ORDERS == (2, 4)
        for order in (0, 3, 6):
            for reject in (lambda: eval_kernel(order, 0.0), lambda: kernel_moment(order, 0),
                           lambda: kernel_l2(order), lambda: EstimatorConfig(kernel_order=order)):
                with pytest.raises(ValueError, match="kernel order must be 2 or 4"):
                    reject()


class TestGaussian:
    # the CDF checks are on scipy's ndtr, the function probit_mle calls
    def test_cdf_at_zero(self):
        assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_975_quantile(self):
        # high-precision value from mpmath's ncdf
        import mpmath

        expected = float(mpmath.ncdf("1.959964"))
        assert ndtr(1.959964) == pytest.approx(expected, abs=1e-13)
        assert ndtr(1.959964) == pytest.approx(0.975, abs=1e-9)

    def test_cdf_symmetry_and_monotonicity(self):
        xs = np.linspace(-8, 8, 2001)
        c = ndtr(xs)
        assert np.all(np.diff(c) >= 0)
        assert np.max(np.abs(c + ndtr(-xs) - 1.0)) < 1e-12

    def test_pdf_matches_cdf_derivative(self):
        xs = np.linspace(-5, 5, 41)
        h = 1e-6
        numeric = (ndtr(xs + h) - ndtr(xs - h)) / (2 * h)
        assert np.allclose(numeric, normal_pdf(xs), atol=1e-7)

    def test_inverse_mills_at_zero(self):
        assert inverse_mills(0.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-10)

    def test_inverse_mills_positive_decreasing(self):
        ts = np.linspace(-40, 8, 500)
        lam = inverse_mills(ts)
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) < 0)

    def test_inverse_mills_deep_tail(self):
        # λ(t) ~ -t + 1/|t| for t -> -inf; must stay finite and accurate
        for t in (-30.0, -50.0, -100.0, -300.0):
            lam = inverse_mills(t)
            assert math.isfinite(lam)
            assert lam == pytest.approx(-t + 1.0 / (-t), rel=1e-3)
