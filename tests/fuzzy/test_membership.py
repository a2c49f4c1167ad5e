"""Unit and property tests for membership functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzzy.membership import (
    Trapezoidal,
    Triangular,
    paper_trapezoidal,
    paper_triangular,
)


class TestTriangular:
    def test_peak_has_full_membership(self):
        mf = Triangular(0.0, 5.0, 10.0)
        assert mf(5.0) == pytest.approx(1.0)

    def test_feet_have_zero_membership(self):
        mf = Triangular(0.0, 5.0, 10.0)
        assert mf(0.0) == pytest.approx(0.0)
        assert mf(10.0) == pytest.approx(0.0)

    def test_outside_support_is_zero(self):
        mf = Triangular(0.0, 5.0, 10.0)
        assert mf(-3.0) == 0.0
        assert mf(42.0) == 0.0

    def test_midpoints_are_half(self):
        mf = Triangular(0.0, 5.0, 10.0)
        assert mf(2.5) == pytest.approx(0.5)
        assert mf(7.5) == pytest.approx(0.5)

    def test_left_shoulder_degenerate(self):
        mf = Triangular(0.0, 0.0, 10.0)
        assert mf(0.0) == pytest.approx(1.0)
        assert mf(5.0) == pytest.approx(0.5)

    def test_right_shoulder_degenerate(self):
        mf = Triangular(0.0, 10.0, 10.0)
        assert mf(10.0) == pytest.approx(1.0)
        assert mf(5.0) == pytest.approx(0.5)

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            Triangular(5.0, 2.0, 10.0)

    def test_array_evaluation_matches_scalar(self):
        mf = Triangular(0.0, 5.0, 10.0)
        xs = np.linspace(-1.0, 11.0, 25)
        array_result = mf(xs)
        for x, mu in zip(xs, array_result):
            assert mu == pytest.approx(mf(float(x)))

    def test_support(self):
        assert Triangular(1.0, 2.0, 3.0).support == (1.0, 3.0)

    @given(
        a=st.floats(-100, 100),
        width_left=st.floats(0.1, 50),
        width_right=st.floats(0.1, 50),
        x=st.floats(-250, 250),
    )
    @settings(max_examples=100)
    def test_membership_always_in_unit_interval(self, a, width_left, width_right, x):
        mf = Triangular(a, a + width_left, a + width_left + width_right)
        assert 0.0 <= mf(x) <= 1.0

    @given(
        a=st.floats(-100, 100),
        width_left=st.floats(0.5, 50),
        width_right=st.floats(0.5, 50),
    )
    @settings(max_examples=50)
    def test_is_normal(self, a, width_left, width_right):
        mf = Triangular(a, a + width_left, a + width_left + width_right)
        assert mf.is_normal()


class TestTrapezoidal:
    def test_plateau_has_full_membership(self):
        mf = Trapezoidal(0.0, 2.0, 8.0, 10.0)
        for x in (2.0, 5.0, 8.0):
            assert mf(x) == pytest.approx(1.0)

    def test_ramps(self):
        mf = Trapezoidal(0.0, 2.0, 8.0, 10.0)
        assert mf(1.0) == pytest.approx(0.5)
        assert mf(9.0) == pytest.approx(0.5)

    def test_outside_support_is_zero(self):
        mf = Trapezoidal(0.0, 2.0, 8.0, 10.0)
        assert mf(-1.0) == 0.0
        assert mf(11.0) == 0.0

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            Trapezoidal(0.0, 5.0, 3.0, 10.0)

    def test_core_and_support(self):
        mf = Trapezoidal(0.0, 2.0, 8.0, 10.0)
        assert mf.core == (2.0, 8.0)
        assert mf.support == (0.0, 10.0)

    def test_degenerate_trapezoid_equals_triangle(self):
        trap = Trapezoidal(0.0, 5.0, 5.0, 10.0)
        tri = Triangular(0.0, 5.0, 10.0)
        xs = np.linspace(0.0, 10.0, 31)
        np.testing.assert_allclose(trap(xs), tri(xs), atol=1e-12)

    @given(x=st.floats(-20, 20))
    @settings(max_examples=100)
    def test_rectangular_shoulder(self, x):
        mf = Trapezoidal(0.0, 0.0, 5.0, 10.0)
        if 0.0 <= x <= 5.0:
            assert mf(x) == pytest.approx(1.0)


class TestPaperNotation:
    def test_paper_triangular_matches_breakpoints(self):
        # f(x; x0=5, a0=2, a1=3) -> triangle (3, 5, 8)
        mf = paper_triangular(5.0, 2.0, 3.0)
        assert mf.a == 3.0 and mf.b == 5.0 and mf.c == 8.0

    def test_paper_trapezoidal_matches_breakpoints(self):
        # g(x; x0=2, x1=6, a0=2, a1=4) -> trapezoid (0, 2, 6, 10)
        mf = paper_trapezoidal(2.0, 6.0, 2.0, 4.0)
        assert (mf.a, mf.b, mf.c, mf.d) == (0.0, 2.0, 6.0, 10.0)

    def test_paper_triangular_formula_agreement(self):
        """The paper's f() formula and our Triangular agree on the rising edge."""
        x0, a0, a1 = 10.0, 4.0, 6.0
        mf = paper_triangular(x0, a0, a1)
        for x in np.linspace(x0 - a0 + 0.01, x0, 10):
            expected = (x - x0) / a0 + 1.0
            assert mf(float(x)) == pytest.approx(expected, abs=1e-9)
        for x in np.linspace(x0 + 0.01, x0 + a1 - 0.01, 10):
            expected = (x0 - x) / a1 + 1.0
            assert mf(float(x)) == pytest.approx(expected, abs=1e-9)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            paper_triangular(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            paper_trapezoidal(0.0, 1.0, 1.0, -1.0)

    def test_reversed_plateau_rejected(self):
        with pytest.raises(ValueError):
            paper_trapezoidal(5.0, 1.0, 1.0, 1.0)


class TestGenericHelpers:
    def test_sample_matches_call(self):
        mf = Triangular(0.0, 1.0, 2.0)
        xs = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(mf.sample(xs), mf(xs))
