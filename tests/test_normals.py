"""Standard-normal primitives: densities, tail moments, and their identities.

Frozen reference values come from independent adaptive quadrature of the
defining integrals (scipy.integrate.quad on the density), not from the
closed forms under test.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from planmenu.normals import (
    INV_SQRT_2PI,
    expected_excess,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_sf,
)

# quadrature-oracle values
CDF_196 = 0.975002104851780
PHI_1 = 0.241970724519143
EXCESS_05 = 0.197796557401306


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_pdf_at_zero_and_one():
    assert abs(std_normal_pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15
    assert abs(std_normal_pdf(0.0) - INV_SQRT_2PI) < 1e-16
    assert abs(std_normal_pdf(1.0) - PHI_1) < 1e-12


def test_pdf_even_symmetry():
    xs = np.linspace(0.0, 8.0, 101)
    assert np.allclose(std_normal_pdf(xs), std_normal_pdf(-xs), rtol=0, atol=0)


def test_pdf_positive_and_rejects_nonfinite():
    assert std_normal_pdf(38.0) > 0.0
    with pytest.raises(ValueError):
        std_normal_pdf(float("nan"))
    with pytest.raises(ValueError):
        std_normal_pdf(float("inf"))


def test_cdf_reference_points():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.96) - CDF_196) < 1e-12
    assert abs(std_normal_cdf(40.0) - 1.0) < 1e-15


def test_cdf_against_quadrature():
    # absolute error <= 1e-12 versus direct integration of the density
    for x in (-3.2, -1.0, -0.1, 0.7, 2.5, 5.0):
        ref, _ = integrate.quad(_phi, -40.0, x, epsabs=1e-15)
        assert abs(std_normal_cdf(x) - ref) < 1e-12


def test_cdf_monotone_and_reflection():
    xs = np.linspace(-9.0, 9.0, 401)
    vals = std_normal_cdf(xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.max(np.abs(std_normal_cdf(-xs) - (1.0 - vals))) < 1e-14


def test_sf_complements_cdf():
    xs = np.linspace(-6.0, 6.0, 101)
    assert np.max(np.abs(std_normal_sf(xs) + std_normal_cdf(xs) - 1.0)) < 1e-14
    # far tail keeps relative accuracy where 1 - cdf would round to 0
    assert std_normal_sf(38.0) > 0.0


def test_cdf_array_tail_positive_where_scalar_is():
    # scipy's erfc flushes the subnormal tail below about -37.5 to 0
    xs = np.linspace(-38.5, -30.0, 1701)
    arr = std_normal_cdf(xs)
    scal = np.array([std_normal_cdf(float(x)) for x in xs])
    assert np.all(arr[scal > 0.0] > 0.0)
    assert std_normal_sf(np.array([38.0]))[0] > 0.0


def test_quantile_round_trip():
    ps = np.linspace(1e-12, 1.0 - 1e-12, 201)
    xs = std_normal_quantile(ps)
    assert np.max(np.abs(std_normal_cdf(xs) - ps)) < 1e-11
    assert std_normal_quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        std_normal_quantile(0.0)
    with pytest.raises(ValueError):
        std_normal_quantile(1.0)


def test_pdf_is_upper_partial_expectation():
    # integral_a^inf x*phi(x) dx collapses to phi(a)
    for a in (-2.0, 0.0, 1.0, 3.0):
        ref, _ = integrate.quad(lambda x: x * _phi(x), a, 40.0, epsabs=1e-15)
        assert abs(std_normal_pdf(a) - ref) < 1e-12
    assert abs(std_normal_pdf(1.0) - PHI_1) < 1e-12
    assert std_normal_pdf(40.0) < 1e-300


def test_expected_excess_reference_points():
    assert abs(expected_excess(0.0) - INV_SQRT_2PI) < 1e-15
    assert abs(expected_excess(0.5) - EXCESS_05) < 1e-12
    assert expected_excess(10.0) < 1e-20


def test_expected_excess_quadrature():
    for a in (-3.0, -0.5, 0.0, 0.8, 2.0, 4.0):
        ref, _ = integrate.quad(lambda x: (x - a) * _phi(x), a, 40.0, epsabs=1e-15)
        assert abs(expected_excess(a) - ref) < 1e-11


def test_expected_excess_monotone_decreasing():
    a = np.linspace(-8.0, 8.0, 2001)
    vals = expected_excess(a)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals >= 0.0)


def test_expected_excess_nonnegative_in_underflow_range():
    # phi(a) and a*sf(a) both underflow around a ~ 38; the difference must
    # never come out negative
    a = np.linspace(30.0, 60.0, 301)
    assert np.all(expected_excess(a) >= 0.0)
    assert expected_excess(50.0) == 0.0


def test_expected_excess_derivative_is_negative_sf():
    # d/da E[(X-a)^+] = -(1 - cdf(a)), checked by central differences
    h = 1e-6
    for a in np.linspace(-5.0, 5.0, 41):
        fd = (expected_excess(a + h) - expected_excess(a - h)) / (2.0 * h)
        exact = -std_normal_sf(a)
        assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


def test_scalar_and_array_paths_agree():
    xs = np.linspace(-7.0, 7.0, 57)
    for f in (std_normal_pdf, std_normal_cdf, std_normal_sf, expected_excess):
        arr = f(xs)
        scal = np.array([f(float(x)) for x in xs])
        assert np.max(np.abs(arr - scal)) < 1e-15
        assert isinstance(f(0.3), float)
