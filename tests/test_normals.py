"""Standard-normal primitives: densities, tail moments, and their identities.

Frozen reference values come from independent adaptive quadrature of the
defining integrals (scipy.integrate.quad on the density), not from the
closed forms under test.
"""

import math

import mpmath
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


def mp_pdf(x):
    with mpmath.workdps(50):
        return mpmath.npdf(mpmath.mpf(float(x)))


def mp_cdf(x):
    with mpmath.workdps(50):
        return mpmath.ncdf(mpmath.mpf(float(x)))


def mp_excess(a):
    """E[(X - a)^+] = phi(a) - a (1 - Phi(a)) at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(float(a))
        return mpmath.npdf(a) - a * mpmath.erfc(a / mpmath.sqrt(2)) / 2


def excess_rtol(a):
    """Relative error allowed in E(a): erfc's 2e-13 in the far tail,
    amplified by the cancellation of phi(a) against a sf(a)."""
    return 2e-13 * (1.0 + np.asarray(a) ** 2)


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
    # scipy's erfc flushes the subnormal tail below about -37.5 to 0; the
    # log_ndtr patch keeps it, for arrays and 0-d input alike, to the
    # 50-digit reference (1e-12 relative, plus two subnormal steps)
    xs = np.linspace(-38.5, -30.0, 171)
    ref = np.array([float(mp_cdf(x)) for x in xs])
    arr = std_normal_cdf(xs)
    assert np.all(arr[ref > 0.0] > 0.0)
    assert np.all(np.abs(arr - ref) <= 1e-12 * ref + 1e-323)
    for x in (-37.6, -38.0, -38.4):
        got = std_normal_cdf(x)
        assert isinstance(got, float) and got > 0.0
        assert abs(got - float(mp_cdf(x))) <= 1e-12 * float(mp_cdf(x)) + 1e-323
    assert std_normal_cdf(np.array(-38.0)) == std_normal_cdf(-38.0)
    assert std_normal_sf(np.array([38.0]))[0] > 0.0
    assert std_normal_sf(38.0) == std_normal_cdf(-38.0)


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
    # one evaluation path: float and array input give the same numbers,
    # each within its relative tolerance of the 50-digit reference
    xs = np.linspace(-7.0, 7.0, 57)
    refs = {
        std_normal_pdf: (mp_pdf, 1e-15),
        std_normal_cdf: (mp_cdf, 2e-14),
        std_normal_sf: (lambda x: mp_cdf(-x), 2e-14),
        expected_excess: (mp_excess, excess_rtol(xs)),
    }
    for f, (mp_f, rtol) in refs.items():
        ref = np.array([float(mp_f(x)) for x in xs])
        arr = f(xs)
        scal = np.array([f(float(x)) for x in xs])
        assert np.array_equal(arr, scal)
        assert np.all(np.abs(arr - ref) <= rtol * np.abs(ref))
        assert isinstance(f(0.3), float)


def test_expected_excess_far_tail_against_mpmath():
    # E(a) ~ phi(a)/a^2 for large a: phi(a) - a sf(a) cancels about a^2
    # times erfc's own relative error, and nothing more
    a = np.array([5.0, 10.0, 20.0, 30.0, 37.0])
    ref = np.array([float(mp_excess(x)) for x in a])
    assert np.all(np.abs(expected_excess(a) - ref) <= excess_rtol(a) * ref)
