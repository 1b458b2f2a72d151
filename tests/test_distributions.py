"""Type distributions and the boundary-unimodality shape condition."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from planmenu.distributions import (
    SHAPE_CONSTANT,
    ContinuousMarket,
    DiscreteMarket,
    make_market,
)
from planmenu.grouped import _blocks, _boundary_slopes


def _uniform06():
    return make_market("uniform", 0.0, 6.0)


def _exponential06(rate=0.5, size=1.0):
    return make_market("exponential", 0.0, 6.0, size=size, rate=rate)


def _truncnorm06(loc=3.0, scale=1.5, size=1.0):
    return make_market("truncated_normal", 0.0, 6.0, size=size, loc=loc, scale=scale)


ALL_MARKETS = [_uniform06, _exponential06, _truncnorm06]


# --- discrete markets ---------------------------------------------------

def test_discrete_market_basics():
    mkt = DiscreteMarket(sigmas=[0.5, 1.5, 3.0], counts=[2.0, 1.0, 4.0])
    assert mkt.n_types == 3
    assert mkt.total_count == 7.0


def test_discrete_market_validation():
    with pytest.raises(ValueError):
        DiscreteMarket(sigmas=[1.0, 1.0], counts=[1.0, 1.0])
    with pytest.raises(ValueError):
        DiscreteMarket(sigmas=[2.0, 1.0], counts=[1.0, 1.0])
    with pytest.raises(ValueError):
        DiscreteMarket(sigmas=[-0.5, 1.0], counts=[1.0, 1.0])
    with pytest.raises(ValueError):
        DiscreteMarket(sigmas=[0.5, 1.0], counts=[1.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteMarket(sigmas=[0.5, 1.0], counts=[1.0])
    with pytest.raises(ValueError):
        DiscreteMarket(sigmas=[], counts=[])


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: DiscreteMarket(sigmas=[1.0, 2.0], counts=[1.0, math.inf]), "counts"),
        (lambda: DiscreteMarket(sigmas=[1.0, math.nan], counts=[1.0, 1.0]), "sigmas"),
        (lambda: DiscreteMarket(sigmas=[1.0, math.inf], counts=[1.0, 1.0]), "sigmas"),
        (lambda: make_market("uniform", 0.0, 6.0, size=math.inf), "size"),
        (lambda: make_market("uniform", 0.0, math.inf), "sigma_max"),
        (lambda: make_market("exponential", 0.0, 6.0, rate=math.inf), "rate"),
        (lambda: make_market("truncated_normal", 0.0, 6.0, loc=math.inf, scale=1.0), "loc"),
        (lambda: make_market("truncated_normal", 0.0, 6.0, loc=3.0, scale=math.inf), "scale"),
    ],
    ids=["counts_inf", "sigmas_nan", "sigmas_inf", "size_inf", "sigma_max_inf", "rate_inf", "loc_inf", "scale_inf"],
)
def test_market_constructors_refuse_non_finite(build, field):
    with pytest.raises(ValueError, match=field):
        build()


# --- continuous markets: density/CDF consistency ------------------------

@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_cdf_endpoints(factory):
    mkt = factory()
    assert abs(mkt.cdf(mkt.sigma_min)) < 1e-10
    assert abs(mkt.cdf(mkt.sigma_max) - 1.0) < 1e-10


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_pdf_integrates_to_one(factory):
    mkt = factory()
    total, _ = integrate.quad(lambda s: mkt.pdf(s), mkt.sigma_min, mkt.sigma_max,
                              epsabs=1e-12, limit=200)
    assert abs(total - 1.0) < 1e-8


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_cdf_matches_integrated_pdf(factory):
    mkt = factory()
    for s in (0.7, 2.4, 4.9):
        ref, _ = integrate.quad(lambda x: mkt.pdf(x), mkt.sigma_min, s,
                                epsabs=1e-12, limit=200)
        assert abs(mkt.cdf(s) - ref) < 1e-9


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_density_slope_finite_differences(factory):
    mkt = factory()
    h = 1e-6
    for s in (0.5, 1.7, 3.0, 5.2):
        fd = (mkt.pdf(s + h) - mkt.pdf(s - h)) / (2 * h)
        exact = mkt.density(s)[2]
        assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_quantile_inverts_cdf(factory):
    mkt = factory()
    ps = np.linspace(0.001, 0.999, 101)
    sig = mkt.quantile(ps)
    assert np.max(np.abs(mkt.cdf(sig) - ps)) < 1e-9
    assert abs(mkt.quantile(0.0) - mkt.sigma_min) < 1e-12
    assert abs(mkt.quantile(1.0) - mkt.sigma_max) < 1e-9


def test_steep_exponential_quantile_reaches_the_window_top():
    # rate * (sigma_max - sigma_min) = 60, so the window's mass rounds to
    # exp(-rate * sigma_min) and p = 1 leaves exactly 0 under the log; an
    # exp(-rate * sigma_min) recomputed an ulp larger left a negative number
    mkt = make_market("exponential", 0.12, 6.12, rate=10.0)
    assert mkt.quantile(1.0) == mkt.sigma_max
    sig = mkt.quantile(np.linspace(0.0, 1.0, 101))
    assert np.all(np.diff(sig) >= 0) and sig[-1] == mkt.sigma_max
    assert abs(sig[0] - mkt.sigma_min) < 1e-12


def mp_density(mkt, sigma):
    """(g, G, g') of a bundled-family market at 50 digits."""
    with mpmath.workdps(50):
        s, lo, hi = (mpmath.mpf(float(x)) for x in (sigma, mkt.sigma_min, mkt.sigma_max))
        if mkt.kind == "uniform":
            return 1 / (hi - lo), (s - lo) / (hi - lo), mpmath.mpf(0)
        if mkt.kind == "exponential":
            r = mpmath.mpf(mkt.rate)
            norm = mpmath.exp(-r * lo) - mpmath.exp(-r * hi)
            g = r * mpmath.exp(-r * s) / norm
            return g, (mpmath.exp(-r * lo) - mpmath.exp(-r * s)) / norm, -r * g
        loc, scale = mpmath.mpf(mkt.loc), mpmath.mpf(mkt.scale)
        z, zlo, zhi = ((x - loc) / scale for x in (s, lo, hi))
        norm = mpmath.ncdf(zhi) - mpmath.ncdf(zlo)
        g = mpmath.npdf(z) / (scale * norm)
        return g, (mpmath.ncdf(z) - mpmath.ncdf(zlo)) / norm, -z / scale * g


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_scalar_array_agreement(factory):
    # one evaluation path: float and array input give the same numbers,
    # within a few roundings of the 50-digit reference
    mkt = factory()
    sig = np.linspace(0.0, 6.0, 25)
    ref = np.array([[float(z) for z in mp_density(mkt, s)] for s in sig])
    for col, f in enumerate((mkt.pdf, mkt.cdf, lambda x: mkt.density(x)[2])):
        arr = f(sig)
        scal = np.array([f(float(s)) for s in sig])
        assert np.array_equal(arr, scal)
        assert np.all(np.abs(arr - ref[:, col]) <= 1e-14 * np.maximum(1.0, np.abs(ref[:, col])))
        assert isinstance(f(1.3), float)


def test_uniform_closed_forms():
    mkt = _uniform06()
    assert mkt.pdf(2.0) == 1.0 / 6.0
    assert mkt.cdf(3.0) == 0.5
    assert mkt.density(4.0)[2] == 0.0
    assert mkt.quantile(0.25) == 1.5


def test_exponential_closed_forms():
    mkt = _exponential06(rate=0.5)
    norm = 1.0 - math.exp(-3.0)
    assert abs(mkt.pdf(2.0) - 0.5 * math.exp(-1.0) / norm) < 1e-15
    assert abs(mkt.cdf(2.0) - (1.0 - math.exp(-1.0)) / norm) < 1e-15
    assert abs(mkt.density(2.0)[2] + 0.5 * mkt.pdf(2.0)) < 1e-15


def test_truncated_normal_symmetry():
    mkt = _truncnorm06(loc=3.0, scale=1.5)
    # loc centered in the window: median at loc, density symmetric
    assert abs(mkt.cdf(3.0) - 0.5) < 1e-12
    assert abs(mkt.pdf(2.0) - mkt.pdf(4.0)) < 1e-15
    assert abs(mkt.density(3.0)[2]) < 1e-15
    assert mkt.density(2.0)[2] > 0 > mkt.density(4.0)[2]


def test_support_enforced():
    mkt = _uniform06()
    with pytest.raises(ValueError):
        mkt.pdf(6.5)
    with pytest.raises(ValueError):
        mkt.cdf(-0.5)
    with pytest.raises(ValueError):
        mkt.quantile(1.5)
    # values a rounding error outside the window are clipped, not rejected
    assert mkt.cdf(6.0 + 1e-13) == 1.0


@pytest.mark.parametrize("factory", ALL_MARKETS)
def test_nan_type_rejected(factory):
    # NaN fails the window check rather than flowing into densities and
    # masses; an empty array still passes
    mkt = factory()
    for fn in (mkt.cdf, mkt.pdf, lambda x: mkt.density(x)[2]):
        for sigma in (float("nan"), np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="outside the market window"):
                fn(sigma)
        assert fn(np.empty(0)).shape == (0,)


def test_market_validation():
    with pytest.raises(ValueError):
        make_market("pareto", 0.0, 6.0)
    with pytest.raises(ValueError):
        make_market("uniform", 3.0, 3.0)
    with pytest.raises(ValueError):
        make_market("uniform", -1.0, 6.0)
    with pytest.raises(ValueError):
        make_market("uniform", 0.0, 6.0, size=0.0)
    with pytest.raises(ValueError):
        make_market("exponential", 0.0, 6.0)  # missing rate
    with pytest.raises(ValueError):
        make_market("exponential", 0.0, 6.0, rate=-1.0)
    with pytest.raises(ValueError):
        make_market("truncated_normal", 0.0, 6.0, loc=3.0)  # missing scale
    with pytest.raises(ValueError):
        # window so deep in the tail it carries no double-precision mass
        make_market("truncated_normal", 50.0, 51.0, loc=0.0, scale=1.0)


def test_make_market_is_the_constructor():
    # a keyword the constructor does not take is refused, not dropped
    assert make_market is ContinuousMarket
    with pytest.raises(TypeError, match="'N'"):
        make_market("uniform", 0.0, 6.0, N=50)


@pytest.mark.parametrize(
    "build, param, kind",
    [
        (lambda: make_market("uniform", 0.0, 6.0, rate=3.0), "rate", "uniform"),
        (lambda: make_market("uniform", 0.0, 6.0, loc=3.0, scale=1.5), "loc", "uniform"),
        (lambda: make_market("exponential", 0.0, 6.0, rate=0.5, loc=1.0), "loc", "exponential"),
        (lambda: make_market("exponential", 0.0, 6.0, rate=0.5, scale=1.0), "scale", "exponential"),
        (lambda: make_market("truncated_normal", 0.0, 6.0, rate=0.5, loc=3.0, scale=1.5), "rate", "truncated_normal"),
    ],
    ids=["uniform_rate", "uniform_loc", "exponential_loc", "exponential_scale", "truncated_normal_rate"],
)
def test_family_refuses_parameters_it_never_reads(build, param, kind):
    with pytest.raises(ValueError, match=f"a {kind} market takes no {param}, got"):
        build()


def test_market_refuses_window_without_representable_mass():
    # a mass of 1.1e-322 is subnormal: the density there is NaN at one
    # end and inf at the other
    with pytest.raises(ValueError, match="no representable probability mass"):
        make_market(
            "truncated_normal", 0.0008500924234097232, 0.024961482377190522,
            loc=0.42271125469901566, scale=0.010361583498001061,
        )
    # a full mass, but the density's slope is inf * 0 at the window ends
    with pytest.raises(ValueError, match="density is not finite at the window ends"):
        make_market("truncated_normal", 0.0, 1.0, loc=0.5, scale=1e-300)
    with pytest.raises(ValueError, match="density is not finite at the window ends"):
        make_market("uniform", 0.0, 1e-320)


# --- shape condition -----------------------------------------------------

def test_shape_constant_value():
    assert SHAPE_CONSTANT == 3.0 - 2.0 * math.sqrt(2.0)


def test_shape_condition_uniform_is_constant():
    # uniform on [0, L]: g = 1/L, g' = 0, G = s/L, so
    # F(s) = 2/L - SHAPE_CONSTANT/L for every s > 0
    mkt = _uniform06()
    expect = (2.0 - SHAPE_CONSTANT) / 6.0
    grid = np.linspace(0.5, 6.0, 50)
    vals = mkt.theorem3_condition(grid)
    assert np.max(np.abs(vals - expect)) < 1e-14
    assert np.all(vals > 0)


def test_shape_condition_at_zero_is_twice_density():
    for factory in ALL_MARKETS:
        mkt = factory()
        assert abs(mkt.theorem3_condition(0.0) - 2.0 * mkt.pdf(0.0)) < 1e-15
    # exponential: 2 g(0) = 2*rate/(1 - exp(-rate*L)) >= 2*rate
    mkt = _exponential06(rate=0.5)
    assert mkt.theorem3_condition(0.0) >= 2.0 * 0.5


@pytest.mark.parametrize("factory", ALL_MARKETS + [lambda: make_market("exponential", 0.5, 4.0, rate=1.2)])
def test_shape_condition_matches_pointwise_formula(factory):
    # the one-call slack equals F(sigma) evaluated point by point from the
    # scalar density, CDF and slope, including the sigma = 0 limit 2 g(0)
    mkt = factory()
    grid = np.linspace(mkt.sigma_min, mkt.sigma_max, 61)
    ref = []
    for s in grid:
        G, g, gp = mkt.density(float(s))
        ref.append(2.0 * g if s == 0.0 else (2.0 * g * g - gp * G) / g - SHAPE_CONSTANT * G / s)
    vals = mkt.theorem3_condition(grid)
    assert vals.shape == grid.shape
    assert np.allclose(vals, ref, rtol=1e-12, atol=1e-14)
    assert abs(mkt.theorem3_condition(float(grid[0])) - ref[0]) <= 1e-12 * abs(ref[0])


def test_shape_condition_holds_on_bundled_families():
    for factory in ALL_MARKETS:
        mkt = factory()
        report = mkt.verify_theorem3(grid_points=1000)
        assert report.holds
        assert report.min_slack >= -1e-10
        assert report.grid_points == 1000
        assert mkt.sigma_min <= report.argmin_sigma <= mkt.sigma_max


@pytest.mark.parametrize("points", [2.9, 1000.0, True, "1000", None], ids=["fraction", "whole_float", "bool", "string", "none"])
def test_shape_condition_grid_size_must_be_an_integer(points):
    # int() would have run 2.9 as a 2-point grid
    with pytest.raises(ValueError, match=f"needs an integer, at least 2 points and at most 1000000, got {points!r}"):
        _uniform06().verify_theorem3(grid_points=points)
    report = _uniform06().verify_theorem3(grid_points=np.int64(500))
    assert type(report.grid_points) is int and report.grid_points == 500


def test_shape_condition_holds_for_top_heavy_normal():
    # a sharp spike near the top of the window still satisfies the
    # condition: on the rising flank the Gaussian tail bound
    # |z|*Phi(z) < phi(z) keeps 2g - (g'/g)G positive
    mkt = make_market("truncated_normal", 0.0, 6.0, loc=5.8, scale=0.2)
    report = mkt.verify_theorem3(grid_points=1000)
    assert report.holds
    assert report.min_slack >= -1e-10


@pytest.mark.parametrize(
    "factory",
    ALL_MARKETS
    + [
        lambda: make_market("truncated_normal", 0.0, 6.0, loc=5.8, scale=0.2),
        lambda: make_market("truncated_normal", 2.0, 9.0, loc=-4.0, scale=1.5),
        lambda: make_market("exponential", 0.5, 40.0, rate=3.0),
    ],
)
def test_shape_slack_is_at_least_its_proven_share_of_the_density(factory):
    # log-concavity gives F >= (2*sqrt(2) - 2) g (see the module docstring);
    # the uniform family attains (2 - SHAPE_CONSTANT) g.  Every point where
    # g > 0 counts, also where g^2 would be subnormal (g < 1.5e-154)
    mkt = factory()
    grid = np.linspace(mkt.sigma_min, mkt.sigma_max, 1001)
    g = mkt.pdf(grid)
    grid, g = grid[g > 0], g[g > 0]
    assert grid.size > 800
    assert np.all(mkt.theorem3_condition(grid) >= (2.0 * math.sqrt(2.0) - 2.0) * g * (1.0 - 1e-12))


@st.composite
def family_markets(draw):
    """Any family on any window, over wide parameter ranges: windows from
    1e-3 to 1e3 wide, rates up to 1e4 and scales down to 1e-3, so the
    density underflows to 0 over most of many windows."""
    kind = draw(st.sampled_from(["uniform", "exponential", "truncated_normal"]))
    lo = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(-4.0, 3.0))
    hi = lo + 10.0 ** draw(st.floats(-3.0, 3.0))
    params = {}
    if kind == "exponential":
        params["rate"] = 10.0 ** draw(st.floats(-4.0, 4.0))
    elif kind == "truncated_normal":
        params["loc"] = draw(st.floats(-2.0, 2.0)) * 10.0 ** draw(st.floats(-2.0, 3.0))
        params["scale"] = 10.0 ** draw(st.floats(-3.0, 3.0))
    return kind, lo, hi, params


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(family_markets())
def test_shape_condition_holds_for_every_family(market):
    kind, lo, hi, params = market
    try:
        mkt = make_market(kind, lo, hi, **params)
    except ValueError as exc:  # a window the constructor refuses
        assert "probability mass" in str(exc) or "not finite" in str(exc)
        return
    assert mkt.verify_theorem3().holds


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(family_markets())
def test_boundary_slopes_change_sign_at_most_once(profile, cost_model, market):
    # what the shape condition gives the boundary search, read off the
    # slopes: for the menu with periods (1, 2), item 0's term (its wedge
    # against item 1) and item 1's (against opting out) each have a Q'
    # that changes sign at most once on a 1001-point grid, from >= 0 to
    # < 0.  Only points where |Q'| exceeds 16 roundings of its absolute
    # terms count; a massless point (slope and scale both 0) counts as >= 0
    kind, lo, hi, params = market
    try:
        mkt = make_market(kind, lo, hi, **params)
    except ValueError as exc:  # a window the constructor refuses
        assert "probability mass" in str(exc) or "not finite" in str(exc)
        return
    items = np.arange(2)
    sigma = np.linspace(mkt.sigma_min, mkt.sigma_max, 1001)
    _, slope, scale, _, _, _ = _boundary_slopes(profile, mkt, sigma[:, None], _blocks(cost_model, [1.0, 2.0], items, items))
    resolved = np.abs(slope) > 16 * np.finfo(float).eps * scale
    falling = resolved & (slope < 0)
    rising = (resolved & (slope > 0)) | ((slope == 0) & (scale == 0))
    for k in items:
        after = np.argmax(falling[:, k]) if falling[:, k].any() else sigma.size
        assert not rising[after:, k].any(), (k, sigma[after:][rising[after:, k]][:3])


def test_shape_condition_judged_where_defined():
    # g underflows to 0 above sigma = 1.28, where the slack is 0/0: the
    # check judges the 12 grid points below, where it holds
    mkt = make_market("exponential", 0.0, 106.9, rate=582.6)
    grid = np.linspace(mkt.sigma_min, mkt.sigma_max, 1000)
    slack = mkt.theorem3_condition(grid)
    assert not np.isnan(slack[:12]).any() and np.isnan(slack[12:]).all()
    report = mkt.verify_theorem3()
    assert report.holds
    assert report.min_slack == np.min(slack[:12]) > 0
    assert report.argmin_sigma == grid[np.argmin(slack[:12])]


def test_shape_condition_fails_for_valley_density(valley_market):
    # a two-bump density breaks the condition in the valley: mass has
    # already accumulated (G moderate) while g collapses and the rising
    # flank makes g'/g large positive, so (g'/g)*G overwhelms 2g
    report = valley_market.verify_theorem3(grid_points=1000)
    assert not report.holds
    assert report.min_slack < -1.0
    assert 2.0 < report.argmin_sigma < 4.0
    # quadrature sanity on the hand-rolled mixture itself
    total, _ = integrate.quad(valley_market.pdf, 0.0, 6.0, epsabs=1e-10, limit=200)
    assert abs(total - 1.0) < 1e-8
    h = 1e-6
    for s in (0.5, 3.1, 5.0):
        fd = (valley_market.pdf(s + h) - valley_market.pdf(s - h)) / (2 * h)
        assert abs(fd - valley_market.density(s)[2]) < 1e-5 * max(1.0, abs(fd))
        ref, _ = integrate.quad(valley_market.pdf, 0.0, s, epsabs=1e-10, limit=200)
        assert abs(valley_market.cdf(s) - ref) < 1e-8


def test_wedge_bound_peak():
    # the per-type price wedge t*(q-mu)^2*(s^2 - t*(q-mu)^2) /
    # (s^3*(s^2 + t*(q-mu)^2)) over t is maximized where x = t*(q-mu)^2/s^2
    # equals sqrt(2)-1, with peak value SHAPE_CONSTANT/s; this is the margin
    # the shape condition must absorb
    def wedge(x):
        return x * (1.0 - x) / (1.0 + x)

    xhat = math.sqrt(2.0) - 1.0
    assert abs(wedge(xhat) - SHAPE_CONSTANT) < 1e-15
    xs = np.linspace(1e-6, 1.0, 20001)
    vals = wedge(xs)
    assert np.max(vals) <= SHAPE_CONSTANT + 1e-12
    assert abs(xs[np.argmax(vals)] - xhat) < 1e-4
    for s in (0.5, 2.0, 6.0):
        assert np.max(vals / s) <= SHAPE_CONSTANT / s + 1e-12


def test_rate_ratio_bound():
    # x / (1 - exp(-x)) >= 1 for x > 0, the growth bound used when the
    # exponential family is compared against its own truncation
    # (expm1 avoids the cancellation in 1 - exp(-x) for small x)
    xs = np.linspace(1e-9, 50.0, 10001)
    vals = xs / -np.expm1(-xs)
    assert np.all(vals >= 1.0)
    assert abs(vals[0] - 1.0) < 1e-8
