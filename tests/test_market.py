"""Consumer valuation model: closed forms, derivatives, scaling, costs.

Frozen values were computed by adaptive quadrature on the defining
integral V(sigma, t) = alpha * E[min(D_t, q*t)] / t with
D_t ~ Normal(mu*t, sigma^2 * t), independently of the closed form.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from scipy import integrate

from planmenu.market import (
    CostModel,
    DemandProfile,
    _dt_dtt,
    _types,
    cost,
    valuation,
    valuation_dsigma,
    valuation_dsigma2,
    valuation_dt,
)
from planmenu.normals import expected_excess, std_normal_pdf

# quadrature-oracle values (alpha=1, mu=13, q=15)
V_2_1 = 12.833369058824628
PHI_1 = 0.241970724519143
UNMET_MU9_S2_Q10_T1 = 0.395593114802612


def _quad_valuation(profile, sigma, t):
    # direct integration of alpha/t * E[min(D, q t)], D ~ N(mu t, sigma^2 t),
    # split at the cap kink so the quadrature keeps full accuracy
    m = profile.mu * t
    s = sigma * math.sqrt(t)
    kink = (profile.q * t - m) / s

    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    below, _ = integrate.quad(lambda x: (m + s * x) * phi(x), -40.0, kink,
                              epsabs=1e-13, limit=200)
    tail, _ = integrate.quad(phi, kink, 40.0, epsabs=1e-13, limit=200)
    return profile.alpha * (below + profile.q * t * tail) / t


def unsatisfied_demand(profile, sigma, t):
    """Expected demand above the cap over one whole period of length t:
    sigma*sqrt(t)*E(a) with a = sqrt(t)*(q - mu)/sigma, and 0 at sigma = 0
    (deterministic demand never exceeds the cap since q >= mu)."""
    sigma, t = np.broadcast_arrays(np.asarray(sigma, dtype=float), np.asarray(t, dtype=float))
    pos = sigma > 0
    a = np.sqrt(t) * profile.excess_cap / np.where(pos, sigma, 1.0)
    return np.where(pos, sigma * np.sqrt(t) * expected_excess(a), 0.0)


def test_valuation_sigma_zero_is_alpha_mu(profile):
    assert valuation(profile, 0.0, 1.0) == 13.0
    assert valuation(profile, 0.0, 7.3) == 13.0
    prof2 = DemandProfile(alpha=2.5, mu=4.0, q=6.0)
    assert valuation(prof2, 0.0, 2.0) == 10.0


def test_valuation_at_a_tiny_sigma_is_the_volatility_free_limit(profile):
    # sqrt(t) (q - mu) / sigma exceeds the largest float at a subnormal
    # sigma: the threshold is 1e6 there with no overflow warning (an error
    # in this suite), so V = alpha*mu and every derivative is 0, as at 0
    sigma = 2.225073858507203e-309
    assert valuation(profile, sigma, 1.0) == 13.0
    assert valuation_dsigma2(profile, sigma, 1.0) == (13.0, 0.0, 0.0, 0.0)
    assert valuation_dt(profile, sigma, 1.0) == 0.0
    tiny = np.array([5e-324, sigma, 1e-307, 1e-300, 1e-150])
    t = np.array([[1e-4], [1.0], [600.0]])
    assert np.all(valuation(profile, tiny, t) == 13.0)
    assert all(np.all(d == 0.0) for d in valuation_dsigma2(profile, tiny, t)[1:])
    # at q = mu the threshold is 0 for every sigma > 0, however small, and
    # the sigma-slope is -alpha*phi(0)/sqrt(t), as at sigma = 1
    at_mean = DemandProfile(alpha=1.0, mu=13.0, q=13.0)
    assert valuation_dsigma2(at_mean, sigma, 4.0)[1] == valuation_dsigma2(at_mean, 1.0, 4.0)[1] == -0.5 * std_normal_pdf(0.0)


def test_valuation_frozen_point(profile):
    assert abs(valuation(profile, 2.0, 1.0) - V_2_1) < 1e-12


def test_valuation_against_quadrature(profile):
    for sig, t in [(0.5, 1.0), (2.0, 1.0), (3.0, 4.0), (6.0, 2.0), (1.0, 10.0)]:
        ref = _quad_valuation(profile, sig, t)
        assert abs(valuation(profile, sig, t) - ref) < 1e-9


def test_valuation_scaling(profile):
    # V(sigma, t) = V(k*sigma, k^2*t)
    assert abs(valuation(profile, 2.0, 1.0) - valuation(profile, 4.0, 4.0)) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(50):
        sig = rng.uniform(0.1, 8.0)
        t = rng.uniform(0.05, 30.0)
        k = rng.uniform(0.2, 5.0)
        lhs = valuation(profile, sig, t)
        rhs = valuation(profile, k * sig, k * k * t)
        assert abs(lhs - rhs) < 1e-12


def test_valuation_bounded_by_alpha_mu(profile):
    sig = np.linspace(0.0, 12.0, 61)
    t = np.linspace(0.01, 40.0, 61)
    ss, tt = np.meshgrid(sig, t)
    vals = valuation(profile, ss, tt)
    assert np.all(vals <= profile.alpha * profile.mu + 1e-15)
    # strictly below the bound wherever the shortfall term is resolvable
    resolvable = (ss > 0) & (np.sqrt(tt) * profile.excess_cap < 5.5 * np.maximum(ss, 1e-300))
    assert np.all(vals[resolvable] < profile.alpha * profile.mu)


def test_valuation_monotone_in_sigma_and_t(profile):
    # strict monotonicity is checked where the shortfall threshold a stays
    # moderate; for a >> 1 the valuation saturates at alpha*mu below float
    # resolution, so neighboring values tie
    for sig in (1.0, 2.0, 4.0):
        t = np.linspace(0.05, 4.0 * sig ** 2, 200)
        vals = valuation(profile, sig, t)
        assert np.all(np.diff(vals) > 0.0)  # longer periods help
    sig = np.linspace(1.0, 10.0, 200)
    for t0 in (0.5, 1.0, 8.0):
        vals = valuation(profile, sig, t0)
        assert np.all(np.diff(vals) < 0.0)  # volatility hurts
    # saturated region still respects weak monotonicity
    t = np.linspace(0.05, 30.0, 200)
    assert np.all(np.diff(valuation(profile, 0.3, t)) >= 0.0)


def test_unsatisfied_demand_frozen_point():
    prof = DemandProfile(alpha=1.0, mu=9.0, q=10.0)
    assert abs(unsatisfied_demand(prof, 2.0, 1.0) - UNMET_MU9_S2_Q10_T1) < 1e-12


def test_unsatisfied_demand_zero_at_sigma_zero(profile):
    assert unsatisfied_demand(profile, 0.0, 1.0) == 0.0
    assert unsatisfied_demand(profile, 0.0, 25.0) == 0.0


def test_unsatisfied_demand_links_valuation(profile):
    # V = alpha * (mu - unmet/t) exactly
    for sig, t in [(0.5, 0.3), (2.0, 1.0), (4.0, 9.0)]:
        unmet = unsatisfied_demand(profile, sig, t)
        assert abs(valuation(profile, sig, t) - profile.alpha * (profile.mu - unmet / t)) < 1e-12


def test_unsatisfied_demand_rate_decreasing_in_t(profile):
    # per-unit-time unmet demand falls as the period grows
    t = np.linspace(0.1, 50.0, 400)
    rate = unsatisfied_demand(profile, 2.0, t) / t
    assert np.all(np.diff(rate) < 0.0)


def test_valuation_dt_closed_form_and_fd(profile):
    # at (2, 1): a = 1, dV/dt = alpha*sigma*phi(1)/2 = phi(1)
    assert abs(valuation_dt(profile, 2.0, 1.0) - PHI_1) < 1e-12
    h = 1e-6
    for sig, t in [(0.5, 0.8), (2.0, 1.0), (3.0, 5.0), (6.0, 12.0)]:
        fd = (valuation(profile, sig, t + h) - valuation(profile, sig, t - h)) / (2 * h)
        exact = valuation_dt(profile, sig, t)
        assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))
    assert valuation_dt(profile, 0.0, 3.0) == 0.0


def test_valuation_second_derivative_symbolic(profile):
    # differentiate the defining formula symbolically: V_t, the closed
    # form V_tt = -V_t (a^2 + 3) / (2t) the period search relies on, and
    # the cross partial V_sigma_t = V_t (1 + a^2) / sigma
    s, t, alpha, d, mu = sp.symbols("sigma t alpha d mu", positive=True)
    x = sp.Symbol("x", real=True)
    phi = sp.exp(-x**2 / 2) / sp.sqrt(2 * sp.pi)
    excess = phi - x * sp.erfc(x / sp.sqrt(2)) / 2
    a = sp.sqrt(t) * d / s
    v = alpha * (mu - s / sp.sqrt(t) * excess.subs(x, a))
    vt, vtt, vst = sp.diff(v, t), sp.diff(v, t, 2), sp.diff(v, s, t)
    assert sp.simplify(vt - alpha * s * phi.subs(x, a) / (2 * t ** sp.Rational(3, 2))) == 0
    assert sp.simplify(vtt + vt * (a**2 + 3) / (2 * t)) == 0
    assert sp.simplify(vst - vt * (1 + a**2) / s) == 0

    # the fused kernel and the cross-partial helper against the symbolic
    # derivatives, the kernel also against valuation_dt
    subs = {alpha: profile.alpha, d: profile.q - profile.mu, mu: profile.mu}
    ref = sp.lambdify((s, t), [vt.subs(subs), vtt.subs(subs), vst.subs(subs)], "mpmath")
    sig = np.array([0.05, 0.5, 2.0, 3.0, 6.0, 30.0])
    per = np.array([1e-4, 0.8, 1.0, 5.0, 12.0, 600.0])
    got_t, got_tt = _dt_dtt(profile, _types(sig), per)
    got_st = valuation_dsigma_dt(profile, sig, per)
    for k in range(sig.size):
        ref_t, ref_tt, ref_st = (float(z) for z in ref(sig[k], per[k]))
        assert abs(got_t[k] - ref_t) <= 1e-13 * abs(ref_t)
        assert abs(got_tt[k] - ref_tt) <= 1e-13 * abs(ref_tt)
        assert abs(got_st[k] - ref_st) <= 1e-13 * abs(ref_st)
    assert np.array_equal(got_t, valuation_dt(profile, sig, per))
    assert np.all(got_tt < 0)
    zero_t, zero_tt = _dt_dtt(profile, _types(np.array([0.0])), np.array([3.0]))
    assert zero_t[0] == 0.0 and zero_tt[0] == 0.0


def test_valuation_dsigma_closed_form_and_fd(profile):
    # at (2, 1): dV/dsigma = -phi(1)
    assert abs(valuation_dsigma(profile, 2.0, 1.0) + PHI_1) < 1e-12
    h = 1e-6
    for sig, t in [(0.5, 0.8), (2.0, 1.0), (3.0, 5.0)]:
        fd = (valuation(profile, sig + h, t) - valuation(profile, sig - h, t)) / (2 * h)
        exact = valuation_dsigma(profile, sig, t)
        assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))


def test_valuation_dsigma_warns_at_zero(profile):
    with pytest.warns(RuntimeWarning):
        out = valuation_dsigma(profile, 0.0, 1.0)
    assert out == 0.0


def test_valuation_dsigma_scaling(profile):
    # dV/dsigma at (k*sigma, k^2*t) is 1/k times its value at (sigma, t)
    base = valuation_dsigma(profile, 2.0, 1.0)
    assert abs(valuation_dsigma(profile, 4.0, 4.0) - base / 2.0) < 1e-12


def valuation_dsigma_dt(profile, sigma, t):
    """Cross partial d2V/(dsigma dt) = alpha*phi(a)/(2*sqrt(t)) * (1/t + (q-mu)^2/sigma^2).

    Strictly positive (single crossing): longer periods soften the
    volatility penalty.  Undefined at sigma = 0.
    """
    sv, tv = np.asarray(sigma, dtype=float), np.asarray(t, dtype=float)
    if np.any(sv == 0):
        raise ValueError("cross partial undefined at sigma=0")
    a = np.minimum(np.sqrt(tv) * profile.excess_cap / sv, 1e6)
    return (profile.alpha * std_normal_pdf(a) / (2.0 * np.sqrt(tv)) * (1.0 / tv + (profile.excess_cap / sv) ** 2))[()]


def test_cross_partial_closed_form(profile):
    # at (2, 1): a = 1, d2V = phi(1)/2 * (1 + 4/4) = phi(1)
    assert abs(valuation_dsigma_dt(profile, 2.0, 1.0) - PHI_1) < 1e-12
    # finite differences of dV/dsigma in t
    h = 1e-6
    for sig, t in [(0.7, 0.5), (2.0, 1.0), (4.0, 6.0)]:
        fd = (valuation_dsigma(profile, sig, t + h) - valuation_dsigma(profile, sig, t - h)) / (2 * h)
        exact = valuation_dsigma_dt(profile, sig, t)
        assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))


def test_cross_partial_positive_on_grid(profile):
    # sigma >= 0.5 keeps a = sqrt(t)*(q-mu)/sigma small enough that phi(a)
    # does not underflow to an exact 0
    sig = np.linspace(0.5, 6.0, 40)
    t = np.linspace(0.05, 24.0, 40)
    ss, tt = np.meshgrid(sig, t)
    vals = valuation_dsigma_dt(profile, ss, tt)
    assert np.all(vals > 0.0)
    # underflow region still comes out nonnegative
    assert valuation_dsigma_dt(profile, 0.05, 24.0) >= 0.0


def test_cross_partial_rejects_sigma_zero(profile):
    with pytest.raises(ValueError):
        valuation_dsigma_dt(profile, 0.0, 1.0)


def test_cross_partial_cap_at_mean():
    # q = mu: a = 0, cross partial reduces to alpha*phi(0)/(2*t^1.5)
    prof = DemandProfile(alpha=1.0, mu=13.0, q=13.0)
    t = 4.0
    expect = (1.0 / math.sqrt(2 * math.pi)) / (2.0 * t ** 1.5)
    assert abs(valuation_dsigma_dt(prof, 3.0, t) - expect) < 1e-14


def test_valuation_concave_in_t(profile):
    # restrict t so V has not yet saturated at alpha*mu (see monotone test)
    for sig in (0.5, 2.0, 5.0):
        t = np.linspace(0.2, 4.0 * sig ** 2, 500)
        vals = valuation(profile, sig, t)
        second = np.diff(vals, 2)
        assert np.all(second < 0.0)


def test_increasing_preference_property(profile, rng):
    # the valuation gap between volatility types widens toward shorter
    # periods: V(s_hi, t) - V(s_lo, t) increases in t
    for _ in range(100):
        s_lo, s_hi = np.sort(rng.uniform(0.05, 8.0, size=2))
        t_lo, t_hi = np.sort(rng.uniform(0.05, 30.0, size=2))
        if s_hi - s_lo < 1e-6 or t_hi - t_lo < 1e-6:
            continue
        gap_lo = valuation(profile, s_hi, t_lo) - valuation(profile, s_lo, t_lo)
        gap_hi = valuation(profile, s_hi, t_hi) - valuation(profile, s_lo, t_hi)
        assert gap_hi >= gap_lo - 1e-12


def test_input_validation(profile):
    with pytest.raises(ValueError):
        valuation(profile, -0.1, 1.0)
    with pytest.raises(ValueError):
        valuation(profile, 1.0, 0.0)
    with pytest.raises(ValueError):
        valuation(profile, 1.0, -2.0)
    with pytest.raises(ValueError):
        valuation(profile, float("nan"), 1.0)
    with pytest.raises(ValueError):
        DemandProfile(alpha=1.0, mu=13.0, q=12.9)
    with pytest.raises(ValueError):
        DemandProfile(alpha=0.0, mu=13.0, q=15.0)
    with pytest.raises(ValueError):
        CostModel(c0=-1.0, c1=0.5)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: DemandProfile(alpha=math.inf, mu=13.0, q=15.0), "alpha"),
        (lambda: DemandProfile(alpha=1.0, mu=13.0, q=math.inf), "cap q"),
        (lambda: CostModel(c0=math.inf, c1=0.5), "c0"),
        (lambda: CostModel(c0=10.0, c1=math.inf), "c1"),
    ],
    ids=["alpha_inf", "q_inf", "c0_inf", "c1_inf"],
)
def test_constructors_refuse_non_finite(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_cost_linear(cost_model):
    assert cost(cost_model, 1.0) == 10.5
    assert cost(cost_model, 2.0) == 11.0
    assert abs(cost(cost_model, 1e-12) - cost_model.c0) < 1e-11
    assert cost(cost_model, 0.0) == 10.0
    with pytest.raises(ValueError):
        cost(cost_model, -1.0)
    arr = cost(cost_model, np.array([1.0, 2.0, 4.0]))
    assert np.allclose(arr, [10.5, 11.0, 12.0], atol=0)


def test_cost_custom_variable_part():
    model = CostModel(c0=10.0, w=lambda t: t ** 2)
    assert cost(model, 3.0) == 19.0
    assert np.allclose(cost(model, np.array([0.0, 2.0])), [10.0, 14.0])


def test_cost_model_refuses_c1_beside_a_custom_w():
    # a custom w replaces the linear cost, so a c1 beside it would do nothing
    for c1 in (0.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="c1 applies to the linear cost only"):
            CostModel(c0=10.0, c1=c1, w=lambda t: t ** 2)
    assert cost(CostModel(c0=10.0, c1=0.0, w=lambda t: t ** 2), 3.0) == 19.0


@pytest.mark.parametrize(
    "w",
    [
        lambda t: -0.01 * t * t,  # concave everywhere
        np.sqrt,  # concave, steepest near the window's low end
        lambda t: 0.5 * t - 0.2 * np.maximum(t - 1.0, 0.0),  # a concave kink at t = 1
        lambda t: np.where(t > 300.0, np.nan, t),  # not finite on part of the window
        lambda t: np.where(t < 600.0, t, np.inf),  # not finite at the window's top
        lambda t: 2.0,  # one value for every period: the period searches could not use it
    ],
    ids=["falling_quadratic", "sqrt", "kink", "nan", "inf", "constant"],
)
def test_cost_model_refuses_a_nonconvex_w(w):
    # a custom w is checked once, where it is built: every period search
    # relies on a convex cost for its strictly concave objective
    with pytest.raises(ValueError, match=r"^cost w must give one finite value per period, convex in t, on the plan window \(0.0001, 600.0\)$"):
        CostModel(c0=10.0, w=w)


@pytest.mark.parametrize(
    "w",
    [
        lambda t: -0.05 * t,  # linear and falling: convex to rounding
        lambda t: 0 * t,
        lambda t: 0.1 * t * t,
        lambda t: 0.02 * t * t + 0.9 * t,
        lambda t: 1e-3 * t**3 + 1e6 * t,  # a large linear term beside a small curvature
        lambda t: 0.5 * t + 0.2 * np.maximum(t - 1.0, 0.0),  # a convex kink
    ],
    ids=["falling_linear", "zero", "quadratic", "quadratic_linear", "cubic", "kink"],
)
def test_cost_model_accepts_a_convex_w(w):
    assert CostModel(c0=10.0, w=w).w is w


def mp_valuation(profile, sigma, t):
    """(V, V_t) at 50 digits from the defining closed form."""
    with mpmath.workdps(50):
        s, t = mpmath.mpf(float(sigma)), mpmath.mpf(float(t))
        alpha, mu, q = (mpmath.mpf(x) for x in (profile.alpha, profile.mu, profile.q))
        if s == 0:
            return alpha * mu, mpmath.mpf(0)
        a = mpmath.sqrt(t) * (q - mu) / s
        excess = mpmath.npdf(a) - a * mpmath.erfc(a / mpmath.sqrt(2)) / 2
        return alpha * (mu - s / mpmath.sqrt(t) * excess), alpha * s * mpmath.npdf(a) / (2 * t**1.5)


def test_scalar_array_agreement(profile):
    # one evaluation path: float and array input give the same numbers,
    # within a few roundings of the 50-digit reference, down to small
    # sigma and far-tail thresholds a (up to about 1e3 here)
    sig = np.concatenate([[0.0, 1e-3, 0.01, 0.05], np.linspace(0.1, 8.0, 29)])
    t = np.concatenate([[1e-4, 600.0, 2.0, 0.3], np.linspace(0.1, 20.0, 29)])
    ref = np.array([[float(z) for z in mp_valuation(profile, s, x)] for s, x in zip(sig, t)])
    for f, col, rtol in ((valuation, 0, 4e-16), (valuation_dt, 1, 1e-13)):
        arr = f(profile, sig, t)
        scal = np.array([f(profile, float(s), float(x)) for s, x in zip(sig, t)])
        assert np.array_equal(arr, scal)
        assert np.all(np.abs(arr - ref[:, col]) <= rtol * np.abs(ref[:, col]))
        assert isinstance(f(profile, 1.5, 2.5), float)


def test_fused_sigma_kernel_symbolic(profile):
    # differentiate the defining formula twice in sigma: V_s = -alpha phi(a)/sqrt(t)
    # and V_ss = -alpha a^2 phi(a)/(sigma sqrt(t)), which the boundary
    # search's curvature uses; and once in t, V_t = alpha sigma phi(a)/(2 t^1.5),
    # which the period gradient uses
    s, t, alpha, d, mu = sp.symbols("sigma t alpha d mu", positive=True)
    x = sp.Symbol("x", real=True)
    phi = sp.exp(-x**2 / 2) / sp.sqrt(2 * sp.pi)
    excess = phi - x * sp.erfc(x / sp.sqrt(2)) / 2
    a = sp.sqrt(t) * d / s
    v = alpha * (mu - s / sp.sqrt(t) * excess.subs(x, a))
    vs, vss, vt = sp.diff(v, s), sp.diff(v, s, 2), sp.diff(v, t)
    assert sp.simplify(vs + alpha * phi.subs(x, a) / sp.sqrt(t)) == 0
    assert sp.simplify(vss + alpha * a**2 * phi.subs(x, a) / (s * sp.sqrt(t))) == 0
    assert sp.simplify(vt - alpha * s * phi.subs(x, a) / (2 * t ** sp.Rational(3, 2))) == 0

    subs = {alpha: profile.alpha, d: profile.q - profile.mu, mu: profile.mu}
    ref = sp.lambdify((s, t), [v.subs(subs), vs.subs(subs), vss.subs(subs), vt.subs(subs)], "mpmath")
    sig = np.array([0.05, 0.5, 2.0, 3.0, 6.0, 30.0])
    per = np.array([1e-4, 0.8, 1.0, 5.0, 12.0, 600.0])
    got = valuation_dsigma2(profile, sig, per)
    assert np.array_equal(got[0], valuation(profile, sig, per))
    assert np.array_equal(got[1], valuation_dsigma(profile, sig, per))
    assert np.array_equal(got[3], valuation_dt(profile, sig, per))
    with mpmath.workdps(50):
        for k in range(sig.size):
            want = [float(z) for z in ref(mpmath.mpf(sig[k]), mpmath.mpf(per[k]))]
            for g, w in zip(got, want):
                assert abs(g[k] - w) <= 1e-13 * abs(w)
    zero = valuation_dsigma2(profile, np.array([0.0]), np.array([3.0]))
    assert [z[0] for z in zero] == [13.0, 0.0, 0.0, 0.0]


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "sigma, t, message",
    [
        ([1.0, -0.5], [1.0, 1.0], "sigma"),
        ([1.0, NAN], [1.0, 1.0], "sigma"),
        ([1.0, INF], [1.0, 1.0], "sigma"),
        ([-INF, 1.0], [1.0, 1.0], "sigma"),
        ([1.0, 1.0], [1.0, 0.0], "period"),
        ([1.0, 1.0], [-1.0, 1.0], "period"),
        ([1.0, 1.0], [1.0, NAN], "period"),
        ([1.0, 1.0], [INF, 1.0], "period"),
        ([1.0, 1.0], [1.0, -INF], "period"),
    ],
    ids=["negative_sigma", "nan_sigma", "inf_sigma", "minus_inf_sigma", "zero_period", "negative_period",
         "nan_period", "inf_period", "minus_inf_period"],
)
def test_array_inputs_rejected(profile, sigma, t, message):
    for f in (valuation, valuation_dt, valuation_dsigma):
        with pytest.raises(ValueError, match=message):
            f(profile, np.array(sigma), np.array(t))


@pytest.mark.parametrize(
    "t", [[1.0, -0.5], [NAN, 1.0], [1.0, INF], [-INF, 1.0]], ids=["negative", "nan", "inf", "minus_inf"]
)
def test_cost_array_inputs_rejected(cost_model, t):
    with pytest.raises(ValueError, match="period t must be finite and nonnegative"):
        cost(cost_model, np.array(t))


def test_empty_array_inputs_pass(profile, cost_model):
    empty = np.array([])
    assert valuation(profile, empty, empty).shape == (0,)
    assert valuation_dt(profile, empty, 1.0).shape == (0,)
    assert cost(cost_model, empty).shape == (0,)
    assert cost(cost_model, np.array([0.0, 2.0])).tolist() == [10.0, 11.0]
