"""Consumer valuation model for period-priced data plans.

A consumer of type sigma facing a plan with service period t consumes
an uncertain demand over the period, normally distributed with mean
mu*t and standard deviation sigma*sqrt(t).  The plan carries a data cap
q per unit time (q*t per period), so demand above the cap goes unmet.
The consumer values met demand at alpha per unit; her per-unit-time
valuation of the plan is therefore

    V(sigma, t) = alpha * (mu - (sigma / sqrt(t)) * E(a)),
    a = sqrt(t) * (q - mu) / sigma,

with E the expected excess of a standard normal above a.  Longer
periods smooth demand (V rises in t), higher volatility hurts (V falls
in sigma), and V never exceeds alpha*mu.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .normals import _excess, _pdf


@dataclass
class DemandProfile:
    """Common demand parameters: unit value alpha, mean rate mu, cap q.

    The cap must sit at or above the mean rate (q >= mu), so the
    normalized shortfall threshold a = sqrt(t)*(q - mu)/sigma is
    nonnegative.
    """

    alpha: float
    mu: float
    q: float

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not (self.mu > 0):
            raise ValueError("mu must be positive")
        if not (self.q >= self.mu):
            raise ValueError("cap q must be at least the mean rate mu")

    @property
    def excess_cap(self):
        """q - mu >= 0."""
        return self.q - self.mu


@dataclass
class CostModel:
    """Provider cost per unit time: C(t) = W(t) + c0 for a period-t plan.

    c0 is a fixed per-subscriber overhead; W is the variable cost of
    carrying the plan for a period of length t, convex nondecreasing
    with W(0) = 0.  Default is linear, W(t) = c1 * t.  A custom `w`
    callable must broadcast over numpy arrays.
    """

    c0: float
    c1: float = 0.0
    w: Optional[Callable] = None

    def __post_init__(self):
        if not (self.c0 >= 0):
            raise ValueError("c0 must be nonnegative")
        if self.w is None and not (self.c1 >= 0):
            raise ValueError("c1 must be nonnegative for the linear cost")


def _check_sigma_t(sigma, t):
    # One min and one max per argument: NaN propagates into both and fails
    # every comparison, and an in-range `initial` lets empty arrays pass.
    sv = np.asarray(sigma, dtype=float)
    tv = np.asarray(t, dtype=float)
    if not (sv.min(initial=0.0) >= 0 and sv.max(initial=0.0) < np.inf):
        raise ValueError("sigma must be finite and nonnegative")
    if not (tv.min(initial=1.0) > 0 and tv.max(initial=1.0) < np.inf):
        raise ValueError("period t must be finite and positive")
    return sv, tv


def _shortfall_threshold(profile, sigma, t):
    # a = sqrt(t) * (q - mu) / sigma, with the sigma=0 branch masked to a
    # huge threshold so downstream tail quantities evaluate to 0; returns
    # the sigma > 0 mask too.  a is finite, so the normals' unchecked
    # kernels take it.
    pos = sigma > 0
    a = np.where(pos, np.sqrt(t) * profile.excess_cap / np.where(pos, sigma, 1.0), np.inf)
    return np.minimum(a, 1e6), pos


def valuation(profile, sigma, t):
    """Per-unit-time value V(sigma, t) a type-sigma consumer places on a
    period-t plan.  V(0, t) = alpha*mu (the volatility-free limit)."""
    sv, tv = _check_sigma_t(sigma, t)
    a, pos = _shortfall_threshold(profile, sv, tv)
    shortfall_rate = np.where(pos, sv / np.sqrt(tv) * _excess(a, _pdf(a)), 0.0)
    return (profile.alpha * (profile.mu - shortfall_rate))[()]


def valuation_dsigma2(profile, sigma, t):
    """(V, dV/dsigma, d2V/dsigma2) from one threshold a, one phi(a) and one E(a).

    dV/dsigma = -alpha*phi(a)/sqrt(t) < 0 and
    d2V/dsigma2 = -alpha*a^2*phi(a)/(sigma*sqrt(t)); both derivatives are
    0 in the sigma = 0 limit, where V = alpha*mu.
    """
    sv, tv = _check_sigma_t(sigma, t)
    a, pos = _shortfall_threshold(profile, sv, tv)
    rt = np.sqrt(tv)
    phi = _pdf(a)
    v = profile.alpha * (profile.mu - np.where(pos, sv / rt * _excess(a, phi), 0.0))
    vs = np.where(pos, -profile.alpha * phi / rt, 0.0)
    return v, vs, vs * a * a / np.where(pos, sv, 1.0)


def valuation_dt(profile, sigma, t):
    """dV/dt = alpha*sigma*phi(a)/(2*t^1.5) > 0; 0 in the sigma = 0 limit."""
    return valuation_dt_dtt(profile, sigma, t)[0][()]


def valuation_dt_dtt(profile, sigma, t):
    """(dV/dt, d2V/dt2) from one threshold a and one phi(a).

    dV/dt = alpha*sigma*phi(a)/(2*t^1.5) and d2V/dt2 = -V_t*(a^2 + 3)/(2t)
    < 0, so V is strictly concave in t; both are 0 in the sigma = 0 limit.
    """
    sv, tv = _check_sigma_t(sigma, t)
    a, pos = _shortfall_threshold(profile, sv, tv)
    vt = np.where(pos, profile.alpha * sv * _pdf(a) / (2.0 * tv ** 1.5), 0.0)
    return vt, -vt * (a * a + 3.0) / (2.0 * tv)


def valuation_dsigma(profile, sigma, t):
    """dV/dsigma = -alpha*phi(a)/sqrt(t) < 0 for sigma > 0.

    At sigma = 0 the one-sided limit is 0; that value is returned and a
    RuntimeWarning flags the degenerate evaluation.
    """
    vs = valuation_dsigma2(profile, sigma, t)[1]
    if np.any(np.asarray(sigma) == 0):
        warnings.warn("valuation_dsigma at sigma=0: returning one-sided limit 0", RuntimeWarning)
    return vs[()]


def cost(model, t):
    """Provider cost per unit time C(t) = W(t) + c0 of serving a period-t plan."""
    tv = np.asarray(t, dtype=float)
    if not (tv.min(initial=0.0) >= 0 and tv.max(initial=0.0) < np.inf):  # as in _check_sigma_t
        raise ValueError("period t must be finite and nonnegative")
    variable = model.w(tv) if model.w is not None else model.c1 * tv
    return (np.asarray(variable, dtype=float) + model.c0)[()]
