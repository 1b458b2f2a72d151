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
        # NaN fails every comparison, so each chain also refuses non-finite values
        if not (0 < self.alpha < np.inf):
            raise ValueError("alpha must be finite and positive")
        if not (0 < self.mu < np.inf):
            raise ValueError("mu must be finite and positive")
        if not (self.mu <= self.q < np.inf):
            raise ValueError("cap q must be finite and at least the mean rate mu")

    @property
    def excess_cap(self):
        """q - mu >= 0."""
        return self.q - self.mu


#: Search window for service periods (days, say): strictly positive,
#: generous upper end.  Objectives flatten far below the cap; the
#: solver warns if an argmax presses against it.
DEFAULT_T_DOMAIN = (1e-4, 600.0)
#: Points of the geometric grid on DEFAULT_T_DOMAIN where a custom W is
#: checked for convexity, and the rounding allowance of that check,
#: relative to the largest |W| on the grid.
CONVEXITY_POINTS = 257
CONVEXITY_RTOL = 16 * np.finfo(float).eps


@dataclass
class CostModel:
    """Provider cost per unit time: C(t) = W(t) + c0 for a period-t plan.

    c0 is a fixed per-subscriber overhead; W is the variable cost of
    carrying the plan for a period of length t, convex nondecreasing
    with W(0) = 0.  Default is linear, W(t) = c1 * t; a custom `w`
    callable, which must broadcast over numpy arrays, replaces it (c1 stays 0).

    Convexity is what makes every period objective strictly concave
    (see discrete.block_periods), so a custom w is checked once, here:
    on CONVEXITY_POINTS geometric points of DEFAULT_T_DOMAIN no value of
    W may lie above the chord of its two neighbours by more than
    rounding (CONVEXITY_RTOL of the largest |W| there).  One that does,
    a non-finite value, or a w that does not return one value per
    period, is a ValueError naming w.  The searches themselves probe
    nothing.
    """

    c0: float
    c1: float = 0.0
    w: Optional[Callable] = None

    def __post_init__(self):
        if not (0 <= self.c0 < np.inf):
            raise ValueError("c0 must be finite and nonnegative")
        if self.w is not None and self.c1 != 0:
            raise ValueError("c1 applies to the linear cost only; a custom w carries its own linear term")
        if not (0 <= self.c1 < np.inf):
            raise ValueError("c1 must be finite and nonnegative")
        if self.w is not None:
            t = np.geomspace(*DEFAULT_T_DOMAIN, CONVEXITY_POINTS)
            w = np.asarray(self.w(t), dtype=float)
            allowance = CONVEXITY_RTOL * np.abs(w).max()  # NaN or inf where any W is not finite
            share = (t[2:] - t[1:-1]) / (t[2:] - t[:-2])  # the left neighbour's weight in the chord
            if not (w.shape == t.shape and allowance < np.inf
                    and np.all(w[1:-1] - share * w[:-2] - (1.0 - share) * w[2:] <= allowance)):
                raise ValueError(f"cost w must give one finite value per period, convex in t, on the plan window {DEFAULT_T_DOMAIN}")


# The threshold in two halves, so that a period search checks and prepares
# its types once and then evaluates them at every period it tries:
# _types checks sigma and returns (sigma, sigma > 0, the safe divisor);
# _threshold checks t and returns (t, a).  Each public kernel composes the
# two, so every public call still checks both, by one min and one max
# each: NaN fails every comparison, and an in-range `initial` lets empty
# arrays pass.  a = sqrt(t) * (q - mu) / sigma is capped to a finite 1e6
# (sigma = 0 included, where tail quantities then evaluate to 0), so the
# normals' unchecked kernels take it.
def _types(sigma):
    sv = np.asarray(sigma, dtype=float)
    if not (sv.min(initial=0.0) >= 0 and sv.max(initial=0.0) < np.inf):
        raise ValueError("sigma must be finite and nonnegative")
    pos = sv > 0
    return sv, pos, np.where(pos, sv, 1.0)


def _threshold(profile, types, t):
    tv = np.asarray(t, dtype=float)
    if not (tv.min(initial=1.0) > 0 and tv.max(initial=1.0) < np.inf):
        raise ValueError("period t must be finite and positive")
    _, pos, divisor = types
    return tv, np.minimum(np.where(pos, np.sqrt(tv) * profile.excess_cap / divisor, np.inf), 1e6)


def valuation(profile, sigma, t):
    """Per-unit-time value V(sigma, t) a type-sigma consumer places on a
    period-t plan.  V(0, t) = alpha*mu (the volatility-free limit)."""
    return _valuation(profile, sigma, t, _excess)


def _valuation(profile, sigma, t, excess):
    # V with E(a) from the kernel `excess`: normals._excess for every
    # caller but the grid oracles' tables, which take normals._excess_table
    types = _types(sigma)
    sv, pos, _ = types
    tv, a = _threshold(profile, types, t)
    shortfall_rate = np.where(pos, sv / np.sqrt(tv) * excess(a, _pdf(a)), 0.0)
    return (profile.alpha * (profile.mu - shortfall_rate))[()]


def valuation_dsigma2(profile, sigma, t):
    """(V, dV/dsigma, d2V/dsigma2, dV/dt) from one threshold a, one phi(a)
    and one E(a).

    dV/dsigma = -alpha*phi(a)/sqrt(t) < 0,
    d2V/dsigma2 = -alpha*a^2*phi(a)/(sigma*sqrt(t)) and
    dV/dt = alpha*sigma*phi(a)/(2*t^1.5), bit for bit as valuation_dt;
    the derivatives are 0 in the sigma = 0 limit, where V = alpha*mu.
    """
    types = _types(sigma)
    sv, pos, divisor = types
    tv, a = _threshold(profile, types, t)
    rt = np.sqrt(tv)
    phi = _pdf(a)
    v = profile.alpha * (profile.mu - np.where(pos, sv / rt * _excess(a, phi), 0.0))
    vs = np.where(pos, -profile.alpha * phi / rt, 0.0)
    vt = np.where(pos, profile.alpha * sv * phi / (2.0 * tv ** 1.5), 0.0)
    return v, vs, vs * a * a / divisor, vt


def valuation_dt(profile, sigma, t):
    """dV/dt = alpha*sigma*phi(a)/(2*t^1.5) > 0; 0 in the sigma = 0 limit."""
    return _dt_dtt(profile, _types(sigma), t)[0][()]


def _dt_dtt(profile, types, t):
    """(dV/dt, d2V/dt2) of types that _types already checked and prepared,
    from one threshold a and one phi(a).

    dV/dt = alpha*sigma*phi(a)/(2*t^1.5) and d2V/dt2 = -V_t*(a^2 + 3)/(2t)
    < 0, so V is strictly concave in t; both are 0 in the sigma = 0 limit.
    """
    sv, pos, _ = types
    tv, a = _threshold(profile, types, t)
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
    if not (tv.min(initial=0.0) >= 0 and tv.max(initial=0.0) < np.inf):  # as in _threshold
        raise ValueError("period t must be finite and nonnegative")
    variable = model.w(tv) if model.w is not None else model.c1 * tv
    return (np.asarray(variable, dtype=float) + model.c0)[()]


def _cost_slopes(cost_model, t):
    """(C'(t), C''(t)): (c1, 0) for the linear cost, central differences
    of a custom W (of W, not of C = W + c0, whose larger values would
    round the differences more coarsely)."""
    if cost_model.w is None:
        return cost_model.c1, 0.0
    h = np.minimum(1e-4 * np.maximum(1.0, t), t)
    down, mid, up = np.asarray(cost_model.w(np.stack([t - h, t, t + h])), dtype=float)
    return (up - down) / (2.0 * h), (up - 2.0 * mid + down) / (h * h)
