"""Standard-normal helpers used throughout the valuation model.

Everything here accepts floats or numpy arrays and broadcasts; scalar
input gives a numpy float64 (a float subclass) back.

The tails come from the standard library alone: erfc is math.erfc taken
element by element, the cdf below -37.5 (where erfc's result is
subnormal) is the Mills-ratio asymptotic series, and the quantile is
statistics.NormalDist's inverse cdf.  _excess_table is a second,
vectorized kernel for E(a) on a >= 0, for the grid oracles' large
tables, where the element-by-element erfc would cost several times a
table's other arithmetic.
"""

import math
from statistics import NormalDist

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Terms k = 0..8 of the series sum_k (-1)^k (2k-1)!! / x^(2k): at
# |x| >= 37.5 the next term is below 1e-17 of the sum.
_MILLS_TERMS = 9
#: Monomial coefficients (constant first) in x = 2t - 1 of
#: g(x) = E(a) / (phi(a) t^2), t = 4 / (4 + a), on a in [0, inf): the
#: 27-term Chebyshev interpolant of g at 160 points of the first kind,
#: computed at 60 digits with mpmath.  The dropped Chebyshev terms are
#: below 3e-18, and g runs from 1/16 (a = inf) to 1 (a = 0).
_EXCESS_TABLE_G = (
    0.21356187338302926,
    0.31177255821094635,
    0.2696157220998694,
    0.15473318132771433,
    0.053216316616451535,
    0.003816808344472004,
    -0.005604441033611018,
    -0.0018768055179461465,
    0.000513851484203293,
    0.0003590536366057374,
    -6.385373054622567e-05,
    -6.472370447562934e-05,
    1.3517541334760432e-05,
    1.1603518339850312e-05,
    -3.882855961301629e-06,
    -1.8786570879077163e-06,
    1.1422192395831782e-06,
    1.9396389303925358e-07,
    -3.0205537073698477e-07,
    2.377323529717232e-08,
    6.597027364280663e-08,
    -1.942459654319978e-08,
    -1.062387363003984e-08,
    5.110631104205927e-09,
    1.0147560493890156e-09,
    -5.817314854902305e-10,
    -2.9794597836839386e-11,
)
_STD_NORMAL = NormalDist()


def _as_float_or_array(x):
    out = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite input")
    return out


def _erfc(x):
    """erfc, by math.erfc on each element."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


# phi and E without the input check, for callers whose input is already
# finite; E takes phi(a), so one exp serves a caller that needs both.
def _pdf(x):
    return INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _excess(a, phi):
    return np.maximum(phi - a * (0.5 * _erfc(a / SQRT2)), 0.0)


def _excess_table(a, phi):
    """E(a) = phi(a) t^2 g(2t - 1), t = 4 / (4 + a), for a >= 0: _excess's
    value to about 1e-15 relative (1e-15 of phi(a) at any a), with no
    cancellation and no second exp, by Horner's rule in place."""
    t = 4.0 / (4.0 + a)
    x = 2.0 * t - 1.0
    g = _EXCESS_TABLE_G[-1] * x
    g += _EXCESS_TABLE_G[-2]
    for c in _EXCESS_TABLE_G[-3::-1]:
        g *= x
        g += c
    g *= t
    g *= t
    g *= phi
    return g


def std_normal_pdf(x):
    """phi(x) = exp(-x^2/2)/sqrt(2*pi)."""
    return _pdf(_as_float_or_array(x))[()]


def std_normal_cdf(x):
    """Phi(x), computed via erfc for full-tail accuracy."""
    xv = _as_float_or_array(x)
    out = np.asarray(0.5 * _erfc(-xv / SQRT2))
    # erfc's result is subnormal below -37.5; there the asymptotic series
    # Phi(x) = phi(x)/|x| * sum_k (-1)^k (2k-1)!!/x^(2k), folded into one
    # exp, keeps full relative precision down to the last subnormal
    tail = xv < -37.5
    if tail.any():
        xt = np.maximum(xv[tail], -40.0)  # Phi(-40) already rounds to 0
        inv_x2 = 1.0 / (xt * xt)
        series, term = np.ones_like(xt), np.ones_like(xt)
        for k in range(1, _MILLS_TERMS):
            term *= -(2 * k - 1) * inv_x2
            series += term
        out[tail] = np.exp(np.log(series * INV_SQRT_2PI / -xt) - 0.5 * xt * xt)
    return out[()]


def std_normal_sf(x):
    """1 - Phi(x) = Phi(-x), without cancellation in the upper tail."""
    return std_normal_cdf(np.negative(x))


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on (0, 1)."""
    pv = np.asarray(p, dtype=float)
    if np.any((pv <= 0.0) | (pv >= 1.0)) or not np.all(np.isfinite(pv)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return np.fromiter(map(_STD_NORMAL.inv_cdf, pv.ravel().tolist()), float, pv.size).reshape(pv.shape)[()]


def expected_excess(a):
    """E[(X - a)^+] for standard normal X: phi(a) - a*(1 - Phi(a)).

    Strictly positive and strictly decreasing in a; tends to 0 as
    a -> +inf and to -a as a -> -inf.  The subtraction can round to a
    tiny negative once both terms underflow (a ~ 4e2), so the result is
    clamped at 0.
    """
    av = _as_float_or_array(a)
    return _excess(av, _pdf(av))[()]
