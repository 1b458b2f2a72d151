"""Standard-normal helpers used throughout the valuation model.

Everything here accepts floats or numpy arrays and broadcasts; scalar
input gives a numpy float64 (a float subclass) back.
"""

import math

import numpy as np
from scipy import special

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_float_or_array(x):
    out = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite input")
    return out


# phi and E without the input check, for callers whose input is already
# finite; E takes phi(a), so one exp serves a caller that needs both.
def _pdf(x):
    return INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _excess(a, phi):
    return np.maximum(phi - a * (0.5 * special.erfc(a / SQRT2)), 0.0)


def std_normal_pdf(x):
    """phi(x) = exp(-x^2/2)/sqrt(2*pi)."""
    return _pdf(_as_float_or_array(x))[()]


def std_normal_cdf(x):
    """Phi(x), computed via erfc for full-tail accuracy."""
    xv = _as_float_or_array(x)
    out = np.asarray(0.5 * special.erfc(-xv / SQRT2))
    # erfc flushes the subnormal tail below about -37.5 to 0; exp(log_ndtr)
    # still resolves it there
    tail = xv < -37.5
    if tail.any():
        out[tail] = np.exp(special.log_ndtr(xv[tail]))
    return out[()]


def std_normal_sf(x):
    """1 - Phi(x) = Phi(-x), without cancellation in the upper tail."""
    return std_normal_cdf(np.negative(x))


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on (0, 1)."""
    pv = np.asarray(p, dtype=float)
    if np.any((pv <= 0.0) | (pv >= 1.0)) or not np.all(np.isfinite(pv)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return special.ndtri(pv)[()]


def expected_excess(a):
    """E[(X - a)^+] for standard normal X: phi(a) - a*(1 - Phi(a)).

    Strictly positive and strictly decreasing in a; tends to 0 as
    a -> +inf and to -a as a -> -inf.  The subtraction can round to a
    tiny negative once both terms underflow (a ~ 4e2), so the result is
    clamped at 0.
    """
    av = _as_float_or_array(a)
    return _excess(av, _pdf(av))[()]
