"""Projected first-order (KKT) residuals of returned menus.

Built only from the model's public closed forms (`market.valuation`,
`valuation_dt`, `valuation_dsigma`, `cost` and the market's `pdf` and
`cdf`), never from solver code, so a solver that stops early cannot
certify itself.

Both menu problems maximize profit over a chain x_1 <= ... <= x_n inside
a box [lo, hi]: periods inside the period window, and (grouped menus)
boundaries inside the type window.  The residual of one coordinate block
is the largest rate at which profit could still rise along a feasible
move, where the feasible moves are

  - a whole run of equal values (a pooled block) moving up or down,
    unless the box edge it sits on forbids that direction;
  - a leading part of a run moving down, or a trailing part moving up,
    which keeps the chain ascending.

At an exact optimum every such rate is <= 0, so the residual is 0; for
an ascending menu with no pooling and no edge hits it is max |dP/dx|.
"""

import numpy as np

from planmenu.market import cost, valuation, valuation_dsigma, valuation_dt


def cost_slope(cost_model, t):
    """C'(t) by a central difference with step 1% of t.

    Exact for the linear cost W(t) = c1*t up to rounding, and O(h^2) for
    a custom convex W.
    """
    t = np.asarray(t, dtype=float)
    h = 1e-2 * t
    return (cost(cost_model, t + h) - cost(cost_model, t - h)) / (2.0 * h)


def chain_residual(x, grad, lo, hi, edge_tol):
    """Largest feasible ascent rate for a maximization over an ascending chain in [lo, hi]."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(grad, dtype=float)
    worst = 0.0
    start = 0
    n = x.size
    while start < n:
        stop = start
        while stop + 1 < n and x[stop + 1] == x[start]:
            stop += 1
        run = g[start : stop + 1]
        at_hi = x[start] >= hi - edge_tol
        at_lo = x[start] <= lo + edge_tol
        total = float(run.sum())
        if not at_hi:
            worst = max(worst, total)  # whole run up
        if not at_lo:
            worst = max(worst, -total)  # whole run down
        if run.size > 1:
            prefix = np.cumsum(run)[:-1]
            suffix = np.cumsum(run[::-1])[:-1]
            if not at_lo:
                worst = max(worst, float(np.max(-prefix)))  # leading part down
            if not at_hi:
                worst = max(worst, float(np.max(suffix)))  # trailing part up
        start = stop + 1
    return worst


def discrete_gradient(profile, cost_model, market, periods):
    """dP/dt_i of the chain-priced discrete profit sum_i N_i * (p_i - C(t_i))."""
    t = np.asarray(periods, dtype=float)
    sig = market.sigmas
    n = market.counts
    below = np.concatenate(([0.0], np.cumsum(n)[:-1]))
    vt_own = valuation_dt(profile, sig, t)
    vt_prev = np.zeros_like(t)
    if t.size > 1:
        vt_prev[1:] = valuation_dt(profile, sig[:-1], t[1:])
    return (n + below) * vt_own - below * vt_prev - n * cost_slope(cost_model, t)


def grouped_gradient(profile, cost_model, market, boundaries, periods):
    """(dP/db, dP/dt) of the chain-priced grouped profit sum_k n_k * (p_k - C(t_k))."""
    b = np.asarray(boundaries, dtype=float)
    t = np.asarray(periods, dtype=float)
    N = market.size
    G = np.atleast_1d(market.cdf(b))
    g = np.atleast_1d(market.pdf(b))
    C = cost(cost_model, t)
    G_prev = np.concatenate(([0.0], G[:-1]))
    b_prev = np.concatenate(([b[0]], b[:-1]))

    own = N * (G - G_prev)
    below = N * G_prev
    vt_own = valuation_dt(profile, b, t)
    vt_prev = valuation_dt(profile, b_prev, t)
    d_t = own * (vt_own - cost_slope(cost_model, t)) + below * (vt_own - vt_prev)

    # Q_k(s) = N G(s) (V(s,t_k) - V(s,t_{k+1}) + C(t_{k+1}) - C(t_k)); the top
    # boundary has no next item, which the appended zeros encode.
    C_next = np.append(C[1:], 0.0)
    V_next = np.append(valuation(profile, b[:-1], t[1:]), 0.0)
    Vs_next = np.append(valuation_dsigma(profile, b[:-1], t[1:]), 0.0)
    wedge = valuation(profile, b, t) - C + C_next - V_next
    slope = valuation_dsigma(profile, b, t) - Vs_next
    d_b = N * (g * wedge + G * slope)
    return d_b, d_t


def discrete_residual(profile, cost_model, market, periods, t_domain):
    lo, hi = t_domain
    grad = discrete_gradient(profile, cost_model, market, periods)
    return chain_residual(periods, grad, lo, hi, 1e-9 * (hi - lo))


def grouped_residual(profile, cost_model, market, boundaries, periods, t_domain):
    lo, hi = t_domain
    d_b, d_t = grouped_gradient(profile, cost_model, market, boundaries, periods)
    s_lo, s_hi = market.sigma_min, market.sigma_max
    return max(
        chain_residual(periods, d_t, lo, hi, 1e-9 * (hi - lo)),
        chain_residual(boundaries, d_b, s_lo, s_hi, 1e-9 * (s_hi - s_lo)),
    )
