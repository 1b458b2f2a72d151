"""Markets: how consumer volatility types sigma are distributed.

Two flavors.  DiscreteMarket lists the types and their head-counts
outright.  ContinuousMarket carries a density g on [sigma_min,
sigma_max] from one of three families (uniform, truncated exponential,
truncated normal), always renormalized so the CDF G spans exactly
[0, 1] over the window, and a total mass size (a scenario's N).  It
is built one way: make_market is the same constructor, and each family
takes only the parameters it reads (rate for the exponential, loc and
scale for the truncated normal), refusing the others by name.

`theorem3_condition` evaluates the slack of the shape condition

    F(sigma) = 2 g - (g' / g) G - c * G / sigma  >=  0,   c = 3 - 2*sqrt(2),

under which each group's profit contribution is unimodal in its
boundary, so its slope changes sign once and the grouped solver's
Newton-bisection on that slope finds the maximum.  All three families
satisfy it on every window, with F >= (1 - c) g: their densities are
log-concave, so h = -g'/g is nondecreasing (Bagnoli & Bergstrom 2005,
Economic Theory 26): g(s) <= g(sigma) exp(h (sigma - s)) for s <= sigma,
h = h(sigma).  Integrated over [sigma_min, sigma], within [0, sigma],
that gives G <= g (e^y - 1) / h, y = sigma h.  In F = 2 g - G (c / sigma - h)
the subtracted term is then negative for y > c, at most
c e^c g < (1 + c) g for 0 <= y <= c, and at most
(1 - e^-u)(1 + c / u) g <= (1 + c) g for y = -u < 0.
`verify_theorem3` checks a grid and reports the minimum slack over the
points where it is defined (not where g underflows to 0).  The proof
covers every market the constructor builds, so the boundary searches
rely on it and check nothing; `verify_theorem3` is the one check, which
`planmenu check-dist` reports.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .normals import std_normal_cdf, std_normal_pdf, std_normal_quantile

KINDS = ("uniform", "exponential", "truncated_normal")

# 3 - 2*sqrt(2), the constant in the boundary-unimodality condition.
SHAPE_CONSTANT = 3.0 - 2.0 * np.sqrt(2.0)
#: Roundoff allowance below zero for the shape condition's slack.
THEOREM3_TOL = -1e-10
#: Most grid points the shape-condition check accepts.
THEOREM3_MAX_POINTS = 10**6


@dataclass
class DiscreteMarket:
    """Finitely many types sigma_1 < ... < sigma_I with counts N_i > 0."""

    sigmas: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.sigmas.ndim != 1 or self.sigmas.size == 0:
            raise ValueError("sigmas must be a nonempty 1-D array")
        if self.sigmas.shape != self.counts.shape:
            raise ValueError("sigmas and counts must align")
        if not np.all(np.isfinite(self.sigmas)):
            raise ValueError("sigmas must be finite")
        if np.any(np.diff(self.sigmas) <= 0):
            raise ValueError("types must be strictly ascending")
        if np.any(self.sigmas < 0):
            raise ValueError("types must be nonnegative")
        if not np.all((self.counts > 0) & (self.counts < np.inf)):
            raise ValueError("counts must be finite and positive")

    @property
    def n_types(self):
        return self.sigmas.size

    @property
    def total_count(self):
        return float(self.counts.sum())


@dataclass
class ContinuousMarket:
    """A continuum of types on [sigma_min, sigma_max] with total mass `size`.

    kind selects the density family and the parameters it reads:
      - "uniform":            g constant on the window
      - "exponential":        g proportional to exp(-rate*sigma), truncated
      - "truncated_normal":   g proportional to phi((sigma-loc)/scale), truncated
    A parameter the family does not read (a rate on a uniform market, a
    loc or scale on an exponential one) is a ValueError naming it and the
    kind, and so is a missing or non-finite one it reads.

    A truncated normal window whose floor lies above loc, z_lo =
    (sigma_min - loc) / scale > 0, takes its mass, G and quantile from
    the upper tail Phi(-z) (the survival function, as in
    normals.std_normal_sf), where Phi(z) - Phi(z_lo) would cancel; every
    other window keeps Phi(z).  A window deep in the lower tail still
    loses digits where Phi goes subnormal.
    """

    kind: str
    sigma_min: float
    sigma_max: float
    size: float = 1.0
    rate: Optional[float] = None
    loc: Optional[float] = None
    scale: Optional[float] = None
    _norm: float = field(init=False, repr=False, default=1.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not (0 <= self.sigma_min < self.sigma_max < np.inf):
            raise ValueError("need 0 <= sigma_min < sigma_max, both finite")
        if not (0 < self.size < np.inf):
            raise ValueError("market size must be finite and positive")
        for param, family in (("rate", "exponential"), ("loc", "truncated_normal"), ("scale", "truncated_normal")):
            if self.kind != family and getattr(self, param) is not None:
                raise ValueError(f"a {self.kind} market takes no {param}, got {getattr(self, param)!r}")
        if self.kind == "exponential":
            if self.rate is None or not (0 < self.rate < np.inf):
                raise ValueError("exponential market needs a finite rate > 0")
            self._exp_lo = math.exp(-self.rate * self.sigma_min)
            self._norm = self._exp_lo - math.exp(-self.rate * self.sigma_max)
        elif self.kind == "truncated_normal":
            if self.loc is None or self.scale is None or not (np.isfinite(self.loc) and 0 < self.scale < np.inf):
                raise ValueError("truncated_normal market needs a finite loc and a finite scale > 0")
            z_lo, z_hi = (self.sigma_min - self.loc) / self.scale, (self.sigma_max - self.loc) / self.scale
            # G is taken from tail * Phi(tail * z), which is Phi(z) - 1 = -Phi(-z)
            # above loc (tail = -1): the upper tail keeps the digits that
            # Phi(z) - Phi(z_lo) would cancel
            self._tail = -1.0 if z_lo > 0 else 1.0
            self._cdf_lo = self._tail * float(std_normal_cdf(self._tail * z_lo))
            self._norm = self._tail * float(std_normal_cdf(self._tail * z_hi)) - self._cdf_lo
        if not self._norm >= np.finfo(float).tiny:
            raise ValueError(f"window carries no representable probability mass ({self._norm:.3g})")
        self._slack = 1e-12 * max(1.0, abs(float(self.sigma_max)))
        with np.errstate(all="ignore"):  # overflow and 0 * inf are what this check refuses
            if not np.isfinite(self.density(np.array([self.sigma_min, self.sigma_max]))[1:]).all():
                raise ValueError("density is not finite at the window ends")

    # --- density / CDF -------------------------------------------------

    def _check_support(self, sigma):
        # One min and one max: NaN propagates into both and fails every
        # comparison, and in-window `initial` values let empty arrays pass.
        sv = np.asarray(sigma, dtype=float)
        lo, hi = sv.min(initial=self.sigma_min), sv.max(initial=self.sigma_max)
        if not (lo >= self.sigma_min - self._slack and hi <= self.sigma_max + self._slack):
            raise ValueError("sigma outside the market window")
        return np.clip(sv, self.sigma_min, self.sigma_max)

    def density(self, sigma):
        """(G, g, g') at sigma from one family dispatch: the CDF, the
        density and its slope (zero for uniform, -rate*g for exponential,
        -((sigma-loc)/scale^2)*g for the truncated normal)."""
        sv = self._check_support(sigma)
        if self.kind == "uniform":
            G = (sv - self.sigma_min) / (self.sigma_max - self.sigma_min)
            return G[()], np.full_like(sv, 1.0 / (self.sigma_max - self.sigma_min))[()], np.zeros_like(sv)[()]
        if self.kind == "exponential":
            e = np.exp(-self.rate * sv)
            g = self.rate * e / self._norm
            return ((self._exp_lo - e) / self._norm)[()], g[()], (-self.rate * g)[()]
        z = (sv - self.loc) / self.scale
        phi = std_normal_pdf(z)
        scaled = self.scale * self._norm
        G = (self._tail * std_normal_cdf(self._tail * z) - self._cdf_lo) / self._norm
        return G, phi / scaled, -(z / self.scale) * phi / scaled

    def pdf(self, sigma):
        """g(sigma)."""
        return self.density(sigma)[1]

    def cdf(self, sigma):
        """G(sigma)."""
        return self.density(sigma)[0]

    def quantile(self, p):
        """G^{-1}(p) on [0, 1]."""
        pv = np.asarray(p, dtype=float)
        if np.any((pv < 0) | (pv > 1)):
            raise ValueError("quantile argument must lie in [0, 1]")
        if self.kind == "uniform":
            out = self.sigma_min + pv * (self.sigma_max - self.sigma_min)
        elif self.kind == "exponential":
            with np.errstate(divide="ignore"):  # log(0) where exp(-rate*sigma_max) underflows; clipped below
                out = -np.log(self._exp_lo - pv * self._norm) / self.rate
        else:
            base = self._tail * (self._cdf_lo + pv * self._norm)
            base = np.clip(base, 1e-300, 1.0 - 1e-16)
            out = self.loc + self.scale * (self._tail * std_normal_quantile(base))
        out = np.clip(out, self.sigma_min, self.sigma_max)
        return out[()]

    # --- boundary-unimodality condition --------------------------------

    def theorem3_condition(self, sigma):
        """Slack F(sigma) of the shape condition; >= 0 means the grouped
        boundary objectives are unimodal at this sigma.

        At sigma = 0 the G/sigma term vanishes (G(0) = 0 at least
        linearly) and the slack reduces to 2*g(0); elsewhere it is NaN
        where g underflows to 0.  g' enters through the ratio g'/g, so no
        term underflows before g does (2*g^2 would, below g = 1.5e-154)."""
        G, g, dg = self.density(sigma)
        sv = np.asarray(sigma, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            slack = 2.0 * g - (dg / g) * G - SHAPE_CONSTANT * G / np.where(sv > 0, sv, 1.0)
        return np.where(sv > 0, np.where(g > 0, slack, np.nan), 2.0 * g)[()]

    def verify_theorem3(self, grid_points=1000):
        """Minimum slack of the shape condition over an equispaced grid's
        points where it is defined; it holds when none is below THEOREM3_TOL.

        grid_points must be an integer from 2 to THEOREM3_MAX_POINTS;
        anything else is a ValueError.  This is the one check of the
        condition: `planmenu check-dist` reports it, and no solver search
        re-checks it, since every family satisfies it on every window (see
        the module docstring).
        """
        # refused before np.linspace allocates the grid; int() would floor a float (a bool is below 2)
        if not (isinstance(grid_points, numbers.Integral) and 2 <= grid_points <= THEOREM3_MAX_POINTS):
            raise ValueError(
                f"the shape-condition grid needs an integer, at least 2 points and at most {THEOREM3_MAX_POINTS}, got {grid_points!r}"
            )
        grid = np.linspace(self.sigma_min, self.sigma_max, int(grid_points))
        slack = self.theorem3_condition(grid)
        i = int(np.argmin(np.where(np.isnan(slack), np.inf, slack)))
        return Theorem3Report(
            holds=not slack[i] < THEOREM3_TOL,
            min_slack=float(slack[i]),
            argmin_sigma=float(grid[i]),
            grid_points=grid.size,
        )


@dataclass
class Theorem3Report:
    holds: bool
    min_slack: float
    argmin_sigma: float
    grid_points: int


#: The market constructor under the name the examples use.
make_market = ContinuousMarket
