"""Shared fixtures: the default demand profile, cost model, and markets."""

import importlib
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from planmenu.distributions import ContinuousMarket
from planmenu.market import CostModel, DemandProfile
from planmenu.normals import std_normal_cdf, std_normal_pdf


def equal_runs(values):
    """(start, stop, value) of each maximal run of two or more equal values
    in a menu's chain of periods or boundaries, stop inclusive: how a
    pooled block shows in the menu."""
    v = np.asarray(values, dtype=float)
    cuts = np.flatnonzero(v[1:] != v[:-1]) + 1
    starts, stops = np.append(0, cuts), np.append(cuts, v.size) - 1
    return [(int(a), int(b), float(v[a])) for a, b in zip(starts, stops) if b > a]


@pytest.fixture(scope="session")
def profile():
    return DemandProfile(alpha=1.0, mu=13.0, q=15.0)


@pytest.fixture(scope="session")
def cost_model():
    return CostModel(c0=10.0, c1=0.5)


@pytest.fixture
def kkt(monkeypatch):
    """The benchmark's solver-independent first-order residuals (perfbench/kkt.py)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("kkt")


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


class ValleyMarket(ContinuousMarket):
    """Two-bump normal mixture on [0, 6].

    The built-in families all satisfy the boundary-unimodality shape
    condition, so a test that its check reports a failure needs a
    density with a valley: mass piles up under the first bump, then the
    density collapses and rises again, which drives the condition
    negative on the rising flank.  The solvers never see such a market:
    ContinuousMarket builds only the three families.
    """

    W1, M1, M2, S = 0.7, 0.5, 5.5, 0.3

    def __post_init__(self):
        # the mixture's mass first: the base class checks the density at the window ends
        z = lambda m, s: (s - m) / self.S
        self._mix_norm = self.W1 * (std_normal_cdf(z(self.M1, 6.0)) - std_normal_cdf(z(self.M1, 0.0))) + (
            1 - self.W1
        ) * (std_normal_cdf(z(self.M2, 6.0)) - std_normal_cdf(z(self.M2, 0.0)))
        super().__post_init__()

    def density(self, sigma):
        s = self._check_support(sigma)
        z1, z2 = (s - self.M1) / self.S, (s - self.M2) / self.S
        phi1, phi2 = std_normal_pdf(z1), std_normal_pdf(z2)
        z0 = lambda m: (0.0 - m) / self.S
        cdf_raw = self.W1 * (std_normal_cdf(z1) - std_normal_cdf(z0(self.M1))) + (
            1 - self.W1
        ) * (std_normal_cdf(z2) - std_normal_cdf(z0(self.M2)))
        pdf_raw = self.W1 * phi1 + (1 - self.W1) * phi2
        slope_raw = -self.W1 * z1 * phi1 - (1 - self.W1) * z2 * phi2
        return cdf_raw / self._mix_norm, pdf_raw / (self.S * self._mix_norm), slope_raw / (self.S ** 2 * self._mix_norm)

    def quantile(self, p):
        if np.ndim(p):
            return np.array([self.quantile(float(x)) for x in np.asarray(p)])
        if not 0.0 <= p <= 1.0:
            raise ValueError("quantile argument must lie in [0, 1]")
        if p == 0.0:
            return self.sigma_min
        if p == 1.0:
            return self.sigma_max
        return float(optimize.brentq(lambda s: self.cdf(s) - p, 0.0, 6.0, xtol=1e-12))


@pytest.fixture(scope="session")
def valley_market():
    return ValleyMarket(kind="uniform", sigma_min=0.0, sigma_max=6.0, size=1.0)
