"""Scenario files: one JSON per market study.

Schema (keys in parentheses optional):

    {
      "name": "uniform_k6",
      "alpha": 1.0, "mu": 13.0, "q": 15.0,
      "cost": {"c0": 10.0, "c1": 0.5},
      "market": {"kind": "uniform" | "exponential" | "truncated_normal"
                         | "discrete",
                 ... continuous: "sigma_min", "sigma_max", ("N"),
                                 ("lambda"), ("M"), ("W")
                 ... discrete:   "sigmas", "counts"},
      "solver": {"kind": "discrete" | "grouped", ("K"), ("restarts"),
                 ("seed")},
      ("baselines": [1, 2])
    }

The market's kind sets which keys it reads: "lambda" only for
"exponential", "M" and "W" only for "truncated_normal", and for
"discrete" only "sigmas" and "counts".  The market's type picks the
solver, and solver "kind" must name it: "discrete" for a discrete
market, "grouped" for a continuous one.  The other solver keys are for
grouped scenarios only: "K" (default 1), "restarts" (default 0) and
"seed" (default 0), each an integer.  "baselines" lists the periods of
the fixed-period plans the menu is compared against (default [1]), each
> 0 and inside the plan window [1e-4, 600] that every menu period
keeps to.  A consumer's largest money figure, alpha*mu + C(t) at the longest
period, must be finite, and so must the market's mass times it: the
mass is a continuous market's "N" (default 1) or the sum of a discrete
market's "counts".  A key that nothing reads, such as a misspelt one,
is refused with an error that names it.

Bundled scenarios live in planmenu/data and are addressable by bare
name (without .json) anywhere a path is accepted.
"""

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import List, Optional

from .distributions import ContinuousMarket, DiscreteMarket
from .market import DEFAULT_T_DOMAIN, CostModel, DemandProfile


@dataclass
class SolverSpec:
    """The grouped solver's settings; a discrete market has none."""

    n_groups: int
    restarts: int
    seed: int


@dataclass
class Scenario:
    name: str
    profile: DemandProfile
    cost_model: CostModel
    market: object  # DiscreteMarket or ContinuousMarket
    solver: Optional[SolverSpec]  # None for a discrete market
    baselines: List[float]


_REQUIRED = object()


def _is_number(value):
    # json reads NaN and Infinity; the bound also refuses an integer too large for a float
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# What a scenario value must be: (description, test, conversion).
_TEXT = ("a string", lambda v: isinstance(v, str), str)
_NUMBER = ("a number", _is_number, float)
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)), lambda v: [float(x) for x in v])
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict), dict)
_GROUPS = ("an integer >= 1", lambda v: type(v) is int and v >= 1, int)
_COUNT = ("an integer >= 0", lambda v: type(v) is int and v >= 0, int)


class _Keys:
    """The keys of one JSON object of a scenario file that are not yet
    read; where names the object in errors."""

    def __init__(self, cfg, where):
        self.cfg, self.where = dict(cfg), where

    def __call__(self, key, kind, default=_REQUIRED):
        """cfg[key] converted by kind, or default if the key is absent; the
        key counts as read.  A missing required key, or a value kind's
        test rejects, is a ValueError naming the key."""
        value = self.cfg.pop(key, _REQUIRED)
        if value is _REQUIRED:
            if default is _REQUIRED:
                raise ValueError(f"{self.where} missing required key {key!r}")
            return default
        what, ok, convert = kind
        if not ok(value):
            raise ValueError(f"{self.where} key {key!r} must be {what}, got {value!r}")
        return convert(value)

    def done(self):
        """A ValueError naming the object's first key that no call read."""
        if self.cfg:
            raise ValueError(f"{self.where} key {next(iter(self.cfg))!r} is not used by this scenario")


def _build_market(get):
    kind = get("kind", _TEXT, default=None)
    if kind == "discrete":
        return DiscreteMarket(sigmas=get("sigmas", _NUMBERS), counts=get("counts", _NUMBERS))
    return ContinuousMarket(
        kind=kind,
        sigma_min=get("sigma_min", _NUMBER),
        sigma_max=get("sigma_max", _NUMBER),
        size=get("N", _NUMBER, default=1.0),
        rate=get("lambda", _NUMBER, default=None) if kind == "exponential" else None,
        loc=get("M", _NUMBER, default=None) if kind == "truncated_normal" else None,
        scale=get("W", _NUMBER, default=None) if kind == "truncated_normal" else None,
    )


def bundled_scenario_names():
    return sorted(
        p.name[: -len(".json")]
        for p in resources.files("planmenu.data").iterdir()
        if p.name.endswith(".json")
    )


def load_scenario(path_or_name) -> Scenario:
    """Load a scenario JSON from a path, or a bundled one by name."""
    p = Path(path_or_name)
    if not p.exists():
        p = resources.files("planmenu.data").joinpath(f"{path_or_name}.json")
        if not p.is_file():
            raise FileNotFoundError(
                f"no scenario file at {path_or_name!r} and no bundled scenario of that name "
                f"(bundled: {', '.join(bundled_scenario_names())})"
            )
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path_or_name}: not valid JSON ({exc})") from None

    if not isinstance(raw, dict):
        raise ValueError(f"{path_or_name}: a scenario must be a JSON object")
    get = _Keys(raw, "scenario")
    solver = _Keys(get("solver", _OBJECT), "solver")
    kind = solver("kind", _TEXT, default=None)
    if kind not in ("discrete", "grouped"):
        raise ValueError(f"solver key 'kind' must be 'discrete' or 'grouped', got {kind!r}")
    market_keys = _Keys(get("market", _OBJECT), "scenario market")
    market = _build_market(market_keys)
    if (kind == "discrete") != isinstance(market, DiscreteMarket):
        raise ValueError(f"{kind} solver needs a {'discrete' if kind == 'discrete' else 'continuous'} market")
    cost_keys = _Keys(get("cost", _OBJECT), "scenario cost")
    baselines = get("baselines", _NUMBERS, default=[1.0])
    if not baselines or min(baselines) <= 0:
        raise ValueError(f"scenario key 'baselines' must be a nonempty list of periods > 0, got {baselines!r}")
    if not DEFAULT_T_DOMAIN[0] <= min(baselines) <= max(baselines) <= DEFAULT_T_DOMAIN[1]:
        raise ValueError(f"scenario key 'baselines' must list periods in the plan window [{DEFAULT_T_DOMAIN[0]:g}, {DEFAULT_T_DOMAIN[1]:g}], got {baselines!r}")
    scenario = Scenario(
        name=get("name", _TEXT),
        profile=DemandProfile(alpha=get("alpha", _NUMBER), mu=get("mu", _NUMBER), q=get("q", _NUMBER)),
        cost_model=CostModel(c0=cost_keys("c0", _NUMBER), c1=cost_keys("c1", _NUMBER, default=0.0)),
        market=market,
        solver=None if kind == "discrete" else SolverSpec(
            n_groups=solver("K", _GROUPS, default=1),
            restarts=solver("restarts", _COUNT, default=0),
            seed=solver("seed", _COUNT, default=0),
        ),
        baselines=baselines,
    )
    for keys in (get, market_keys, cost_keys, solver):
        keys.done()
    # money figures are the market's mass times one consumer's, at most
    # alpha*mu + C(t) on the period window; Python floats overflow to inf
    # without a warning, and the loader's cost is linear
    per_consumer = scenario.profile.alpha * scenario.profile.mu + scenario.cost_model.c0 + scenario.cost_model.c1 * DEFAULT_T_DOMAIN[1]
    if not math.isfinite(per_consumer):
        raise ValueError(f"scenario keys 'alpha', 'mu' and 'cost' give a consumer a largest money figure, alpha*mu + C({DEFAULT_T_DOMAIN[1]:g}) = {per_consumer!r}, that is not finite")
    discrete = isinstance(market, DiscreteMarket)
    mass = sum(market.counts.tolist()) if discrete else market.size
    if not math.isfinite(mass * per_consumer):
        key = f"'counts' (total {mass!r})" if discrete else f"'N' = {mass!r}"
        raise ValueError(f"scenario market key {key} is too large: the market's mass times a consumer's largest money figure ({per_consumer:.6g}) overflows")
    return scenario
