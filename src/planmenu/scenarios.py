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
      "baselines": [1, 2]
    }

Bundled scenarios live in planmenu/data and are addressable by bare
name (without .json) anywhere a path is accepted.
"""

import json
import sys
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from typing import List, Optional

import numpy as np

from .distributions import ContinuousMarket, DiscreteMarket
from .market import CostModel, DemandProfile


@dataclass
class SolverSpec:
    kind: str
    n_groups: int = 1
    restarts: int = 0
    seed: Optional[int] = None


@dataclass
class Scenario:
    name: str
    profile: DemandProfile
    cost_model: CostModel
    market: object  # DiscreteMarket or ContinuousMarket
    solver: SolverSpec
    baselines: List[float] = field(default_factory=list)


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
_RESTARTS = ("an integer >= 0", lambda v: type(v) is int and v >= 0, int)
_SEED = ("an integer >= 0 or null", lambda v: v is None or type(v) is int and v >= 0, lambda v: v)


def _read(cfg, key, kind, where="scenario", default=_REQUIRED):
    """cfg[key] converted by kind, or default if the key is absent.  A
    missing required key, or a value kind's test rejects, is a ValueError
    naming the key."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ValueError(f"{where} missing required key {key!r}")
        return default
    what, ok, convert = kind
    if not ok(cfg[key]):
        raise ValueError(f"{where} key {key!r} must be {what}, got {cfg[key]!r}")
    return convert(cfg[key])


def _build_market(cfg):
    get = partial(_read, cfg, where="scenario market")
    kind = get("kind", _TEXT, default=None)
    if kind == "discrete":
        return DiscreteMarket(sigmas=get("sigmas", _NUMBERS), counts=get("counts", _NUMBERS))
    return ContinuousMarket(
        kind=kind,
        sigma_min=get("sigma_min", _NUMBER),
        sigma_max=get("sigma_max", _NUMBER),
        size=get("N", _NUMBER, default=1.0),
        rate=get("lambda", _NUMBER, default=None),
        loc=get("M", _NUMBER, default=None),
        scale=get("W", _NUMBER, default=None),
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
    get = partial(_read, raw)
    solver = partial(_read, get("solver", _OBJECT), where="solver")
    kind = solver("kind", _TEXT, default=None)
    if kind not in ("discrete", "grouped"):
        raise ValueError(f"solver kind must be 'discrete' or 'grouped', got {kind!r}")
    market = _build_market(get("market", _OBJECT))
    if kind == "discrete" and not isinstance(market, DiscreteMarket):
        raise ValueError("discrete solver needs a discrete market")
    if kind == "grouped" and not isinstance(market, ContinuousMarket):
        raise ValueError("grouped solver needs a continuous market")
    cost_cfg = partial(_read, get("cost", _OBJECT), where="scenario cost")
    return Scenario(
        name=get("name", _TEXT),
        profile=DemandProfile(alpha=get("alpha", _NUMBER), mu=get("mu", _NUMBER), q=get("q", _NUMBER)),
        cost_model=CostModel(c0=cost_cfg("c0", _NUMBER), c1=cost_cfg("c1", _NUMBER, default=0.0)),
        market=market,
        solver=SolverSpec(
            kind=kind,
            n_groups=solver("K", _GROUPS, default=1),
            restarts=solver("restarts", _RESTARTS, default=0),
            seed=solver("seed", _SEED, default=None),
        ),
        baselines=get("baselines", _NUMBERS, default=[]),
    )
