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
from dataclasses import dataclass, field
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


def _build_market(cfg):
    kind = cfg.get("kind")
    if kind == "discrete":
        return DiscreteMarket(sigmas=np.asarray(cfg["sigmas"], dtype=float), counts=np.asarray(cfg["counts"], dtype=float))
    return ContinuousMarket(
        kind=kind,
        sigma_min=float(cfg["sigma_min"]),
        sigma_max=float(cfg["sigma_max"]),
        size=float(cfg.get("N", 1.0)),
        rate=float(cfg["lambda"]) if "lambda" in cfg else None,
        loc=float(cfg["M"]) if "M" in cfg else None,
        scale=float(cfg["W"]) if "W" in cfg else None,
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

    for key in ("name", "alpha", "mu", "q", "cost", "market", "solver"):
        if key not in raw:
            raise ValueError(f"scenario missing required key {key!r}")
    solver_cfg = raw["solver"]
    kind = solver_cfg.get("kind")
    if kind not in ("discrete", "grouped"):
        raise ValueError(f"solver kind must be 'discrete' or 'grouped', got {kind!r}")
    try:
        market = _build_market(raw["market"])
    except KeyError as exc:
        raise ValueError(f"scenario market missing required key {exc.args[0]!r}") from None
    if kind == "discrete" and not isinstance(market, DiscreteMarket):
        raise ValueError("discrete solver needs a discrete market")
    if kind == "grouped" and not isinstance(market, ContinuousMarket):
        raise ValueError("grouped solver needs a continuous market")
    n_groups, restarts, seed = solver_cfg.get("K", 1), solver_cfg.get("restarts", 0), solver_cfg.get("seed")
    for key, value, least in (("K", n_groups, 1), ("restarts", restarts, 0)):
        if type(value) is not int or value < least:
            raise ValueError(f"solver key {key!r} must be an integer >= {least}, got {value!r}")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"solver key 'seed' must be an integer or null, got {seed!r}")
    return Scenario(
        name=str(raw["name"]),
        profile=DemandProfile(alpha=float(raw["alpha"]), mu=float(raw["mu"]), q=float(raw["q"])),
        cost_model=CostModel(c0=float(raw["cost"]["c0"]), c1=float(raw["cost"].get("c1", 0.0))),
        market=market,
        solver=SolverSpec(kind=kind, n_groups=n_groups, restarts=restarts, seed=seed),
        baselines=[float(x) for x in raw.get("baselines", [])],
    )
