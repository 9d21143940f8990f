"""Reproducible full-mesh traffic matrices under configurable rate-mix scenarios.

Rates are drawn i.i.d. per ordered node pair from the scenario weights using
Python's Mersenne Twister (``random.Random``) seeded with the run seed; pairs
are visited in lexicographic order, so a matrix is a pure function of
(topology, scenario, seed) and is identical across platforms.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .topology import Topology, read_json

RATE_CLASSES: tuple[int, ...] = (100, 200, 300, 400, 500, 600)
BUILTIN_SCENARIOS = ("TS1", "TS2", "TS3")

_WEIGHT_TOL = 1e-9


class TrafficError(ValueError):
    """A scenario or demand is invalid; the message names the field."""


@dataclass(frozen=True)
class TrafficScenario:
    name: str
    weights: tuple[float, ...]  # one weight per RATE_CLASSES entry

    def __post_init__(self):
        if len(self.weights) != len(RATE_CLASSES):
            raise TrafficError(
                f"scenario needs {len(RATE_CLASSES)} weights, got {len(self.weights)}"
            )
        for rate, w in zip(RATE_CLASSES, self.weights):
            # NaN passes both checks below, and every draw then takes the top rate
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not math.isfinite(w):
                raise TrafficError(f"weight of rate {rate} in scenario {self.name!r} "
                                   f"must be a finite number, got {w!r}")
        if any(w < 0 for w in self.weights):
            raise TrafficError(f"negative weight in scenario {self.name!r}")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_TOL:
            raise TrafficError(
                f"weights of {self.name!r} sum to {sum(self.weights)}, expected 1"
            )


@dataclass(frozen=True)
class Demand:
    src: str
    dst: str
    rate_gbps: int

    def __post_init__(self):
        if self.src == self.dst:
            raise TrafficError(f"demand src == dst ({self.src!r})")
        if self.rate_gbps not in RATE_CLASSES:
            raise TrafficError(f"invalid rate {self.rate_gbps}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class TrafficMatrix:
    scenario: str
    seed: int
    demands: tuple[Demand, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("src", "dst", "rate_gbps"))
        writer.writerows((d.src, d.dst, d.rate_gbps) for d in self.demands)
        return buf.getvalue()


def scenario_from_dict(doc: dict) -> TrafficScenario:
    if not isinstance(doc, dict):
        raise TrafficError("scenario must be a JSON object")
    for key in ("name", "weights"):
        if key not in doc:
            raise TrafficError(f"scenario has no {key!r} field")
    if not isinstance(doc["name"], str):
        raise TrafficError(f"scenario field 'name' must be a string, got {doc['name']!r}")
    raw = doc["weights"]
    if not isinstance(raw, dict):
        raise TrafficError("scenario field 'weights' must be an object of rate -> weight")
    classes = [str(r) for r in RATE_CLASSES]
    for key, weight in raw.items():
        if key not in classes:
            raise TrafficError(f"scenario weight key {key!r} is not a rate class {RATE_CLASSES}")
        numeric = isinstance(weight, (int, float)) and not isinstance(weight, bool)
        if not (numeric and math.isfinite(weight)):
            raise TrafficError(f"scenario weight {key!r} must be a finite number, got {weight!r}")
    weights = tuple(float(raw.get(r, 0.0)) for r in classes)
    return TrafficScenario(doc["name"], weights)


def load_scenario(name_or_path: str | Path) -> TrafficScenario:
    """Load a scenario by builtin name (TS1/TS2/TS3, any case) or from a UTF-8
    JSON file; raises TrafficError, naming the file if it is not UTF-8 JSON."""
    return scenario_from_dict(
        read_json(name_or_path, TrafficError, "scenario file", BUILTIN_SCENARIOS))


def _draw_rate(rng: random.Random, scenario: TrafficScenario) -> int:
    x = rng.random()
    acc = 0.0
    for rate, w in zip(RATE_CLASSES, scenario.weights):
        acc += w
        if x < acc:
            return rate
    return RATE_CLASSES[-1]  # guard against rounding at the top end


def generate_traffic(topo: Topology, scenario: TrafficScenario, seed: int) -> TrafficMatrix:
    """One demand per ordered node pair; deterministic in (topo, scenario, seed)."""
    rng = random.Random(seed)
    demands = []
    for src in topo.nodes:
        for dst in topo.nodes:
            if src == dst:
                continue
            demands.append(Demand(src, dst, _draw_rate(rng, scenario)))
    return TrafficMatrix(scenario.name, seed, tuple(demands))
