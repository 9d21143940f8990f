"""ZR/ZR+ pluggable operating modes, selection policies, and regenerator placement.

The default catalog mirrors the shipped ``data/modes.json``: five operating
points (module, modulation, reach, rate) with normalized power 1 / 1.3 and
normalized cost 1 / 2 for ZR / ZR+. A custom catalog file with the same
schema can be loaded for what-if studies.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path


MODULES = ("ZR", "ZR+")


class CatalogError(ValueError):
    """A catalog mode is invalid; the message names the field."""


class NoFeasibleMode(Exception):
    """No catalog mode can serve the requested distance/rate."""


class LinkExceedsReach(Exception):
    """A single fiber link is longer than the mode reach; no regen placement exists."""

    def __init__(self, link_index: int, length_km: float, reach_km: float):
        self.link_index = link_index
        super().__init__(
            f"link #{link_index} ({length_km} km) exceeds mode reach {reach_km} km"
        )


@dataclass(frozen=True)
class TransceiverMode:
    module: str       # "ZR" | "ZR+"
    modulation: str   # "QPSK" | "8QAM" | "16QAM"
    reach_km: float
    rate_gbps: int
    power_units: float
    cost_units: float

    def __post_init__(self):
        where = f"({self.module}/{self.modulation})"
        if self.module not in MODULES:
            raise CatalogError(f"module must be 'ZR' or 'ZR+', got {self.module!r} {where}")
        for name in ("reach_km", "rate_gbps", "power_units", "cost_units"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CatalogError(f"{name} must be a number, got {value!r} {where}")
        for name in ("reach_km", "rate_gbps"):
            value = getattr(self, name)
            if not value > 0:
                raise CatalogError(f"{name} must be > 0, got {value!r} {where}")
        if not float(self.rate_gbps).is_integer():
            raise CatalogError(f"rate_gbps must be an integer, got {self.rate_gbps!r} {where}")
        object.__setattr__(self, "rate_gbps", int(self.rate_gbps))
        for name in ("power_units", "cost_units"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise CatalogError(f"{name} must be finite and >= 0, got {value!r} {where}")

    @property
    def key(self) -> tuple:
        return (self.module, self.modulation, self.rate_gbps)

    def __str__(self):
        return f"{self.module}/{self.modulation}/{self.rate_gbps}G"


DEFAULT_CATALOG: tuple[TransceiverMode, ...] = (
    TransceiverMode("ZR", "16QAM", 120, 400, 1.0, 1.0),
    TransceiverMode("ZR+", "16QAM", 600, 400, 1.3, 2.0),
    TransceiverMode("ZR+", "8QAM", 1800, 300, 1.3, 2.0),
    TransceiverMode("ZR+", "QPSK", 3000, 200, 1.3, 2.0),
    TransceiverMode("ZR+", "QPSK", 3000, 100, 1.3, 2.0),
)

MAX_REACH_KM = max(m.reach_km for m in DEFAULT_CATALOG)


def load_catalog(path: str | Path) -> tuple[TransceiverMode, ...]:
    """Read ``{"modes": [{<every TransceiverMode field>}, ...]}``; raises CatalogError."""
    doc = json.loads(Path(path).read_text())
    rows = doc.get("modes") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not rows:
        raise CatalogError("catalog field 'modes' must be a non-empty list")
    modes = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise CatalogError(f"catalog mode #{i} must be a JSON object")
        for f in fields(TransceiverMode):
            if f.name not in row:
                raise CatalogError(f"catalog mode #{i} has no {f.name!r} field")
        try:
            mode = TransceiverMode(**{f.name: row[f.name] for f in fields(TransceiverMode)})
        except CatalogError as exc:
            raise CatalogError(f"catalog mode #{i}: {exc}") from None
        # lengths and units load as floats, whatever the JSON spelling
        modes.append(replace(mode, reach_km=float(mode.reach_km),
                             power_units=float(mode.power_units),
                             cost_units=float(mode.cost_units)))
    return tuple(modes)


def _order_key(m: TransceiverMode) -> tuple:
    # rate desc, power asc, reach desc, then stable naming for full determinism
    return (-m.rate_gbps, m.power_units, -m.reach_km, m.module, m.modulation)


def feasible_modes(distance_km: float, catalog=DEFAULT_CATALOG) -> list[TransceiverMode]:
    """Catalog modes whose reach covers distance_km, ordered by (rate desc, power asc)."""
    if distance_km < 0:
        raise ValueError(f"distance must be >= 0, got {distance_km}")
    return sorted((m for m in catalog if m.reach_km >= distance_km), key=_order_key)


def select_mode_max_rate(distance_km: float, catalog=DEFAULT_CATALOG) -> TransceiverMode:
    """Highest-rate feasible mode; equal rates resolved toward lower power (ZR first)."""
    modes = feasible_modes(distance_km, catalog)
    if not modes:
        raise NoFeasibleMode(f"no mode reaches {distance_km} km")
    return modes[0]


@dataclass(frozen=True)
class RegenPlan:
    """Segmentation of a path into transparent reaches.

    ``boundaries`` are indices into the path's node sequence where an OEO
    regeneration occurs (interior positions, in path order). ``segment_lengths``
    has one entry per transparent segment.
    """

    boundaries: tuple[int, ...]
    segment_lengths: tuple[float, ...]

    @property
    def regen_count(self) -> int:
        return len(self.boundaries)


def plan_regeneration(link_lengths_km, mode: TransceiverMode) -> RegenPlan:
    """Greedy farthest-feasible OEO placement; minimal for a fixed mode.

    Walks the path accumulating length and inserts a regen at the last node
    where the running segment still fits the reach.
    """
    for i, length in enumerate(link_lengths_km):
        if length > mode.reach_km:
            raise LinkExceedsReach(i, length, mode.reach_km)
    boundaries = []
    seg_lengths = []
    running = 0.0
    for i, length in enumerate(link_lengths_km):
        if running + length > mode.reach_km:
            boundaries.append(i)
            seg_lengths.append(running)
            running = length
        else:
            running += length
    seg_lengths.append(running)
    return RegenPlan(tuple(boundaries), tuple(seg_lengths))


def select_mode_min_regens(link_lengths_km, rate_gbps: int, catalog=DEFAULT_CATALOG):
    """(mode, RegenPlan) for one channel of at least rate_gbps over the hops.

    Fewest regenerations first, then the max-rate order of
    :func:`select_mode_max_rate`, so a spare rate stays groomable.
    """
    best = None
    for m in catalog:
        if m.rate_gbps < rate_gbps or max(link_lengths_km) > m.reach_km:
            continue
        plan = plan_regeneration(link_lengths_km, m)
        key = (plan.regen_count, _order_key(m))
        if best is None or key < best[0]:
            best = (key, m, plan)
    if best is None:
        raise NoFeasibleMode(f"no mode carries {rate_gbps}G over hops {link_lengths_km}")
    return best[1], best[2]


def min_regen_count(distance_km: float, mode: TransceiverMode) -> int:
    """Regens needed to span distance_km assuming OEO can be placed anywhere."""
    if distance_km <= 0:
        return 0
    return max(0, math.ceil(distance_km / mode.reach_km) - 1)


def _usable_modes(distance_km, catalog, link_lengths):
    """Modes usable on the path when back-to-back regeneration is available,
    with the regen count each would need."""
    out = []
    for m in catalog:
        if link_lengths is not None:
            if max(link_lengths, default=0.0) > m.reach_km:
                continue
            regens = plan_regeneration(link_lengths, m).regen_count
        else:
            regens = min_regen_count(distance_km, m)
        out.append((m, regens))
    return out


def select_modes_min_channels(
    rate_gbps: int,
    distance_km: float,
    catalog=DEFAULT_CATALOG,
    link_lengths=None,
) -> list[TransceiverMode]:
    """Multiset of modes covering rate_gbps in the fewest parallel channels.

    Ties resolved by fewer total regenerators on the path, then lower total
    power. If ``link_lengths`` is given, regen feasibility and counts follow
    the actual hop lengths; otherwise regens are assumed placeable anywhere.
    """
    if rate_gbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_gbps}")
    usable = _usable_modes(distance_km, catalog, link_lengths)
    if not usable:
        raise NoFeasibleMode(
            f"no mode usable over {distance_km} km even with regeneration"
        )
    max_needed = -(-rate_gbps // min(m.rate_gbps for m, _ in usable))
    for count in range(1, max_needed + 1):
        best = None
        for combo in itertools.combinations_with_replacement(usable, count):
            if sum(m.rate_gbps for m, _ in combo) < rate_gbps:
                continue
            regens = sum(r for _, r in combo)
            power = sum(m.power_units * (2 + 2 * r) for m, r in combo)
            total_rate = sum(m.rate_gbps for m, _ in combo)
            max_rate = max(m.rate_gbps for m, _ in combo)
            names = tuple(sorted(m.key for m, _ in combo))
            cand = (regens, power, total_rate, -max_rate, names, combo)
            if best is None or cand[:5] < best[:5]:
                best = cand
        if best is not None:
            return sorted((m for m, _ in best[5]), key=_order_key)
    raise NoFeasibleMode(f"cannot cover {rate_gbps} Gb/s over {distance_km} km")
