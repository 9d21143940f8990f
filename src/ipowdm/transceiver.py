"""ZR/ZR+ pluggable operating modes, selection policies, and regenerator placement.

The default catalog mirrors the shipped ``data/modes.json``: five operating
points (module, modulation, reach, rate) with normalized power 1 / 1.3 and
normalized cost 1 / 2 for ZR / ZR+. A custom catalog file with the same
schema can be loaded for what-if studies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .topology import is_finite_number, read_json

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
            if isinstance(value, int) and not is_finite_number(value):
                raise CatalogError(f"{name} must be a finite number, got {value!r} {where}")
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

def load_catalog(path: str | Path) -> tuple[TransceiverMode, ...]:
    """Read ``{"modes": [{<every TransceiverMode field>}, ...]}`` from a UTF-8
    JSON file; raises CatalogError, naming the file if it is not UTF-8 JSON."""
    doc = read_json(path, CatalogError, "catalog")
    rows = doc.get("modes") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not rows:
        raise CatalogError("catalog field 'modes' must be a non-empty list")
    modes = []
    seen: dict[tuple, int] = {}  # key -> index; plans and merges name modes by key
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
        if seen.setdefault(mode.key, i) != i:
            raise CatalogError(f"catalog modes #{seen[mode.key]} and #{i} are both {mode}")
        # lengths and units load as floats, whatever the JSON spelling
        modes.append(replace(mode, reach_km=float(mode.reach_km),
                             power_units=float(mode.power_units),
                             cost_units=float(mode.cost_units)))
    return tuple(modes)


def _order_key(m: TransceiverMode) -> tuple:
    # rate desc, power asc, reach desc, then stable naming for full determinism
    return (-m.rate_gbps, m.power_units, -m.reach_km, m.module, m.modulation)


def plan_regeneration(link_lengths_km, mode: TransceiverMode) -> tuple[int, ...]:
    """Greedy farthest-feasible OEO placement; minimal for a fixed mode.

    Walks the path accumulating length and inserts a regen at the last node
    where the running segment still fits the reach. Returns the indices into
    the path's node sequence where an OEO regeneration occurs (interior
    positions, in path order).
    """
    boundaries = []
    running = 0.0
    for i, length in enumerate(link_lengths_km):
        if length > mode.reach_km:
            raise LinkExceedsReach(i, length, mode.reach_km)
        if running + length > mode.reach_km:
            boundaries.append(i)
            running = length
        else:
            running += length
    return tuple(boundaries)


def select_mode_min_regens(link_lengths_km, rate_gbps: int, catalog=DEFAULT_CATALOG):
    """(mode, regen boundaries) for one channel of at least rate_gbps over the hops.

    The one rule for a single-channel mode: fewest regenerations first, then
    :func:`_order_key` (higher rate, lower power, longer reach), so a spare
    rate stays groomable. Over one span of ``d`` km at rate 0 it picks the
    highest-rate mode whose reach is at least ``d``.
    """
    best = None
    for m in catalog:
        if m.rate_gbps < rate_gbps or max(link_lengths_km) > m.reach_km:
            continue
        boundaries = plan_regeneration(link_lengths_km, m)
        key = (len(boundaries), _order_key(m))
        if best is None or key < best[0]:
            best = (key, m, boundaries)
    if best is None:
        raise NoFeasibleMode(f"no mode carries {rate_gbps}G over hops {link_lengths_km}")
    return best[1], best[2]


def select_modes_min_channels(link_lengths_km, rate_gbps: int, catalog=DEFAULT_CATALOG):
    """Multiset of modes covering rate_gbps over the hops in the fewest parallel channels.

    Each mode regenerates back to back where :func:`plan_regeneration` puts
    it. Ties go to fewer total regenerators, lower total power, lower total
    rate and a higher top rate, then to the combination's sorted
    :func:`_order_key`, the order every other mode choice uses. Returns a
    fresh list; the combination search is memoized (:func:`_min_channel_split`).
    """
    if rate_gbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_gbps}")
    longest = max(link_lengths_km)
    usable = tuple((m, len(plan_regeneration(link_lengths_km, m)))
                   for m in catalog if m.reach_km >= longest)
    if not usable:
        raise NoFeasibleMode(f"no mode usable over hops {link_lengths_km} even with regeneration")
    return list(_min_channel_split(rate_gbps, usable))


@functools.lru_cache(maxsize=1024)  # a study reads under 50 keys
def _min_channel_split(rate_gbps: int, usable: tuple) -> tuple[TransceiverMode, ...]:
    """The modes :func:`select_modes_min_channels` picks from ``usable``, the
    (mode, regenerations) pairs of the hops, sorted by :func:`_order_key`. It
    depends on nothing else, so it is memoized per (rate, usable)."""
    # max_needed copies of the slowest mode cover the rate, so a split exists
    max_needed = -(-rate_gbps // min(m.rate_gbps for m, _ in usable))
    for count in range(1, max_needed + 1):
        best = None
        for combo in itertools.combinations_with_replacement(usable, count):
            total_rate = sum(m.rate_gbps for m, _ in combo)
            if total_rate < rate_gbps:
                continue
            key = (sum(r for _, r in combo),
                   sum(m.power_units * (2 + 2 * r) for m, r in combo),
                   total_rate,
                   -max(m.rate_gbps for m, _ in combo),
                   sorted(_order_key(m) for m, _ in combo))
            if best is None or key < best[0]:
                best = (key, combo)
        if best is not None:
            return tuple(sorted((m for m, _ in best[1]), key=_order_key))
