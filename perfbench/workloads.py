"""Seeded workload definitions for the planner benchmark.

Every workload is a fixed pool of units, numbered ``0 .. pool_size - 1``. A unit
is a short list of plans, and each plan is a pure function of its unit number,
so the seed commit's result for every plan can be stored in
``reference/<workload>.json`` and checked on every run. A run with workload seed ``s``
visits units ``s, s + 1, ...`` modulo the pool size and never visits a unit
twice.

The program only ever receives generated inputs: topology documents through
``topology.parse_topology``, ``TrafficScenario`` objects and integer seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable

ARCHS = ("OpIP", "TrIP", "TrZR", "TrIPandZR")

# Fresh topologies: nodes, links, clip range for link lengths, grid size and
# the side of the square the nodes are scattered over.
FRESH_NODES = 20
FRESH_LINKS = 40
FRESH_KM = (60.0, 600.0)
FRESH_CHANNELS = 96
FRESH_AREA_KM = 1000.0

TIGHT_CHANNELS = 12


@dataclass(frozen=True)
class Plan:
    """One op: a single ``run_single`` call, parsing ``topology`` first when it
    is a document rather than a name of a topology loaded at set-up."""

    topology: str | dict
    arch: str
    scenario: str
    seed: int
    strict: bool


def _paper_study(unit: int) -> list[Plan]:
    # The paper's grid in run_experiment order for one traffic seed.
    return [
        Plan(topo, arch, scen, unit, True)
        for topo in ("j14", "g17")
        for arch in ARCHS
        for scen in ("TS1", "TS2", "TS3")
    ]


def _fresh_topology(unit: int) -> list[Plan]:
    return [Plan(fresh_topology_doc(unit), ARCHS[unit % 4], "TS1", unit, False)]


def _spectrum_tight(unit: int) -> list[Plan]:
    return [Plan("g17-tight", arch, "TS3", unit, False) for arch in ARCHS]


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    plans: Callable[[int], list[Plan]]  # unit number -> its plans
    topologies: tuple[str, ...]         # loaded at set-up
    scenarios: tuple[str, ...]          # loaded at set-up
    unused_layers: tuple[str, ...]      # traced layers its plans never call

    def units(self, seed: int) -> list[int]:
        """Unit numbers a run with this workload seed visits, in order."""
        return [(seed + r) % self.pool_size for r in range(self.pool_size)]


WORKLOADS = {w.name: w for w in (
    Workload("paper-study", 64, _paper_study, ("j14", "g17"), ("TS1", "TS2", "TS3"),
             ("topology.parse",)),
    Workload("fresh-topology", 512, _fresh_topology, (), ("TS1",), ()),
    Workload("spectrum-tight", 128, _spectrum_tight, ("g17-tight",), ("TS3",),
             ("topology.parse",)),
)}


def fresh_topology_doc(seed: int) -> dict:
    """A random connected topology document, deterministic in ``seed``.

    Nodes are scattered uniformly over a square. A nearest-neighbour spanning
    tree (Prim's algorithm on straight-line distance) joins them, then the
    shortest remaining node pairs are linked until there are ``FRESH_LINKS``
    links. Lengths are straight-line distances clipped to ``FRESH_KM``.
    """
    rng = random.Random(seed)
    pts = [(rng.uniform(0, FRESH_AREA_KM), rng.uniform(0, FRESH_AREA_KM))
           for _ in range(FRESH_NODES)]
    dist = [[math.dist(p, q) for q in pts] for p in pts]
    # Prim: best[j] = (distance to the tree, tree node it would attach to)
    best = {j: (dist[0][j], 0) for j in range(1, FRESH_NODES)}
    links = set()
    while best:
        j = min(best, key=lambda n: (best[n][0], n))
        links.add(tuple(sorted((best.pop(j)[1], j))))
        for n, (d, _) in best.items():
            if dist[j][n] < d:
                best[n] = (dist[j][n], j)
    extra = sorted(
        (dist[i][j], i, j)
        for i in range(FRESH_NODES) for j in range(i + 1, FRESH_NODES)
        if (i, j) not in links
    )
    links.update((i, j) for _, i, j in extra[:FRESH_LINKS - len(links)])
    lo, hi = FRESH_KM
    names = [f"n{i:02d}" for i in range(FRESH_NODES)]
    return {
        "name": f"fresh-{seed}",
        "nodes": names,
        "links": [
            {"a": names[i], "b": names[j],
             "length_km": round(min(hi, max(lo, dist[i][j])), 1)}
            for i, j in sorted(links)
        ],
        "grid": {"channel_count": FRESH_CHANNELS, "spacing_ghz": 50},
    }


def named_topology_doc(name: str) -> dict:
    """A shipped topology document; ``g17-tight`` is g17 on a 12-channel grid."""
    base = name.removesuffix("-tight")
    doc = json.loads(resources.files("ipowdm.data").joinpath(f"{base}.json").read_text())
    if name.endswith("-tight"):
        doc["grid"] = {**doc.get("grid", {}), "channel_count": TIGHT_CHANNELS}
    return doc
