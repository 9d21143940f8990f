"""Shared builders for test topologies and randomized small instances."""

from __future__ import annotations

import itertools
import random

from ipowdm.topology import ChannelGrid, Link, Topology
from ipowdm.traffic import RATE_CLASSES, Demand, TrafficMatrix


def mk_topo(name, links, channels=10):
    """Build a topology from (a, b, length_km) triples."""
    nodes = sorted({n for a, b, _ in links for n in (a, b)})
    return Topology(
        name,
        tuple(nodes),
        tuple(Link(a, b, float(length)) for a, b, length in links),
        ChannelGrid(channels, 100),
    )


# link lengths from few distinct values, so many paths tie on length
TIE_WEIGHTS = [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.7)]


def random_topology(seed, weights):
    """A random connected topology of 4-9 nodes with link lengths drawn from
    ``weights``: a random spanning tree plus each other pair with odds 1/2."""
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(rng.randint(4, 9))]
    links = {(nodes[rng.randrange(i)], nodes[i]) for i in range(1, len(nodes))}
    links |= {pair for pair in itertools.combinations(nodes, 2)
              if pair not in links and rng.random() < 0.5}
    return mk_topo(f"r{seed}", [(a, b, rng.choice(weights)) for a, b in sorted(links)])


def set_claim(state, fiber, channel, claimed):
    """Set or clear ``channel``'s bit in ``fiber``'s stored mask, behind the
    back of ``NetworkState.add`` / ``remove``."""
    if claimed:
        state.occupancy[fiber] |= 1 << channel
    else:
        state.occupancy[fiber] &= ~(1 << channel)


def toy_instance(seed: int, max_nodes: int = 4, max_demands: int = 6):
    """Random connected toy network plus demand set, deterministic in seed.

    Sized so the brute-force provisioner stays fast: 3-4 nodes, 3-6 demands,
    link lengths spanning the reach classes of the default catalog.
    """
    rng = random.Random(seed)
    n = rng.randint(3, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    lengths = [100, 150, 200, 250, 300, 400, 500]
    links: dict[tuple[str, str], int] = {}
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], rng.choice(order[:i])
        links[tuple(sorted((a, b)))] = rng.choice(lengths)
    spare = [
        p for p in itertools.combinations(nodes, 2) if tuple(sorted(p)) not in links
    ]
    for p in rng.sample(spare, min(rng.randint(0, 1), len(spare))):
        links[tuple(sorted(p))] = rng.choice(lengths)
    topo = mk_topo(f"toy{seed}", [(a, b, l) for (a, b), l in links.items()])
    n_dem = rng.randint(3, min(max_demands, n * (n - 1)))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    chosen = rng.sample(pairs, n_dem)
    demands = tuple(Demand(a, b, rng.choice(RATE_CLASSES)) for a, b in chosen)
    return topo, TrafficMatrix("toy", seed, demands)
