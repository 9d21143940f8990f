"""Brute-force reference implementations for small instances.

Test-only API: exhaustive path/regen/split enumeration plus an exact
minimum-module-cost provisioner for toy instances (<= 5 nodes, <= 8 demands),
used to bound the quality of the auxiliary-graph heuristic.

Module counting convention (shared with the provisioning engine): a lightpath
consumes one module at each termination and two per back-to-back regeneration;
router ports are two per lightpath (terminations only).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ipowdm.topology import Topology
from ipowdm.transceiver import DEFAULT_CATALOG, plan_regeneration
from ipowdm.traffic import Demand


class InstanceTooLarge(Exception):
    pass


class Infeasible(Exception):
    pass


def enumerate_simple_paths(topo: Topology, src: str, dst: str) -> list[list[str]]:
    """All simple paths src->dst sorted by (length, lexicographic node order)."""
    out = []

    def walk(node, path, length):
        if node == dst:
            out.append((length, list(path)))
            return
        for nbr, hop in sorted(topo.neighbors(node).items()):
            if nbr not in path:
                path.append(nbr)
                walk(nbr, path, length + hop)
                path.pop()

    walk(src, [src], 0.0)
    out.sort(key=lambda e: (e[0], e[1]))
    return [p for _, p in out]


def exhaustive_regen_min(link_lengths, reach_km: float):
    """Minimum regen count by enumerating every subset of interior nodes.

    Returns None when no placement exists (some single link exceeds reach).
    """
    n = len(link_lengths)
    if any(l > reach_km for l in link_lengths):
        return None
    interior = list(range(1, n))
    best = None
    for k in range(0, len(interior) + 1):
        for subset in itertools.combinations(interior, k):
            cuts = [0] + list(subset) + [n]
            if all(
                sum(link_lengths[a:b]) <= reach_km for a, b in zip(cuts, cuts[1:])
            ):
                best = k
                break
        if best is not None:
            break
    return best


def exhaustive_min_channel_split(rate_gbps, link_lengths, catalog=DEFAULT_CATALOG):
    """Minimum channel count split over the hops ``link_lengths`` by full
    enumeration; returns (count, modes)."""
    usable = []
    for m in catalog:
        regens = exhaustive_regen_min(link_lengths, m.reach_km)
        if regens is not None:
            usable.append((m, regens))
    if not usable:
        raise Infeasible(f"no mode reaches every hop of {list(link_lengths)} km")
    for count in range(1, 7):
        options = []
        for combo in itertools.combinations_with_replacement(usable, count):
            if sum(m.rate_gbps for m, _ in combo) < rate_gbps:
                continue
            regens = sum(r for _, r in combo)
            power = sum(m.power_units * (2 + 2 * r) for m, r in combo)
            names = tuple(sorted(m.key for m, _ in combo))
            options.append(((regens, power, names), [m for m, _ in combo]))
        if options:
            options.sort(key=lambda o: o[0])
            return count, options[0][1]
    raise Infeasible(f"cannot cover {rate_gbps} Gb/s")


# -- exact min-cost provisioning ---------------------------------------------

_MAX_NODES = 5
_MAX_DEMANDS = 8
_MAX_OPTIONS_PER_FLOW = 2000


def _pack_factory(catalog, allow_b2b):
    """Exact minimum-cost packing of flow rates into lightpaths on one leg.

    Returns pack(route_lengths, rates) -> (cost, lp_count), minimizing
    weighted module cost, then lightpath count.
    """

    @lru_cache(maxsize=None)
    def lp_cost(route_lengths, total_rate):
        best = None
        for m in catalog:
            if m.rate_gbps < total_rate:
                continue
            if allow_b2b:
                if max(route_lengths) > m.reach_km:
                    continue
                regens = len(plan_regeneration(route_lengths, m))
            else:
                if sum(route_lengths) > m.reach_km:
                    continue
                regens = 0
            cost = m.cost_units * (2 + 2 * regens)
            if best is None or cost < best:
                best = cost
        return best  # None when no single mode carries total_rate over this leg

    @lru_cache(maxsize=None)
    def pack(route_lengths, rates):
        if not rates:
            return (0.0, 0)
        first, rest = rates[0], rates[1:]
        best = None
        seen_groups = set()
        for mask in range(1 << len(rest)):
            group = (first,) + tuple(r for i, r in enumerate(rest) if mask >> i & 1)
            key = tuple(sorted(group))
            if key in seen_groups:
                continue
            seen_groups.add(key)
            cost = lp_cost(route_lengths, sum(group))
            if cost is None:
                continue
            remaining = tuple(r for i, r in enumerate(rest) if not mask >> i & 1)
            sub = pack(route_lengths, remaining)
            if sub is None:
                continue
            cand = (cost + sub[0], 1 + sub[1])
            if best is None or cand < best:
                best = cand
        return best

    return pack


def _all_paths_cache(topo):
    cache: dict[tuple[str, str], list[tuple[str, ...]]] = {}

    def paths(u, v):
        if (u, v) not in cache:
            cache[(u, v)] = [tuple(p) for p in enumerate_simple_paths(topo, u, v)]
        return cache[(u, v)]

    return paths


def _subflow_rates(rate, catalog):
    """Greedy split into sub-flows of at most one channel of the catalog."""
    unit = max(m.rate_gbps for m in catalog)
    out = []
    remaining = rate
    while remaining > 0:
        part = min(remaining, unit)
        out.append(part)
        remaining -= part
    return out


def _trzr_demand_cost(topo, demand, catalog):
    best = None
    for path in enumerate_simple_paths(topo, demand.src, demand.dst):
        lengths = tuple(topo.path_link_lengths(path))
        usable = []
        for m in catalog:
            regens = exhaustive_regen_min(list(lengths), m.reach_km)
            if regens is not None:
                usable.append((m, regens))
        if not usable:
            continue
        for count in range(1, 7):
            found = None
            for combo in itertools.combinations_with_replacement(usable, count):
                if sum(m.rate_gbps for m, _ in combo) < demand.rate_gbps:
                    continue
                cost = sum(m.cost_units * (2 + 2 * r) for m, r in combo)
                cand = (cost, 2 * count)
                if found is None or cand < found:
                    found = cand
            if found is not None:
                if best is None or found < best:
                    best = found
                # keep scanning other counts: more channels can be cheaper
        # also allow counts beyond first feasible handled above (range covers 1..6)
    if best is None:
        raise Infeasible(f"demand {demand.key} unroutable")
    return best


def _chain_options(topo, paths, src, dst, rate, allow_b2b, catalog):
    """All (leg, ...) chains for one flow; each leg is (u, v, route_lengths)."""
    nodes = [n for n in topo.nodes if n not in (src, dst)]

    def leg_choices(u, v):
        out = []
        for p in paths(u, v):
            lengths = tuple(topo.path_link_lengths(p))
            ok = False
            for m in catalog:
                if m.rate_gbps < rate:
                    continue
                if allow_b2b:
                    ok = max(lengths) <= m.reach_km
                else:
                    ok = sum(lengths) <= m.reach_km
                if ok:
                    break
            if ok:
                out.append((u, v, lengths))
        return out

    options = []
    for k in range(0, len(nodes) + 1):
        for stops in itertools.permutations(nodes, k):
            seq = (src,) + stops + (dst,)
            per_leg = [leg_choices(u, v) for u, v in zip(seq, seq[1:])]
            if any(not c for c in per_leg):
                continue
            for combo in itertools.product(*per_leg):
                options.append(tuple(combo))
                if len(options) > _MAX_OPTIONS_PER_FLOW:
                    raise InstanceTooLarge("too many chain options for one flow")
    return options


def exhaustive_min_cost_provision(
    topo: Topology,
    demands: list[Demand],
    arch: str,
    channel_count: int = 10,
    catalog=DEFAULT_CATALOG,
) -> tuple[float, int]:
    """Exact optimum (weighted module cost, router ports), lexicographic.

    Spectrum is not enumerated here (the provisioning engine enforces it; toy
    instances stay far from saturation), so the returned optimum is a valid
    lower bound for the heuristic under identical inputs.
    """
    if len(topo.nodes) > _MAX_NODES:
        raise InstanceTooLarge(f"{len(topo.nodes)} nodes > {_MAX_NODES}")
    if len(demands) > _MAX_DEMANDS:
        raise InstanceTooLarge(f"{len(demands)} demands > {_MAX_DEMANDS}")
    if channel_count > 10:
        raise InstanceTooLarge(f"{channel_count} channels > 10")

    if arch == "TrZR":
        cost = 0.0
        ports = 0
        for d in demands:
            c, p = _trzr_demand_cost(topo, d, catalog)
            cost += c
            ports += p
        return cost, ports

    paths = _all_paths_cache(topo)
    allow_b2b = arch == "TrIPandZR"
    pack = _pack_factory(catalog, allow_b2b)

    flows: list[tuple[str, str, int]] = []
    for d in demands:
        for r in _subflow_rates(d.rate_gbps, catalog):
            flows.append((d.src, d.dst, r))
    flows.sort(key=lambda f: (-f[2], f[0], f[1]))

    flow_options = []
    for src, dst, rate in flows:
        if arch == "OpIP":
            opts = []
            for p in paths(src, dst):
                legs = tuple(
                    (u, v, (topo.link_length(u, v),)) for u, v in zip(p, p[1:])
                )
                opts.append(legs)
        else:
            opts = _chain_options(topo, paths, src, dst, rate, allow_b2b, catalog)
        if not opts:
            raise Infeasible(f"flow {src}->{dst} {rate}G has no options")
        flow_options.append((rate, opts))

    def loads_value(loads):
        cost = 0.0
        lps = 0
        for legkey, rates in loads.items():
            c, n = pack(legkey[2], tuple(sorted(rates, reverse=True)))
            cost += c
            lps += n
        return cost, lps

    best: list = [None]

    def search(idx, loads):
        cur = loads_value(loads)
        if best[0] is not None and (cur[0], 2 * cur[1]) >= best[0]:
            return
        if idx == len(flow_options):
            val = (cur[0], 2 * cur[1])
            if best[0] is None or val < best[0]:
                best[0] = val
            return
        rate, opts = flow_options[idx]
        for chain in opts:
            added = []
            feasible = True
            for leg in chain:
                loads.setdefault(leg, []).append(rate)
                added.append(leg)
                if pack(leg[2], tuple(sorted(loads[leg], reverse=True))) is None:
                    feasible = False
                    break
            if feasible:
                search(idx + 1, loads)
            for leg in added:
                loads[leg].pop()
                if not loads[leg]:
                    del loads[leg]

    search(0, {})
    if best[0] is None:
        raise Infeasible("no feasible assignment")
    return best[0]
