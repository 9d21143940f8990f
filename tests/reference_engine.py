"""Straightforward reference versions of engine passes, for equivalence tests.

* :func:`yen_k_shortest_paths` is plain Yen: a first search per node pair,
  a spur search from every index of each accepted path, and each root's
  length from ``path_length_km``. It stands in for
  ``ipowdm.topology.k_shortest_paths``, which reads the first path off a
  memoized shortest-path tree per source and spurs only from the index where
  a path left its parent (Lawler).
* :func:`route_flow` routes a flow over one merged auxiliary graph: every
  grooming edge found by a scan of the lightpaths, plus every new-lightpath
  edge built afresh from the k shortest paths, whatever the architecture
  searches. It stands in for ``ipowdm.rmsa._route_flow``, which searches
  per-architecture graphs over memoized edges.
* :func:`groom_chain` searches a whole graph of scanned grooming edges (in
  :func:`route_flow`, the merged graph's pairs whose best edge grooms), then
  applies the hop limit and the length bound to the chain found. It stands
  in for ``ipowdm.rmsa._try_groom_chain``, which searches every grooming
  pair, read from the grooming index node by node, and drops pushes beyond
  the length bound.
* :func:`merge_pure_ip_regens` scans every lightpath starting at a node for
  a merge partner. It stands in for the engine's pass, which files
  lightpaths by start node, mode and carried flows.

They reuse the engine's placement (``_place_chain``) and state methods, so a
test that swaps one in compares only the graph search or the partner lookup.
"""

from __future__ import annotations

import heapq

from ipowdm.rmsa import (
    GROOM_CHAIN_HOPS,
    GROOM_MAX_FLOWS_PER_LP,
    GROOMING_WEIGHT_FACTOR,
    MAX_RETRIES,
    OPAQUE_HOP_WEIGHT,
    AuxEdge,
    BlockedError,
    Lightpath,
    NoSpectrum,
    _GROOM,
    _NEW,
    _adjacency,
    _aux_shortest_path,
    _place_chain,
    _remap_records,
)
from ipowdm.topology import k_shortest_paths, lexicographic_dijkstra
from ipowdm.traffic import Demand
from ipowdm.transceiver import NoFeasibleMode


def yen_k_shortest_paths(topo, src, dst, k):
    """Up to k loop-free ``src -> dst`` paths, ascending (length, node
    sequence), by Yen's algorithm; no memo."""
    adj = topo._adj
    first = lexicographic_dijkstra(adj, src, dst)
    if first is None:
        return ()
    accepted = [first]
    candidates = []
    seen = {first[1]}
    while len(accepted) < k:
        _, prev_path = accepted[-1]
        for i in range(len(prev_path) - 1):
            root = prev_path[: i + 1]
            removed_edges = {p[i:i + 2] for _, p in accepted if p[: i + 1] == root}
            res = lexicographic_dijkstra(adj, root[-1], dst, root[:-1], removed_edges)
            if res is None:
                continue
            spur_len, spur_path = res
            total = topo.path_length_km(root) + spur_len
            full = root[:-1] + spur_path
            if full not in seen:
                seen.add(full)
                heapq.heappush(candidates, (total, full))
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return tuple(p for _, p in accepted)


def grooming_edges(state, demand):
    """{(u, v): grooming edges} for ``demand`` by a scan of ``state.lightpaths``."""
    arch = state.arch
    edges = {}
    for lp in state.lightpaths.values():
        if lp.residual < demand.rate_gbps:
            continue
        if not arch.intermediate_ip_grooming and lp.endpoints != (demand.src, demand.dst):
            continue
        if arch.intermediate_ip_grooming and len(lp.carried) >= GROOM_MAX_FLOWS_PER_LP:
            continue
        u, v = lp.endpoints
        edges.setdefault((u, v), []).append(
            AuxEdge(GROOMING_WEIGHT_FACTOR * lp.length_km, _GROOM, lp.id, (), u, v))
    return edges


def candidate_edges(state, demand):
    """{(u, v): new-lightpath edges} for ``demand``, built from the k shortest
    paths with the reach rule applied edge by edge."""
    topo, arch, catalog = state.topology, state.arch, state.catalog
    if not arch.optical_bypass:
        subpaths, base, limit = topo.directed_fibers(), OPAQUE_HOP_WEIGHT, float("inf")
    else:
        paths = k_shortest_paths(topo, demand.src, demand.dst, state.cfg.k)
        base = 2.0 * min(m.cost_units for m in catalog)
        if arch.intermediate_ip_grooming:
            subpaths = {p[i:j + 1]: None for p in paths
                        for i in range(len(p) - 1) for j in range(i + 1, len(p))}
            rate = min(demand.rate_gbps, max(m.rate_gbps for m in catalog))
            limit = max(m.reach_km for m in catalog if m.rate_gbps >= rate)
        else:
            subpaths, limit = paths, max(m.reach_km for m in catalog)
    edges = {}
    for sub in subpaths:
        lengths = topo.path_link_lengths(sub)
        if max(lengths) <= limit:
            edges.setdefault((sub[0], sub[-1]), []).append(
                AuxEdge(sum(lengths) + base, _NEW, -1, sub, sub[0], sub[-1]))
    return edges


def merged_graph(state, demand):
    """Grooming and new-lightpath edges in one graph, alternatives sorted."""
    edges = grooming_edges(state, demand)
    for key, alts in candidate_edges(state, demand).items():
        edges.setdefault(key, []).extend(alts)
    for alts in edges.values():
        alts.sort()
    return edges


def groom_chain(state, flow, edges):
    """The lexicographic shortest chain over ``edges`` ({(u, v): alternatives
    best first}, each pair's best a grooming edge) for ``flow``, or None when
    there is none, it has more than ``GROOM_CHAIN_HOPS`` lightpaths or it is
    longer than the shortest route."""
    chain = _aux_shortest_path(edges, flow.src, flow.dst, _adjacency(edges))
    if not chain or len(chain) > GROOM_CHAIN_HOPS:
        return None
    if sum(state.lightpaths[e.lp_id].length_km for e in chain) > state.shortest_km(
            flow.src, flow.dst):
        return None
    return chain


def route_flow(state, flow) -> None:
    """Route ``flow`` over the merged graph: a groom chain first where the
    architecture grooms at intermediate routers over bypass lightpaths, then
    new lightpaths only; each retry drops the failed route's first edge."""
    demand = Demand(flow.src, flow.dst, flow.rate_gbps)
    edges = merged_graph(state, demand)
    if state.arch.optical_bypass and state.arch.intermediate_ip_grooming:
        chain = groom_chain(state, flow, {k: a for k, a in edges.items() if a[0].kind == _GROOM})
        if chain:
            _place_chain(state, flow, chain)
            return
        edges = {key: [e for e in alts if e.kind == _NEW] for key, alts in edges.items()}
        edges = {key: alts for key, alts in edges.items() if alts}
    for attempt in range(MAX_RETRIES):
        if attempt:
            key = (path[0].u, path[0].v)
            edges[key].pop(0)
            if not edges[key]:
                del edges[key]
        path = _aux_shortest_path(edges, flow.src, flow.dst, _adjacency(edges))
        if path is None:
            raise BlockedError(demand, "no_spectrum" if attempt else "no_feasible_mode")
        try:
            _place_chain(state, flow, path)
            return
        except (NoSpectrum, NoFeasibleMode):
            pass
    raise BlockedError(demand, "no_spectrum")


def merge_pure_ip_regens(state) -> int:
    """The merge pass with a scan of every lightpath starting at each end node."""
    queue = sorted(state.lightpaths.values(), key=lambda l: l.id)
    by_start: dict[str, list[Lightpath]] = {}
    for lp in queue:
        by_start.setdefault(lp.route[0], []).append(lp)
    merges = 0
    for l1 in queue:
        if l1.id not in state.lightpaths:
            continue
        b = l1.route[-1]
        for l2 in by_start.get(b, ()):
            if l2.id == l1.id or l2.id not in state.lightpaths:
                continue
            if l2.mode.key != l1.mode.key:
                continue
            if sorted(l1.carried) != sorted(l2.carried) or not l1.carried:
                continue
            merged_route = l1.route + l2.route[1:]
            if len(set(merged_route)) != len(merged_route):
                continue
            merged = Lightpath(
                state.new_lp_id(),
                merged_route,
                l1.mode,
                l1.segments + l2.segments,
                l1.b2b_regen_nodes + (b,) + l2.b2b_regen_nodes,
                list(l1.carried),
                length_km=state.topology.path_length_km(merged_route),
            )
            state.remove(l1)
            state.remove(l2)
            state.add(merged)
            _remap_records(state, {l1.id: merged.id, l2.id: merged.id})
            queue.append(merged)
            by_start.setdefault(merged.route[0], []).append(merged)
            merges += 1
            break
    return merges
