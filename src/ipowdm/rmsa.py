"""Provisioning engine: auxiliary-graph routing, grooming, mode selection,
regeneration, and first-fit spectrum assignment for the four node architectures.

Architectures:

* ``OpIP``       -- opaque: every hop terminates in routers; grooming and
                    regeneration happen in the IP layer at every node.
* ``TrIP``       -- transparent bypass; regeneration and intermediate grooming
                    through routers.
* ``TrZR``       -- transparent bypass; end-to-end grooming only, regeneration
                    with back-to-back module pairs that never touch a router.
* ``TrIPandZR``  -- like TrIP, but terminations that turn out to be pure
                    regenerations (no grooming at the node) are converted to
                    back-to-back pairs in a final pass.

Demands above 400 Gb/s are inverse-multiplexed into sub-flows before routing
(except under TrZR, where the minimum-channel split decides the parallel
channels). Each sub-flow is routed on an auxiliary graph: grooming edges
reuse residual lightpath capacity at strongly reduced weight, candidate edges
open new lightpaths at physical length plus a small per-lightpath penalty.
``NetworkState.groomable`` indexes the grooming edges by residual, then by
start node. TrIP and TrIPandZR search it lazily for a groom chain, reading a
node's out-edges only when the search settles it and dropping any push
heavier than the chain length bound allows (:func:`_try_groom_chain`); then
every bypass flow takes the memoized routes over its :func:`_candidate_graph`,
which is built only for a flow that retries (:func:`_lazy_routes`).
OpIP is the one architecture that reads :func:`build_auxiliary_graph`, which
lays the index's edges out by node pair, over its :func:`_hop_graph`; see
:func:`_route_flow`.

TrZR's end-to-end grooming is the one demand per node pair, routed as one
flow, plus the minimum-channel split: no TrZR flow ever finds a lightpath
between its endpoints, so TrZR only opens new lightpaths.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import pairwise, tee
from typing import NamedTuple

from .topology import Topology, _yen, k_shortest_paths, lexicographic_dijkstra, tied_nodes
from .transceiver import (
    DEFAULT_CATALOG,
    NoFeasibleMode,
    TransceiverMode,
    plan_regeneration,
    select_mode_min_regens,
    select_modes_min_channels,
)
from .traffic import Demand, TrafficMatrix

ARCH_NAMES = ("OpIP", "TrIP", "TrZR", "TrIPandZR")

GROOMING_WEIGHT_FACTOR = 0.01
MAX_RETRIES = 30
# Bypass-with-IP-grooming architectures ride existing lightpath chains
# only when the chain is short and detour-free; otherwise they open a
# fresh transparent path. See _route_flow.
GROOM_CHAIN_HOPS = 2
GROOM_MAX_FLOWS_PER_LP = 2
GROOM_MIN_RATE = 150
# Hop-by-hop (no optical bypass) lightpaths cost modules per fiber hop,
# not per kilometre, so a new-lightpath edge carries this dominant per-hop
# weight; route length only breaks ties between equal-hop routes.
OPAQUE_HOP_WEIGHT = 10000.0


@dataclass(frozen=True)
class ArchitectureConfig:
    name: str
    optical_bypass: bool
    intermediate_ip_grooming: bool
    ip_regeneration: bool
    b2b_zr_regeneration: bool


ARCHITECTURES: dict[str, ArchitectureConfig] = {
    "OpIP": ArchitectureConfig("OpIP", False, True, True, False),
    "TrIP": ArchitectureConfig("TrIP", True, True, True, False),
    "TrZR": ArchitectureConfig("TrZR", True, False, False, True),
    "TrIPandZR": ArchitectureConfig("TrIPandZR", True, True, True, True),
}


@dataclass(frozen=True)
class PlannerConfig:
    k: int = 3

    def __post_init__(self):
        # a float k would plan like its ceiling under a memo key of its own
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


class BlockedError(Exception):
    def __init__(self, flow: FlowRecord, reason: str):
        self.flow = flow
        self.reason = reason  # "no_spectrum" | "no_feasible_mode"
        super().__init__(f"{flow.src}->{flow.dst} {flow.rate_gbps}G: {reason}")


class NoSpectrum(Exception):
    pass


@dataclass
class Segment:
    nodes: tuple[str, ...]
    channel: int


@dataclass
class Lightpath:
    """A provisioned lightpath. Its load (``carried``, ``residual``) changes
    only through ``NetworkState.carry`` / ``release``, which keep ``residual``
    equal to the unused part of the mode rate and the grooming index current;
    registering it sets ``groom_edge`` and claims its segments' channels."""

    id: int
    route: tuple[str, ...]
    mode: TransceiverMode
    segments: list[Segment]
    b2b_regen_nodes: tuple[str, ...] = ()
    carried: list[tuple[str, int]] = field(default_factory=list)
    length_km: float = field(kw_only=True)  # topology.path_length_km(route)
    residual: int = field(init=False)
    groom_edge: AuxEdge = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.residual = self.mode.rate_gbps - sum(r for _, r in self.carried)

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.route[0], self.route[-1])


@dataclass
class FlowRecord:
    flow_id: str
    src: str
    dst: str
    rate_gbps: int
    placements: list[tuple[int, int]] = field(default_factory=list)  # (lp_id, rate)


class NetworkState:
    """Mutable provisioning state for one run. Mutation is strictly sequential.

    Lightpaths enter and leave through :meth:`add` / :meth:`remove` and change
    load through :meth:`carry` / :meth:`release`, which keep ``groomable``
    (residual -> start node -> {lp_id: grooming edge}) holding exactly the
    lightpaths that can take another flow: residual left and fewer than
    ``GROOM_MAX_FLOWS_PER_LP`` flows; none under TrZR, which never grooms.
    Buckets left empty stay in place.
    ``occupancy`` (directed fiber -> channel mask, bit c set while a segment
    holds channel c there) is written only by :meth:`add` / :meth:`remove`.
    """

    def __init__(self, topo: Topology, arch: str, cfg: PlannerConfig, catalog=DEFAULT_CATALOG):
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}")
        self.topology = topo
        self.arch = ARCHITECTURES[arch]
        self.cfg = cfg
        self.catalog = catalog
        self.lightpaths: dict[int, Lightpath] = {}
        self.groomable: dict[int, dict[int, AuxEdge]] = {}
        self._max_flows = GROOM_MAX_FLOWS_PER_LP if self.arch.intermediate_ip_grooming else 0
        self.occupancy: dict[tuple[str, str], int] = dict.fromkeys(topo.directed_fibers(), 0)
        self.records: dict[tuple[str, str], list[FlowRecord]] = {}
        self.blocked: list[tuple[Demand, str]] = []
        self._next_id = 0
        self._new_lp_penalty = 2.0 * min(m.cost_units for m in catalog)
        self._reach_limits: dict[int, float] = {}  # flow rate -> see _reach_limit
        # (subpath, rate) -> IP-regenerated plan, shared by every state
        # planned on this topology and catalog; see _realize_candidate_edge
        self._plans: dict = topo._plan_memo.setdefault(tuple(catalog), {})

    # -- helpers -------------------------------------------------------------

    def shortest_km(self, src: str, dst: str) -> float:
        """Length of the shortest physical route; k=1, so no spur search runs."""
        return self.topology.path_length_km(k_shortest_paths(self.topology, src, dst, 1)[0])

    def new_lp_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _grooms(self, lp: Lightpath) -> bool:
        return lp.residual > 0 and len(lp.carried) < self._max_flows

    def _file(self, lp: Lightpath) -> None:
        if self._grooms(lp):
            by_start = self.groomable.setdefault(lp.residual, {})
            by_start.setdefault(lp.route[0], {})[lp.id] = lp.groom_edge

    def _unfile(self, lp: Lightpath) -> None:
        if self._grooms(lp):
            del self.groomable[lp.residual][lp.route[0]][lp.id]

    def add(self, lp: Lightpath) -> None:
        u, v = lp.endpoints
        lp.groom_edge = AuxEdge(GROOMING_WEIGHT_FACTOR * lp.length_km, _GROOM, lp.id, (), u, v)
        self.lightpaths[lp.id] = lp
        self._file(lp)
        for seg in lp.segments:
            for fiber in pairwise(seg.nodes):
                self.occupancy[fiber] |= 1 << seg.channel

    def remove(self, lp: Lightpath) -> None:
        self._unfile(lp)
        del self.lightpaths[lp.id]
        for seg in lp.segments:
            for fiber in pairwise(seg.nodes):
                self.occupancy[fiber] &= ~(1 << seg.channel)

    def carry(self, lp: Lightpath, flow_id: str, rate: int) -> None:
        self._unfile(lp)
        lp.carried.append((flow_id, rate))
        lp.residual -= rate
        self._file(lp)

    def release(self, lp: Lightpath, flow_id: str, rate: int) -> None:
        self._unfile(lp)
        lp.carried.remove((flow_id, rate))
        lp.residual += rate
        self._file(lp)

    def audit(self) -> None:
        """Check the bookkeeping the engine relies on; raises AssertionError.

        Stored occupancy equals the segment claims, without clashes; no
        transparent segment is longer than its mode's reach; each lightpath's
        segments are its route, end to end, and its stored ``length_km`` is
        the route's ``path_length_km``, bit for bit, summed hop by hop over the
        segments (grooming edges and the groom chain's length bound read the
        stored length); stored residuals
        match carried flows; flow placements and lightpath carried
        entries match one for one; ``groomable`` holds each lightpath that can
        groom, under its residual and its route's start node and with its own
        edge, and nothing else.
        """
        unclaimed = dict(self.occupancy)
        unplaced: dict[int, list[tuple[str, int]]] = {}
        link_length = self.topology.link_length
        for lp_id, lp in self.lightpaths.items():
            route = lp.route
            route_km, end = 0.0, 0  # summed hop by hop, as path_length_km sums
            for seg in lp.segments:
                start, end = end, end + len(seg.nodes) - 1
                if seg.nodes != route[start:end + 1]:
                    raise AssertionError(f"lightpath {lp_id}: segment {'-'.join(seg.nodes)} "
                                         f"is not the next part of route {'-'.join(route)}")
                km = 0.0
                bit = 1 << seg.channel
                for fiber in pairwise(seg.nodes):
                    hop = link_length(*fiber)
                    km += hop
                    route_km += hop
                    if not unclaimed.get(fiber, 0) & bit:
                        clash = self.occupancy.get(fiber, 0) & bit
                        raise AssertionError(f"{'channel clash' if clash else 'unstored claim'}"
                                             f" on fiber {fiber} channel {seg.channel}")
                    unclaimed[fiber] ^= bit
                if km > lp.mode.reach_km:
                    raise AssertionError(f"lightpath {lp_id}: segment {'-'.join(seg.nodes)} "
                                         f"spans {km} km, beyond {lp.mode}'s reach")
            if end != len(route) - 1:
                raise AssertionError(f"lightpath {lp_id}: segments end short of route "
                                     f"{'-'.join(route)}")
            if lp.length_km != route_km:
                raise AssertionError(f"lightpath {lp_id}: stored length {lp.length_km!r} km, "
                                     f"route {'-'.join(route)} spans {route_km!r} km")
            used = 0
            for _, rate in lp.carried:
                used += rate
            if lp.residual != lp.mode.rate_gbps - used or lp.residual < 0:
                raise AssertionError(f"lightpath {lp_id}: residual {lp.residual}, {used}G carried")
            if self._grooms(lp) and lp_id not in self.groomable.get(lp.residual, {}).get(
                    lp.route[0], ()):
                raise AssertionError(f"lightpath {lp_id}: can groom but is not indexed")
            unplaced[lp_id] = list(lp.carried)
        if any(unclaimed.values()):
            raise AssertionError("stored occupancy diverges from lightpath claims")
        for residual, by_start in self.groomable.items():
            for start, bucket in by_start.items():
                for lp_id, edge in bucket.items():
                    lp = self.lightpaths.get(lp_id)
                    if lp is None or lp.residual != residual or not self._grooms(lp):
                        raise AssertionError(
                            f"lightpath {lp_id}: stale grooming entry at residual {residual}")
                    if start != lp.route[0]:
                        raise AssertionError(f"lightpath {lp_id}: grooming entry under "
                                             f"{start!r}, not its start {lp.route[0]!r}")
                    if edge != (GROOMING_WEIGHT_FACTOR * lp.length_km, _GROOM, lp_id, (),
                                *lp.endpoints):
                        raise AssertionError(f"lightpath {lp_id}: grooming edge {edge}")
        for flows in self.records.values():
            for flow in flows:
                for lp_id, rate in flow.placements:
                    try:
                        unplaced[lp_id].remove((flow.flow_id, rate))
                    except (KeyError, ValueError):
                        raise AssertionError(
                            f"{flow.flow_id} placed {rate}G on {lp_id}, not carried"
                        ) from None
        for lp_id, entries in unplaced.items():
            if entries:
                raise AssertionError(f"lightpath {lp_id} carries unplaced {entries}")

    def to_dict(self) -> dict:
        return {
            "topology": self.topology.name,
            "arch": self.arch.name,
            "lightpaths": [
                {
                    "id": lp.id,
                    "route": list(lp.route),
                    "mode": list(lp.mode.key),
                    "segments": [
                        {"nodes": list(s.nodes), "channel": s.channel} for s in lp.segments
                    ],
                    "b2b_regen_nodes": list(lp.b2b_regen_nodes),
                    "carried": [list(c) for c in sorted(lp.carried)],
                }
                for lp in sorted(self.lightpaths.values(), key=lambda l: l.id)
            ],
            "blocked": [
                {"src": d.src, "dst": d.dst, "rate_gbps": d.rate_gbps, "reason": r}
                for d, r in self.blocked
            ],
        }


# -- auxiliary graph ---------------------------------------------------------

_GROOM = 0
_NEW = 1
_HOP_KEY = "hop"  # OpIP's graph in topology._aux_memo; bypass keys are tuples


class AuxEdge(NamedTuple):
    """An auxiliary-graph edge. Tuple order is the alternatives' order:
    ``lp_id`` is unique among grooming edges and ``subpath`` among candidate
    edges, so a comparison never reaches ``u`` and ``v``."""

    weight: float
    kind: int                 # _GROOM | _NEW
    lp_id: int                # grooming edges; -1 on candidate edges
    subpath: tuple[str, ...]  # candidate edges; () on grooming edges
    u: str
    v: str


def _hop_graph(state: NetworkState):
    """(edges, adjacency) of OpIP's new-lightpath edges, one per directed
    fiber, memoized once per topology; callers must not change them."""
    topo = state.topology
    graph = topo._aux_memo.get(_HOP_KEY)
    if graph is None:
        edges = {(u, v): (AuxEdge(topo.link_length(u, v) + OPAQUE_HOP_WEIGHT, _NEW, -1,
                                  (u, v), u, v),)
                 for u, v in topo.directed_fibers()}
        graph = topo._aux_memo[_HOP_KEY] = edges, _adjacency(edges)
    return graph


def _candidate_graph(paths, lengths, whole: bool, penalty: float, limit: float, intern: dict):
    """(edges, adjacency) of a bypass flow's new-lightpath graph: edges is
    {(u, v): alternatives best-first}, one edge per subpath of the k shortest
    ``paths`` (per path under TrZR, ``whole``) whose longest hop is within
    ``limit``, weighing its length (``lengths`` holds each path's hops) plus
    ``penalty``. Edges, keys and alternative tuples are interned in
    ``intern`` (the topology's ``_aux_intern``), so graphs that share a
    subpath share its objects."""
    intern = intern.setdefault
    seen = set()
    alts: dict[tuple[str, str], list[AuxEdge]] = {}
    for p, hops in zip(paths, lengths):
        for i in range(1 if whole else len(hops)):
            # p[i:j + 2]'s length and longest hop as j grows, summed left to
            # right like path_length_km (sum() rounds otherwise from 3.12 on)
            km = hop = 0.0
            for j in range(i, len(hops)):
                km += hops[j]
                hop = max(hop, hops[j])
                if hop > limit:
                    break
                sub = p[i:j + 2]
                if sub in seen or whole and len(sub) < len(p):
                    continue
                seen.add(sub)
                edge = AuxEdge(km + penalty, _NEW, -1, sub, sub[0], sub[-1])
                alts.setdefault((sub[0], sub[-1]), []).append(intern(edge, edge))
    edges = {}
    for key, found in alts.items():
        found = tuple(sorted(found))
        edges[intern(key, key)] = intern(found, found)
    return edges, _adjacency(edges)


def _lazy_routes(adj, first, strict: bool, k: int, whole: bool, penalty: float,
                 limit: float, intern: dict):
    """The :func:`_routes` over the :func:`_candidate_graph` of the k shortest
    paths over ``adj`` from ``first``, the shortest one, with the graph built
    only when a flow asks for a second route. The first route is the best
    whole-path edge within ``limit`` wherever the search is known to take it
    (see below). Where ``first`` is ``strict``ly shortest and within
    ``limit``, that edge is its own, and Yen's k paths wait for a second
    route too; otherwise Yen runs at once. The search replayed for the
    second route must agree with the first, or AssertionError is raised.
    Only plain data is held, no topology or state, which would make a cycle
    through the topology's ``_aux_memo`` that reference counting cannot
    free."""
    # Why the best whole-path edge W is the first route. Under TrZR every
    # edge runs src -> dst, so the search takes the pair's best alternative,
    # W. Otherwise any other route has m >= 2 edges and weighs its walk's
    # length plus m penalties. The walk holds a simple src -> dst path q no
    # longer than it, with every hop within the limit, as each lies on an
    # edge of the graph. Were q shorter than W's path, it would rank before
    # W's path among the k shortest paths, so it would be one of them and
    # give a whole-path edge lighter than W. So the route weighs at least W
    # plus a penalty, reach-limited graph or not. The float sums round by a
    # few ulps per hop, so a penalty above 1e-9 of W's weight keeps the gap;
    # with a zero penalty (every cost_units 0) a split of W's path ties W and
    # wins on node order.
    #
    # Why W is the first path P1's own edge when P1 is strict, that is when
    # no node of P1[1:] is in topology.tied_nodes. Let Q != P1 be a simple
    # src -> dst path, v the first node of Q's and P1's longest common
    # suffix (not src, as both paths are simple and differ) and u != parent(v)
    # its predecessor on Q. As v is not tied, d(u) + w(u, v) > d(v) + tol, so
    # len(Q) >= d(u) + w(u, v) + len(P1 from v) > len(P1) + tol. tol is far
    # above the rounding of any left-to-right sum over the topology (at most
    # about n * 2**-53 times the sum of the link lengths), so P1 outweighs
    # none of Yen's other paths, whether they are compared by Yen's totals or
    # by left-to-right km, and its edge is the lightest whole-path edge.
    src, dst = first[0], first[-1]
    # Yen's paths wait for a second route wherever the first is known without them
    paths = None if strict and max(_hop_lengths(adj, first)) <= limit else _yen(adj, first, k)
    best = None
    for p in paths or (first,):
        hops = _hop_lengths(adj, p)
        if max(hops) <= limit:
            km = 0.0
            for hop in hops:
                km += hop  # as _candidate_graph sums
            edge = AuxEdge(km + penalty, _NEW, -1, p, src, dst)
            if best is None or edge < best:
                best = edge
    route = None
    if best is not None and (whole or penalty > 1e-9 * best.weight):
        route = [intern.setdefault(best, best)]
        yield route
    if paths is None:
        paths = _yen(adj, first, k)
    lengths = [_hop_lengths(adj, p) for p in paths]
    # the graph is not bound here, so a retry's copy (see _routes) is the one kept
    routes = _routes(*_candidate_graph(paths, lengths, whole, penalty, limit, intern), src, dst)
    if route is not None and next(routes, None) != route:
        raise AssertionError(f"{src}->{dst}: the search's first route is not {route}")
    yield from routes


def _hop_lengths(adj, path) -> list[float]:
    return [adj[u][v] for u, v in pairwise(path)]


def _routes(edges, adj, src, dst):
    """Up to ``MAX_RETRIES`` routes from ``src`` to ``dst`` over ``edges``
    (searched through ``adj``, each pair's best weight), best first: the
    routes a flow tries in turn. After each route its first edge's node pair
    falls back to its next alternative, or leaves the graph, which is copied
    before its first change. No state is read, so the routes depend only on
    the graph."""
    for attempt in range(MAX_RETRIES):
        if attempt:
            if attempt == 1:
                edges, adj = dict(edges), {u: dict(nbrs) for u, nbrs in adj.items()}
            # the search reads the adjacency, so a pair with no alternative
            # left leaves it there only
            u, v = key = route[0].u, route[0].v
            rest = edges[key] = edges[key][1:]
            if rest:
                adj[u][v] = rest[0].weight
            else:
                del adj[u][v]
        route = _aux_shortest_path(edges, src, dst, adj)
        if route is None:
            return
        yield route


def _reach_limit(state: NetworkState, rate: int) -> float:
    """Longest hop a new lightpath may span for a ``rate`` flow, computed
    once per state and rate: the largest reach of a mode whose rate is at
    least the floor, or infinity where that spans the topology's longest
    link. Under intermediate grooming (subpath edges, one channel each) the
    floor is the rate capped at the catalog's top rate; under TrZR
    (end-to-end edges, split over channels) it is 0, so every mode counts."""
    limit = state._reach_limits.get(rate)
    if limit is None:
        catalog = state.catalog
        floor = (min(rate, max(m.rate_gbps for m in catalog))
                 if state.arch.intermediate_ip_grooming else 0)
        limit = max(m.reach_km for m in catalog if m.rate_gbps >= floor)
        if limit >= max(link.length_km for link in state.topology.links):
            limit = math.inf  # no hop is beyond it
        state._reach_limits[rate] = limit
    return limit


def _candidate_routes(state: NetworkState, flow: FlowRecord):
    """A copy of the memoized :func:`_lazy_routes` over a bypass flow's
    candidate graph, which depends only on the topology, the edge shape
    (``intermediate_ip_grooming``), (src, dst), ``k``, the penalty and the
    flow's :func:`_reach_limit`; a finite limit extends the memo key. Each
    ``topology._aux_memo`` entry keeps the routes found so far in a tee that
    is never advanced. A miss reads the pair's shortest path and whether it
    is strictly shortest off the source's tree (``topology.tied_nodes``).
    """
    src, dst = flow.src, flow.dst
    topo = state.topology
    limit = _reach_limit(state, flow.rate_gbps)
    key = (state.arch.intermediate_ip_grooming, src, dst, state.cfg.k, state._new_lp_penalty)
    if limit < math.inf:
        key += (limit,)
    routes = topo._aux_memo.get(key)
    if routes is None:
        (first,) = k_shortest_paths(topo, src, dst, 1)
        strict = tied_nodes(topo, src).isdisjoint(first[1:])
        routes = _lazy_routes(topo._adj, first, strict, state.cfg.k,
                              not state.arch.intermediate_ip_grooming,
                              state._new_lp_penalty, limit, topo._aux_intern)
        routes = topo._aux_memo[key] = tee(routes, 1)[0]
    return copy.copy(routes)


def build_auxiliary_graph(state: NetworkState,
                          flow: FlowRecord) -> dict[tuple[str, str], list[AuxEdge]]:
    """The grooming edges ``flow`` may ride, keyed by (u, v) in fresh lists,
    best first: the stored edges of ``state.groomable``'s buckets with
    residual >= the flow's rate, every start node's (none under TrZR, which
    keeps no index). Only OpIP's flows read it, to lay the edges over the hop
    graph; :func:`_try_groom_chain` reads the same buckets node by node."""
    edges: dict[tuple[str, str], list[AuxEdge]] = {}
    for residual, by_start in state.groomable.items():  # order is free: alternatives sort
        if residual < flow.rate_gbps:
            continue
        for u, bucket in by_start.items():
            for edge in bucket.values():
                edges.setdefault((u, edge.v), []).append(edge)
    for alts in edges.values():
        alts.sort()
    return edges


def _adjacency(edges) -> dict[str, dict[str, float]]:
    adj: dict[str, dict[str, float]] = {}
    for (u, v), alts in edges.items():
        adj.setdefault(u, {})[v] = alts[0].weight
    return adj


def _aux_shortest_path(edges, src, dst, adj):
    """Best edge per node pair along the lexicographic shortest path over
    ``adj`` (the best weight of each pair of ``edges`` to search), or None."""
    found = lexicographic_dijkstra(adj, src, dst)
    return None if found is None else [edges[key][0] for key in pairwise(found[1])]


# -- transport realization ---------------------------------------------------

def assign_spectrum_first_fit(state: NetworkState, segment_nodes) -> int:
    """Lowest channel free on every directed fiber of the segment: the lowest
    zero bit of their OR-ed masks, which are no wider than the channels in use."""
    busy = 0
    for fiber in pairwise(segment_nodes):
        busy |= state.occupancy[fiber]
    ch = (~busy & (busy + 1)).bit_length() - 1
    if ch >= state.topology.grid.channel_count:
        raise NoSpectrum(f"no free channel along {'-'.join(segment_nodes)}")
    return ch


def _create_lightpath(state: NetworkState, route, mode, b2b_nodes, length_km,
                      segment_nodes) -> Lightpath:
    """Opens one lightpath of a candidate edge's plan: picks first-fit
    spectrum per transparent segment and registers the LP with the plan's
    stored length; :meth:`NetworkState.add` claims the channels.

    Channels are picked for every segment before any is claimed (a simple
    route's segments share no fiber), so NoSpectrum leaves no state behind.
    """
    segments = [Segment(nodes, assign_spectrum_first_fit(state, nodes)) for nodes in segment_nodes]
    lp = Lightpath(state.new_lp_id(), route, mode, segments, b2b_nodes, length_km=length_km)
    state.add(lp)
    return lp


def _ip_regenerated_plan(topo: Topology, subpath, rate: int, catalog) -> tuple:
    """One lightpath over ``subpath``, or one per router-terminated segment
    where it needs IP regeneration, each segment on its own mode; raises
    NoFeasibleMode. Pure: it reads only the topology's lengths."""
    lengths = topo.path_link_lengths(subpath)
    mode, boundaries = select_mode_min_regens(lengths, rate, catalog)
    plan = []
    for a, b in pairwise((0, *boundaries, len(subpath) - 1)):
        if boundaries:
            mode = select_mode_min_regens(lengths[a:b], rate, catalog)[0]
        route = subpath[a:b + 1]  # subpath itself when it is not cut
        plan.append((route, mode, (), rate, topo.path_length_km(route), (route,)))
    return tuple(plan)


def _realize_candidate_edge(state, edge, rate, flow_id, placements):
    """Open new lightpath(s) for ``rate`` over ``edge.subpath``, appending to
    ``placements``, from a plan that holds, per lightpath, everything but its
    spectrum: (route, mode, b2b regeneration nodes, amount carried,
    ``length_km``, the route's node tuples split at the b2b nodes).

    Under IP regeneration the plan (:func:`_ip_regenerated_plan`) depends only
    on the catalog, the subpath and the rate, so it is read from
    ``state._plans``, which the topology's ``_plan_memo`` shares by catalog. A
    subpath that no mode carries is stored as its NoFeasibleMode message,
    raised afresh on every read. TrZR plans its minimum-channel split on each
    call: only the split's combination search is memoized
    (:func:`select_modes_min_channels`). First-fit spectrum runs every time.
    """
    subpath = edge.subpath
    if state.arch.ip_regeneration:
        plan = state._plans.get((subpath, rate))
        if plan is None:
            try:
                plan = _ip_regenerated_plan(state.topology, subpath, rate, state.catalog)
            except NoFeasibleMode as exc:
                plan = str(exc)  # not the exception, which holds its traceback
            state._plans[subpath, rate] = plan
        if isinstance(plan, str):
            raise NoFeasibleMode(plan)
    else:  # TrZR: parallel lightpaths over the whole subpath, b2b regenerated
        topo, last = state.topology, len(subpath) - 1
        lengths = topo.path_link_lengths(subpath)
        km, remaining, plan = topo.path_length_km(subpath), rate, []
        for m in select_modes_min_channels(lengths, rate, state.catalog):
            amount = min(remaining, m.rate_gbps)
            remaining -= amount
            cuts = plan_regeneration(lengths, m)
            segments = tuple(subpath[a:b + 1] for a, b in pairwise((0, *cuts, last)))
            plan.append((subpath, m, tuple(subpath[i] for i in cuts), amount, km, segments))
    for route, mode, b2b_nodes, amount, km, segments in plan:
        lp = _create_lightpath(state, route, mode, b2b_nodes, km, segments)
        state.carry(lp, flow_id, amount)
        placements.append((lp.id, amount))


def _release(state: NetworkState, flow_id: str, placements) -> None:
    """Return ``flow_id``'s capacity on each placement and tear down the
    lightpaths left carrying nothing, freeing their spectrum."""
    for lp_id, rate in placements:
        lp = state.lightpaths[lp_id]
        state.release(lp, flow_id, rate)
        if not lp.carried:
            state.remove(lp)


def _place_chain(state: NetworkState, flow: FlowRecord, chain) -> None:
    """Carry ``flow`` over every edge of ``chain``, all or nothing.

    Raises NoSpectrum or NoFeasibleMode with the state unchanged; on success
    sets the flow's placements.
    """
    placements: list[tuple[int, int]] = []
    try:
        for e in chain:
            if e.kind == _GROOM:
                lp = state.lightpaths[e.lp_id]
                if lp.residual < flow.rate_gbps:
                    raise NoSpectrum("stale grooming edge")
                state.carry(lp, flow.flow_id, flow.rate_gbps)
                placements.append((lp.id, flow.rate_gbps))
            else:
                _realize_candidate_edge(state, e, flow.rate_gbps, flow.flow_id, placements)
    except (NoSpectrum, NoFeasibleMode):
        _release(state, flow.flow_id, placements)
        raise
    flow.placements = placements


def _try_groom_chain(state: NetworkState, flow: FlowRecord) -> bool:
    """Ride existing lightpaths end to end if a short, detour-free chain exists.

    Bypass architectures with IP grooming reuse residual capacity along the
    lexicographic shortest chain P* of the grooming edges the flow may ride
    (those :func:`build_auxiliary_graph` returns), if P* has at most
    ``GROOM_CHAIN_HOPS`` lightpaths and is not longer than the shortest
    physical route S; otherwise the flow opens a fresh transparent path
    instead, because half-groomed detours fragment capacity into short,
    poorly reusable lightpaths.

    The search reads ``state.groomable`` lazily: a node's out-edges are read
    when it settles, from the buckets with residual >= the flow's rate, the
    best edge per (u, v) as :class:`AuxEdge` order ranks it; a push heavier
    than ``C = GROOMING_WEIGHT_FACTOR * S * (1 + 1e-9)`` is dropped.
    """
    # Dropping pushes above C is exact. Unpruned, the search pops entries in
    # (dist, path) order, and every entry popped before P* has a key <= P*'s;
    # the pruned heap holds the same entries less those heavier than C. So if
    # w(P*) <= C the pruned search pops the same entries and returns P*. If
    # it reaches no destination, every chain weighs more than C, so its km
    # (its weight over GROOMING_WEIGHT_FACTOR, up to rounding far below 1e-9)
    # exceed S and the length bound would have rejected P*. The 1e-9 keeps
    # a chain of exactly S km, whose summed weights can round above
    # GROOMING_WEIGHT_FACTOR * S (0.052 > 0.01 * 5.2). Hop count is not
    # pruned: a 3-hop P* lighter than a 2-hop chain rejects the flow, where a
    # search stopped at 2 hops would place the 2-hop chain.
    #
    # Candidate edges need no comparison: a grooming edge of length L that
    # sorts after its pair's best candidate c has GROOMING_WEIGHT_FACTOR * L
    # > c >= S(u, v), the pair's shortest route, so (factor <= 1) any chain
    # through it is longer than its pairs' sum of S >= S(src, dst) and fails
    # the length bound. A result avoiding such edges is also the
    # lexicographic shortest path without them; one using them weighs at most
    # any chain without them, which then fails the bound too.
    src, dst, rate = flow.src, flow.dst, flow.rate_gbps
    buckets = [by_start for residual, by_start in state.groomable.items() if residual >= rate]
    if not any(by_start.get(src) for by_start in buckets):
        return False
    shortest = state.shortest_km(src, dst)
    bound = GROOMING_WEIGHT_FACTOR * shortest * (1 + 1e-9)
    picked: dict[tuple[str, str], AuxEdge] = {}  # the edge each push took
    heap = [(0.0, (src,))]
    done = set()
    while heap:
        dist, path = heappop(heap)
        node = path[-1]
        if node in done:
            continue
        if node == dst:
            break
        done.add(node)
        best: dict[str, AuxEdge] = {}
        for by_start in buckets:
            for edge in by_start.get(node, {}).values():
                v = edge.v
                if v not in done and (v not in best or edge < best[v]):
                    best[v] = edge
        for v, edge in best.items():
            weight = dist + edge.weight
            if weight <= bound:
                picked[node, v] = edge
                heappush(heap, (weight, path + (v,)))
    else:
        return False
    if len(path) - 1 > GROOM_CHAIN_HOPS:
        return False
    chain = [picked[key] for key in pairwise(path)]
    if sum(state.lightpaths[e.lp_id].length_km for e in chain) > shortest:
        return False
    # every edge grooms a lightpath whose residual was checked when its
    # bucket was read, so placing the chain cannot fail
    _place_chain(state, flow, chain)
    return True


def _route_flow(state: NetworkState, flow: FlowRecord) -> None:
    """Place ``flow`` over the best route of its architecture's graph, trying
    the next best after each route that fails to place (see :func:`_routes`).

    TrIP and TrIPandZR first try a groom chain (:func:`_try_groom_chain`); then
    every bypass flow, TrZR's too, takes the memoized routes over its
    candidate edges alone (:func:`_candidate_routes`). OpIP lays its grooming
    pairs (:func:`build_auxiliary_graph`) over the :func:`_hop_graph`, each
    pair's hop edge after its grooming edges, and copies only the memoized
    adjacency rows those pairs change (:func:`_routes` copies every row before
    it drops an edge). A flow with no route blocks as "no_feasible_mode", one
    whose every route failed to place as "no_spectrum".
    """
    arch = state.arch
    if arch.optical_bypass:
        if arch.intermediate_ip_grooming and _try_groom_chain(state, flow):
            return
        routes = _candidate_routes(state, flow)
    else:
        edges, adj = _hop_graph(state)
        edges, ours = dict(edges), dict(adj)
        for key, alts in build_auxiliary_graph(state, flow).items():
            # OpIP's lightpaths span one fiber, so the pair's hop edge, at
            # its length plus OPAQUE_HOP_WEIGHT, sorts after its grooming
            # edges, at GROOMING_WEIGHT_FACTOR times that length
            alts.extend(edges.get(key, ()))
            edges[key] = alts
            u, v = key
            row = ours[u]
            if row is adj[u]:  # still the memoized row: copy it before writing
                row = ours[u] = dict(row)
            row[v] = alts[0].weight
        routes = _routes(edges, ours, flow.src, flow.dst)
    failed = False
    for route in routes:
        try:
            _place_chain(state, flow, route)
            return
        except (NoSpectrum, NoFeasibleMode):
            failed = True
    raise BlockedError(flow, "no_spectrum" if failed else "no_feasible_mode")


def _subflow_rates(demand: Demand, state: NetworkState) -> list[int]:
    """Inverse-multiplexing split for demands above one channel's capacity.

    Greedy fill with the highest rate of a mode whose reach spans the
    shortest physical path (the catalog's top rate when none does), the
    rate :func:`select_mode_min_regens` picks over that one span, so
    sub-flows ride single lightpaths where the reach allows it.
    """
    if not state.arch.ip_regeneration:
        return [demand.rate_gbps]  # min-channel split handled at realization
    dist, catalog = state.shortest_km(demand.src, demand.dst), state.catalog
    unit = max((m.rate_gbps for m in catalog if m.reach_km >= dist),
               default=max(m.rate_gbps for m in catalog))
    rates = []
    remaining = demand.rate_gbps
    while remaining > 0:
        part = min(remaining, unit)
        rates.append(part)
        remaining -= part
    return rates


def route_demand(
    state: NetworkState,
    demand: Demand,
    deferred: list[tuple[Demand, "FlowRecord"]] | None = None,
) -> list[FlowRecord]:
    """Provision one demand atomically; raises BlockedError with state unchanged.

    Each sub-flow's placements are the only undo record: a sub-flow that
    blocks leaves nothing behind, and the sub-flows placed before it are
    released through :func:`_release`, which tears down the lightpaths they
    leave empty.

    When ``deferred`` is given and the architecture grooms at intermediate
    routers, sub-flows below ``GROOM_MIN_RATE`` are parked there (with empty
    placements) instead of being routed now. Routing them after the whole
    high-rate mesh exists lets them ride residual capacity instead of opening
    dedicated lightpaths; see :func:`provision_all`.
    """
    if demand.key in state.records:
        raise ValueError(f"demand {demand.key} already provisioned")
    defer_small = deferred is not None and state.arch.intermediate_ip_grooming
    flows = []
    try:
        for i, rate in enumerate(_subflow_rates(demand, state)):
            flow = FlowRecord(f"{demand.src}->{demand.dst}#{i}", demand.src, demand.dst, rate)
            flows.append(flow)
            if defer_small and rate < GROOM_MIN_RATE:
                deferred.append((demand, flow))
                continue
            _route_flow(state, flow)
    except BlockedError:
        for flow in flows:
            _release(state, flow.flow_id, flow.placements)
        raise
    state.records[demand.key] = flows
    return flows


def merge_pure_ip_regens(state: NetworkState) -> int:
    """Convert pure-regeneration router terminations into back-to-back pairs.

    Two lightpaths L1: X->B and L2: B->Y with identical carried sets and the
    same mode pass traffic straight through the router at B; replace them by
    one lightpath X->..->Y with a b2b regen at B. One pass in id order; each
    merged lightpath joins the end of the pass, so merges chain until no pair
    is left. Returns the number of merges performed.
    """
    queue = sorted(state.lightpaths.values(), key=lambda l: l.id)
    # a pair shares its meeting node, mode and carried flows; carried sets do
    # not change during the pass, so each lightpath is filed under them once
    by_start: dict[tuple, list[Lightpath]] = {}

    def file(lp: Lightpath) -> None:
        key = (lp.route[0], lp.mode.key, tuple(sorted(lp.carried)))
        by_start.setdefault(key, []).append(lp)

    for lp in queue:
        file(lp)
    merges = 0
    for l1 in queue:
        if l1.id not in state.lightpaths or not l1.carried:
            continue
        b = l1.route[-1]
        for l2 in by_start.get((b, l1.mode.key, tuple(sorted(l1.carried))), ()):
            if l2.id not in state.lightpaths:
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
            file(merged)
            merges += 1
            break
    return merges


def _remap_records(state: NetworkState, id_map: dict[int, int]) -> None:
    for flows in state.records.values():
        for flow in flows:
            out: list[tuple[int, int]] = []
            for lp_id, rate in flow.placements:
                lp_id = id_map.get(lp_id, lp_id)
                if out and out[-1] == (lp_id, rate):
                    continue
                out.append((lp_id, rate))
            flow.placements = out


def provision_all(
    topo: Topology,
    matrix: TrafficMatrix,
    arch: str,
    cfg: PlannerConfig = PlannerConfig(),
    catalog=DEFAULT_CATALOG,
) -> NetworkState:
    """Provision the full matrix; blocking is recorded, never fatal."""
    state = NetworkState(topo, arch, cfg, catalog)
    # Stage 1: high-rate flows build the lightpath mesh; grooming-capable
    # architectures park flows below GROOM_MIN_RATE for stage 2.
    deferred: list[tuple[Demand, FlowRecord]] = []
    for demand in sorted(matrix.demands, key=lambda d: (-d.rate_gbps, d.src, d.dst)):
        try:
            route_demand(state, demand, deferred)
        except BlockedError as exc:
            state.blocked.append((demand, exc.reason))
    # Stage 2: shortest parked flows first, so longer ones can chain over the
    # short lightpaths these create in addition to the stage-1 mesh.
    def _deferred_km(item: tuple[Demand, FlowRecord]) -> float:
        return state.shortest_km(item[1].src, item[1].dst)

    for demand, flow in sorted(deferred, key=_deferred_km):
        if demand.key not in state.records:
            continue  # a sibling sub-flow already blocked this demand
        try:
            _route_flow(state, flow)
        except BlockedError as exc:
            # siblings committed in stage 1 come back out with the demand
            for sibling in state.records.pop(demand.key):
                _release(state, sibling.flow_id, sibling.placements)
            state.blocked.append((demand, exc.reason))
    # Routers that both regenerate and may use b2b pairs (TrIPandZR) route
    # exactly like TrIP and convert pure regens afterwards, which keeps the
    # module tally identical to TrIP by construction.
    if state.arch.ip_regeneration and state.arch.b2b_zr_regeneration:
        merge_pure_ip_regens(state)
    state.audit()
    return state
