"""Physical network topologies: nodes, bidirectional fiber links, channel grid.

A topology file is a JSON document::

    {
      "name": "j14",
      "nodes": ["tokyo", "osaka", ...],
      "links": [{"a": "tokyo", "b": "osaka", "length_km": 400.0}, ...],
      "grid": {"channel_count": 50, "spacing_ghz": 100}
    }

Links are undirected in the file; the provisioning engine treats each as a
pair of directed fibers with independent spectrum occupancy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from importlib import resources
from pathlib import Path

BUILTIN_TOPOLOGIES = ("j14", "g17")
# The largest channel, slot or capacity count an input may give: node tallies
# over such counts stay far below 1.8e308, where an int meeting a float (as
# power sums them) raises OverflowError
MAX_COUNT = 2**53


class TopologyError(ValueError):
    """Raised for schema violations or invariant failures, naming the offender."""


@dataclass(frozen=True)
class ChannelGrid:
    channel_count: int = 50
    spacing_ghz: int = 100

    def __post_init__(self):
        for name in ("channel_count", "spacing_ghz"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TopologyError(f"{name} must be an integer, got {value!r}")
        if self.channel_count < 1:
            raise TopologyError(f"channel_count must be >= 1, got {self.channel_count}")
        if self.channel_count > MAX_COUNT:
            raise TopologyError(f"channel_count must be <= 2**53, got {self.channel_count}")
        if self.spacing_ghz <= 0:
            raise TopologyError(f"spacing_ghz must be positive, got {self.spacing_ghz}")


@dataclass(frozen=True)
class Link:
    """Undirected fiber link; endpoints stored in sorted order."""

    a: str
    b: str
    length_km: float

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"self-loop on node {self.a!r}")
        if not math.isfinite(self.length_km):
            raise TopologyError(
                f"non-finite length on link ({self.a!r},{self.b!r}): {self.length_km}"
            )
        if self.length_km <= 0:
            raise TopologyError(
                f"non-positive length on link ({self.a!r},{self.b!r}): {self.length_km}"
            )
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Topology:
    """Validated, immutable physical topology. Safe to share across runs.

    Three memos live on the instance, and every run planned on it shares
    them. ``_spt_memo`` holds one entry per source: its shortest-path tree and
    its tied nodes (see :func:`tied_nodes`), from which
    ``k_shortest_paths`` reads each first path. ``_aux_memo`` holds the
    planner's new-lightpath routes: OpIP's hop-by-hop graph and its
    adjacency, and per bypass pair the routes found so far, retries included
    (see ``rmsa._candidate_routes``). ``_plan_memo`` maps a catalog (as a
    tuple) to the realization plans of IP-regenerated candidate edges, per
    (subpath, rate) (see ``rmsa._realize_candidate_edge``). No entry refers
    back to the topology, so reference counting alone frees them with it.
    """

    name: str
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    grid: ChannelGrid = ChannelGrid()
    _adj: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spt_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _aux_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _plan_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(sorted(self.nodes))
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise TopologyError("field 'nodes' is empty")
        if len(set(nodes)) != len(nodes):
            raise TopologyError("duplicate node identifiers")
        seen = set()
        adj: dict[str, dict[str, float]] = {n: {} for n in nodes}
        for link in self.links:
            for end in (link.a, link.b):
                if end not in adj:
                    raise TopologyError(f"link endpoint {end!r} not in node list")
            if link.key in seen:
                raise TopologyError(f"duplicate link ({link.a!r},{link.b!r})")
            seen.add(link.key)
            adj[link.a][link.b] = link.length_km
            adj[link.b][link.a] = link.length_km
        for n in nodes:
            if not adj[n]:
                raise TopologyError(f"node {n!r} has degree 0")
        # connectivity
        reached = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in reached:
                    reached.add(nbr)
                    stack.append(nbr)
        if len(reached) != len(nodes):
            missing = sorted(set(nodes) - reached)
            raise TopologyError(f"graph is disconnected; unreachable: {missing}")
        object.__setattr__(self, "_adj", adj)

    def neighbors(self, node: str) -> dict[str, float]:
        return self._adj[node]

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def link_length(self, u: str, v: str) -> float:
        try:
            return self._adj[u][v]
        except KeyError:
            raise TopologyError(f"nodes {u!r} and {v!r} are not adjacent") from None

    def directed_fibers(self) -> list[tuple[str, str]]:
        out = []
        for link in self.links:
            out.append((link.a, link.b))
            out.append((link.b, link.a))
        return sorted(out)

    def path_length_km(self, path: list[str] | tuple[str, ...]) -> float:
        """Sum of link lengths along a node sequence; single-node path is 0."""
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += self.link_length(u, v)
        return total

    def path_link_lengths(self, path) -> list[float]:
        return [self.link_length(u, v) for u, v in zip(path, path[1:])]

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "nodes": list(self.nodes),
            "links": [
                {"a": l.a, "b": l.b, "length_km": l.length_km}
                for l in sorted(self.links, key=lambda l: l.key)
            ],
            "grid": {
                "channel_count": self.grid.channel_count,
                "spacing_ghz": self.grid.spacing_ghz,
            },
        }
        return d

    def to_json(self) -> str:
        return json_text(self.to_dict())


def read_json(source: str | Path, error: type[ValueError], what: str, builtins=()):
    """The JSON document in the file ``source``, or in the shipped
    ``data/<source>.json`` if ``source`` is one of ``builtins`` (any case),
    read as UTF-8 whatever the locale (RFC 8259). A file that is not UTF-8
    JSON raises ``error("<what> <source>: invalid JSON: ...")``; an
    ``OSError`` such as a missing file passes through, naming the path."""
    name = str(source)
    if name.lower() in (b.lower() for b in builtins):
        file = resources.files("ipowdm.data").joinpath(f"{name.lower()}.json")
    else:
        file = Path(source)
    try:
        return json.loads(file.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} {name}: invalid JSON: {exc}") from exc


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, that is finite as a
    float: NaN, the infinities and an int too large for a float (which JSON
    allows and ``float()`` refuses with OverflowError) are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def json_text(doc) -> str:
    """The text every JSON report is written as: keys sorted, two-space
    indent, one closing newline, so equal documents give equal bytes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_topology(doc: dict) -> Topology:
    """Validate a decoded topology document (see :func:`read_json`)."""
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be a JSON object")
    for key in ("name", "nodes", "links"):
        if key not in doc:
            raise TopologyError(f"missing required field {key!r}")
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise TopologyError("field 'grid' must be a JSON object")
    grid = ChannelGrid(
        channel_count=grid_doc.get("channel_count", 50),
        spacing_ghz=grid_doc.get("spacing_ghz", 100),
    )
    if not isinstance(doc["name"], str):
        raise TopologyError(f"field 'name' must be a string, got {doc['name']!r}")
    for key in ("nodes", "links"):
        if not isinstance(doc[key], list):
            raise TopologyError(f"field {key!r} must be a JSON array")
    for i, node in enumerate(doc["nodes"]):
        if not isinstance(node, str):
            raise TopologyError(f"node #{i} must be a string, got {node!r}")
    return Topology(
        name=doc["name"],
        nodes=tuple(doc["nodes"]),
        links=tuple(_parse_link(i, entry) for i, entry in enumerate(doc["links"])),
        grid=grid,
    )


def _parse_link(i: int, entry) -> Link:
    """Link #``i`` of a topology document; a bad field is named with the index."""
    if not isinstance(entry, dict):
        raise TopologyError(f"link #{i} must be a JSON object")
    for key in ("a", "b", "length_km"):
        if key not in entry:
            raise TopologyError(f"link #{i} missing field {key!r}")
    for key in ("a", "b"):
        if not isinstance(entry[key], str):
            raise TopologyError(f"link #{i} field {key!r} must be a string, got {entry[key]!r}")
    length = entry["length_km"]
    if isinstance(length, bool) or not isinstance(length, (int, float)):
        raise TopologyError(f"link #{i} field 'length_km' must be a number, got {length!r}")
    if isinstance(length, int) and not is_finite_number(length):
        raise TopologyError(f"link #{i} field 'length_km' must be a finite number, got {length!r}")
    return Link(entry["a"], entry["b"], float(length))


def load_named_topology(name_or_path: str) -> Topology:
    """A builtin topology by name (any case), else from a UTF-8 JSON file."""
    return parse_topology(read_json(name_or_path, TopologyError, "topology", BUILTIN_TOPOLOGIES))


def lexicographic_dijkstra(adj, src, dst, settled=(), removed_edges=()):
    """Shortest ``src -> dst`` path over ``adj`` (node -> {neighbour: weight}).

    Returns ``(dist, node tuple)``, or None if ``dst`` is unreachable. Heap
    entries are ``(dist, path)`` and no path is pushed twice, so equal
    distances pop in lexicographic order of the node sequence whatever the
    neighbour order in ``adj``. Nodes in ``settled`` and directed edges in
    ``removed_edges`` are never used. Every node of a popped path is settled,
    so skipping settled nodes also keeps paths simple.

    With ``dst`` None the search runs without a target and returns the
    shortest-path tree of ``src``: {node: (dist, path)} for every node it
    reaches. A search pops the same entries in the same order until it
    reaches its target, so each node's entry is what a search stopped at
    that node returns, ``dist`` bit for bit.
    """
    heap = [(0.0, (src,))]
    done = set(settled)
    tree = {} if dst is None else None
    while heap:
        dist, path = entry = heappop(heap)
        node = path[-1]
        if node in done:
            continue
        if node == dst:
            return entry
        done.add(node)
        if tree is not None:
            tree[node] = entry
        for nbr, weight in adj.get(node, {}).items():
            if nbr not in done and (node, nbr) not in removed_edges:
                heappush(heap, (dist + weight, path + (nbr,)))
    return tree


def k_shortest_paths(topo: Topology, src: str, dst: str, k: int) -> tuple[tuple[str, ...], ...]:
    """Up to k loop-free paths, ascending (length, lexicographic), by Yen's
    algorithm with Lawler's deviation-index skip (see :func:`_yen`), as a
    tuple of node tuples.

    The first path is read off the source's shortest-path tree (a search
    without a target, memoized on ``topo`` per source), so ``k=1`` runs no
    spur search. Larger k run Yen's spur searches on every call. Every
    argument is checked on every call.
    """
    if k.__class__ is not int and (isinstance(k, bool) or not isinstance(k, int)):
        raise TopologyError(f"k must be an integer, got {k!r}")
    if src not in topo._adj or dst not in topo._adj:
        raise TopologyError(f"unknown node in pair ({src!r},{dst!r})")
    if src == dst:
        raise TopologyError("source and destination must differ")
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")
    first = (topo._spt_memo.get(src) or _source_entry(topo, src))[0][dst][1]
    return (first,) if k == 1 else _yen(topo._adj, first, k)


def _source_entry(topo: Topology, src: str) -> tuple[dict, frozenset[str]]:
    """``src``'s entry of ``topo._spt_memo``, made on a miss: its
    shortest-path tree, {node: (dist, path)}, and its :func:`tied_nodes`."""
    entry = topo._spt_memo.get(src)
    if entry is None:
        tree = lexicographic_dijkstra(topo._adj, src, None)
        tol = 1e-9 * sum(link.length_km for link in topo.links)
        tied = frozenset(v for v, nbrs in topo._adj.items()
                         if sum(tree[u][0] + w <= tree[v][0] + tol for u, w in nbrs.items()) > 1)
        entry = topo._spt_memo[src] = tree, tied
    return entry


def tied_nodes(topo: Topology, src: str) -> frozenset[str]:
    """The nodes v of ``src``'s shortest-path tree that two or more
    neighbours u reach within a tolerance of v's distance d(v):
    ``d(u) + w(u, v) <= d(v) + tol``, where ``tol`` is 1e-9 of the sum of
    the link lengths, far above the rounding of any float sum over the
    topology. The tree parent always counts, as d(v) is its sum. A path of
    the tree that passes no such node after ``src`` is shorter than every
    other simple path by more than ``tol`` (see ``rmsa._lazy_routes``).
    Memoized on ``topo`` with the tree."""
    return _source_entry(topo, src)[1]


def _yen(adj, first: tuple[str, ...], k: int) -> tuple[tuple[str, ...], ...]:
    """Yen's k shortest paths over ``adj`` (node -> {neighbour: length}) from
    the shortest one, ``first``, to its last node, each spurred only from the
    index where it left its parent (Lawler): a spur below that index repeats
    the search an earlier path with the same root made, so it adds no
    candidate. A total is the root's length summed left to right, as
    ``Topology.path_length_km`` sums, plus the spur's length, so it does not
    depend on the skip. Each spur search stops at the target, as plain Yen's
    does. Reads only ``adj``, so route generators that hold no topology can
    call it."""
    dst = first[-1]
    accepted = [(first, 0)]  # (path, deviation index)
    # (total, path, deviation index); paths are unique, so the index never decides
    candidates: list[tuple[float, tuple[str, ...], int]] = []
    seen = {first}
    while len(accepted) < k:
        prev_path, deviation = accepted[-1]
        root_len = 0.0
        for i in range(deviation):
            root_len += adj[prev_path[i]][prev_path[i + 1]]
        for i in range(deviation, len(prev_path) - 1):
            root = prev_path[: i + 1]
            removed_edges = {p[i:i + 2] for p, _ in accepted if p[: i + 1] == root}
            res = lexicographic_dijkstra(adj, root[-1], dst, root[:-1], removed_edges)
            if res is not None:
                spur_len, spur_path = res
                full = root[:-1] + spur_path
                if full not in seen:
                    seen.add(full)
                    heappush(candidates, (root_len + spur_len, full, i))
            root_len += adj[root[-1]][prev_path[i + 1]]
        if not candidates:
            break
        _, path, deviation = heappop(candidates)
        accepted.append((path, deviation))
    return tuple(p for p, _ in accepted)
