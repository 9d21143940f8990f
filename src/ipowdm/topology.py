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

    ``k_shortest_paths`` memoizes its results on the instance (``_ksp_memo``)
    together with one shortest-path tree per source (``_spt_memo``), and so
    does the planner's new-lightpath graph build (``_aux_memo``, whose edges,
    keys and alternative tuples are interned in ``_aux_intern``): one entry
    holds OpIP's hop-by-hop graph and its adjacency, and each bypass entry
    the longest hop of a candidate graph and the routes found over it so far,
    retries included. ``_plan_memo`` maps a catalog (as a tuple) to the
    realization plans of IP-regenerated candidate edges, per (subpath, rate):
    each lightpath's route, mode, length and segments, or the failure to find
    a mode (see ``rmsa._realize_candidate_edge``). Every run planned on the
    same object shares them; they are freed with it.
    """

    name: str
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    grid: ChannelGrid = ChannelGrid()
    _adj: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _ksp_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spt_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _aux_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _aux_intern: dict = field(default_factory=dict, init=False, repr=False, compare=False)
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


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


def parse_topology(source: str | dict) -> Topology:
    """Parse and validate a topology from a JSON string or an already-decoded dict."""
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
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
    return Link(entry["a"], entry["b"], float(length))


def load_topology(path: str | Path) -> Topology:
    """A topology from a UTF-8 JSON file; raises TopologyError."""
    return parse_topology(read_json(path, TopologyError, "topology"))


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


def k_shortest_paths(
    topo: Topology, src: str, dst: str, k: int
) -> tuple[tuple[str, ...], ...]:
    """Up to k loop-free paths, ascending (length, lexicographic), by Yen's
    algorithm with Lawler's deviation-index skip.

    The first path is read off the source's shortest-path tree (a search
    without a target, memoized on ``topo`` per source), so ``k=1`` runs no
    spur search. Results are memoized on ``topo`` per (src, dst, k) and
    returned as the memo's own immutable tuples; arguments are checked on a
    miss only, as bad ones never enter the memo.
    """
    key = (src, dst, k)
    paths = topo._ksp_memo.get(key)
    if paths is None:
        if src not in topo._adj or dst not in topo._adj:
            raise TopologyError(f"unknown node in pair ({src!r},{dst!r})")
        if src == dst:
            raise TopologyError("source and destination must differ")
        if k < 1:
            raise TopologyError(f"k must be >= 1, got {k}")
        paths = topo._ksp_memo[key] = _yen(topo, src, dst, k)
    return paths


def _yen(topo: Topology, src: str, dst: str, k: int) -> tuple[tuple[str, ...], ...]:
    """Yen's k shortest paths, each spurred only from the index where it left
    its parent (Lawler): a spur below that index repeats the search an
    earlier path with the same root made, so it adds no candidate. A total is
    the root's length summed left to right, as ``path_length_km`` sums, plus
    the spur's length, so it does not depend on the skip."""
    adj = topo._adj
    tree = topo._spt_memo.get(src)
    if tree is None:
        tree = topo._spt_memo[src] = lexicographic_dijkstra(adj, src, None)
    first = tree.get(dst)
    if first is None:
        return ()
    # (total, path, deviation index); paths are unique, so the index never decides
    accepted = [(*first, 0)]
    candidates: list[tuple[float, tuple[str, ...], int]] = []
    seen = {first[1]}
    while len(accepted) < k:
        _, prev_path, deviation = accepted[-1]
        root_len = topo.path_length_km(prev_path[: deviation + 1])
        for i in range(deviation, len(prev_path) - 1):
            root = prev_path[: i + 1]
            removed_edges = {p[i:i + 2] for _, p, _ in accepted if p[: i + 1] == root}
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
        accepted.append(heappop(candidates))
    return tuple(p for _, p, _ in accepted)
