import dataclasses
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine
from helpers import TIE_WEIGHTS, mk_topo, random_topology, toy_instance
from oracle import enumerate_simple_paths
from ipowdm.topology import (
    ChannelGrid,
    Link,
    Topology,
    TopologyError,
    k_shortest_paths,
    lexicographic_dijkstra,
    load_named_topology,
    parse_topology,
)


TRIANGLE = mk_topo("tri", [("A", "B", 1), ("B", "C", 1), ("A", "C", 3)])


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Link("x", "x", 1.0)

    def test_non_positive_length_rejected(self):
        with pytest.raises(TopologyError, match="non-positive"):
            Link("a", "b", 0.0)

    def test_link_endpoints_sorted(self):
        link = Link("b", "a", 5.0)
        assert link.key == ("a", "b")

    def test_duplicate_link_rejected(self):
        with pytest.raises(TopologyError, match="duplicate link"):
            mk_topo("t", [("a", "b", 1), ("b", "a", 2)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(TopologyError, match="not in node list"):
            Topology("t", ("a", "b"), (Link("a", "c", 1.0),))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(TopologyError, match="duplicate node"):
            Topology("t", ("a", "a", "b"), (Link("a", "b", 1.0),))

    def test_isolated_node_rejected(self):
        with pytest.raises(TopologyError, match="degree 0"):
            Topology("t", ("a", "b", "c"), (Link("a", "b", 1.0),))

    def test_disconnected_graph_rejected(self):
        with pytest.raises(TopologyError, match="disconnected"):
            Topology(
                "t",
                ("a", "b", "c", "d"),
                (Link("a", "b", 1.0), Link("c", "d", 1.0)),
            )

    def test_grid_validation(self):
        with pytest.raises(TopologyError):
            ChannelGrid(0, 100)
        with pytest.raises(TopologyError):
            ChannelGrid(10, 0)
        # a count whose add/drop tally would be too large for a float
        assert ChannelGrid(2**53).channel_count == 2**53
        for count in (2**53 + 1, 10**400):
            with pytest.raises(TopologyError, match=r"^channel_count must be <= 2\*\*53, got "):
                ChannelGrid(count)

    @pytest.mark.parametrize(
        "grid", [{"channel_count": "5"}, {"channel_count": 5.0}, {"spacing_ghz": True}]
    )
    def test_non_integer_grid_rejected(self, grid):
        doc = {"name": "t", "nodes": ["a", "b"],
               "links": [{"a": "a", "b": "b", "length_km": 1}], "grid": grid}
        (field_name,) = grid
        with pytest.raises(TopologyError, match=f"{field_name} must be an integer"):
            parse_topology(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(TopologyError, match="missing required field"):
            parse_topology({"name": "t", "nodes": ["a"]})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{nope")
        with pytest.raises(TopologyError, match=f"topology {path}: invalid JSON"):
            load_named_topology(str(path))
        # the parser takes decoded documents only: JSON text is not one
        with pytest.raises(TopologyError, match="must be a JSON object"):
            parse_topology("{nope")

    def test_link_missing_field_named(self):
        doc = {"name": "t", "nodes": ["a", "b"], "links": [{"a": "a", "b": "b"}]}
        with pytest.raises(TopologyError, match="link #0"):
            parse_topology(doc)

    @pytest.mark.parametrize("field_name, value, message", [
        ("links", 5, "field 'links' must be a JSON array"),
        ("nodes", 5, "field 'nodes' must be a JSON array"),
        ("links", [{"a": "a", "b": "b", "length_km": 1}, ["a", "b", 1]],
         "link #1 must be a JSON object"),
        ("length_km", None, "link #0 field 'length_km' must be a number, got None"),
        ("length_km", "far", "link #0 field 'length_km' must be a number, got 'far'"),
        ("length_km", True, "link #0 field 'length_km' must be a number, got True"),
        ("b", 7, "link #0 field 'b' must be a string, got 7"),
        # names used to go through str(), so a null node became "None"
        ("name", None, "field 'name' must be a string, got None"),
        ("name", 14, "field 'name' must be a string, got 14"),
        ("nodes", ["a", None], "node #1 must be a string, got None"),
        ("nodes", [1, "b"], "node #0 must be a string, got 1"),
        # an int too large for a float, which float() refuses with OverflowError
        pytest.param("length_km", 10**400,
                     f"link #0 field 'length_km' must be a finite number, got {10**400}",
                     id="length_km-huge"),
    ])
    def test_malformed_field_named(self, field_name, value, message):
        doc = {"name": "t", "nodes": ["a", "b"],
               "links": [{"a": "a", "b": "b", "length_km": 1}]}
        if field_name in doc:
            doc[field_name] = value
        else:
            doc["links"][0][field_name] = value
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            parse_topology(doc)

    @pytest.mark.parametrize("length", ["NaN", "inf"])
    def test_non_finite_length_rejected(self, length):
        doc = {"name": "t", "nodes": ["a", "b"],
               "links": [{"a": "a", "b": "b", "length_km": float(length)}]}
        with pytest.raises(TopologyError, match=r"non-finite length on link \('a','b'\)"):
            parse_topology(doc)

    def test_adjacency_is_not_an_init_argument(self):
        # __post_init__ always builds it, so neither position nor keyword takes it
        with pytest.raises(TypeError, match="positional"):
            Topology("t", ("a", "b"), (Link("a", "b", 1.0),), ChannelGrid(), {"a": {}})
        with pytest.raises(TypeError, match="_adj"):
            Topology("t", ("a", "b"), (Link("a", "b", 1.0),), _adj={})

    def test_empty_node_list_rejected(self):
        with pytest.raises(TopologyError, match="'nodes' is empty"):
            parse_topology({"name": "t", "nodes": [], "links": []})


class TestAccessors:
    def test_degree_and_neighbors(self):
        assert TRIANGLE.degree("A") == 2
        assert TRIANGLE.neighbors("A") == {"B": 1, "C": 3}

    def test_link_length_non_adjacent(self):
        topo = mk_topo("line", [("a", "b", 1), ("b", "c", 1)])
        with pytest.raises(TopologyError, match="not adjacent"):
            topo.link_length("a", "c")

    def test_directed_fibers_both_directions_sorted(self):
        fibers = TRIANGLE.directed_fibers()
        assert fibers == sorted(fibers)
        assert ("A", "B") in fibers and ("B", "A") in fibers
        assert len(fibers) == 2 * len(TRIANGLE.links)

    def test_path_lengths(self):
        assert TRIANGLE.path_length_km(["A", "B", "C"]) == 2
        assert TRIANGLE.path_link_lengths(["A", "B", "C"]) == [1, 1]
        assert TRIANGLE.path_length_km(["A"]) == 0.0


class TestSerialization:
    def test_round_trip_identity(self):
        raw = mk_topo("rt", [("a", "b", 10), ("b", "c", 20), ("a", "c", 15)])
        once = parse_topology(json.loads(raw.to_json()))
        twice = parse_topology(json.loads(once.to_json()))
        assert once == twice
        assert once.to_json() == raw.to_json()

    def test_load_topology_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(TRIANGLE.to_json())
        assert load_named_topology(str(path)).to_json() == TRIANGLE.to_json()

    def test_to_dict_links_sorted(self):
        d = mk_topo("s", [("b", "c", 1), ("a", "b", 1)]).to_dict()
        keys = [(l["a"], l["b"]) for l in d["links"]]
        assert keys == sorted(keys)


class TestShortestPaths:
    def test_two_hop_beats_longer_direct(self):
        paths = k_shortest_paths(TRIANGLE, "A", "C", 2)
        assert paths == (("A", "B", "C"), ("A", "C"))

    def test_same_endpoints_rejected(self):
        with pytest.raises(TopologyError):
            k_shortest_paths(TRIANGLE, "A", "A", 1)

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            k_shortest_paths(TRIANGLE, "A", "Z", 1)

    def test_k_below_one_rejected(self):
        # and, as PlannerConfig rules, a k that is not an int: a float would
        # plan like its ceiling, True like 1, and a string fail to compare
        for k in (0, 2.5, True, "3"):
            with pytest.raises(TopologyError, match="k must be"):
                k_shortest_paths(TRIANGLE, "A", "B", k)

    def test_k_saturates_at_simple_path_count(self):
        paths = k_shortest_paths(TRIANGLE, "A", "C", 50)
        assert len(paths) == len(enumerate_simple_paths(TRIANGLE, "A", "C"))

    def test_equal_lengths_break_ties_lexicographically(self):
        square = mk_topo(
            "sq", [("a", "b", 1), ("b", "d", 1), ("a", "c", 1), ("c", "d", 1)]
        )
        paths = k_shortest_paths(square, "a", "d", 2)
        assert paths == (("a", "b", "d"), ("a", "c", "d"))

    def test_memo_returns_equal_immutable_results(self):
        topo = mk_topo("m", [("a", "b", 1), ("b", "c", 1), ("a", "c", 3)])
        # a tuple never equals a list, so this also pins the immutable type,
        # on the call that builds the source's tree and on one that reads it
        for _ in range(2):
            assert k_shortest_paths(topo, "a", "c", 2) == (("a", "b", "c"), ("a", "c"))

    def test_bad_arguments_rejected_on_warm_topology(self):
        topo = mk_topo("m", [("a", "b", 1), ("b", "c", 1)])
        k_shortest_paths(topo, "a", "c", 1)
        k_shortest_paths(topo, "a", "c", 2)
        # True and 2.0 equal the keys of the entries held for 1 and 2
        for src, dst, k in (("a", "a", 1), ("a", "z", 1), ("a", "c", 0), ("a", "c", 2.5),
                            ("a", "c", True), ("a", "c", 2.0), ("a", "c", "3")):
            with pytest.raises(TopologyError):
                k_shortest_paths(topo, src, dst, k)

    def test_memo_does_not_change_equality_or_hash(self):
        warm = parse_topology(json.loads(TRIANGLE.to_json()))
        k_shortest_paths(warm, "A", "C", 3)
        assert warm._spt_memo  # the per-source memo is warm
        fresh = parse_topology(json.loads(TRIANGLE.to_json()))
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def test_matches_exhaustive_enumeration(self, seed):
        topo, _ = toy_instance(seed)
        for src in topo.nodes:
            for dst in topo.nodes:
                if src == dst:
                    continue
                expected = enumerate_simple_paths(topo, src, dst)
                got = k_shortest_paths(topo, src, dst, len(expected) + 5)
                assert got == tuple(map(tuple, expected))


def _assert_matches_plain_yen(topo, ks):
    for k in ks:
        for src, dst in itertools.permutations(topo.nodes, 2):
            assert k_shortest_paths(topo, src, dst, k) == \
                reference_engine.yen_k_shortest_paths(topo, src, dst, k), (src, dst, k)
    # on a twin with a memo of its own, the pairs in shuffled order and k
    # cycling through 1, 3, 2: a miss leaves the per-source entries held as
    # they were
    twin = dataclasses.replace(topo)
    pairs = list(itertools.permutations(topo.nodes, 2))
    random.Random(len(pairs)).shuffle(pairs)
    for i, (src, dst) in enumerate(pairs):
        k = (1, 3, 2)[i % 3]
        held = dict(twin._spt_memo)
        assert k_shortest_paths(twin, src, dst, k) == \
            reference_engine.yen_k_shortest_paths(topo, src, dst, k), (src, dst, k)
        assert all(twin._spt_memo[key] is entry for key, entry in held.items())


class TestAgainstPlainYen:
    # The tree's first paths and Lawler's deviation skip must give plain
    # Yen's lists exactly: same paths, same order of equal-length ones. Few
    # distinct weights give many equal lengths, and 4-9 nodes give paths that
    # deviate from their parent above index 0.
    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10_000), st.sampled_from(TIE_WEIGHTS))
    def test_random_graphs_all_pairs(self, seed, weights):
        _assert_matches_plain_yen(random_topology(seed, weights), (1, 2, 3, 5, 8))

    @pytest.mark.parametrize("name", ["j14", "g17"])
    def test_builtin_topologies_all_pairs(self, name):
        _assert_matches_plain_yen(load_named_topology(name), (1, 2, 3, 6))


def _reversed_adjacency(adj):
    return {u: dict(reversed(list(nbrs.items()))) for u, nbrs in reversed(list(adj.items()))}


def _brute_force_shortest(adj, src, dst, settled=(), removed_edges=()):
    """Min (dist, path) over every simple path that avoids the exclusions."""
    best = None
    stack = [(0.0, (src,))]
    while stack:
        dist, path = stack.pop()
        if path[-1] == dst:
            if best is None or (dist, path) < best:
                best = (dist, path)
            continue
        for nbr, weight in adj.get(path[-1], {}).items():
            if nbr not in path and nbr not in settled and (path[-1], nbr) not in removed_edges:
                stack.append((dist + weight, path + (nbr,)))
    return best


class TestLexicographicDijkstra:
    # three a -> d routes of length 2 and one of length 3
    DIAMOND = {
        "a": {"d": 2.0, "c": 1.0, "b": 1.0, "e": 1.0},
        "b": {"d": 1.0},
        "c": {"d": 1.0},
        "e": {"d": 2.0},
    }

    def test_ties_break_on_node_sequence_in_any_insertion_order(self):
        for adj in (self.DIAMOND, _reversed_adjacency(self.DIAMOND)):
            assert lexicographic_dijkstra(adj, "a", "d") == (2.0, ("a", "b", "d"))

    def test_settled_nodes_and_removed_edges_are_never_used(self):
        search = lexicographic_dijkstra
        assert search(self.DIAMOND, "a", "d", {"b"}) == (2.0, ("a", "c", "d"))
        assert search(self.DIAMOND, "a", "d", {"b", "c"}) == (2.0, ("a", "d"))
        assert search(self.DIAMOND, "a", "d", (), {("a", "b"), ("c", "d")}) == (2.0, ("a", "d"))
        assert search(self.DIAMOND, "a", "d", {"b", "c"}, {("a", "d")}) == (3.0, ("a", "e", "d"))
        assert search(self.DIAMOND, "a", "d", {"e"}, {("a", "b"), ("a", "c"), ("a", "d")}) is None

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force_on_weighted_digraphs(self, seed):
        # small integer weights on a dense digraph give many equal-length routes
        rng = random.Random(seed)
        nodes = [f"v{i}" for i in range(rng.randint(3, 6))]
        adj = {u: {v: float(rng.randint(1, 3)) for v in nodes if v != u and rng.random() < 0.6}
               for u in nodes}
        src, dst = rng.sample(nodes, 2)
        settled = set(rng.sample([n for n in nodes if n not in (src, dst)], rng.randint(0, 1)))
        edges = [(u, v) for u in adj for v in adj[u]]
        removed = set(rng.sample(edges, min(len(edges), rng.randint(0, 2))))
        expected = _brute_force_shortest(adj, src, dst, settled, removed)
        for graph in (adj, _reversed_adjacency(adj)):
            assert lexicographic_dijkstra(graph, src, dst, settled, removed) == expected
            # without a target: every node reached, each with the entry a
            # search stopped at it returns
            tree = lexicographic_dijkstra(graph, src, None, settled, removed)
            assert tree.get(dst) == expected
            assert all(lexicographic_dijkstra(graph, src, node, settled, removed) == entry
                       for node, entry in tree.items())
