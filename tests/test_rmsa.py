import copy
import dataclasses
import gc
import hashlib
import json
import math
import weakref
from itertools import pairwise, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_engine
from helpers import TIE_WEIGHTS, mk_topo, random_topology, set_claim, toy_instance
from ipowdm import rmsa, topology
from ipowdm.dimensioning import network_cost
from ipowdm.rmsa import (
    ARCH_NAMES,
    ARCHITECTURES,
    AuxEdge,
    BlockedError,
    NetworkState,
    NoSpectrum,
    PlannerConfig,
    _GROOM,
    _NEW,
    _adjacency,
    _aux_shortest_path,
    _create_lightpath,
    build_auxiliary_graph,
    merge_pure_ip_regens,
    provision_all,
    route_demand,
)
from ipowdm.topology import ChannelGrid, k_shortest_paths, load_named_topology
from ipowdm.traffic import Demand, TrafficMatrix, generate_traffic, load_scenario
from ipowdm.transceiver import DEFAULT_CATALOG, NoFeasibleMode, TransceiverMode

LINE_SHORT = [("a", "b", 100), ("b", "c", 100)]
LINE_LONG = [("a", "b", 600), ("b", "c", 600)]
LINE_XLONG = [("a", "b", 1600), ("b", "c", 1600)]
LINE3_XLONG = LINE_XLONG + [("c", "d", 1600)]

GROOMING_ARCHS = [n for n in ARCH_NAMES if ARCHITECTURES[n].intermediate_ip_grooming]


def matrix(*demands):
    return TrafficMatrix("fixed", 0, tuple(demands))


def provision(links, arch, *demands, channels=10):
    topo = mk_topo("t", links, channels=channels)
    return provision_all(topo, matrix(*demands), arch)


def open_lightpath(state, route, mode):
    """Open one lightpath over ``route`` on ``mode``, with no back-to-back
    regeneration, as a candidate edge's plan does."""
    return _create_lightpath(state, route, mode, (), state.topology.path_length_km(route),
                             (route,))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2.5},
            {"k": True},
            {"k": "3"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        # 2.5 would plan like 3 under a memo key of its own
        with pytest.raises(ValueError, match=f"^k must be .*, got {kwargs['k']!r}$"):
            PlannerConfig(**kwargs)


class TestArchitectureTable:
    def test_flags(self):
        assert not ARCHITECTURES["OpIP"].optical_bypass
        assert ARCHITECTURES["OpIP"].intermediate_ip_grooming
        assert ARCHITECTURES["TrIP"].optical_bypass
        assert ARCHITECTURES["TrIP"].intermediate_ip_grooming
        assert not ARCHITECTURES["TrZR"].intermediate_ip_grooming
        assert ARCHITECTURES["TrZR"].b2b_zr_regeneration
        assert not ARCHITECTURES["TrZR"].ip_regeneration
        assert ARCHITECTURES["TrIPandZR"].optical_bypass
        assert ARCHITECTURES["TrIPandZR"].b2b_zr_regeneration


class TestOpaqueProvisioning:
    def test_every_lightpath_spans_one_link(self):
        st = provision(LINE_SHORT, "OpIP", Demand("a", "c", 400))
        assert st.lightpaths
        assert all(len(lp.route) == 2 for lp in st.lightpaths.values())

    def test_two_hops_two_lightpaths(self):
        st = provision(LINE_SHORT, "OpIP", Demand("a", "c", 400))
        assert len(st.lightpaths) == 2
        flow = st.records[("a", "c")][0]
        assert len(flow.placements) == 2

    def test_hop_count_beats_distance(self):
        # direct 500 km link vs a 2-hop 400 km detour: opaque routing pays
        # modules per hop, so the single-hop route must win
        st = provision(
            [("a", "d", 500), ("a", "b", 150), ("b", "d", 250)],
            "OpIP",
            Demand("a", "d", 400),
        )
        assert len(st.lightpaths) == 1
        assert next(iter(st.lightpaths.values())).route == ("a", "d")


class TestTransparentProvisioning:
    def test_bypass_single_lightpath_end_to_end(self):
        st = provision(LINE_SHORT, "TrIP", Demand("a", "c", 400))
        assert len(st.lightpaths) == 1
        lp = next(iter(st.lightpaths.values()))
        assert lp.route == ("a", "b", "c")
        assert lp.b2b_regen_nodes == ()

    def test_long_path_splits_rate_to_stay_transparent(self):
        # 1200 km end to end: a 400G demand splits into 300G + 100G flows on
        # long-reach channels instead of regenerating a 400G channel
        st = provision(LINE_LONG, "TrIP", Demand("a", "c", 400))
        carried = sorted(r for lp in st.lightpaths.values() for _, r in lp.carried)
        assert carried == [100, 300]
        assert all(lp.route == ("a", "b", "c") for lp in st.lightpaths.values())
        assert all(not lp.b2b_regen_nodes for lp in st.lightpaths.values())

    def test_ip_regeneration_splits_into_per_segment_lightpaths(self):
        # 3200 km exceeds every reach, so the router at b regenerates
        st = provision(LINE_XLONG, "TrIP", Demand("a", "c", 200))
        assert len(st.lightpaths) == 2
        routes = sorted(lp.route for lp in st.lightpaths.values())
        assert routes == [("a", "b"), ("b", "c")]

    def test_trzr_back_to_back_regen_instead_of_router(self):
        st = provision(LINE_LONG, "TrZR", Demand("a", "c", 400))
        assert len(st.lightpaths) == 1
        lp = next(iter(st.lightpaths.values()))
        assert lp.route == ("a", "b", "c")
        assert lp.b2b_regen_nodes == ("b",)
        # OEO at b may change the channel but never touches the router
        assert len(lp.segments) == 2

    def test_trzr_grooms_end_to_end_only(self):
        st = provision(
            LINE_SHORT, "TrZR", Demand("a", "b", 100), Demand("a", "c", 100)
        )
        for lp in st.lightpaths.values():
            assert len(lp.carried) == 1
            flow_id, _ = lp.carried[0]
            assert flow_id.startswith(f"{lp.route[0]}->{lp.route[-1]}")

    def test_trzr_keeps_no_grooming_index(self):
        # 400G modes only: three lightpaths keep spare capacity, yet no other
        # TrZR flow joins the same endpoints, so nothing is indexed
        m = matrix(Demand("a", "b", 100), Demand("a", "c", 500), Demand("c", "a", 300))
        st = provision_all(mk_topo("t", LINE_SHORT), m, "TrZR", catalog=TIED_POWER)
        assert sorted(lp.residual for lp in st.lightpaths.values()) == [0, 100, 300, 300]
        st.audit()
        assert st.groomable == {}

    def test_trzr_multi_channel_split(self):
        st = provision(LINE_SHORT, "TrZR", Demand("a", "c", 600))
        # 600G exceeds one channel: minimum split is 400+200 on two lightpaths
        rates = sorted(lp.mode.rate_gbps for lp in st.lightpaths.values())
        assert rates == [200, 400]


# two 400G modes of equal power and different reach; the max-rate mode order
# (`transceiver._order_key`) takes the longer reach
TIED_POWER = (
    TransceiverMode("ZR", "16QAM", 120, 400, 1.0, 1.0),
    TransceiverMode("ZR+", "16QAM", 600, 400, 1.0, 2.0),
)


class TestModeTies:
    # every architecture, TrZR's minimum-channel split included, takes the longer reach
    @pytest.mark.parametrize("arch,mode", [("OpIP", "ZR+"), ("TrIP", "ZR+"),
                                           ("TrIPandZR", "ZR+"), ("TrZR", "ZR+")])
    def test_equal_power_tie(self, arch, mode):
        topo = mk_topo("t", [("a", "b", 100)])
        st = provision_all(topo, matrix(Demand("a", "b", 400)), arch, catalog=TIED_POWER)
        assert [str(lp.mode) for lp in st.lightpaths.values()] == [f"{mode}/16QAM/400G"]

    def test_regenerated_segments_use_the_same_order(self):
        # 650 km needs a regen at b; the 100 km segment a-b is a tie
        topo = mk_topo("t", [("a", "b", 100), ("b", "c", 550)])
        trip = provision_all(topo, matrix(Demand("a", "c", 400)), "TrIP", catalog=TIED_POWER)
        assert sorted((lp.route, str(lp.mode)) for lp in trip.lightpaths.values()) == [
            (("a", "b"), "ZR+/16QAM/400G"), (("b", "c"), "ZR+/16QAM/400G")]
        # same-mode segments, so the pure regen at b becomes a b2b pair
        both = provision_all(topo, matrix(Demand("a", "c", 400)), "TrIPandZR",
                             catalog=TIED_POWER)
        (lp,) = both.lightpaths.values()
        assert (lp.route, lp.b2b_regen_nodes) == (("a", "b", "c"), ("b",))


class TestPureRegenMerge:
    def test_router_regens_become_back_to_back_pairs(self):
        st = provision(LINE_XLONG, "TrIPandZR", Demand("a", "c", 200))
        assert len(st.lightpaths) == 1
        lp = next(iter(st.lightpaths.values()))
        assert lp.route == ("a", "b", "c")
        assert lp.b2b_regen_nodes == ("b",)

    def test_merge_keeps_flow_placements_consistent(self):
        st = provision(LINE_XLONG, "TrIPandZR", Demand("a", "c", 200))
        flow = st.records[("a", "c")][0]
        assert len(flow.placements) == 1
        lp_id, rate = flow.placements[0]
        assert rate == 200
        assert st.lightpaths[lp_id].b2b_regen_nodes == ("b",)

    def test_merged_lightpath_merges_again(self):
        # a-b, b-c, c-d each terminate in routers; the a-c merge result is
        # itself merged with c-d into one lightpath with two b2b regens
        st = provision(LINE3_XLONG, "TrIPandZR", Demand("a", "d", 200))
        (lp,) = st.lightpaths.values()
        assert lp.route == ("a", "b", "c", "d")
        assert lp.b2b_regen_nodes == ("b", "c")
        assert len(lp.segments) == 3
        assert st.records[("a", "d")][0].placements == [(lp.id, 200)]
        assert lp.id == 5  # three routed lightpaths, then two merges
        # the merged length is the route's, not the sum of the parts
        assert lp.length_km == st.topology.path_length_km(lp.route)

    def test_merged_lightpaths_merge_with_each_other(self):
        # a-b + b-c and c-d + d-e merge first; the a-c result then finds the
        # c-e result, which joined the pass after it, as its partner
        st = provision(LINE3_XLONG + [("d", "e", 1600)], "TrIPandZR", Demand("a", "e", 200))
        (lp,) = st.lightpaths.values()
        assert (lp.id, lp.route, lp.b2b_regen_nodes) == (
            7, ("a", "b", "c", "d", "e"), ("b", "c", "d"))

    def test_grooming_node_is_not_merged(self):
        # b terminates two lightpaths but they carry different flow sets, so
        # the router there is grooming, not purely regenerating
        st = provision(
            LINE_XLONG,
            "TrIPandZR",
            Demand("a", "c", 200),
            Demand("b", "c", 200),
        )
        merged = [lp for lp in st.lightpaths.values() if lp.b2b_regen_nodes]
        unmerged = [lp for lp in st.lightpaths.values() if not lp.b2b_regen_nodes]
        assert merged and unmerged

    def test_module_tally_identical_to_trip(self):
        for seed in range(6):
            topo, m = toy_instance(seed)
            trip = network_cost(provision_all(topo, m, "TrIP"))
            both = network_cost(provision_all(topo, m, "TrIPandZR"))
            assert trip.zr_count == both.zr_count
            assert trip.zrplus_count == both.zrplus_count
            assert trip.module_cost == both.module_cost
            assert both.router_ports <= trip.router_ports


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from([None, 1, 2]))
@example(52, 1)  # merges, and blocks 4 demands
@example(271, 2)  # merges without blocking
def test_trip_and_zr_prices_pluggables_like_trip(seed, channels):
    # the paper's "identical pluggable power": TrIPandZR routes like TrIP and
    # only converts pure router regens into b2b pairs, also under blocking
    topo, m = toy_instance(seed, max_nodes=5, max_demands=10)
    if channels is not None:
        topo = dataclasses.replace(topo, grid=ChannelGrid(channels, 100))
    trip = provision_all(topo, m, "TrIP")
    both = provision_all(topo, m, "TrIPandZR")
    assert both.blocked == trip.blocked
    trip_cost, both_cost = network_cost(trip), network_cost(both)
    assert (both_cost.zr_count, both_cost.zrplus_count) == (
        trip_cost.zr_count, trip_cost.zrplus_count)


class TestGrooming:
    def test_small_flow_rides_residual_capacity(self):
        st = provision(
            LINE_SHORT,
            "TrIP",
            Demand("a", "b", 300),
            Demand("b", "c", 300),
            Demand("a", "c", 100),
        )
        # the 100G flow is routed last and chains over both residuals
        assert len(st.lightpaths) == 2
        flow = st.records[("a", "c")][0]
        assert len(flow.placements) == 2

    def test_flows_per_lightpath_capped(self):
        for seed in range(8):
            topo, m = toy_instance(seed)
            for arch in GROOMING_ARCHS:
                state = provision_all(topo, m, arch)
                assert all(len(lp.carried) <= 2 for lp in state.lightpaths.values())


class TestBlockingAndAtomicity:
    @pytest.mark.parametrize("channels", [3, 10 ** 9])
    def test_first_fit_takes_the_lowest_free_channel(self, channels):
        # each fiber's mask is as wide as the channels in use, whatever the grid
        state = NetworkState(mk_topo("t", LINE_SHORT, channels), "TrIP", PlannerConfig())
        qpsk = DEFAULT_CATALOG[-1]
        lps = [open_lightpath(state, ("a", "b", "c"), qpsk) for _ in range(3)]
        assert [lp.segments[0].channel for lp in lps] == [0, 1, 2]
        state.remove(lps[1])
        assert open_lightpath(state, ("a", "b"), qpsk).segments[0].channel == 1
        assert (state.occupancy[("a", "b")], state.occupancy[("b", "c")]) == (0b111, 0b101)
        state.audit()
        if channels == 3:
            with pytest.raises(NoSpectrum, match="no free channel along a-b"):
                open_lightpath(state, ("a", "b"), qpsk)
        else:
            assert open_lightpath(state, ("a", "b"), qpsk).segments[0].channel == 3

    def test_spectrum_exhaustion_blocks_cleanly(self):
        st = provision(
            LINE_SHORT,
            "TrIP",
            Demand("a", "c", 400),
            Demand("c", "a", 400),
            Demand("b", "c", 400),
            channels=1,
        )
        assert len(st.blocked) == 1
        demand, reason = st.blocked[0]
        assert (demand.src, demand.dst) == ("b", "c")
        assert reason == "no_spectrum"
        assert demand.key not in st.records
        st.audit()

    def test_deferred_flow_blocking_unplaces_whole_demand(self):
        st = provision(LINE_SHORT, "TrIP", Demand("a", "c", 500), channels=1)
        # the 400G part takes the only channel; the deferred 100G remainder
        # then blocks, which must tear the whole demand back out
        assert [(d.rate_gbps, r) for d, r in st.blocked] == [(500, "no_spectrum")]
        assert not st.records
        assert not st.lightpaths
        assert all(not chans for chans in st.occupancy.values())
        st.audit()

    def test_chain_failing_part_way_tears_down_its_lightpaths(self):
        # 3200 km: the router at b regenerates. a->c tries the whole route,
        # then the a-b + b-c edges; each try opens an a-b lightpath (ids 2
        # and 3), finds b-c's only channel taken and must tear a-b down
        st = provision(LINE_XLONG, "TrIP", Demand("b", "c", 300), Demand("a", "c", 200),
                       channels=1)
        assert [(d.key, r) for d, r in st.blocked] == [(("a", "c"), "no_spectrum")]
        assert [(lp.id, lp.route) for lp in st.lightpaths.values()] == [(1, ("b", "c"))]
        assert {f: mask for f, mask in st.occupancy.items() if mask} == {("b", "c"): 1 << 0}
        assert st._next_id == 3
        st.audit()

    @pytest.mark.parametrize("arch", ["TrZR", "TrIPandZR"])
    def test_split_demand_blocking_leaves_nothing(self, arch):
        # 600G splits 400 + 200 (over two lightpaths under TrZR, over two
        # sub-flows otherwise); the second finds the only channel taken
        st = provision(LINE_SHORT, arch, Demand("a", "c", 600), channels=1)
        assert [(d.rate_gbps, r) for d, r in st.blocked] == [(600, "no_spectrum")]
        assert not st.records
        assert not st.lightpaths
        assert all(not chans for chans in st.occupancy.values())
        st.audit()

    def test_duplicate_demand_rejected(self):
        topo = mk_topo("t", LINE_SHORT)
        state = NetworkState(topo, "TrIP", PlannerConfig())
        route_demand(state, Demand("a", "c", 100))
        with pytest.raises(ValueError, match="already provisioned"):
            route_demand(state, Demand("a", "c", 100))

    @staticmethod
    def _teardown_behind_index(s):
        # what _release does to lightpath 3, but past NetworkState.remove
        s.records.pop(("b", "c"))
        lp = s.lightpaths.pop(3)
        for fiber in pairwise(lp.segments[0].nodes):
            set_claim(s, fiber, lp.segments[0].channel, False)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda s: setattr(s.lightpaths[2].segments[0], "channel", 0),
         r"channel clash on fiber \('a', 'b'\) channel 0"),
        (lambda s: set_claim(s, ("b", "c"), 5, True), "stored occupancy diverges"),
        (lambda s: set_claim(s, ("a", "b"), 0, False),
         r"unstored claim on fiber \('a', 'b'\) channel 0"),
        (lambda s: setattr(s.lightpaths[1], "residual", 100), "lightpath 1: residual 100"),
        (lambda s: s.records[("a", "b")][0].placements.clear(), "lightpath 1 carries unplaced"),
        (lambda s: s.records[("a", "c")][0].placements.append((9, 400)),
         "a->c#0 placed 400G on 9, not carried"),
        (lambda s: s.groomable[300]["b"].pop(3), "lightpath 3: can groom but is not indexed"),
        (_teardown_behind_index, "lightpath 3: stale grooming entry at residual 300"),
        # lightpath 3 (b-c) also filed under its end node, where a groom
        # chain search would read it as an out-edge of c
        (lambda s: s.groomable[300].setdefault("c", {}).update({3: s.lightpaths[3].groom_edge}),
         "lightpath 3: grooming entry under 'c', not its start 'b'"),
        # lightpath 2 (a-b-c, 200 km) on the 400G mode that reaches 120 km
        (lambda s: setattr(s.lightpaths[2], "mode", DEFAULT_CATALOG[0]),
         "lightpath 2: segment a-b-c spans 200.0 km, beyond ZR/16QAM/400G's reach"),
        # one bit off: the groom chain's length bound compares stored lengths
        (lambda s: setattr(s.lightpaths[3], "length_km", math.nextafter(100.0, 0)),
         "lightpath 3: stored length 99.99999999999999 km, route b-c spans 100.0 km"),
        # the stored length is checked against the segments' hops, so they
        # must be the route's own, end to end
        (lambda s: setattr(s.lightpaths[2].segments[0], "nodes", ("a", "c")),
         "lightpath 2: segment a-c is not the next part of route a-b-c"),
        (lambda s: setattr(s.lightpaths[2].segments[0], "nodes", ("a", "b")),
         "lightpath 2: segments end short of route a-b-c"),
    ], ids=["clash", "occupancy", "unstored", "residual", "carried", "placements",
            "unindexed", "stale-index", "misfiled", "reach", "length", "off-route", "short"])
    def test_audit_names_broken_bookkeeping(self, corrupt, message):
        # lightpaths 1 and 2 are full; 3 (b-c, 100G of 400G carried) can groom
        st = provision(LINE_SHORT, "TrIP", Demand("a", "b", 400), Demand("a", "c", 400),
                       Demand("b", "c", 100))
        st.audit()
        corrupt(st)
        with pytest.raises(AssertionError, match=message):
            st.audit()

    def test_unreachable_rate_blocks_with_mode_reason(self):
        st = provision([("a", "b", 3200)], "TrZR", Demand("a", "b", 400))
        assert [(d.rate_gbps, r) for d, r in st.blocked] == [
            (400, "no_feasible_mode")
        ]


# sha256 of the sorted-key JSON of provision_all(...).to_dict(): pins lightpath
# ids, routes, modes, channels, carried flows, merge order and blocking.
GOLDEN_STATE_DIGESTS = {
    ("toy0", "OpIP"): "f3a9d6f0afecf0c9d0e6235e85487e06a9229a119292aa4fdd2d15d34161a60d",
    ("toy0", "TrIP"): "52ce82a20ac8f4a954751e53c7337f9e47d64f006cf5f57f0107aee8f6912a49",
    ("toy0", "TrZR"): "69faeabe129bc06b979074ed42add68b032cac1e2e38ea457b71b1ccf57f7d86",
    ("toy0", "TrIPandZR"): "af0bfda292db6c179066cc478901bdfb8f1a2d740184d5a6ca0ca8d135b159ef",
    ("toy1", "OpIP"): "801edc8df02791e5939b7ecf08c5634543f9d1c7b3861fad952d5156c328ed4b",
    ("toy1", "TrIP"): "8ae7f4f1976ef9af3190c02942a15c8802364d442cbd445bf1444da446ad0197",
    ("toy1", "TrZR"): "8e20b997ab522ce6e30dff190f301a61fdab85eacf3dbfa17c42c38443ebde61",
    ("toy1", "TrIPandZR"): "5a9ca3c75ca8b8e8c91a1a294059341c8623b9898393b85ba6c58b377559f698",
    ("toy2", "OpIP"): "7c63c2b7309817377b778a6979ae9b2d3230824d8322514646d19a4836ee7bda",
    ("toy2", "TrIP"): "691d408c94340d3678f7974f233e2396be78291ba9f2fca7b04b37aeb25ad9eb",
    ("toy2", "TrZR"): "faa9342c25c96d31f30a68c8e9f24541704c74f1f0e4b1ea74e72ec4223284b9",
    ("toy2", "TrIPandZR"): "30efc31e692a73aeb6683013a8d9251b256647a33c2167816597ccba96e9fe63",
    ("toy3", "OpIP"): "2b5e7619a66d8d7d5249f4b053766b116ba4b1e7c09512143cdb2ef1930bcb16",
    ("toy3", "TrIP"): "735c7944e58431b7c6a9b18439ecea131b6f408b72835d8e9f4c4cc039641c29",
    ("toy3", "TrZR"): "c045707fbae420b3dacf81829cf115871e0cad7b0313092c18660b4bfd013a49",
    ("toy3", "TrIPandZR"): "818d0d83d5df066af2b4595f5020c97b6b207354f6b992ebffd10e6a38f3d447",
    ("j14", "OpIP"): "080bd735d1fde6f8cafbe3d2d703edceabff69022728e502391f118c4fca46f0",
    ("j14", "TrIP"): "420fdca3fcec8c132b6624c82261d38040798a08ba8282263b05437707a7955c",
    ("j14", "TrZR"): "4d5fdd0f15f37a16fd998cb57f65c27d131dc20377a98e6b26b05fdfb79d05cd",
    ("j14", "TrIPandZR"): "78173eacd162e2bc4c1dec3d38c0e94cf8f2070e922fa54f9de39bf0a8b90d3c",
}


def state_digest(state) -> str:
    return hashlib.sha256(json.dumps(state.to_dict(), sort_keys=True).encode()).hexdigest()


class TestDeterminism:
    @pytest.mark.parametrize("case", sorted(GOLDEN_STATE_DIGESTS), ids="/".join)
    def test_golden_state_digest(self, case):
        instance, arch = case
        if instance == "j14":
            topo = load_named_topology("j14")
            m = generate_traffic(topo, load_scenario("TS1"), 0)
        else:
            topo, m = toy_instance(int(instance[3:]))
        assert state_digest(provision_all(topo, m, arch)) == GOLDEN_STATE_DIGESTS[case]

    def test_golden_state_digest_on_warm_topology(self):
        # every plan after the first reuses the trees, routes and plans
        # memoized on the topology
        topo = load_named_topology("j14")
        m = generate_traffic(topo, load_scenario("TS1"), 0)
        for _ in range(2):
            for arch in ARCH_NAMES:
                assert state_digest(provision_all(topo, m, arch)) == GOLDEN_STATE_DIGESTS[
                    ("j14", arch)
                ]
        assert topo._spt_memo and topo._aux_memo and topo._plan_memo

    def test_identical_runs_identical_states(self):
        for seed in (0, 3):
            topo, m = toy_instance(seed)
            for arch in ARCH_NAMES:
                a = provision_all(topo, m, arch).to_dict()
                b = provision_all(topo, m, arch).to_dict()
                assert a == b


# Three a-b routes, one of them a single 800 km link: longer than the reach
# of every 400G mode, so the reach rule of the candidate edges filters on it.
DETOUR = [("a", "b", 800), ("a", "d", 300), ("d", "b", 400), ("a", "e", 450),
          ("e", "b", 400), ("b", "c", 100)]
DETOUR_DEMANDS = (Demand("a", "b", 400), Demand("b", "a", 300), Demand("a", "c", 600),
                  Demand("c", "a", 200), Demand("d", "c", 100))
# same minimum cost as the default catalog, so the same penalty and memo
# entries, but no mode reaches 800 km
SHORT_REACH = (
    TransceiverMode("ZR", "16QAM", 120, 400, 1.0, 1.0),
    TransceiverMode("ZR+", "16QAM", 600, 400, 1.3, 2.0),
    TransceiverMode("ZR+", "QPSK", 700, 200, 1.3, 2.0),
)
# a different minimum cost, so a different new-lightpath penalty
DEAR = tuple(dataclasses.replace(m, cost_units=m.cost_units * 3) for m in DEFAULT_CATALOG)
# every module free, so no new-lightpath penalty at all
FREE = tuple(dataclasses.replace(m, cost_units=0.0) for m in DEFAULT_CATALOG)


def candidate_graph(state, demand):
    """(edges, adjacency, routes) of the new-lightpath graph ``demand``'s flow
    reads: OpIP's memoized hop graph, whose routes each flow searches after
    laying its grooming edges over it (None), or the bypass candidate graph
    within the demand's reach limit with its memoized routes read to the end
    of the sequence."""
    if not state.arch.optical_bypass:
        return (*rmsa._hop_graph(state), None)
    topo = state.topology
    paths = k_shortest_paths(topo, demand.src, demand.dst, state.cfg.k)
    graph = rmsa._candidate_graph(
        paths, [topo.path_link_lengths(p) for p in paths],
        not state.arch.intermediate_ip_grooming, state._new_lp_penalty,
        rmsa._reach_limit(state, demand.rate_gbps))
    return *graph, list(rmsa._candidate_routes(state, demand))


class TestCandidateMemo:
    def test_shared_topology_plans_like_fresh_ones(self):
        shared = mk_topo("t", DETOUR)
        m = matrix(*DETOUR_DEMANDS)
        for catalog in (DEFAULT_CATALOG, DEAR, SHORT_REACH, FREE, DEFAULT_CATALOG):
            for k in (2, 3):
                for arch in ARCH_NAMES:
                    cfg = PlannerConfig(k)
                    fresh = provision_all(mk_topo("t", DETOUR), m, arch, cfg, catalog)
                    warm = provision_all(shared, m, arch, cfg, catalog)
                    assert state_digest(warm) == state_digest(fresh), (catalog, k, arch)
                    # the candidate edges carry this plan's penalty and k
                    # paths: edges, adjacency and routes, before and after
                    # the plan, since TrIP's graph holds only grooming pairs
                    for demand in m.demands:
                        for state in (NetworkState(shared, arch, cfg, catalog), warm):
                            new = NetworkState(mk_topo("t", DETOUR), arch, cfg, catalog)
                            assert candidate_graph(state, demand) == candidate_graph(
                                new, demand), (catalog, k, arch, demand)
                        # the searched graph, on empty and on planned states;
                        # TrZR, which never grooms, searches none
                        empty = NetworkState(mk_topo("t", DETOUR), arch, cfg, catalog)
                        for state, other in ((NetworkState(shared, arch, cfg, catalog), empty),
                                             (warm, fresh)):
                            graph = build_auxiliary_graph(state, demand)
                            assert graph == build_auxiliary_graph(other, demand), (
                                catalog, k, arch, demand)
                            if not ARCHITECTURES[arch].intermediate_ip_grooming:
                                assert graph == {}
        assert shared._aux_memo

    @pytest.mark.parametrize("arch", ["TrIP", "TrZR", "TrIPandZR"])
    def test_reach_rule_filters_a_shared_entry(self, arch):
        topo = mk_topo("t", DETOUR)
        demand = Demand("a", "b", 400)

        def subpaths(catalog):
            # the memoized routes, read to the end, reach every edge of this
            # small candidate graph
            state = NetworkState(topo, arch, PlannerConfig(), catalog)
            edges, _, routes = candidate_graph(state, demand)
            found = {e.subpath for route in routes for e in route}
            assert found == {e.subpath for alts in edges.values() for e in alts}
            return found

        short = subpaths(SHORT_REACH)
        entries = len(topo._aux_memo)
        assert ("a", "b") not in short and ("a", "d", "b") in short
        # the default catalog keeps the 800 km hop where a mode reaches it:
        # TrZR's 3000 km modes, which span every link, so TrZR adds the
        # entry with no limit; the 400G flows reuse the entry of their
        # 600 km limit, which is both catalogs' 400G reach
        assert (("a", "b") in subpaths(DEFAULT_CATALOG)) == (arch == "TrZR")
        assert len(topo._aux_memo) == entries + (arch == "TrZR")

    def test_first_route_memo_keys_on_the_reach_limit(self):
        # no mode reaches the 1000 km link; the 650 km hops of a-c-b are
        # beyond SHORT_REACH's 400G reach but within its 200G one, so one
        # demand's 400G and 100G sub-flows take different first routes, each
        # memoized under the key plus its limit; with no hop within every
        # limit, no entry is keyed without one
        topo = mk_topo("t", [("a", "b", 1000), ("a", "c", 650), ("c", "b", 650),
                             ("a", "d", 500), ("d", "e", 500), ("e", "b", 500)])
        state = NetworkState(topo, "TrIP", PlannerConfig(), SHORT_REACH)
        flows = route_demand(state, Demand("a", "b", 500))
        assert {f.rate_gbps: [state.lightpaths[lp_id].route for lp_id, _ in f.placements]
                for f in flows} == {400: [("a", "d"), ("d", "e"), ("e", "b")],
                                    100: [("a", "c"), ("c", "b")]}
        first = {key[5:]: next(copy.copy(routes))[0].subpath
                 for key, routes in topo._aux_memo.items()}
        assert first == {(600,): ("a", "d", "e", "b"), (700,): ("a", "c", "b")}

    def test_zero_penalty_split_wins_the_tie_with_the_whole_path(self):
        # a-c weighs 0.1 + 0.2 whole and split alike when no new lightpath
        # costs anything; the search then ranks a-b-c before a-c on node
        # order, so the first route cannot be read off the paths
        topo = mk_topo("t", [("a", "b", 0.1), ("b", "c", 0.2)])
        state = NetworkState(topo, "TrIP", PlannerConfig(), FREE)
        demand = Demand("a", "c", 100)
        route_demand(state, demand)
        (routes,) = topo._aux_memo.values()
        first = next(copy.copy(routes))
        assert [e.subpath for e in first] == [("a", "b"), ("b", "c")]
        (whole,) = candidate_graph(state, demand)[0][("a", "c")]
        assert first[0].weight + first[1].weight == whole.weight == 0.30000000000000004
        fresh = reference_engine.candidate_edges(
            NetworkState(mk_topo("t", [("a", "b", 0.1), ("b", "c", 0.2)]), "TrIP",
                         PlannerConfig(), FREE), demand)
        fresh = {uv: tuple(sorted(alts)) for uv, alts in fresh.items()}
        assert first == fresh_routes(fresh, "a", "c")[0]

    @pytest.mark.parametrize("arch", ["TrIP", "TrZR"])
    def test_candidate_weights_sum_left_to_right(self, arch):
        # 10.1 + 100.1 + 98.76 is 208.95999999999998 left to right, as
        # path_length_km adds; sum() of floats compensates from Python 3.12 on
        # and gives 208.96, which stays apart once the penalty is added
        topo = mk_topo("t", [("a", "b", 10.1), ("b", "c", 100.1), ("c", "d", 98.76)])
        state = NetworkState(topo, arch, PlannerConfig())
        edges, _, routes = candidate_graph(state, Demand("a", "d", 100))
        weights = {e.subpath: e.weight for alts in edges.values() for e in alts}
        assert weights[("a", "b", "c", "d")] == 208.95999999999998 + 2.0
        assert weights == {sub: topo.path_length_km(sub) + 2.0 for sub in weights}
        assert len(weights) == (6 if arch == "TrIP" else 1)
        # the first route, read off the paths, sums the same way
        assert routes[0] == [edges[("a", "d")][0]]
        assert routes[0][0].weight == 208.95999999999998 + 2.0
        # every mode reaches the longest link, 100.1 km, so the one entry
        # is keyed with no limit
        (key,) = topo._aux_memo
        assert len(key) == 5 and rmsa._reach_limit(state, 100) == math.inf

    def test_grooming_edges_alone_best_first(self):
        # lightpaths opened longest first, so id order is not weight order;
        # key (a, b) also has candidate edges, which the graph leaves out
        topo = mk_topo("t", [("a", "b", 20), ("a", "c", 1500), ("c", "b", 1500)])
        state = NetworkState(topo, "TrIP", PlannerConfig())
        qpsk = DEFAULT_CATALOG[-1]
        for route in (("a", "c", "b"), ("a", "b"), ("b", "c", "a"), ("b", "a")):
            open_lightpath(state, route, qpsk)
        edges = build_auxiliary_graph(state, Demand("a", "b", 100))
        assert {key: [e.lp_id for e in alts] for key, alts in edges.items()} == {
            ("a", "b"): [2, 1], ("b", "a"): [4, 3]}  # 0.2, 30 and 0.2, 30

    def test_alternatives_strictly_ordered(self):
        for seed in range(10):
            topo, m = toy_instance(seed)
            for arch in ARCH_NAMES:
                states = (NetworkState(topo, arch, PlannerConfig()),
                          provision_all(topo, m, arch))
                for state in states:
                    for demand in m.demands:
                        # the candidate edges too: on the empty state TrIP's
                        # graph is empty, having no grooming pair, and TrZR's
                        # always is
                        candidates, adj, _ = candidate_graph(state, demand)
                        graph = build_auxiliary_graph(state, demand)
                        if not state.arch.intermediate_ip_grooming:
                            assert graph == {}
                        for graph in (graph, candidates):
                            for (u, v), alts in graph.items():
                                assert all((e.u, e.v) == (u, v) for e in alts)
                                order = [(e.weight, e.kind, e.lp_id, e.subpath) for e in alts]
                                assert all(a < b for a, b in zip(order, order[1:])), order
                        # the adjacency holds each candidate pair's best weight
                        assert adj == {u: {v: alts[0].weight for (x, v), alts in
                                           candidates.items() if x == u}
                                       for u in {u for u, _ in candidates}}


def tight_g17():
    """g17 on the benchmark's 12-channel grid, where flows block and retry."""
    return dataclasses.replace(load_named_topology("g17"), grid=ChannelGrid(12, 100))


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_planned_topology_freed_by_reference_counting(arch):
    # no memo entry refers back to the topology or to a state, so both go
    # as their last reference does, with the cycle collector off; retries
    # build candidate graphs, so every memo is filled
    enabled = gc.isenabled()
    gc.disable()
    try:
        topo = tight_g17()
        state = provision_all(topo, generate_traffic(topo, load_scenario("TS3"), 0), arch)
        assert any(reason == "no_spectrum" for _, reason in state.blocked)
        assert topo._aux_memo and topo._plan_memo
        refs = weakref.ref(topo), weakref.ref(state)
        del topo, state
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


class TestPlanMemo:
    def test_warm_topology_plans_like_a_fresh_one(self):
        # every plan after the first reads its IP-regenerated edges' plans
        # from the topology; states match a fresh topology's, ids included
        shared = tight_g17()
        m = generate_traffic(shared, load_scenario("TS3"), 0)
        fresh = {arch: provision_all(tight_g17(), m, arch).to_dict() for arch in ARCH_NAMES}
        assert all(state["blocked"] for state in fresh.values())
        for _ in range(2):
            for arch in ARCH_NAMES:
                assert provision_all(shared, m, arch).to_dict() == fresh[arch], arch
        assert list(shared._plan_memo) == [DEFAULT_CATALOG]

    def test_catalog_keys_the_memo(self):
        # halved reaches regenerate where the default catalog does not; one
        # topology planned with the default catalog, then with the halved
        # one, plans the halved one like a fresh topology
        half = tuple(dataclasses.replace(m, reach_km=m.reach_km / 2) for m in DEFAULT_CATALOG)
        shared = load_named_topology("j14")
        m = generate_traffic(shared, load_scenario("TS1"), 0)
        for arch in ARCH_NAMES:
            default = provision_all(shared, m, arch).to_dict()
            custom = provision_all(shared, m, arch, catalog=half).to_dict()
            fresh = provision_all(load_named_topology("j14"), m, arch, catalog=half).to_dict()
            assert custom == fresh != default, arch
        assert set(shared._plan_memo) == {DEFAULT_CATALOG, half}

    def test_unreachable_hop_fails_alike_cold_and_warm(self):
        # OpIP's hop edge over a fiber beyond every mode's reach: the memo
        # keeps the failure's message, not the exception and its traceback,
        # and every read raises it afresh
        topo = mk_topo("t", [("a", "b", 3200), ("b", "c", 100)])
        messages = []
        for _ in range(2):
            state = NetworkState(topo, "OpIP", PlannerConfig())
            (edge,) = rmsa._hop_graph(state)[0][("a", "b")]
            with pytest.raises(NoFeasibleMode) as raised:
                rmsa._realize_candidate_edge(state, edge, 100, "a->b#0", [])
            messages.append(str(raised.value))
            assert not state.lightpaths
        assert messages == ["no mode carries 100G over hops [3200.0]"] * 2
        assert topo._plan_memo[DEFAULT_CATALOG] == {(("a", "b"), 100): messages[0]}

    @pytest.mark.parametrize("links, routes", [
        (LINE_SHORT, [("a", "b", "c")]),
        (LINE_XLONG, [("a", "b"), ("b", "c")]),  # 3200 km: the router at b regenerates
    ], ids=["uncut", "regenerated"])
    def test_plan_holds_each_lightpath_but_its_spectrum(self, links, routes):
        topo = mk_topo("t", links)
        state = NetworkState(topo, "TrIP", PlannerConfig())
        subpath = ("a", "b", "c")
        placements = []
        rmsa._realize_candidate_edge(state, AuxEdge(0.0, _NEW, -1, subpath, "a", "c"), 100,
                                     "a->c#0", placements)
        plan = topo._plan_memo[DEFAULT_CATALOG][subpath, 100]
        assert [route for route, *_ in plan] == routes
        for (route, mode, b2b, amount, km, segments), (lp_id, rate) in zip(plan, placements,
                                                                           strict=True):
            lp = state.lightpaths[lp_id]
            assert (lp.route, lp.mode, lp.b2b_regen_nodes) == (route, mode, b2b)
            assert [s.nodes for s in lp.segments] == list(segments) == [route]
            assert lp.length_km == km == topo.path_length_km(route)
            assert rate == amount == 100
        # an uncut subpath is stored as the edge's own tuple, not a copy
        assert (plan[0][0] is subpath) == (len(plan) == 1)


class TestAuxShortestPath:
    def test_equal_weights_resolve_on_nodes_then_alternative_order(self):
        def edge(u, v, weight, kind=_NEW, lp_id=-1):
            return AuxEdge(weight, kind, lp_id, () if kind == _GROOM else (u, v), u, v)

        # a-b-d, a-c-d and a-d all weigh 2; (a, b) holds a grooming and a
        # candidate edge of equal weight, and the grooming edge sorts first
        edges = {
            ("a", "d"): [edge("a", "d", 2.0)],
            ("a", "c"): [edge("a", "c", 1.0)],
            ("c", "d"): [edge("c", "d", 1.0)],
            ("a", "b"): [edge("a", "b", 1.0, _GROOM, 7), edge("a", "b", 1.0)],
            ("b", "d"): [edge("b", "d", 1.0)],
        }
        for graph in (edges, dict(reversed(list(edges.items())))):
            path = _aux_shortest_path(graph, "a", "d", _adjacency(graph))
            assert path == [edges[("a", "b")][0], edges[("b", "d")][0]]
        del edges[("a", "b")]
        adj = _adjacency(edges)
        assert _aux_shortest_path(edges, "a", "d", adj) == edges[("a", "c")] + edges[("c", "d")]
        assert _aux_shortest_path(edges, "d", "a", adj) is None


class TestShortestPathReads:
    def test_opip_runs_no_spur_search(self):
        # OpIP reads shortest paths only, so topology's search runs without
        # a target (each source's tree, once) but never as Yen's spur search,
        # which has one
        topo = load_named_topology("j14")
        m = generate_traffic(topo, load_scenario("TS1"), 0)
        search = topology.lexicographic_dijkstra
        targets = []

        def traced(adj, src, dst, *args):
            targets.append(dst)
            return search(adj, src, dst, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "lexicographic_dijkstra", traced)
            state = provision_all(topo, m, "OpIP")
        assert state_digest(state) == GOLDEN_STATE_DIGESTS[("j14", "OpIP")]
        assert targets == [None] * len(topo.nodes)
        assert sorted(topo._spt_memo) == list(topo.nodes)

    @pytest.mark.parametrize("name", ["j14", "g17"])
    def test_shortest_km_is_the_first_of_three_paths(self, name):
        # k=3 on a twin topology, so its first path comes from a tree of its own
        topo, twin = load_named_topology(name), load_named_topology(name)
        state = NetworkState(topo, "TrIP", PlannerConfig())
        for src, dst in permutations(topo.nodes, 2):
            first = k_shortest_paths(twin, src, dst, 3)[0]
            km = topo.path_length_km(first)
            assert k_shortest_paths(topo, src, dst, 1) == (first,)
            assert state.shortest_km(src, dst).hex() == km.hex()
            tree, _ = topo._spt_memo[src]
            dist, path = tree[dst]
            assert path == first and dist.hex() == km.hex()

    def test_opip_leaves_the_memoized_adjacency_unwritten(self):
        # OpIP copies only the adjacency rows its grooming pairs change, and
        # a retry copies the whole graph before it drops an edge; on the
        # benchmark's spectrum-tight setting OpIP blocks after retries
        topo = load_named_topology("g17")
        topo = dataclasses.replace(topo, grid=ChannelGrid(12, 100))
        state = provision_all(topo, generate_traffic(topo, load_scenario("TS3"), 0), "OpIP")
        assert any(reason == "no_spectrum" for _, reason in state.blocked)
        alternatives, adj = topo._aux_memo[rmsa._HOP_KEY]
        assert adj == rmsa._adjacency(alternatives)


def test_opip_grooming_edges_sort_before_their_hop_edge():
    # OpIP appends each grooming pair's hop edge without sorting again: every
    # OpIP lightpath spans one fiber, so its grooming edge weighs less than
    # the fiber's hop edge
    topo = load_named_topology("j14")
    m = generate_traffic(topo, load_scenario("TS3"), 0)
    seen = 0
    for state in (provision_all(topo, m, "OpIP"), *(
            provision_all(*toy_instance(seed), "OpIP") for seed in range(20))):
        hop_edges, _ = rmsa._hop_graph(state)
        for rate in (100, 200, 300):  # the graph reads the demand's rate alone
            demand = Demand(*state.topology.nodes[:2], rate)
            for key, alts in build_auxiliary_graph(state, demand).items():
                assert alts[-1] < hop_edges[key][0]
                seen += 1
    assert seen


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from(ARCH_NAMES))
def test_provisioning_invariants(seed, arch):
    topo, m = toy_instance(seed)
    state = provision_all(topo, m, arch)

    # spectrum bookkeeping is exactly the union of segment claims
    state.audit()
    assert not state.blocked

    for lp in state.lightpaths.values():
        # transparent segments never exceed the mode reach
        for seg in lp.segments:
            assert topo.path_length_km(seg.nodes) <= lp.mode.reach_km
        # the stored length is set once from the route
        assert lp.length_km == topo.path_length_km(lp.route)
        # capacity is never oversubscribed
        assert lp.residual >= 0
        assert lp.carried
        if arch == "OpIP":
            assert len(lp.route) == 2
        if arch == "TrZR":
            assert len(lp.carried) == 1

    # every demand is fully carried
    for demand in m.demands:
        flows = state.records[demand.key]
        assert sum(f.rate_gbps for f in flows) == demand.rate_gbps
        for f in flows:
            assert f.placements
            for lp_id, rate in f.placements:
                lp = state.lightpaths[lp_id]
                assert (f.flow_id, rate) in lp.carried
                if arch != "TrZR":
                    assert rate == f.rate_gbps


# a 150G mode, which is no traffic class: the IP-regenerating architectures
# split long demands into 150G and 50G sub-flows, and TrZR opens 150G channels
ODD_RATE = (
    TransceiverMode("ZR", "16QAM", 120, 400, 1.0, 1.0),
    TransceiverMode("ZR+", "16QAM", 600, 400, 1.3, 2.0),
    TransceiverMode("ZR+", "QPSK", 3000, 150, 1.3, 2.0),
)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_catalog_rates_outside_the_traffic_classes_plan(arch):
    flow_rates, lp_rates = set(), set()
    for name in ("j14", "g17"):
        topo = load_named_topology(name)
        for scenario in ("TS1", "TS3"):
            m = generate_traffic(topo, load_scenario(scenario), 0)
            state = provision_all(topo, m, arch, PlannerConfig(), ODD_RATE)  # audits
            blocked = {d.key for d, _ in state.blocked}
            assert not blocked & state.records.keys()
            for demand in m.demands:
                if demand.key not in blocked:
                    flows = state.records[demand.key]
                    assert sum(f.rate_gbps for f in flows) == demand.rate_gbps
                    flow_rates |= {f.rate_gbps for f in flows}
            lp_rates |= {lp.mode.rate_gbps for lp in state.lightpaths.values()}
    if ARCHITECTURES[arch].ip_regeneration:
        assert {50, 150} <= flow_rates
    if ARCHITECTURES[arch].optical_bypass:
        assert 150 in lp_rates


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_audit_holds_under_blocking_and_undo(seed, channels):
    # one or two channels make many demands block, which runs the chain
    # rollback in _place_chain and the release of a blocked demand's placed
    # sub-flows through _release; audit() then checks the bookkeeping they
    # restore, and the asserts below what the kept lightpaths and demands hold
    topo, m = toy_instance(seed, max_nodes=5, max_demands=10)
    topo = dataclasses.replace(topo, grid=ChannelGrid(channels, 100))
    for arch in ARCH_NAMES:
        state = provision_all(topo, m, arch)
        state.audit()
        assert len(state.records) + len(state.blocked) == len(m.demands)
        for lp in state.lightpaths.values():
            assert lp.length_km == topo.path_length_km(lp.route)
            for seg in lp.segments:
                assert topo.path_length_km(seg.nodes) <= lp.mode.reach_km
        for demand in m.demands:
            if demand.key in state.records:
                flows = state.records[demand.key]
                assert sum(f.rate_gbps for f in flows) == demand.rate_gbps


def fresh_routes(edges, src, dst):
    """The routes a flow may try over ``edges``, each found by a search after
    the drops of the ones before it, on a copy of the graph."""
    edges = {key: list(alts) for key, alts in edges.items()}
    found = []
    while len(found) < rmsa.MAX_RETRIES:
        route = _aux_shortest_path(edges, src, dst, _adjacency(edges))
        if route is None:
            break
        found.append(route)
        key = route[0].u, route[0].v
        del edges[key][0]
        if not edges[key]:
            del edges[key]
    return found


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
@example(282, 2)  # TrIPandZR's merges remove four lightpaths that can groom
def test_groom_index_and_route_memo_match_a_full_scan(seed, channels):
    # the blocking and undo setting above, where lightpaths open, fill, empty
    # and merge: after every demand the grooming edges drawn from the index
    # equal a scan of the lightpaths where the architecture grooms at
    # intermediate routers (TrZR keeps no index), and every bypass
    # candidate graph, TrZR's included, holds the edges and adjacency of a
    # fresh build, and its memoized routes, read to the end of the sequence,
    # are those of a fresh search, on a copy of the topology that the engine
    # never plans on
    topo, m = toy_instance(seed, max_nodes=5, max_demands=10)
    topo = dataclasses.replace(topo, grid=ChannelGrid(channels, 100))
    twin = dataclasses.replace(topo)
    pairs = sorted({(d.src, d.dst) for d in m.demands})
    probes = [Demand(src, dst, rate) for src, dst in pairs for rate in (100, 200, 300, 400)]
    expected = {}  # (arch, probe) -> the fresh edges and their routes
    checked = set()

    def check(state):
        state.audit()
        if not state.arch.intermediate_ip_grooming:
            assert state.groomable == {}
        for demand in probes:
            if state.arch.intermediate_ip_grooming:
                scan = reference_engine.grooming_edges(state, demand)
                assert build_auxiliary_graph(state, demand) == {
                    key: sorted(alts) for key, alts in scan.items()}
            if not state.arch.optical_bypass:
                continue
            key = (state.arch.name, demand)
            if key not in expected:
                fresh = reference_engine.candidate_edges(
                    NetworkState(twin, state.arch.name, state.cfg), demand)
                fresh = {uv: tuple(sorted(alts)) for uv, alts in fresh.items()}
                expected[key] = fresh, fresh_routes(fresh, demand.src, demand.dst)
            edges, adj, routes = candidate_graph(state, demand)
            fresh, fresh_found = expected[key]
            assert edges == fresh
            assert adj == rmsa._adjacency(fresh)
            assert routes == fresh_found
            checked.add(state.arch.name)

    def checked_route_demand(state, demand, deferred=None):
        try:
            return route_demand(state, demand, deferred)
        finally:
            check(state)

    for arch in ARCH_NAMES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rmsa, "route_demand", checked_route_demand)
            state = provision_all(topo, m, arch)
        check(state)
    assert "TrZR" in checked  # TrZR's routes


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.sampled_from(TIE_WEIGHTS))
def test_first_route_off_the_tree_matches_a_full_build(seed, weights):
    # few distinct lengths, so many pairs have two shortest paths: the first
    # route, read off the source's tree where the shortest path is strict and
    # off Yen's k paths where it ties, is the first route of a fresh search
    # over the edges of all k paths, and a generator read on to the end
    # replays that search without an AssertionError
    topo = random_topology(seed, weights)
    twin = dataclasses.replace(topo)
    for arch in ("TrIP", "TrZR"):
        for k in (1, 2, 3):
            for catalog in (DEFAULT_CATALOG, DEAR):
                cfg = PlannerConfig(k)
                state = NetworkState(topo, arch, cfg, catalog)
                for src, dst in permutations(topo.nodes, 2):
                    demand = Demand(src, dst, 100)
                    fresh = reference_engine.candidate_edges(
                        NetworkState(twin, arch, cfg, catalog), demand)
                    fresh = fresh_routes({uv: tuple(sorted(alts)) for uv, alts in fresh.items()},
                                         src, dst)
                    assert next(rmsa._candidate_routes(state, demand)) == fresh[0]
                    assert list(rmsa._candidate_routes(state, demand)) == fresh


def test_yen_runs_for_a_tied_pair_only(monkeypatch):
    # a-b-d and a-c-d are equally long, so d is tied in a's tree and the
    # first route to d needs Yen's paths; a-b is strictly shortest, so its
    # first route is read off the tree, and Yen runs for it on a retry only
    topo = mk_topo("t", [("a", "b", 100), ("b", "d", 100), ("a", "c", 100), ("c", "d", 100)])
    state = NetworkState(topo, "TrIP", PlannerConfig())
    yen, calls = rmsa._yen, []
    monkeypatch.setattr(rmsa, "_yen", lambda adj, first, k: calls.append(first) or yen(adj, first, k))
    assert topology.tied_nodes(topo, "a") == {"d"}
    (edge,) = next(rmsa._candidate_routes(state, Demand("a", "b", 100)))
    assert edge.subpath == ("a", "b") and calls == []
    (edge,) = next(rmsa._candidate_routes(state, Demand("a", "d", 100)))
    assert edge.subpath == ("a", "b", "d") and calls == [("a", "b", "d")]
    assert len(list(rmsa._candidate_routes(state, Demand("a", "b", 100)))) > 1
    assert calls == [("a", "b", "d"), ("a", "b")]


def test_memoized_retries_replan_without_a_search():
    # TrZR on the benchmark's spectrum-tight setting blocks and retries; a
    # second plan on the same topology takes every route from the memo
    topo = load_named_topology("g17")
    topo = dataclasses.replace(topo, grid=ChannelGrid(12, 100))
    m = generate_traffic(topo, load_scenario("TS3"), 0)
    search = rmsa.lexicographic_dijkstra
    runs = []
    for _ in range(2):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rmsa, "lexicographic_dijkstra",
                       lambda *args: calls.append(args) or search(*args))
            state = provision_all(topo, m, "TrZR")
        runs.append((len(calls), state_digest(state)))
    assert any(reason == "no_spectrum" for _, reason in state.blocked)
    assert runs[0][0] > len(m.demands)  # retries searched on the first plan
    assert runs[1] == (0, runs[0][1])


def test_routes_stop_at_max_retries():
    # 40 parallel a-b alternatives: a flow tries MAX_RETRIES of them, best
    # first, and the graph it was given is left as it was
    alts = tuple(AuxEdge(float(i), _NEW, -1, ("a", "b"), "a", "b") for i in range(40))
    edges = {("a", "b"): alts}
    adj = {"a": {"b": 0.0}}
    assert [route[0] for route in rmsa._routes(edges, adj, "a", "b")] == list(
        alts[:rmsa.MAX_RETRIES])
    assert edges == {("a", "b"): alts} and adj == {"a": {"b": 0.0}}


# ZR+ 16QAM reaches 300 km only, so the reach rule drops the 400 and 500 km
# hops of the toy instances from 400G flows' subpaths; same penalty
SHORT_400G = tuple(dataclasses.replace(m, reach_km=300) if m.key == ("ZR+", "16QAM", 400)
                   else m for m in DEFAULT_CATALOG)


def routing_log(topo, m, arch, router, catalog=DEFAULT_CATALOG):
    """(outcome of every routed flow, final state digest) with ``router``
    as the engine's flow router; an outcome is the placements or the blocked
    reason, and the lightpath ids handed out so far, which count the
    lightpaths each failed try opened and tore down."""
    log = []

    def logged(state, flow):
        try:
            router(state, flow)
        except BlockedError as exc:
            log.append((flow.flow_id, exc.reason, state._next_id))
            raise
        log.append((flow.flow_id, list(flow.placements), state._next_id))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmsa, "_route_flow", logged)
        state = provision_all(topo, m, arch, catalog=catalog)
    return log, state_digest(state)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from([None, 1, 2]),
       st.sampled_from([DEFAULT_CATALOG, SHORT_400G]))
@example(52, 1, DEFAULT_CATALOG)  # blocks 4 demands, TrIPandZR merges
@example(282, 2, SHORT_400G)
def test_per_architecture_graphs_route_like_the_merged_graph(seed, channels, catalog):
    # every flow, routed or blocked, tried and retried, ends as it does over
    # one merged graph of scanned grooming edges and fresh candidate edges
    topo, m = toy_instance(seed, max_nodes=5, max_demands=10)
    if channels is not None:
        topo = dataclasses.replace(topo, grid=ChannelGrid(channels, 100))
    engine = rmsa._route_flow
    for arch in ARCH_NAMES:
        expected = routing_log(topo, m, arch, reference_engine.route_flow, catalog)
        assert routing_log(topo, m, arch, engine, catalog) == expected, arch


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_per_architecture_graphs_route_like_the_merged_graph_on_g17(arch):
    # the benchmark's spectrum-tight setting: g17 on 12 channels, TS3
    topo = load_named_topology("g17")
    topo = dataclasses.replace(topo, grid=ChannelGrid(12, 100))
    m = generate_traffic(topo, load_scenario("TS3"), 0)
    expected = routing_log(topo, m, arch, reference_engine.route_flow)
    assert any(isinstance(outcome, str) for _, outcome, _ in expected[0])  # blocking
    assert routing_log(topo, m, arch, rmsa._route_flow) == expected


# Hand-built instances where a groom chain runs over a grooming edge that
# sorts after its pair's best candidate edge, which random toy instances
# almost never build: a 100G flow on 3,000 km of a-c-b (QPSK 200G, 100G
# spare) against the 20 km a-b link, whose one channel a 400G flow holds;
# keyed by the length of the chain.
LOSING_GROOM_CASES = {
    # a-e's 100G flow opens a-c-b (regenerated at b) before a-b's 100G
    # flow, which then meets a one-lightpath chain over it
    1: ([("a", "b", 20), ("a", "c", 1100), ("c", "b", 1900), ("a", "e", 10),
         ("b", "e", 200)],
        [Demand("a", "b", 500), Demand("a", "e", 500)]),
    # a-b's 100G flow opens a-c-b and d-a's one d-a; d-b's flow then meets
    # the chain d-a, a-c-b
    2: ([("a", "b", 20), ("a", "c", 1500), ("c", "b", 1500), ("d", "a", 10)],
        [Demand("a", "b", 500), Demand("d", "a", 100), Demand("d", "b", 100)]),
}


@pytest.mark.parametrize("hops", sorted(LOSING_GROOM_CASES))
def test_per_architecture_graphs_route_like_the_merged_graph_where_grooming_loses(hops):
    # the groom chain searches every grooming pair, where the merged graph
    # searched only the pairs whose best edge grooms; the length bound
    # rejects every chain the two searches would tell apart
    links, demands = LOSING_GROOM_CASES[hops]
    topo, m = mk_topo("t", links, channels=1), matrix(*demands)
    search = rmsa._try_groom_chain
    losing = []

    def spied(state, flow):
        demand = Demand(flow.src, flow.dst, flow.rate_gbps)
        candidates = reference_engine.candidate_edges(state, demand)
        edges = build_auxiliary_graph(state, demand)  # every grooming pair
        chain = _aux_shortest_path(edges, flow.src, flow.dst, _adjacency(edges)) or ()
        if any(min(candidates.get((e.u, e.v), (e,))) < e for e in chain):
            losing.append((flow.flow_id, len(chain)))
        return search(state, flow)

    for arch in GROOMING_ARCHS:
        expected = routing_log(topo, m, arch, reference_engine.route_flow)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rmsa, "_try_groom_chain", spied)
            assert routing_log(topo, m, arch, rmsa._route_flow) == expected, arch
    assert losing and {n for _, n in losing} == {hops}


# Hand-built grooming graphs where the chain search's length bound C drops
# pushes: (links, the routes of the lightpaths, the groom chain's flow, the
# chain the engine places or None). The lightpaths run QPSK 200G and carry
# nothing, so a 100G flow may ride each.
BOUND_CASES = {
    # a-b-c's 200 km chain against the 150 km a-c link: the push over b-c
    # (weight 2.0 > 1.5) is dropped and no chain reaches c; unpruned, the
    # chain is found and the length bound rejects it
    "beyond-bound": ([("a", "b", 100), ("b", "c", 100), ("a", "c", 150)],
                     [("a", "b"), ("b", "c")], ("a", "c"), None),
    # a 3-hop chain lighter than a 2-hop one, both within C: a-x-y-d and
    # a-z-d each span the 300 km of the shortest route, but a-z-d's weights
    # 0.01 * 4.4 + 0.01 * 295.6 sum to 3.0000000000000004 against
    # 1.0 + 1.0 + 1.0 = 3.0. The 3-hop chain is the shortest, so the hop
    # limit blocks the flow, where a search that stopped at 2 hops would
    # place a-z-d (lengths within C must sum to the shortest route's, so
    # the lighter chain is lighter by one rounding)
    "3-hop-lighter": ([("a", "x", 100), ("x", "y", 100), ("y", "d", 100), ("a", "z", 4.4),
                       ("z", "d", 295.6)],
                      [("a", "x"), ("x", "y"), ("y", "d"), ("a", "z"), ("z", "d")],
                      ("a", "d"), None),
    # the same with a tie: a-b-c-d and a-e-d both weigh 3.0 and span the
    # 300 km of the shortest route; (a, b, c, d) sorts first
    "3-hop-tie": ([("a", "b", 100), ("b", "c", 100), ("c", "d", 100), ("a", "e", 150),
                   ("e", "d", 150)],
                  [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "d")],
                  ("a", "d"), None),
    # 0.0 + 0.001 + 0.051 is 0.052, above 0.01 * 5.2 = 0.05199999999999999:
    # the chain spans exactly the shortest route, and C's 1e-9 slack keeps it
    "rounding-slack": ([("x", "y", 0.1), ("y", "z", 5.1)],
                       [("x", "y"), ("y", "z")], ("x", "z"), [1, 2]),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_groom_chain_search_stops_at_the_length_bound(case):
    # the engine's pruned search over the index places what a full search of
    # the scanned grooming edges, the hop limit and the length bound place
    links, lightpaths, (src, dst), placed = BOUND_CASES[case]
    topo = mk_topo("t", links)
    qpsk = DEFAULT_CATALOG[3]
    assert qpsk.rate_gbps == 200

    def built(arch):
        state = NetworkState(topo, arch, PlannerConfig())
        for route in lightpaths:
            state.add(rmsa.Lightpath(state.new_lp_id(), route, qpsk, [rmsa.Segment(route, 0)],
                                     length_km=topo.path_length_km(route)))
        flow = rmsa.FlowRecord(f"{src}->{dst}#0", src, dst, 100)
        state.records[src, dst] = [flow]
        return state, flow

    for arch in ("TrIP", "TrIPandZR"):
        state, flow = built(arch)
        edges = build_auxiliary_graph(state, Demand(src, dst, 100))
        expected = reference_engine.groom_chain(state, flow, edges)
        assert ([e.lp_id for e in expected] if expected else None) == placed
        assert rmsa._try_groom_chain(state, flow) == (placed is not None)
        assert [lp_id for lp_id, _ in flow.placements] == (placed or [])
        state.audit()
    if case.startswith("3-hop"):
        # the unpruned shortest chain has 3 hops; without its middle
        # lightpath the 2-hop chain passes both checks
        state, flow = built("TrIP")
        edges = build_auxiliary_graph(state, Demand(src, dst, 100))
        assert len(_aux_shortest_path(edges, src, dst, _adjacency(edges))) == 3
        del edges[lightpaths[1]]
        assert [e.lp_id for e in reference_engine.groom_chain(state, flow, edges)] == [4, 5]


def test_groom_chain_search_drops_pushes_beyond_the_bound(monkeypatch):
    # "beyond-bound": the search pushes a-b (1.0 <= 1.5) and drops b-c
    topo = mk_topo("t", BOUND_CASES["beyond-bound"][0])
    state = NetworkState(topo, "TrIP", PlannerConfig())
    for route in (("a", "b"), ("b", "c")):
        open_lightpath(state, route, DEFAULT_CATALOG[3])
    pushes = []
    push = rmsa.heappush
    monkeypatch.setattr(rmsa, "heappush",
                        lambda heap, item: pushes.append(item) or push(heap, item))
    assert not rmsa._try_groom_chain(state, rmsa.FlowRecord("a->c#0", "a", "c", 100))
    assert pushes == [(1.0, ("a", "b"))]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
@example(52, 1)
@example(271, 2)
@example(282, 2)
def test_merge_index_matches_a_scan(seed, channels):
    topo, m = toy_instance(seed, max_nodes=5, max_demands=10)
    topo = dataclasses.replace(topo, grid=ChannelGrid(channels, 100))
    results = []
    for merge in (reference_engine.merge_pure_ip_regens, rmsa.merge_pure_ip_regens):
        merges = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rmsa, "merge_pure_ip_regens", lambda state: merges.append(merge(state)))
            state = provision_all(topo, m, "TrIPandZR")
        results.append((merges, state_digest(state)))
    assert results[1] == results[0]
