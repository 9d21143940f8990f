import pytest

from helpers import mk_topo, toy_instance
from oracle import (
    Infeasible,
    InstanceTooLarge,
    enumerate_simple_paths,
    exhaustive_min_channel_split,
    exhaustive_min_cost_provision,
    exhaustive_regen_min,
)
from ipowdm.dimensioning import network_cost
from ipowdm.rmsa import provision_all
from ipowdm.traffic import Demand, TrafficMatrix
from ipowdm.transceiver import DEFAULT_CATALOG

TRIANGLE = mk_topo("tri", [("A", "B", 1), ("B", "C", 1), ("A", "C", 3)])


class TestPathEnumeration:
    def test_triangle_paths_sorted_by_length(self):
        assert enumerate_simple_paths(TRIANGLE, "A", "C") == [
            ["A", "B", "C"],
            ["A", "C"],
        ]

    def test_no_revisits(self):
        topo, _ = toy_instance(7)
        for src in topo.nodes:
            for dst in topo.nodes:
                if src == dst:
                    continue
                for path in enumerate_simple_paths(topo, src, dst):
                    assert len(set(path)) == len(path)


class TestRegenEnumeration:
    def test_three_long_hops(self):
        assert exhaustive_regen_min([500, 500, 500], 600) == 2

    def test_no_regen_needed(self):
        assert exhaustive_regen_min([600], 600) == 0

    def test_oversized_link_infeasible(self):
        assert exhaustive_regen_min([700], 600) is None


class TestSplitEnumeration:
    def test_two_channel_split(self):
        count, modes = exhaustive_min_channel_split(600, [500])
        assert count == 2
        assert sum(m.rate_gbps for m in modes) >= 600

    def test_single_channel(self):
        count, modes = exhaustive_min_channel_split(400, [100])
        assert count == 1 and modes[0].rate_gbps == 400

    def test_infeasible_when_no_regen_site(self):
        with pytest.raises(Infeasible):
            exhaustive_min_channel_split(100, [3100])


class TestMinCostProvision:
    def test_opaque_single_short_link(self):
        topo = mk_topo("t", [("a", "b", 100)])
        cost, ports = exhaustive_min_cost_provision(topo, [Demand("a", "b", 400)], "OpIP")
        assert (cost, ports) == (2.0, 2)

    def test_router_regen_pays_ports(self):
        # 1200 km end to end forces a mid-span regeneration; without
        # back-to-back modules the regenerating router terminates both legs
        topo = mk_topo("t", [("a", "b", 600), ("b", "c", 600)])
        demands = [Demand("a", "c", 400)]
        assert exhaustive_min_cost_provision(topo, demands, "TrIP") == (8.0, 4)
        # the module-pair variant removes the two router ports at b
        assert exhaustive_min_cost_provision(topo, demands, "TrIPandZR") == (8.0, 2)

    def test_trzr_single_link(self):
        topo = mk_topo("t", [("a", "b", 100)])
        cost, ports = exhaustive_min_cost_provision(topo, [Demand("a", "b", 400)], "TrZR")
        assert (cost, ports) == (2.0, 2)

    def test_grooming_beats_dedicated_lightpaths(self):
        # two 100G flows share one 400G channel end to end
        topo = mk_topo("t", [("a", "b", 100)])
        demands = [Demand("a", "b", 100), Demand("a", "b", 100)]
        cost, ports = exhaustive_min_cost_provision(topo, demands, "TrIP")
        assert (cost, ports) == (2.0, 2)

    @pytest.mark.parametrize(
        "links,demands,channels",
        [
            ([(f"n{i}", f"n{i+1}", 100) for i in range(5)], 1, 10),  # 6 nodes
            ([("a", "b", 100)], 9, 10),
            ([("a", "b", 100)], 1, 11),
        ],
    )
    def test_size_guards(self, links, demands, channels):
        topo = mk_topo("t", links)
        dem = [Demand(topo.nodes[0], topo.nodes[1], 100)] * demands
        with pytest.raises(InstanceTooLarge):
            exhaustive_min_cost_provision(topo, dem, topo and "TrIP", channels)

    @pytest.mark.parametrize("arch", ["OpIP", "TrIP", "TrZR", "TrIPandZR"])
    def test_subflow_split_follows_catalog_maximum(self, arch):
        # without 400G modes a 500G demand splits into 300G channels, not 400G
        catalog = tuple(m for m in DEFAULT_CATALOG if m.rate_gbps != 400)
        topo = mk_topo("t", [("a", "b", 100), ("b", "c", 100)])
        demand = Demand("a", "c", 500)
        opt_cost, _ = exhaustive_min_cost_provision(topo, [demand], arch, catalog=catalog)
        state = provision_all(topo, TrafficMatrix("one", 0, (demand,)), arch, catalog=catalog)
        assert not state.blocked
        assert opt_cost <= network_cost(state).module_cost

    def test_lower_bound_for_heuristic(self):
        for seed in range(5):
            topo, m = toy_instance(seed)
            for arch in ("OpIP", "TrIP", "TrZR", "TrIPandZR"):
                opt_cost, _ = exhaustive_min_cost_provision(
                    topo, list(m.demands), arch
                )
                report = network_cost(provision_all(topo, m, arch))
                assert report.module_cost >= opt_cost - 1e-9
