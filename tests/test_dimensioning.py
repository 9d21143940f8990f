import json

import pytest

from helpers import mk_topo, toy_instance
from ipowdm.dimensioning import (
    DimensioningConfig,
    PowerBreakdown,
    PowerConfigError,
    PowerTable,
    dimension_network,
    load_power_config,
    network_cost,
    network_power,
)
from ipowdm.rmsa import provision_all
from ipowdm.traffic import Demand, TrafficMatrix

LINE = mk_topo("line", [("a", "b", 100), ("b", "c", 100)])


def provisioned(arch, links=None, *demands, channels=10):
    topo = mk_topo("t", links or [("a", "b", 100), ("b", "c", 100)], channels=channels)
    demands = demands or (Demand("a", "c", 400),)
    return provision_all(topo, TrafficMatrix("m", 0, tuple(demands)), arch)


class TestPowerTable:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            PowerTable(zr=-1.0)

    def test_breakdown_total_is_category_sum(self):
        pb = PowerBreakdown(1.0, 2.0, 3.5)
        assert pb.total == 6.5
        assert (pb + pb).total == 13.0

    def test_config_file_overrides(self, tmp_path):
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"power": {"zr": 2.5}, "dimensioning": {"adb_capacity": 16}}))
        pt, dc = load_power_config(path)
        assert pt.zr == 2.5
        assert pt.zr_plus == PowerTable().zr_plus  # untouched default
        assert dc.adb_capacity == 16

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"power": {"zrr": 1}}, "section 'power': unknown key 'zrr'"),
            ({"dimensioning": {"adb": 1}}, "section 'dimensioning': unknown key 'adb'"),
            ({"power": [1]}, "section 'power' must be a JSON object"),
            ({"powr": {}}, "unknown section 'powr'"),
            ([], "must be a JSON object"),
            ({"power": {"zr": "1"}}, "power entry zr must be a finite number >= 0, got '1'"),
            ({"power": {"awg": True}}, "power entry awg must be a finite number >= 0"),
            ({"power": {"oa_unidir": 1e999}}, "power entry oa_unidir must be a finite number"),
            # an int too large for a float, which float() refuses with OverflowError
            ({"power": {"zr": 10**400}}, "power entry zr must be a finite number >= 0, got 1000"),
            ({"dimensioning": {"adb_capacity": 0}},
             "dimensioning entry adb_capacity must be an int >= 1, got 0"),
            ({"dimensioning": {"shelf_slot_capacity": 2.5}},
             "dimensioning entry shelf_slot_capacity must be an int >= 1"),
            ({"dimensioning": {"oa_slots": -1}}, "dimensioning entry oa_slots must be an int >= 0"),
            ({"dimensioning": {"iroadm_slots": False}},
             "dimensioning entry iroadm_slots must be an int >= 0"),
            # a count whose equipment tally would be too large for a float
            ({"dimensioning": {"iroadm_slots": 10**400}},
             "dimensioning entry iroadm_slots must be <= 2\\*\\*53, got 1000"),
            ({"dimensioning": {"adb_capacity": 2**53 + 1}},
             "dimensioning entry adb_capacity must be <= 2\\*\\*53"),
        ],
        ids=["power-key", "dimensioning-key", "section-type", "section-name", "document-type",
             "power-string", "power-bool", "power-inf", "power-huge",
             "capacity-zero", "capacity-float", "slots-negative", "slots-bool",
             "slots-huge", "capacity-huge"],
    )
    def test_config_file_unknown_entry_named(self, tmp_path, doc, message):
        path = tmp_path / "power.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_power_config(path)

    def test_errors_are_power_config_errors(self, tmp_path):
        path = tmp_path / "power.json"
        path.write_text("{")
        with pytest.raises(PowerConfigError, match=f"power config {path}: invalid JSON"):
            load_power_config(path)
        path.write_text(json.dumps({"power": {"zr": -1}}))
        with pytest.raises(PowerConfigError, match="power entry zr must be a finite number"):
            load_power_config(path)
        with pytest.raises(PowerConfigError, match="dimensioning entry adb_slots"):
            DimensioningConfig(adb_slots=-1)


    def test_power_total_overflowing_to_inf_names_the_entry(self):
        # two ZR+ terminations at 1e308 each sum beyond a float; every
        # other entry's total stays finite
        state = provisioned("TrIP")
        with pytest.raises(PowerConfigError, match=(
                "^power entry zr_plus = 1e\\+308 overflows the power total of t/TrIP to inf$")):
            network_power(state, PowerTable(zr_plus=1e308))
        # the largest counts an input may give keep every total a number
        dc = DimensioningConfig(**dict.fromkeys(("iroadm_slots", "adb_slots", "oa_slots",
                                                 "monitoring_slots"), 2**53))
        for arch in ("OpIP", "TrIP"):
            _, total = network_power(provisioned(arch, channels=2**53), PowerTable(), dc)
            assert 0 < total.total < float("inf")


class TestNodeDimensioning:
    def test_transparent_node_counts(self):
        state = provisioned("TrIP")
        eq = dimension_network(state)["b"]
        # degree 2, 10-channel grid: 2 I-ROADMs, full add/drop in one bank
        assert eq.transparent
        assert eq.iroadm == 2
        assert eq.monitoring_units == 2
        assert eq.adb == eq.awg == eq.oa == 1
        # slots: 2*4 (iroadm) + 1 (adb) + 2 (monitoring) = 11 -> one shelf
        assert eq.shelves == 1
        # express node: the lightpath passes through b without terminating
        assert eq.router_ports == 0

    def test_opaque_node_counts(self):
        state = provisioned("OpIP")
        eq = dimension_network(state)["b"]
        assert not eq.transparent
        assert eq.iroadm == 0
        assert eq.awg == 4  # mux + demux per direction on both links
        assert eq.oa == 4
        assert eq.monitoring_units == 2
        assert eq.shelves == 1
        # every hop terminates: two lightpaths meet at b
        assert eq.router_ports == 2

    def test_transparent_node_power_hand_computed(self):
        state = provisioned("TrIP")
        pt = PowerTable()
        per_node, _ = network_power(state, pt)
        # degree-1 endpoint: shelf 20 + iroadm 3 + oa 1.5 + awg 0.5 + mon 0.9
        assert per_node["a"].optical == pytest.approx(25.9)
        # one ZR+ termination and one router port on one chassis
        assert per_node["a"].zr_zrplus == pytest.approx(1.3)
        assert per_node["a"].ip_router == pytest.approx(50.0 + 4.0)
        assert per_node["b"].optical == pytest.approx(20 + 6 + 1.5 + 0.5 + 1.8)

    def test_opaque_node_power_hand_computed(self):
        state = provisioned("OpIP")
        per_node, total = network_power(state)
        # degree-1 endpoint: shelf 20 + 2 oa + 2 awg + 1 monitoring unit
        assert per_node["a"].optical == pytest.approx(20 + 3.0 + 1.0 + 0.5)
        assert per_node["b"].ip_router == pytest.approx(50.0 + 8.0)
        assert total.total == pytest.approx(
            sum(pb.total for pb in per_node.values())
        )


class TestOpticalStaticDesign:
    def test_optical_power_independent_of_traffic(self):
        topo, m1 = toy_instance(1)
        _, m2 = toy_instance(1, max_demands=4)
        for arch in ("OpIP", "TrIP", "TrZR", "TrIPandZR"):
            a = network_power(provision_all(topo, m1, arch))[1].optical
            b = network_power(provision_all(topo, m2, arch))[1].optical
            assert a == b

    def test_bypass_archs_share_optical_design(self):
        topo, m = toy_instance(2)
        vals = {
            arch: network_power(provision_all(topo, m, arch))[1].optical
            for arch in ("TrIP", "TrZR", "TrIPandZR")
        }
        assert len(set(vals.values())) == 1


class TestModuleCost:
    def test_opaque_all_short_hops_uses_cheap_modules(self):
        report = network_cost(provisioned("OpIP"))
        assert report.zr_count == 4
        assert report.zrplus_count == 0
        assert report.b2b_modules == 0
        assert report.module_cost == 4.0
        assert report.router_ports == 4

    def test_mixed_module_weighting(self):
        # 100 km hop takes ZR (weight 1), 300 km hop takes ZR+ (weight 2)
        report = network_cost(
            provisioned("OpIP", [("a", "b", 100), ("b", "c", 300)])
        )
        assert (report.zr_count, report.zrplus_count) == (2, 2)
        assert report.module_cost == 2 * 1.0 + 2 * 2.0
        assert report.router_ports == 4

    def test_back_to_back_pairs_cost_modules_but_no_ports(self):
        report = network_cost(
            provisioned("TrZR", [("a", "b", 600), ("b", "c", 600)])
        )
        assert report.zrplus_count == 4  # 2 terminations + 1 b2b pair
        assert report.b2b_modules == 2
        assert report.module_cost == 8.0
        assert report.router_ports == 2
