import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    Infeasible,
    exhaustive_min_channel_split,
    exhaustive_regen_min,
)
from ipowdm import transceiver
from ipowdm.transceiver import (
    DEFAULT_CATALOG,
    CatalogError,
    LinkExceedsReach,
    NoFeasibleMode,
    TransceiverMode,
    MODULES,
    _order_key,
    load_catalog,
    plan_regeneration,
    select_mode_min_regens,
    select_modes_min_channels,
)


ZR_ROW = {"module": "ZR", "modulation": "16QAM", "reach_km": 120, "rate_gbps": 400,
          "power_units": 1.0, "cost_units": 1.0}
ZRP_ROW = dict(ZR_ROW, module="ZR+", reach_km=600, power_units=1.3, cost_units=2.0)

# hop lengths of the exhaustive-enumeration lattices
LENGTHS_POOL = (100, 300, 500, 600, 900, 1200)

BY_KEY = {m.key: m for m in DEFAULT_CATALOG}
ZRP_16QAM = BY_KEY[("ZR+", "16QAM", 400)]

# valid catalogs whose modes tie on rate, power and reach now and then
CATALOGS = st.lists(
    st.builds(TransceiverMode,
              module=st.sampled_from(MODULES),
              modulation=st.sampled_from(("QPSK", "8QAM", "16QAM")),
              reach_km=st.one_of(st.sampled_from((120.0, 600.0, 1800.0)), st.floats(50, 3000)),
              rate_gbps=st.sampled_from((100, 200, 300, 400)),
              power_units=st.sampled_from((1.0, 1.3)),
              cost_units=st.just(1.0)),
    min_size=1, max_size=6, unique_by=lambda m: m.key)


def _best_reaching(catalog, km):
    """The lowest-_order_key mode whose reach is at least km, or None."""
    return min((m for m in catalog if m.reach_km >= km), key=_order_key, default=None)


class TestCatalog:
    def test_default_operating_points(self):
        table = {(m.module, m.modulation, m.rate_gbps): m for m in DEFAULT_CATALOG}
        assert table[("ZR", "16QAM", 400)].reach_km == 120
        assert table[("ZR+", "16QAM", 400)].reach_km == 600
        assert table[("ZR+", "8QAM", 300)].reach_km == 1800
        assert table[("ZR+", "QPSK", 200)].reach_km == 3000
        assert table[("ZR+", "QPSK", 100)].reach_km == 3000
        assert table[("ZR", "16QAM", 400)].power_units == 1.0
        assert all(
            m.power_units == 1.3 for m in DEFAULT_CATALOG if m.module == "ZR+"
        )
        assert table[("ZR", "16QAM", 400)].cost_units == 1.0
        assert all(m.cost_units == 2.0 for m in DEFAULT_CATALOG if m.module == "ZR+")
        assert max(m.reach_km for m in DEFAULT_CATALOG) == 3000

    def test_shipped_catalog_file_matches_default(self):
        from importlib import resources

        with resources.as_file(
            resources.files("ipowdm.data").joinpath("modes.json")
        ) as path:
            assert load_catalog(path) == DEFAULT_CATALOG

    @pytest.mark.parametrize("field", ["rate_gbps", "reach_km"])
    @pytest.mark.parametrize("value", [0, -100, math.nan])
    def test_non_positive_rate_or_reach_rejected(self, field, value):
        row = {"module": "ZR", "modulation": "16QAM", "reach_km": 120,
               "rate_gbps": 400, "power_units": 1.0, "cost_units": 1.0}
        row[field] = value
        with pytest.raises(CatalogError, match=field):
            TransceiverMode(**row)

    def test_load_catalog_rejects_zero_rate(self, tmp_path):
        # a zero-rate mode used to reach select_modes_min_channels and
        # divide by zero there
        path = tmp_path / "modes.json"
        path.write_text(json.dumps({"modes": [
            {"module": "ZR", "modulation": "16QAM", "reach_km": 120,
             "rate_gbps": 0, "power_units": 1.0, "cost_units": 1.0},
        ]}))
        with pytest.raises(CatalogError, match="rate_gbps must be > 0"):
            load_catalog(path)

    @pytest.mark.parametrize("doc, message", [
        ({}, "'modes' must be a non-empty list"),
        ({"modes": []}, "'modes' must be a non-empty list"),
        ({"modes": [{"module": "ZR", "modulation": "16QAM", "reach_km": 120,
                     "power_units": 1.0, "cost_units": 1.0}]},
         "mode #0 has no 'rate_gbps' field"),
        ({"modes": [["ZR", "16QAM"]]}, "mode #0 must be a JSON object"),
        ({"modes": [dict(ZR_ROW, module="XX")]}, r"mode #0: module must be 'ZR' or 'ZR\+'"),
        ({"modes": [dict(ZR_ROW, power_units=-1)]}, "mode #0: power_units must be finite"),
        ({"modes": [dict(ZR_ROW, cost_units=-3)]}, "mode #0: cost_units must be finite"),
        ({"modes": [dict(ZR_ROW, power_units=math.inf)]}, "mode #0: power_units must be finite"),
        ({"modes": [dict(ZR_ROW, cost_units=math.nan)]}, "mode #0: cost_units must be finite"),
        ({"modes": [dict(ZR_ROW, rate_gbps=400.7)]}, "mode #0: rate_gbps must be an integer"),
        ({"modes": [dict(ZR_ROW, cost_units="abc")]}, "mode #0: cost_units must be a number"),
        ({"modes": [dict(ZR_ROW, reach_km=True)]}, "mode #0: reach_km must be a number"),
        # an int too large for a float, which float() refuses with OverflowError
        ({"modes": [dict(ZR_ROW, reach_km=10**400)]}, "mode #0: reach_km must be a finite number"),
        # plans and the merge pass name a mode by (module, modulation, rate)
        ({"modes": [ZR_ROW, ZRP_ROW, dict(ZRP_ROW, reach_km=300, power_units=1.1)]},
         r"modes #1 and #2 are both ZR\+/16QAM/400G"),
    ], ids=["modes-missing", "modes-empty", "field-missing", "mode-type", "module-name",
            "power-negative", "cost-negative", "power-inf", "cost-nan", "rate-fraction",
            "cost-string", "reach-bool", "reach-huge", "duplicate-key"])
    def test_malformed_catalog_file_named(self, tmp_path, doc, message):
        path = tmp_path / "modes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CatalogError, match=message):
            load_catalog(path)

    def test_integral_rate_loads_as_int(self, tmp_path):
        path = tmp_path / "modes.json"
        path.write_text(json.dumps({"modes": [dict(ZR_ROW, rate_gbps=400.0)]}))
        (mode,) = load_catalog(path)
        assert mode.rate_gbps == 400 and isinstance(mode.rate_gbps, int)


class TestModeSelection:
    """select_mode_min_regens is the one single-channel mode rule; over one
    span at rate 0 it gives the highest-rate mode reaching the span."""

    def test_short_reach_prefers_low_power_module(self):
        # both 400G modes qualify at 100 km; the 1.0-power one wins
        mode, _ = select_mode_min_regens((100,), 0)
        assert (mode.module, mode.rate_gbps) == ("ZR", 400)

    @pytest.mark.parametrize(
        "distance,expected",
        [
            (300, ("ZR+", "16QAM", 400)),
            (600, ("ZR+", "16QAM", 400)),
            (601, ("ZR+", "8QAM", 300)),
            (1800, ("ZR+", "8QAM", 300)),
            (2500, ("ZR+", "QPSK", 200)),
        ],
    )
    def test_max_rate_by_distance(self, distance, expected):
        assert select_mode_min_regens((distance,), 0) == (BY_KEY[expected], ())

    def test_beyond_max_reach_raises(self):
        with pytest.raises(NoFeasibleMode):
            select_mode_min_regens((3001,), 0)

    def test_reaching_modes_ranked_rate_desc_power_asc(self):
        modes = sorted((m for m in DEFAULT_CATALOG if m.reach_km >= 100), key=_order_key)
        rates = [m.rate_gbps for m in modes]
        assert rates == sorted(rates, reverse=True)
        assert modes[0].module == "ZR"
        assert select_mode_min_regens((100,), 0)[0] == modes[0]

    @settings(deadline=None, max_examples=300)
    @given(CATALOGS, st.lists(st.floats(1, 1500), min_size=1, max_size=6),
           st.sampled_from((0, 100, 200, 300, 400)))
    def test_one_span_and_plan_segments_take_the_best_reaching_mode(self, catalog, hops,
                                                                    rate):
        # over one span the rule is the best mode by _order_key reaching it
        best = _best_reaching(catalog, hops[0])
        if best is None:
            with pytest.raises(NoFeasibleMode):
                select_mode_min_regens(hops[:1], 0, catalog)
        else:
            assert select_mode_min_regens(hops[:1], 0, catalog) == (best, ())
        # each segment between the regenerations of a plan needs none of its
        # own, so its mode is the best one reaching its length, summed left to
        # right as Topology.path_length_km sums
        try:
            mode, boundaries = select_mode_min_regens(hops, rate, catalog)
        except NoFeasibleMode:
            return
        for a, b in itertools.pairwise([0, *boundaries, len(hops)]):
            *_, km = itertools.accumulate(hops[a:b], initial=0.0)
            seg_mode, seg_boundaries = select_mode_min_regens(hops[a:b], rate, catalog)
            assert seg_boundaries == ()
            assert seg_mode == _best_reaching(catalog, km)
            assert seg_mode.rate_gbps >= rate

    @pytest.mark.parametrize(
        "hops,rate,expected,boundaries",
        [
            ([100], 100, ("ZR", "16QAM", 400), ()),
            # fewer regens beat a higher rate
            ([500, 500], 300, ("ZR+", "8QAM", 300), ()),
            ([500, 500], 400, ("ZR+", "16QAM", 400), (1,)),
            ([1500, 1500], 100, ("ZR+", "QPSK", 200), ()),
        ],
    )
    def test_min_regens_then_max_rate(self, hops, rate, expected, boundaries):
        mode, got = select_mode_min_regens(hops, rate)
        assert mode.key == expected
        assert got == plan_regeneration(hops, mode) == boundaries

    def test_min_regens_needs_a_mode_over_every_hop(self):
        with pytest.raises(NoFeasibleMode):
            select_mode_min_regens([700, 100], 400)
        with pytest.raises(NoFeasibleMode):
            select_mode_min_regens([3100], 100)


class TestRegeneration:
    def test_three_long_hops_need_two_regens(self):
        assert plan_regeneration([500, 500, 500], ZRP_16QAM) == (1, 2)

    def test_hops_packed_greedily(self):
        # segments of 400, 300 and 500 km
        assert plan_regeneration([200, 200, 300, 500], ZRP_16QAM) == (2, 3)

    def test_single_link_beyond_reach_raises(self):
        with pytest.raises(LinkExceedsReach):
            plan_regeneration([700], ZRP_16QAM)

    def test_greedy_placement_is_minimal_on_lattice(self):
        """Exhaustive interior-subset enumeration agrees on every case."""
        for mode in DEFAULT_CATALOG:
            for n_links in range(1, 5):
                for lengths in itertools.product(LENGTHS_POOL, repeat=n_links):
                    oracle = exhaustive_regen_min(list(lengths), mode.reach_km)
                    try:
                        mine = len(plan_regeneration(lengths, mode))
                    except LinkExceedsReach:
                        mine = None
                    assert mine == oracle, (lengths, mode.key)


class TestMinChannelSplit:
    def test_single_channel_when_rate_fits(self):
        assert [m.key for m in select_modes_min_channels([500], 400)] == [
            ("ZR+", "16QAM", 400)
        ]

    def test_600g_short_distance_splits_into_two(self):
        modes = select_modes_min_channels([500], 600)
        assert sorted(m.rate_gbps for m in modes) == [200, 400]

    def test_channel_count_beats_regen_count(self):
        # 400G over 1000 km: a single 16QAM channel with one regen wins over a
        # regen-free 300+100 split, because channel count is minimized first
        modes = select_modes_min_channels([500, 500], 400)
        assert len(modes) == 1 and modes[0].key == ("ZR+", "16QAM", 400)

    def test_link_lengths_constrain_regen_sites(self):
        # a single 1000 km hop cannot host an intermediate regen, so the
        # 16QAM-plus-regen option disappears and a two-channel split remains
        modes = select_modes_min_channels([1000], 400)
        assert sorted(m.rate_gbps for m in modes) == [100, 300]
        # no mode spans a 3100 km hop, whatever the regeneration
        with pytest.raises(NoFeasibleMode):
            select_modes_min_channels([3100], 100)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            select_modes_min_channels([100], 0)

    def test_channel_count_minimal_on_full_lattice(self):
        """Exhaustive split enumeration agrees for all rates and hop lattices."""
        for rate in (100, 200, 300, 400, 500, 600):
            for n_links in range(1, 5):
                for lengths in itertools.product(LENGTHS_POOL, repeat=n_links):
                    try:
                        oracle_count, _ = exhaustive_min_channel_split(rate, lengths)
                    except Infeasible:
                        oracle_count = None
                    try:
                        mine = len(select_modes_min_channels(lengths, rate))
                    except NoFeasibleMode:
                        mine = None
                    assert mine == oracle_count, (rate, lengths)

    def test_memoized_split_returns_a_fresh_list(self):
        a = select_modes_min_channels([1000], 400)
        expected = list(a)
        a.append(a[0])
        a.reverse()
        assert select_modes_min_channels([1000], 400) == expected

    def test_memoized_split_still_plans_regeneration_and_raises(self, monkeypatch):
        # every call scans the catalog through plan_regeneration, and a hop
        # no mode spans raises each time, naming the hops
        calls = []
        plan = transceiver.plan_regeneration
        monkeypatch.setattr(transceiver, "plan_regeneration",
                            lambda hops, m: calls.append(m) or plan(hops, m))
        for _ in range(2):
            assert len(select_modes_min_channels([700, 700], 600)) == 2
        assert len(calls) == 2 * 3  # the three modes reaching 700 km
        for _ in range(2):
            with pytest.raises(NoFeasibleMode, match=r"hops \[3100\]"):
                select_modes_min_channels([3100], 100)

    def test_covers_rate_and_is_deterministic(self):
        for rate in (100, 300, 500, 600):
            for hops in ([100], [700], [1000, 1000]):
                a = select_modes_min_channels(hops, rate)
                b = select_modes_min_channels(hops, rate)
                assert a == b
                assert sum(m.rate_gbps for m in a) >= rate
