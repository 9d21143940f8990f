import csv
import io
import json
import math
from collections import Counter

import pytest

from helpers import mk_topo
from ipowdm.topology import load_named_topology
from ipowdm.traffic import (
    BUILTIN_SCENARIOS,
    RATE_CLASSES,
    Demand,
    TrafficError,
    TrafficScenario,
    generate_traffic,
    load_scenario,
)

LINE = mk_topo("line", [("a", "b", 100), ("b", "c", 100)])


class TestScenario:
    def test_builtin_scenarios_load_and_normalize(self):
        for name in BUILTIN_SCENARIOS:
            sc = load_scenario(name)
            assert sc.name == name
            assert len(sc.weights) == len(RATE_CLASSES)
            assert abs(sum(sc.weights) - 1.0) < 1e-9

    def test_builtin_names_case_insensitive(self):
        assert load_scenario("ts2") == load_scenario("TS2")

    def test_shipped_mixes_are_ordered_low_to_high(self):
        """TS1 leans to low rates, TS3 to high; TS2 sits between."""

        def high_share(sc):
            return sum(w for r, w in zip(RATE_CLASSES, sc.weights) if r >= 400)

        ts1, ts2, ts3 = (load_scenario(n) for n in BUILTIN_SCENARIOS)
        assert high_share(ts1) < high_share(ts2) < high_share(ts3)
        assert high_share(ts1) < 0.5 < high_share(ts3)

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(TrafficError, match="weights"):
            TrafficScenario("x", (0.5, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(TrafficError, match="negative"):
            TrafficScenario("x", (0.5, 0.6, -0.1, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        # a NaN weight passes the sign and sum checks, and every draw would
        # then take the top rate
        with pytest.raises(TrafficError, match=f"weight of rate 100 in scenario 'x' must be "
                                               f"a finite number, got {weight!r}"):
            TrafficScenario("x", (weight, 0.0, 0.0, 0.0, 0.0, 1.0))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(TrafficError, match="sum"):
            TrafficScenario("x", (0.5, 0.1, 0.1, 0.1, 0.1, 0.05))

    def test_scenario_file_loading(self, tmp_path):
        doc = {"name": "flat", "weights": {str(r): 1 / 6 for r in RATE_CLASSES}}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(path)
        assert sc.name == "flat"
        assert all(abs(w - 1 / 6) < 1e-12 for w in sc.weights)

    @pytest.mark.parametrize("doc, message", [
        ({"name": "flat"}, "no 'weights' field"),
        ({"name": "flat", "weights": [0.5, 0.5]}, "'weights' must be an object"),
        ({"weights": {"100": 1.0}}, "no 'name' field"),
        ({"name": None, "weights": {"100": 1.0}}, "field 'name' must be a string, got None"),
        ({"name": 7, "weights": {"100": 1.0}}, "field 'name' must be a string, got 7"),
        ([], "scenario must be a JSON object"),
        ({"name": "x", "weights": {"100": 0.5, "200": 0.5, "250": 7}},
         r"weight key '250' is not a rate class"),
        ({"name": "x", "weights": {"100": "0.5", "200": 0.5}},
         "weight '100' must be a finite number, got '0.5'"),
        ({"name": "x", "weights": {"100": True}}, "weight '100' must be a finite number"),
        ({"name": "x", "weights": {"100": math.nan, "200": 1.0}},
         "weight '100' must be a finite number"),
    ], ids=["weights-missing", "weights-list", "name-missing", "name-null", "name-number",
            "document-type",
            "weight-key", "weight-string", "weight-bool", "weight-nan"])
    def test_malformed_scenario_file_named(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TrafficError, match=message):
            load_scenario(path)


    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(TrafficError, match=f"scenario file {path}: invalid JSON"):
            load_scenario(path)


class TestDemand:
    def test_same_endpoints_rejected(self):
        with pytest.raises(TrafficError):
            Demand("a", "a", 100)

    def test_off_class_rate_rejected(self):
        with pytest.raises(TrafficError):
            Demand("a", "b", 250)


class TestGeneration:
    def test_one_demand_per_ordered_pair(self):
        matrix = generate_traffic(LINE, load_scenario("TS1"), 0)
        n = len(LINE.nodes)
        assert len(matrix.demands) == n * (n - 1)
        keys = [d.key for d in matrix.demands]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_deterministic_per_seed(self):
        a = generate_traffic(LINE, load_scenario("TS2"), 7)
        b = generate_traffic(LINE, load_scenario("TS2"), 7)
        c = generate_traffic(LINE, load_scenario("TS2"), 8)
        assert a == b
        assert a != c

    def test_csv_layout(self):
        comma_named = mk_topo("comma", [("a,1", "b", 100)])
        for topo in (LINE, comma_named):
            matrix = generate_traffic(topo, load_scenario("TS1"), 0)
            text = matrix.to_csv()
            assert text.splitlines()[0] == "src,dst,rate_gbps"
            header, *rows = csv.reader(io.StringIO(text))
            assert len(rows) == len(matrix.demands)
            for (src, dst, rate), demand in zip(rows, matrix.demands):
                assert Demand(src, dst, int(rate)) == demand

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_empirical_rate_frequencies_track_weights(self, name):
        """Across >= 10^4 draws the rate mix stays within 2 % of the weights."""
        topo = load_named_topology("j14")
        sc = load_scenario(name)
        counts: Counter[int] = Counter()
        total = 0
        seed = 0
        while total < 10_000:
            matrix = generate_traffic(topo, sc, seed)
            counts.update(d.rate_gbps for d in matrix.demands)
            total += len(matrix.demands)
            seed += 1
        for rate, weight in zip(RATE_CLASSES, sc.weights):
            assert abs(counts[rate] / total - weight) < 0.02
