"""End-to-end acceptance checks on the full production study grid.

Runs the complete two-network, four-architecture, three-scenario, ten-seed
study once with shipped defaults and validates the headline outcomes: power
ordering between architectures, savings bands, module-count reduction,
optical-layer invariance, traffic monotonicity, determinism, and closeness to
the brute-force optimum on small instances. One summary line per check is
printed in the terminal summary.
"""

import dataclasses
import itertools
import time

import pytest

import conftest
from helpers import toy_instance
from oracle import (
    Infeasible,
    exhaustive_min_channel_split,
    exhaustive_min_cost_provision,
    exhaustive_regen_min,
)
from ipowdm import rmsa
from ipowdm.cli import main
from ipowdm.dimensioning import network_cost
from ipowdm.experiment import ExperimentConfig, average_rows, run_experiment, run_single
from ipowdm.rmsa import ARCH_NAMES, provision_all
from ipowdm.topology import load_named_topology
from ipowdm.traffic import Demand, load_scenario
from ipowdm.transceiver import (
    DEFAULT_CATALOG,
    LinkExceedsReach,
    NoFeasibleMode,
    plan_regeneration,
    select_modes_min_channels,
)

TOPOLOGIES = ("j14", "g17")
SCENARIOS = ("TS1", "TS2", "TS3")
CELLS = list(itertools.product(TOPOLOGIES, SCENARIOS))
BYPASS_ARCHS = ("TrIP", "TrZR", "TrIPandZR")


def record(label: str, passed: bool, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    conftest.ACCEPTANCE_LINES.append(
        f"{label}: {'PASS' if passed else 'FAIL'}{suffix}"
    )
    assert passed, f"{label}{suffix}"


@pytest.fixture(scope="module")
def grid():
    cfg = ExperimentConfig(
        topologies=[load_named_topology(t) for t in TOPOLOGIES],
        scenarios=[load_scenario(s) for s in SCENARIOS],
    )
    t0 = time.time()
    rows = run_experiment(cfg)
    elapsed = time.time() - t0
    avg = {(e["topology"], e["arch"], e["scenario"]): e for e in average_rows(rows)}
    return rows, avg, elapsed


def cell(avg, topo, scen, arch):
    return avg[(topo, arch, scen)]


def test_total_power_ordering(grid):
    _, avg, _ = grid
    ok = all(
        cell(avg, t, s, "OpIP")["power_total"]
        > max(cell(avg, t, s, x)["power_total"] for x in BYPASS_ARCHS)
        and cell(avg, t, s, "TrIPandZR")["power_total"]
        <= min(cell(avg, t, s, x)["power_total"] for x in ("TrIP", "TrZR"))
        for t, s in CELLS
    )
    record("total power: opaque highest, merged-regen lowest", ok)


def test_grid_runtime(grid):
    _, _, elapsed = grid
    record("full 240-run study under 5 minutes", elapsed < 300, f"{elapsed:.1f}s")


def test_bypass_total_power_saving_band(grid):
    _, avg, _ = grid
    vals = [
        100.0
        * (cell(avg, t, s, "OpIP")["power_total"] - cell(avg, t, s, "TrIP")["power_total"])
        / cell(avg, t, s, "OpIP")["power_total"]
        for t, s in CELLS
    ]
    record(
        "bypass total-power saving in 15-35% band",
        all(15 <= v <= 35 for v in vals),
        " ".join(f"{v:.1f}" for v in vals),
    )


def test_bypass_module_count_reduction_band(grid):
    _, avg, _ = grid

    def mods(t, s, arch):
        e = cell(avg, t, s, arch)
        return e["zr_count"] + e["zrplus_count"]

    vals = [
        100.0 * (mods(t, s, "OpIP") - mods(t, s, "TrIP")) / mods(t, s, "OpIP")
        for t, s in CELLS
    ]
    record(
        "bypass module-count reduction in 30-50% band",
        all(30 <= v <= 50 for v in vals),
        " ".join(f"{v:.1f}" for v in vals),
    )


def test_router_power_lowest_without_ip_grooming(grid):
    _, avg, _ = grid
    strict = all(
        cell(avg, t, s, "TrZR")["power_ip"]
        < min(cell(avg, t, s, x)["power_ip"] for x in ("OpIP", "TrIP", "TrIPandZR"))
        for t, s in CELLS
    )
    vals = [
        100.0
        * (cell(avg, t, s, "OpIP")["power_ip"] - cell(avg, t, s, "TrZR")["power_ip"])
        / cell(avg, t, s, "OpIP")["power_ip"]
        for t, s in CELLS
    ]
    record(
        "router power: grooming-free arch strictly lowest, 25-40% below opaque",
        strict and all(25 <= v <= 40 for v in vals),
        " ".join(f"{v:.1f}" for v in vals),
    )


def test_module_power_identity_and_gap(grid):
    _, avg, _ = grid
    identical = all(
        abs(
            cell(avg, t, s, "TrIP")["power_zr"]
            - cell(avg, t, s, "TrIPandZR")["power_zr"]
        )
        < 1e-9
        for t, s in CELLS
    )
    gaps = [
        100.0
        * (cell(avg, t, s, "TrZR")["power_zr"] - cell(avg, t, s, "TrIP")["power_zr"])
        / cell(avg, t, s, "TrZR")["power_zr"]
        for t, s in CELLS
    ]
    record(
        "pluggable power: identical with/without merge, 2-10% below grooming-free",
        identical and all(2 <= g <= 10 for g in gaps),
        " ".join(f"{g:.1f}" for g in gaps),
    )


def test_optical_power_invariant_across_traffic(grid):
    rows, _, _ = grid
    ok = all(
        len({r.power_optical for r in rows if r.topology == t and r.arch == a}) == 1
        for t in TOPOLOGIES
        for a in ARCH_NAMES
    )
    record("optical power bit-identical across scenarios and seeds", ok)


def test_transparent_vs_opaque_optical_ratio(grid):
    rows, _, _ = grid
    targets = {"j14": 1.556, "g17": 1.683}
    details = []
    ok = True
    for t in TOPOLOGIES:
        opaque = next(r.power_optical for r in rows if r.topology == t and r.arch == "OpIP")
        transparent = next(
            r.power_optical for r in rows if r.topology == t and r.arch == "TrIP"
        )
        ratio = transparent / opaque
        details.append(f"{t}={ratio:.3f}")
        ok = ok and abs(ratio - targets[t]) / targets[t] <= 0.10
    record(
        "transparent/opaque optical power ratio within 10% of target",
        ok,
        " ".join(details),
    )


def test_total_power_monotone_in_traffic_load(grid):
    _, avg, _ = grid
    ok = all(
        cell(avg, t, "TS1", a)["power_total"]
        <= cell(avg, t, "TS2", a)["power_total"]
        <= cell(avg, t, "TS3", a)["power_total"]
        for t in TOPOLOGIES
        for a in ARCH_NAMES
    )
    record("total power non-decreasing with traffic load", ok)


def test_no_blocking_and_state_invariants(grid):
    rows, _, _ = grid
    blocked = sum(r.blocked for r in rows)
    sampled_ok = True
    ts1 = load_scenario("TS1")
    for topo_name in TOPOLOGIES:
        topo = load_named_topology(topo_name)
        for arch in ARCH_NAMES:
            _, state = run_single(topo, arch, ts1, 0)
            state.audit()
            for lp in state.lightpaths.values():
                for seg in lp.segments:
                    sampled_ok &= topo.path_length_km(seg.nodes) <= lp.mode.reach_km
                sampled_ok &= lp.residual >= 0 and bool(lp.carried)
    record(
        "zero blocked demands and clean state audits",
        blocked == 0 and sampled_ok,
        f"blocked={blocked}",
    )


def test_trip_and_zr_equals_trip_on_the_study(monkeypatch):
    # _subflow_rates cuts every demand into unit rates that need no
    # regeneration over the shortest path, so on j14 and g17 no TrIP or
    # TrIPandZR lightpath is IP-regenerated, the merge pass finds no pure
    # regeneration to turn into a b2b pair, and the two architectures' rows
    # agree in every column. A model change that sets them apart fails here.
    merges, regens = [], []
    merge, min_regens = rmsa.merge_pure_ip_regens, rmsa.select_mode_min_regens

    def counted_min_regens(*args):
        mode, boundaries = min_regens(*args)
        regens.append(len(boundaries))
        return mode, boundaries

    monkeypatch.setattr(rmsa, "merge_pure_ip_regens", lambda s: merges.append(merge(s)))
    monkeypatch.setattr(rmsa, "select_mode_min_regens", counted_min_regens)
    differing = []
    for topo_name, scen in CELLS:
        topo, scenario = load_named_topology(topo_name), load_scenario(scen)
        trip, _ = run_single(topo, "TrIP", scenario, 0)
        both, _ = run_single(topo, "TrIPandZR", scenario, 0)
        if dataclasses.replace(both, arch="TrIP") != trip:
            differing.append((topo_name, scen))
    assert regens and len(merges) == len(CELLS)  # both counters ran
    record(
        "TrIPandZR equals TrIP on the study grid (seed 0)",
        not differing and not any(regens) and not any(merges),
        f"ip_regens={sum(regens)} merges={sum(merges)} differing={differing}",
    )


def test_near_optimal_on_toy_instances():
    worst = 0.0
    for seed in range(25):
        topo, matrix = toy_instance(seed)
        for arch in ARCH_NAMES:
            opt_cost, _ = exhaustive_min_cost_provision(topo, list(matrix.demands), arch)
            got = network_cost(provision_all(topo, matrix, arch)).module_cost
            worst = max(worst, got / opt_cost)
    record(
        "heuristic within 1.2x of brute-force module cost on toy instances",
        worst <= 1.2 + 1e-9,
        f"worst={worst:.3f}",
    )


# The worst toy cases of the check above, pinned as (heuristic, oracle)
# module cost: TrIP and TrIPandZR spend 4 cost units more than the oracle on
# these three instances, and 24 / 20 sits exactly on the bound. The oracle
# does not model spectrum: it prices modules as if every channel were free,
# so its cost is a lower bound, not a plan the engine could always realize.
# Two routing rules cause the gaps (see the test below). On toys 17 and 19
# the groom chain's length bound rejects the chain the oracle rides: a chain
# may not be longer than the flow's shortest route. On toy 13 the oracle
# carries a flow over an existing lightpath followed by a new one, and the
# bypass architectures never search such a mixed route: they try a groom-only
# chain, then new lightpaths only. A bound of 2x the shortest route closes
# toy 19 and one of 3x toy 17, but at 3x TrIP's total-power saving against
# OpIP in the study rises to 23.5-31.8%, above the paper's "up to 30%", so
# the bound stays.
TOY_GAP = {
    (13, "TrIP"): (24.0, 20.0),
    (13, "TrIPandZR"): (24.0, 20.0),
    (17, "TrIP"): (26.0, 22.0),
    (17, "TrIPandZR"): (26.0, 22.0),
    (19, "TrIP"): (24.0, 20.0),
    (19, "TrIPandZR"): (24.0, 20.0),
}


@pytest.mark.parametrize("case", sorted(TOY_GAP), ids=lambda c: f"toy{c[0]}-{c[1]}")
def test_toy_near_optimality_gap_pinned(case):
    seed, arch = case
    topo, matrix = toy_instance(seed)
    opt_cost, _ = exhaustive_min_cost_provision(topo, list(matrix.demands), arch)
    got = network_cost(provision_all(topo, matrix, arch)).module_cost
    assert (got, opt_cost) == TOY_GAP[case]


# (seed, flow, its rate, the rejected chain's lightpath ids, chain km,
# shortest route km) of every chain the length bound rejects
TOY_GAP_REJECTED_CHAINS = {
    13: [],
    17: [("n2->n3#0", 200, [5, 2], 550.0, 250.0)],
    19: [("n0->n2#0", 100, [4, 3], 550.0, 300.0)],
}


@pytest.mark.parametrize("case", sorted(TOY_GAP), ids=lambda c: f"toy{c[0]}-{c[1]}")
def test_toy_gap_chains_rejected_by_the_length_bound(case, monkeypatch):
    seed, arch = case
    search = rmsa._try_groom_chain
    rejected = []

    def spied(state, flow):
        edges = rmsa.build_auxiliary_graph(state, Demand(flow.src, flow.dst, flow.rate_gbps))
        chain = rmsa._aux_shortest_path(edges, flow.src, flow.dst, rmsa._adjacency(edges))
        if chain and len(chain) <= rmsa.GROOM_CHAIN_HOPS:
            km = sum(state.lightpaths[e.lp_id].length_km for e in chain)
            shortest = state.shortest_km(flow.src, flow.dst)
            if km > shortest:
                rejected.append((flow.flow_id, flow.rate_gbps, [e.lp_id for e in chain],
                                 km, shortest))
        return search(state, flow)

    monkeypatch.setattr(rmsa, "_try_groom_chain", spied)
    provision_all(*toy_instance(seed), arch)
    assert rejected == TOY_GAP_REJECTED_CHAINS[seed]


def test_exact_match_on_enumeration_lattices():
    lengths_pool = (100, 300, 500, 600, 900, 1200)
    mismatches = 0
    for mode in DEFAULT_CATALOG:
        for n_links in range(1, 5):
            for lengths in itertools.product(lengths_pool, repeat=n_links):
                oracle = exhaustive_regen_min(list(lengths), mode.reach_km)
                try:
                    mine = len(plan_regeneration(lengths, mode))
                except LinkExceedsReach:
                    mine = None
                mismatches += mine != oracle
    for rate in (100, 200, 300, 400, 500, 600):
        for n_links in range(1, 5):
            for lengths in itertools.product(lengths_pool, repeat=n_links):
                try:
                    oracle_count, _ = exhaustive_min_channel_split(rate, lengths)
                except Infeasible:
                    oracle_count = None
                try:
                    mine = len(select_modes_min_channels(lengths, rate))
                except NoFeasibleMode:
                    mine = None
                mismatches += mine != oracle_count
    record(
        "regen placement and channel splits match exhaustive enumeration",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_repeated_cli_invocation_byte_identical(tmp_path, capsys):
    argv = [
        "experiment", "--topology", "j14", "--scenario", "TS1", "--runs", "2",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(argv + ["--out", str(out_a)])
    main(argv + ["--out", str(out_b)])
    capsys.readouterr()
    ok = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("rows.csv", "averages.csv")
    )
    record("repeated identical invocations produce byte-identical output", ok)
