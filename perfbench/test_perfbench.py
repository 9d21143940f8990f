"""Self-tests of the benchmark: python3 -m pytest perfbench -q (about a minute)."""

from __future__ import annotations

import importlib
import math

import pytest

import make_reference
import run
from tracing import LAYERS, LP_ID, TraceError, Tracer, _resolve
from workloads import FRESH_KM, WORKLOADS, fresh_topology_doc


def _wrapped_attrs():
    return {q: _resolve(q)[2] for _, names in LAYERS for q in names} | {LP_ID: _resolve(LP_ID)[2]}


def test_generators_are_deterministic_in_the_seed():
    for workload in WORKLOADS.values():
        assert workload.units(7) == workload.units(7)
        assert workload.units(7) != workload.units(8)
        assert workload.plans(5) == workload.plans(5)
    assert fresh_topology_doc(3) == fresh_topology_doc(3)
    assert fresh_topology_doc(3) != fresh_topology_doc(4)


def test_a_run_visits_every_unit_of_the_pool_once():
    for workload in WORKLOADS.values():
        for seed in (0, 9, -1, 10**9):
            assert sorted(workload.units(seed)) == list(range(workload.pool_size))


def test_fresh_topologies_have_the_stated_shape():
    env = run.set_up(WORKLOADS["fresh-topology"])
    for seed in range(16):
        topo = env.topology.parse_topology(fresh_topology_doc(seed))
        assert (len(topo.nodes), len(topo.links), topo.grid.channel_count) == (20, 40, 96)
        assert all(FRESH_KM[0] <= link.length_km <= FRESH_KM[1] for link in topo.links)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_run_and_reference(name):
    workload = WORKLOADS[name]
    env = run.set_up(workload)
    units = workload.units(0)[:4 if name == "fresh-topology" else 1]  # all four archs
    before = _wrapped_attrs()
    tracer = Tracer()
    with tracer.install():
        assert all(_resolve(q)[2] is not fn for q, fn in before.items())
    assert _wrapped_attrs() == before  # identity: the originals are back
    _, _, results = run.run_units(env, workload, units, math.inf, 0, tracer)
    assert _wrapped_attrs() == before
    plain, traced = results[0::2], results[1::2]
    assert [r for *_, r in traced] == [r for *_, r in plain]
    assert run.count_failures(results, run.load_reference(name)) == 0
    tracer.check_layers(optional=workload.unused_layers)
    metrics = {k: v for k, (v, _) in tracer.metrics(0.0).items()}
    layer_ms = sum(v for k, v in metrics.items()
                   if k.endswith("_ms") and k not in ("tracing.plan_ms",))
    assert layer_ms + metrics["dimensioning.ms"] == pytest.approx(metrics["tracing.plan_ms"])


def test_missing_wrapped_name_fails_loudly_and_leaves_nothing_wrapped(monkeypatch):
    run.set_up(WORKLOADS["paper-study"])
    before = _wrapped_attrs()
    rmsa = importlib.import_module("ipowdm.rmsa")
    monkeypatch.delattr(rmsa, "merge_pure_ip_regens")
    with pytest.raises(TraceError, match="merge_pure_ip_regens"):
        with Tracer().install():
            pass
    monkeypatch.undo()
    assert _wrapped_attrs() == before


def test_unused_layer_fails_loudly():
    tracer = Tracer()
    with pytest.raises(TraceError, match="never called"):
        tracer.check_layers()


def test_paper_study_units_0_to_9_reproduce_the_study_hashes():
    workload = WORKLOADS["paper-study"]
    env = run.set_up(workload)
    rows = [[run.run_plan(env, p) for p in workload.plans(u)] for u in range(10)]
    assert make_reference.study_hashes(env, rows) == make_reference.STUDY_SHA256
