"""Outside-in layer tracing for the planner benchmark.

``Tracer.install()`` replaces public functions of the ``ipowdm`` modules with
wrappers, under the name each caller looks them up by, and restores the
originals on exit. A wrapper records one span per call (plan id, span id,
parent span id, name, start and end in ns) and adds its duration minus the
duration of its child spans to its layer's self time. Hooks read counts off
the return values; the time they take is charged to the tracer, not to a layer.

Everything is single-threaded, so child spans nest strictly inside their
parent and a plan's wall time splits exactly into the layers' self times plus
the uncovered remainder (the ``plan`` root span's self time and hook time).
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = "plan"
MERGE = "rmsa.merge"

# (layer, wrapped names as "module:attribute.path"). Every name must resolve,
# and every layer must be called at least once in a traced run unless the
# workload does not use it (``topology.parse`` outside ``fresh-topology``).
LAYERS = (
    ("experiment", ("ipowdm.experiment:run_single",)),
    ("traffic.gen", ("ipowdm.experiment:generate_traffic",)),
    ("topology.parse", ("ipowdm.topology:parse_topology",)),
    ("topology.ksp", ("ipowdm.rmsa:k_shortest_paths",)),
    ("transceiver.regen", ("ipowdm.rmsa:plan_regeneration",
                           "ipowdm.transceiver:plan_regeneration")),
    ("transceiver.split", ("ipowdm.rmsa:select_modes_min_channels",)),
    ("rmsa.provision", ("ipowdm.experiment:provision_all",)),
    ("rmsa.route", ("ipowdm.rmsa:route_demand",)),
    ("rmsa.aux_build", ("ipowdm.rmsa:build_auxiliary_graph",)),
    ("rmsa.spectrum", ("ipowdm.rmsa:assign_spectrum_first_fit",)),
    (MERGE, ("ipowdm.rmsa:merge_pure_ip_regens",)),
    ("rmsa.audit", ("ipowdm.rmsa:NetworkState.audit",)),
    ("dimensioning", ("ipowdm.experiment:network_cost",
                      "ipowdm.experiment:network_power")),
)
# Counted, not timed: lightpath ids handed out outside the merge pass.
LP_ID = "ipowdm.rmsa:NetworkState.new_lp_id"


class TraceError(RuntimeError):
    """A wrapped name is missing or a layer was never called."""


def _resolve(qualname: str):
    """(owner, attribute, original) for "module:attr.path"; raises TraceError."""
    module_name, _, path = qualname.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[attr]  # defined here, so restoring is exact
    except (AttributeError, KeyError):
        raise TraceError(f"wrapped name {qualname} no longer exists") from None
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (plan, span, parent, name, start_ns, end_ns)
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.hook_ns = 0
        self.plan_ns = 0
        self.plans = 0
        self._stack: list[list] = []  # frames: [span id, child ns, name]
        self._ids = itertools.count(1)
        self._plan_merges = 0
        self._edge_kinds: tuple[int, int] | None = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        stack, spans, self_ns, calls = self._stack, self.spans, self.self_ns, self.calls
        ids, clock = self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                spans.append((self.plans, frame[0], parent[0] if parent else 0, name, t0, t1))
                if parent is not None:
                    parent[1] += dur
            if hook is not None:
                h0 = clock()
                hook(result)
                h = clock() - h0
                self.hook_ns += h
                if parent is not None:
                    parent[1] += h
            return result

        return wrapper

    def _count_lp_id(self, fn):
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not (stack and stack[-1][2] == MERGE):
                counts["lp_opened"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks (count from return values) ------------------------------------

    def _on_traffic(self, matrix):
        self.counts["demands"] += len(matrix.demands)

    def _on_aux(self, edges):
        groom_kind, new_kind = self._edge_kinds
        kinds = Counter(e.kind for alts in edges.values() for e in alts)
        self.counts["aux_groom_edges"] += kinds[groom_kind]
        self.counts["aux_new_edges"] += kinds[new_kind]

    def _on_spectrum(self, _channel):
        self.counts["spectrum_fits"] += 1

    def _on_merge(self, merges):
        self.counts["merges"] += merges
        self._plan_merges += merges

    def _on_provision(self, state):
        self.counts["blocked"] += len(state.blocked)
        # every merge replaced two routed lightpaths by one new id
        self.counts["lp_kept"] += len(state.lightpaths) + self._plan_merges

    @contextmanager
    def install(self):
        """Wrap every layer; always restore the original attributes."""
        hooks = {
            "traffic.gen": self._on_traffic,
            "rmsa.aux_build": self._on_aux,
            "rmsa.spectrum": self._on_spectrum,
            MERGE: self._on_merge,
            "rmsa.provision": self._on_provision,
        }
        self._edge_kinds = (_resolve("ipowdm.rmsa:_GROOM")[2], _resolve("ipowdm.rmsa:_NEW")[2])
        targets = [(layer, _resolve(q)) for layer, names in LAYERS for q in names]
        targets.append((None, _resolve(LP_ID)))
        installed = []
        try:
            for layer, (owner, attr, original) in targets:
                wrapper = (self._count_lp_id(original) if layer is None
                           else self._wrap(layer, original, hooks.get(layer)))
                setattr(owner, attr, wrapper)
                installed.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    @contextmanager
    def plan(self):
        """Root span of one plan; its self time is the uncovered remainder."""
        self._plan_merges = 0
        frame = [next(self._ids), 0, ROOT]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.plan_ns += t1 - t0
            self.self_ns[ROOT] += (t1 - t0) - frame[1]
            self.spans.append((self.plans, frame[0], 0, ROOT, t0, t1))
            self.plans += 1

    # -- results -------------------------------------------------------------

    def check_layers(self, optional=()):
        missing = [layer for layer, _ in LAYERS
                   if layer not in optional and not self.calls[layer]]
        if missing:
            raise TraceError(f"layers never called in the traced run: {missing}")

    def metrics(self, overhead_pct: float) -> dict[str, tuple[float, str]]:
        n = self.plans
        c = self.counts

        def ms(layer):
            return self.self_ns[layer] / 1e6 / n, "ms"

        def per_plan(value):
            return value / n, "count"

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        return {
            "traffic.gen_ms": ms("traffic.gen"),
            "traffic.demands": per_plan(c["demands"]),
            "topology.parse_ms": ms("topology.parse"),
            "topology.ksp_ms": ms("topology.ksp"),
            "topology.ksp_calls": per_plan(self.calls["topology.ksp"]),
            "transceiver.regen_ms": ms("transceiver.regen"),
            "transceiver.regen_calls": per_plan(self.calls["transceiver.regen"]),
            "transceiver.split_ms": ms("transceiver.split"),
            "transceiver.split_calls": per_plan(self.calls["transceiver.split"]),
            "rmsa.aux_build_ms": ms("rmsa.aux_build"),
            "rmsa.aux_build_calls": per_plan(self.calls["rmsa.aux_build"]),
            "rmsa.aux_groom_edges": per_plan(c["aux_groom_edges"]),
            "rmsa.aux_new_edges": per_plan(c["aux_new_edges"]),
            "rmsa.route_self_ms": ms("rmsa.route"),
            "rmsa.route_calls": per_plan(self.calls["rmsa.route"]),
            "rmsa.provision_self_ms": ms("rmsa.provision"),
            "rmsa.spectrum_ms": ms("rmsa.spectrum"),
            "rmsa.spectrum_calls": per_plan(self.calls["rmsa.spectrum"]),
            "rmsa.spectrum_fit_ratio": ratio(c["spectrum_fits"], self.calls["rmsa.spectrum"]),
            "rmsa.lp_opened": per_plan(c["lp_opened"]),
            "rmsa.lp_kept": per_plan(c["lp_kept"]),
            "rmsa.lp_keep_ratio": ratio(c["lp_kept"], c["lp_opened"]),
            "rmsa.blocked": per_plan(c["blocked"]),
            "rmsa.blocked_share": ratio(c["blocked"], c["demands"]),
            "rmsa.merge_ms": ms(MERGE),
            "rmsa.merges": per_plan(c["merges"]),
            "rmsa.audit_ms": ms("rmsa.audit"),
            "dimensioning.ms": ms("dimensioning"),
            "experiment.self_ms": ms("experiment"),
            "tracing.plan_ms": (self.plan_ns / 1e6 / n, "ms"),
            "tracing.uncovered_ms": ((self.self_ns[ROOT] + self.hook_ns) / 1e6 / n, "ms"),
            "tracing.overhead_pct": (overhead_pct, "%"),
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("plan,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                out.write(",".join(map(str, span)) + "\n")
