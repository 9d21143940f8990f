"""Batch experiment runner and reporting: one row per (topology, architecture,
scenario, seed), plus per-cell averages over seeds and savings tables against a
baseline architecture, and the one-run ``plan`` and ``power`` reports. Output
is deterministic and byte-stable."""

from __future__ import annotations

import csv
import io
import math
import typing
from dataclasses import asdict, dataclass, field, fields

from .dimensioning import (DimensioningConfig, PowerBreakdown, PowerTable, network_cost,
                           network_power)
from .rmsa import ARCH_NAMES, NetworkState, PlannerConfig, provision_all
from .topology import Topology, json_text
from .traffic import TrafficScenario, generate_traffic
from .transceiver import DEFAULT_CATALOG


class BlockingError(RuntimeError):
    """Raised in strict mode when any demand is blocked."""


@dataclass(frozen=True)
class RunResult:
    topology: str
    arch: str
    scenario: str
    seed: int
    zr_count: int
    zrplus_count: int
    b2b_modules: int
    router_ports: int
    module_cost: float
    power_zr: float
    power_ip: float
    power_optical: float
    power_total: float
    blocked: int


CSV_COLUMNS = tuple(f.name for f in fields(RunResult))


@dataclass
class ExperimentConfig:
    topologies: list[Topology]
    archs: list[str] = field(default_factory=lambda: list(ARCH_NAMES))
    scenarios: list[TrafficScenario] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    power: PowerTable = field(default_factory=PowerTable)
    dimensioning: DimensioningConfig = field(default_factory=DimensioningConfig)
    catalog: tuple = DEFAULT_CATALOG
    strict: bool = True


def run_single(
    topo: Topology,
    arch: str,
    scenario: TrafficScenario,
    seed: int,
    planner: PlannerConfig = PlannerConfig(),
    power: PowerTable = PowerTable(),
    dimensioning: DimensioningConfig = DimensioningConfig(),
    catalog=DEFAULT_CATALOG,
    strict: bool = True,
):
    """Provision + dimension + evaluate one run; returns (RunResult, state)."""
    matrix = generate_traffic(topo, scenario, seed)
    state = provision_all(topo, matrix, arch, planner, catalog)
    if strict and state.blocked:
        raise BlockingError(
            f"{len(state.blocked)} blocked demands on "
            f"{topo.name}/{arch}/{scenario.name}/seed {seed}"
        )
    cost = network_cost(state)
    _, total = network_power(state, power, dimensioning)
    row = RunResult(
        topology=topo.name,
        arch=arch,
        scenario=scenario.name,
        seed=seed,
        zr_count=cost.zr_count,
        zrplus_count=cost.zrplus_count,
        b2b_modules=cost.b2b_modules,
        router_ports=cost.router_ports,
        module_cost=cost.module_cost,
        power_zr=total.zr_zrplus,
        power_ip=total.ip_router,
        power_optical=total.optical,
        power_total=total.total,
        blocked=len(state.blocked),
    )
    return row, state


def run_experiment(cfg: ExperimentConfig) -> list[RunResult]:
    rows = []
    for topo in cfg.topologies:
        for arch in cfg.archs:
            for scenario in cfg.scenarios:
                for seed in cfg.seeds:
                    row, _ = run_single(
                        topo, arch, scenario, seed,
                        cfg.planner, cfg.power, cfg.dimensioning, cfg.catalog,
                        strict=cfg.strict,
                    )
                    rows.append(row)
    return rows


_NUMERIC = CSV_COLUMNS[4:]


def average_rows(rows: list[RunResult]) -> list[dict]:
    """Arithmetic mean over seeds per (topology, arch, scenario) cell."""
    cells: dict[tuple, list[RunResult]] = {}
    for row in rows:
        cells.setdefault((row.topology, row.arch, row.scenario), []).append(row)
    out = []
    for (topo, arch, scen), members in sorted(cells.items()):
        entry = {"topology": topo, "arch": arch, "scenario": scen, "runs": len(members)}
        for col in _NUMERIC:
            total = 0  # summed left to right: sum() rounds otherwise from 3.12 on
            for m in members:
                total += getattr(m, col)
            entry[col] = total / len(members)
        out.append(entry)
    return out


def compare(averages: list[dict], baseline: str) -> list[dict]:
    """Percentage savings per power category and total versus a baseline arch
    that every (topology, scenario) cell of ``averages`` holds; else ValueError."""
    base = {
        (e["topology"], e["scenario"]): e for e in averages if e["arch"] == baseline
    }
    if not base:
        present = ", ".join(sorted({e["arch"] for e in averages})) or "none"
        raise ValueError(f"baseline {baseline} has no rows; architectures present: {present}")
    missing = sorted({(e["topology"], e["scenario"]) for e in averages} - base.keys())
    if missing:
        cells = ", ".join(f"{topo}/{scen}" for topo, scen in missing)
        raise ValueError(f"baseline {baseline} has no rows for {cells}")
    out = []
    for e in sorted(averages, key=lambda e: (e["topology"], e["scenario"], e["arch"])):
        b = base[(e["topology"], e["scenario"])]
        entry = {
            "topology": e["topology"],
            "scenario": e["scenario"],
            "arch": e["arch"],
            "baseline": baseline,
        }
        for col in ("power_zr", "power_ip", "power_optical", "power_total",
                    "module_cost", "router_ports"):
            ref = b[col]
            entry[f"saving_{col}_pct"] = (
                0.0 if ref == 0 else 100.0 * (ref - e[col]) / ref
            )
        out.append(entry)
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _csv_text(header, records) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in rec] for rec in records)
    return out.getvalue()


def rows_to_csv(rows: list[RunResult]) -> str:
    return _csv_text(CSV_COLUMNS, ([getattr(row, c) for c in CSV_COLUMNS] for row in rows))


_COLUMN_TYPES = typing.get_type_hints(RunResult)


def rows_from_csv(text: str) -> list[RunResult]:
    records = [rec for rec in csv.reader(io.StringIO(text)) if rec]
    header = records[0] if records else []
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header}")
    out = []
    runs: dict[tuple, int] = {}  # (topology, arch, scenario, seed) -> row number
    for n, rec in enumerate(records[1:], start=1):
        if len(rec) != len(CSV_COLUMNS):
            raise ValueError(
                f"CSV row {n} has {len(rec)} fields, expected {len(CSV_COLUMNS)}"
            )
        values = {}
        for column, value in zip(CSV_COLUMNS, rec):
            kind = _COLUMN_TYPES[column]
            try:
                values[column] = x = kind(value)
            except ValueError:
                x = None
            # a tally or a power is finite and not negative; a seed is any int
            if x is None or (column in _NUMERIC and not 0 <= x < math.inf):
                need = kind.__name__ if x is None else f"finite non-negative {kind.__name__}"
                raise ValueError(f"CSV row {n} column {column!r}: expected {need}, got {value!r}")
        row = RunResult(**values)
        # a repeated run would weigh double in its cell's means
        first = runs.setdefault((row.topology, row.arch, row.scenario, row.seed), n)
        if first != n:
            raise ValueError(f"CSV rows {first} and {n} both hold run "
                             f"{row.topology}/{row.arch}/{row.scenario} seed {row.seed}")
        out.append(row)
    return out


def dicts_to_csv(entries: list[dict]) -> str:
    if not entries:
        return "\n"
    cols = list(entries[0].keys())
    return _csv_text(cols, ([e[c] for c in cols] for e in entries))


def rows_to_json(rows: list[RunResult]) -> str:
    return json_text([asdict(r) for r in rows])


def plan_to_json(row: RunResult, state: NetworkState) -> str:
    """The ``plan`` report: ``state``'s lightpaths and blocked demands, and
    ``row``'s module tally under ``summary``."""
    doc = state.to_dict()
    doc["summary"] = {c: getattr(row, c) for c in (
        "zr_count", "zrplus_count", "b2b_modules", "router_ports", "module_cost", "blocked")}
    return json_text(doc)


_POWER_PARTS = ("zr_zrplus", "ip_router", "optical", "total")


def power_to_json(per_node: dict[str, PowerBreakdown], total: PowerBreakdown) -> str:
    """The ``power`` report of :func:`network_power`'s result as JSON."""
    def parts(pb):
        return {p: getattr(pb, p) for p in _POWER_PARTS}
    return json_text({"per_node": {n: parts(pb) for n, pb in sorted(per_node.items())},
                      "total": parts(total)})


def power_to_csv(per_node: dict[str, PowerBreakdown], total: PowerBreakdown) -> str:
    """The ``power`` report as CSV: one row per node, then ``TOTAL``."""
    table = [*sorted(per_node.items()), ("TOTAL", total)]
    return _csv_text(("node", "power_zr", "power_ip", "power_optical", "power_total"),
                     ([n, *(float(getattr(pb, p)) for p in _POWER_PARTS)] for n, pb in table))
