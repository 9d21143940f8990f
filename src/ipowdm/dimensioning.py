"""Node equipment tallies and normalized power/cost for a provisioned state.

Power constants default to the normalized figures of the module/router/optical
device table; all are overridable via config. Shelf and add/drop sizing rules
are artifact constants calibrated so the transparent/opaque optical-power
ratio lands near the reported reference ratios (about 1.56 on the 14-node
Japanese network, about 1.68 on the 17-node German one); see
``DimensioningConfig``.

Add/drop blocks are dimensioned for full nodal add/drop capacity (one bank
per ``adb_capacity`` grid channels per degree), a static design that makes
optical-side power independent of the traffic scenario and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .rmsa import NetworkState
from .topology import MAX_COUNT, is_finite_number, read_json


class PowerConfigError(ValueError):
    """A power table, dimensioning or power config file entry is invalid; the
    message names it."""


@dataclass(frozen=True)
class PowerTable:
    zr: float = 1.0
    zr_plus: float = 1.3
    router_fixed: float = 50.0
    router_modular_per_port: float = 4.0
    shelf: float = 20.0
    iroadm_bidir: float = 3.0
    oa_unidir: float = 1.5
    awg: float = 0.5
    monitoring_opaque_bidir: float = 0.5
    monitoring_transparent_bidir: float = 0.9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_finite_number(value) or value < 0:
                raise PowerConfigError(f"power entry {f.name} must be a finite number "
                                       f">= 0, got {value!r}")


@dataclass(frozen=True)
class DimensioningConfig:
    """Shelf/ADB sizing constants (calibrated shipped defaults).

    ``adb_capacity``: grid channels served per add/drop bank.
    ``shelf_slot_capacity``: slot units per shelf; I-ROADMs, ADB amplifiers,
    standalone OAs and monitoring units live in shelves, AWGs sit outside.
    """

    adb_capacity: int = 32
    shelf_slot_capacity: int = 24
    iroadm_slots: int = 4
    oa_slots: int = 1
    adb_slots: int = 1
    monitoring_slots: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            least = 1 if f.name.endswith("_capacity") else 0
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise PowerConfigError(f"dimensioning entry {f.name} must be an int "
                                       f">= {least}, got {value!r}")
            if value > MAX_COUNT:
                raise PowerConfigError(f"dimensioning entry {f.name} must be <= 2**53, "
                                       f"got {value!r}")


def _config_section(doc: dict, name: str, cls):
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise PowerConfigError(f"power config section {name!r} must be a JSON object")
    known = {f.name for f in fields(cls)}
    for key in section:
        if key not in known:
            raise PowerConfigError(f"power config section {name!r}: unknown key {key!r}")
    return cls(**section)


def load_power_config(path: str | Path) -> tuple[PowerTable, DimensioningConfig]:
    """Read ``{"power": {...}, "dimensioning": {...}}`` from a UTF-8 JSON file;
    raises PowerConfigError, naming the file if it is not UTF-8 JSON."""
    doc = read_json(path, PowerConfigError, "power config")
    if not isinstance(doc, dict):
        raise PowerConfigError("power config must be a JSON object")
    for name in doc:
        if name not in ("power", "dimensioning"):
            raise PowerConfigError(f"power config: unknown section {name!r}")
    return (
        _config_section(doc, "power", PowerTable),
        _config_section(doc, "dimensioning", DimensioningConfig),
    )


@dataclass
class NodeEquipment:
    node: str
    router_chassis: int = 0
    router_ports: int = 0
    plugged_zr: int = 0
    plugged_zrplus: int = 0
    b2b_zr: int = 0
    b2b_zrplus: int = 0
    awg: int = 0
    iroadm: int = 0
    oa: int = 0
    adb: int = 0
    monitoring_units: int = 0
    transparent: bool = False  # ROADM node with optical bypass
    shelves: int = 0


@dataclass
class PowerBreakdown:
    zr_zrplus: float = 0.0
    ip_router: float = 0.0
    optical: float = 0.0

    @property
    def total(self) -> float:
        return self.zr_zrplus + self.ip_router + self.optical

    def __add__(self, other: "PowerBreakdown") -> "PowerBreakdown":
        return PowerBreakdown(
            self.zr_zrplus + other.zr_zrplus,
            self.ip_router + other.ip_router,
            self.optical + other.optical,
        )


@dataclass
class CostReport:
    module_cost: float
    router_ports: int
    zr_count: int = 0
    zrplus_count: int = 0
    b2b_modules: int = 0


def _module_tallies(state: NetworkState):
    """Per-node plugged/b2b module counts from lightpath terminations and regens."""
    plugged: dict[str, dict[str, int]] = {n: {"ZR": 0, "ZR+": 0} for n in state.topology.nodes}
    b2b: dict[str, dict[str, int]] = {n: {"ZR": 0, "ZR+": 0} for n in state.topology.nodes}
    for lp in state.lightpaths.values():
        for end in lp.endpoints:
            plugged[end][lp.mode.module] += 1
        for node in lp.b2b_regen_nodes:
            b2b[node][lp.mode.module] += 2
    return plugged, b2b


def dimension_node(
    node: str,
    state: NetworkState,
    plugged: dict[str, int],
    b2b: dict[str, int],
    cfg: DimensioningConfig = DimensioningConfig(),
) -> NodeEquipment:
    """Equipment of one node, given its plugged and b2b module counts by module."""
    degree = state.topology.degree(node)
    eq = NodeEquipment(node=node, router_chassis=1, transparent=state.arch.optical_bypass)
    eq.plugged_zr = plugged["ZR"]
    eq.plugged_zrplus = plugged["ZR+"]
    eq.b2b_zr = b2b["ZR"]
    eq.b2b_zrplus = b2b["ZR+"]
    eq.router_ports = eq.plugged_zr + eq.plugged_zrplus
    if eq.transparent:
        eq.iroadm = degree
        eq.monitoring_units = degree
        banks = -(-degree * state.topology.grid.channel_count // cfg.adb_capacity)  # ceil, in ints
        eq.adb = banks
        eq.awg = banks        # one mux/demux per bank, outside the shelf
        eq.oa = banks         # low-loss ADBs require an associated amplifier
        slots = (
            eq.iroadm * cfg.iroadm_slots
            + eq.adb * cfg.adb_slots
            + eq.monitoring_units * cfg.monitoring_slots
        )
    else:
        eq.awg = 2 * degree   # mux + demux per direction
        eq.oa = 2 * degree
        eq.monitoring_units = degree
        slots = eq.oa * cfg.oa_slots + eq.monitoring_units * cfg.monitoring_slots
    eq.shelves = -(-slots // cfg.shelf_slot_capacity)  # ceil, in ints: exact at any count
    return eq


def dimension_network(state: NetworkState, cfg: DimensioningConfig = DimensioningConfig()):
    plugged, b2b = _module_tallies(state)
    return {
        n: dimension_node(n, state, plugged[n], b2b[n], cfg) for n in state.topology.nodes
    }


def power_of(eq: NodeEquipment, pt: PowerTable = PowerTable()) -> PowerBreakdown:
    zr = (eq.plugged_zr + eq.b2b_zr) * pt.zr + (eq.plugged_zrplus + eq.b2b_zrplus) * pt.zr_plus
    ip = pt.router_fixed * eq.router_chassis + pt.router_modular_per_port * eq.router_ports
    mon_unit = pt.monitoring_transparent_bidir if eq.transparent else pt.monitoring_opaque_bidir
    optical = (
        pt.shelf * eq.shelves
        + pt.iroadm_bidir * eq.iroadm
        + pt.oa_unidir * eq.oa
        + pt.awg * eq.awg
        + mon_unit * eq.monitoring_units
    )
    return PowerBreakdown(zr, ip, optical)


def network_power(
    state: NetworkState,
    pt: PowerTable = PowerTable(),
    cfg: DimensioningConfig = DimensioningConfig(),
) -> tuple[dict[str, PowerBreakdown], PowerBreakdown]:
    """Each node's power and the network's total. A total that overflows to
    inf raises PowerConfigError naming the entry whose terms alone sum highest."""
    equipment = dimension_network(state, cfg)
    per_node = {n: power_of(eq, pt) for n, eq in equipment.items()}
    total = PowerBreakdown()
    for pb in per_node.values():
        total = total + pb
    if not math.isfinite(total.total):
        zero = dict.fromkeys((f.name for f in fields(pt)), 0.0)
        alone = {e: PowerTable(**{**zero, e: getattr(pt, e)}) for e in zero}  # the rest 0
        entry = max(zero, key=lambda e: sum(power_of(eq, alone[e]).total
                                            for eq in equipment.values()))
        raise PowerConfigError(f"power entry {entry} = {getattr(pt, entry)!r} overflows the "
                               f"power total of {state.topology.name}/{state.arch.name} to inf")
    return per_node, total


def network_cost(state: NetworkState) -> CostReport:
    """Weighted module cost (b2b pairs included) and total router ports."""
    zr = zrplus = b2b_modules = ports = 0
    cost = 0.0
    for lp in state.lightpaths.values():
        n_term = 2
        n_b2b = 2 * len(lp.b2b_regen_nodes)
        if lp.mode.module == "ZR":
            zr += n_term + n_b2b
        else:
            zrplus += n_term + n_b2b
        b2b_modules += n_b2b
        ports += n_term
        cost += lp.mode.cost_units * (n_term + n_b2b)
    return CostReport(cost, ports, zr, zrplus, b2b_modules)
