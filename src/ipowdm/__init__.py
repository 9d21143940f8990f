"""Deterministic planning simulator for IP-over-WDM networks with ZR/ZR+
pluggable coherent modules: provisioning under four node architectures,
equipment dimensioning, and normalized power/cost comparison."""

from .topology import (
    ChannelGrid,
    Link,
    Topology,
    TopologyError,
    k_shortest_paths,
    load_named_topology,
    parse_topology,
)
from .traffic import Demand, TrafficMatrix, TrafficScenario, generate_traffic, load_scenario
from .transceiver import (
    DEFAULT_CATALOG,
    CatalogError,
    LinkExceedsReach,
    NoFeasibleMode,
    TransceiverMode,
    plan_regeneration,
    select_mode_min_regens,
    select_modes_min_channels,
)
from .rmsa import (
    ARCHITECTURES,
    ARCH_NAMES,
    BlockedError,
    Lightpath,
    NetworkState,
    PlannerConfig,
    provision_all,
    route_demand,
)
from .dimensioning import (
    CostReport,
    DimensioningConfig,
    NodeEquipment,
    PowerBreakdown,
    PowerConfigError,
    PowerTable,
    dimension_network,
    dimension_node,
    network_cost,
    network_power,
    power_of,
)

__version__ = "0.1.0"
