"""Deterministic SDN simulation with delay estimation and fault resilience.

The package models a software-defined network at packet level: a controller
estimates per-link delays from probe timestamps, keeps a directed cost
matrix, routes flows over the cheapest path, and defends per-flow delay
contracts against link failures and runtime requirement changes with a
configurable resilience manager.
"""

# Before the submodule imports: the report manifest and pyproject.toml read it.
__version__ = "0.1.0"

from .contracts import (  # noqa: E402
    ContractKind,
    ContractPair,
    ContractStore,
    FaultCause,
    FaultReport,
    create_contract_pair,
    observe,
)
from .core import (
    ControlChannel,
    Flow,
    Link,
    LinkSpec,
    LinkState,
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    SimConfig,
    Topology,
    TopologyError,
    TopologySpec,
    UNBOUNDED_DELAY,
    build_topology,
    transmission_delay,
)
from .delay_estimation import (
    CostMatrix,
    EstimationRecord,
    MissingCostError,
    ProbeObservation,
    ProbePlan,
    estimate_link_delay,
    estimate_path_delay,
    link_cost,
    run_estimation_cycle,
)
from .harness import (
    ExperimentResult,
    MetricsReport,
    RunResult,
    compute_restoration_stats,
    compute_success_rate,
    compute_throughput,
    emit_reports,
    run_experiment,
    run_single,
)
from .injections import (
    Injection,
    LinkDownInjection,
    LinkUpInjection,
    PedChangeInjection,
    materialize_injections,
)
from .kernel import Kernel, PacketRecord
from .resilience import (
    MechanismVariant,
    ResilienceManager,
    RestorationRecord,
    VARIANTS,
    WarningRecord,
    variant_by_name,
)
from .routing import NoPathError, RouteResult, find_path
from .runlog import RunLog
from .scenario import Scenario, load_scenario, parse_scenario
