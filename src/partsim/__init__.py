"""partsim: deterministic simulation of a partitioned real-time system.

A fixed cyclic scheduler with strict temporal isolation, sampling and
queuing inter-partition ports, a health monitor, scripted partition
workloads, a broker-mediated pub/sub delay emulator, and a measurement
harness that sweeps payload sizes over repeated runs and reports exact
latency statistics.
"""

from .channels import Message, PortStatus, PortTable
from .config import (
    ChannelKind,
    ChannelSpec,
    ConfigError,
    CopyCost,
    Finding,
    MemoryArea,
    PartitionSpec,
    PortRef,
    RangeError,
    SchemaError,
    SchedulePlan,
    ScheduleSlot,
    SystemConfig,
    UnknownSlot,
    XmlSyntaxError,
    parse_config,
    transition_gap,
    validate,
)
from .harness import (
    EmptyResult,
    MeasurementError,
    Mode,
    RepetitionRecord,
    RunResult,
    Scenario,
    ScenarioError,
    ScenarioInvalid,
    SummaryStats,
    export_csv,
    load_scenario,
    parse_scenario,
    run_scenario,
    summarize,
)
from .health import (
    DEFAULT_ACTIONS,
    HealthAction,
    HealthTable,
    HmKind,
    raise_event,
)
from .middleware import (
    BrokerTopology,
    LinkModel,
    LoadProfile,
    default_topology,
    repetition_rng,
    tx_delay,
    tx_time,
)
from .scheduler import (
    ConfigInvalid,
    PartitionState,
    SimState,
    SimulationError,
)
from .units import Duration, parse_duration
from .workload import AppCursor, AppScript, ScriptMode, parse_script

__version__ = "0.1.0"
