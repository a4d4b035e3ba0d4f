"""splitsim: discrete-event simulator and provisioning optimizer for
phase-split generative LLM inference serving.

The package models clusters that run the prompt (prefill) and token
(decode) phases of LLM inference on separate machine pools connected by
KV-cache transfers, simulates request traces against latency SLOs, and
searches machine-count designs under power, cost, or throughput
constraints.
"""

from .errors import (
    CapacityError,
    ConfigurationError,
    FitError,
    HorizonExceeded,
    InvariantError,
    ParseError,
    SloViolated,
    SplitsimError,
    ValidationError,
)
from .trace import (
    PRESETS,
    Request,
    SizeDistribution,
    Trace,
    generate_trace,
    parse_trace,
    serialize_trace,
    trace_stats,
)
from .perf import (
    LLM_SPECS,
    MACHINE_SPECS,
    FitReport,
    LlmSpec,
    MachineSpec,
    PerfModel,
    ProfileSample,
    export_profile_csv,
    fit_piecewise_linear,
    get_calibration,
    parse_profile_csv,
)
from .transfer import (
    TransferConfig,
    TransferPlan,
    default_transfer_config,
    plan_transfer,
    raw_transfer_time,
    select_mode,
)
from .machine import MIXED, PROMPT, TOKEN, Batch, Machine, SchedulerConfig, Task
from .cluster import DESIGNS, Cluster, ClusterConfig, normalize_design
from .report import (
    MetricsReport,
    RequestRecord,
    SimResult,
    SloTable,
    check_slo,
    percentile,
    reference_latencies,
)
from .engine import Simulator
from .provision import (
    DesignPoint,
    SearchResult,
    SearchSpec,
    Workload,
    budget_max_count,
    design_cost_power,
    machine_cost_power,
    max_throughput,
    search,
    slo_pass_at_rate,
)

__version__ = "0.1.0"

__all__ = [
    "Batch", "CapacityError", "Cluster", "ClusterConfig",
    "ConfigurationError", "DESIGNS", "DesignPoint", "FitError", "FitReport",
    "HorizonExceeded", "InvariantError", "LLM_SPECS", "LlmSpec",
    "MACHINE_SPECS", "MIXED", "Machine", "MachineSpec", "MetricsReport",
    "PRESETS", "ParseError", "PerfModel",
    "PROMPT", "ProfileSample", "Request", "RequestRecord",
    "SchedulerConfig", "SearchResult", "SearchSpec", "SimResult",
    "Simulator", "SizeDistribution", "SloTable", "SloViolated",
    "SplitsimError", "TOKEN", "Task", "Trace", "TransferConfig",
    "TransferPlan", "ValidationError",
    "Workload", "budget_max_count", "check_slo", "default_transfer_config",
    "design_cost_power", "export_profile_csv", "fit_piecewise_linear",
    "generate_trace", "get_calibration", "machine_cost_power",
    "max_throughput", "normalize_design", "parse_profile_csv", "parse_trace",
    "percentile", "plan_transfer", "raw_transfer_time", "reference_latencies",
    "search", "select_mode", "serialize_trace", "slo_pass_at_rate",
    "trace_stats",
]
