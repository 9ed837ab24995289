"""Deterministic host-side runtime for behavior-driven robots: a behavior
DSL, a layered publish-subscribe bus with significance gating and safety
halts, an adaptive priority scheduler, and a trace-replay event engine."""

from .config import (
    ConfigError,
    SchemaError,
    SystemConfig,
    default_priorities,
    parse_config,
    serialize_config,
    validate_config,
)
from .dsl import (
    BehaviorProgram,
    BindErrors,
    BoundProgram,
    ParseError,
    bind_program,
    eval_condition,
    format_program,
    parse_program,
)
from .engine import (
    ExecutionLog,
    TraceError,
    compute_stats,
    load_trace,
    parse_log,
    run,
    serialize_log,
    serialize_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorProgram",
    "BindErrors",
    "BoundProgram",
    "ConfigError",
    "ExecutionLog",
    "ParseError",
    "SchemaError",
    "SystemConfig",
    "TraceError",
    "bind_program",
    "compute_stats",
    "default_priorities",
    "eval_condition",
    "format_program",
    "load_trace",
    "parse_config",
    "parse_log",
    "parse_program",
    "run",
    "serialize_config",
    "serialize_log",
    "serialize_stats",
    "validate_config",
]
