"""System configuration: parsing, validation, and serialization of the JSON
document that declares sensors, actuators, behaviors, algorithms, safety
checks, and scheduler parameters.

The accepted document is a superset of the minimal four-array form
(`sensors`, `actuators`, `behaviors`, `algorithms`); `safety_checks` and
`scheduler` are optional.  Unknown keys are rejected everywhere so typos
fail fast instead of silently configuring nothing.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from .sensorproc import PLUGIN_REGISTRY, PluginParamError, finite_float

SENSOR_KINDS = ("i2c", "spi", "gpio", "analog", "virtual")
ACTUATOR_KINDS = ("pwm", "gpio", "audio", "virtual")

DEFAULT_DELTA = 0.0
DEFAULT_PERIOD_US = 10_000
DEFAULT_ALPHA = 0.05
P_MAX = 1.0  # the cap on an adapted priority; the `p_max` key takes no other value
DEFAULT_WINDOW_US = 1_000_000
DEFAULT_TASK_COST_US = 100

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEX_RE = re.compile(r"0[xX][0-9A-Fa-f]+")
# a JSON string (an unterminated one runs to the end, so a scan stays linear),
# bracket or number (integer digits, fraction, exponent)
_JSON_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[{]|[\]}]|-?(\d+)(\.\d+)?([eE][-+]?\d+)?', re.ASCII | re.DOTALL)


class ConfigError(Exception):
    """Base class for configuration failures."""

    def lines(self) -> list[str]:
        return [str(self)]


class ConfigSyntaxError(ConfigError):
    """The document is not valid JSON."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemaError(ConfigError):
    """The document is valid JSON but violates the schema at `path`."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class UnknownPluginError(SchemaError):
    """An algorithm names a plugin that is not in the registry."""


class CrossReferenceError(SchemaError):
    """Aggregate of every dangling reference found while validating: located
    at the first of `issues`, and listing them all."""

    def __init__(self, issues: list[SchemaError]):
        super().__init__(issues[0].path, issues[0].reason)
        self.issues = issues

    def lines(self) -> list[str]:
        return [str(issue) for issue in self.issues]


@dataclass(frozen=True, slots=True)
class SensorSpec:
    name: str
    kind: str
    address: int | None = None
    pin: int | None = None
    delta: float = DEFAULT_DELTA
    period_us: int = DEFAULT_PERIOD_US
    units: str = ""


@dataclass(frozen=True, slots=True)
class ActuatorSpec:
    name: str
    kind: str
    pin: int | None = None
    min_value: float = 0.0
    max_value: float = 1.0

    def clamp(self, value: float) -> float:
        """`value` limited to the actuator's bounds."""
        return min(max(value, self.min_value), self.max_value)


@dataclass(frozen=True, slots=True)
class BehaviorSpec:
    name: str
    priority: float | None = None
    action: str | None = None
    safety: bool = False


@dataclass(frozen=True, slots=True)
class AlgorithmSpec:
    name: str
    plugin: str
    inputs: tuple[str, ...]
    output: str
    params: tuple[tuple[str, Any], ...] = ()

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True, slots=True)
class SafetyCheckSpec:
    name: str
    sensor: str
    threshold: float


@dataclass(frozen=True, slots=True)
class SchedulerParams:
    alpha: float = DEFAULT_ALPHA
    window_us: int = DEFAULT_WINDOW_US
    default_task_cost_us: int = DEFAULT_TASK_COST_US


@dataclass(frozen=True, slots=True)
class SystemConfig:
    sensors: tuple[SensorSpec, ...] = ()
    actuators: tuple[ActuatorSpec, ...] = ()
    behaviors: tuple[BehaviorSpec, ...] = ()
    algorithms: tuple[AlgorithmSpec, ...] = ()
    safety_checks: tuple[SafetyCheckSpec, ...] = ()
    scheduler: SchedulerParams = SchedulerParams()


# ---------------------------------------------------------------------------
# low-level field helpers


def _check_keys(obj: dict, allowed: Iterable[str], path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown key")


def _get_str(obj: dict, key: str, path: str, *, required: bool = False, default: str = "") -> str:
    if key not in obj:
        if required:
            raise SchemaError(f"{path}.{key}", "required")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{key}", "must be a string")
    return value


def _get_name(obj: dict, path: str) -> str:
    name = _get_str(obj, "name", path, required=True)
    if not _NAME_RE.fullmatch(name):
        raise SchemaError(f"{path}.name", f"invalid identifier {name!r}")
    return name


def _get_number(obj: dict, key: str, path: str, *, default: float | None = None) -> float | None:
    if key not in obj:
        return default
    value = finite_float(obj[key])
    if value is None:
        raise SchemaError(f"{path}.{key}", "must be a finite number")
    return value


def _get_int(obj: dict, key: str, path: str, *, default: int | None = None, minimum: int = 0) -> int | None:
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}", "must be an integer")
    if value < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum}")
    return value


def _get_bool(obj: dict, key: str, path: str, *, default: bool = False) -> bool:
    if key not in obj:
        return default
    value = obj[key]
    if not isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "must be a boolean")
    return value


def _get_pin(obj: dict, path: str) -> int | None:
    # Pins may appear as integers or decimal strings ("5" in the wild).
    if "pin" not in obj:
        return None
    value = obj["pin"]
    if isinstance(value, str) and value.isdigit():
        try:
            return int(value)
        except ValueError:  # a digit int() does not take, or too many of them
            pass
    elif isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise SchemaError(f"{path}.pin", "must be a non-negative integer")


def _get_address(obj: dict, path: str) -> int | None:
    if "address" not in obj:
        return None
    value = obj["address"]
    if not isinstance(value, str) or not _HEX_RE.fullmatch(value):
        raise SchemaError(f"{path}.address", "must be a 0x-prefixed hex string")
    return int(value, 16)


def _get_kind(obj: dict, path: str, kinds: Sequence[str]) -> str:
    raw = _get_str(obj, "type", path, required=True)
    kind = raw.lower()
    if kind not in kinds:
        raise SchemaError(f"{path}.type", f"unknown kind {raw!r} (expected one of {', '.join(kinds)})")
    return kind


# ---------------------------------------------------------------------------
# section parsers


def _parse_sensor(obj: Any, path: str) -> SensorSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    _check_keys(obj, ("name", "type", "address", "pin", "delta", "period_us", "units"), path)
    name = _get_name(obj, path)
    kind = _get_kind(obj, path, SENSOR_KINDS)
    address = _get_address(obj, path)
    pin = _get_pin(obj, path)
    if kind in ("i2c", "spi"):
        if address is None:
            raise SchemaError(f"{path}.address", f"required for {kind} sensors")
        if pin is not None:
            raise SchemaError(f"{path}.pin", f"not allowed for {kind} sensors")
    elif kind in ("gpio", "analog"):
        if pin is None:
            raise SchemaError(f"{path}.pin", f"required for {kind} sensors")
        if address is not None:
            raise SchemaError(f"{path}.address", f"not allowed for {kind} sensors")
    else:  # virtual
        if address is not None or pin is not None:
            raise SchemaError(path, "virtual sensors take neither address nor pin")
    delta = _get_number(obj, "delta", path, default=DEFAULT_DELTA)
    assert delta is not None
    if delta < 0:
        raise SchemaError(f"{path}.delta", "must be >= 0")
    period_us = _get_int(obj, "period_us", path, default=DEFAULT_PERIOD_US, minimum=1)
    assert period_us is not None
    units = _get_str(obj, "units", path)
    return SensorSpec(name=name, kind=kind, address=address, pin=pin, delta=delta, period_us=period_us, units=units)


def _parse_actuator(obj: Any, path: str) -> ActuatorSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    _check_keys(obj, ("name", "type", "pin", "min_value", "max_value"), path)
    name = _get_name(obj, path)
    kind = _get_kind(obj, path, ACTUATOR_KINDS)
    pin = _get_pin(obj, path)
    min_value = _get_number(obj, "min_value", path, default=0.0)
    max_value = _get_number(obj, "max_value", path, default=1.0)
    assert min_value is not None and max_value is not None
    if min_value > max_value:
        raise SchemaError(f"{path}.min_value", "must be <= max_value")
    return ActuatorSpec(name=name, kind=kind, pin=pin, min_value=min_value, max_value=max_value)


def _parse_behavior(obj: Any, path: str) -> BehaviorSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    _check_keys(obj, ("name", "priority", "action", "safety"), path)
    name = _get_name(obj, path)
    priority = _get_number(obj, "priority", path)
    safety = _get_bool(obj, "safety", path)
    action = _get_str(obj, "action", path) or None
    return BehaviorSpec(name=name, priority=priority, action=action, safety=safety)


def _parse_algorithm(obj: Any, path: str, sensor_names: Sequence[str]) -> AlgorithmSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    _check_keys(obj, ("name", "plugin", "path", "inputs", "output", "params"), path)
    name = _get_name(obj, path)
    plugin = _get_str(obj, "plugin", path) or None
    module_path = _get_str(obj, "path", path) or None
    legacy = plugin is None  # a `path` module may read params of its own
    if plugin is not None:
        if plugin not in PLUGIN_REGISTRY:
            raise UnknownPluginError(f"{path}.plugin", f"unknown plugin {plugin!r}")
    elif module_path is not None:
        # Shared-object paths are opaque keys: a basename that matches a
        # registry entry selects it, anything else degrades to passthrough.
        stem = module_path.rsplit("/", 1)[-1].split(".", 1)[0].lower()
        plugin = stem if stem in PLUGIN_REGISTRY else "passthrough"
    else:
        raise SchemaError(f"{path}.plugin", "either 'plugin' or 'path' is required")

    if "inputs" in obj:
        raw_inputs = obj["inputs"]
        if not isinstance(raw_inputs, list) or not raw_inputs:
            raise SchemaError(f"{path}.inputs", "must be a non-empty array of sensor names")
        inputs = []
        for j, item in enumerate(raw_inputs):
            if not isinstance(item, str):
                raise SchemaError(f"{path}.inputs[{j}]", "must be a string")
            inputs.append(item)
    else:
        inputs = list(sensor_names)

    output = _get_str(obj, "output", path) or name

    params: list[tuple[str, Any]] = []
    if "params" in obj:
        raw_params = obj["params"]
        if not isinstance(raw_params, dict):
            raise SchemaError(f"{path}.params", "must be an object")
        for key, value in raw_params.items():
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise SchemaError(f"{path}.params.{key}", "must be a number or string")
            params.append((key, value))
    unread = dict(params)
    try:
        PLUGIN_REGISTRY[plugin](unread)
    except PluginParamError as exc:
        raise SchemaError(f"{path}.params.{exc.key}", exc.reason) from None
    if unread and not legacy:
        raise SchemaError(f"{path}.params.{sorted(unread)[0]}", "unknown key")
    return AlgorithmSpec(name=name, plugin=plugin, inputs=tuple(inputs), output=output, params=tuple(params))


def _parse_safety_check(obj: Any, path: str) -> SafetyCheckSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    _check_keys(obj, ("name", "sensor", "threshold"), path)
    name = _get_name(obj, path)
    sensor = _get_str(obj, "sensor", path, required=True)
    threshold = _get_number(obj, "threshold", path)
    if threshold is None:
        raise SchemaError(f"{path}.threshold", "required")
    return SafetyCheckSpec(name=name, sensor=sensor, threshold=threshold)


def _parse_scheduler(obj: Any, path: str) -> SchedulerParams:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    _check_keys(obj, ("alpha", "window_us", "p_max", "default_task_cost_us"), path)
    alpha = _get_number(obj, "alpha", path, default=DEFAULT_ALPHA)
    assert alpha is not None
    if alpha < 0:
        raise SchemaError(f"{path}.alpha", "must be >= 0")
    alpha = alpha or 0.0  # a negative zero reads as 0, so no update logs a delta of -0.000000
    window_us = _get_int(obj, "window_us", path, default=DEFAULT_WINDOW_US, minimum=1)
    assert window_us is not None
    key = "p_max"  # accepted as P_MAX only, so SchedulerParams holds no field for it
    if _get_number(obj, key, path, default=P_MAX) != P_MAX:
        raise SchemaError(f"{path}.{key}", f"is fixed at {P_MAX}")
    cost = _get_int(obj, "default_task_cost_us", path, default=DEFAULT_TASK_COST_US, minimum=1)
    assert cost is not None
    return SchedulerParams(alpha=alpha, window_us=window_us, default_task_cost_us=cost)


def _check_unique(names: Iterable[str], section: str, field: str = "name") -> None:
    seen: set[str] = set()
    for i, n in enumerate(names):
        if n in seen:
            raise SchemaError(f"{section}[{i}].{field}", "duplicate")
        seen.add(n)


# ---------------------------------------------------------------------------
# priorities


def fill_priorities(declared: Sequence[float | None], pinned: Iterable[int] = ()) -> list[float]:
    """Complete a priority listing: pinned slots become 1.0, declared values
    stay untouched, and each missing slot i gets 1 - (i+1)/(N+1), nudged down
    by 1/(10(N+1)) while it collides with an existing value (halving once a
    nudge would leave the open interval)."""
    pinned_set = set(pinned)
    n = len(declared)
    step = 1.0 / (10 * (n + 1))
    taken = {v for i, v in enumerate(declared) if v is not None and i not in pinned_set}
    out: list[float] = []
    for i, value in enumerate(declared):
        if i in pinned_set:
            out.append(1.0)
            continue
        if value is not None:
            out.append(value)
            continue
        p = 1.0 - (i + 1) / (n + 1)
        while p in taken:
            nudged = p - step
            p = nudged if nudged > 0.0 else p / 2.0
        taken.add(p)
        out.append(p)
    return out


def default_priorities(behaviors: Sequence[BehaviorSpec]) -> list[BehaviorSpec]:
    """Resolve every behavior to a concrete priority.

    Safety behaviors pin to exactly 1.0 regardless of any declared value;
    the rest keep their declared priority or draw from the default pool.
    """
    declared = [b.priority for b in behaviors]
    pinned = [i for i, b in enumerate(behaviors) if b.safety]
    values = fill_priorities(declared, pinned)
    return [replace(b, priority=v) for b, v in zip(behaviors, values)]


def _unlocated_syntax_error(text: str, exc: ValueError | RecursionError) -> ConfigSyntaxError:
    """Locate what json.loads rejects without a position: nesting past the
    recursion limit, reported at the first bracket of the deepest nesting, or
    an integer too long to convert, at the first such integer."""
    pos = 0
    if isinstance(exc, RecursionError):
        reason = "nested too deeply"
        depth = deepest = 0
        for token in _JSON_TOKEN_RE.finditer(text):
            if token.group() in ("[", "{"):
                depth += 1
                if depth > deepest:
                    deepest, pos = depth, token.start()
            elif token.group() in ("]", "}"):
                depth -= 1
    else:
        reason = str(exc)
        limit = sys.get_int_max_str_digits()
        for token in _JSON_TOKEN_RE.finditer(text):
            digits, fraction, exponent = token.groups()
            if digits is not None and fraction is None and exponent is None and len(digits) > limit:
                pos = token.start()
                break
    return ConfigSyntaxError(reason, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


# ---------------------------------------------------------------------------
# public operations


def processing_stages(config: SystemConfig) -> tuple[AlgorithmSpec, ...]:
    """Every processing stage in wiring order: the config's algorithms, then a
    passthrough stage `<sensor>_proc` for each sensor no algorithm reads."""
    consumed = {name for alg in config.algorithms for name in alg.inputs}
    return config.algorithms + tuple(
        AlgorithmSpec(f"{s.name}_proc", "passthrough", (s.name,), f"{s.name}_proc")
        for s in config.sensors
        if s.name not in consumed
    )


def command_topic(actuator: str) -> str:
    """Behavior-layer topic carrying an actuator's commands."""
    return f"{actuator}_cmd"


def parse_config(text: str) -> SystemConfig:
    """Parse and fully validate a configuration document.

    Raises ConfigSyntaxError for malformed JSON, SchemaError (with a field
    path) for shape violations and plugin params the factory refuses or, in a
    `plugin` entry, does not read; UnknownPluginError for unregistered
    plugins, and CrossReferenceError, listing validate_config's issues, when
    references dangle or a behavior priority is out of range or repeated (so
    a priority issue comes after any schema error).  A returned config always
    passes validate_config with no issue.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except (ValueError, RecursionError) as exc:
        raise _unlocated_syntax_error(text, exc) from None
    if not isinstance(raw, dict):
        raise SchemaError("$", "top-level value must be an object")
    allowed = ("sensors", "actuators", "behaviors", "algorithms", "safety_checks", "scheduler")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise SchemaError(unknown[0], "unknown top-level key")

    def section(key: str) -> list:
        value = raw.get(key, [])
        if not isinstance(value, list):
            raise SchemaError(key, "must be an array")
        return value

    sensors = [_parse_sensor(o, f"sensors[{i}]") for i, o in enumerate(section("sensors"))]
    _check_unique((s.name for s in sensors), "sensors")
    actuators = [_parse_actuator(o, f"actuators[{i}]") for i, o in enumerate(section("actuators"))]
    _check_unique((a.name for a in actuators), "actuators")

    behaviors = [_parse_behavior(o, f"behaviors[{i}]") for i, o in enumerate(section("behaviors"))]
    _check_unique((b.name for b in behaviors), "behaviors")
    behaviors = default_priorities(behaviors)

    sensor_names = [s.name for s in sensors]
    algorithms = [
        _parse_algorithm(o, f"algorithms[{i}]", sensor_names) for i, o in enumerate(section("algorithms"))
    ]
    _check_unique((a.name for a in algorithms), "algorithms")
    safety_checks = [_parse_safety_check(o, f"safety_checks[{i}]") for i, o in enumerate(section("safety_checks"))]
    _check_unique((c.name for c in safety_checks), "safety_checks")

    scheduler = _parse_scheduler(raw.get("scheduler", {}), "scheduler")

    config = SystemConfig(
        sensors=tuple(sensors),
        actuators=tuple(actuators),
        behaviors=tuple(behaviors),
        algorithms=tuple(algorithms),
        safety_checks=tuple(safety_checks),
        scheduler=scheduler,
    )
    issues = validate_config(config)
    if issues:
        raise CrossReferenceError(issues)
    return config


def validate_config(config: SystemConfig) -> list[SchemaError]:
    """Every dangling cross-reference and global inconsistency, located; empty
    for a valid config."""
    issues: list[SchemaError] = []
    sensor_names = {s.name for s in config.sensors}
    actuator_names = {a.name for a in config.actuators}

    for i, b in enumerate(config.behaviors):
        if b.action is not None and b.action not in actuator_names:
            issues.append(SchemaError(f"behaviors[{i}].action", f"unresolved actuator {b.action!r}"))
    for i, alg in enumerate(config.algorithms):
        for j, inp in enumerate(alg.inputs):
            if inp not in sensor_names:
                issues.append(SchemaError(f"algorithms[{i}].inputs[{j}]", f"unresolved sensor {inp!r}"))
        if not alg.inputs:
            issues.append(SchemaError(f"algorithms[{i}].inputs", "must not be empty"))
    for i, check in enumerate(config.safety_checks):
        if check.sensor not in sensor_names:
            issues.append(SchemaError(f"safety_checks[{i}].sensor", f"unresolved sensor {check.sensor!r}"))

    if (config.algorithms or config.safety_checks) and not config.sensors:
        issues.append(SchemaError("sensors", "at least one sensor required by algorithms or safety checks"))

    # every topic has one producer: a later claim on a topic is the collision
    sensor_paths = {s.name: f"sensors[{i}].name" for i, s in enumerate(config.sensors)}
    stages = processing_stages(config)
    claims = [(s.name, "topic", f"sensors[{i}].name") for i, s in enumerate(config.sensors)]
    for i, stage in enumerate(stages):
        if i < len(config.algorithms):
            claims.append((stage.output, "topic", f"algorithms[{i}].output"))
        else:
            claims.append((stage.output, "passthrough topic", sensor_paths[stage.inputs[0]]))
    claims += [(command_topic(a.name), "command topic", f"actuators[{i}].name") for i, a in enumerate(config.actuators)]
    producers: dict[str, str] = {}  # topic -> the path of its first claim
    for topic, what, path in claims:
        if topic in producers:
            issues.append(SchemaError(path, f"{what} {topic!r} is already produced by {producers[topic]}"))
        else:
            producers[topic] = path

    # every stage is one task, `algorithmic.<name>`: the passthrough stages claim
    # their names first, as they follow from the sensors' names
    owners = {
        stage.name: f"the passthrough stage of {sensor_paths[stage.inputs[0]]}"
        for stage in stages[len(config.algorithms) :]
    }
    for i, alg in enumerate(config.algorithms):
        path = f"algorithms[{i}].name"
        if alg.name in owners:
            issues.append(SchemaError(path, f"stage name {alg.name!r} is already taken by {owners[alg.name]}"))
        else:
            owners[alg.name] = path

    seen: set[float] = set()
    for i, b in enumerate(config.behaviors):
        if b.safety:
            if b.priority != 1.0:
                issues.append(SchemaError(f"behaviors[{i}].priority", "safety behaviors pin to 1.0"))
            continue
        if b.priority is None or not (0.0 < b.priority < 1.0):
            issues.append(SchemaError(f"behaviors[{i}].priority", "must be strictly between 0 and 1"))
        elif b.priority in seen:
            issues.append(SchemaError(f"behaviors[{i}].priority", "duplicate"))
        else:
            seen.add(b.priority)

    return issues


def serialize_config(config: SystemConfig) -> str:
    """Render a config back to JSON text such that re-parsing reproduces it."""
    doc: dict[str, Any] = {"sensors": [], "actuators": [], "behaviors": [], "algorithms": []}
    for s in config.sensors:
        entry: dict[str, Any] = {"name": s.name, "type": s.kind}
        if s.address is not None:
            entry["address"] = f"0x{s.address:x}"
        if s.pin is not None:
            entry["pin"] = s.pin
        entry["delta"] = s.delta
        entry["period_us"] = s.period_us
        entry["units"] = s.units
        doc["sensors"].append(entry)
    for a in config.actuators:
        entry = {"name": a.name, "type": a.kind}
        if a.pin is not None:
            entry["pin"] = a.pin
        entry["min_value"] = a.min_value
        entry["max_value"] = a.max_value
        doc["actuators"].append(entry)
    for b in config.behaviors:
        entry = {"name": b.name}
        if not b.safety:
            entry["priority"] = b.priority
        if b.action is not None:
            entry["action"] = b.action
        entry["safety"] = b.safety
        doc["behaviors"].append(entry)
    for alg in config.algorithms:
        doc["algorithms"].append(
            {
                "name": alg.name,
                "plugin": alg.plugin,
                "inputs": list(alg.inputs),
                "output": alg.output,
                "params": alg.params_dict(),
            }
        )
    if config.safety_checks:
        doc["safety_checks"] = [
            {"name": c.name, "sensor": c.sensor, "threshold": c.threshold} for c in config.safety_checks
        ]
    sched = config.scheduler
    doc["scheduler"] = {
        "alpha": sched.alpha,
        "window_us": sched.window_us,
        "p_max": P_MAX,
        "default_task_cost_us": sched.default_task_cost_us,
    }
    return json.dumps(doc, indent=2) + "\n"
