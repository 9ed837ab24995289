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
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .sensorproc import PLUGIN_REGISTRY, PluginParamError, finite_float

SENSOR_KINDS = ("i2c", "spi", "gpio", "analog", "virtual")
ACTUATOR_KINDS = ("pwm", "gpio", "audio", "virtual")

P_MAX = 1.0  # the cap on an adapted priority; the `p_max` key takes no other value

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEX_RE = re.compile(r"0[xX][0-9A-Fa-f]+")
# a JSON string (an unterminated one runs to the end, so a scan stays linear),
# bracket or number (integer digits, fraction, exponent)
_JSON_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[{]|[\]}]|-?(\d+)(\.\d+)?([eE][-+]?\d+)?', re.ASCII | re.DOTALL)

# Every JSON reader (the config's, the trace's and the log's slow path)
# refuses a text nested deeper than this as nested too deeply, ahead of any
# other reason.  A decoder meets the recursion limit sooner from a deeper
# caller, so the limit is well under it, and the verdict is the input's own.
# No valid input nests past its schema (a config 5 deep, a log line 3, a
# trace line 1), so only a refused text is measured.
MAX_JSON_DEPTH = 100


def json_depth(text: str) -> tuple[int, int]:
    """How deep the brackets of JSON `text` nest outside its strings, and
    where the first bracket at that depth is (0 if none)."""
    depth = deepest = pos = 0
    for token in _JSON_TOKEN_RE.finditer(text):
        if token.group() in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, pos = depth, token.start()
        elif token.group() in ("]", "}"):
            depth -= 1
    return deepest, pos


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


# ---------------------------------------------------------------------------
# field getters: each checks a present value, located at `where`, and converts it

_Getter = Callable[[Any, str], Any]


def _get_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(where, "must be a string")
    return value


def _get_str_or_none(value: Any, where: str) -> str | None:
    return _get_str(value, where) or None  # an empty string names nothing


def _get_name(value: Any, where: str) -> str:
    name = _get_str(value, where)
    if not _NAME_RE.fullmatch(name):
        raise SchemaError(where, f"invalid identifier {name!r}")
    return name


def _get_kind(value: Any, where: str, kinds: Sequence[str]) -> str:
    kind = _get_str(value, where).lower()
    if kind not in kinds:
        raise SchemaError(where, f"unknown kind {value!r} (expected one of {', '.join(kinds)})")
    return kind


def _get_number(value: Any, where: str, minimum: int | None = None) -> float:
    number = finite_float(value)
    if number is None:
        raise SchemaError(where, "must be a finite number")
    if minimum is not None and number < minimum:
        raise SchemaError(where, f"must be >= {minimum}")
    return number


def _get_int(value: Any, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(where, "must be an integer")
    if value < minimum:
        raise SchemaError(where, f"must be >= {minimum}")
    return value


def _get_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(where, "must be a boolean")
    return value


def _get_pin(value: Any, where: str) -> int:
    # Pins may appear as integers or decimal strings ("5" in the wild).
    if isinstance(value, str) and value.isdigit():
        try:
            return int(value)
        except ValueError:  # a digit int() does not take, or too many of them
            pass
    elif isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise SchemaError(where, "must be a non-negative integer")


def _get_address(value: Any, where: str) -> int:
    if not isinstance(value, str) or not _HEX_RE.fullmatch(value):
        raise SchemaError(where, "must be a 0x-prefixed hex string")
    return int(value, 16)


def _field(get: _Getter | None, default: Any = MISSING, *, key: str = "", render: Callable | None = None) -> Any:
    """A spec field with its row of the config schema: the getter of its
    value (None when the section's check sets the field), its default (none:
    the key is required), its JSON key (the field's name unless given) and
    how serialize_config renders it; serialize_config leaves a None out."""
    return field(default=default, metadata={"get": get, "key": key, "render": render})


# ---------------------------------------------------------------------------
# the spec of each section entry: its fields in serialized order


@dataclass(frozen=True, slots=True)
class SensorSpec:
    name: str = _field(_get_name)
    kind: str = _field(partial(_get_kind, kinds=SENSOR_KINDS), key="type")
    address: int | None = _field(_get_address, None, render="0x{:x}".format)
    pin: int | None = _field(_get_pin, None)
    delta: float = _field(partial(_get_number, minimum=0), 0.0)
    period_us: int = _field(partial(_get_int, minimum=1), 10_000)
    units: str = _field(_get_str, "")


@dataclass(frozen=True, slots=True)
class ActuatorSpec:
    name: str = _field(_get_name)
    kind: str = _field(partial(_get_kind, kinds=ACTUATOR_KINDS), key="type")
    pin: int | None = _field(_get_pin, None)
    min_value: float = _field(_get_number, 0.0)
    max_value: float = _field(_get_number, 1.0)

    def clamp(self, value: float) -> float:
        """`value` limited to the actuator's bounds."""
        return min(max(value, self.min_value), self.max_value)


@dataclass(frozen=True, slots=True)
class BehaviorSpec:
    name: str = _field(_get_name)
    priority: float | None = _field(_get_number, None)
    action: str | None = _field(_get_str_or_none, None)
    safety: bool = _field(_get_bool, False)


@dataclass(frozen=True, slots=True)
class AlgorithmSpec:
    name: str = _field(_get_name)
    plugin: str = _field(None)
    inputs: tuple[str, ...] = _field(None)
    output: str = _field(None)
    params: tuple[tuple[str, Any], ...] = _field(None, (), render=dict)

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True, slots=True)
class SafetyCheckSpec:
    name: str = _field(_get_name)
    sensor: str = _field(_get_str)
    threshold: float = _field(_get_number)


@dataclass(frozen=True, slots=True)
class SchedulerParams:
    alpha: float = _field(partial(_get_number, minimum=0), 0.05)
    window_us: int = _field(partial(_get_int, minimum=1), 1_000_000)
    default_task_cost_us: int = _field(partial(_get_int, minimum=1), 100)


# ---------------------------------------------------------------------------
# the rules that span a section's fields: check(obj, path, values) runs after
# the getters and may set fields, render(spec, entry) returns the serialized entry


def _optional(obj: dict, path: str, key: str, get: _Getter) -> Any:
    """A key a section's check reads: its value through `get`, or None when absent."""
    return get(obj[key], f"{path}.{key}") if key in obj else None


def _check_sensor(obj: dict, path: str, values: dict[str, Any]) -> None:
    kind, address, pin = values["kind"], values["address"], values["pin"]
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
    elif address is not None or pin is not None:  # virtual
        raise SchemaError(path, "virtual sensors take neither address nor pin")


def _check_actuator(obj: dict, path: str, values: dict[str, Any]) -> None:
    if values["min_value"] > values["max_value"]:
        raise SchemaError(f"{path}.min_value", "must be <= max_value")


def _render_behavior(behavior: BehaviorSpec, entry: dict[str, Any]) -> dict[str, Any]:
    if behavior.safety:  # parsing pins it to 1.0
        del entry["priority"]
    return entry


def _check_algorithm(obj: dict, path: str, values: dict[str, Any]) -> None:
    plugin = _optional(obj, path, "plugin", _get_str_or_none)
    module_path = _optional(obj, path, "path", _get_str_or_none)
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

    inputs = obj.get("inputs", [])  # none given: parse_config reads every sensor
    if "inputs" in obj and (not isinstance(inputs, list) or not inputs):
        raise SchemaError(f"{path}.inputs", "must be a non-empty array of sensor names")
    for j, item in enumerate(inputs):
        if not isinstance(item, str):
            raise SchemaError(f"{path}.inputs[{j}]", "must be a string")

    output = _optional(obj, path, "output", _get_str_or_none) or values["name"]

    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{path}.params", "must be an object")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise SchemaError(f"{path}.params.{key}", "must be a number or string")
    unread = dict(params)
    try:
        PLUGIN_REGISTRY[plugin](unread)
    except PluginParamError as exc:
        raise SchemaError(f"{path}.params.{exc.key}", exc.reason) from None
    if unread and not legacy:
        raise SchemaError(f"{path}.params.{sorted(unread)[0]}", "unknown key")
    values.update(plugin=plugin, inputs=tuple(inputs), output=output, params=tuple(params.items()))


def _render_algorithm(algorithm: AlgorithmSpec, entry: dict[str, Any]) -> dict[str, Any]:
    unread = algorithm.params_dict()
    PLUGIN_REGISTRY[algorithm.plugin](unread)
    if not unread:
        return entry
    # a `plugin` entry refuses params its plugin does not read; a legacy `path`
    # entry, whose basename is the plugin's name, keeps them
    return {"path" if key == "plugin" else key: value for key, value in entry.items()}


def _check_scheduler(obj: dict, path: str, values: dict[str, Any]) -> None:
    # a negative zero reads as 0, so no update logs a delta of -0.000000
    values["alpha"] = values["alpha"] or 0.0
    # accepted as P_MAX only, so SchedulerParams holds no field for it
    if _optional(obj, path, "p_max", _get_number) not in (None, P_MAX):
        raise SchemaError(f"{path}.p_max", f"is fixed at {P_MAX}")


def _render_scheduler(params: SchedulerParams, entry: dict[str, Any]) -> dict[str, Any]:
    cost = entry.pop("default_task_cost_us")  # p_max is written before it
    return {**entry, "p_max": P_MAX, "default_task_cost_us": cost}


class _Section(NamedTuple):
    """A config section: the rows of its spec's fields, as (field, key,
    getter, default, renderer), every key an entry may hold, and its hooks."""

    spec: type
    rows: tuple[tuple[str, str, _Getter | None, Any, Callable | None], ...]
    keys: frozenset[str]
    check: Callable[[dict, str, dict[str, Any]], None] | None = None
    render: Callable[[Any, dict[str, Any]], dict[str, Any]] | None = None
    omit_empty: bool = False  # serialize_config leaves the section out while it is empty


def _section(spec: type, default: Any = (), keys: tuple[str, ...] = (), **hooks: Any) -> Any:
    """A SystemConfig field: an array of `spec` entries, or one entry when
    its default is one, with `spec`'s rows read once from its fields and the
    `keys` that only the section's check reads."""
    rows = tuple(
        (f.name, f.metadata["key"] or f.name, f.metadata["get"], f.default, f.metadata["render"]) for f in fields(spec)
    )
    section = _Section(spec, rows, frozenset(row[1] for row in rows).union(keys), **hooks)
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True, slots=True)
class SystemConfig:
    sensors: tuple[SensorSpec, ...] = _section(SensorSpec, check=_check_sensor)
    actuators: tuple[ActuatorSpec, ...] = _section(ActuatorSpec, check=_check_actuator)
    behaviors: tuple[BehaviorSpec, ...] = _section(BehaviorSpec, render=_render_behavior)
    algorithms: tuple[AlgorithmSpec, ...] = _section(
        AlgorithmSpec, keys=("path",), check=_check_algorithm, render=_render_algorithm
    )
    safety_checks: tuple[SafetyCheckSpec, ...] = _section(SafetyCheckSpec, omit_empty=True)
    scheduler: SchedulerParams = _section(
        SchedulerParams, SchedulerParams(), keys=("p_max",), check=_check_scheduler, render=_render_scheduler
    )


# the document's top-level keys in order, each with its default and section
_SECTIONS = tuple((f.name, f.default, f.metadata["section"]) for f in fields(SystemConfig))


# ---------------------------------------------------------------------------
# one section entry, read and rendered through its rows


def _parse_section(section: _Section, obj: Any, path: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object")
    unknown = sorted(set(obj) - section.keys)
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown key")
    values: dict[str, Any] = {}
    for name, key, get, default, _render in section.rows:
        if get is None:
            continue
        if key in obj:
            values[name] = get(obj[key], f"{path}.{key}")
        elif default is MISSING:
            raise SchemaError(f"{path}.{key}", "required")
        else:
            values[name] = default
    if section.check is not None:
        section.check(obj, path, values)
    return section.spec(**values)


def _render_section(section: _Section, spec: Any) -> dict[str, Any]:
    entry: dict[str, Any] = {}
    for name, key, _get, _default, render in section.rows:
        value = getattr(spec, name)
        if value is not None:
            entry[key] = value if render is None else render(value)
    return entry if section.render is None else section.render(spec, entry)


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


def _syntax_error(reason: str, text: str, pos: int) -> ConfigSyntaxError:
    return ConfigSyntaxError(reason, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _unlocated_syntax_error(text: str, exc: ValueError | RecursionError) -> ConfigSyntaxError:
    """Locate what json.loads rejects without a position: nesting past the
    recursion limit, reported at the first bracket of the deepest nesting, or
    an integer too long to convert, at the first such integer."""
    if isinstance(exc, RecursionError):
        return _syntax_error("nested too deeply", text, json_depth(text)[1])
    limit = sys.get_int_max_str_digits()
    for token in _JSON_TOKEN_RE.finditer(text):
        digits, fraction, exponent = token.groups()
        if digits is not None and fraction is None and exponent is None and len(digits) > limit:
            return _syntax_error(str(exc), text, token.start())
    return _syntax_error(str(exc), text, 0)


class _Repeats(dict):
    """A decoded JSON object that names `key` twice: the dict keeps its last value."""

    __slots__ = ("key",)


def _pairs_hook(repeats: list[_Repeats], pairs: list[tuple[str, Any]]) -> dict:
    """A decoder's `object_pairs_hook` that notes, in `repeats`, each object
    that names a key twice, with the first key named again."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _Repeats(obj)
        seen = set()
        for key, _value in pairs:
            if key in seen:
                obj.key = key
                break
            seen.add(key)
        repeats.append(obj)
    return obj


def _repeat_error(doc: dict) -> SchemaError:
    """The first repeated key of a decoded document that holds one, outer
    objects before the ones they hold, each in document order.  A value that
    a repeat dropped sits in an object that repeats, so one is met."""
    stack: list[tuple[str, Any]] = [("", doc)]
    while True:
        path, value = stack.pop()
        if isinstance(value, dict):
            if isinstance(value, _Repeats):
                return SchemaError(f"{path}.{value.key}" if path else value.key, "repeated key")
            items = [(f"{path}.{key}" if path else key, item) for key, item in value.items()]
        elif isinstance(value, list):
            items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
        else:
            continue
        stack += reversed(items)


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
    path) for a key named twice in one object, which JSON would read as the
    last, for shape violations and plugin params the factory refuses or, in a
    `plugin` entry, does not read; UnknownPluginError for unregistered
    plugins, and CrossReferenceError, listing validate_config's issues, when
    references dangle or a behavior priority is out of range or repeated (so
    a priority issue comes after any schema error).  A document nested
    deeper than MAX_JSON_DEPTH is refused as such, ahead of any of these.  A
    returned config always passes validate_config with no issue.
    """
    try:
        return _parse_config(text)
    except ConfigError:
        depth, pos = json_depth(text)
        if depth <= MAX_JSON_DEPTH:
            raise
    raise _syntax_error("nested too deeply", text, pos)


def _parse_config(text: str) -> SystemConfig:
    repeats: list[_Repeats] = []
    try:
        raw = json.loads(text, object_pairs_hook=partial(_pairs_hook, repeats))
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except (ValueError, RecursionError) as exc:
        raise _unlocated_syntax_error(text, exc) from None
    if not isinstance(raw, dict):
        raise SchemaError("$", "top-level value must be an object")
    if repeats:
        raise _repeat_error(raw)
    unknown = sorted(set(raw) - {key for key, _default, _section in _SECTIONS})
    if unknown:
        raise SchemaError(unknown[0], "unknown top-level key")

    sections: dict[str, Any] = {}
    for key, default, section in _SECTIONS:
        if not isinstance(default, tuple):
            sections[key] = _parse_section(section, raw.get(key, {}), key)
            continue
        entries = raw.get(key, [])
        if not isinstance(entries, list):
            raise SchemaError(key, "must be an array")
        sections[key] = tuple(_parse_section(section, obj, f"{key}[{i}]") for i, obj in enumerate(entries))
        seen: set[str] = set()
        for i, entry in enumerate(sections[key]):
            if entry.name in seen:
                raise SchemaError(f"{key}[{i}].name", "duplicate")
            seen.add(entry.name)
    sections["behaviors"] = tuple(default_priorities(sections["behaviors"]))
    sensor_names = tuple(s.name for s in sections["sensors"])
    sections["algorithms"] = tuple(a if a.inputs else replace(a, inputs=sensor_names) for a in sections["algorithms"])
    config = SystemConfig(**sections)
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
            if inp in alg.inputs[:j]:  # the stage would run twice per reading
                issues.append(SchemaError(f"algorithms[{i}].inputs[{j}]", "duplicate"))
            elif inp not in sensor_names:
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
    doc: dict[str, Any] = {}
    for key, default, section in _SECTIONS:
        value = getattr(config, key)
        if not isinstance(default, tuple):
            doc[key] = _render_section(section, value)
        elif value or not section.omit_empty:
            doc[key] = [_render_section(section, entry) for entry in value]
    return json.dumps(doc, indent=2) + "\n"
