"""Deterministic discrete-event engine.

Replays a recorded sensor trace against a configuration and a bound behavior
program on a virtual microsecond clock, producing a totally ordered execution
log.  A single virtual CPU serves tasks from the ready queue; the pipeline per
reading is: arrival -> safety checks -> sensor-input task -> significance gate
-> sensor message -> algorithmic task -> processed message -> rule evaluation
-> behavioral task -> command messages -> control tasks -> actuator commands.

Identical inputs always produce byte-identical serialized logs.
"""

from __future__ import annotations

import heapq
import json
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import sched
from .bus import DeliveryRecord, Layer, Message, MessageBus, evaluate_safety
from .config import ActuatorSpec, SystemConfig, finite_float
from .dsl import (
    BoundProgram,
    Move,
    Play,
    Rule,
    Set,
    Wait,
    condition_signals,
    eval_condition,
    passthrough_topic,
)
from .sensorproc import PluginInstance, Reading, gate_significant, make_plugin, run_algorithm

LOG_KINDS = frozenset(
    {
        "sensor_event",
        "message",
        "task_start",
        "task_finish",
        "task_abort",
        "behavior_fired",
        "behavior_suppressed",
        "actuator_cmd",
        "play_cmd",
        "priority_update",
        "safety_halt",
        "trace_dropped",
    }
)

# Intra-timestamp processing order: window boundaries close before any work
# at the boundary instant, completions before deferred enqueues, and trace
# arrivals come last so a reading can never race the task it spawns.
_RANK_TASK_DONE = 1
_RANK_ENQUEUE = 2
_RANK_TRACE = 3

STOP_COMMAND = "STOP"


class TraceError(Exception):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MalformedLogError(Exception):
    def __init__(self, reason: str, line: int | None = None):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True, slots=True)
class TraceEvent:
    t_us: int
    sensor: str | None = None
    value: float | None = None
    override: str | None = None

    @property
    def is_override(self) -> bool:
        return self.override is not None


@dataclass(frozen=True, slots=True)
class LogEntry:
    seq: int
    t_us: int
    kind: str
    detail: dict


@dataclass(slots=True)
class ExecutionLog:
    entries: list[LogEntry] = field(default_factory=list)
    # the run's bus table: topic -> (producer layer, subscriber layers)
    routes: Mapping[str, tuple[Layer, tuple[Layer, ...]]] = field(default_factory=dict)

    @property
    def deliveries(self) -> tuple[DeliveryRecord, ...]:
        """The layering audit, derived from the log: one record per subscriber
        of each logged message, and one per layer for a halt by a safety check."""
        records: list[DeliveryRecord] = []
        for entry in self.entries:
            detail = entry.detail
            if entry.kind == "message":
                producer, subscribers = self.routes[detail["topic"]]
                records.extend(DeliveryRecord(detail["topic"], producer, layer, detail["bus_seq"]) for layer in subscribers)
            elif entry.kind == "safety_halt" and detail["sensor"] is not None:
                records.extend(DeliveryRecord(f"safety.{detail['source']}", None, layer, -1, safety=True) for layer in Layer)
        return tuple(records)


@dataclass(frozen=True, slots=True)
class SimStats:
    messages_per_layer: tuple[tuple[str, int], ...]
    dispatches: int
    aborts: int
    latency_min_us: int
    latency_mean_us: float
    latency_max_us: int
    behaviors_fired: int
    behaviors_suppressed: int
    halted: bool
    halt_t_us: int | None

    def to_dict(self) -> dict:
        return {
            "messages_per_layer": dict(self.messages_per_layer),
            "dispatches": self.dispatches,
            "aborts": self.aborts,
            "latency_us": {
                "min": self.latency_min_us,
                "mean": self.latency_mean_us,
                "max": self.latency_max_us,
            },
            "behaviors_fired": self.behaviors_fired,
            "behaviors_suppressed": self.behaviors_suppressed,
            "halted": self.halted,
            "halt_t_us": self.halt_t_us,
        }


# ---------------------------------------------------------------------------
# trace loading


def load_trace(text: str, config: SystemConfig) -> list[TraceEvent]:
    """Parse a JSON-lines trace and check it against the config's sensors.

    Events come back sorted by timestamp, file order preserved among ties.
    """
    sensor_names = {s.name for s in config.sensors}
    events: list[TraceEvent] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(line_no, f"invalid JSON: {exc.msg}") from None
        except ValueError as exc:  # an over-long integer
            raise TraceError(line_no, f"invalid JSON: {exc}") from None
        except RecursionError:
            raise TraceError(line_no, "invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict):
            raise TraceError(line_no, "each line must be an object")
        t_us = obj.get("t_us")
        if isinstance(t_us, bool) or not isinstance(t_us, int) or t_us < 0:
            raise TraceError(line_no, "t_us must be a non-negative integer")
        keys = set(obj)
        if keys == {"t_us", "sensor", "value"}:
            sensor = obj["sensor"]
            value = finite_float(obj["value"])
            if not isinstance(sensor, str):
                raise TraceError(line_no, "sensor must be a string")
            if sensor not in sensor_names:
                raise TraceError(line_no, f"unknown sensor {sensor!r}")
            if value is None:
                raise TraceError(line_no, "value must be a finite number")
            events.append(TraceEvent(t_us=t_us, sensor=sensor, value=value))
        elif keys == {"t_us", "override"}:
            command = obj["override"]
            if not isinstance(command, str):
                raise TraceError(line_no, "override must be a string")
            if command != STOP_COMMAND:
                raise TraceError(line_no, f"unsupported override {command!r}")
            events.append(TraceEvent(t_us=t_us, override=command))
        else:
            raise TraceError(
                line_no, "expected keys {t_us, sensor, value} or {t_us, override}"
            )
    events.sort(key=lambda e: e.t_us)  # stable: ties keep file order
    return events


# ---------------------------------------------------------------------------
# log serialization (external interface: stable keys, fixed 6-decimal floats)


class _Quoted(dict):
    """str -> its JSON literal; each distinct string is quoted once."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = json.dumps(text)
        return quoted


def _renderers() -> tuple[Callable[[object], str], Callable[[LogEntry], str]]:
    """A fresh `(value, line)` pair of renderers sharing per-call caches.

    `value` renders through one table keyed on the exact type; anything else
    (an IntEnum, a str subclass, a dict subclass) takes the isinstance rules,
    so it prints as its base type does.  `line` renders a log entry and its
    newline from a template built once per (kind, detail keys) shape; the
    engine's `_log` call sites alone decide which fields a kind carries.
    """
    quoted = _Quoted()
    templates: dict[tuple, str] = {}

    def by_base_type(value: object) -> str:
        # bool and None have no subclasses, so the table always catches them
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return format(value, ".6f")
        if isinstance(value, str):
            return json.dumps(value)
        if isinstance(value, dict):
            return render_dict(value)
        if isinstance(value, (list, tuple)):
            return render_items(value)
        raise TypeError(f"cannot serialize {type(value).__name__}")

    def key(k: object) -> str:
        return quoted[k] if type(k) is str else json.dumps(str(k))

    def render_dict(value: dict) -> str:
        return "{" + ", ".join([f"{key(k)}: {render(v)}" for k, v in value.items()]) + "}"

    def render_items(value: list | tuple) -> str:
        return "[" + ", ".join([render(v) for v in value]) + "]"

    table: dict[type, Callable] = {
        float: "{:.6f}".format,
        int: int.__repr__,
        bool: {True: "true", False: "false"}.__getitem__,
        type(None): {None: "null"}.__getitem__,
        str: quoted.__getitem__,
        dict: render_dict,
        list: render_items,
        tuple: render_items,
    }
    get = table.get

    def render(value: object) -> str:
        return get(type(value), by_base_type)(value)

    def line(entry: LogEntry) -> str:
        kind, detail = entry.kind, entry.detail
        shape = (kind, *detail)
        template = templates.get(shape)
        if template is None:
            head = '{"seq": %s, "t_us": %s, "kind": ' + render(kind).replace("%", "%%") + ', "detail": {'
            template = head + ", ".join(key(k).replace("%", "%%") + ": %s" for k in detail) + "}}\n"
            # 1 == True == 1.0 but they render apart: cache all-str shapes only
            if type(kind) is str and all(type(k) is str for k in detail):
                templates[shape] = template
        values = (entry.seq, entry.t_us, *detail.values())
        return template % tuple([get(type(v), by_base_type)(v) for v in values])  # render(v), inlined

    return render, line


def render_log_entry(entry: LogEntry) -> str:
    return _renderers()[1](entry)[:-1]


def serialize_log(entries: Iterable[LogEntry]) -> str:
    return "".join(map(_renderers()[1], entries))


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


# a log holds no NaN or Infinity, and stats computed from one would not be JSON
_LOG_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_LOG_ENTRY_KEYS = frozenset({"seq", "t_us", "kind", "detail"})


def iter_log(text: str) -> Iterator[LogEntry]:
    """Read back a serialized log one entry at a time; raises
    MalformedLogError naming the line when it reaches a bad one."""
    scan, decode = _LOG_DECODER.scan_once, _LOG_DECODER.decode
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            # `decode` scans from 0 too unless the line starts with whitespace,
            # so a value that spans the whole line is exactly what it returns
            # and an error raised at 0 is the one it raises; a short or failed
            # scan (padding, extra data) goes to `decode` for its verdict
            try:
                obj, end = scan(line, 0)
            except StopIteration:
                end = -1
            if end != len(line):
                obj = decode(line)
        except json.JSONDecodeError as exc:
            raise MalformedLogError(f"invalid JSON: {exc.msg}", line_no) from None
        except ValueError as exc:  # a non-finite constant or an over-long integer
            raise MalformedLogError(f"invalid JSON: {exc}", line_no) from None
        except RecursionError:
            raise MalformedLogError("invalid JSON: nested too deeply", line_no) from None
        if not isinstance(obj, dict) or obj.keys() != _LOG_ENTRY_KEYS:
            raise MalformedLogError("expected keys {seq, t_us, kind, detail}", line_no)
        seq, t_us, kind, detail = obj["seq"], obj["t_us"], obj["kind"], obj["detail"]
        if type(seq) is not int or type(t_us) is not int:
            raise MalformedLogError("seq and t_us must be integers", line_no)
        if type(kind) is not str or kind not in LOG_KINDS:
            raise MalformedLogError(f"unknown kind {kind!r}", line_no)
        if not isinstance(detail, dict):
            raise MalformedLogError("detail must be an object", line_no)
        yield LogEntry(seq, t_us, kind, detail)


def parse_log(text: str) -> list[LogEntry]:
    """Read back a whole serialized log; raises MalformedLogError naming the
    first bad line."""
    return list(iter_log(text))


def serialize_stats(stats: SimStats) -> str:
    return _renderers()[0](stats.to_dict()) + "\n"


# ---------------------------------------------------------------------------
# statistics


def compute_stats(entries: Iterable[LogEntry]) -> SimStats:
    """Aggregate a log in one pass over `entries`; raises MalformedLogError
    on unmatched start/finish."""
    layer_counts = {layer.label: 0 for layer in Layer}
    dispatches = 0
    aborts = 0
    latencies: list[int] = []
    fired = 0
    suppressed = 0
    halted = False
    halt_t_us: int | None = None
    open_tasks: dict[tuple[str, int], int] = {}

    for entry in entries:
        kind = entry.kind
        try:
            if kind == "message":
                layer = entry.detail.get("layer")
                if layer not in layer_counts:
                    raise MalformedLogError(f"message with unknown layer {layer!r} at seq {entry.seq}")
                layer_counts[layer] += 1
            elif kind == "task_start":
                dispatches += 1
                key = (entry.detail["task"], entry.detail["enqueue_seq"])
                if key in open_tasks:
                    raise MalformedLogError(f"task {key[0]!r} started twice at seq {entry.seq}")
                open_tasks[key] = entry.seq
                enqueue_t_us = entry.detail["enqueue_t_us"]
                if type(enqueue_t_us) is not int:
                    raise MalformedLogError(f"enqueue_t_us must be an integer at seq {entry.seq}")
                latency = entry.t_us - enqueue_t_us
                if latency < 0:
                    raise MalformedLogError(f"negative latency at seq {entry.seq}")
                latencies.append(latency)
            elif kind in ("task_finish", "task_abort"):
                key = (entry.detail["task"], entry.detail["enqueue_seq"])
                if key not in open_tasks:
                    raise MalformedLogError(f"{kind} without matching start at seq {entry.seq}")
                del open_tasks[key]
                if kind == "task_abort":
                    aborts += 1
            elif kind == "behavior_fired":
                fired += 1
            elif kind == "behavior_suppressed":
                suppressed += 1
            elif kind == "safety_halt":
                halted = True
                if halt_t_us is None:
                    halt_t_us = entry.t_us
        except (KeyError, TypeError) as exc:
            raise MalformedLogError(f"{kind} entry at seq {entry.seq} is missing fields: {exc}") from None

    if open_tasks:
        task, enqueue_seq = next(iter(open_tasks))
        raise MalformedLogError(f"task {task!r} (enqueue_seq {enqueue_seq}) never finished")

    try:
        latency_mean_us = float(statistics.fmean(latencies)) if latencies else 0.0
    except OverflowError:
        raise MalformedLogError("latencies too large to average") from None
    return SimStats(
        messages_per_layer=tuple(layer_counts.items()),
        dispatches=dispatches,
        aborts=aborts,
        latency_min_us=min(latencies) if latencies else 0,
        latency_mean_us=latency_mean_us,
        latency_max_us=max(latencies) if latencies else 0,
        behaviors_fired=fired,
        behaviors_suppressed=suppressed,
        halted=halted,
        halt_t_us=halt_t_us,
    )


# ---------------------------------------------------------------------------
# the engine


class _Engine:
    def __init__(
        self,
        config: SystemConfig,
        program: BoundProgram,
        trace: Sequence[TraceEvent],
        horizon_us: int | None = None,
    ):
        self.config = config
        self.program = program
        self.horizon_us = horizon_us
        if horizon_us is not None:
            trace = [e for e in trace if e.t_us < horizon_us]
        self.trace = list(trace)

        self.bus = MessageBus()
        self.queue = sched.ReadyQueue()
        self.entries: list[LogEntry] = []
        self.clock_us = 0
        self.halted = False
        self.running: sched.QueueEntry | None = None
        self.values: dict[str, float] = {}  # condition signal -> last processed value
        self.gate_prev: dict[str, float] = {}  # sensor -> last forwarded value

        self._heap: list[tuple[int, int, int, object]] = []
        self._heap_tie = 0
        self._window_us = config.scheduler.window_us
        self._next_window = self._window_us
        self._gate_delta = {sensor.name: sensor.delta for sensor in config.sensors}

        self._build_plugins()
        self._build_topics()
        self._index_rules()
        self._build_tasks()

    # -- setup ------------------------------------------------------------

    def _build_plugins(self) -> None:
        self.plugins: dict[str, PluginInstance] = {}
        consumed: set[str] = set()
        for alg in self.config.algorithms:
            self.plugins[alg.name] = make_plugin(
                alg.plugin, alg.params_dict(), inputs=alg.inputs, topic=alg.output
            )
            consumed.update(alg.inputs)
        for sensor in self.config.sensors:
            if sensor.name not in consumed:
                instance_id = passthrough_topic(sensor.name)
                self.plugins[instance_id] = make_plugin(
                    "passthrough", {}, inputs=(sensor.name,), topic=instance_id
                )

    def _build_topics(self) -> None:
        for sensor in self.config.sensors:
            self.bus.create_topic(sensor.name, Layer.SENSOR, producer=f"sensor_input.{sensor.name}")
        for instance_id, plugin in self.plugins.items():
            self.bus.create_topic(plugin.topic, Layer.PROCESSING, producer=f"algorithmic.{instance_id}")
        for actuator in self.config.actuators:
            self.bus.create_topic(f"{actuator.name}_cmd", Layer.BEHAVIOR, producer="rules")

        for instance_id, plugin in self.plugins.items():
            for sensor in plugin.inputs:
                self.bus.subscribe(sensor, Layer.PROCESSING, self._make_plugin_handler(instance_id))
        for plugin in self.plugins.values():
            self.bus.subscribe(plugin.topic, Layer.BEHAVIOR, self._on_processed)
        for actuator in self.config.actuators:
            self.bus.subscribe(f"{actuator.name}_cmd", Layer.CONTROL)

    def _make_plugin_handler(self, instance_id: str):
        def handler(message) -> None:
            self.queue.push(f"algorithmic.{instance_id}", self.clock_us, (instance_id, message.payload))

        return handler

    def _build_tasks(self) -> None:
        cost = self.config.scheduler.default_task_cost_us
        program = self.program.program

        # Which behaviors depend on which sensors and plugin instances, and
        # each task's category, recorded where its id is built.
        usage: dict[str, set[str]] = {}
        category: dict[str, sched.TaskCategory] = {}

        def declare(task_id: str, task_category: sched.TaskCategory, behaviors: set[str]) -> None:
            usage[task_id] = behaviors
            category[task_id] = task_category

        for sensor in self.config.sensors:
            declare(f"sensor_input.{sensor.name}", sched.TaskCategory.SENSOR_INPUT, set())
        for instance_id in self.plugins:
            declare(f"algorithmic.{instance_id}", sched.TaskCategory.ALGORITHMIC, set())
        for name in program.definitions:
            declare(f"behavioral.{name}", sched.TaskCategory.BEHAVIORAL, {name})
        for actuator in self.config.actuators:
            declare(f"control.{actuator.name}", sched.TaskCategory.CONTROL, set())

        topic_to_instance = {p.topic: i for i, p in self.plugins.items()}
        for topic, rules in self._rules_by_topic.items():
            instance_id = topic_to_instance[topic]
            targets = {t for _, rule, _ in rules for t in (rule.then_behavior, rule.else_behavior) if t is not None}
            usage[f"algorithmic.{instance_id}"].update(targets)
            for sensor in self.plugins[instance_id].inputs:
                usage[f"sensor_input.{sensor}"].update(targets)
        for name, definition in program.definitions.items():
            for stmt in definition.body:
                if isinstance(stmt, (Move, Set)):
                    usage[f"control.{stmt.actuator}"].add(name)
                elif isinstance(stmt, Play) and self.program.audio_actuator is not None:
                    usage[f"control.{self.program.audio_actuator}"].add(name)

        # safety checks run inline on arrival; the sensors they watch are pinned
        safety_tasks = {f"sensor_input.{check.sensor}" for check in self.config.safety_checks}
        base = sched.assign_base_priorities(self.program.priorities, usage, safety_tasks)

        self.tasks: dict[str, sched.TaskDescriptor] = {}
        for task_id, behaviors in usage.items():
            priority = base[task_id]
            self.tasks[task_id] = sched.TaskDescriptor(
                id=task_id,
                category=category[task_id],
                behaviors=frozenset(behaviors),
                base_priority=priority,
                current_priority=priority,
                cost_us=cost,
            )
        self.counters = {name: sched.FrequencyCounter(name) for name in program.definitions}

    def _index_rules(self) -> None:
        """Each processing topic's bound signals, and its rules: each rule once
        under every distinct topic its signals read."""
        signal_topics = self.program.signal_topics
        self._signals_by_topic: dict[str, list[str]] = {}
        for signal, topic in signal_topics.items():
            self._signals_by_topic.setdefault(topic, []).append(signal)
        self._rules_by_topic: dict[str, list[tuple[int, Rule, frozenset[str]]]] = {}
        for index, rule in enumerate(self.program.program.rules):
            signals = frozenset(s for s, _ in condition_signals(rule.condition))
            for topic in dict.fromkeys(signal_topics[s] for s in signals):
                self._rules_by_topic.setdefault(topic, []).append((index, rule, signals))

    # -- logging ----------------------------------------------------------

    def _log(self, kind: str, detail: dict) -> None:
        assert not self.entries or self.clock_us >= self.entries[-1].t_us
        self.entries.append(LogEntry(len(self.entries), self.clock_us, kind, detail))

    # -- event heap -------------------------------------------------------

    def _push(self, t_us: int, rank: int, payload: object) -> None:
        heapq.heappush(self._heap, (t_us, rank, self._heap_tie, payload))
        self._heap_tie += 1

    # -- main loop --------------------------------------------------------

    def run(self) -> ExecutionLog:
        for event in self.trace:
            self._push(event.t_us, _RANK_TRACE, event)

        while self._heap:
            t_us, rank, _tie, payload = heapq.heappop(self._heap)
            if not self.halted:
                while self.tasks and self._next_window <= t_us:
                    self._handle_window()
            self.clock_us = max(self.clock_us, t_us)
            if self.halted:
                if rank == _RANK_TRACE:
                    self._log_dropped(payload)
                continue
            if rank == _RANK_TRACE:
                self._handle_trace(payload)
            elif rank == _RANK_TASK_DONE:
                self._handle_task_done(payload)
            else:
                self._handle_deferred_enqueue(payload)
            self._dispatch()

        if not self.halted and self.horizon_us is not None and self.tasks:
            while self._next_window <= self.horizon_us:
                self._handle_window()

        return ExecutionLog(entries=self.entries, routes=self.bus.routes())

    # -- handlers ---------------------------------------------------------

    def _handle_window(self) -> None:
        self.clock_us = max(self.clock_us, self._next_window)
        updates = sched.adapt_priorities(self.tasks, self.counters, self.config.scheduler)
        self.queue.rekey(self.tasks)  # the only place queued tasks change priority
        for update in updates:
            self._log(
                "priority_update",
                {
                    "task": update.task,
                    "old": update.old,
                    "new": update.new,
                    "f_max": update.f_max,
                    "behavior": update.behavior,
                    "delta": update.delta,
                },
            )
        self._next_window += self._window_us

    def _handle_trace(self, event: TraceEvent) -> None:
        if event.is_override:
            self._halt(source="override", command=event.override)
            return
        assert event.sensor is not None and event.value is not None
        self._log("sensor_event", {"sensor": event.sensor, "value": event.value})
        for check in self.config.safety_checks:
            if check.sensor != event.sensor:
                continue
            if evaluate_safety(event.value, check):
                self._halt(
                    source=check.name,
                    sensor=event.sensor,
                    reading=event.value,
                    threshold=check.threshold,
                )
                return
        self.queue.push(
            f"sensor_input.{event.sensor}",
            self.clock_us,
            Reading(sensor=event.sensor, t_us=event.t_us, value=event.value),
        )

    def _handle_task_done(self, entry: sched.QueueEntry) -> None:
        # after a halt the main loop handles no completion, so this task still runs
        assert entry is self.running
        self.running = None
        task = self.tasks[entry.task_id]
        self._log("task_finish", {"task": entry.task_id, "enqueue_seq": entry.enqueue_seq})
        if task.category is sched.TaskCategory.SENSOR_INPUT:
            self._finish_sensor_input(entry)
        elif task.category is sched.TaskCategory.ALGORITHMIC:
            self._finish_algorithmic(entry)
        elif task.category is sched.TaskCategory.BEHAVIORAL:
            self._finish_behavioral(entry)
        elif task.category is sched.TaskCategory.CONTROL:
            self._finish_control(entry)

    def _finish_sensor_input(self, entry: sched.QueueEntry) -> None:
        reading: Reading = entry.payload  # type: ignore[assignment]
        prev = self.gate_prev.get(reading.sensor)
        if not gate_significant(prev, reading.value, self._gate_delta[reading.sensor]):
            return  # null branch: nothing reaches the processing layer
        self.gate_prev[reading.sensor] = reading.value
        published = Reading(reading.sensor, reading.t_us, reading.value, seq=self.bus.next_seq)
        # Log before publishing so the message entry precedes anything its
        # synchronous fan-out produces.
        self._log(
            "message",
            {
                "topic": reading.sensor,
                "layer": Layer.SENSOR.label,
                "bus_seq": self.bus.next_seq,
                "value": reading.value,
                "sensor": reading.sensor,
                "reading_t_us": reading.t_us,
            },
        )
        self.bus.publish(reading.sensor, published, self.clock_us, f"sensor_input.{reading.sensor}")

    def _finish_algorithmic(self, entry: sched.QueueEntry) -> None:
        instance_id, reading = entry.payload  # type: ignore[misc]
        plugin = self.plugins[instance_id]
        processed = run_algorithm(plugin, reading)
        if processed is None:
            return
        self._log(
            "message",
            {
                "topic": plugin.topic,
                "layer": Layer.PROCESSING.label,
                "bus_seq": self.bus.next_seq,
                "value": processed.value,
                "source_seq": processed.source_seq,
            },
        )
        self.bus.publish(plugin.topic, processed.value, self.clock_us, f"algorithmic.{instance_id}")

    def _on_processed(self, message: Message) -> None:
        topic, bus_seq = message.topic.name, message.seq
        values = self.values
        for signal in self._signals_by_topic.get(topic, ()):
            values[signal] = message.payload
        candidates: list[tuple[float, int, str, str]] = []
        for index, rule, signals in self._rules_by_topic.get(topic, ()):
            if values.keys() >= signals:  # every signal of the rule has a value
                outcome = eval_condition(rule.condition, values)
                branch = "then" if outcome else "else"
                target = rule.then_behavior if outcome else rule.else_behavior
                if target is not None:
                    candidates.append((self.program.priorities[target], -index, target, branch))
        if not candidates:
            return
        candidates.sort(reverse=True)
        _prio, neg_index, winner, winner_branch = candidates[0]
        self._log(
            "behavior_fired",
            {
                "behavior": winner,
                "priority": self.program.priorities[winner],
                "rule": -neg_index,
                "branch": winner_branch,
                "trigger_seq": bus_seq,
            },
        )
        sched.record_trigger(self.counters[winner], self.clock_us)
        self.queue.push(f"behavioral.{winner}", self.clock_us, winner)
        for _prio, neg_index, behavior, branch in candidates[1:]:
            self._log(
                "behavior_suppressed",
                {
                    "behavior": behavior,
                    "priority": self.program.priorities[behavior],
                    "rule": -neg_index,
                    "branch": branch,
                    "winner": winner,
                },
            )

    def _finish_behavioral(self, entry: sched.QueueEntry) -> None:
        behavior: str = entry.payload  # type: ignore[assignment]
        definition = self.program.program.definitions[behavior]
        offset_us = 0
        for stmt in definition.body:
            if isinstance(stmt, Wait):
                offset_us += stmt.duration_us
                continue
            self._push(self.clock_us + offset_us, _RANK_ENQUEUE, (self._command_for(stmt), behavior))

    def _command_for(self, stmt) -> dict:
        if isinstance(stmt, Move):
            speed = self.program.speed_words[stmt.speed] if isinstance(stmt.speed, str) else stmt.speed
            actuator = self.program.actuators[stmt.actuator]
            return {
                "action": "move",
                "actuator": stmt.actuator,
                "value": _clamp(speed, actuator),
            }
        if isinstance(stmt, Set):
            actuator = self.program.actuators[stmt.actuator]
            return {
                "action": "set",
                "actuator": stmt.actuator,
                "value": _clamp(stmt.value, actuator),
            }
        assert isinstance(stmt, Play)
        assert self.program.audio_actuator is not None
        return {
            "action": "play",
            "actuator": self.program.audio_actuator,
            "resource": stmt.resource,
        }

    def _handle_deferred_enqueue(self, item: tuple[dict, str]) -> None:
        command, behavior = item
        actuator = command["actuator"]
        self._log(
            "message",
            {
                "topic": f"{actuator}_cmd",
                "layer": Layer.BEHAVIOR.label,
                "bus_seq": self.bus.next_seq,
                "command": command,
                "behavior": behavior,
            },
        )
        self.bus.publish(f"{actuator}_cmd", command, self.clock_us, "rules")
        self.queue.push(f"control.{actuator}", self.clock_us, item)

    def _finish_control(self, entry: sched.QueueEntry) -> None:
        command, behavior = entry.payload  # type: ignore[misc]
        if command["action"] == "play":
            self._log(
                "play_cmd",
                {
                    "actuator": command["actuator"],
                    "resource": command["resource"],
                    "behavior": behavior,
                },
            )
        else:
            self._log(
                "actuator_cmd",
                {
                    "actuator": command["actuator"],
                    "action": command["action"],
                    "value": command["value"],
                    "behavior": behavior,
                },
            )

    def _halt(
        self,
        source: str,
        sensor: str | None = None,
        reading: float | None = None,
        threshold: float | None = None,
        command: str | None = None,
    ) -> None:
        # no safety work is ever queued: the running task aborts, the queue empties
        aborted, self.running = self.running, None
        purged = self.queue.purge(frozenset(), self.tasks)
        neutral = {a.name: _clamp(0.0, a) for a in self.config.actuators}
        self._log(
            "safety_halt",
            {
                "source": source,
                "sensor": sensor,
                "reading": reading,
                "threshold": threshold,
                "command": command,
                "neutral": neutral,
                "aborted": aborted.task_id if aborted else None,
                "purged": [e.task_id for e in purged],
            },
        )
        if aborted is not None:
            self._log(
                "task_abort",
                {
                    "task": aborted.task_id,
                    "enqueue_seq": aborted.enqueue_seq,
                    "reason": "safety_halt",
                },
            )
        self.halted = True

    def _log_dropped(self, event: TraceEvent) -> None:
        self._log(
            "trace_dropped",
            {"sensor": event.sensor, "value": event.value, "command": event.override},
        )

    def _dispatch(self) -> None:
        if self.halted or self.running is not None or len(self.queue) == 0:
            return
        entry = sched.select_next(self.queue, self.tasks)
        assert entry is not None
        task = self.tasks[entry.task_id]
        # dispatch dominance: the heap top is the best of what is still queued,
        # so nothing may outrank the pick
        runner_up = self.queue.peek(self.tasks)
        assert runner_up is None or self.tasks[runner_up.task_id].current_priority <= task.current_priority
        self._log(
            "task_start",
            {
                "task": entry.task_id,
                "enqueue_seq": entry.enqueue_seq,
                "enqueue_t_us": entry.enqueue_t_us,
                "priority": task.current_priority,
            },
        )
        self.running = entry
        self._push(self.clock_us + task.cost_us, _RANK_TASK_DONE, entry)


def _clamp(value: float, actuator: ActuatorSpec) -> float:
    return min(max(value, actuator.min_value), actuator.max_value)


def run(
    config: SystemConfig,
    program: BoundProgram,
    trace: Sequence[TraceEvent],
    horizon_us: int | None = None,
) -> ExecutionLog:
    """Simulate a trace; `horizon_us` truncates the trace and extends window
    boundary ticks through otherwise idle time (used by --until)."""
    return _Engine(config, program, trace, horizon_us).run()
