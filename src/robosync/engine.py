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
from .config import AlgorithmSpec, SafetyCheckSpec, SystemConfig, command_topic, processing_stages
from .dsl import BoundProgram, Rule, condition_signals, eval_condition
from .sensorproc import Reading, Step, finite_float, gate_significant, make_plugin, run_algorithm

# The log schema: each entry shape, (kind, producing layer for a `message`,
# else None), -> its detail fields in the order they are written.  The `_log`
# call sites fill them; `serialize_log` refuses any other shape.
LOG_FIELDS: dict[tuple[str, str | None], tuple[str, ...]] = {
    ("sensor_event", None): ("sensor", "value"),
    ("message", "sensor"): ("topic", "layer", "bus_seq", "value", "sensor", "reading_t_us"),
    ("message", "processing"): ("topic", "layer", "bus_seq", "value", "source_seq"),
    ("message", "behavior"): ("topic", "layer", "bus_seq", "command", "behavior"),
    ("task_start", None): ("task", "enqueue_seq", "enqueue_t_us", "priority"),
    ("task_finish", None): ("task", "enqueue_seq"),
    ("task_abort", None): ("task", "enqueue_seq", "reason"),
    ("behavior_fired", None): ("behavior", "priority", "rule", "branch", "trigger_seq"),
    ("behavior_suppressed", None): ("behavior", "priority", "rule", "branch", "winner"),
    ("actuator_cmd", None): ("actuator", "action", "value", "behavior"),
    ("play_cmd", None): ("actuator", "resource", "behavior"),
    ("priority_update", None): ("task", "old", "new", "f_max", "behavior", "delta"),
    ("safety_halt", None): ("source", "sensor", "reading", "threshold", "command", "neutral", "aborted", "purged"),
    ("trace_dropped", None): ("sensor", "value", "command"),
}
LOG_KINDS = frozenset(kind for kind, _layer in LOG_FIELDS)

# Intra-timestamp processing order: window boundaries close before any work
# at the boundary instant, completions before deferred enqueues, and trace
# arrivals come last so a reading can never race the task it spawns.
_RANK_TASK_DONE = 1
_RANK_ENQUEUE = 2
_RANK_TRACE = 3

STOP_COMMAND = "STOP"

# Window boundaries log one `priority_update` per task however idle the time
# between them, so theirs is the only entry count that does not grow with the
# input's size: a trace gap or an `--until` far past `window_us` would stall
# the run and fill memory.  A million is 25x the bench's largest run.
MAX_WINDOW_ENTRIES = 1_000_000


class TraceError(Exception):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class RunLimitError(Exception):
    """A run would log more than MAX_WINDOW_ENTRIES priority updates."""


class MalformedLogError(Exception):
    def __init__(self, reason: str, line: int | None = None):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason


# not frozen: one is built per trace line, and a frozen dataclass takes about
# 3x as long to build (its __init__ goes through object.__setattr__)
@dataclass(slots=True)
class TraceEvent:
    t_us: int
    sensor: str | None = None
    value: float | None = None
    override: str | None = None

    @property
    def is_override(self) -> bool:
        return self.override is not None


# not frozen: one is built per log entry written or read back, and a frozen
# dataclass takes about 3x as long to build
@dataclass(slots=True)
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
# JSON-lines reading

# `_split_lines` hands `str.splitlines` about this many characters at a time
_SPLIT_CHUNK = 1 << 20


def _split_lines(text: str, chunk: int = _SPLIT_CHUNK) -> Iterator[str]:
    r"""`text.splitlines()`, one chunk of at least `chunk` characters at a
    time.  Each chunk but the last ends right after a `\n`, which always
    ends a line and never begins a two-character break (`\r\n`), so the
    lines and their break characters are exactly those of `splitlines`."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + chunk - 1) + 1 or size
        yield from text[start:end].splitlines()
        start = end


def _json_lines(
    text: str,
    scan: Callable[[str, int], tuple[object, int]],
    decode: Callable[[str], object],
    error: Callable[[int, str], Exception],
) -> Iterator[tuple[int, object]]:
    """`(line number, value)` per non-blank line; a line that is not one JSON
    value raises `error(line number, reason)`.

    `decode` scans from 0 too unless the line starts with whitespace (or, for
    `json.loads`, a BOM), so a value that spans the whole line is exactly what
    it returns and an error raised at 0 is the one it raises; a short or
    failed scan (padding, extra data) goes to `decode` for its verdict."""
    for line_no, line in enumerate(_split_lines(text), start=1):
        if not line.strip():
            continue
        try:
            try:
                obj, end = scan(line, 0)
            except StopIteration:
                end = -1
            if end != len(line):
                obj = decode(line)
        except json.JSONDecodeError as exc:
            raise error(line_no, f"invalid JSON: {exc.msg}") from None
        except ValueError as exc:  # a non-finite constant or an over-long integer
            raise error(line_no, f"invalid JSON: {exc}") from None
        except RecursionError:
            raise error(line_no, "invalid JSON: nested too deeply") from None
        yield line_no, obj


# ---------------------------------------------------------------------------
# trace loading

# json.loads's settings: a NaN or Infinity value decodes, then fails the trace's own check
_TRACE_SCAN = json.JSONDecoder().scan_once


def load_trace(text: str, config: SystemConfig) -> list[TraceEvent]:
    """Parse a JSON-lines trace and check it against the config's sensors.

    Events come back sorted by timestamp, file order preserved among ties.
    """
    sensor_names = {s.name for s in config.sensors}
    events: list[TraceEvent] = []
    for line_no, obj in _json_lines(text, _TRACE_SCAN, json.loads, TraceError):
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


# (kind, *detail fields) -> the line with a %s for seq, t_us and each field
_TEMPLATES = {
    (kind, *fields): '{"seq": %s, "t_us": %s, "kind": "' + kind + '", "detail": {'
    + ", ".join(f'"{name}": %s' for name in fields) + "}}\n"
    for (kind, _layer), fields in LOG_FIELDS.items()
}


class _Renderer:
    """Log and stats rendering with a string cache that lives as long as the
    renderer.

    `render` renders a value through one table keyed on its exact scalar
    type; anything else must be a plain list, or a plain dict with str keys.
    `line` renders a log entry and its newline from its shape's template in
    `_TEMPLATES`.  Off-schema shapes and values of any other type raise
    TypeError.  Nothing the renderer holds points back at it, so reference
    counting frees it, and every string it cached, as soon as its caller
    drops it.
    """

    __slots__ = ("quoted", "get")

    def __init__(self) -> None:
        self.quoted = _Quoted()
        # scalars only: a container's entry would call back into the renderer, a cycle
        self.get = {
            float: "{:.6f}".format,
            int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__,
            str: self.quoted.__getitem__,
        }.get

    def render(self, value: object) -> str:
        return self.get(type(value), self.container)(value)

    def container(self, value: object) -> str:
        if type(value) is list:
            return "[" + ", ".join([self.render(v) for v in value]) + "]"
        if type(value) is not dict:
            raise TypeError(f"cannot serialize {type(value).__name__}")
        for k in value:
            if type(k) is not str:
                raise TypeError(f"cannot serialize {type(k).__name__} key {k!r}")
        return "{" + ", ".join([f"{self.quoted[k]}: {self.render(v)}" for k, v in value.items()]) + "}"

    def line(self, entry: LogEntry) -> str:
        detail = entry.detail
        template = _TEMPLATES.get((entry.kind, *detail))
        if template is None:
            raise TypeError(f"off-schema log entry: kind {entry.kind!r} with detail fields {list(detail)}")
        get, container = self.get, self.container
        values = (entry.seq, entry.t_us, *detail.values())
        return template % tuple([get(type(v), container)(v) for v in values])  # render(v), inlined


def serialize_log(entries: Iterable[LogEntry]) -> str:
    return "".join(map(_Renderer().line, entries))


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


# a log holds no NaN or Infinity, and stats computed from one would not be JSON
_LOG_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_LOG_ENTRY_KEYS = frozenset({"seq", "t_us", "kind", "detail"})


def iter_log(text: str) -> Iterator[LogEntry]:
    """Read back a serialized log one entry at a time; raises
    MalformedLogError naming the line when it reaches a bad one."""
    lines = _json_lines(text, _LOG_DECODER.scan_once, _LOG_DECODER.decode, lambda n, reason: MalformedLogError(reason, n))
    for line_no, obj in lines:
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
    return _Renderer().render(stats.to_dict()) + "\n"


# ---------------------------------------------------------------------------
# statistics


def compute_stats(entries: Iterable[LogEntry]) -> SimStats:
    """Aggregate a log in one pass over `entries`; raises MalformedLogError
    on unmatched start/finish, or the first malformed line's own error when
    `entries` reads a log."""
    layer_counts = {layer.label: 0 for layer in Layer}
    dispatches = 0
    aborts = 0
    latencies: list[int] = []
    fired = 0
    suppressed = 0
    halted = False
    halt_t_us: int | None = None
    open_tasks: dict[tuple[str, int], int] = {}

    entries = iter(entries)
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
        except (KeyError, TypeError, MalformedLogError) as exc:
            # a malformed line later in the log outranks this entry's error:
            # the log reader raises it while the rest is drained
            for _entry in entries:
                pass
            if isinstance(exc, MalformedLogError):
                raise
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
        try:
            self._wire()
        except BaseException:
            del self.bus  # its handlers point back at the engine, as after `run`
            raise

    # -- setup ------------------------------------------------------------

    def _wire(self) -> None:
        """One walk per pipeline stage (sensors, plugins, definitions,
        actuators) creates that stage's topics, subscriptions and tasks.
        Task ids go into `usage` in dispatch-category order, which is the
        order windows log their priority updates in.  Each site that queues
        work then resolves its tasks once: the run looks up no task by id."""
        config, program, bus = self.config, self.program, self.bus
        # each processing topic's bound signals, and its rules: each rule once
        # under every distinct topic its signals read
        self._signals_by_topic: dict[str, list[str]] = {}
        for signal, topic in program.signal_topics.items():
            self._signals_by_topic.setdefault(topic, []).append(signal)
        self._rules_by_topic: dict[str, list[tuple[int, Rule, frozenset[str]]]] = {}
        for index, rule in enumerate(program.program.rules):
            signals = frozenset(s for s, _ in condition_signals(rule.condition))
            for topic in dict.fromkeys(program.signal_topics[s] for s in signals):
                self._rules_by_topic.setdefault(topic, []).append((index, rule, signals))

        usage: dict[str, tuple[sched.TaskCategory, set[str]]] = {}

        self._checks: dict[str, list[SafetyCheckSpec]] = {}  # sensor -> its checks, in config order
        for check in config.safety_checks:
            self._checks.setdefault(check.sensor, []).append(check)
        for sensor in config.sensors:
            bus.create_topic(sensor.name, Layer.SENSOR, producer=f"sensor_input.{sensor.name}")
            usage[f"sensor_input.{sensor.name}"] = (sched.TaskCategory.SENSOR_INPUT, set())

        plugins: list[tuple[AlgorithmSpec, Step]] = []
        for stage in processing_stages(config):
            topic = stage.output
            plugins.append((stage, make_plugin(stage.plugin, stage.params_dict())))
            task_id = f"algorithmic.{stage.name}"
            bus.create_topic(topic, Layer.PROCESSING, producer=task_id)
            targets = {
                target
                for _, rule, _ in self._rules_by_topic.get(topic, ())
                for target in (rule.then_behavior, rule.else_behavior)
                if target is not None
            }
            usage[task_id] = (sched.TaskCategory.ALGORITHMIC, targets)
            for sensor_name in stage.inputs:
                usage[f"sensor_input.{sensor_name}"][1].update(targets)
            bus.subscribe(topic, Layer.BEHAVIOR, self._on_processed)

        self.counters: dict[str, sched.FrequencyCounter] = {}
        controlled: dict[str, set[str]] = {}  # actuator -> the behaviors commanding it
        for name, plan in program.plans.items():
            self.counters[name] = sched.FrequencyCounter(name)
            usage[f"behavioral.{name}"] = (sched.TaskCategory.BEHAVIORAL, {name})
            for _offset_us, command in plan:
                controlled.setdefault(command["actuator"], set()).add(name)

        for actuator in config.actuators:
            topic = command_topic(actuator.name)
            bus.create_topic(topic, Layer.BEHAVIOR, producer="rules")
            bus.subscribe(topic, Layer.CONTROL)
            usage[f"control.{actuator.name}"] = (sched.TaskCategory.CONTROL, controlled.get(actuator.name, set()))

        # safety checks run inline on arrival; the sensors they watch are pinned
        safety_tasks = {f"sensor_input.{sensor_name}" for sensor_name in self._checks}
        base = sched.assign_base_priorities(
            program.priorities, {task_id: behaviors for task_id, (_, behaviors) in usage.items()}, safety_tasks
        )
        cost = config.scheduler.default_task_cost_us
        tasks = self.tasks = {
            task_id: sched.TaskDescriptor(
                id=task_id,
                category=category,
                behaviors=frozenset(behaviors),
                base_priority=base[task_id],
                current_priority=base[task_id],
                cost_us=cost,
            )
            for task_id, (category, behaviors) in usage.items()
        }

        for stage, step in plugins:  # a sensor topic's subscribers keep the stage order
            handler = self._make_plugin_handler(tasks[f"algorithmic.{stage.name}"], stage, step)
            for sensor_name in stage.inputs:
                bus.subscribe(sensor_name, Layer.PROCESSING, handler)
        self._sensor_tasks = {sensor.name: tasks[f"sensor_input.{sensor.name}"] for sensor in config.sensors}
        self._behavior_tasks = {name: tasks[f"behavioral.{name}"] for name in program.plans}
        # actuator -> its command topic and its control task
        self._controls = {a.name: (command_topic(a.name), tasks[f"control.{a.name}"]) for a in config.actuators}

    def _make_plugin_handler(self, task: sched.TaskDescriptor, stage: AlgorithmSpec, step: Step):
        def handler(message) -> None:
            self.queue.push(task, self.clock_us, (stage, step, message.payload))

        return handler

    # -- logging ----------------------------------------------------------

    def _log(self, kind: str, detail: dict) -> None:
        assert not self.entries or self.clock_us >= self.entries[-1].t_us
        self.entries.append(LogEntry(len(self.entries), self.clock_us, kind, detail))

    def _publish(self, topic: str, producer: str, payload: object, **fields: object) -> None:
        """Log the `message` entry, then publish: the entry precedes anything
        the synchronous fan-out logs."""
        bus = self.bus
        layer = bus.topic(topic).producer_layer
        self._log("message", {"topic": topic, "layer": layer.label, "bus_seq": bus.next_seq, **fields})
        bus.publish(topic, payload, self.clock_us, producer)

    # -- event heap -------------------------------------------------------

    def _push(self, t_us: int, rank: int, payload: object) -> None:
        heapq.heappush(self._heap, (t_us, rank, self._heap_tie, payload))
        self._heap_tie += 1

    # -- main loop --------------------------------------------------------

    def run(self) -> ExecutionLog:
        for event in self.trace:
            self._push(event.t_us, _RANK_TRACE, event)

        try:
            while self._heap:
                t_us, rank, _tie, payload = heapq.heappop(self._heap)
                if not self.halted and self._next_window <= t_us:
                    self._tick_windows(t_us)
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

            if not self.halted and self.horizon_us is not None:
                self._tick_windows(self.horizon_us)
            return ExecutionLog(entries=self.entries, routes=self.bus.routes())
        finally:
            # the bus's handlers point back at the engine: without the bus, nothing
            # keeps a finished or failed engine (and its entries) alive but its callers
            del self.bus

    # -- handlers ---------------------------------------------------------

    def _tick_windows(self, until_us: int) -> None:
        """Tick every window boundary up to `until_us`, unless the run would
        then have logged more than MAX_WINDOW_ENTRIES priority updates: the
        check comes before the first idle window, and never after a halt."""
        windows = until_us // self._window_us
        if windows * len(self.tasks) > MAX_WINDOW_ENTRIES:
            raise RunLimitError(
                f"{windows} window boundaries up to t_us {until_us} would log {windows * len(self.tasks)} "
                f"priority updates, more than {MAX_WINDOW_ENTRIES}; raise window_us or shorten the run"
            )
        while self.tasks and self._next_window <= until_us:
            self._handle_window()

    def _handle_window(self) -> None:
        self.clock_us = max(self.clock_us, self._next_window)
        updates = sched.adapt_priorities(self.tasks, self.counters, self.config.scheduler, self.clock_us)
        self.queue.rekey()  # the only place queued tasks change priority
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
        for check in self._checks.get(event.sensor, ()):
            if evaluate_safety(event.value, check):
                self._halt(
                    source=check.name,
                    sensor=event.sensor,
                    reading=event.value,
                    threshold=check.threshold,
                )
                return
        self.queue.push(
            self._sensor_tasks[event.sensor],
            self.clock_us,
            Reading(sensor=event.sensor, t_us=event.t_us, value=event.value),
        )

    def _handle_task_done(self, entry: sched.QueueEntry) -> None:
        # after a halt the main loop handles no completion, so this task still runs
        assert entry is self.running
        self.running = None
        self._log("task_finish", {"task": entry.task.id, "enqueue_seq": entry.enqueue_seq})
        self._FINISH[entry.task.category](self, entry)

    def _finish_sensor_input(self, entry: sched.QueueEntry) -> None:
        reading: Reading = entry.payload  # type: ignore[assignment]
        prev = self.gate_prev.get(reading.sensor)
        if not gate_significant(prev, reading.value, self._gate_delta[reading.sensor]):
            return  # null branch: nothing reaches the processing layer
        self.gate_prev[reading.sensor] = reading.value
        reading.seq = self.bus.next_seq
        self._publish(
            reading.sensor, entry.task.id, reading, value=reading.value, sensor=reading.sensor, reading_t_us=reading.t_us
        )

    def _finish_algorithmic(self, entry: sched.QueueEntry) -> None:
        stage, step, reading = entry.payload  # type: ignore[misc]
        value = run_algorithm(stage.plugin, step, reading)
        if value is None:
            return
        self._publish(stage.output, entry.task.id, value, value=value, source_seq=reading.seq)

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
        self.queue.push(self._behavior_tasks[winner], self.clock_us, winner)
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
        for offset_us, command in self.program.plans[behavior]:
            self._push(self.clock_us + offset_us, _RANK_ENQUEUE, (command, behavior))

    def _handle_deferred_enqueue(self, item: tuple[dict, str]) -> None:
        command, behavior = item
        topic, task = self._controls[command["actuator"]]
        self._publish(topic, "rules", command, command=command, behavior=behavior)
        self.queue.push(task, self.clock_us, item)

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

    # plain functions, not bound methods, so the table holds no engine
    _FINISH = {
        sched.TaskCategory.SENSOR_INPUT: _finish_sensor_input,
        sched.TaskCategory.ALGORITHMIC: _finish_algorithmic,
        sched.TaskCategory.BEHAVIORAL: _finish_behavioral,
        sched.TaskCategory.CONTROL: _finish_control,
    }

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
        purged = self.queue.purge()
        neutral = {a.name: a.clamp(0.0) for a in self.config.actuators}
        self._log(
            "safety_halt",
            {
                "source": source,
                "sensor": sensor,
                "reading": reading,
                "threshold": threshold,
                "command": command,
                "neutral": neutral,
                "aborted": aborted.task.id if aborted else None,
                "purged": [e.task.id for e in purged],
            },
        )
        if aborted is not None:
            self._log(
                "task_abort",
                {
                    "task": aborted.task.id,
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
        entry = sched.select_next(self.queue)
        assert entry is not None
        task = entry.task
        # dispatch dominance: the heap top is the best of what is still queued,
        # so nothing may outrank the pick
        runner_up = self.queue.peek()
        assert runner_up is None or runner_up.task.current_priority <= task.current_priority
        self._log(
            "task_start",
            {
                "task": task.id,
                "enqueue_seq": entry.enqueue_seq,
                "enqueue_t_us": entry.enqueue_t_us,
                "priority": task.current_priority,
            },
        )
        self.running = entry
        self._push(self.clock_us + task.cost_us, _RANK_TASK_DONE, entry)


def run(
    config: SystemConfig,
    program: BoundProgram,
    trace: Sequence[TraceEvent],
    horizon_us: int | None = None,
) -> ExecutionLog:
    """Simulate a trace; `horizon_us` truncates the trace and extends window
    boundary ticks through otherwise idle time (used by --until).  Raises
    RunLimitError past MAX_WINDOW_ENTRIES priority updates."""
    return _Engine(config, program, trace, horizon_us).run()
