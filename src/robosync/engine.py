"""Deterministic discrete-event engine.

Replays a recorded sensor trace against a configuration and a bound behavior
program on a virtual microsecond clock, producing a totally ordered execution
log.  A single virtual CPU serves tasks from the ready queue; the pipeline per
reading is: arrival -> safety checks -> sensor-input task -> significance gate
-> sensor message -> algorithmic task -> processed message -> rule evaluation
-> behavioral task -> command messages -> control tasks -> actuator commands.

A trace is a list of `Reading` and `Override` records; the trace's own
`Reading` reaches the plugins unchanged.  Setup makes one task per stage,
`<category label>.<name>`, sensors first, then stages, definitions, actuators.

Identical inputs always produce byte-identical serialized logs.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import operator
import re
import statistics
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

from . import sched
from .bus import DeliveryRecord, Layer, MessageBus, Topic, evaluate_safety
from .config import MAX_JSON_DEPTH, SafetyCheckSpec, SystemConfig, command_topic, json_depth, processing_stages
# eval_condition stays a name of this module though nothing here calls it
# (each route compiles its conditions): the benchmark's tracer,
# bench/tracing.py, looks up each function it wraps in this module's
# namespace, and a missing one fails it
from .dsl import BoundProgram, Rule, compile_condition, condition_signals, eval_condition
from .sensorproc import PLUGIN_REGISTRY, Reading, Step, finite_float, gate_significant, run_algorithm


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


class _RepeatedKey(ValueError):
    """A JSON object names one key twice: a decoder would keep the last."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoder's `object_pairs_hook` that refuses a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise _RepeatedKey(f"repeated key {key!r}")
            seen.add(key)
    return obj


# a log holds no NaN or Infinity, and stats computed from one would not be JSON;
# nor does it name a key twice in one object
_LOG_DECODER = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_unique_keys)


class _Form(NamedTuple):
    """How the log reads a value of one declared type.  `around % text` is
    the regex of the canonical text a log site writes (an int as `%d`, a
    float as `%.6f`, anything else as `render` writes it), where `text`
    matches the value's text (none for `null`), and `read` turns that text
    into the value the JSON decoder gives.  `allowed` is the decoded types a
    line read the slow way may hold there (a JSON integer is a number too),
    and `noun` names them."""

    around: str
    text: str
    read: Callable[[str | None], object]
    allowed: frozenset[type]
    noun: str

    def pattern(self, group: str | None) -> str:
        """The regex of the canonical text, with the value's text in a group
        of this name, or in none."""
        return self.around % (self.text if group is None else f"(?P<{group}>{self.text})")


# canonical text: at most 18 digits, so `int` never meets its digit limit;
# `%.6f`; and printable ASCII but `"` and `\`, so a string's text is its
# value and holds no character `str.splitlines` breaks at
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_FLOAT = r"-?(?:0|[1-9][0-9]*)\.[0-9]{6}"
_TEXT = r"[ !#-\[\]-~]*"
_STR = f'"{_TEXT}"'
# a list or dict of such scalars, as `render` writes it
_SCALAR = rf"(?:{_STR}|{_FLOAT}|{_INT}|true|false|null)"
_LIST = rf"\[(?:{_SCALAR}(?:, {_SCALAR})*)?\]"
_DICT = rf"\{{(?:{_STR}: {_SCALAR}(?:, {_STR}: {_SCALAR})*)?\}}"


def _same(text: str | None) -> str | None:
    return text


def _float_or_none(text: str | None) -> float | None:
    return None if text is None else float(text)


_NONE = type(None)
_FORMS: dict[object, _Form] = {
    int: _Form("%s", _INT, int, frozenset({int}), "an integer"),
    float: _Form("%s", _FLOAT, float, frozenset({float, int}), "a number"),
    str: _Form('"%s"', _TEXT, _same, frozenset({str}), "a string"),
    list: _Form("%s", _LIST, _LOG_DECODER.decode, frozenset({list}), "an array"),
    dict: _Form("%s", _DICT, _LOG_DECODER.decode, frozenset({dict}), "an object"),
    str | None: _Form('(?:null|"%s")', _TEXT, _same, frozenset({str, _NONE}), "a string or null"),
    float | None: _Form("(?:null|%s)", _FLOAT, _float_or_none, frozenset({float, int, _NONE}), "a number or null"),
}


# every line starts with its seq and t_us, and ends with its detail's brace, then its own
_HEAD = b'{"seq": %d, "t_us": %d'
_LINE_END = b"}}\n"
# a block's line at one t_us, as `_BLOCK_LINE % t_us`: its seq, then its tail
_BLOCK_LINE = _HEAD.replace(b"%d", b"%%d", 1) + b"%%b"
# a site's conversion for a field that varies: only a number may
_CONVERSIONS = {int: b"%d", float: b"%.6f"}
# a site's value for each field that varies
_VARYING = object()


class LogSite(NamedTuple):
    """A place the run logs entries of `row` from, with some of the row's
    fields fixed.  An entry logged here is `(seq, t_us, *args)`, `args` its
    varying values in field order.  `line` is the whole line as one ASCII
    `bytes` `%` template, each fixed field's text in place (with every `%`
    doubled) and a `%d` or `%.6f` for each other field, after the `%d`s of
    seq and t_us, so an entry's line is `line % entry`.  `fixed` holds the
    row's values, `_VARYING` for each that varies, and `pick` takes `entry +
    fixed` to the row's values, in field order."""

    row: LogRow
    line: bytes
    fixed: tuple
    pick: Callable[[tuple], tuple]

    def values(self, entry: tuple) -> tuple:
        """The row's values of an entry `(seq, t_us, *args)` logged here."""
        return self.pick(entry + self.fixed)

    def tail(self, *args: object) -> bytes:
        """The line of an entry logged here with `args`, after its t_us: a
        block item's tail."""
        return self.line[len(_HEAD) :] % args


class LogRow(tuple):
    """A row of the log schema: the tuple of its detail field names, in the
    order they are written, with its entries' `kind`, the `layer` a `message`
    row's entries hold (else None), each field's declared type in `types` and
    its `_Form` in `forms`, and `label`, `<kind>_<layer>`, which names its
    groups in a line regex (`_log_line`).  `site(**fixed)` makes the row's
    log sites.  `group` is the empty group that ends the row's branch in
    `_CANONICAL`: the row's fields are the groups before it."""

    kind: str
    layer: str | None
    types: tuple[object, ...]
    forms: tuple[_Form, ...]
    template: bytes
    conversions: tuple[bytes, ...]
    label: str
    group: int

    def __new__(cls, kind: str, fields: Mapping[str, object], layer: str | None = None) -> LogRow:
        row = super().__new__(cls, fields)
        row.kind, row.layer, row.types = kind, layer, tuple(fields.values())
        row.forms = tuple(_FORMS[value_type] for value_type in row.types)
        # a site's line, with each field's text in place of its `%s`
        detail = ", ".join(f'"{name}": %s' for name in row)
        row.template = _HEAD.replace(b"%", b"%%") + f', "kind": "{kind}", "detail": {{{detail}'.encode("ascii") + _LINE_END
        row.conversions = tuple(_CONVERSIONS.get(value_type, b"") for value_type in row.types)
        row.label = f"{kind}_{layer}"
        return row

    def pattern(self, captured: Collection[str]) -> str:
        """The regex of the row's canonical line (the one a site writes) from
        the kind's name to the detail's brace, with each field `captured`
        names in a group named `<label>_<field>`, in field order."""
        fields = []
        for name, form in zip(self, self.forms):
            if name == "layer":  # a `message` row's `layer` is its own layer's name
                form = form._replace(text=self.layer)
            fields.append(f'"{name}": ' + form.pattern(f"{self.label}_{name}" if name in captured else None))
        return f'{self.kind}", "detail": \\{{' + ", ".join(fields) + r"\}"

    def site(self, **fixed: object) -> LogSite:
        """The site whose named fields hold these values (a `message` row's
        `layer` is its own), each rendered into the line once, by `render`.
        Every other field varies, and must be declared an int or a float.
        Nothing checks a value's type: the engine passes the declared ones,
        and tests hold the lines to `serialize_log`'s."""
        if self.layer is not None:
            fixed.setdefault("layer", self.layer)
        values = tuple([fixed.pop(name, _VARYING) for name in self])
        if fixed:
            raise TypeError(f"{self.kind} has no field {next(iter(fixed))!r}")
        conversions = self.conversions
        # `render` writes only ASCII
        texts = tuple(
            [c if v is _VARYING else render(v).encode("ascii").replace(b"%", b"%%") for v, c in zip(values, conversions)]
        )
        if b"" in texts:  # no value renders to ""
            raise TypeError(f"{self.kind} field {self[texts.index(b'')]!r} is no number: it cannot vary")
        # in `entry + values`, the k-th varying value is at 2 + k, and the
        # field at `position` at the entry's length plus `position`; every
        # row has two fields or more, so `pick` returns a tuple
        varying = itertools.count(2)
        length = 2 + sum(value is _VARYING for value in values)
        pick = operator.itemgetter(*[next(varying) if v is _VARYING else length + i for i, v in enumerate(values)])
        return LogSite(self, self.template % texts, values, pick)

    def entry(self, seq: int, t_us: int, values: tuple) -> LogEntry:
        """The entry of these values, in field order."""
        return LogEntry(seq, t_us, self.kind, dict(zip(self, values)))

    def read(self, match: re.Match) -> tuple:
        """The values of a canonical line of this row that `_CANONICAL`
        matched."""
        texts = match.groups()[self.group - 1 - len(self) : self.group - 1]
        return tuple(form.read(text) for form, text in zip(self.forms, texts))


# The log schema: each entry shape, (kind, producing layer for a `message`,
# else None), -> its row.  The `_log` call sites pass each row's values in its
# field order; `serialize_log` refuses any other shape.
_SENSOR_EVENT = LogRow("sensor_event", {"sensor": str, "value": float})
_SENSOR_MESSAGE = LogRow(
    "message",
    {"topic": str, "layer": str, "bus_seq": int, "value": float, "sensor": str, "reading_t_us": int},
    layer="sensor",
)
_PROCESSED_MESSAGE = LogRow(
    "message", {"topic": str, "layer": str, "bus_seq": int, "value": float, "source_seq": int}, layer="processing"
)
_COMMAND_MESSAGE = LogRow(
    "message", {"topic": str, "layer": str, "bus_seq": int, "command": dict, "behavior": str}, layer="behavior"
)
_TASK_START = LogRow("task_start", {"task": str, "enqueue_seq": int, "enqueue_t_us": int, "priority": float})
_TASK_FINISH = LogRow("task_finish", {"task": str, "enqueue_seq": int})
_TASK_ABORT = LogRow("task_abort", {"task": str, "enqueue_seq": int, "reason": str})
_FIRED = LogRow("behavior_fired", {"behavior": str, "priority": float, "rule": int, "branch": str, "trigger_seq": int})
_SUPPRESSED = LogRow("behavior_suppressed", {"behavior": str, "priority": float, "rule": int, "branch": str, "winner": str})
_ACTUATOR_CMD = LogRow("actuator_cmd", {"actuator": str, "action": str, "value": float, "behavior": str})
_PLAY_CMD = LogRow("play_cmd", {"actuator": str, "resource": str, "behavior": str})
_PRIORITY_UPDATE = LogRow(
    "priority_update", {"task": str, "old": float, "new": float, "f_max": int, "behavior": str | None, "delta": float}
)
_SAFETY_HALT = LogRow(
    "safety_halt",
    {
        "source": str,
        "sensor": str | None,
        "reading": float | None,
        "threshold": float | None,
        "command": str | None,
        "neutral": dict,
        "aborted": str | None,
        "purged": list,
    },
)
_TRACE_DROPPED = LogRow("trace_dropped", {"sensor": str | None, "value": float | None, "command": str | None})
LOG_FIELDS: dict[tuple[str, str | None], LogRow] = {
    (row.kind, row.layer): row
    for row in (
        _SENSOR_EVENT,
        _SENSOR_MESSAGE,
        _PROCESSED_MESSAGE,
        _COMMAND_MESSAGE,
        _TASK_START,
        _TASK_FINISH,
        _TASK_ABORT,
        _FIRED,
        _SUPPRESSED,
        _ACTUATOR_CMD,
        _PLAY_CMD,
        _PRIORITY_UPDATE,
        _SAFETY_HALT,
        _TRACE_DROPPED,
    )
}
LOG_KINDS = frozenset(kind for kind, _layer in LOG_FIELDS)


def _log_line(
    captured: Mapping[tuple[str, str | None], Sequence[str]],
) -> tuple[re.Pattern, list[LogRow | None], dict[tuple[str, str | None], tuple[int, ...]]]:
    r"""The regex of one line of a log, the row each of its groups ends (None
    for the others), and, per shape `captured` names, the group that ends its
    row's branch and those of the fields it names, in its order.

    A canonical line of some row (keyed by its shape, as in `LOG_FIELDS`) is
    matched with its seq and t_us in groups 1 and 2, and each field
    `captured` names for it in a group named `<label>_<field>`, then an empty
    group named after its label; any other line, up to and with its `\n`, is
    the last group.  Its matches in a text of whole lines tile it, so each
    canonical match is exactly one line.  Each row's branch starts with its
    kind's name, which a branch that does not match fails on at once; the
    kinds the bench logs hold most are tried first."""
    first = ("task_start", "task_finish", "priority_update", "behavior_suppressed", "message")
    regex = re.compile(
        rf'\{{"seq": ({_INT}), "t_us": ({_INT}), "kind": "(?:'
        + "|".join(
            f"{row.pattern(captured.get(shape, ()))}(?P<{row.label}>)"
            for shape, row in sorted(LOG_FIELDS.items(), key=lambda item: (*first, item[1].kind).index(item[1].kind))
        )
        + r")\}\r?(?:\n|\Z)|([^\n]*\n|[^\n]+)"
    )
    rows: list[LogRow | None] = [None] * (regex.groups + 1)
    for row in LOG_FIELDS.values():
        rows[regex.groupindex[row.label]] = row
    groups = {
        shape: (regex.groupindex[(label := LOG_FIELDS[shape].label)], *[regex.groupindex[f"{label}_{name}"] for name in names])
        for shape, names in captured.items()
    }
    return regex, rows, groups


# every field of every row: the reader of whole entries
_CANONICAL, _ROWS, _ = _log_line(LOG_FIELDS)
_OTHER = _CANONICAL.groups
for _row in LOG_FIELDS.values():
    _row.group = _CANONICAL.groupindex[_row.label]
del _row

STOP_COMMAND = "STOP"

# the running task's completion time while no task runs
_IDLE = float("inf")

# Window boundaries log one `priority_update` per task however idle the time
# between them, so theirs is the only entry count that does not grow with the
# input's size: a trace gap or an `--until` far past `window_us` would stall
# the run and fill memory.  A million is 25x the bench's largest run.
MAX_WINDOW_ENTRIES = 1_000_000

# A run hands its sink the entries it logs one at a time in batches: once
# this many wait after an event (which logs a few, bounded by the program's
# size), and fewer before each block and at the run's end.  So there is one
# sink call and one write per batch, and a bounded list of entries waiting.
BATCH_ENTRIES = 512


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


@dataclass(frozen=True, slots=True)
class Override:
    """An operator's `STOP` in the trace, the only override there is."""

    t_us: int


# one trace line: a sensor sample or an override
TraceEvent = Reading | Override


class LogSink(Protocol):
    """What a run hands its entries to, in log order, in two kinds of call.
    `batch` takes a list of entries, each logged from its own site, as
    `(site, entry)` pairs: `entry` is `(seq, t_us, *args)`, with `args` the
    entry's varying values, so its line is `site.line % entry` and its row's
    values are `site.values(entry)`.  `block` takes a block: a window's
    `priority_update` entries, consecutive entries of one row at one instant,
    from seq `first_seq` on, one per `(values, tail)` item, where `values`
    are the entry's values in the row's field order and `tail` is its line
    after its t_us.  The run hands on the entries it has logged so far
    before each block, once BATCH_ENTRIES of them wait after an event, and
    when it ends or fails."""

    def batch(self, batch: Sequence[tuple[LogSite, tuple]]) -> object: ...

    def block(self, row: LogRow, first_seq: int, t_us: int, items: Sequence[tuple[tuple, bytes]]) -> object: ...


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
    """`run`'s default sink: it builds a `LogEntry` per entry into `entries`."""

    entries: list[LogEntry] = field(default_factory=list)
    # the run's bus table: topic -> (producer layer, subscriber layers)
    routes: Mapping[str, tuple[Layer, tuple[Layer, ...]]] = field(default_factory=dict)

    def batch(self, batch: Sequence[tuple[LogSite, tuple]]) -> None:
        # `site.values(entry)`, inlined
        self.entries += [
            LogEntry(entry[0], entry[1], site.row.kind, dict(zip(site.row, site.pick(entry + site.fixed)))) for site, entry in batch
        ]

    def block(self, row: LogRow, first_seq: int, t_us: int, items: Sequence[tuple[tuple, bytes]]) -> None:
        self.entries += [row.entry(seq, t_us, values) for seq, (values, _tail) in enumerate(items, first_seq)]

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


class LogWriter:
    """A run's sink that writes its log to `out`, a binary output, one
    `write` per batch or block: a batch's lines, each its site's line filled
    in, and a block's, each its seq and t_us, then its item's tail, each made
    by one comprehension."""

    __slots__ = ("write",)

    def __init__(self, out: BinaryIO) -> None:
        self.write = out.write

    def batch(self, batch: Sequence[tuple[LogSite, tuple]]) -> None:
        self.write(b"".join([site.line % entry for site, entry in batch]))

    def block(self, row: LogRow, first_seq: int, t_us: int, items: Sequence[tuple[tuple, bytes]]) -> None:
        line = _BLOCK_LINE % t_us
        self.write(b"".join([line % (seq, tail) for seq, (_values, tail) in enumerate(items, first_seq)]))


# ---------------------------------------------------------------------------
# JSON-lines reading

# the readers take their text about this many characters at a time
CHUNK_CHARS = 1 << 20


def _blocks(text: str | Iterable[str], chunk: int = CHUNK_CHARS) -> Iterator[tuple[str, int]]:
    r"""`text`, or the text its pieces join to, as `(block, end)` pairs whose
    `block[:end]` are its whole lines, in order; a str is cut into
    `chunk`-character pieces.  Each block is a piece, with what was left of
    the pieces before it, and ends after its last `\n` but for the last
    block: a `\n` always ends a line and never begins a two-character break
    (`\r\n`), so the lines and their break characters are those of the
    whole text.  A piece is copied only to join what was left before it."""
    pieces = (text[start : start + chunk] for start in range(0, len(text), chunk)) if isinstance(text, str) else text
    parts: list[str] = []
    for piece in pieces:
        parts.append(piece)
        cut = piece.rfind("\n") + 1
        if cut:
            block = "".join(parts)
            end = len(block) - len(piece) + cut
            yield block, end
            parts = [block[end:]] if end < len(block) else []
    block = "".join(parts)
    yield block, len(block)


def _split_lines(text: str | Iterable[str], chunk: int = CHUNK_CHARS) -> Iterator[str]:
    """The lines of `text`, or of the text its pieces join to, exactly as
    `str.splitlines` breaks them."""
    for block, end in _blocks(text, chunk):
        yield from block[:end].splitlines()


_NESTED = "invalid JSON: nested too deeply"


def _too_deep(line: str) -> bool:
    """Whether `line` nests deeper than MAX_JSON_DEPTH; a line with no more
    brackets than that is not scanned."""
    return line.count("[") + line.count("{") > MAX_JSON_DEPTH and json_depth(line)[0] > MAX_JSON_DEPTH


def _json_lines(
    text: str | Iterable[str],
    scan: Callable[[str, int], tuple[object, int]],
    decode: Callable[[str], object],
    error: Callable[[int, str], Exception],
    first_line: int = 1,
) -> Iterator[tuple[int, str, object]]:
    """`(line number, line, value)` per non-blank line of `text`, whole or in
    pieces, the first line numbered `first_line`; a line that is not one JSON
    value raises `error(line number, reason)`, and so does one that names a
    key twice in one object, if `scan` and `decode` refuse that.  A line
    nested deeper than MAX_JSON_DEPTH that is refused is refused as that.

    `decode` scans from 0 too unless the line starts with whitespace (or, for
    `json.loads`, a BOM), so a value that spans the whole line is exactly what
    it returns and an error raised at 0 is the one it raises; a short or
    failed scan (padding, extra data) goes to `decode` for its verdict."""
    for line_no, line in enumerate(_split_lines(text), start=first_line):
        if not line.strip():
            continue
        try:
            try:
                obj, end = scan(line, 0)
            except StopIteration:
                end = -1
            if end != len(line):
                obj = decode(line)
        except (ValueError, RecursionError) as exc:
            if isinstance(exc, RecursionError) or _too_deep(line):
                reason = _NESTED
            elif isinstance(exc, json.JSONDecodeError):
                reason = f"invalid JSON: {exc.msg}"
            elif isinstance(exc, _RepeatedKey):
                reason = str(exc)
            else:  # a non-finite constant or an over-long integer
                reason = f"invalid JSON: {exc}"
            raise error(line_no, reason) from None
        yield line_no, line, obj


# ---------------------------------------------------------------------------
# trace loading

# json.loads's settings, but each object decodes to the tuple of its pairs,
# so it is told apart from an array; a NaN or Infinity value decodes, then
# fails the trace's own check
_TRACE_SCAN = json.JSONDecoder(object_pairs_hook=tuple).scan_once
_TRACE_DECODE = functools.partial(json.loads, object_pairs_hook=tuple)
# the same, but each object a dict, refusing a repeated key
_CHECKED_SCAN = json.JSONDecoder(object_pairs_hook=_unique_keys).scan_once
_CHECKED_DECODE = functools.partial(json.loads, object_pairs_hook=_unique_keys)
_READING_KEYS = frozenset({"t_us", "sensor", "value"})
_OVERRIDE_KEYS = frozenset({"t_us", "override"})


def load_trace(text: str, config: SystemConfig) -> list[TraceEvent]:
    """Parse a JSON-lines trace and check it against the config's sensors.

    Events come back sorted by timestamp, file order preserved among ties.
    A line that names one key twice in any of its objects is refused.  Each
    line is scanned with no Python per object; a line that is refused is
    decoded again through the repeated-key check, whose refusal comes first,
    but for nesting deeper than MAX_JSON_DEPTH, which comes before it.
    """
    sensor_names = {s.name for s in config.sensors}
    events: list[TraceEvent] = []
    for line_no, line, pairs in _json_lines(text, _TRACE_SCAN, _TRACE_DECODE, TraceError):
        try:
            if type(pairs) is not tuple:
                raise TraceError(line_no, "each line must be an object")
            obj = dict(pairs)
            if len(obj) < len(pairs):
                raise TraceError(line_no, "repeated key")  # named by the checking decoder below
            t_us = obj.get("t_us")
            if type(t_us) is not int or t_us < 0:  # JSON decodes no other int type but bool
                raise TraceError(line_no, "t_us must be a non-negative integer")
            keys = obj.keys()
            if keys == _READING_KEYS:
                sensor = obj["sensor"]
                value = obj["value"]
                if type(value) is not float or not math.isfinite(value):  # else finite_float would return it
                    value = finite_float(value)
                if type(sensor) is not str:
                    raise TraceError(line_no, "sensor must be a string")
                if sensor not in sensor_names:
                    raise TraceError(line_no, f"unknown sensor {sensor!r}")
                if value is None:
                    raise TraceError(line_no, "value must be a finite number")
                events.append(Reading(sensor, t_us, value))
            elif keys == _OVERRIDE_KEYS:
                command = obj["override"]
                if type(command) is not str:
                    raise TraceError(line_no, "override must be a string")
                if command != STOP_COMMAND:
                    raise TraceError(line_no, f"unsupported override {command!r}")
                events.append(Override(t_us))
            else:
                raise TraceError(line_no, "expected keys {t_us, sensor, value} or {t_us, override}")
        except TraceError:
            # nesting too deep, then a repeated key, the innermost first,
            # outranks the reason
            if _too_deep(line):
                raise TraceError(line_no, _NESTED) from None
            for _checked in _json_lines(line, _CHECKED_SCAN, _CHECKED_DECODE, TraceError, line_no):
                pass
            raise
    events.sort(key=operator.attrgetter("t_us"))  # stable: ties keep file order
    return events


# ---------------------------------------------------------------------------
# log serialization (external interface: stable keys, fixed 6-decimal floats)


def render(value: object) -> str:
    """The JSON text of a value, through one table keyed on its exact scalar
    type: a float as `%.6f`, a str as `json.dumps` quotes it; anything else
    must be a plain list, or a plain dict with str keys, and values of any
    other type raise TypeError."""
    return _SCALARS(type(value), _container)(value)


def _container(value: object) -> str:
    if type(value) is list:
        return "[" + ", ".join([render(v) for v in value]) + "]"
    if type(value) is not dict:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    for k in value:
        if type(k) is not str:
            raise TypeError(f"cannot serialize {type(k).__name__} key {k!r}")
    return "{" + ", ".join([f"{encode_basestring_ascii(k)}: {render(v)}" for k, v in value.items()]) + "}"


_SCALARS = {
    float: "{:.6f}".format,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    str: encode_basestring_ascii,
}.get


# each schema row as (kind, *detail fields) -> the `layer` its entries hold:
# a `message` row's layer, else None, as no other row has a `layer` field
_SHAPES = {(kind, *row): layer for (kind, layer), row in LOG_FIELDS.items()}
_OFF_SCHEMA = object()


def serialize_log(entries: Iterable[LogEntry]) -> str:
    """Render entries as JSON lines, checked: an entry whose (kind, *detail
    fields) is not a `LOG_FIELDS` row, or a `message` whose `layer` is not its
    row's, raises the off-schema TypeError, and otherwise the first value the
    renderer cannot render raises its error."""
    lines = []
    for entry in entries:
        kind, detail = entry.kind, entry.detail
        if _SHAPES.get((kind, *detail), _OFF_SCHEMA) != detail.get("layer"):
            raise TypeError(f"off-schema log entry: kind {kind!r} with detail fields {list(detail)}")
        lines.append(render({"seq": entry.seq, "t_us": entry.t_us, "kind": kind, "detail": detail}) + "\n")
    return "".join(lines)


_LOG_ENTRY_KEYS = frozenset({"seq", "t_us", "kind", "detail"})


def _checked(seq: object, t_us: object, kind: object, detail: object) -> tuple[LogRow, int, int, tuple]:
    """An entry as `(row, seq, t_us, values)`, once its shape is a schema
    row's and each detail value one of the types its field allows; raises
    MalformedLogError otherwise."""
    if type(seq) is not int or type(t_us) is not int:
        raise MalformedLogError("seq and t_us must be integers")
    if type(kind) is not str or kind not in LOG_KINDS:
        raise MalformedLogError(f"unknown kind {kind!r}")
    if not isinstance(detail, dict):
        raise MalformedLogError("detail must be an object")
    if kind == "message":
        layer = detail.get("layer")
        row = LOG_FIELDS.get((kind, layer)) if type(layer) is str else None
        if row is None:
            raise MalformedLogError(f"message with unknown layer {layer!r} at seq {seq}")
        shape = f"message of layer {layer!r}"
    else:
        row, shape = LOG_FIELDS[kind, None], kind
    if tuple(detail) != row:
        raise MalformedLogError(f"{shape} with off-schema detail fields {list(detail)} at seq {seq}")
    values = tuple(detail.values())
    for name, value, form in zip(row, values, row.forms):
        if type(value) not in form.allowed:
            raise MalformedLogError(f"{shape} at seq {seq}: {name} must be {form.noun}")
    return row, seq, t_us, values


class _LogScan:
    r"""A serialized log, whole or as an iterable of its text in pieces, read
    once.  Iterating it gives the matches of a `_log_line` regex that tile
    its text, block by block: each canonical line is one match, and each
    other line, up to its `\n`, is one match of the last group, which
    `other` reads the slow way.  A canonical match is exactly one line, so
    lines are numbered from the matches: the match that `index` matches come
    before starts at line `index + 1`, plus the lines past the first of each
    other match before it, as `str.splitlines` breaks the whole text."""

    __slots__ = ("matches", "extra")

    def __init__(self, text: str | Iterable[str], regex: re.Pattern = _CANONICAL) -> None:
        self.matches = itertools.chain.from_iterable(regex.finditer(block, 0, end) for block, end in _blocks(text))
        self.extra = 0  # the lines past the first of each other match read so far

    def __iter__(self) -> Iterator[re.Match]:
        return self.matches

    def read(self, match: re.Match, index: int, group: int = 0) -> object:
        """The values of a `_CANONICAL` match, read by its row, or with
        `group` the object that group holds, decoded alone; a line whose
        object names a key twice is read the slow way, which refuses it at
        its line."""
        try:
            return _LOG_DECODER.decode(match[group]) if group else _ROWS[match.lastindex].read(match)
        except _RepeatedKey:
            self.other(match, index)
            raise

    def other(self, match: re.Match, index: int) -> list[tuple[LogRow, int, int, tuple]]:
        """The entries of a match, read the slow way."""
        text = match.group()
        line = index + 1 + self.extra
        self.extra += len(text.splitlines()) - 1
        return _decoded(text, line)


def _decoded(text: str, first_line: int = 1) -> list[tuple[LogRow, int, int, tuple]]:
    """`(row, seq, t_us, values)` per entry of a log's `text`, its first
    line numbered `first_line`, read the slow way: each line through the JSON
    decoder and `_checked`.  Raises MalformedLogError naming the first bad
    line; a line nested deeper than MAX_JSON_DEPTH is bad for that first."""
    rows = []
    decoder = _LOG_DECODER
    lines = _json_lines(text, decoder.scan_once, decoder.decode, lambda n, reason: MalformedLogError(reason, n), first_line)
    for line_no, line, obj in lines:
        if _too_deep(line):  # an object field's value may nest
            raise MalformedLogError(_NESTED, line_no)
        if not isinstance(obj, dict) or obj.keys() != _LOG_ENTRY_KEYS:
            raise MalformedLogError("expected keys {seq, t_us, kind, detail}", line_no)
        try:
            rows.append(_checked(obj["seq"], obj["t_us"], obj["kind"], obj["detail"]))
        except MalformedLogError as exc:
            raise MalformedLogError(exc.reason, line_no) from None
    return rows


def parse_log(text: str | Iterable[str]) -> list[LogEntry]:
    """Read back a serialized log, whole or as an iterable of its text in
    pieces; raises MalformedLogError naming the first bad line.  A canonical
    line is read by its row's regex, and any other through the JSON decoder
    and the row's checks."""
    entries = []
    scan = _LogScan(text)
    for index, match in enumerate(scan):
        row = _ROWS[match.lastindex]
        if row is None:
            entries += [row.entry(seq, t_us, values) for row, seq, t_us, values in scan.other(match, index)]
        else:
            entries.append(row.entry(int(match[1]), int(match[2]), scan.read(match, index)))
    return entries


def serialize_stats(stats: dict) -> str:
    return render(stats) + "\n"


# ---------------------------------------------------------------------------
# statistics


def compute_stats(entries: Iterable[LogEntry]) -> dict:
    """Aggregate a log in one pass over `entries` into the stats document,
    keys in the order `serialize_stats` writes them.  Raises the
    MalformedLogError of the first entry off the schema (or, when `entries`
    reads a log, of its first malformed line), else of the first unmatched
    start or finish."""
    stats = StatsAccumulator()
    error = None
    for entry in entries:
        row, seq, t_us, values = _checked(entry.seq, entry.t_us, entry.kind, entry.detail)
        if error is None:
            try:
                stats.count(row, seq, t_us, values)
            except MalformedLogError as exc:
                error = exc  # the entries left are still checked: an entry off the schema outranks it
    if error is not None:
        raise error
    return stats.result()


# the groups of the rows whose values the stats pass reads; it only counts the others
_READ_GROUPS = frozenset(row.group for row in (_TASK_START, _TASK_FINISH, _TASK_ABORT, _SAFETY_HALT))
# What the stats pass reads of a canonical line, per shape: a task's name
# and enqueue_seq, which pair its start with its end, a start's
# enqueue_t_us, for its latency, and each object, decoded to refuse a
# repeated key.  Its regex captures those fields beside each line's seq and
# t_us (the first halt's), and nothing of any other row.
_STATS_FIELDS = {
    ("task_start", None): ("task", "enqueue_seq", "enqueue_t_us"),
    ("task_finish", None): ("task", "enqueue_seq"),
    ("task_abort", None): ("task", "enqueue_seq"),
    ("message", "behavior"): ("command",),
    ("safety_halt", None): ("neutral",),
}
_STATS, _STATS_ROWS, _STATS_GROUPS = _log_line(_STATS_FIELDS)
_STATS_OTHER = _STATS.groups
# the pass decodes each distinct object text once, keeping at most this many
# texts: a log of more distinct objects is read alike, decoding the others
# each time
MAX_READ_OBJECTS = 1024


class StatsAccumulator:
    """The stats pass, keyed on schema rows: it counts each row's entries,
    pairs each task's start with its finish or abort, and takes each start's
    latency and the first halt's t_us.  It is a run's sink (`batch`, `block`);
    `count(row, seq, t_us, values)` counts one entry; `read(text)` counts a
    serialized log; and `result()` ends the log and returns its stats
    document.  A MalformedLogError from any of them ends the accumulator."""

    __slots__ = ("counts", "open_tasks", "latencies", "halt_t_us", "read_objects")

    def __init__(self) -> None:
        self.counts = [0] * (_OTHER + 1)  # a row's `group` (`_OTHER`: a line read the slow way) -> its entries so far
        self.open_tasks: dict[tuple[str, int], None] = {}  # (task, enqueue_seq) started and not yet ended, in start order
        self.latencies: list[int] = []
        self.halt_t_us: int | None = None
        self.read_objects: set[str] = set()  # object texts `read` decoded, at most MAX_READ_OBJECTS

    def batch(self, batch: Sequence[tuple[LogSite, tuple]]) -> None:
        counts = self.counts
        for site, entry in batch:
            row = site.row
            if row.group in _READ_GROUPS:
                self.count(row, entry[0], entry[1], site.values(entry))
            else:
                counts[row.group] += 1

    def count(self, row: LogRow, seq: int, t_us: int, values: tuple) -> None:
        self.counts[row.group] += 1
        if row is _TASK_START:
            self._start((values[0], values[1]), t_us - values[2], seq)
        elif row is _TASK_FINISH or row is _TASK_ABORT:
            self._end(row.kind, (values[0], values[1]), seq)
        elif row is _SAFETY_HALT and self.halt_t_us is None:
            self.halt_t_us = t_us

    def block(self, row: LogRow, first_seq: int, t_us: int, items: Sequence[tuple[tuple, bytes]]) -> None:
        if row.group in _READ_GROUPS:
            for seq, (values, _tail) in enumerate(items, first_seq):
                self.count(row, seq, t_us, values)
        else:
            self.counts[row.group] += len(items)

    # each task row's first fields are `task` and `enqueue_seq`, and a start's
    # third is `enqueue_t_us`; `read` passes a canonical line's seq as its
    # text, which the errors print alike

    def _start(self, key: tuple[str, int], latency: int, seq: int | str) -> None:
        if key in self.open_tasks:
            raise MalformedLogError(f"task {key[0]!r} started twice at seq {seq}")
        if latency < 0:
            raise MalformedLogError(f"negative latency at seq {seq}")
        self.open_tasks[key] = None
        self.latencies.append(latency)

    def _end(self, kind: str, key: tuple[str, int], seq: int | str) -> None:
        try:
            del self.open_tasks[key]
        except KeyError:
            raise MalformedLogError(f"{kind} without matching start at seq {seq}") from None

    def read(self, text: str | Iterable[str]) -> None:
        """Count a serialized log, whole or as an iterable of its text in
        pieces.  A canonical line is matched by `_STATS`, whose last matched
        group names its row, and only the fields `_STATS_FIELDS` declares are
        converted; a start and its end pair up in place.  Any other line is
        read the slow way and counted through `count`.  Raises the
        MalformedLogError of the first malformed line, else of the first
        unmatched start or finish."""
        open_tasks, latencies, read_objects = self.open_tasks, self.latencies, self.read_objects
        tally = [0] * (_STATS_OTHER + 1)  # a `_STATS` group -> its matches so far
        started, *fields = _STATS_GROUPS["task_start", None]
        start = (1, 2, *fields)  # seq, t_us, task, enqueue_seq, enqueue_t_us
        ends = {}  # an end's group -> its kind and the groups of seq, task and enqueue_seq
        for kind in ("task_finish", "task_abort"):
            group, *fields = _STATS_GROUPS[kind, None]
            ends[group] = (kind, (1, *fields))
        # a row with an object field -> that field's group
        objects = dict(_STATS_GROUPS[shape] for shape in (("message", "behavior"), ("safety_halt", None)))
        halt = _STATS_GROUPS["safety_halt", None][0]
        reads = frozenset({started, *ends, *objects, _STATS_OTHER})
        scan = _LogScan(text, _STATS)
        try:
            for match in scan:
                group = match.lastindex
                tally[group] += 1
                if group not in reads:
                    continue
                if group == started:
                    seq, t_us, task, enqueue_seq, enqueue_t_us = match.group(*start)
                    key, latency = (task, int(enqueue_seq)), int(t_us) - int(enqueue_t_us)
                    if key in open_tasks or latency < 0:
                        self._start(key, latency, seq)
                    open_tasks[key] = None
                    latencies.append(latency)
                elif group in ends:
                    kind, at = ends[group]
                    seq, task, enqueue_seq = match.group(*at)
                    key = (task, int(enqueue_seq))
                    try:
                        del open_tasks[key]
                    except KeyError:
                        self._end(kind, key, seq)
                elif group == _STATS_OTHER:
                    for entry in scan.other(match, sum(tally) - 1):
                        self.count(*entry)
                else:
                    at = objects[group]
                    if match[at] not in read_objects:  # an object's text repeats: it is decoded once
                        scan.read(match, sum(tally) - 1, at)
                        if len(read_objects) < MAX_READ_OBJECTS:
                            read_objects.add(match[at])
                    if group == halt and self.halt_t_us is None:
                        self.halt_t_us = int(match[2])
        except MalformedLogError as error:
            if error.line is None:  # a stats error: the first malformed line after it outranks it
                for index, match in enumerate(scan, sum(tally)):
                    if match.lastindex == _STATS_OTHER:
                        scan.other(match, index)
                    elif match.lastindex in objects:
                        scan.read(match, index, objects[match.lastindex])
            raise
        finally:
            counts = self.counts
            for group, matched in enumerate(tally):
                if matched:
                    counts[_OTHER if group == _STATS_OTHER else _STATS_ROWS[group].group] += matched

    def result(self) -> dict:
        if self.open_tasks:
            task, enqueue_seq = next(iter(self.open_tasks))
            raise MalformedLogError(f"task {task!r} (enqueue_seq {enqueue_seq}) never finished")
        counts, latencies = self.counts, self.latencies
        try:
            latency_mean_us = float(statistics.fmean(latencies)) if latencies else 0.0
        except OverflowError:
            raise MalformedLogError("latencies too large to average") from None
        return {
            # the control layer logs no message: it has no row
            "messages_per_layer": {
                layer.label: counts[row.group] if (row := LOG_FIELDS.get(("message", layer.label))) else 0
                for layer in Layer
            },
            "dispatches": counts[_TASK_START.group],
            "aborts": counts[_TASK_ABORT.group],
            "latency_us": {
                "min": min(latencies) if latencies else 0,
                "mean": latency_mean_us,
                "max": max(latencies) if latencies else 0,
            },
            "behaviors_fired": counts[_FIRED.group],
            "behaviors_suppressed": counts[_SUPPRESSED.group],
            "halted": counts[_SAFETY_HALT.group] > 0,
            "halt_t_us": self.halt_t_us,
        }


# ---------------------------------------------------------------------------
# the engine


# eq=False: a branch is hashed by identity, as the key of its log sites
@dataclass(frozen=True, slots=True, eq=False)
class _Branch:
    """One branch of a rule, THEN or the ELSE it has: the outcome that takes
    it, and `values`, its `(behavior, priority, rule, branch)`, the fields
    its `behavior_fired` and `behavior_suppressed` entries share."""

    outcome: bool
    values: tuple[str, float, int, str]


def _suppressed_site(pair: tuple[_Branch, _Branch]) -> LogSite:
    """The fully fixed site of the `behavior_suppressed` entry of a firing's
    branch `loser` that its branch `winner` wins, for the pair `(loser,
    winner)`."""
    loser, winner = pair
    return _SUPPRESSED.site(**dict(zip(_SUPPRESSED, (*loser.values, winner.values[0]))))


def _compile_rule(
    index: int, rule: Rule, priorities: Mapping[str, float]
) -> tuple[Callable[[Mapping[str, float]], bool], frozenset[str], tuple[_Branch, ...]]:
    """Rule `index` of the program, compiled at setup, once for every route
    it sits on: `(condition, signals, branches)`, its condition as one
    closure, the signals it needs, and its branches."""
    branches = []
    for outcome, branch, target in ((True, "then", rule.then_behavior), (False, "else", rule.else_behavior)):
        if target is not None:
            branches.append(_Branch(outcome, (target, priorities[target], index, branch)))
    signals = frozenset(signal for signal, _span in condition_signals(rule.condition))
    return compile_condition(rule.condition), signals, tuple(branches)


class _Route:
    """A processing topic's compiled rules, in rule order, as `_compile_rule`
    returns them, and their branches as (rule position, branch) pairs, sorted
    by behavior priority, highest first, then by rule index, as a firing
    ranks them.  So the first pair
    that fires wins, and the pairs that fire after it are the suppressed
    ones, in order."""

    __slots__ = ("rules", "pairs")

    def __init__(self, rules: list[tuple]) -> None:
        self.rules = rules
        pairs = [(position, branch) for position, (*_, branches) in enumerate(rules) for branch in branches]
        # a rule takes one branch per message, so the order of its two pairs never shows
        pairs.sort(key=lambda pair: (-pair[1].values[1], pair[1].values[2]))
        self.pairs = tuple(pairs)

    def fired(self, values: Mapping[str, float]) -> list[_Branch]:
        """The branches that fire on these signal values, winner first: each
        rule whose every signal has a value is evaluated once."""
        outcomes = [condition(values) if values.keys() >= signals else None for condition, signals, _ in self.rules]
        return [branch for position, branch in self.pairs if outcomes[position] is branch.outcome]


class _Cache(dict):
    """key -> `build(key)`, built the first time the key is looked up: the
    engine's log sites, so a run builds only those it logs through.  No
    `build` holds the engine, so no cache keeps a finished one alive."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[[object], object]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: object) -> object:
        value = self[key] = self.build(key)
        return value


def _plan_items(plans: Mapping[str, Sequence[tuple[int, dict]]], behavior: str) -> list[tuple[int, tuple]]:
    """A behavior's plan as a firing queues it: `(offset_us, item)` per
    command, where the item is `(command, its behavior-layer message's
    site, its actuator_cmd or play_cmd site)`, each site fully fixed but the
    message's `bus_seq`."""
    items = []
    for offset_us, command in plans[behavior]:
        sent = _COMMAND_MESSAGE.site(topic=command_topic(command["actuator"]), command=command, behavior=behavior)
        # a command's keys are its row's fields but `behavior`
        row = _PLAY_CMD if command["action"] == "play" else _ACTUATOR_CMD
        done = row.site(**{name: command[name] for name in row[:-1]}, behavior=behavior)
        items.append((offset_us, (command, sent, done)))
    return items


class _Engine:
    def __init__(
        self,
        config: SystemConfig,
        program: BoundProgram,
        trace: Sequence[TraceEvent],
        horizon_us: int | None,
        sink: LogSink,
    ):
        self.config = config
        self.program = program
        self.horizon_us = horizon_us
        # a stable sort: the events of one instant keep their trace order
        if horizon_us is not None:
            trace = [event for event in trace if event.t_us < horizon_us]
        self.trace = sorted(trace, key=operator.attrgetter("t_us"))

        self.bus = MessageBus()
        self.queue = sched.ReadyQueue()
        # the sink takes the entries in batches; the engine keeps none it has handed on
        self._batch, self._block = sink.batch, sink.block
        self._pending: list[tuple[LogSite, tuple]] = []  # the entries logged since the last batch
        self._seqs = itertools.count()
        self.clock_us = 0
        self.halted = False
        self.running: sched.QueueEntry | None = None
        self._done_us: int | float = _IDLE  # when `running` completes
        self.values: dict[str, float] = {}  # condition signal -> last processed value
        self.gate_prev: dict[str, float] = {}  # sensor -> last forwarded value

        # (t_us, tie, item) of each WAIT-deferred command
        self._heap: list[tuple[int, int, tuple]] = []
        self._ties = itertools.count()
        self._window_us = config.scheduler.window_us
        self._cost_us = config.scheduler.default_task_cost_us  # every task's run time
        self._next_window = self._window_us
        # the log sites, keyed on what they fix: a task id, a sensor, a
        # processing topic, a rule branch or a (loser, winner) pair of them,
        # a behavior's plan
        self._started = _Cache(lambda task: _TASK_START.site(task=task))
        self._finished = _Cache(lambda task: _TASK_FINISH.site(task=task))
        self._arrived = _Cache(lambda sensor: _SENSOR_EVENT.site(sensor=sensor))
        # a sensor's topic is named after it
        self._forwarded = _Cache(lambda sensor: _SENSOR_MESSAGE.site(topic=sensor, sensor=sensor))
        self._processed = _Cache(lambda topic: _PROCESSED_MESSAGE.site(topic=topic))
        self._fired = _Cache(lambda branch: _FIRED.site(**dict(zip(_FIRED, branch.values))))
        self._suppressed = _Cache(_suppressed_site)
        self._plans = _Cache(functools.partial(_plan_items, program.plans))
        try:
            self._wire()
        except BaseException:
            self.bus.close()  # its handlers point back at the engine, as after `run`
            raise

    # -- setup ------------------------------------------------------------

    def _wire(self) -> None:
        """One walk per pipeline stage (sensors, plugins, definitions,
        actuators) creates that stage's topics, subscriptions and tasks, so
        `tasks` holds them in dispatch-category order, which is the order
        windows log their priority updates in.  Each site that queues work
        keeps its tasks: the run looks up no task by id."""
        config, program, bus = self.config, self.program, self.bus
        # each processing topic's bound signals, and its rules: each rule
        # compiled once, under every distinct topic its signals read
        signals_by_topic: dict[str, list[str]] = {}
        for signal, name in program.signal_topics.items():
            signals_by_topic.setdefault(name, []).append(signal)
        rules_by_topic: dict[str, list[tuple]] = {}
        for index, rule in enumerate(program.program.rules):
            compiled = _compile_rule(index, rule, program.priorities)
            for name in dict.fromkeys(program.signal_topics[s] for s in compiled[1]):
                rules_by_topic.setdefault(name, []).append(compiled)

        self.tasks: dict[str, sched.TaskDescriptor] = {}
        # sensor -> its topic, input task, safety checks (in config order) and gate delta
        self._sensors: dict[str, tuple[Topic, sched.TaskDescriptor, list[SafetyCheckSpec], float]] = {}
        for sensor in config.sensors:
            task = self._add_task(sched.TaskCategory.SENSOR_INPUT, sensor.name)
            self._sensors[sensor.name] = (bus.create_topic(sensor.name, Layer.SENSOR), task, [], sensor.delta)
        for check in config.safety_checks:
            self._sensors[check.sensor][2].append(check)

        for stage in processing_stages(config):
            topic = bus.create_topic(stage.output, Layer.PROCESSING)
            step = PLUGIN_REGISTRY[stage.plugin](stage.params_dict())
            rules = rules_by_topic.get(stage.output, [])
            targets = frozenset(branch.values[0] for *_, branches in rules for branch in branches)
            task = self._add_task(sched.TaskCategory.ALGORITHMIC, stage.name, targets)
            topic_signals = signals_by_topic.get(stage.output, [])
            bus.subscribe(topic, Layer.BEHAVIOR, functools.partial(self._on_processed, topic_signals, _Route(rules)))
            handler = functools.partial(self._on_reading, task, stage.plugin, step, topic)
            for sensor_name in stage.inputs:  # a sensor topic's subscribers keep the stage order
                sensor_topic, sensor_task, *_ = self._sensors[sensor_name]
                sensor_task.behaviors |= targets
                bus.subscribe(sensor_topic, Layer.PROCESSING, handler)

        self.counts: dict[str, int] = {}  # behavior -> its triggers this window
        self._behavior_tasks: dict[str, sched.TaskDescriptor] = {}
        controlled: dict[str, set[str]] = {}  # actuator -> the behaviors commanding it
        for name, plan in program.plans.items():
            self._behavior_tasks[name] = self._add_task(sched.TaskCategory.BEHAVIORAL, name, {name})
            for _offset_us, command in plan:
                controlled.setdefault(command["actuator"], set()).add(name)

        self._commands: dict[str, Topic] = {}  # actuator -> its command topic
        for actuator in config.actuators:
            topic = self._commands[actuator.name] = bus.create_topic(command_topic(actuator.name), Layer.BEHAVIOR)
            task = self._add_task(sched.TaskCategory.CONTROL, actuator.name, controlled.get(actuator.name, ()))
            bus.subscribe(topic, Layer.CONTROL, functools.partial(self._on_command, task))

        # safety checks run inline on arrival; the sensors they watch are pinned
        behaviors = {task_id: task.behaviors for task_id, task in self.tasks.items()}
        pinned = {task.id for _topic, task, checks, _delta in self._sensors.values() if checks}
        base = sched.assign_base_priorities(program.priorities, behaviors, pinned)
        for task_id, task in self.tasks.items():
            task.base_priority = task.current_priority = base[task_id]

        # each window's `priority_update`s, as a block: an idle task's item is rendered here, once
        updated = _Cache(lambda key: _PRIORITY_UPDATE.site(task=key[0], behavior=key[1]))

        def item(values: tuple) -> tuple[tuple, bytes]:
            task, old, new, f_max, behavior, delta = values
            return values, updated[task, behavior].tail(old, new, f_max, delta)

        self._idle = sched.IdleUpdates(self.tasks, config.scheduler, item)

    def _add_task(self, category: sched.TaskCategory, name: str, behaviors: Iterable[str] = ()) -> sched.TaskDescriptor:
        """A new task `<category label>.<name>` at the end of `tasks`; `_wire`
        sets its base priority once every task exists."""
        task_id = f"{category.label}.{name}"
        task = self.tasks[task_id] = sched.TaskDescriptor(task_id, category, frozenset(behaviors), 0.0, 0.0)
        return task

    def _on_reading(
        self, task: sched.TaskDescriptor, plugin: str, step: Step, output: Topic, seq: int, reading: Reading
    ) -> None:
        """A sensor topic's processing-layer handler: `_wire` binds in one stage's task, plugin and output."""
        self.queue.push(task, self.clock_us, (plugin, step, output, reading, seq))

    def _on_command(self, task: sched.TaskDescriptor, seq: int, item: tuple) -> None:
        """A command topic's control-layer handler: `_wire` binds in its actuator's control task."""
        self.queue.push(task, self.clock_us, item)

    # -- logging ----------------------------------------------------------

    def _log(self, site: LogSite, *args: object) -> None:
        # the clock only moves forward, so entries come in t_us order
        self._pending.append((site, (next(self._seqs), self.clock_us) + args))

    def _flush(self) -> None:
        """Hand the entries logged since the last batch to the sink, if any.
        The list is swapped out first, so a sink that fails is not handed it
        again."""
        batch = self._pending
        if batch:
            self._pending = []
            self._batch(batch)

    def _log_block(self, row: LogRow, items: Sequence[tuple[tuple, bytes]]) -> None:
        """Log one entry of `row` per `(values, tail)` item, all now, in one
        call of the sink's `block`, after the entries logged before it."""
        self._flush()
        first_seq = next(self._seqs)
        self._seqs = itertools.count(first_seq + len(items))
        self._block(row, first_seq, self.clock_us, items)

    def _publish(self, site: LogSite, topic: Topic, payload: object, *args: object) -> None:
        """Log the topic's `message` entry from its site, then publish: the
        entry precedes anything the synchronous fan-out logs."""
        bus = self.bus
        self._pending.append((site, (next(self._seqs), self.clock_us, bus.next_seq) + args))
        bus.publish(topic, payload)

    # -- main loop --------------------------------------------------------

    def run(self) -> Mapping[str, tuple[Layer, tuple[Layer, ...]]]:
        """Log the whole run to the sink; returns the bus table.  The sorted
        trace is read in place beside the running task's completion and the
        heap of deferred commands.  At one instant, window boundaries come
        first, then the completion, deferred commands and the trace, so a
        reading never races the task it spawns.  The loop completes the
        running task itself: it logs the task's `task_finish` and calls its
        category's `_FINISH`.  After each event, if no task runs and the
        queue holds one, it dispatches the task `sched.select_next` pops.  A
        halt ends the loop.  The entries logged one at a time wait in
        `_pending` until the sink takes them (`_flush`): after an event that
        leaves BATCH_ENTRIES of them, before a block, and when the run ends
        or fails."""
        trace, heap, queue, finish = self.trace, self._heap, self.queue, self._FINISH
        started, finished, cost_us = self._started, self._finished, self._cost_us
        position = 0  # of the next trace event
        try:
            while not self.halted:
                done_us = self._done_us
                next_us = heap[0][0] if heap and heap[0][0] < done_us else done_us
                if position < len(trace) and trace[position].t_us < next_us:
                    payload = trace[position]
                    position += 1
                    t_us, handle = payload.t_us, self._handle_trace
                elif next_us < done_us:  # a deferred command
                    t_us, _tie, payload = heapq.heappop(heap)
                    handle = self._handle_deferred_enqueue
                elif self.running is not None:  # the running task completes
                    t_us, payload, handle = done_us, self.running, None
                else:
                    break
                if self._next_window <= t_us:
                    self._tick_windows(t_us)
                clock_us = self.clock_us = max(self.clock_us, t_us)
                if handle is None:
                    self.running, self._done_us = None, _IDLE
                    self._pending.append((finished[payload.task.id], (next(self._seqs), clock_us, payload.enqueue_seq)))
                    finish[payload.task.category](self, payload)
                else:
                    handle(payload)
                if self.running is None and not self.halted and queue:
                    entry = sched.select_next(queue)
                    task = entry.task
                    # dispatch dominance: the heap top is the best of what is
                    # still queued, so nothing may outrank the pick
                    runner_up = queue.peek()
                    assert runner_up is None or runner_up.task.current_priority <= task.current_priority
                    self._pending.append(
                        (started[task.id], (next(self._seqs), clock_us, entry.enqueue_seq, entry.enqueue_t_us, task.current_priority))
                    )
                    self.running, self._done_us = entry, clock_us + cost_us
                if len(self._pending) >= BATCH_ENTRIES:
                    self._flush()

            # after a halt nothing runs: each trace event left is logged dropped
            for event in itertools.islice(trace, position, None):
                self.clock_us = max(self.clock_us, event.t_us)
                if isinstance(event, Override):
                    self._log(_TRACE_DROPPED.site(sensor=None, value=None, command=STOP_COMMAND))
                else:
                    self._log(_TRACE_DROPPED.site(sensor=event.sensor, value=event.value, command=None))
                if len(self._pending) >= BATCH_ENTRIES:
                    self._flush()

            if not self.halted and self.horizon_us is not None:
                self._tick_windows(self.horizon_us)
            return self.bus.routes()
        finally:
            # the bus's handlers point back at the engine: once they are detached,
            # nothing keeps a finished or failed engine alive but its callers
            self.bus.close()
            # the last batch, whether the run ended or failed: a failed run's
            # sink still gets every entry logged before the failure
            self._flush()

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
        updates = sched.adapt_priorities(self.tasks, self.counts, self.config.scheduler, self.clock_us, self._idle)
        self.queue.rekey()  # the only place queued tasks change priority
        self._log_block(_PRIORITY_UPDATE, updates)
        self._next_window += self._window_us

    def _handle_trace(self, event: TraceEvent) -> None:
        if isinstance(event, Override):
            self._halt(source="override", command=STOP_COMMAND)
            return
        self._log(self._arrived[event.sensor], event.value)
        topic, task, checks, delta = self._sensors[event.sensor]
        for check in checks:
            if evaluate_safety(event.value, check):
                self._halt(source=check.name, sensor=event.sensor, reading=event.value, threshold=check.threshold)
                return
        self.queue.push(task, self.clock_us, (topic, delta, event))

    def _finish_sensor_input(self, entry: sched.QueueEntry) -> None:
        topic, delta, reading = entry.payload  # type: ignore[misc]
        prev = self.gate_prev.get(reading.sensor)
        if not gate_significant(prev, reading.value, delta):
            return  # null branch: nothing reaches the processing layer
        self.gate_prev[reading.sensor] = reading.value
        self._publish(self._forwarded[reading.sensor], topic, reading, reading.value, reading.t_us)

    def _finish_algorithmic(self, entry: sched.QueueEntry) -> None:
        plugin, step, topic, reading, source_seq = entry.payload  # type: ignore[misc]
        value = run_algorithm(plugin, step, reading)
        if value is None:
            return
        self._publish(self._processed[topic.name], topic, value, value, source_seq)

    def _on_processed(self, signals: list[str], route: _Route, seq: int, value: float) -> None:
        """A processing topic's behavior-layer handler: `_wire` binds in its signals and route."""
        values = self.values
        for signal in signals:
            values[signal] = value
        fired = route.fired(values)
        if not fired:
            return
        winner, *suppressed = fired
        self._log(self._fired[winner], seq)
        behavior = winner.values[0]
        sched.record_trigger(self.counts, behavior)
        self.queue.push(self._behavior_tasks[behavior], self.clock_us, behavior)
        if suppressed:
            seqs, clock_us, sites = self._seqs, self.clock_us, self._suppressed
            self._pending += [(sites[loser, winner], (next(seqs), clock_us)) for loser in suppressed]

    def _finish_behavioral(self, entry: sched.QueueEntry) -> None:
        behavior: str = entry.payload  # type: ignore[assignment]
        for offset_us, item in self._plans[behavior]:
            heapq.heappush(self._heap, (self.clock_us + offset_us, next(self._ties), item))

    def _handle_deferred_enqueue(self, item: tuple) -> None:
        command, sent, _done = item
        self._publish(sent, self._commands[command["actuator"]], item)

    def _finish_control(self, entry: sched.QueueEntry) -> None:
        _command, _sent, done = entry.payload  # type: ignore[misc]
        self._log(done)

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
        aborted, self.running, self._done_us = self.running, None, _IDLE
        purged = [e.task.id for e in self.queue.purge()]
        neutral = {a.name: a.clamp(0.0) for a in self.config.actuators}
        aborted_id = aborted.task.id if aborted else None
        site = _SAFETY_HALT.site(
            source=source, sensor=sensor, reading=reading, threshold=threshold, command=command,
            neutral=neutral, aborted=aborted_id, purged=purged,
        )
        self._log(site)
        if aborted is not None:
            self._log(_TASK_ABORT.site(task=aborted.task.id, enqueue_seq=aborted.enqueue_seq, reason="safety_halt"))
        self.halted = True


def run(
    config: SystemConfig,
    program: BoundProgram,
    trace: Sequence[TraceEvent],
    horizon_us: int | None = None,
    sink: LogSink | None = None,
) -> ExecutionLog:
    """Simulate a trace; `horizon_us` truncates the trace and extends window
    boundary ticks through otherwise idle time (used by --until).  The
    entries go to the sink as the run goes (see `LogSink`): a window's
    priority updates as one block, and every other entry, a firing's
    suppressed ones too, in a batch.  Without a sink, the returned log's
    `entries` holds them all, and with one it is empty.  Raises
    RunLimitError past MAX_WINDOW_ENTRIES priority updates."""
    log = ExecutionLog()
    log.routes = _Engine(config, program, trace, horizon_us, log if sink is None else sink).run()
    return log
