"""The three JSON readers under hostile input, and `robosync stats` (one
streamed pass over the log) against the eager parse-then-aggregate path."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from robosync import engine as eng
from robosync.cli import main
from robosync.config import ConfigError, parse_config
from robosync.sensorproc import Reading, finite_float

from conftest import FIXTURES

GOLDEN_LOG = (FIXTURES / "golden_touch_log.jsonl").read_text(encoding="utf-8")
GOLDEN_STATS = (FIXTURES / "golden_touch_stats.json").read_text(encoding="utf-8")
TOUCH_CONFIG = parse_config((FIXTURES / "touch_config.json").read_text(encoding="utf-8"))


def _stats_cli(path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["stats", str(path)])
    return code, out.getvalue(), err.getvalue()


def _stats_eager(path) -> tuple[int, str, str]:
    """The oracle: parse the whole log, then aggregate the entry list."""
    text = path.read_text(encoding="utf-8")
    try:
        stats = eng.compute_stats(eng.parse_log(text))
    except eng.MalformedLogError as exc:
        return 1, "", f"malformed log: {exc}\n"
    return 0, eng.serialize_stats(stats), ""


# ---------------------------------------------------------------------------
# streamed `robosync stats` == eager oracle on mutated logs

_ORPHAN_FINISH = '{"seq": 900, "t_us": 1, "kind": "task_finish", "detail": {"task": "ghost", "enqueue_seq": 0}}'
_STATS_ERRORS = (
    _ORPHAN_FINISH,
    '{"seq": 901, "t_us": 5, "kind": "task_start", "detail": {"task": "t", "enqueue_seq": 0, "enqueue_t_us": 9}}',
    '{"seq": 902, "t_us": 5, "kind": "message", "detail": {"layer": "nowhere"}}',
    '{"seq": 903, "t_us": 5, "kind": "task_start", "detail": {}}',
)
_JUNK = st.one_of(
    st.sampled_from(["{", "}", "[]", "1 2", "null", '{"seq": 1}', "NaN", "﻿{}", '"kind"', "{}{}"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_PADDING = st.text(" \t\x0c", min_size=1, max_size=3)

_MUTATION = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 200), _JUNK),
    st.tuples(st.just("insert"), st.integers(0, 200), st.sampled_from(_STATS_ERRORS)),
    st.tuples(st.just("truncate"), st.integers(0, 200), st.integers(0, 120)),
    st.tuples(st.just("pad"), st.integers(0, 200), st.tuples(_PADDING, _PADDING)),
    st.tuples(st.just("delete"), st.integers(0, 200), st.none()),
)


def _mutate(lines: list[str], mutations) -> list[str]:
    lines = list(lines)
    for op, at, arg in mutations:
        at %= len(lines) + 1
        if op == "insert":
            lines.insert(at, arg)
        elif lines and at < len(lines):
            if op == "truncate":
                lines[at] = lines[at][:arg]
            elif op == "pad":
                lines[at] = arg[0] + lines[at] + arg[1]
            else:
                del lines[at]
    return lines


@settings(max_examples=150)
@given(mutations=st.lists(_MUTATION, max_size=4), crlf=st.booleans())
@example(mutations=[("insert", 0, _ORPHAN_FINISH), ("insert", 2, "garbage")], crlf=False)
@example(mutations=[("insert", 4, _STATS_ERRORS[1]), ("truncate", 30, 17)], crlf=True)
def test_streamed_stats_match_eager_oracle(tmp_path_factory, mutations, crlf):
    lines = _mutate(GOLDEN_LOG.splitlines(), mutations)
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
    assert _stats_cli(path) == _stats_eager(path)


def _decoded(line: str) -> object:
    """What `json` makes of one log line: the value, or parse_log's reason."""
    try:
        return eng._LOG_DECODER.decode(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except ValueError as exc:
        return f"invalid JSON: {exc}"


# JSON whitespace, whitespace only to str.strip (no-break space), and JSON
# punctuation; no line breaks, so the line stays one line
_EDGE = st.text(" \t\xa0{}[]\",:0123456789aeE.-", max_size=4)


@settings(max_examples=300)
@given(
    line=st.tuples(_EDGE, st.sampled_from(GOLDEN_LOG.splitlines()), st.integers(0, 300), _EDGE).map(
        lambda t: t[0] + t[1][: t[2]] + t[3]
    )
)
@example(line=GOLDEN_LOG.splitlines()[0] + " 1")
@example(line=" " + GOLDEN_LOG.splitlines()[0] + " ")
def test_line_decoding_matches_json_decode(line):
    """The scan fast path decides each line exactly as a full `decode` would."""
    expected = _decoded(line)
    try:
        entries = eng.parse_log(line)
    except eng.MalformedLogError as exc:
        if isinstance(expected, str):
            assert exc.reason == expected
        else:
            assert not exc.reason.startswith("invalid JSON")
    else:
        if not line.strip():
            assert entries == []
        else:
            [entry] = entries
            assert expected == {"seq": entry.seq, "t_us": entry.t_us, "kind": entry.kind, "detail": entry.detail}


def test_first_malformed_line_outranks_an_earlier_stats_error(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(_ORPHAN_FINISH + "\n" + GOLDEN_LOG.splitlines()[0] + "\ngarbage\n")
    code, out, err = _stats_cli(path)
    assert (code, out) == (1, "")
    assert err.startswith("malformed log: line 3: invalid JSON")


def test_stats_error_reported_when_no_line_is_malformed(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(_ORPHAN_FINISH + "\n" + GOLDEN_LOG)
    assert _stats_cli(path) == (1, "", "malformed log: task_finish without matching start at seq 900\n")


def test_padded_lines_and_crlf_endings_still_parse(tmp_path):
    lines = GOLDEN_LOG.splitlines()
    lines[0] = "  \t" + lines[0] + " "
    path = tmp_path / "log.jsonl"
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    assert _stats_cli(path) == (0, GOLDEN_STATS, "")


def test_two_values_on_a_line_are_extra_data():
    with pytest.raises(eng.MalformedLogError, match="invalid JSON: Extra data") as exc:
        eng.parse_log(GOLDEN_LOG.splitlines()[0] + "\n1 2\n")
    assert exc.value.line == 2


def test_parse_log_is_eager():
    with pytest.raises(eng.MalformedLogError):
        eng.parse_log("garbage\n")  # raises at the call, not on iteration
    assert isinstance(eng.parse_log(GOLDEN_LOG), list)


def test_compute_stats_accepts_a_one_shot_iterator():
    expected = eng.serialize_stats(eng.compute_stats(eng.parse_log(GOLDEN_LOG)))
    assert eng.serialize_stats(eng.compute_stats(eng.iter_log(GOLDEN_LOG))) == expected == GOLDEN_STATS


# ---------------------------------------------------------------------------
# the lazy line splitter == str.splitlines

# every character `str.splitlines` breaks at, with `\r\n` as one break
_SPLIT_ALPHABET = "ab \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=500)
@given(text=st.text(_SPLIT_ALPHABET, max_size=40), chunk=st.integers(1, 7))
@example(text="a\r\nb", chunk=2)  # a cut at the chunk size would split the \r\n
@example(text="\r\n\r\n", chunk=1)
@example(text="ab\r\n\x85b\r\nab", chunk=3)
def test_lazy_line_split_matches_splitlines(text, chunk):
    assert list(eng._split_lines(text, chunk)) == text.splitlines()


# ---------------------------------------------------------------------------
# each reader raises only its own domain error

_DEPTHS = st.one_of(st.integers(1, 50), st.sampled_from([900, 1_000, 5_000, 100_000]))


@st.composite
def _nested(draw) -> str:
    depth = draw(_DEPTHS)
    if draw(st.booleans()):
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "0" + "}" * depth


_LONG_INT = st.integers(4_000, 6_000).map(lambda n: "-" * (n % 2) + "9" * n)
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8)
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
).map(json.dumps)
# a fragment spliced into a JSON template: a valid value, something hostile, or any text
_FRAGMENT = st.one_of(
    _JSON_VALUE,
    _nested(),
    _LONG_INT,
    st.sampled_from(["NaN", "-Infinity", "1e999", "1" + "0" * 400, '"\\ud800"', '"²"', '"' + "9" * 5000 + '"', "[1,", "{"]),
    st.text(max_size=10),
)


@st.composite
def _log_text(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sorted(eng.LOG_KINDS) + ["bogus"]))
        detail_keys = draw(st.lists(st.sampled_from(["task", "enqueue_seq", "enqueue_t_us", "layer", "x"]), max_size=4))
        detail = ", ".join(f'"{key}": {draw(_FRAGMENT)}' for key in detail_keys)
        template = draw(
            st.sampled_from(
                [
                    '{{"seq": {f}, "t_us": 1, "kind": "{kind}", "detail": {{{detail}}}}}',
                    '{{"seq": 0, "t_us": {f}, "kind": "{kind}", "detail": {{{detail}}}}}',
                    '{{"seq": 0, "t_us": 1, "kind": {f}, "detail": {{{detail}}}}}',
                    '{{"seq": 0, "t_us": 1, "kind": "{kind}", "detail": {f}}}',
                    "{f}",
                ]
            )
        )
        lines.append(template.format(f=draw(_FRAGMENT), kind=kind, detail=detail))
    return "\n".join(lines)


@st.composite
def _trace_text(draw) -> str:
    templates = [
        '{{"t_us": {f}, "sensor": "touch", "value": 1}}',
        '{{"t_us": 1, "sensor": {f}, "value": 1}}',
        '{{"t_us": 1, "sensor": "touch", "value": {f}}}',
        '{{"t_us": 1, "override": {f}}}',
        "{f}",
    ]
    return "\n".join(
        draw(st.sampled_from(templates)).format(f=draw(_FRAGMENT)) for _ in range(draw(st.integers(0, 4)))
    )


@st.composite
def _config_text(draw) -> str:
    templates = [
        "{f}",
        '{{"sensors": [{{"name": "s", "type": "virtual", "delta": {f}}}]}}',
        '{{"sensors": [{{"name": "s", "type": "gpio", "pin": {f}}}]}}',
        '{{"sensors": [{{"name": "s", "type": "virtual", "period_us": {f}}}]}}',
        '{{"sensors": [{{"name": "s", "type": "i2c", "address": {f}}}]}}',
        '{{"actuators": [{{"name": "a", "type": "pwm", "min_value": {f}, "max_value": 1}}]}}',
        '{{"behaviors": [{{"name": "b", "priority": {f}}}, {{"name": "c"}}]}}',
        '{{"sensors": [{{"name": "s", "type": "virtual"}}], "safety_checks": [{{"name": "k", "sensor": "s", "threshold": {f}}}]}}',
        '{{"sensors": [{{"name": "s", "type": "virtual"}}], "algorithms": [{{"name": "a", "plugin": "moving_average", "params": {{"k": {f}}}}}]}}',
        '{{"sensors": [{{"name": "s", "type": "virtual"}}], "algorithms": [{{"name": "a", "plugin": "threshold_classifier", "params": {{"threshold": {f}}}}}]}}',
        '{{"sensors": [{{"name": "s", "type": "virtual"}}], "algorithms": [{{"name": "a", "plugin": "touch_level", "params": {{"thresholds": {f}}}}}]}}',
        '{{"scheduler": {{"alpha": {f}, "p_max": 1, "window_us": 1000}}}}',
        '{{"scheduler": {{"window_us": {f}}}}}',
    ]
    return draw(st.sampled_from(templates)).format(f=draw(_FRAGMENT))


@settings(max_examples=300)
@given(text=st.one_of(_log_text(), st.text()))
@example(text="[" * 100_000 + "]" * 100_000)
@example(text='{"seq": 0, "t_us": ' + "9" * 5000 + ', "kind": "message", "detail": {}}')
def test_log_readers_raise_only_malformed_log_error(text):
    for read in (lambda: eng.compute_stats(eng.parse_log(text)), lambda: eng.compute_stats(eng.iter_log(text))):
        try:
            read()
        except eng.MalformedLogError:
            pass


@settings(max_examples=300)
@given(text=st.one_of(_trace_text(), st.text()))
@example(text="[" * 100_000 + "]" * 100_000)
@example(text='{"t_us": ' + "9" * 5000 + ', "sensor": "touch", "value": 1}')
@example(text='{"t_us": 1, "sensor": "touch", "value": 1' + "0" * 400 + "}")
def test_load_trace_raises_only_trace_error(text):
    try:
        eng.load_trace(text, TOUCH_CONFIG)
    except eng.TraceError:
        pass


def _load_trace_oracle(text: str, config) -> list:
    """load_trace as it read lines before sharing a loop with iter_log: one
    `json.loads` per line."""
    sensor_names = {s.name for s in config.sensors}
    events = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise eng.TraceError(line_no, f"invalid JSON: {exc.msg}") from None
        except ValueError as exc:
            raise eng.TraceError(line_no, f"invalid JSON: {exc}") from None
        except RecursionError:
            raise eng.TraceError(line_no, "invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict):
            raise eng.TraceError(line_no, "each line must be an object")
        t_us = obj.get("t_us")
        if isinstance(t_us, bool) or not isinstance(t_us, int) or t_us < 0:
            raise eng.TraceError(line_no, "t_us must be a non-negative integer")
        keys = set(obj)
        if keys == {"t_us", "sensor", "value"}:
            sensor, value = obj["sensor"], finite_float(obj["value"])
            if not isinstance(sensor, str):
                raise eng.TraceError(line_no, "sensor must be a string")
            if sensor not in sensor_names:
                raise eng.TraceError(line_no, f"unknown sensor {sensor!r}")
            if value is None:
                raise eng.TraceError(line_no, "value must be a finite number")
            events.append(Reading(sensor, t_us, value))
        elif keys == {"t_us", "override"}:
            command = obj["override"]
            if not isinstance(command, str):
                raise eng.TraceError(line_no, "override must be a string")
            if command != eng.STOP_COMMAND:
                raise eng.TraceError(line_no, f"unsupported override {command!r}")
            events.append(eng.Override(t_us, command))
        else:
            raise eng.TraceError(line_no, "expected keys {t_us, sensor, value} or {t_us, override}")
    events.sort(key=lambda e: e.t_us)
    return events


@settings(max_examples=300)
@given(text=_trace_text())
@example(text='\ufeff{"t_us": 1, "override": "STOP"}')
@example(text=' {"t_us": 2, "sensor": "touch", "value": 1} \n{"t_us": 1, "override": "STOP"} 3')
@example(text='{"t_us": 1, "sensor": "touch", "value": NaN}')
def test_load_trace_matches_json_loads_oracle(text):
    """The shared scan-then-decode loop reads a trace exactly as `json.loads`
    did: the same events, or the same located error."""
    try:
        expected = _load_trace_oracle(text, TOUCH_CONFIG)
    except eng.TraceError as exc:
        with pytest.raises(eng.TraceError) as got:
            eng.load_trace(text, TOUCH_CONFIG)
        assert (got.value.line, got.value.reason) == (exc.line, exc.reason)
    else:
        assert eng.load_trace(text, TOUCH_CONFIG) == expected


@settings(max_examples=300)
@given(text=st.one_of(_config_text(), st.text()))
@example(text='{"sensors": ' + "[" * 100_000 + "]" * 100_000 + "}")
@example(text='{"scheduler": {"window_us": ' + "9" * 5000 + "}}")
@example(text='{"sensors": [{"name": "s", "type": "gpio", "pin": "²"}]}')
def test_parse_config_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# where a config that json cannot take is reported


def test_deep_config_is_located_at_its_deepest_bracket():
    text = '{"sensors":\n  ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ConfigError, match="nested too deeply") as exc:
        parse_config(text)
    assert (exc.value.line, exc.value.column) == (2, 2 + 100_000)


def test_long_config_integer_is_located():
    text = '{"sensors": [{"name": "s", "type": "virtual", "units": "12345", "delta": 1.5e3},\n {"period_us": -' + "9" * 5000 + "}]}"
    with pytest.raises(ConfigError, match="Exceeds the limit") as exc:
        parse_config(text)
    assert (exc.value.line, exc.value.column) == (2, 16)
