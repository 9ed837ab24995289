"""The three JSON readers under hostile input, and `robosync stats` (one
streamed pass over the log) against the eager parse-then-aggregate path."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from robosync import cli, engine as eng
from robosync.cli import main
from robosync.config import MAX_JSON_DEPTH, ConfigError, SensorSpec, SystemConfig, parse_config
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
@given(mutations=st.lists(_MUTATION, max_size=4), crlf=st.booleans(), chunk=st.sampled_from([1, 2, 7, 100, eng.CHUNK_CHARS]))
@example(mutations=[("insert", 0, _ORPHAN_FINISH), ("insert", 2, "garbage")], crlf=False, chunk=eng.CHUNK_CHARS)
@example(mutations=[("insert", 4, _STATS_ERRORS[1]), ("truncate", 30, 17)], crlf=True, chunk=7)
def test_streamed_stats_match_eager_oracle(tmp_path_factory, mutations, crlf, chunk):
    lines = _mutate(GOLDEN_LOG.splitlines(), mutations)
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("utf-8"))
    with mock.patch.object(eng, "CHUNK_CHARS", chunk):  # `stats` reads the file this many characters at a time
        assert _stats_cli(path) == _stats_eager(path)


# ---------------------------------------------------------------------------
# `robosync stats` reads its file in chunks and keeps every diagnostic of a
# whole read: the chunks here are much smaller than the log


@pytest.mark.parametrize("chunk", [1, 2, 3, 50, 98, 99, 100])
def test_stats_reads_line_breaks_split_across_chunks(tmp_path, monkeypatch, chunk):
    # the first line is 98 characters long; every third line ends in a lone \r
    lines = GOLDEN_LOG.splitlines()
    assert len(lines[0]) == 98
    text = "".join(line + ("\r\n", "\r", "\n")[i % 3] for i, line in enumerate(lines))
    path = tmp_path / "log.jsonl"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(eng, "CHUNK_CHARS", chunk)
    assert _stats_cli(path) == (0, GOLDEN_STATS, "")
    # every line is canonical once read, and the fast path reads each one whole
    stats = eng.StatsAccumulator()
    stats.read(cli._read_chunks(str(path)))
    assert stats.counts[eng._OTHER] == 0


@pytest.mark.parametrize("malformed", [None, 2], ids=["clean", "malformed_line_before"])
def test_stats_names_the_line_of_a_bad_byte_past_the_first_chunk(tmp_path, monkeypatch, malformed):
    # a malformed line in an earlier chunk does not hide the bad byte: a file
    # that is not UTF-8 is refused as such, as when it was read whole
    lines = GOLDEN_LOG.encode("utf-8").splitlines()
    lines[29] = lines[29][:30] + b"\xe9" + lines[29][30:]
    if malformed is not None:
        lines[malformed - 1] = b"garbage"
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"\r\n".join(lines))
    monkeypatch.setattr(eng, "CHUNK_CHARS", 100)
    assert _stats_cli(path) == (1, "", f"error: {path}: line 30: invalid UTF-8 byte 0xe9\n")


def test_stats_names_the_line_of_a_bad_byte_read_from_a_pipe(tmp_path, monkeypatch):
    # a file is read again to number a bad byte's line; a pipe cannot be, so
    # its lines are counted as it is read
    lines = GOLDEN_LOG.encode("utf-8").splitlines()
    lines[29] = lines[29][:30] + b"\xe9" + lines[29][30:]
    path = tmp_path / "log.jsonl"

    def feed() -> None:
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fifo:
            fifo.write(b"\r\n".join(lines))

    os.mkfifo(path)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    monkeypatch.setattr(eng, "CHUNK_CHARS", 100)
    assert _stats_cli(path) == (1, "", f"error: {path}: line 30: invalid UTF-8 byte 0xe9\n")
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_stats_malformed_line_in_a_later_chunk_outranks_a_stats_error(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text(_ORPHAN_FINISH + "\n" + GOLDEN_LOG + "garbage\n")
    monkeypatch.setattr(eng, "CHUNK_CHARS", 100)
    line = len(GOLDEN_LOG.splitlines()) + 2
    assert _stats_cli(path) == (1, "", f"malformed log: line {line}: invalid JSON: Expecting value\n")


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
    assert eng.serialize_stats(eng.compute_stats(iter(eng.parse_log(GOLDEN_LOG)))) == expected == GOLDEN_STATS


# ---------------------------------------------------------------------------
# the canonical fast path == the slow path through the JSON decoder


def _fast(line: str):
    """How the fast path reads one line: `(row, seq, t_us, values)`, or None
    when it leaves the line to the slow path."""
    match = eng._CANONICAL.match(line + "\n")
    row = eng._ROWS[match.lastindex]
    return None if row is None else (row, int(match[1]), int(match[2]), row.read(match))


def _slow(line: str):
    """How the slow path reads one line: `(row, seq, t_us, values)`, or the
    reason it refuses the line."""
    try:
        [entry] = eng._decoded(line)
    except eng.MalformedLogError as exc:
        return exc.reason
    return entry


# values of each declared type: mostly ones the canonical form holds as its
# value's own text (printable ASCII but `"` and `\`, integers of up to 18
# digits, finite floats), and now and then one it cannot
_PRINTABLE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
_AWKWARD_TEXT = st.text(st.sampled_from('"\\ a\x00\x1f\x7f\x85\u2028é😀\ud800'), max_size=4)
_TEXT = _PRINTABLE | _AWKWARD_TEXT
_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e300, 5e-324, 1e-7, 0.5, float("inf"), float("nan")])
_INT = st.integers(-(10**18), 10**18) | st.sampled_from([10**17, 10**18 - 1, 10**18, -(10**18), 10**19, -(10**4000)])
_VALUES = {
    int: _INT,
    float: _FLOAT,
    str: _TEXT,
    str | None: st.none() | _TEXT,
    float | None: st.none() | _FLOAT,
    list: st.lists(_TEXT, max_size=3),
    dict: st.dictionaries(_TEXT, _FLOAT | _TEXT | _INT | st.booleans() | st.none(), max_size=3),
}
_CANONICAL_TEXT = re.compile(r'[ !#-\[\]-~]*')


def _has_canonical_text(value) -> bool:
    """Whether the writer writes `value` as the fast path reads it back."""
    if isinstance(value, str):
        return _CANONICAL_TEXT.fullmatch(value) is not None
    if isinstance(value, float):
        return value == value and abs(value) != float("inf")
    if isinstance(value, int):
        return abs(value) < 10**18
    if isinstance(value, list):
        return all(map(_has_canonical_text, value))
    if isinstance(value, dict):
        return all(map(_has_canonical_text, [*value, *value.values()]))
    return True


def _escaped(text: str) -> str:
    r"""`text` as a JSON string that writes every character as `\uXXXX`."""
    return '"' + "".join(f"\\u{ord(c):04x}" if ord(c) < 0x10000 else json.dumps(c)[1:-1] for c in text) + '"'


def _written(value, space, escape: bool) -> str:
    r"""`value` as JSON, with `space()` drawing the whitespace around each
    separator and strings written whole as `\uXXXX` escapes with `escape`."""
    if isinstance(value, str):
        return _escaped(value) if escape else json.dumps(value)
    if isinstance(value, list):
        return "[" + f"{space()},{space()}".join(_written(v, space, escape) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{_written(k, space, escape)}{space()}:{space()}{_written(v, space, escape)}" for k, v in value.items())
        return "{" + space() + f"{space()},{space()}".join(items) + space() + "}"
    return json.dumps(value)


@pytest.mark.parametrize("shape", list(eng.LOG_FIELDS), ids=[f"{kind}.{layer}" if layer else kind for kind, layer in eng.LOG_FIELDS])
@settings(max_examples=100)
@given(data=st.data())
def test_fast_path_reads_a_line_as_the_slow_path_does(shape, data):
    # a line of drawn values of the row's declared types, written three ways:
    # through a fully fixed site, with drawn whitespace and key order, and with
    # every string as `\uXXXX` escapes (and the site's line with one
    # character put in); where the fast path reads a line, it reads the slow
    # path's row and values, and a line the slow path refuses it leaves to it
    row = eng.LOG_FIELDS[shape]
    seq, t_us = data.draw(_INT), data.draw(_INT)
    values = tuple(shape[1] if name == "layer" else data.draw(_VALUES[declared]) for name, declared in zip(row, row.types))
    detail = dict(zip(row, values))
    emitted = (row.site(**detail).line % (seq, t_us)).decode("ascii").removesuffix("\n")
    outer = {"seq": seq, "t_us": t_us, "kind": row.kind, "detail": detail}
    if data.draw(st.booleans()):
        outer = dict(data.draw(st.permutations(list(outer.items()))))
    if data.draw(st.booleans()):
        outer["detail"] = dict(data.draw(st.permutations(list(detail.items()))))
    spaces = st.sampled_from(["", " ", "  ", "\t", " \t"])
    spaced = _written(outer, lambda: data.draw(spaces), escape=False)
    escaped = _written({"seq": seq, "t_us": t_us, "kind": row.kind, "detail": detail}, lambda: " ", escape=True)
    # and the site's line with one character put in where a value starts
    # or ends, such as a leading zero, in each such place
    places = [m.start() for m in re.finditer(r"(?<=: )|(?<=\[)|(?=[,}\]])", emitted)]
    perturbed = [emitted[:at] + char + emitted[at:] for at in places for char in '0-.e "\\']
    for line in (emitted, spaced, escaped, *perturbed):
        fast, slow = _fast(line), _slow(line)
        if fast is not None:
            assert fast[0] is slow[0] and fast[1:] == slow[1:], line
            assert [type(v) for v in fast[3]] == [type(v) for v in slow[3]], line
    # the site's line of values the canonical form holds is the fast path's
    if all(map(_has_canonical_text, (seq, t_us, *values))):
        assert _fast(emitted) is not None, emitted
    assert _fast(escaped) is None  # every string, the keys too, is escaped


@pytest.mark.parametrize("number", ["nan", "NaN", "inf", "-Infinity", "1e5", "01", "-0", "1.0", "1.0000000", "1" * 19])
def test_fast_path_reads_a_number_in_a_command_only_as_written(number):
    # a command's numbers are the renderer's: `%d` or `%.6f`; the rest, JSON
    # or not, are the slow path's
    line = (
        '{"seq": 0, "t_us": 0, "kind": "message", "detail": {"topic": "m_cmd", "layer": "behavior", "bus_seq": 0, '
        f'"command": {{"action": "set", "value": {number}}}, "behavior": "b"}}}}'
    )
    fast, slow = _fast(line), _slow(line)
    assert fast is None or (fast[0] is slow[0] and fast[1:] == slow[1:])
    assert (fast is None) == (number != "-0")  # 19 digits are one more than an int takes


def test_a_canonical_line_after_other_text_on_its_line_is_not_read():
    # a canonical line that starts mid-line is that line's text, not an entry
    first, second = GOLDEN_LOG.splitlines()[:2]
    for line in ("[" + first + "]", "x" + first, " [" + first):
        with pytest.raises(eng.MalformedLogError) as exc:
            eng.parse_log(second + "\n" + line + "\n")
        assert exc.value.line == 2
        assert exc.value.reason == _slow(line), line


@pytest.mark.parametrize("break_char", ["\x85", "\u2028", "\x0b", "\r"], ids=["nel", "line_separator", "vt", "cr"])
def test_a_line_break_inside_a_line_numbers_lines_as_splitlines_does(tmp_path, break_char):
    # two canonical lines joined by a break only `str.splitlines` breaks at are
    # two lines, so the malformed line after them is the fourth
    first, second, third = GOLDEN_LOG.splitlines()[:3]
    text = first + "\n" + second + break_char + third + "\ngarbage\n"
    assert len(text.splitlines()) == 4
    with pytest.raises(eng.MalformedLogError) as exc:
        eng.parse_log(text)
    assert exc.value.line == 4
    path = tmp_path / "log.jsonl"
    path.write_bytes(text.encode("utf-8"))
    if break_char != "\r":  # a file's lone \r reads as \n
        assert _stats_cli(path) == (1, "", "malformed log: line 4: invalid JSON: Expecting value\n")
    # and a string that holds the break splits its line in two
    broken = first.replace('"touch"', f'"to{break_char}uch"', 1)
    with pytest.raises(eng.MalformedLogError) as exc:
        eng.parse_log(second + "\n" + broken + "\n")
    assert exc.value.line == 2 and exc.value.reason.startswith("invalid JSON: Unterminated string")


@pytest.mark.parametrize(
    "malformed, reason",
    [
        ('{"seq": 5, "t_us": 0, "kind": "sensor_event", "detail": {"bogus": 1}}', "sensor_event with off-schema detail fields ['bogus'] at seq 5"),
        ('{"seq": 5, "t_us": 0, "kind": "task_finish", "detail": {"task": "t", "enqueue_seq": 1.5}}', "task_finish at seq 5: enqueue_seq must be an integer"),
    ],
    ids=["off_schema", "wrong_type"],
)
def test_a_malformed_line_after_a_stats_error_outranks_it(tmp_path, malformed, reason):
    # the orphan finish is canonical, so the fast path meets the stats error;
    # the rest of the log is still read, and its first malformed line wins
    path = tmp_path / "log.jsonl"
    path.write_text(_ORPHAN_FINISH + "\n" + GOLDEN_LOG + malformed + "\n" + "garbage\n")
    line = len(GOLDEN_LOG.splitlines()) + 2
    assert _stats_cli(path) == (1, "", f"malformed log: line {line}: {reason}\n")
    assert _stats_cli(path) == _stats_eager(path)


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
    pieces = text.splitlines(keepends=True)
    for read in (lambda: eng.compute_stats(eng.parse_log(text)), lambda: eng.compute_stats(eng.parse_log(pieces))):
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


class _Repeated(Exception):
    pass


def _refuse_repeats(pairs: list) -> dict:
    keys = [key for key, _value in pairs]
    repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
    if repeated:
        raise _Repeated(f"repeated key {repeated[0]!r}")
    return dict(pairs)


def _depth(text: str) -> int:
    """How deep the brackets of JSON text nest outside its strings (an
    unterminated one runs to the end), read a character at a time."""
    depth = deepest = 0
    in_string = escaped = False
    for char in text:
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
        elif char == '"':
            in_string = True
        elif char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif char in "]}":
            depth -= 1
    return deepest


def _load_trace_oracle(text: str, config) -> list:
    """load_trace as it read lines before sharing a loop with the log reader: one
    `json.loads` per line, with a pairs hook that refuses a repeated key, after
    refusing a line nested deeper than MAX_JSON_DEPTH."""
    sensor_names = {s.name for s in config.sensors}
    events = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if _depth(line) > MAX_JSON_DEPTH:
            raise eng.TraceError(line_no, "invalid JSON: nested too deeply")
        try:
            obj = json.loads(line, object_pairs_hook=_refuse_repeats)
        except json.JSONDecodeError as exc:
            raise eng.TraceError(line_no, f"invalid JSON: {exc.msg}") from None
        except _Repeated as exc:
            raise eng.TraceError(line_no, str(exc)) from None
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
            events.append(eng.Override(t_us))
        else:
            raise eng.TraceError(line_no, "expected keys {t_us, sensor, value} or {t_us, override}")
    events.sort(key=lambda e: e.t_us)
    return events


@settings(max_examples=300)
@given(text=_trace_text())
@example(text='\ufeff{"t_us": 1, "override": "STOP"}')
@example(text=' {"t_us": 2, "sensor": "touch", "value": 1} \n{"t_us": 1, "override": "STOP"} 3')
@example(text='{"t_us": 1, "sensor": "touch", "value": NaN}')
@example(text='{"t_us": 1, "sensor": "touch", "value": 1,"t_us":2}')
@example(text='{"t_us": 1, "sensor": "touch", "value": {"a": 1, "a": 2}, "t_us": 2}')
@example(text='[{"t_us": 1, "t_us": 2}]')
@example(text='{"t_us": 1, "t_us": 2, "sensor": "touch", "value": 1}\n{"t_us": 3, "sensor": "ghost", "value": 1}')
@example(text='[["t_us", 1], ["sensor", "touch"], ["value", 1]]')
@example(text='{"value": 1.5, "sensor": "touch", "t_us": 3}\n{"override": "STOP", "t_us": 2}')
@example(text='{"t_us": 1, "sensor": "touch", "value": 7}')
@example(text='{"t_us": 1, "sensor": "touch", "value": 1e400}')
@example(text='{"t_us": 1, "sensor": "touch", "value": 1' + "0" * 399 + "}")
@example(text='{"t_us": 1, "sensor": "touch", "value": {"a": 1, "b": [2]}}')
@example(text='{"t_us": 1, "t_us": 2, "sensor": "touch", "value": [{"b": 1, "b": 2}]}')
def test_load_trace_matches_json_loads_oracle(text):
    """The shared scan-then-decode loop reads a trace exactly as `json.loads`
    did, but for a repeated key, which it refuses as a pairs hook on every
    line would: the same events, of the same types, or the same located
    error."""
    try:
        expected = _load_trace_oracle(text, TOUCH_CONFIG)
    except eng.TraceError as exc:
        with pytest.raises(eng.TraceError) as got:
            eng.load_trace(text, TOUCH_CONFIG)
        assert (got.value.line, got.value.reason) == (exc.line, exc.reason)
    else:
        events = eng.load_trace(text, TOUCH_CONFIG)
        assert events == expected
        assert [repr(event) for event in events] == [repr(event) for event in expected]


# ---------------------------------------------------------------------------
# a key named twice in one object: the trace and log readers refuse it at its line

_TRACE_PAIRS = ([("t_us", 1000), ("sensor", "touch"), ("value", 2)], [("t_us", 7), ("override", "STOP")])
_SPACE = st.sampled_from(["", " ", "  ", "\t"])


@settings(max_examples=200)
@given(data=st.data())
def test_a_repeated_trace_key_is_refused_at_its_line(data):
    # a valid line with one of its keys written again, at a drawn position,
    # with a drawn value and spacing, and each key perhaps written with
    # `\u` escapes (so `"t\u005fus"` is `t_us`): refused at its line, among
    # good lines, while the line without the repeat loads as it did
    pairs = data.draw(st.sampled_from(_TRACE_PAIRS))
    key = data.draw(st.sampled_from([name for name, _value in pairs]))
    at = data.draw(st.integers(0, len(pairs)))
    escapes = set(data.draw(st.lists(st.integers(0, len(pairs)))))
    before, after = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    items = [(name, json.dumps(value)) for name, value in pairs]
    items.insert(at, (key, data.draw(_JSON_VALUE)))

    def space() -> str:
        return data.draw(_SPACE)

    written = [
        f"{_escaped(name) if i in escapes else json.dumps(name)}{space()}:{space()}{text}" for i, (name, text) in enumerate(items)
    ]

    def line(written: list[str]) -> str:
        return space() + "{" + space() + f"{space()},{space()}".join(written) + space() + "}" + space()

    good = '{"t_us": 1, "sensor": "touch", "value": 1}\n'
    repeated = good * before + line(written) + "\n" + good * after
    with pytest.raises(eng.TraceError) as refused:
        eng.load_trace(repeated, TOUCH_CONFIG)
    assert (refused.value.line, refused.value.reason) == (before + 1, f"repeated key {key!r}")
    once = good * before + line(written[:at] + written[at + 1 :]) + "\n" + good * after
    assert eng.load_trace(once, TOUCH_CONFIG) == _load_trace_oracle(once, TOUCH_CONFIG)


def test_a_colon_in_a_string_is_no_repeated_key():
    config = SystemConfig(sensors=(SensorSpec("a:b", "virtual"),))
    text = '{"t_us": 2, "sensor": "a:b", "value": 1}\n{"t_us": 1, "override": "STOP"}\n'
    assert eng.load_trace(text, config) == [eng.Override(1), Reading("a:b", 2, 1.0)]


def _json_with(value, path: list | None, key: str, text: str, at: int, separators: tuple[str, str]) -> str:
    """`value` as JSON with these separators, and one more item `key: text`
    at position `at` of the object at `path` (its keys from the top); None
    is no path."""
    if not isinstance(value, dict):
        return json.dumps(value, separators=separators)
    comma, colon = separators
    items = [
        f"{json.dumps(k)}{colon}{_json_with(v, path[1:] if path and path[0] == k else None, key, text, at, separators)}"
        for k, v in value.items()
    ]
    if path == []:
        items.insert(at, f"{json.dumps(key)}{colon}{text}")
    return "{" + comma.join(items) + "}"


_LOGS = [GOLDEN_LOG] + [(FIXTURES / "scenarios" / name / "log.jsonl").read_text(encoding="utf-8") for name in ("halt_windows", "escaped_text")]
# a line's objects: the entry, its detail and the objects in that
_OBJECT_PATHS = [[], ["detail"], ["detail", "command"], ["detail", "neutral"]]


def _at(entry: dict, path: list) -> dict | None:
    """The non-empty object at `path` in an entry, else None."""
    for key in path:
        entry = entry.get(key) if isinstance(entry, dict) else None
    return entry if isinstance(entry, dict) and entry else None


@settings(max_examples=200)
@given(data=st.data(), chunk=st.sampled_from([1, 3, 64, eng.CHUNK_CHARS]))
def test_a_repeated_log_key_is_refused_alike_by_parse_log_and_stats(data, chunk):
    # a log line rewritten off the canonical form, with one key of one of
    # its objects (the entry, its detail or an object in that) written again
    # at a drawn position with a drawn value: `parse_log` and the stats pass
    # refuse it at its line, whatever the chunks the text comes in
    path = data.draw(st.sampled_from(_OBJECT_PATHS))
    logs = [log.splitlines(keepends=True) for log in _LOGS]
    lines = data.draw(st.sampled_from([lines for lines in logs if any(_at(json.loads(line), path) for line in lines)]))
    candidates = [i for i, line in enumerate(lines) if _at(json.loads(line), path)]
    index = data.draw(st.sampled_from(candidates))
    entry = json.loads(lines[index])
    key = data.draw(st.sampled_from(sorted(_at(entry, path))))
    at = data.draw(st.integers(0, len(_at(entry, path))))
    separators = data.draw(st.sampled_from([(",", ":"), (", ", ":"), (",", ": "), (" ,", " : ")]))
    lines[index] = _json_with(entry, path, key, data.draw(_JSON_VALUE), at, separators) + "\n"
    text = "".join(lines)
    pieces = [text[start : start + chunk] for start in range(0, len(text), chunk)]
    expected = (index + 1, f"repeated key {key!r}")
    with pytest.raises(eng.MalformedLogError) as parsed:
        eng.parse_log(pieces)
    with pytest.raises(eng.MalformedLogError) as counted:
        eng.StatsAccumulator().read(iter(pieces))
    assert (parsed.value.line, parsed.value.reason) == (counted.value.line, counted.value.reason) == expected


# canonical scalar texts, as the log writer renders a command's or neutral's values
_CANONICAL_SCALAR = st.one_of(
    st.integers(-(10**17), 10**17),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'), max_size=6),
    st.booleans(),
    st.none(),
).map(eng.render)


@settings(max_examples=200)
@given(data=st.data(), chunk=st.sampled_from([1, 3, 64, eng.CHUNK_CHARS]), orphan=st.booleans())
def test_a_repeated_key_in_a_canonical_object_is_refused_as_off_it(data, chunk, orphan):
    # a canonical line whose command or neutral object names one of its keys
    # again, written as the log writer writes it, so the line stays
    # canonical: `parse_log` and the stats pass refuse it at its line, as the
    # slow path refuses it, even after a stats error (a finish with no start)
    logs = [log.splitlines(keepends=True) for log in _LOGS]
    objects = {row.group: row.group - len(row) + row.types.index(dict) for row in eng.LOG_FIELDS.values() if dict in row.types}

    def object_group(line: str) -> int | None:
        match = eng._CANONICAL.match(line)
        at = objects.get(match.lastindex)
        return at if at is not None and match[at] != "{}" else None

    lines = data.draw(st.sampled_from([lines for lines in logs if any(map(object_group, lines))]))
    index = data.draw(st.sampled_from([i for i, line in enumerate(lines) if object_group(line)]))
    line = lines[index]
    match = eng._CANONICAL.match(line)
    start, end = match.span(object_group(line))
    obj = json.loads(line[start:end])
    items = [f"{json.dumps(k)}: {eng.render(v)}" for k, v in obj.items()]
    assert "{" + ", ".join(items) + "}" == line[start:end]
    key = data.draw(st.sampled_from(sorted(obj)))
    items.insert(data.draw(st.integers(0, len(items))), f"{json.dumps(key)}: {data.draw(_CANONICAL_SCALAR)}")
    lines[index] = line[:start] + "{" + ", ".join(items) + "}" + line[end:]
    assert eng._CANONICAL.match(lines[index]).lastindex == match.lastindex  # still canonical
    assert _slow(lines[index].removesuffix("\n")) == f"repeated key {key!r}"
    text = (_ORPHAN_FINISH + "\n" if orphan else "") + "".join(lines)
    pieces = [text[start : start + chunk] for start in range(0, len(text), chunk)]
    expected = (index + 1 + orphan, f"repeated key {key!r}")
    with pytest.raises(eng.MalformedLogError) as parsed:
        eng.parse_log(pieces)
    with pytest.raises(eng.MalformedLogError) as counted:
        eng.StatsAccumulator().read(iter(pieces))
    assert (parsed.value.line, parsed.value.reason) == (counted.value.line, counted.value.reason) == expected


def test_the_stats_pass_keeps_at_most_max_read_objects_texts(tmp_path, monkeypatch):
    # a log of twice as many distinct command objects as the pass keeps the
    # texts of, read in small chunks: its stats are the eager path's, the
    # pass holds MAX_READ_OBJECTS texts, and a repeated key in an object past
    # them is still refused at its line
    line = (
        '{"seq": %d, "t_us": 0, "kind": "message", "detail": {"topic": "arm_cmd", "layer": "behavior", '
        '"bus_seq": 0, "command": {"action": "move", "value": %d.000000}, "behavior": "b"}}\n'
    )
    n = 2 * eng.MAX_READ_OBJECTS
    text = "".join(line % (i, i) for i in range(n))
    path = tmp_path / "log.jsonl"
    path.write_text(text)
    monkeypatch.setattr(eng, "CHUNK_CHARS", 1000)
    stats = eng.StatsAccumulator()
    stats.read(cli._read_chunks(str(path)))
    assert stats.result() == eng.compute_stats(eng.parse_log(text))
    assert stats.result()["messages_per_layer"]["behavior"] == n
    assert (len(stats.read_objects), stats.counts[eng._OTHER]) == (eng.MAX_READ_OBJECTS, 0)
    path.write_text(text + line.replace('"move"', '"move", "action": "set"') % (n, n))
    assert _stats_cli(path) == (1, "", f"malformed log: line {n + 1}: repeated key 'action'\n")


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


# ---------------------------------------------------------------------------
# nesting past MAX_JSON_DEPTH: the input's own verdict, whatever the caller's stack


def _nested_text(head: str, depth: int, tail: str) -> str:
    """`head`, arrays nested `depth` deep around a 0, then `tail`."""
    return head + "[" * depth + "0" + "]" * depth + tail


def _nested_log_line(depth: int) -> str:
    head = '{"seq": 0, "t_us": 0, "kind": "message", "detail": {"topic": "arm_cmd", "layer": "behavior", "bus_seq": 0, "command": {"a": '
    return _nested_text(head, depth - 3, '}, "behavior": "b"}}\n')


_NESTED_CONFIG_HEAD = '{"sensors": '
# each reader's text, nested `depth` deep: a trace line's value, a log line's
# command (a line the slow path accepts up to the limit) and a config's sensors
_NESTED_READS = {
    "trace": lambda depth: lambda: eng.load_trace(
        _nested_text('{"t_us": 1, "sensor": "touch", "value": ', depth - 1, "}"), TOUCH_CONFIG
    ),
    "log": lambda depth: lambda: eng.parse_log(_nested_log_line(depth)),
    "stats": lambda depth: lambda: eng.StatsAccumulator().read(_nested_log_line(depth)),
    "config": lambda depth: lambda: parse_config(_nested_text(_NESTED_CONFIG_HEAD, depth - 1, "}")),
}


def _verdict(read) -> str:
    try:
        read()
    except (eng.TraceError, eng.MalformedLogError, ConfigError) as exc:
        return str(exc)
    return "accepted"


def _verdict_from_deeper(frames: int, read) -> str:
    return _verdict(read) if frames == 0 else _verdict_from_deeper(frames - 1, read)


@pytest.mark.parametrize("reader", list(_NESTED_READS))
@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH - 1, MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1, MAX_JSON_DEPTH + 2, *range(984, 997)])
def test_nesting_past_the_limit_is_refused_alike_from_any_caller(reader, depth):
    # near the recursion limit a decoder's verdict hangs on the caller's
    # stack; each reader's does not, from this frame or 50 frames deeper,
    # and nesting past the limit is its one reason
    read = _NESTED_READS[reader](depth)
    verdict = _verdict(read)
    assert _verdict_from_deeper(50, read) == verdict
    if depth <= MAX_JSON_DEPTH:
        assert "nested" not in verdict
    elif reader == "config":
        assert verdict == f"line 1, column {len(_NESTED_CONFIG_HEAD) + depth - 1}: nested too deeply"
    else:
        assert verdict == "line 1: invalid JSON: nested too deeply"
