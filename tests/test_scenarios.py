"""The golden scenarios: each directory under `fixtures/scenarios/` holds a
config, a program and a trace, and the log and stats a run of them must
give, byte for byte.  An optional `args.json` holds a list of extra `run`
arguments; without it the run gets none.

Each trio, and the touch trio, also checks metamorphic relations between
two runs: shifting the trace by whole windows shifts the log, and renaming
every name by a prefix renames the log.  Appending readings to a run that
halts adds only `trace_dropped` entries.  And every run keeps the reading
chain: each processed value names the sensor message it came from, and the
trace it ran is left as it was."""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from robosync.cli import build_parser, main
from robosync.config import parse_config, processing_stages
from robosync.dsl import _TOKEN_RE, bind_program, parse_program
from robosync.engine import LogEntry, load_trace, run, serialize_log

from conftest import FIXTURES
from test_acceptance import SAFETY_CONFIG, SAFETY_PROGRAM, _random_halt_trace

SCENARIOS = sorted(path for path in (FIXTURES / "scenarios").iterdir() if path.is_dir())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[path.name for path in SCENARIOS])
def test_scenario_replays_to_its_golden_log_and_stats(scenario, tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    argv = ["run", "-c", str(scenario / "config.json"), "-b", str(scenario / "behavior.rsb")]
    args = scenario / "args.json"
    extra = json.loads(args.read_text(encoding="utf-8")) if args.exists() else []
    assert main([*argv, "-t", str(scenario / "trace.jsonl"), "-o", str(log), "--stats", *extra]) == 0
    stats = (scenario / "stats.json").read_bytes()
    assert log.read_bytes() == (scenario / "log.jsonl").read_bytes()
    assert capsys.readouterr() == ("", stats.decode("utf-8"))
    assert main(["stats", str(log)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == stats


# ---------------------------------------------------------------------------
# time shift: a metamorphic relation between two runs of the same trio

# the detail fields that hold a virtual time, besides each entry's own t_us
_TIME_FIELDS = ("enqueue_t_us", "reading_t_us")

# the touch trio and every scenario: (config, program, trace, extra run arguments)
TRIOS = {
    "touch": (FIXTURES / "touch_config.json", FIXTURES / "behavior.rsb", FIXTURES / "touch_trace.jsonl", None),
    **{path.name: (path / "config.json", path / "behavior.rsb", path / "trace.jsonl", path / "args.json") for path in SCENARIOS},
}


def _replay(config, program, trace_text: str, until: int | None) -> list[LogEntry]:
    return run(config, program, load_trace(trace_text, config), horizon_us=until).entries


def _texts(trio: str) -> tuple[str, str, str, int | None]:
    """A trio's config, program and trace texts, and its --until."""
    config_path, program_path, trace_path, args_path = TRIOS[trio]
    extra = json.loads(args_path.read_text(encoding="utf-8")) if args_path and args_path.exists() else []
    until = build_parser().parse_args(["run", "-c", "", "-b", "", "-t", "", *extra]).until
    texts = (path.read_text(encoding="utf-8") for path in (config_path, program_path, trace_path))
    return (*texts, until)


def _bind(config_text: str, program_text: str):
    config = parse_config(config_text)
    return config, bind_program(parse_program(program_text), config)


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("trio", sorted(TRIOS))
def test_shifting_the_trace_by_whole_windows_shifts_the_log(trio, k):
    """Every trace t_us (and --until) raised by k windows gives the same log
    after k idle windows: each task's no-op priority update per window, then
    every entry renumbered, with its t_us and time fields raised as well."""
    config_text, program_text, trace_text, until = _texts(trio)
    config, program = _bind(config_text, program_text)
    window_us = config.scheduler.window_us
    shift = k * window_us
    shifted_trace = "".join(
        json.dumps({**event, "t_us": event["t_us"] + shift}) + "\n" for event in map(json.loads, trace_text.splitlines())
    )

    log = _replay(config, program, trace_text, until)
    shifted = _replay(config, program, shifted_trace, None if until is None else until + shift)

    tasks = len(config.sensors) + len(processing_stages(config)) + len(program.plans) + len(config.actuators)
    idle = k * tasks
    assert all(entry.kind == "priority_update" for entry in shifted[:idle])
    assert [entry.t_us for entry in shifted[:idle]] == [window_us * (1 + i // tasks) for i in range(idle)]
    first_window = [entry.detail["task"] for entry in shifted[:tasks]]
    assert len(set(first_window)) == tasks
    assert [entry.detail["task"] for entry in shifted[:idle]] == first_window * k
    for entry in shifted[:idle]:
        assert entry.detail["old"] == entry.detail["new"]
        assert (entry.detail["f_max"], entry.detail["behavior"], entry.detail["delta"]) == (0, None, 0.0)
    assert shifted[idle:] == [
        LogEntry(
            entry.seq + idle,
            entry.t_us + shift,
            entry.kind,
            {name: value + shift if name in _TIME_FIELDS else value for name, value in entry.detail.items()},
        )
        for entry in log
    ]


# ---------------------------------------------------------------------------
# order-preserving rename: every name gets one prefix, so names sort as before

# a name's set and dict-hash order changes with its prefix, so an order that
# follows one instead of the names' order shows under some of these prefixes
PREFIXES = ("q", "qq", "q_")


def _q_task(prefix: str, task_id: str) -> str:
    category, _, name = task_id.partition(".")
    return f"{category}.{prefix}{name}"


def _rename_config(prefix: str, text: str) -> str:
    """Every sensor, actuator, behavior, algorithm (name and output) and
    safety check name prefixed; plugins, paths and params kept."""
    doc = json.loads(text)
    for section in ("sensors", "actuators", "behaviors", "algorithms", "safety_checks"):
        for item in doc.get(section, []):
            item["name"] = prefix + item["name"]
    for algorithm in doc.get("algorithms", []):
        if "inputs" in algorithm:
            algorithm["inputs"] = [prefix + name for name in algorithm["inputs"]]
        if "output" in algorithm:
            algorithm["output"] = prefix + algorithm["output"]
    for check in doc.get("safety_checks", []):
        check["sensor"] = prefix + check["sensor"]
    return json.dumps(doc)


def _rename_program(prefix: str, text: str) -> str:
    """Every identifier prefixed but PLAY's `sound` and a WAIT's unit: the
    rest are signals, behaviors and actuators.  Strings and comments are
    kept."""
    lines = []
    for line in text.splitlines():
        tokens: list[str] = []  # the line's tokens so far, blanks and comments left out
        pieces = []
        for m in _TOKEN_RE.finditer(line):
            piece = m.group()
            if m.lastgroup == "IDENT" and tokens[-1:] != ["PLAY"] and tokens[-2:-1] != ["WAIT"]:
                piece = prefix + piece
            if m.lastgroup != "skip":
                tokens.append(piece)
            pieces.append(piece)
        lines.append("".join(pieces) + "\n")
    return "".join(lines)


def _rename_trace(prefix: str, text: str) -> str:
    events = [json.loads(line) for line in text.splitlines() if line.strip()]
    return "".join(json.dumps({**e, "sensor": prefix + e["sensor"]} if "sensor" in e else e) + "\n" for e in events)


def _rename_detail(prefix: str, detail: dict) -> dict:
    """A log entry's detail with every name-valued field renamed."""
    out = {}
    for field, value in detail.items():
        if value is None:
            pass
        elif field in ("sensor", "topic", "behavior", "winner", "actuator") or (field == "source" and value != "override"):
            value = prefix + value
        elif field in ("task", "aborted"):
            value = _q_task(prefix, value)
        elif field == "purged":
            value = [_q_task(prefix, task_id) for task_id in value]
        elif field == "neutral":
            value = {prefix + name: level for name, level in value.items()}
        elif field == "command" and isinstance(value, dict):
            value = {**value, "actuator": prefix + value["actuator"]}
        out[field] = value
    return out


@pytest.mark.parametrize("prefix", PREFIXES)
@pytest.mark.parametrize("trio", sorted(TRIOS))
def test_renaming_every_name_by_a_prefix_renames_the_log(trio, prefix):
    """A prefix keeps every name's sort order and collides with nothing, so
    the renamed run's log is the original log, its names renamed: no order
    in the engine may follow anything but the names' order and the input's."""
    config_text, program_text, trace_text, until = _texts(trio)
    log = _replay(*_bind(config_text, program_text), trace_text, until)
    renamed_inputs = _bind(_rename_config(prefix, config_text), _rename_program(prefix, program_text))
    renamed = _replay(*renamed_inputs, _rename_trace(prefix, trace_text), until)
    expected = [LogEntry(e.seq, e.t_us, e.kind, _rename_detail(prefix, e.detail)) for e in log]
    assert serialize_log(renamed) == serialize_log(expected)
    assert serialize_log(renamed) != serialize_log(log)


# ---------------------------------------------------------------------------
# halt suffix: after a halt every trace line is dropped, and nothing else happens


@st.composite
def _suffix(draw, sensors: list[str], after_us: int) -> list[dict]:
    """Trace lines strictly after `after_us`: readings of any sensor, of any
    size, and overrides."""
    lines, t_us = [], after_us
    for _ in range(draw(st.integers(1, 6))):
        t_us += draw(st.integers(1, 5000))
        sensor = draw(st.sampled_from([None, *sensors]))
        if sensor is None:
            lines.append({"t_us": t_us, "override": "STOP"})
        else:
            lines.append({"t_us": t_us, "sensor": sensor, "value": draw(st.integers(-100, 100))})
    return lines


def _assert_halt_suffix(config_text: str, program_text: str, trace_text: str, suffix: list[dict]) -> None:
    config, program = _bind(config_text, program_text)
    log = _replay(config, program, trace_text, None)
    assert any(entry.kind == "safety_halt" for entry in log)
    longer = _replay(config, program, trace_text + "".join(json.dumps(line) + "\n" for line in suffix), None)
    dropped = [
        LogEntry(
            len(log) + i,
            line["t_us"],
            "trace_dropped",
            {
                "sensor": line.get("sensor"),
                "value": float(line["value"]) if "value" in line else None,
                "command": line.get("override"),
            },
        )
        for i, line in enumerate(suffix)
    ]
    assert longer == log + dropped


@settings(max_examples=25)
@given(data=st.data())
def test_lines_after_a_halt_add_only_trace_dropped_entries(data):
    config_text, program_text, trace_text, until = _texts("halt_windows")
    assert until is None
    last_us = max(json.loads(line)["t_us"] for line in trace_text.splitlines())
    sensors = [sensor.name for sensor in parse_config(config_text).sensors]
    _assert_halt_suffix(config_text, program_text, trace_text, data.draw(_suffix(sensors, last_us)))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lines_after_a_safety_halt_add_only_trace_dropped_entries(seed, data):
    """The same on criterion 5's safety config, over its random halting traces."""
    trace_text, _spike_us = _random_halt_trace(random.Random(seed))
    last_us = max(json.loads(line)["t_us"] for line in trace_text.splitlines())
    _assert_halt_suffix(SAFETY_CONFIG, SAFETY_PROGRAM, trace_text + "\n", data.draw(_suffix(["force"], last_us)))


# ---------------------------------------------------------------------------
# the reading chain


@pytest.mark.parametrize("trio", sorted(TRIOS))
def test_processed_values_name_their_sensor_message_and_the_trace_is_kept(trio):
    """Each processing-layer message's source_seq is the bus_seq of an earlier
    sensor-layer message.  A run leaves its trace list as it found it, so a
    second run of the same list logs the same bytes."""
    config_text, program_text, trace_text, until = _texts(trio)
    config, program = _bind(config_text, program_text)
    trace = load_trace(trace_text, config)
    before = copy.deepcopy(trace)
    log = run(config, program, trace, horizon_us=until).entries
    assert trace == before

    sensor_seqs: set[int] = set()
    processed = 0
    for entry in log:
        if entry.kind == "message" and entry.detail["layer"] == "sensor":
            sensor_seqs.add(entry.detail["bus_seq"])
        elif entry.kind == "message" and entry.detail["layer"] == "processing":
            assert entry.detail["source_seq"] in sensor_seqs
            processed += 1
    assert processed > 0

    assert serialize_log(run(config, program, trace, horizon_us=until).entries) == serialize_log(log)
