"""The golden scenarios: each directory under `fixtures/scenarios/` holds a
config, a program and a trace, and the log and stats a run of them must
give, byte for byte.  An optional `args.json` holds a list of extra `run`
arguments; without it the run gets none.

Each trio, and the touch trio, also checks metamorphic relations between
two runs: shifting the trace by whole windows shifts the log, and renaming
every name by a prefix renames the log.  Appending readings to a run that
halts adds only `trace_dropped` entries.  The canonical form of a program
(`robosync parse`) replays to the same log as the program.  And every run
keeps the reading chain: each processed value names the sensor message it
came from, and the trace it ran is left as it was.  Every trio replays to
its golden bytes under several hash seeds, `run -o` writes exactly what
`serialize_log` renders of the run's entries, and `serialize_log` renders a
log read back with `parse_log` to the same bytes."""

from __future__ import annotations

import copy
import importlib.util
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from robosync import engine, sched
from robosync.cli import _Tee, build_parser, main
from robosync.config import parse_config, processing_stages
from robosync.dsl import _TOKEN_RE, bind_program, format_program, parse_program
from robosync.engine import (
    _OTHER,
    LogEntry,
    LogWriter,
    StatsAccumulator,
    compute_stats,
    load_trace,
    parse_log,
    run,
    serialize_log,
    serialize_stats,
)

from conftest import FIXTURES
from test_acceptance import SAFETY_CONFIG, SAFETY_PROGRAM, _random_halt_trace
from test_cli import _cli_env

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


# the golden log and stats line of the touch trio and of each scenario
GOLDEN_LOGS = {"touch": FIXTURES / "golden_touch_log.jsonl", **{path.name: path / "log.jsonl" for path in SCENARIOS}}
GOLDEN_STATS = {"touch": FIXTURES / "golden_touch_stats.json", **{path.name: path / "stats.json" for path in SCENARIOS}}


def _extra(args_path) -> list[str]:
    """A trio's extra `run` arguments."""
    return json.loads(args_path.read_text(encoding="utf-8")) if args_path and args_path.exists() else []


def _until(extra: list[str]) -> int | None:
    """The --until of these extra `run` arguments."""
    return build_parser().parse_args(["run", "-c", "", "-b", "", "-t", "", *extra]).until


@pytest.mark.parametrize("trio", sorted(GOLDEN_STATS))
def test_run_stats_equal_the_stats_of_its_written_log(trio, tmp_path, capsys):
    """`run --stats` counts each entry as it is logged, and `stats` reads the
    written log back: both print the golden stats line."""
    config_path, program_path, trace_path, args_path = TRIOS[trio]
    extra = _extra(args_path)
    log = tmp_path / "log.jsonl"
    assert main(["run", "-c", str(config_path), "-b", str(program_path), "-t", str(trace_path), "-o", str(log), "--stats", *extra]) == 0
    run_stats = capsys.readouterr().err
    assert main(["stats", str(log)]) == 0
    golden = GOLDEN_STATS[trio].read_text(encoding="utf-8")
    assert (run_stats, capsys.readouterr().out) == (golden, golden)


@pytest.mark.parametrize("cap", [1, 2, 3, engine.BATCH_ENTRIES])
@pytest.mark.parametrize("trio", sorted(GOLDEN_STATS))
def test_every_batch_cap_gives_the_golden_log_and_stats(trio, cap, monkeypatch):
    """A run hands its sink the entries it logs one at a time in batches,
    each once `cap` entries wait after an event, before each block and at
    the run's end: at any cap, the writer writes the golden bytes, the tee
    of `run --stats` counts the golden stats, and the list sink keeps the
    same entries, which render to the golden bytes too."""
    config_text, program_text, trace_text, until = _texts(trio)
    config, program = _bind(config_text, program_text)
    trace = load_trace(trace_text, config)
    kept = run(config, program, trace, horizon_us=until).entries
    golden = GOLDEN_LOGS[trio].read_bytes()
    monkeypatch.setattr(engine, "BATCH_ENTRIES", cap)
    out, stats = io.BytesIO(), StatsAccumulator()
    run(config, program, trace, horizon_us=until, sink=_Tee(LogWriter(out), stats))
    assert out.getvalue() == golden
    assert serialize_stats(stats.result()).encode("utf-8") == GOLDEN_STATS[trio].read_bytes()
    entries = run(config, program, trace, horizon_us=until).entries
    assert entries == kept and serialize_log(entries).encode("utf-8") == golden


@pytest.mark.parametrize("hash_seed", ["0", "1", "7", "12345"])
def test_every_trio_replays_to_its_golden_bytes_under_any_hash_seed(hash_seed, tmp_path):
    """No log or stats byte depends on set or dict order of str hashes: each
    trio replays in a fresh interpreter under several hash seeds (one seed
    let an order-dependent rename through)."""
    for trio, (config_path, program_path, trace_path, args_path) in sorted(TRIOS.items()):
        log = tmp_path / f"{trio}.jsonl"
        argv = ["run", "-c", str(config_path), "-b", str(program_path), "-t", str(trace_path), "-o", str(log), "--stats"]
        done = subprocess.run(
            [sys.executable, "-m", "robosync.cli", *argv, *_extra(args_path)],
            capture_output=True,
            env={**_cli_env(), "PYTHONHASHSEED": hash_seed},
            timeout=60,
        )
        assert done.returncode == 0, (trio, done.stderr)
        assert log.read_bytes() == GOLDEN_LOGS[trio].read_bytes(), trio
        assert done.stderr == GOLDEN_STATS[trio].read_bytes(), trio


def _bench_workloads():
    """bench/workloads.py, the benchmark's input generator, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", FIXTURES.parent / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _bench_workloads()


# the touch trio with a STOP while the first reading's task runs: no trio halts by override
_STOP_TRACE = '{"t_us": 1000, "sensor": "touch", "value": 2}\n{"t_us": 1050, "override": "STOP"}\n{"t_us": 2000, "sensor": "touch", "value": 5}\n'


@pytest.mark.parametrize("inputs", [*sorted(TRIOS), "touch_stop", *(f"bench_{name}" for name in BENCH_WORKLOADS.WORKLOADS)])
def test_the_writer_writes_what_serialize_log_renders(inputs, tmp_path, capsys):
    """`run -o FILE` renders each entry through its log site: the file
    is `serialize_log` of the run's entries, and `--stats` their stats, on
    every trio, on a halt by override, and on a 300-reading seed-1 trio of
    each bench workload."""
    if inputs in TRIOS:
        config_path, program_path, trace_path, args_path = TRIOS[inputs]
        extra = _extra(args_path)
    elif inputs == "touch_stop":
        config_path, program_path, _trace, _args = TRIOS["touch"]
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(_STOP_TRACE, encoding="utf-8")
        extra = []
    else:
        BENCH_WORKLOADS.generate(inputs.removeprefix("bench_"), 1, readings=300).write(tmp_path)
        config_path, program_path, trace_path = tmp_path / "config.json", tmp_path / "behavior.rsb", tmp_path / "trace.jsonl"
        extra = []
    log = tmp_path / "log.jsonl"
    assert main(["run", "-c", str(config_path), "-b", str(program_path), "-t", str(trace_path), "-o", str(log), "--stats", *extra]) == 0
    run_stats = capsys.readouterr().err
    config, program = _bind(config_path.read_text(encoding="utf-8"), program_path.read_text(encoding="utf-8"))
    entries = _replay(config, program, trace_path.read_text(encoding="utf-8"), _until(extra))
    assert log.read_bytes() == serialize_log(entries).encode("utf-8")
    assert run_stats == serialize_stats(compute_stats(entries))


@pytest.mark.parametrize("log", ["golden_touch", *(path.name for path in SCENARIOS), *(f"bench_{name}" for name in BENCH_WORKLOADS.WORKLOADS)])
def test_serialize_log_renders_a_read_log_back_to_its_bytes(log, tmp_path):
    """`serialize_log(parse_log(text)) == text` for the golden touch log,
    every golden scenario log, and what `run -o` writes for a 300-reading
    seed-1 trio of each bench workload."""
    if log == "golden_touch":
        path = FIXTURES / "golden_touch_log.jsonl"
    elif log.startswith("bench_"):
        BENCH_WORKLOADS.generate(log.removeprefix("bench_"), 1, readings=300).write(tmp_path)
        path = tmp_path / "log.jsonl"
        trio = ("-c", tmp_path / "config.json", "-b", tmp_path / "behavior.rsb", "-t", tmp_path / "trace.jsonl")
        assert main(["run", *map(str, trio), "-o", str(path)]) == 0
    else:
        path = FIXTURES / "scenarios" / log / "log.jsonl"
    text = path.read_text(encoding="utf-8")
    assert serialize_log(parse_log(text)) == text


@pytest.mark.parametrize("log", ["golden_touch", *(path.name for path in SCENARIOS), *(f"bench_{name}" for name in BENCH_WORKLOADS.WORKLOADS)])
def test_a_log_reads_alike_through_the_fast_path_and_the_slow_one(log, tmp_path):
    """The stats pass reads every line of the golden touch log, of every
    golden scenario log and of a 300-reading seed-1 trio of each bench
    workload through the canonical fast path, but for the lines whose
    strings hold an escape (a backslash: canonical text holds none);
    rewritten with compact separators, every line takes the slow path
    instead, to the same stats and entries."""
    if log == "golden_touch":
        path = FIXTURES / "golden_touch_log.jsonl"
    elif log.startswith("bench_"):
        BENCH_WORKLOADS.generate(log.removeprefix("bench_"), 1, readings=300).write(tmp_path)
        path = tmp_path / "log.jsonl"
        trio = ("-c", tmp_path / "config.json", "-b", tmp_path / "behavior.rsb", "-t", tmp_path / "trace.jsonl")
        assert main(["run", *map(str, trio), "-o", str(path)]) == 0
    else:
        path = FIXTURES / "scenarios" / log / "log.jsonl"
    text = path.read_text(encoding="utf-8")
    compact = "".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in text.splitlines())
    fast, slow = StatsAccumulator(), StatsAccumulator()
    fast.read(text)
    slow.read(compact)
    lines = len(text.splitlines())
    escaped = sum("\\" in line for line in text.splitlines())
    assert (fast.counts[_OTHER], slow.counts[_OTHER]) == (escaped, lines)
    assert fast.result() == slow.result() == compute_stats(parse_log(text))
    assert parse_log(compact) == parse_log(text)


def _replay(config, program, trace_text: str, until: int | None) -> list[LogEntry]:
    return run(config, program, load_trace(trace_text, config), horizon_us=until).entries


def _texts(trio: str) -> tuple[str, str, str, int | None]:
    """A trio's config, program and trace texts, and its --until."""
    config_path, program_path, trace_path, args_path = TRIOS[trio]
    until = _until(_extra(args_path))
    texts = (path.read_text(encoding="utf-8") for path in (config_path, program_path, trace_path))
    return (*texts, until)


def _bind(config_text: str, program_text: str):
    config = parse_config(config_text)
    return config, bind_program(parse_program(program_text), config)


@pytest.mark.parametrize("inputs", [*sorted(TRIOS), *(f"bench_{name}" for name in BENCH_WORKLOADS.WORKLOADS)])
def test_each_dispatch_is_one_select_next_call_and_each_queued_task_one_push(inputs, tmp_path, monkeypatch):
    """The scheduler counts the bench's tracer reads, on every trio and on a
    300-reading seed-1 trio of each bench workload: the run calls
    `sched.select_next` once per `task_start` entry, and `ReadyQueue.push`
    once per `task_start` entry plus once per id a halt purged."""
    if inputs in TRIOS:
        config_text, program_text, trace_text, until = _texts(inputs)
    else:
        BENCH_WORKLOADS.generate(inputs.removeprefix("bench_"), 1, readings=300).write(tmp_path)
        config_text, program_text, trace_text = (
            (tmp_path / file).read_text(encoding="utf-8") for file in ("config.json", "behavior.rsb", "trace.jsonl")
        )
        until = None
    config, program = _bind(config_text, program_text)
    trace = load_trace(trace_text, config)
    calls = {"select_next": 0, "push": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(sched, "select_next", counted("select_next", sched.select_next))
    monkeypatch.setattr(sched.ReadyQueue, "push", counted("push", sched.ReadyQueue.push))
    entries = run(config, program, trace, horizon_us=until).entries
    starts = sum(entry.kind == "task_start" for entry in entries)
    purged = sum(len(entry.detail["purged"]) for entry in entries if entry.kind == "safety_halt")
    assert starts > 0
    assert calls == {"select_next": starts, "push": starts + purged}


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
        pieces, end = [], 0  # the line up to `end`, renamed
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "IDENT" and tokens[-1:] != ["PLAY"] and tokens[-2:-1] != ["WAIT"]:
                pieces += [line[end : m.start(kind)], prefix]
                end = m.start(kind)
            if kind is not None:
                tokens.append(m[kind])
        lines.append("".join(pieces) + line[end:] + "\n")
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


# ---------------------------------------------------------------------------
# canonical form: formatting a program changes nothing a run logs


def _assert_canonical_replay(config_text: str, program_text: str, trace_text: str, until: int | None) -> None:
    canonical = format_program(parse_program(program_text))
    log = _replay(*_bind(config_text, program_text), trace_text, until)
    assert serialize_log(_replay(*_bind(config_text, canonical), trace_text, until)) == serialize_log(log)


@pytest.mark.parametrize("trio", sorted(TRIOS))
def test_the_canonical_program_replays_to_the_same_log(trio):
    _assert_canonical_replay(*_texts(trio))


# number literals whose canonical form is written differently; MOVE takes
# only speeds within [0, 1], and SET clamps `7.` to arms' max_value
_MOVE_LITERALS = ("-0", "-0.0", "0", ".5", "1e-3", "1")
_SET_LITERALS = (*_MOVE_LITERALS, "7.")


@given(move=st.sampled_from(_MOVE_LITERALS), set_value=st.sampled_from(_SET_LITERALS))
def test_the_canonical_form_of_drawn_literals_replays_to_the_same_log(move, set_value):
    """The touch program with one MOVE speed written as a drawn literal and
    the other MOVE made a SET of one: a literal and its canonical spelling
    command the same value."""
    config_text, program_text, trace_text, until = _texts("touch")
    assert program_text.count("MOVE arms SLOWLY") == program_text.count("MOVE arms QUICKLY") == 1
    program_text = program_text.replace("MOVE arms SLOWLY", f"MOVE arms {move}")
    program_text = program_text.replace("MOVE arms QUICKLY", f"SET arms {set_value}")
    _assert_canonical_replay(config_text, program_text, trace_text, until)
