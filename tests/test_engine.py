from __future__ import annotations

import enum
import gc
import io
import itertools
import json
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from robosync import bus as bus_module, cli, dsl, engine as eng
from robosync.bus import BusError, Layer, MessageBus
from robosync.config import ActuatorSpec, SensorSpec, SystemConfig, parse_config
from robosync.dsl import bind_program, parse_program
from robosync.sensorproc import NonFiniteOutputError, Reading

from conftest import FIXTURES


def _setup(config_text, program_text):
    config = parse_config(config_text)
    program = bind_program(parse_program(program_text), config)
    return config, program


def _run_texts(config_text, program_text, trace_text, horizon_us=None):
    config, program = _setup(config_text, program_text)
    trace = eng.load_trace(trace_text, config)
    return eng.run(config, program, trace, horizon_us=horizon_us)


def _kinds(log):
    return [e.kind for e in log.entries]


SAFETY_CONFIG = """
{
    "sensors": [
        {"name": "force", "type": "analog", "pin": 0, "delta": 0.0}
    ],
    "actuators": [
        {"name": "arms", "type": "pwm"},
        {"name": "sound", "type": "audio"}
    ],
    "safety_checks": [
        {"name": "overforce", "sensor": "force", "threshold": 10.0}
    ]
}
"""

SAFETY_PROGRAM = """
WHEN force > 0
DO react
END

DEFINE react
MOVE arms SLOWLY
END
"""


# ---------------------------------------------------------------------------
# load_trace


def test_load_empty_trace(touch_config_text):
    config = parse_config(touch_config_text)
    assert eng.load_trace("", config) == []


def test_load_trace_sorts_by_time(touch_config_text):
    config = parse_config(touch_config_text)
    text = "\n".join(
        [
            '{"t_us": 300, "sensor": "touch", "value": 3}',
            '{"t_us": 100, "sensor": "touch", "value": 1}',
            '{"t_us": 200, "override": "STOP"}',
        ]
    )
    events = eng.load_trace(text, config)
    assert [e.t_us for e in events] == [100, 200, 300]
    assert isinstance(events[1], eng.Override)


def test_load_trace_stable_on_ties(touch_config_text):
    config = parse_config(touch_config_text)
    text = "\n".join(
        [
            '{"t_us": 100, "sensor": "touch", "value": 1}',
            '{"t_us": 100, "sensor": "touch", "value": 2}',
        ]
    )
    events = eng.load_trace(text, config)
    assert [e.value for e in events] == [1.0, 2.0]


def test_load_trace_unknown_sensor(touch_config_text):
    config = parse_config(touch_config_text)
    with pytest.raises(eng.TraceError) as exc:
        eng.load_trace('{"t_us": 1, "sensor": "foo", "value": 0}', config)
    assert exc.value.line == 1
    assert "unknown sensor" in exc.value.reason


def test_load_trace_rejects_other_overrides(touch_config_text):
    config = parse_config(touch_config_text)
    with pytest.raises(eng.TraceError, match="unsupported override"):
        eng.load_trace('{"t_us": 1, "override": "WAVE"}', config)


def test_load_trace_bad_json(touch_config_text):
    config = parse_config(touch_config_text)
    with pytest.raises(eng.TraceError) as exc:
        eng.load_trace('{"t_us": 1, "sensor": "touch"', config)
    assert exc.value.line == 1


def test_load_trace_unexpected_keys(touch_config_text):
    config = parse_config(touch_config_text)
    with pytest.raises(eng.TraceError, match="expected keys"):
        eng.load_trace('{"t_us": 1, "sensor": "touch", "value": 0, "extra": 1}', config)


# ---------------------------------------------------------------------------
# the reference scenario, checked against the hand-derived chain


def test_touch_scenario_sequence(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    fired = [e for e in log.entries if e.kind == "behavior_fired"]
    assert [e.detail["behavior"] for e in fired] == ["gentle_response", "aggressive_response"]
    assert [e.detail["branch"] for e in fired] == ["then", "else"]
    assert fired[0].detail["priority"] == pytest.approx(2 / 3)
    assert fired[1].detail["priority"] == pytest.approx(1 / 3)

    moves = [e for e in log.entries if e.kind == "actuator_cmd"]
    assert [(e.detail["actuator"], e.detail["value"]) for e in moves] == [("arms", 0.25), ("arms", 1.0)]
    plays = [e for e in log.entries if e.kind == "play_cmd"]
    assert [e.detail["resource"] for e in plays] == ["greeting.wav", "warning.wav"]

    # ordering: fired(gentle) < cmd(0.25) < play(greeting) < fired(aggressive) < cmd(1.0) < play(warning)
    order = [fired[0].seq, moves[0].seq, plays[0].seq, fired[1].seq, moves[1].seq, plays[1].seq]
    assert order == sorted(order)


def test_touch_scenario_pipeline_timing(touch_config_text, behavior_text, touch_trace_text):
    # Each stage costs the default 100 us; the first chain is fully serial.
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    by_kind = {}
    for entry in log.entries:
        by_kind.setdefault(entry.kind, []).append(entry)
    assert by_kind["sensor_event"][0].t_us == 1000
    assert by_kind["behavior_fired"][0].t_us == 1200
    assert by_kind["actuator_cmd"][0].t_us == 1400
    assert by_kind["play_cmd"][0].t_us == 1500


def test_log_invariants(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    assert [e.seq for e in log.entries] == list(range(len(log.entries)))
    times = [e.t_us for e in log.entries]
    assert times == sorted(times)
    assert all(e.kind in eng.LOG_KINDS for e in log.entries)


def test_determinism_byte_identical(touch_config_text, behavior_text, touch_trace_text):
    first = eng.serialize_log(_run_texts(touch_config_text, behavior_text, touch_trace_text).entries)
    second = eng.serialize_log(_run_texts(touch_config_text, behavior_text, touch_trace_text).entries)
    assert first == second


class _Recorder:
    """A sink that keeps each entry it is handed, and the row kind of each block."""

    def __init__(self):
        self.entries: list[eng.LogEntry] = []
        self.blocks: set[str] = set()

    def batch(self, batch):
        self.entries += [site.row.entry(entry[0], entry[1], site.values(entry)) for site, entry in batch]

    def block(self, row, first_seq, t_us, items):
        self.entries += [row.entry(seq, t_us, values) for seq, (values, _tail) in enumerate(items, first_seq)]
        self.blocks.add(row.kind)


class _Output(list):
    """An output that keeps each bytes written to it."""

    def write(self, data):
        self.append(data)


class _WrittenSoFar:
    """A sink behind the writer and a recorder in a tee: each batch or block
    made one write to the writer's output, of the lines of the entries
    recorded since, so the output holds exactly the lines handed on so far."""

    def __init__(self, output: _Output, recorder: _Recorder):
        self.output, self.recorder, self.writes, self.logged = output, recorder, 0, 0

    def batch(self, *batch):
        entries = self.recorder.entries
        self.writes += 1
        assert len(self.output) == self.writes
        assert self.output[-1] == eng.serialize_log(entries[self.logged :]).encode("ascii")
        self.logged = len(entries)

    block = batch


def _sink_inputs(tmp_path):
    """(name, config text, program text, trace text, --until) of the touch
    trio, the halt_windows and until_idle trios, and a 300-reading seed-1
    trio of the fanout and steady bench workloads."""
    from test_scenarios import BENCH_WORKLOADS, TRIOS, _extra, _until

    for name in ("touch", "halt_windows", "until_idle"):
        config_path, program_path, trace_path, args_path = TRIOS[name]
        texts = [path.read_text(encoding="utf-8") for path in (config_path, program_path, trace_path)]
        yield (name, *texts, _until(_extra(args_path)))
    for name in ("fanout", "steady"):
        BENCH_WORKLOADS.generate(name, 1, readings=300).write(tmp_path)
        texts = [(tmp_path / file).read_text(encoding="utf-8") for file in ("config.json", "behavior.rsb", "trace.jsonl")]
        yield (name, *texts, None)


def test_a_run_hands_each_entry_to_its_sink(tmp_path):
    # with a sink the run keeps no entry: the list sink, and the writer and
    # the stats of `run --stats`, agree with the entries a run keeps; the
    # writer writes each batch, and each block, as it is handed it
    for name, config_text, program_text, trace_text, until in _sink_inputs(tmp_path):
        config, program = _setup(config_text, program_text)
        trace = eng.load_trace(trace_text, config)
        kept = eng.run(config, program, trace, horizon_us=until)
        handed = _Recorder()
        streamed = eng.run(config, program, trace, horizon_us=until, sink=handed)
        assert (streamed.entries, handed.entries, streamed.routes) == ([], kept.entries, kept.routes), name
        # only a window's priority updates are a block: the touch trio ends before its first window
        assert handed.blocks == (set() if name == "touch" else {"priority_update"}), name
        output, stats, recorder = _Output(), eng.StatsAccumulator(), _Recorder()
        writer = eng.LogWriter(output)
        sink = cli._Tee(writer, stats, recorder, _WrittenSoFar(output, recorder))
        eng.run(config, program, trace, horizon_us=until, sink=sink)
        assert b"".join(output) == eng.serialize_log(kept.entries).encode("ascii"), name
        assert stats.result() == eng.compute_stats(kept.entries), name


def test_stats_count_a_block_of_task_rows_as_one_entry_at_a_time():
    # the engine hands task rows to its sink in batches, but a block may
    # hold any row: task starts, ends and halts in one are counted as in a
    # batch, here each from a fully fixed site
    blocks = [
        (eng._TASK_START, 0, 10, [("a", 0, 0, 0.5), ("b", 1, 4, 0.25)]),
        (eng._TASK_FINISH, 2, 110, [("a", 0)]),
        (eng._SAFETY_HALT, 3, 150, [("override", None, None, None, "STOP", {}, "task.b", [])]),
        (eng._TASK_ABORT, 4, 150, [("b", 1, "safety_halt")]),
        (eng._PRIORITY_UPDATE, 5, 150, [("a", 0.5, 0.5, 0, None, 0.0), ("b", 0.25, 0.25, 0, None, 0.0)]),
    ]
    by_block, by_batch = eng.StatsAccumulator(), eng.StatsAccumulator()
    for row, first_seq, t_us, values in blocks:
        sites = [row.site(**dict(zip(row, v))) for v in values]
        by_block.block(row, first_seq, t_us, [(v, site.tail()) for v, site in zip(values, sites)])
        by_batch.batch([(site, (seq, t_us)) for seq, site in enumerate(sites, first_seq)])
    assert by_block.result() == by_batch.result()
    assert by_batch.result()["latency_us"] == {"min": 6, "mean": 8.0, "max": 10}


def test_finished_run_leaves_no_cyclic_garbage(touch_config_text, behavior_text, touch_trace_text):
    # reference counting alone frees a finished engine, whose entries die with
    # the log, with its log sites, also when it wrote through the log writer,
    # and an engine whose run or setup failed
    config, program = _setup(touch_config_text, behavior_text)
    trace = eng.load_trace(touch_trace_text, config)
    gap = eng.load_trace('{"t_us": 1000, "sensor": "touch", "value": 2}\n{"t_us": 100000000000000, "sensor": "touch", "value": 2}', config)
    average_config, average_program = _setup(
        touch_config_text.replace(
            '"algorithms": []',
            '"algorithms": [{"name": "avg", "plugin": "moving_average", "inputs": ["touch"], "params": {"k": 2}}]',
        ),
        behavior_text,
    )
    overflow = eng.load_trace('{"t_us": 1000, "sensor": "touch", "value": 1.7e308}\n{"t_us": 2000, "sensor": "touch", "value": 1.6e308}', average_config)
    # unvalidated: sensor m_cmd takes actuator m's command topic, so wiring the bus fails
    colliding_config = SystemConfig(sensors=(SensorSpec("m_cmd", "virtual"),), actuators=(ActuatorSpec("m", "pwm"),))
    colliding_program = bind_program(parse_program(""), colliding_config)
    failing = [
        (config, program, gap, eng.RunLimitError),
        (average_config, average_program, overflow, NonFiniteOutputError),
        (colliding_config, colliding_program, [], BusError),
    ]
    gc.collect()
    gc.disable()
    try:
        log = eng.run(config, program, trace)
        entries = log.entries
        del log
        assert sys.getrefcount(entries) == 2  # `entries` and the call's argument
        eng.serialize_log(entries)
        eng.serialize_stats(eng.compute_stats(entries))
        del entries
        assert gc.collect() == 0
        out = io.BytesIO()
        eng.run(config, program, trace, sink=eng.LogWriter(out))
        assert out.getvalue()
        del out
        assert gc.collect() == 0
        for (run_config, run_program, run_trace, error), writer in itertools.product(failing, (False, True)):
            try:
                eng.run(run_config, run_program, run_trace, sink=eng.LogWriter(io.BytesIO()) if writer else None)
            except error:
                pass
            else:
                pytest.fail(f"the run raised no {error.__name__}")
            assert gc.collect() == 0, (error.__name__, writer)
    finally:
        gc.enable()


def test_each_message_entry_is_one_publish_with_its_bus_seq(
    touch_config_text, behavior_text, touch_trace_text, monkeypatch
):
    # bench/tracing.py wraps MessageBus.publish on the class and counts its
    # calls as `bus.publish.calls`: the engine must look the method up at each
    # call and make exactly one call per `message` entry, in log order
    seqs: list[int] = []
    publish = MessageBus.publish

    def counting(self, *args, **kwargs):
        seq = publish(self, *args, **kwargs)
        seqs.append(seq)
        return seq

    monkeypatch.setattr(MessageBus, "publish", counting)
    halt_trace = '{"t_us": 1000, "sensor": "force", "value": 3.0}\n{"t_us": 5000, "sensor": "force", "value": 12.0}'
    runs = ((touch_config_text, behavior_text, touch_trace_text), (SAFETY_CONFIG, SAFETY_PROGRAM, halt_trace))
    for config_text, program_text, trace_text in runs:
        seqs.clear()
        log = _run_texts(config_text, program_text, trace_text)
        bus_seqs = [e.detail["bus_seq"] for e in log.entries if e.kind == "message"]
        assert bus_seqs
        assert seqs == bus_seqs
    assert _kinds(log)[-1] == "safety_halt"


def test_every_subscription_passes_a_handler(touch_config_text, behavior_text, touch_trace_text, monkeypatch):
    # each topic's subscriber does work: a command topic's queues its
    # actuator's control task, so no publish calls a handler that does nothing
    handlers: list[tuple[str, Layer, tuple]] = []
    subscribe = MessageBus.subscribe

    def recording(self, topic, subscriber_layer, *args, **kwargs):
        handlers.append((topic.name, subscriber_layer, args + tuple(kwargs.values())))
        return subscribe(self, topic, subscriber_layer, *args, **kwargs)

    monkeypatch.setattr(MessageBus, "subscribe", recording)
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    assert {name for name, layer, _ in handlers if layer == Layer.CONTROL} == {"arms_cmd", "sound_cmd"}
    for name, _layer, passed in handlers:
        assert len(passed) == 1 and passed[0] is not bus_module._ignore, name
    assert any(e.kind == "play_cmd" for e in log.entries)


def test_causality_audit(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    entries = log.entries
    fired_by_behavior: dict[str, list[int]] = {}
    message_seq_to_entry = {}
    sensor_events = []
    for entry in entries:
        if entry.kind == "behavior_fired":
            fired_by_behavior.setdefault(entry.detail["behavior"], []).append(entry.seq)
        elif entry.kind == "message":
            message_seq_to_entry[entry.detail["bus_seq"]] = entry
        elif entry.kind == "sensor_event":
            sensor_events.append(entry)

    for entry in entries:
        if entry.kind not in ("actuator_cmd", "play_cmd"):
            continue
        behavior = entry.detail["behavior"]
        fire_seqs = [s for s in fired_by_behavior.get(behavior, []) if s < entry.seq]
        assert fire_seqs, f"no behavior_fired before {entry}"
        fired_entry = entries[fire_seqs[-1]]
        processed = message_seq_to_entry[fired_entry.detail["trigger_seq"]]
        assert processed.seq < fired_entry.seq
        assert processed.detail["layer"] == "processing"
        raw = message_seq_to_entry[processed.detail["source_seq"]]
        assert raw.detail["layer"] == "sensor"
        assert raw.seq < processed.seq
        origin = [
            s
            for s in sensor_events
            if s.detail["sensor"] == raw.detail["sensor"]
            and s.t_us == raw.detail["reading_t_us"]
            and s.detail["value"] == raw.detail["value"]
        ]
        assert origin and origin[0].seq < raw.seq


def test_conservation_gating_only_removes(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    sensor_events = sum(1 for e in log.entries if e.kind == "sensor_event")
    sensor_messages = sum(
        1 for e in log.entries if e.kind == "message" and e.detail["layer"] == "sensor"
    )
    assert sensor_events >= sensor_messages


# ---------------------------------------------------------------------------
# gating inside the engine


def test_constant_readings_emit_one_message(touch_config_text, behavior_text):
    trace_text = "\n".join(
        json.dumps({"t_us": 1000 * (i + 1), "sensor": "touch", "value": 4.0}) for i in range(5)
    )
    log = _run_texts(touch_config_text, behavior_text, trace_text)
    sensor_messages = [e for e in log.entries if e.kind == "message" and e.detail["layer"] == "sensor"]
    assert len(sensor_messages) == 1
    assert sum(1 for e in log.entries if e.kind == "sensor_event") == 5


def test_gate_prev_is_last_forwarded_value(touch_config_text, behavior_text):
    # Drift in steps below delta never accumulates past the deadband.
    values = [0.0, 0.3, 0.6, 0.9]  # delta is 0.5; 0.6 passes relative to 0.0
    trace_text = "\n".join(
        json.dumps({"t_us": 1000 * (i + 1), "sensor": "touch", "value": v})
        for i, v in enumerate(values)
    )
    log = _run_texts(touch_config_text, behavior_text, trace_text)
    forwarded = [
        e.detail["value"] for e in log.entries if e.kind == "message" and e.detail["layer"] == "sensor"
    ]
    assert forwarded == [0.0, 0.6]


# ---------------------------------------------------------------------------
# safety halts


def test_super_threshold_reading_halts():
    trace_text = "\n".join(
        [
            '{"t_us": 1000, "sensor": "force", "value": 3.0}',
            '{"t_us": 5000, "sensor": "force", "value": 12.0}',
            '{"t_us": 6000, "sensor": "force", "value": 1.0}',
        ]
    )
    log = _run_texts(SAFETY_CONFIG, SAFETY_PROGRAM, trace_text)
    halts = [e for e in log.entries if e.kind == "safety_halt"]
    assert len(halts) == 1
    halt = halts[0]
    assert halt.t_us == 5000
    assert halt.detail["source"] == "overforce"
    assert halt.detail["reading"] == 12.0
    assert halt.detail["threshold"] == 10.0
    assert halt.detail["neutral"] == {"arms": 0.0, "sound": 0.0}
    for entry in log.entries[halt.seq + 1 :]:
        assert entry.kind == "trace_dropped"
    dropped = [e for e in log.entries if e.kind == "trace_dropped"]
    assert len(dropped) == 1 and dropped[0].t_us == 6000


def test_boundary_reading_does_not_halt():
    trace_text = '{"t_us": 1000, "sensor": "force", "value": 10.0}'
    log = _run_texts(SAFETY_CONFIG, SAFETY_PROGRAM, trace_text)
    assert not any(e.kind == "safety_halt" for e in log.entries)


def test_halt_aborts_in_flight_task():
    # Reading at 1000 starts a chain; the dangerous reading at 1050 lands
    # strictly inside the sensor-input task's [1000, 1100) service interval.
    trace_text = "\n".join(
        [
            '{"t_us": 1000, "sensor": "force", "value": 3.0}',
            '{"t_us": 1050, "sensor": "force", "value": 12.0}',
        ]
    )
    log = _run_texts(SAFETY_CONFIG, SAFETY_PROGRAM, trace_text)
    aborts = [e for e in log.entries if e.kind == "task_abort"]
    assert len(aborts) == 1
    assert aborts[0].t_us == 1050
    assert aborts[0].detail["task"] == "sensor_input.force"
    assert aborts[0].detail["reason"] == "safety_halt"
    halt = next(e for e in log.entries if e.kind == "safety_halt")
    assert halt.detail["aborted"] == "sensor_input.force"
    # the aborted task never finishes
    finishes = [e for e in log.entries if e.kind == "task_finish"]
    assert not finishes


def test_halt_purges_queued_tasks():
    trace_text = "\n".join(
        [
            '{"t_us": 1000, "sensor": "force", "value": 3.0}',
            '{"t_us": 1010, "sensor": "force", "value": 4.0}',
            '{"t_us": 1020, "sensor": "force", "value": 12.0}',
        ]
    )
    log = _run_texts(SAFETY_CONFIG, SAFETY_PROGRAM, trace_text)
    halt = next(e for e in log.entries if e.kind == "safety_halt")
    assert halt.detail["purged"] == ["sensor_input.force"]
    assert not any(e.kind in ("actuator_cmd", "play_cmd") for e in log.entries)


def test_override_stop_halts(touch_config_text, behavior_text):
    trace_text = "\n".join(
        [
            '{"t_us": 1000, "sensor": "touch", "value": 2}',
            '{"t_us": 1150, "override": "STOP"}',
            '{"t_us": 2000, "sensor": "touch", "value": 5}',
        ]
    )
    log = _run_texts(touch_config_text, behavior_text, trace_text)
    halt = next(e for e in log.entries if e.kind == "safety_halt")
    assert halt.detail["source"] == "override"
    assert halt.detail["command"] == "STOP"
    assert halt.detail["sensor"] is None
    assert not any(e.kind in ("actuator_cmd", "play_cmd") for e in log.entries)
    assert any(e.kind == "task_abort" for e in log.entries)  # algorithmic task in flight at 1150
    dropped = [e for e in log.entries if e.kind == "trace_dropped"]
    assert [d.t_us for d in dropped] == [2000]


def test_safety_beats_gating():
    # delta would suppress the repeat, but checks run pre-gating.
    config_text = SAFETY_CONFIG.replace('"delta": 0.0', '"delta": 100.0')
    trace_text = "\n".join(
        [
            '{"t_us": 1000, "sensor": "force", "value": 12.0}',
        ]
    )
    log = _run_texts(config_text, SAFETY_PROGRAM, trace_text)
    assert any(e.kind == "safety_halt" for e in log.entries)


# ---------------------------------------------------------------------------
# single response


THREE_RULES = """
WHEN touch > 0
DO a
END

WHEN touch > -1
DO b
END

WHEN touch < 99
DO c
END

DEFINE a
MOVE arms 0.1
END

DEFINE b
MOVE arms 0.2
END

DEFINE c
MOVE arms 0.3
END
"""


def test_single_response_guarantee(touch_config_text):
    log = _run_texts(touch_config_text, THREE_RULES, '{"t_us": 1000, "sensor": "touch", "value": 5}')
    fired = [e for e in log.entries if e.kind == "behavior_fired"]
    suppressed = [e for e in log.entries if e.kind == "behavior_suppressed"]
    assert len(fired) == 1
    assert fired[0].detail["behavior"] == "a"  # pool priorities: a=0.75, b=0.5, c=0.25
    assert sorted(e.detail["behavior"] for e in suppressed) == ["b", "c"]
    assert all(e.detail["winner"] == "a" for e in suppressed)
    assert fired[0].t_us == suppressed[0].t_us == suppressed[1].t_us
    # only the winner's commands execute
    values = [e.detail["value"] for e in log.entries if e.kind == "actuator_cmd"]
    assert values == [0.1]


def test_at_most_one_fired_per_instant(touch_config_text):
    trace_text = "\n".join(
        json.dumps({"t_us": 1000 * (i + 1), "sensor": "touch", "value": float(i)}) for i in range(6)
    )
    log = _run_texts(touch_config_text, THREE_RULES, trace_text)
    fired_times = [e.t_us for e in log.entries if e.kind == "behavior_fired"]
    assert len(fired_times) == len(set(fired_times))


# ---------------------------------------------------------------------------
# rule matching

# `touch` is consumed by the algorithm `lvl`, so the signals `touch` and `lvl`
# both read topic `lvl`; `force` is unconsumed and reads its passthrough topic.
ALIAS_CONFIG = """
{
    "sensors": [
        {"name": "touch", "type": "virtual", "delta": 0.5},
        {"name": "force", "type": "virtual", "delta": 0.0}
    ],
    "actuators": [{"name": "arms", "type": "pwm"}],
    "behaviors": [],
    "algorithms": [{"name": "lvl", "plugin": "passthrough", "inputs": ["touch"], "output": "lvl"}]
}
"""

ALIAS_DEFINITIONS = {
    name: dsl.Definition(name, (dsl.Move("arms", speed),)) for name, speed in (("a", 0.1), ("b", 0.2), ("c", 0.3))
}


def test_rule_reading_one_topic_twice_fires_once():
    program_text = "WHEN touch < 3 AND lvl < 3\nDO calm\nEND\n\nDEFINE calm\nMOVE arms SLOWLY\nEND\n"
    log = _run_texts(ALIAS_CONFIG, program_text, '{"t_us": 1000, "sensor": "touch", "value": 2}')
    assert [e.detail["behavior"] for e in log.entries if e.kind == "behavior_fired"] == ["calm"]
    assert not any(e.kind == "behavior_suppressed" for e in log.entries)
    assert eng.compute_stats(log.entries)["behaviors_suppressed"] == 0


def _oracle_rule_entries(program, latest, topic, bus_seq):
    """The rule entries a processed message on `topic` yields, computed as the
    engine once did: each rule once, on a snapshot of its own signals."""
    topics = program.signal_topics
    candidates = []
    for index, rule in enumerate(program.program.rules):
        signals = [signal for signal, _ in dsl.condition_signals(rule.condition)]
        if topic not in {topics[s] for s in signals} or any(topics[s] not in latest for s in signals):
            continue
        outcome = dsl.eval_condition(rule.condition, {s: latest[topics[s]] for s in signals})
        target = rule.then_behavior if outcome else rule.else_behavior
        if target is not None:
            candidates.append((program.priorities[target], -index, target, "then" if outcome else "else"))
    candidates.sort(reverse=True)
    if not candidates:
        return []
    (_, neg_index, winner, branch), *rest = candidates
    fired = {
        "behavior": winner,
        "priority": program.priorities[winner],
        "rule": -neg_index,
        "branch": branch,
        "trigger_seq": bus_seq,
    }
    return [("behavior_fired", fired)] + [
        (
            "behavior_suppressed",
            {"behavior": b, "priority": program.priorities[b], "rule": -n, "branch": br, "winner": winner},
        )
        for _, n, b, br in rest
    ]


_alias_conditions = st.recursive(
    st.builds(
        dsl.Comparison,
        signal=st.sampled_from(("touch", "lvl", "force")),
        op=st.sampled_from(("<", "<=", ">", ">=", "==", "!=")),
        value=st.integers(0, 4).map(float),
    ),
    lambda inner: st.one_of(st.builds(dsl.And, inner, inner), st.builds(dsl.Or, inner, inner), st.builds(dsl.Not, inner)),
    max_leaves=4,
)
_alias_rules = st.lists(
    st.builds(
        dsl.Rule,
        condition=_alias_conditions,
        then_behavior=st.sampled_from(sorted(ALIAS_DEFINITIONS)),
        else_behavior=st.none() | st.sampled_from(sorted(ALIAS_DEFINITIONS)),
    ),
    min_size=1,
    max_size=4,
)
_alias_readings = st.lists(
    st.tuples(st.sampled_from((1000, 1050, 3000)), st.sampled_from(("touch", "force")), st.integers(0, 4)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200)
@given(rules=_alias_rules, readings=_alias_readings)
def test_rule_matching_matches_snapshot_oracle(rules, readings):
    config = parse_config(ALIAS_CONFIG)
    program = bind_program(dsl.BehaviorProgram(tuple(rules), ALIAS_DEFINITIONS), config)
    trace_text = "\n".join(json.dumps({"t_us": t, "sensor": s, "value": v}) for t, s, v in readings)
    entries = eng.run(config, program, eng.load_trace(trace_text, config)).entries
    rule_kinds = ("behavior_fired", "behavior_suppressed")
    latest: dict[str, float] = {}
    matched = 0
    for i, entry in enumerate(entries):
        if entry.kind != "message" or entry.detail["layer"] != Layer.PROCESSING.label:
            continue
        topic = entry.detail["topic"]
        latest[topic] = entry.detail["value"]
        expected = _oracle_rule_entries(program, latest, topic, entry.detail["bus_seq"])
        following = []
        for later in entries[i + 1 :]:
            if later.kind not in rule_kinds:
                break
            following.append((later.kind, later.detail))
        assert following == expected
        matched += len(expected)
    assert matched == sum(e.kind in rule_kinds for e in entries)


def _sorted_candidates(rules, priorities, values):
    """The branches that fire on these values, ranked as the engine once
    ranked them: `(priority, -index, behavior, branch)` sorted in reverse."""
    candidates = []
    for index, rule, signals in rules:
        if values.keys() >= signals:
            outcome = dsl.eval_condition(rule.condition, values)
            target = rule.then_behavior if outcome else rule.else_behavior
            if target is not None:
                candidates.append((priorities[target], -index, target, "then" if outcome else "else"))
    candidates.sort(reverse=True)
    return [(behavior, priority, -neg_index, branch) for priority, neg_index, behavior, branch in candidates]


# few behaviors on few priorities, so rules share targets and ties on priority are common
_ROUTE_BEHAVIORS = ("a", "b", "c", "d")
_route_rules = st.lists(
    st.builds(
        dsl.Rule,
        condition=_alias_conditions,
        then_behavior=st.sampled_from(_ROUTE_BEHAVIORS),
        else_behavior=st.none() | st.sampled_from(_ROUTE_BEHAVIORS),
    ),
    max_size=8,
)


@settings(max_examples=300)
@given(
    rules=_route_rules,
    priorities=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=4, max_size=4),
    snapshots=st.lists(st.dictionaries(st.sampled_from(("touch", "lvl", "force")), st.integers(0, 4).map(float)), min_size=1, max_size=4),
)
@example(
    rules=[
        dsl.Rule(dsl.Comparison("touch", "<", 2.0), "a", "a"),  # THEN and ELSE name one behavior
        dsl.Rule(dsl.Comparison("touch", ">=", 2.0), "b"),  # no ELSE
        dsl.Rule(dsl.Comparison("lvl", "<", 2.0), "a", "b"),  # targets shared with the rules above
    ],
    priorities=[0.5, 0.5, 0.5, 0.5],
    snapshots=[{"touch": 1.0}, {"touch": 3.0, "lvl": 1.0}],
)
def test_a_route_ranks_its_pairs_as_the_sorted_candidates(rules, priorities, snapshots):
    # a route's presorted pairs fire in the order the per-message sort gave:
    # the same winner, then the same suppressed entries, rule and branch too,
    # and each suppressed entry's line, from the engine's site for its
    # (loser, winner) pair, is the one serialize_log renders
    priorities = dict(zip(_ROUTE_BEHAVIORS, priorities))
    indexed = [(index, rule, frozenset(s for s, _ in dsl.condition_signals(rule.condition))) for index, rule in enumerate(rules)]
    route = eng._Route([eng._compile_rule(index, rule, priorities) for index, rule in enumerate(rules)])
    for values in snapshots:
        fired = route.fired(values)
        assert [branch.values for branch in fired] == _sorted_candidates(indexed, priorities, values)
        if fired:
            winner, *suppressed = fired
            for seq, branch in enumerate(suppressed):
                entry = eng.LogEntry(seq, 1000, "behavior_suppressed", dict(zip(eng._SUPPRESSED, (*branch.values, winner.values[0]))))
                line = eng._suppressed_site((branch, winner)).line % (seq, 1000)
                assert line == eng.serialize_log([entry]).encode("ascii")


# ---------------------------------------------------------------------------
# windows and adaptation


def test_empty_trace_empty_log(touch_config_text, behavior_text):
    log = _run_texts(touch_config_text, behavior_text, "")
    assert log.entries == []


_SHUFFLED_TRACE = [
    *(Reading("touch", t_us, value) for t_us, value in ((1000, 2.0), (1000, 5.0), (1150, 1.0), (1300, 4.0), (1300, 0.5))),
    *(Reading("touch", t_us, float(t_us % 7)) for t_us in range(2000, 9000, 350)),
    eng.Override(7000),
]


@settings(max_examples=60)
@given(shuffled=st.permutations(_SHUFFLED_TRACE), horizon_us=st.sampled_from([None, 1300, 5000, 8000]))
def test_a_trace_out_of_order_runs_as_its_stable_sort(touch_config_text, behavior_text, shuffled, horizon_us):
    config, program = _setup(touch_config_text, behavior_text)
    in_order = sorted(shuffled, key=lambda event: event.t_us)
    log = eng.run(config, program, shuffled, horizon_us=horizon_us)
    assert log.entries == eng.run(config, program, in_order, horizon_us=horizon_us).entries
    assert log.entries[0].t_us == 1000


def test_empty_trace_with_horizon_ticks_windows(touch_config_text, behavior_text):
    log = _run_texts(touch_config_text, behavior_text, "", horizon_us=2_500_000)
    assert log.entries
    assert all(e.kind == "priority_update" for e in log.entries)
    boundaries = sorted({e.t_us for e in log.entries})
    assert boundaries == [1_000_000, 2_000_000]


def test_window_limit_is_the_exact_update_count(touch_config_text, behavior_text, monkeypatch):
    # three boundaries up to the horizon, six tasks each: 18 updates
    monkeypatch.setattr(eng, "MAX_WINDOW_ENTRIES", 18)
    log = _run_texts(touch_config_text, behavior_text, "", horizon_us=3_000_000)
    assert _kinds(log) == ["priority_update"] * 18
    monkeypatch.setattr(eng, "MAX_WINDOW_ENTRIES", 17)
    with pytest.raises(eng.RunLimitError, match="^3 window boundaries up to t_us 3000000 would log 18 priority updates"):
        _run_texts(touch_config_text, behavior_text, "", horizon_us=3_000_000)


def test_window_limit_covers_a_tail_that_waits_stretch(touch_config_text, monkeypatch):
    # the trace ends in the first window; the WAIT defers the MOVE to 60.0013 s
    program_text = "WHEN touch > 0\nDO d\nEND\nDEFINE d\nWAIT 60000 ms\nMOVE arms 0.5\nEND\n"
    trace_text = '{"t_us": 1000, "sensor": "touch", "value": 1}'
    log = _run_texts(touch_config_text, program_text, trace_text)
    assert sum(e.kind == "priority_update" for e in log.entries) == 60 * 5
    monkeypatch.setattr(eng, "MAX_WINDOW_ENTRIES", 299)
    with pytest.raises(eng.RunLimitError, match="^60 window boundaries up to t_us 60001300 would log 300 priority"):
        _run_texts(touch_config_text, program_text, trace_text)


def test_window_limit_spares_a_run_that_halts_before_the_gap(touch_config_text, behavior_text):
    trace_text = '{"t_us": 1000, "override": "STOP"}\n{"t_us": 100000000000000, "sensor": "touch", "value": 2}'
    log = _run_texts(touch_config_text, behavior_text, trace_text)
    assert _kinds(log) == ["safety_halt", "trace_dropped"]


def test_priority_update_matches_formula(touch_config_text, behavior_text):
    # Five gentle firings inside the first window: F=5, alpha=0.05, W=1s.
    trace_lines = [
        json.dumps({"t_us": 10_000 * (i + 1), "sensor": "touch", "value": float(i % 2)})
        for i in range(5)
    ]
    log = _run_texts(touch_config_text, behavior_text, "\n".join(trace_lines), horizon_us=1_000_001)
    updates = {
        e.detail["task"]: e.detail
        for e in log.entries
        if e.kind == "priority_update" and e.t_us == 1_000_000
    }
    behavioral = updates["behavioral.gentle_response"]
    assert behavioral["f_max"] == 5
    assert behavioral["behavior"] == "gentle_response"
    assert behavioral["new"] == pytest.approx(2 / 3 + 0.05 * 5)
    untriggered = updates["behavioral.aggressive_response"]
    assert untriggered["f_max"] == 0
    assert untriggered["new"] == pytest.approx(1 / 3)


def test_counters_reset_between_windows(touch_config_text, behavior_text):
    # One firing in window 1, none in window 2: priority decays back to base.
    trace_lines = [
        json.dumps({"t_us": 500_000, "sensor": "touch", "value": 1.0}),
        json.dumps({"t_us": 2_500_000, "sensor": "touch", "value": 2.0}),
    ]
    log = _run_texts(touch_config_text, behavior_text, "\n".join(trace_lines), horizon_us=3_000_001)
    updates = [
        (e.t_us, e.detail["new"])
        for e in log.entries
        if e.kind == "priority_update" and e.detail["task"] == "behavioral.gentle_response"
    ]
    by_boundary = dict(updates)
    assert by_boundary[1_000_000] == pytest.approx(2 / 3 + 0.05)
    assert by_boundary[2_000_000] == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# WAIT offsets


def test_wait_defers_later_statements(touch_config_text):
    program_text = """
WHEN touch > 0
DO d
END

DEFINE d
MOVE arms 0.5
WAIT 1 ms
MOVE arms 0.9
END
"""
    log = _run_texts(touch_config_text, program_text, '{"t_us": 1000, "sensor": "touch", "value": 1}')
    cmds = [e for e in log.entries if e.kind == "actuator_cmd"]
    assert [c.detail["value"] for c in cmds] == [0.5, 0.9]
    # behavioral task finishes at 1300; first command executes at 1400,
    # second is enqueued at 1300 + 1000 and executes 100 us later.
    assert cmds[0].t_us == 1400
    assert cmds[1].t_us == 2400


def test_a_reading_comes_after_the_completion_and_the_command_of_its_instant(touch_config_text):
    # the deferred MOVE is published at 2300, when the task started by the
    # reading at 2200 finishes: a reading at 2300 is handled after both
    program_text = """
WHEN touch > 0
DO d
END

DEFINE d
MOVE arms 0.5
WAIT 1 ms
MOVE arms 0.9
END
"""
    trace_text = "\n".join(
        '{"t_us": %d, "sensor": "touch", "value": %d}' % reading for reading in ((1000, 1), (2200, 5), (2300, 9))
    )
    log = _run_texts(touch_config_text, program_text, trace_text)
    at = [(e.kind, e.detail.get("task") or e.detail.get("layer")) for e in log.entries if e.t_us == 2300]
    finish = at.index(("task_finish", "sensor_input.touch"))
    command = at.index(("message", "behavior"))
    assert finish < command < at.index(("sensor_event", None))


# The actuators' bounds make clamping matter: `arms` stops at 0.5, so MOVE
# QUICKLY (1.0) clamps, and SET draws values past both bounds of each.
EXPANSION_CONFIG = """
{
    "sensors": [{"name": "touch", "type": "virtual", "delta": 0.0}],
    "actuators": [
        {"name": "arms", "type": "pwm", "min_value": 0.0, "max_value": 0.5},
        {"name": "grip", "type": "pwm", "min_value": -1.0, "max_value": 2.0},
        {"name": "sound", "type": "audio"}
    ],
    "behaviors": [],
    "algorithms": []
}
"""


def _oracle_command(config, stmt) -> dict:
    """One statement's command, built as the engine once built it each time a
    behavior fired: bounds from the config, speed words from the defaults."""
    actuators = {a.name: a for a in config.actuators}
    if isinstance(stmt, dsl.Move):
        speed = dsl.SPEED_WORDS[stmt.speed] if isinstance(stmt.speed, str) else stmt.speed
        actuator = actuators[stmt.actuator]
        return {"action": "move", "actuator": stmt.actuator, "value": min(max(speed, actuator.min_value), actuator.max_value)}
    if isinstance(stmt, dsl.Set):
        actuator = actuators[stmt.actuator]
        return {"action": "set", "actuator": stmt.actuator, "value": min(max(stmt.value, actuator.min_value), actuator.max_value)}
    (audio,) = [a.name for a in config.actuators if a.kind == "audio"]
    return {"action": "play", "actuator": audio, "resource": stmt.resource}


def _oracle_expansion(config, body) -> list[tuple[int, dict]]:
    """`(offset_us, command)` per non-WAIT statement: each WAIT delays every
    statement after it."""
    expansion, offset_us = [], 0
    for stmt in body:
        if isinstance(stmt, dsl.Wait):
            offset_us += stmt.duration_us
        else:
            expansion.append((offset_us, _oracle_command(config, stmt)))
    return expansion


_expansion_statements = st.one_of(
    st.builds(dsl.Move, st.sampled_from(("arms", "grip")), st.sampled_from(("slowly", "quickly")) | st.floats(0, 1)),
    st.builds(dsl.Set, st.sampled_from(("arms", "grip")), st.floats(-3, 3)),
    st.builds(dsl.Play, st.sampled_from(("a.wav", "b.wav"))),
    st.builds(dsl.Wait, st.integers(1, 5).map(lambda ms: ms * 1000) | st.integers(1, 999)),
)


@settings(max_examples=200)
@given(body=st.lists(_expansion_statements, max_size=7), times=st.sampled_from([(1000,), (1000, 1200), (1000, 4000)]))
def test_behavior_expansion_matches_per_statement_oracle(body, times):
    config = parse_config(EXPANSION_CONFIG)
    rule = dsl.Rule(dsl.Comparison("touch", ">", 0.0), "b")
    program = bind_program(dsl.BehaviorProgram((rule,), {"b": dsl.Definition("b", tuple(body))}), config)
    trace_text = "\n".join(json.dumps({"t_us": t, "sensor": "touch", "value": i + 1}) for i, t in enumerate(times))
    entries = eng.run(config, program, eng.load_trace(trace_text, config)).entries
    expansion = _oracle_expansion(config, body)
    finished = [e.t_us for e in entries if e.kind == "task_finish" and e.detail["task"] == "behavioral.b"]
    assert len(finished) == len(times)
    # deferred commands run in time order; a tie goes to the earlier firing, then the earlier statement
    expected = sorted(((t + offset_us, command) for t in finished for offset_us, command in expansion), key=lambda x: x[0])
    messages = [e for e in entries if e.kind == "message" and e.detail["layer"] == Layer.BEHAVIOR.label]
    assert [(e.t_us, e.detail["command"]) for e in messages] == expected
    # every control task b enqueues has b's priority, so they run in enqueue order
    outputs = [(e.kind, e.detail) for e in entries if e.kind in ("actuator_cmd", "play_cmd")]
    assert outputs == [
        ("play_cmd", {"actuator": c["actuator"], "resource": c["resource"], "behavior": "b"})
        if c["action"] == "play"
        else ("actuator_cmd", {"actuator": c["actuator"], "action": c["action"], "value": c["value"], "behavior": "b"})
        for _t, c in expected
    ]


# ---------------------------------------------------------------------------
# stats


def test_stats_empty_log():
    stats = eng.compute_stats([])
    assert stats["dispatches"] == 0
    assert stats["aborts"] == 0
    assert stats["halted"] is False
    assert stats["halt_t_us"] is None
    assert stats["latency_us"]["min"] == stats["latency_us"]["max"] == 0
    assert stats["latency_us"]["mean"] == 0.0
    assert stats["messages_per_layer"] == {"sensor": 0, "processing": 0, "behavior": 0, "control": 0}


def test_stats_zero_latency_task():
    entries = [
        eng.LogEntry(0, 100, "task_start", {"task": "t", "enqueue_seq": 0, "enqueue_t_us": 100, "priority": 0.5}),
        eng.LogEntry(1, 200, "task_finish", {"task": "t", "enqueue_seq": 0}),
    ]
    stats = eng.compute_stats(entries)
    assert stats["dispatches"] == 1
    assert stats["latency_us"]["min"] == stats["latency_us"]["mean"] == stats["latency_us"]["max"] == 0


def test_stats_recount_oracle(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    stats = eng.compute_stats(log.entries)

    # independent recount: a plain Counter walk over the entries
    kinds = Counter(e.kind for e in log.entries)
    layers = Counter(e.detail["layer"] for e in log.entries if e.kind == "message")
    assert stats["dispatches"] == kinds["task_start"]
    assert stats["aborts"] == kinds.get("task_abort", 0)
    assert stats["behaviors_fired"] == kinds["behavior_fired"]
    assert stats["behaviors_suppressed"] == kinds.get("behavior_suppressed", 0)
    assert stats["messages_per_layer"] == {
        "sensor": layers.get("sensor", 0),
        "processing": layers.get("processing", 0),
        "behavior": layers.get("behavior", 0),
        "control": layers.get("control", 0),
    }
    latencies = [
        e.t_us - e.detail["enqueue_t_us"] for e in log.entries if e.kind == "task_start"
    ]
    assert stats["latency_us"]["min"] == min(latencies)
    assert stats["latency_us"]["max"] == max(latencies)
    assert stats["latency_us"]["mean"] == pytest.approx(sum(latencies) / len(latencies))
    assert stats["halted"] is False


def test_stats_unmatched_start_rejected():
    entries = [
        eng.LogEntry(0, 100, "task_start", {"task": "t", "enqueue_seq": 0, "enqueue_t_us": 100, "priority": 0.5}),
    ]
    with pytest.raises(eng.MalformedLogError, match="never finished"):
        eng.compute_stats(entries)


def test_stats_orphan_finish_rejected():
    entries = [eng.LogEntry(0, 100, "task_finish", {"task": "t", "enqueue_seq": 0})]
    with pytest.raises(eng.MalformedLogError, match="without matching start"):
        eng.compute_stats(entries)


# ---------------------------------------------------------------------------
# serialization round-trip


def test_log_serialization_roundtrip(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    text = eng.serialize_log(log.entries)
    reread = eng.parse_log(text)
    stats_direct = eng.compute_stats(log.entries)
    stats_reread = eng.compute_stats(reread)
    assert eng.serialize_stats(stats_direct) == eng.serialize_stats(stats_reread)
    assert [e.kind for e in reread] == [e.kind for e in log.entries]


def test_parse_log_rejects_garbage():
    with pytest.raises(eng.MalformedLogError) as exc:
        eng.parse_log('{"seq": 0}\n')
    assert exc.value.line == 1
    with pytest.raises(eng.MalformedLogError):
        eng.parse_log("not json\n")


_FINISH_LINE = '{"seq": 1, "t_us": 10, "kind": "task_finish", "detail": {"task": "t", "enqueue_seq": 0}}\n'


def _start_line(t_us="5", enqueue_t_us="0", kind='"task_start"', seq="0"):
    return (
        f'{{"seq": {seq}, "t_us": {t_us}, "kind": {kind}, "detail": '
        f'{{"task": "t", "enqueue_seq": 0, "enqueue_t_us": {enqueue_t_us}, "priority": 0.5}}}}\n'
    )


@pytest.mark.parametrize(
    "line, reason",
    [
        (_start_line(t_us="1e999"), "seq and t_us must be integers"),
        (_start_line(t_us='"5"'), "seq and t_us must be integers"),
        (_start_line(seq="true"), "seq and t_us must be integers"),
        (_start_line(enqueue_t_us="NaN"), "non-finite number NaN"),
        (_start_line(enqueue_t_us="-Infinity"), "non-finite number -Infinity"),
        (_start_line(t_us="9" * 5000), "invalid JSON"),
        (_start_line(kind="[1]"), "unknown kind"),
        ("[" * 100_000 + "]" * 100_000 + "\n", "invalid JSON: nested too deeply"),
    ],
    ids=["t_us_overflow", "t_us_string", "seq_bool", "nan", "infinity", "int_too_long", "unhashable_kind", "deep_nesting"],
)
def test_parse_log_rejects_malformed_line(line, reason):
    with pytest.raises(eng.MalformedLogError, match=reason) as exc:
        eng.parse_log(_FINISH_LINE + line)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "enqueue_t_us, reason",
    [("-1e999", "enqueue_t_us must be an integer"), ("1.5", "enqueue_t_us must be an integer"), ("-" + "9" * 400, "too large")],
    ids=["overflow", "float", "huge_int"],
)
def test_stats_reject_latencies_that_are_not_json(enqueue_t_us, reason):
    # a float is refused by the reader, an integer too large to average by the pass
    with pytest.raises(eng.MalformedLogError, match=reason):
        eng.compute_stats(eng.parse_log(_start_line(enqueue_t_us=enqueue_t_us) + _FINISH_LINE))


def test_fixed_decimal_float_rendering():
    entry = eng.LogEntry(0, 5, "sensor_event", {"sensor": "s", "value": 2.0})
    assert eng.serialize_log([entry]) == (
        '{"seq": 0, "t_us": 5, "kind": "sensor_event", "detail": {"sensor": "s", "value": 2.000000}}\n'
    )


def _render_json_oracle(value: object) -> str:
    """The original recursive renderer, kept as the reference for the log format."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".6f")
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_render_json_oracle(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_json_oracle(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _oracle_line(entry: eng.LogEntry) -> str:
    return _render_json_oracle({"seq": entry.seq, "t_us": entry.t_us, "kind": entry.kind, "detail": entry.detail})


_awkward_text = st.text(st.sampled_from('"\\%{}s \x00\x1f\n\t\x7fé€😀a'), max_size=6) | st.text(max_size=6)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # includes -0.0, nan and inf
    | _awkward_text
)
# the types the renderer takes: exact scalars, plain lists and plain dicts with str keys
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_awkward_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _logs(draw):
    """Entries of a few schema rows, each filled with fresh values of any
    type the renderer takes, so templates are reused across value types; a
    `message` holds its row's layer, as `serialize_log` refuses any other."""
    rows = draw(st.lists(st.sampled_from(sorted(eng.LOG_FIELDS.items())), min_size=1, max_size=3))
    entries = []
    for _ in range(draw(st.integers(1, 8))):
        (kind, layer), fields = draw(st.sampled_from(rows))
        detail = {name: layer if name == "layer" else draw(_values) for name in fields}
        entries.append(eng.LogEntry(draw(st.integers() | _scalars), draw(st.integers()), kind, detail))
    return entries


@settings(max_examples=300)
@given(entries=_logs())
def test_log_rendering_matches_oracle(entries):
    assert [eng.serialize_log([e]) for e in entries] == [_oracle_line(e) + "\n" for e in entries]
    assert eng.serialize_log(entries) == "".join(_oracle_line(e) + "\n" for e in entries)


@given(values=st.lists(_values, min_size=11, max_size=11))
def test_stats_rendering_matches_oracle(values):
    stats = {
        "messages_per_layer": {"sensor": values[0], "processing": values[1]},
        "dispatches": values[2],
        "aborts": values[3],
        "latency_us": {"min": values[4], "mean": values[5], "max": values[6]},
        "behaviors_fired": values[7],
        "behaviors_suppressed": values[8],
        "halted": values[9],
        "halt_t_us": values[10],
    }
    assert eng.serialize_stats(stats) == _render_json_oracle(stats) + "\n"


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


def _halt(neutral):
    values = ("override", None, None, None, "STOP", neutral, None, [])
    return eng.LogEntry(0, 5, "safety_halt", dict(zip(eng.LOG_FIELDS[("safety_halt", None)], values)))


def _behavior_message(command):
    detail = {"topic": "arms_cmd", "layer": "behavior", "bus_seq": 3, "command": command, "behavior": "b"}
    return eng.LogEntry(0, 5, "message", detail)


def _fired(priority):
    detail = {"behavior": "b", "priority": priority, "rule": 0, "branch": "then", "trigger_seq": 2}
    return eng.LogEntry(0, 5, "behavior_fired", detail)


def _actuator_cmd(seq, value):
    return eng.LogEntry(seq, 6, "actuator_cmd", {"actuator": "arms", "action": "move", "value": value, "behavior": "b"})


# each entry either renders as the oracle does (None) or is refused with the message
@pytest.mark.parametrize(
    "entries, refusal",
    [
        ([_fired(_Level.HIGH)], "^cannot serialize _Level$"),
        (
            [eng.LogEntry(0, 5, "play_cmd", {"actuator": "sound", "resource": _Name('a"b.wav'), "behavior": "b"})],
            "^cannot serialize _Name$",
        ),
        # an int in a field the engine fills with floats prints as an int
        ([_actuator_cmd(0, 0.25), _actuator_cmd(1, 1)], None),
        # 1 == True == 1.0, and none of them is a str key
        ([_halt({1: 0.0}), _halt({True: 0.0}), _halt({1.0: 0.0})], r"^cannot serialize (int|bool|float) key (1|True|1\.0)$"),
        ([_behavior_message({"action": "move", "actuator": "arms", 0: 0.5})], "^cannot serialize int key 0$"),
        ([_behavior_message({"action": "move", "actuator": "arms", _Name("value"): 0.5})], "^cannot serialize _Name key 'value'$"),
    ],
    ids=["int_enum", "str_subclass", "int_in_float_field", "equal_keys", "int_command_key", "str_subclass_command_key"],
)
def test_log_rendering_examples(entries, refusal):
    for entry in entries:
        if refusal is None:
            assert eng.serialize_log([entry]) == _oracle_line(entry) + "\n"
        else:
            with pytest.raises(TypeError, match=refusal):
                eng.serialize_log([entry])


# one value of each scalar type the renderer takes, with the floats whose
# fixed-decimal forms are awkward
_MIXED = (1, 2.5, True, None, "s", -0.0, float("nan"), 1e308)


def _mixed_updates() -> list[eng.LogEntry]:
    """Entries of one shape whose fields take each of `_MIXED` in turn: no
    two have the same types in the same fields."""
    fields = eng.LOG_FIELDS[("priority_update", None)]
    return [
        eng.LogEntry(i, 10 * i, "priority_update", {name: _MIXED[(i + j) % len(_MIXED)] for j, name in enumerate(fields)})
        for i in range(len(_MIXED))
    ]


@pytest.mark.parametrize("first", ["together", "forward", "reverse"])
def test_line_functions_do_not_depend_on_first_seen_order(first):
    # whichever mix of types serialize_log meets first, in whichever call,
    # every later line renders as the oracle renders it
    entries = _mixed_updates()
    expected = [_oracle_line(entry) + "\n" for entry in entries]
    if first == "together":
        assert eng.serialize_log(entries) == "".join(expected)
    order = list(range(len(entries)))
    for indices in (order[::-1], order) if first == "reverse" else (order, order[::-1]):
        assert [eng.serialize_log([entries[i]]) for i in indices] == [expected[i] for i in indices]
    assert eng.serialize_log(entries[::-1]) == "".join(expected[::-1])
    assert eng.serialize_log(entries) == "".join(expected)


_TASK_FINISH = {"task": "t", "enqueue_seq": 0}
_SENSOR_MESSAGE = {"topic": "touch", "layer": "sensor", "bus_seq": 0, "value": 1.0, "sensor": "touch", "reading_t_us": 0}


@pytest.mark.parametrize(
    "kind, detail",
    [
        ("task_finish", {"task": "t"}),
        ("task_finish", {**_TASK_FINISH, "reason": "safety_halt"}),
        ("task_finish", {"enqueue_seq": 0, "task": "t"}),
        ("task_done", _TASK_FINISH),
        ("message", {"topic": "touch", "layer": "sensor", "bus_seq": 0, "value": 1.0}),
        ("message", {}),
        # a message with one row's fields and another layer
        ("message", {**_SENSOR_MESSAGE, "layer": "control"}),
        ("message", {**_SENSOR_MESSAGE, "layer": "behavior"}),
        ("message", {**_SENSOR_MESSAGE, "layer": "processing"}),
    ],
    ids=[
        "missing_field",
        "extra_field",
        "reordered_fields",
        "unknown_kind",
        "short_message",
        "empty_detail",
        "sensor_fields_control_layer",
        "sensor_fields_behavior_layer",
        "sensor_fields_processing_layer",
    ],
)
def test_off_schema_entries_are_refused(kind, detail):
    entries = [eng.LogEntry(0, 5, "task_finish", dict(_TASK_FINISH)), eng.LogEntry(1, 5, kind, detail)]
    message = f"off-schema log entry: kind {kind!r} with detail fields {list(detail)}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        eng.serialize_log(entries)


def test_unsupported_value_type_raises():
    for value in ({1, 2}, (1, 2)):
        message = f"^cannot serialize {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            eng.serialize_log([eng.LogEntry(0, 5, "sensor_event", {"sensor": "s", "value": value})])
        with pytest.raises(TypeError, match=message):
            eng.serialize_stats(eng.compute_stats([]) | {"messages_per_layer": {"sensor": value}})


def test_a_str_subclass_kind_or_detail_key_is_refused():
    # the shape check matches a str subclass equal to a schema name, and the
    # renderer refuses it there as it does in a command's keys
    with pytest.raises(TypeError, match="^cannot serialize _Name$"):
        eng.serialize_log([eng.LogEntry(0, 5, _Name("task_finish"), dict(_TASK_FINISH))])
    with pytest.raises(TypeError, match="^cannot serialize _Name key 'task'$"):
        eng.serialize_log([eng.LogEntry(0, 5, "task_finish", {_Name("task"): "t", "enqueue_seq": 0})])


# values of exactly each type a schema row declares, with the awkward ones
# drawn often: strs with quotes, backslashes, control characters, non-ASCII
# and lone surrogates, floats at the ends of their range, and huge ints
_declared_text = st.text(st.sampled_from('"\\%{}s \x00\x1f\n\t\x7fé€😀\ud800\udfffa'), max_size=6) | st.text(max_size=6)
_declared_float = st.floats() | st.sampled_from([-0.0, 1e300, -1e300, 5e-324])
_declared_int = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 10**300, -(10**300)])
_DECLARED = {
    int: _declared_int,
    float: _declared_float,
    str: _declared_text,
    str | None: st.none() | _declared_text,
    float | None: st.none() | _declared_float,
    list: st.lists(_declared_text, max_size=3),
    dict: st.dictionaries(_declared_text, _declared_float | _declared_text, max_size=3),
}


@pytest.mark.parametrize("shape", list(eng.LOG_FIELDS), ids=[f"{kind}.{layer}" if layer else kind for kind, layer in eng.LOG_FIELDS])
@settings(max_examples=100)
@given(data=st.data())
def test_row_emitters_match_serialize_log(shape, data):
    # a row's emitters are its log sites.  An independent differential: a
    # site's line, one `%` template with its fixed fields rendered in once
    # and a conversion for each other field, is the checked serializer's,
    # which shares no template with it and renders each entry whole through
    # `render`, byte for byte, for any values of the declared types and any
    # split of the row's numbers into fixed and varying (and a `message`'s
    # own layer, as `serialize_log` refuses any other)
    row = eng.LOG_FIELDS[shape]
    seq, t_us = data.draw(_declared_int), data.draw(_declared_int)
    values = tuple(shape[1] if name == "layer" else data.draw(_DECLARED[declared]) for name, declared in zip(row, row.types))
    detail = dict(zip(row, values))
    varying = [name for name, declared in zip(row, row.types) if declared in (int, float) and data.draw(st.booleans())]
    site = row.site(**{name: value for name, value in detail.items() if name not in varying})
    args = tuple(detail[name] for name in varying)
    line = eng.serialize_log([eng.LogEntry(seq, t_us, row.kind, detail)])
    assert site.line % (seq, t_us, *args) == line.encode("ascii")
    assert site.row is row and site.values((seq, t_us, *args)) == values
    # and the writer writes a block's line as its seq and t_us, then a fully fixed site's tail
    out = io.BytesIO()
    eng.LogWriter(out).block(row, seq, t_us, [(values, row.site(**detail).tail())])
    assert out.getvalue() == line.encode("ascii")


# values of each declared type that a line holds as they are written
# (printable ASCII but `"` and `\`, up to 18 digits, finite floats)
_canonical_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'), max_size=6)
_canonical_float = st.floats(allow_nan=False, allow_infinity=False)
_canonical_int = st.integers(-(10**17), 10**17)
_CANONICAL_VALUES = {
    int: _canonical_int,
    float: _canonical_float,
    str: _canonical_text,
    str | None: st.none() | _canonical_text,
    float | None: st.none() | _canonical_float,
    list: st.lists(_canonical_text, max_size=3),
    dict: st.dictionaries(_canonical_text, _canonical_float | _canonical_text, max_size=3),
}
_MUTATIONS = st.sampled_from(["none", "truncate", "cut", "pad", "kind", "drop", "crlf"])


@settings(max_examples=300)
@given(data=st.data())
def test_the_stats_scan_reads_what_the_canonical_scan_reads(data):
    # the stats pass's regex captures only the fields `_STATS_FIELDS`
    # declares, from the same row patterns as `_CANONICAL`, which captures
    # them all: over site lines of drawn values of every row (any split into
    # fixed and varying), and mutations of them, both tile a text alike,
    # name the same row, and read the same seq, t_us and declared fields
    lines = []
    for _ in range(data.draw(st.integers(1, 3))):
        shape = data.draw(st.sampled_from(list(eng.LOG_FIELDS)))
        row = eng.LOG_FIELDS[shape]
        drawn = _CANONICAL_VALUES if data.draw(st.booleans()) else _DECLARED
        seq, t_us = data.draw(drawn[int]), data.draw(drawn[int])
        detail = {name: shape[1] if name == "layer" else data.draw(drawn[declared]) for name, declared in zip(row, row.types)}
        varying = [name for name, declared in zip(row, row.types) if declared in (int, float) and data.draw(st.booleans())]
        site = row.site(**{name: value for name, value in detail.items() if name not in varying})
        line = (site.line % (seq, t_us, *[detail[name] for name in varying])).decode("ascii")
        mutation = data.draw(_MUTATIONS)
        if mutation == "truncate":
            line = line[: data.draw(st.integers(0, len(line) - 1))]
        elif mutation == "cut":  # one character of one field's value, its first or last often
            match, field = eng._CANONICAL.match(line), data.draw(st.integers(0, len(row) - 1))
            start, end = match.span(row.group - len(row) + field) if match.lastindex == row.group else (0, len(line))
            if start < end:
                at = data.draw(st.sampled_from([start, end - 1]) | st.integers(start, end - 1))
                line = line[:at] + line[at + 1 :]
        elif mutation == "pad":
            at = data.draw(st.integers(0, len(line) - 1))
            line = line[:at] + data.draw(st.sampled_from([" ", "\t", "  "])) + line[at:]
        elif mutation == "kind":
            other = data.draw(st.sampled_from(sorted(eng.LOG_KINDS - {row.kind})))
            line = line.replace(f'"kind": "{row.kind}"', f'"kind": "{other}"', 1)
        elif mutation == "drop":
            del detail[data.draw(st.sampled_from(row))]
            line = eng.render({"seq": seq, "t_us": t_us, "kind": row.kind, "detail": detail}) + "\n"
        elif mutation == "crlf":
            line = line.removesuffix("\n") + "\r\n"
        lines.append(line)
    text = "".join(lines)
    canonical, counted = list(eng._CANONICAL.finditer(text)), list(eng._STATS.finditer(text))
    assert [match.span() for match in canonical] == [match.span() for match in counted]
    for full, read in zip(canonical, counted):
        row = eng._ROWS[full.lastindex]
        assert eng._STATS_ROWS[read.lastindex] is row
        if row is None:
            continue
        assert read.group(1, 2) == full.group(1, 2)
        names = eng._STATS_FIELDS.get((row.kind, row.layer), ())
        groups = eng._STATS_GROUPS[row.kind, row.layer][1:] if names else ()
        assert [read[group] for group in groups] == [full[row.group - len(row) + row.index(name)] for name in names]


def test_a_site_varies_only_numbers_of_its_row():
    with pytest.raises(TypeError, match="^task_start field 'task' is no number: it cannot vary$"):
        eng._TASK_START.site()
    with pytest.raises(TypeError, match="^task_finish has no field 'reason'$"):
        eng._TASK_FINISH.site(task="t", reason="safety_halt")
    # a `message` site holds its row's own layer
    site = eng._PROCESSED_MESSAGE.site(topic="t")
    assert site.values((0, 0, 1, 2.0, 3)) == ("t", "processing", 1, 2.0, 3)


def test_dispatch_dominance_reconstructed_from_log(touch_config_text):
    # Closely spaced readings back the queue up so dispatches actually compete.
    trace_text = "\n".join(
        json.dumps({"t_us": 1000 + 30 * i, "sensor": "touch", "value": float(i % 2) * 2})
        for i in range(40)
    )
    log = _run_texts(touch_config_text, THREE_RULES, trace_text)
    starts = [e for e in log.entries if e.kind == "task_start"]
    update_seqs = [e.seq for e in log.entries if e.kind == "priority_update"]
    assert len(starts) > 40
    for i, a in enumerate(starts):
        for b in starts[i + 1 :]:
            # b was already queued when a dispatched, and no window boundary
            # re-priced tasks in between: a must not be outranked.
            if b.detail["enqueue_t_us"] < a.t_us and not any(
                a.seq < u < b.seq for u in update_seqs
            ):
                assert b.detail["priority"] <= a.detail["priority"]


def test_trace_rejects_non_finite_values(touch_config_text):
    config = parse_config(touch_config_text)
    with pytest.raises(eng.TraceError, match="finite"):
        eng.load_trace('{"t_us": 1, "sensor": "touch", "value": Infinity}', config)


def _readme_detail_table() -> dict[tuple[str, str | None], tuple[tuple[str, str], ...]]:
    """README's per-kind detail-field table: (kind, message layer or None) ->
    (field name, its documented type) in their documented order."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("| kind | detail fields |\n", 1)[1].split("\n\n", 1)[0]
    fields: dict[tuple[str, str | None], tuple[tuple[str, str], ...]] = {}
    for row in table.splitlines()[1:]:
        kind_cell, fields_cell = row.strip("|").split("|")
        kind, layer = re.fullmatch(r" `(\w+)`(?: \(layer `(\w+)`\))? ", kind_cell).groups()
        while "(" in fields_cell:  # drop each parenthesised remark, innermost first
            fields_cell = re.sub(r"\([^()]*\)", "", fields_cell)
        fields[(kind, layer)] = tuple(re.fullmatch(r" *`(\w+)` (.*?) *", part).groups() for part in fields_cell.split(","))
    return fields


def _readme_detail_fields() -> dict[tuple[str, str | None], tuple[str, ...]]:
    """README's per-kind detail-field table: (kind, message layer or None) ->
    field names in their documented order."""
    return {shape: tuple(name for name, _type in cells) for shape, cells in _readme_detail_table().items()}


def test_readme_detail_fields_table_is_log_fields():
    # same rows, fields and order, with no run needed
    assert list(_readme_detail_fields().items()) == list(eng.LOG_FIELDS.items())


# README's type words -> the type a row declares; a quoted literal such as `"sensor"` is a string
_README_TYPES = {
    "string": str,
    "number": float,
    "integer": int,
    "string or null": str | None,
    "number or null": float | None,
    "object": dict,
    "array of strings": list,
}


def test_readme_detail_types_are_the_declared_types():
    documented = {
        shape: tuple(str if text.startswith('`"') else _README_TYPES[text] for _name, text in cells)
        for shape, cells in _readme_detail_table().items()
    }
    assert documented == {shape: row.types for shape, row in eng.LOG_FIELDS.items()}


def test_emitted_entry_shapes_are_log_fields_rows(touch_config_text, behavior_text, touch_trace_text):
    # a window boundary, a rule that suppresses two others, a STOP during a
    # running task and a reading after it cover the kinds the fixture trio lacks
    halting_trace = "\n".join(
        [
            '{"t_us": 1000, "sensor": "touch", "value": 5}',
            '{"t_us": 1000000, "sensor": "touch", "value": 1}',
            '{"t_us": 1000050, "override": "STOP"}',
            '{"t_us": 2000000, "sensor": "touch", "value": 2}',
        ]
    )
    entries = (
        _run_texts(touch_config_text, behavior_text, touch_trace_text).entries
        + _run_texts(touch_config_text, THREE_RULES, halting_trace).entries
    )
    emitted: dict[tuple[str, str | None], set[tuple[str, ...]]] = {}
    for entry in entries:
        key = (entry.kind, entry.detail["layer"] if entry.kind == "message" else None)
        emitted.setdefault(key, set()).add(tuple(entry.detail))
    assert emitted == {shape: {fields} for shape, fields in eng.LOG_FIELDS.items()}


# ---------------------------------------------------------------------------
# layering audit over engine deliveries


def test_deliveries_respect_adjacency(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    assert log.deliveries
    for record in log.deliveries:
        if record.safety:
            continue
        assert int(record.subscriber_layer) == int(record.producer_layer) + 1


@pytest.mark.parametrize("check_name", ["overforce", "override"])
def test_safety_halt_adds_one_record_per_layer(check_name):
    # a check may share the override's name: the audit keys on the halting sensor
    config_text = SAFETY_CONFIG.replace('"overforce"', f'"{check_name}"')
    trace_text = "\n".join(
        [
            '{"t_us": 1000, "sensor": "force", "value": 3.0}',
            '{"t_us": 5000, "sensor": "force", "value": 12.0}',
            '{"t_us": 6000, "sensor": "force", "value": 1.0}',
        ]
    )
    log = _run_texts(config_text, SAFETY_PROGRAM, trace_text)
    halt = next(e for e in log.entries if e.kind == "safety_halt")
    messages = [e for e in log.entries if e.kind == "message"]
    assert messages and all(e.seq < halt.seq for e in messages)
    records = log.deliveries
    assert [r.seq for r in records[:-4]] == [e.detail["bus_seq"] for e in messages]
    assert not any(r.safety for r in records[:-4])
    safety = records[-4:]
    assert [r.subscriber_layer for r in safety] == list(Layer)
    assert {(r.topic, r.producer_layer, r.seq, r.safety) for r in safety} == {
        (f"safety.{check_name}", None, -1, True)
    }


def test_override_halt_adds_no_safety_record():
    trace_text = "\n".join(
        [
            '{"t_us": 1000, "sensor": "force", "value": 3.0}',
            '{"t_us": 5000, "override": "STOP"}',
        ]
    )
    log = _run_texts(SAFETY_CONFIG, SAFETY_PROGRAM, trace_text)
    assert any(e.kind == "safety_halt" for e in log.entries)
    messages = [e for e in log.entries if e.kind == "message"]
    assert [r.seq for r in log.deliveries] == [e.detail["bus_seq"] for e in messages]
    assert not any(r.safety for r in log.deliveries)
