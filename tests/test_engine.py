from __future__ import annotations

import enum
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from robosync import dsl, engine as eng
from robosync.bus import Layer
from robosync.config import parse_config
from robosync.dsl import bind_program, parse_program


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
    assert events[1].is_override


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
    assert eng.compute_stats(log.entries).behaviors_suppressed == 0


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


# ---------------------------------------------------------------------------
# windows and adaptation


def test_empty_trace_empty_log(touch_config_text, behavior_text):
    log = _run_texts(touch_config_text, behavior_text, "")
    assert log.entries == []


def test_empty_trace_with_horizon_ticks_windows(touch_config_text, behavior_text):
    log = _run_texts(touch_config_text, behavior_text, "", horizon_us=2_500_000)
    assert log.entries
    assert all(e.kind == "priority_update" for e in log.entries)
    boundaries = sorted({e.t_us for e in log.entries})
    assert boundaries == [1_000_000, 2_000_000]


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


# ---------------------------------------------------------------------------
# stats


def test_stats_empty_log():
    stats = eng.compute_stats([])
    assert stats.dispatches == 0
    assert stats.aborts == 0
    assert stats.halted is False
    assert stats.halt_t_us is None
    assert stats.latency_min_us == stats.latency_max_us == 0
    assert stats.latency_mean_us == 0.0
    assert dict(stats.messages_per_layer) == {"sensor": 0, "processing": 0, "behavior": 0, "control": 0}


def test_stats_zero_latency_task():
    entries = [
        eng.LogEntry(0, 100, "task_start", {"task": "t", "enqueue_seq": 0, "enqueue_t_us": 100, "priority": 0.5}),
        eng.LogEntry(1, 200, "task_finish", {"task": "t", "enqueue_seq": 0}),
    ]
    stats = eng.compute_stats(entries)
    assert stats.dispatches == 1
    assert stats.latency_min_us == stats.latency_mean_us == stats.latency_max_us == 0


def test_stats_recount_oracle(touch_config_text, behavior_text, touch_trace_text):
    log = _run_texts(touch_config_text, behavior_text, touch_trace_text)
    stats = eng.compute_stats(log.entries)

    # independent recount: a plain Counter walk over the entries
    kinds = Counter(e.kind for e in log.entries)
    layers = Counter(e.detail["layer"] for e in log.entries if e.kind == "message")
    assert stats.dispatches == kinds["task_start"]
    assert stats.aborts == kinds.get("task_abort", 0)
    assert stats.behaviors_fired == kinds["behavior_fired"]
    assert stats.behaviors_suppressed == kinds.get("behavior_suppressed", 0)
    assert dict(stats.messages_per_layer) == {
        "sensor": layers.get("sensor", 0),
        "processing": layers.get("processing", 0),
        "behavior": layers.get("behavior", 0),
        "control": layers.get("control", 0),
    }
    latencies = [
        e.t_us - e.detail["enqueue_t_us"] for e in log.entries if e.kind == "task_start"
    ]
    assert stats.latency_min_us == min(latencies)
    assert stats.latency_max_us == max(latencies)
    assert stats.latency_mean_us == pytest.approx(sum(latencies) / len(latencies))
    assert stats.halted is False


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
    entries = eng.parse_log(_start_line(enqueue_t_us=enqueue_t_us) + _FINISH_LINE)
    with pytest.raises(eng.MalformedLogError, match=reason):
        eng.compute_stats(entries)


def test_fixed_decimal_float_rendering():
    entry = eng.LogEntry(0, 5, "sensor_event", {"sensor": "s", "value": 2.0})
    assert eng.render_log_entry(entry) == (
        '{"seq": 0, "t_us": 5, "kind": "sensor_event", "detail": {"sensor": "s", "value": 2.000000}}'
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
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_awkward_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _logs(draw):
    """Entries drawn from a few (kind, detail keys) shapes, each filled with
    fresh values of any type, so templates are reused across value types."""
    kinds = st.sampled_from(sorted(eng.LOG_KINDS)) | _awkward_text
    shapes = draw(st.lists(st.tuples(kinds, st.lists(_awkward_text, unique=True, max_size=4)), min_size=1, max_size=3))
    entries = []
    for _ in range(draw(st.integers(1, 8))):
        kind, keys = draw(st.sampled_from(shapes))
        detail = {k: draw(_values) for k in keys}
        entries.append(eng.LogEntry(draw(st.integers() | _scalars), draw(st.integers()), kind, detail))
    return entries


@settings(max_examples=300)
@given(entries=_logs())
def test_log_rendering_matches_oracle(entries):
    assert [eng.render_log_entry(e) for e in entries] == [_oracle_line(e) for e in entries]
    assert eng.serialize_log(entries) == "".join(_oracle_line(e) + "\n" for e in entries)


@given(values=st.lists(_values, min_size=11, max_size=11))
def test_stats_rendering_matches_oracle(values):
    layers = tuple((label, value) for label, value in zip(("sensor", "processing"), values[:2]))
    stats = eng.SimStats(layers, *values[2:])
    assert eng.serialize_stats(stats) == _render_json_oracle(stats.to_dict()) + "\n"


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


@pytest.mark.parametrize(
    "entries",
    [
        [eng.LogEntry(0, 5, "behavior_fired", {"behavior": "b", "priority": _Level.HIGH})],
        [eng.LogEntry(_Level.HIGH, 5, _Name("play_cmd"), {"resource": _Name('a"b.wav')})],
        # a MOVE speed word bound to 1 clamps to the int 1 and prints as one
        [
            eng.LogEntry(0, 5, "actuator_cmd", {"actuator": "arms", "action": "move", "value": 0.25}),
            eng.LogEntry(1, 6, "actuator_cmd", {"actuator": "arms", "action": "move", "value": 1}),
        ],
        # equal keys of different types share no template
        [eng.LogEntry(0, 5, "k", {1: "a"}), eng.LogEntry(1, 5, "k", {True: "a"}), eng.LogEntry(2, 5, "k", {1.0: "a"})],
    ],
    ids=["int_enum", "str_subclass", "int_in_float_field", "equal_keys"],
)
def test_log_rendering_examples(entries):
    assert eng.serialize_log(entries) == "".join(_oracle_line(e) + "\n" for e in entries)


def test_int_speed_word_renders_as_int(touch_config_text, behavior_text, touch_trace_text):
    config = parse_config(touch_config_text)
    program = bind_program(parse_program(behavior_text), config, speed_words={"slowly": 1, "quickly": 1})
    log = eng.run(config, program, eng.load_trace(touch_trace_text, config))
    moves = [line for line in eng.serialize_log(log.entries).splitlines() if '"action": "move"' in line]
    assert moves and all('"value": 1, ' in line or '"value": 1}' in line for line in moves)


def test_unsupported_value_type_raises():
    entry = eng.LogEntry(0, 5, "sensor_event", {"sensor": "s", "value": {1, 2}})
    for render in (eng.render_log_entry, lambda e: eng.serialize_log([e]), _oracle_line):
        with pytest.raises(TypeError, match="^cannot serialize set$"):
            render(entry)


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
