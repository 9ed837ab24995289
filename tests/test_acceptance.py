"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with `pytest -s`) and enforcing its runtime budget."""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from robosync import dsl, engine as eng, sched
from robosync.bus import Layer, LayeringError, MessageBus
from robosync.config import SchedulerParams, parse_config, serialize_config, validate_config
from robosync.dsl import bind_program, format_program, parse_program

from conftest import FIXTURES, generate_program


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"criterion {number:2d} PASS ({elapsed:.2f}s): {description}")


def _run_fixture_trio():
    config = parse_config((FIXTURES / "touch_config.json").read_text())
    program = bind_program(parse_program((FIXTURES / "behavior.rsb").read_text()), config)
    trace = eng.load_trace((FIXTURES / "touch_trace.jsonl").read_text(), config)
    return eng.run(config, program, trace)


def test_criterion_1_end_to_end_fixture():
    with criterion(1, "reference DSL scenario end to end, golden log byte-exact", 1.0):
        log = _run_fixture_trio()
        entries = log.entries

        fired = [e for e in entries if e.kind == "behavior_fired"]
        moves = [e for e in entries if e.kind == "actuator_cmd"]
        plays = [e for e in entries if e.kind == "play_cmd"]
        assert [e.detail["behavior"] for e in fired] == ["gentle_response", "aggressive_response"]
        assert [(e.detail["actuator"], e.detail["value"]) for e in moves] == [("arms", 0.25), ("arms", 1.0)]
        assert [e.detail["resource"] for e in plays] == ["greeting.wav", "warning.wav"]
        expected_order = [fired[0], moves[0], plays[0], fired[1], moves[1], plays[1]]
        assert [e.seq for e in expected_order] == sorted(e.seq for e in expected_order)

        golden = (FIXTURES / "golden_touch_log.jsonl").read_text()
        assert eng.serialize_log(entries) == golden
        assert eng.serialize_log(_run_fixture_trio().entries) == golden


def test_criterion_2_minimal_config_fixture():
    with criterion(2, "minimal reference config parses cleanly and round-trips", 1.0):
        text = (FIXTURES / "minimal_config.json").read_text()
        config = parse_config(text)
        assert validate_config(config).ok
        assert parse_config(serialize_config(config)) == config


def test_criterion_3_scheduler_oracle():
    with criterion(3, "max-inheritance priorities match brute force on 500 random graphs", 5.0):
        rng = random.Random(0xACC3)
        for _ in range(500):
            n_behaviors = rng.randint(1, 6)
            pool = rng.sample([i / 64.0 for i in range(1, 64)], n_behaviors)
            behaviors = {f"b{i}": pool[i] for i in range(n_behaviors)}
            usage = {
                f"t{j}": {b for b in behaviors if rng.random() < 0.5}
                for j in range(rng.randint(1, 10))
            }
            safety = {t for t in usage if rng.random() < 0.25}
            got = sched.assign_base_priorities(behaviors, usage, safety)
            for task_id, used in usage.items():
                if task_id in safety:
                    expected = 1.0
                else:
                    expected = None
                    for b, p in behaviors.items():
                        if b in used and (expected is None or p > expected):
                            expected = p
                    if expected is None:
                        expected = sched.UNLINKED_BASE_PRIORITY
                assert got[task_id] == expected  # zero tolerance


def test_criterion_4_adaptive_priority_arithmetic():
    with criterion(4, "windowed priority adjustment equals min(base + a*F/W, 1)", 1.0):
        for alpha in (0.0, 0.05, 0.5):
            for f in range(11):
                for w_seconds in (0.5, 1.0, 10.0):
                    for base in (0.1, 0.5, 0.99):
                        params = SchedulerParams(
                            alpha=alpha,
                            window_us=int(w_seconds * 1e6),
                            p_max=1.0,
                            default_task_cost_us=100,
                        )
                        tasks = {
                            "t": sched.TaskDescriptor(
                                "t", sched.TaskCategory.BEHAVIORAL, frozenset({"b"}), base, base, 100
                            ),
                            "guard": sched.TaskDescriptor(
                                "guard", sched.TaskCategory.SAFETY, frozenset(), 1.0, 1.0, 100
                            ),
                        }
                        counter = sched.FrequencyCounter("b")
                        for k in range(f):
                            sched.record_trigger(counter, k)
                        sched.adapt_priorities(tasks, {"b": counter}, params, params.window_us)
                        expected = min(base + alpha * f / w_seconds, 1.0)
                        assert abs(tasks["t"].current_priority - expected) <= 1e-12
                        assert tasks["guard"].current_priority == 1.0


def _random_halt_trace(rng: random.Random) -> tuple[str, int]:
    events = []
    t = 0
    count = rng.randint(5, 40)
    spike_at = rng.randrange(count)
    spike_t = None
    for i in range(count):
        t += rng.randint(30, 300)
        value = 12.0 if i == spike_at else rng.uniform(0.0, 9.0)
        if i == spike_at:
            spike_t = t
        events.append(json.dumps({"t_us": t, "sensor": "force", "value": value}))
    assert spike_t is not None
    return "\n".join(events), spike_t


SAFETY_CONFIG = """
{
    "sensors": [{"name": "force", "type": "analog", "pin": 0, "delta": 0.0}],
    "actuators": [{"name": "arms", "type": "pwm"}, {"name": "sound", "type": "audio"}],
    "safety_checks": [{"name": "overforce", "sensor": "force", "threshold": 10.0}]
}
"""

SAFETY_PROGRAM = """
WHEN force > 0
DO react
END

DEFINE react
MOVE arms SLOWLY
PLAY sound "beep.wav"
END
"""


def test_criterion_5_halt_semantics():
    with criterion(5, "one super-threshold reading halts exactly once, aborting in-flight work", 5.0):
        config = parse_config(SAFETY_CONFIG)
        program = bind_program(parse_program(SAFETY_PROGRAM), config)
        rng = random.Random(0x4A17)
        for _ in range(100):
            trace_text, spike_t = _random_halt_trace(rng)
            trace = eng.load_trace(trace_text, config)
            log = eng.run(config, program, trace)
            entries = log.entries

            halts = [e for e in entries if e.kind == "safety_halt"]
            assert len(halts) == 1
            halt = halts[0]
            assert halt.t_us == spike_t
            assert not any(
                e.kind in ("actuator_cmd", "play_cmd") for e in entries[halt.seq + 1 :]
            )

            # every started task finished or aborted; aborts only at the halt instant
            open_tasks = {}
            for e in entries:
                if e.kind == "task_start":
                    open_tasks[(e.detail["task"], e.detail["enqueue_seq"])] = e
                elif e.kind in ("task_finish", "task_abort"):
                    key = (e.detail["task"], e.detail["enqueue_seq"])
                    started = open_tasks.pop(key)
                    if e.kind == "task_abort":
                        assert e.t_us == halt.t_us
                        # still in flight: its service interval contains the halt instant
                        assert started.t_us <= halt.t_us
            assert not open_tasks


def test_criterion_6_significance_gating():
    with criterion(6, "constant trace gates to 1 message, alternating 2*delta trace to 1000", 1.0):
        config = parse_config((FIXTURES / "touch_config.json").read_text())  # delta 0.5
        program = bind_program(parse_program((FIXTURES / "behavior.rsb").read_text()), config)

        def sensor_messages(values):
            trace_text = "\n".join(
                json.dumps({"t_us": 1000 * (i + 1), "sensor": "touch", "value": v})
                for i, v in enumerate(values)
            )
            trace = eng.load_trace(trace_text, config)
            log = eng.run(config, program, trace)
            return sum(
                1 for e in log.entries if e.kind == "message" and e.detail["layer"] == "sensor"
            )

        assert sensor_messages([5.0] * 1000) == 1
        alternating = [5.0 if i % 2 == 0 else 6.0 for i in range(1000)]  # steps of 2 * delta
        assert sensor_messages(alternating) == 1000


def test_criterion_7_layering_audit():
    with criterion(7, "no delivered non-safety message skips or reverses a layer", 5.0):
        all_deliveries = list(_run_fixture_trio().deliveries)

        config = parse_config(SAFETY_CONFIG)
        program = bind_program(parse_program(SAFETY_PROGRAM), config)
        rng = random.Random(0x7A7E)
        for _ in range(20):
            trace_text, _spike = _random_halt_trace(rng)
            log = eng.run(config, program, eng.load_trace(trace_text, config))
            all_deliveries.extend(log.deliveries)

        assert all_deliveries
        for record in all_deliveries:
            if record.safety:
                continue
            assert int(record.subscriber_layer) == int(record.producer_layer) + 1

        bus = MessageBus()
        touch = bus.create_topic("touch", Layer.SENSOR)
        with pytest.raises(LayeringError):
            bus.subscribe(touch, Layer.CONTROL)


def test_criterion_8_dsl_roundtrip():
    with criterion(8, "1000 fuzzed programs survive parse(format(p)) == p", 5.0):
        rng = random.Random(0x8F02)
        for _ in range(1000):
            program = generate_program(rng, max_depth=4)
            assert parse_program(format_program(program)) == program


def test_criterion_9_determinism():
    with criterion(9, "three repeated fixture runs are byte-identical", 5.0):
        logs = []
        stats = []
        for _ in range(3):
            log = _run_fixture_trio()
            logs.append(eng.serialize_log(log.entries))
            stats.append(eng.serialize_stats(eng.compute_stats(log.entries)))
        assert logs[0] == logs[1] == logs[2]
        assert stats[0] == stats[1] == stats[2]
        assert stats[0] == (FIXTURES / "golden_touch_stats.json").read_text()

        halt_config = parse_config(SAFETY_CONFIG)
        halt_program = bind_program(parse_program(SAFETY_PROGRAM), halt_config)
        trace = eng.load_trace(
            '{"t_us": 100, "sensor": "force", "value": 1}\n{"t_us": 150, "sensor": "force", "value": 12}',
            halt_config,
        )
        reruns = {eng.serialize_log(eng.run(halt_config, halt_program, trace).entries) for _ in range(3)}
        assert len(reruns) == 1


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


def test_criterion_10_single_response():
    with criterion(10, "three simultaneous rules fire once and suppress twice", 1.0):
        config = parse_config((FIXTURES / "touch_config.json").read_text())
        program = bind_program(parse_program(THREE_RULES), config)
        trace = eng.load_trace('{"t_us": 1000, "sensor": "touch", "value": 5}', config)
        log = eng.run(config, program, trace)
        fired = [e for e in log.entries if e.kind == "behavior_fired"]
        suppressed = [e for e in log.entries if e.kind == "behavior_suppressed"]
        assert len(fired) == 1
        assert len(suppressed) == 2
        assert fired[0].detail["behavior"] == "a"  # default pool: a=0.75 is the maximum
        assert {e.detail["behavior"] for e in suppressed} == {"b", "c"}
        assert fired[0].t_us == suppressed[0].t_us == suppressed[1].t_us
