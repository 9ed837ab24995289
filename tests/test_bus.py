from __future__ import annotations

import math
import random

import pytest

from robosync import bus as mbus
from robosync.config import SafetyCheckSpec


def _bus_with_topics():
    bus = mbus.MessageBus()
    touch = bus.create_topic("touch", mbus.Layer.SENSOR)
    touch_proc = bus.create_topic("touch_proc", mbus.Layer.PROCESSING)
    arms_cmd = bus.create_topic("arms_cmd", mbus.Layer.BEHAVIOR)
    return bus, touch, touch_proc, arms_cmd


# ---------------------------------------------------------------------------
# subscribe


def test_adjacent_subscription_allowed():
    bus, touch, _, _ = _bus_with_topics()
    sub = bus.subscribe(touch, mbus.Layer.PROCESSING)
    assert touch.subscriptions == [sub]
    assert bus.routes()["touch"] == (mbus.Layer.SENSOR, (mbus.Layer.PROCESSING,))


def test_skipping_layers_rejected():
    bus, touch, _, _ = _bus_with_topics()
    with pytest.raises(mbus.LayeringError) as exc:
        bus.subscribe(touch, mbus.Layer.CONTROL)
    assert exc.value.producer_layer is mbus.Layer.SENSOR
    assert exc.value.subscriber_layer is mbus.Layer.CONTROL
    assert touch.subscriptions == []


def test_reversed_direction_rejected():
    bus, _, touch_proc, arms_cmd = _bus_with_topics()
    with pytest.raises(mbus.LayeringError):
        bus.subscribe(arms_cmd, mbus.Layer.PROCESSING)
    with pytest.raises(mbus.LayeringError):
        bus.subscribe(touch_proc, mbus.Layer.SENSOR)


def test_same_layer_rejected():
    bus, touch, _, _ = _bus_with_topics()
    with pytest.raises(mbus.LayeringError):
        bus.subscribe(touch, mbus.Layer.SENSOR)


def test_duplicate_topic_rejected():
    bus, _, _, _ = _bus_with_topics()
    with pytest.raises(mbus.DuplicateTopicError):
        bus.create_topic("touch", mbus.Layer.SENSOR)


def test_topic_carries_its_layer_label():
    _, touch, touch_proc, arms_cmd = _bus_with_topics()
    assert [(t.name, t.label) for t in (touch, touch_proc, arms_cmd)] == [
        ("touch", "sensor"),
        ("touch_proc", "processing"),
        ("arms_cmd", "behavior"),
    ]


def test_close_detaches_every_subscription():
    bus, touch, touch_proc, _ = _bus_with_topics()
    got: list[mbus.Message] = []
    bus.subscribe(touch, mbus.Layer.PROCESSING, got.append)
    bus.subscribe(touch_proc, mbus.Layer.BEHAVIOR, got.append)
    bus.close()
    assert touch.subscriptions == touch_proc.subscriptions == []
    assert bus.publish(touch, 1.0).seq == 0
    assert got == []


# ---------------------------------------------------------------------------
# publish


def test_publish_without_subscribers_still_sequences():
    bus, touch, _, _ = _bus_with_topics()
    message = bus.publish(touch, 1.0)
    assert message.seq == 0
    assert message.topic is touch


def test_fanout_delivers_identical_message():
    bus, touch, _, _ = _bus_with_topics()
    got_a: list[mbus.Message] = []
    got_b: list[mbus.Message] = []
    bus.subscribe(touch, mbus.Layer.PROCESSING, got_a.append)
    bus.subscribe(touch, mbus.Layer.PROCESSING, got_b.append)
    message = bus.publish(touch, 4.2)
    assert got_a == [message]
    assert got_b == [message]
    assert got_a[0].seq == got_b[0].seq == 0


def test_global_seq_strictly_increasing_and_gap_free():
    bus, touch, _, _ = _bus_with_topics()
    seqs = [bus.publish(touch, float(i)).seq for i in range(20)]
    assert seqs == list(range(20))


def test_interleaved_publishes_preserve_global_order():
    # Reference implementation: one flat list of (seq, topic, payload).
    bus = mbus.MessageBus()
    topics = {name: bus.create_topic(name, mbus.Layer.SENSOR) for name in ("a", "b")}
    received: dict[str, list[mbus.Message]] = {"a": [], "b": []}
    for name, topic in topics.items():
        bus.subscribe(topic, mbus.Layer.PROCESSING, received[name].append)

    reference: list[tuple[int, str, float]] = []
    rng = random.Random(11)
    for i in range(200):
        topic = rng.choice(("a", "b"))
        message = bus.publish(topics[topic], float(i))
        reference.append((message.seq, topic, float(i)))

    for name, messages in received.items():
        expected = [(s, p) for s, t, p in reference if t == name]
        got = [(m.seq, m.payload) for m in messages]
        assert got == expected
        assert got == sorted(got)  # subsequence of global order


def test_handler_invoked_in_subscription_order():
    bus, touch, _, _ = _bus_with_topics()
    calls: list[str] = []
    bus.subscribe(touch, mbus.Layer.PROCESSING, lambda m: calls.append("first"))
    bus.subscribe(touch, mbus.Layer.PROCESSING, lambda m: calls.append("second"))
    bus.publish(touch, 0.0)
    assert calls == ["first", "second"]


# ---------------------------------------------------------------------------
# safety


CHECK = SafetyCheckSpec(name="overforce", sensor="force", threshold=10.0)


def test_exceedance_halts():
    assert mbus.evaluate_safety(12.0, CHECK) is True


def test_boundary_continues():
    assert mbus.evaluate_safety(10.0, CHECK) is False


def test_well_below_continues():
    assert mbus.evaluate_safety(3.0, CHECK) is False


def test_safety_matches_direct_predicate_on_randomized_inputs():
    rng = random.Random(3)
    readings = [rng.uniform(-1e6, 1e6) for _ in range(500)]
    readings += [10.0, math.nextafter(10.0, math.inf), math.nextafter(10.0, -math.inf), float("inf"), -float("inf")]
    for reading in readings:
        expected = reading > CHECK.threshold
        assert mbus.evaluate_safety(reading, CHECK) is expected
