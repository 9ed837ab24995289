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
    bus.subscribe(touch, mbus.Layer.PROCESSING)
    assert [layer for layer, _handler in touch.subscriptions] == [mbus.Layer.PROCESSING]
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
    got: list[tuple[int, object]] = []
    bus.subscribe(touch, mbus.Layer.PROCESSING, lambda seq, payload: got.append((seq, payload)))
    bus.subscribe(touch_proc, mbus.Layer.BEHAVIOR, lambda seq, payload: got.append((seq, payload)))
    bus.close()
    assert touch.subscriptions == touch_proc.subscriptions == []
    assert bus.publish(touch, 1.0) == 0
    assert got == []


# ---------------------------------------------------------------------------
# publish


def test_publish_without_subscribers_still_sequences():
    bus, touch, _, _ = _bus_with_topics()
    assert bus.publish(touch, 1.0) == 0


def test_fanout_delivers_identical_message():
    bus, touch, _, _ = _bus_with_topics()
    got_a: list[tuple[int, object]] = []
    got_b: list[tuple[int, object]] = []
    bus.subscribe(touch, mbus.Layer.PROCESSING, lambda seq, payload: got_a.append((seq, payload)))
    bus.subscribe(touch, mbus.Layer.PROCESSING, lambda seq, payload: got_b.append((seq, payload)))
    seq = bus.publish(touch, 4.2)
    assert got_a == [(seq, 4.2)]
    assert got_b == [(seq, 4.2)]
    assert got_a[0][0] == got_b[0][0] == 0


def test_global_seq_strictly_increasing_and_gap_free():
    bus, touch, _, _ = _bus_with_topics()
    seqs = [bus.publish(touch, float(i)) for i in range(20)]
    assert seqs == list(range(20))


def test_interleaved_publishes_preserve_global_order():
    # Reference implementation: one flat list of (seq, topic, payload).
    bus = mbus.MessageBus()
    topics = {name: bus.create_topic(name, mbus.Layer.SENSOR) for name in ("a", "b")}
    received: dict[str, list[tuple[int, object]]] = {"a": [], "b": []}
    for name, topic in topics.items():
        bus.subscribe(topic, mbus.Layer.PROCESSING, lambda seq, payload, got=received[name]: got.append((seq, payload)))

    reference: list[tuple[int, str, float]] = []
    rng = random.Random(11)
    for i in range(200):
        topic = rng.choice(("a", "b"))
        seq = bus.publish(topics[topic], float(i))
        reference.append((seq, topic, float(i)))

    for name, messages in received.items():
        expected = [(s, p) for s, t, p in reference if t == name]
        assert messages == expected
        assert messages == sorted(messages)  # subsequence of global order


def test_handler_invoked_in_subscription_order():
    bus, touch, _, _ = _bus_with_topics()
    calls: list[str] = []
    bus.subscribe(touch, mbus.Layer.PROCESSING, lambda seq, payload: calls.append("first"))
    bus.subscribe(touch, mbus.Layer.PROCESSING, lambda seq, payload: calls.append("second"))
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
