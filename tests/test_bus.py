from __future__ import annotations

import math
import random

import pytest

from robosync import bus as mbus
from robosync.config import SafetyCheckSpec


def _bus_with_topics():
    bus = mbus.MessageBus()
    bus.create_topic("touch", mbus.Layer.SENSOR, producer="sensor")
    bus.create_topic("touch_proc", mbus.Layer.PROCESSING, producer="proc")
    bus.create_topic("arms_cmd", mbus.Layer.BEHAVIOR, producer="rules")
    return bus


# ---------------------------------------------------------------------------
# subscribe


def test_adjacent_subscription_allowed():
    bus = _bus_with_topics()
    sub = bus.subscribe("touch", mbus.Layer.PROCESSING)
    assert sub.topic.name == "touch"


def test_skipping_layers_rejected():
    bus = _bus_with_topics()
    with pytest.raises(mbus.LayeringError) as exc:
        bus.subscribe("touch", mbus.Layer.CONTROL)
    assert exc.value.producer_layer is mbus.Layer.SENSOR
    assert exc.value.subscriber_layer is mbus.Layer.CONTROL


def test_reversed_direction_rejected():
    bus = _bus_with_topics()
    with pytest.raises(mbus.LayeringError):
        bus.subscribe("arms_cmd", mbus.Layer.PROCESSING)
    with pytest.raises(mbus.LayeringError):
        bus.subscribe("touch_proc", mbus.Layer.SENSOR)


def test_same_layer_rejected():
    bus = _bus_with_topics()
    with pytest.raises(mbus.LayeringError):
        bus.subscribe("touch", mbus.Layer.SENSOR)


def test_unknown_topic():
    bus = _bus_with_topics()
    with pytest.raises(mbus.UnknownTopicError):
        bus.subscribe("ghost", mbus.Layer.PROCESSING)


def test_duplicate_topic_rejected():
    bus = _bus_with_topics()
    with pytest.raises(mbus.DuplicateTopicError):
        bus.create_topic("touch", mbus.Layer.SENSOR, producer="other")


# ---------------------------------------------------------------------------
# publish


def test_publish_without_subscribers_still_sequences():
    bus = _bus_with_topics()
    message = bus.publish("touch", 1.0, 10, publisher="sensor")
    assert message.seq == 0


def test_fanout_delivers_identical_message():
    bus = _bus_with_topics()
    got_a: list[mbus.Message] = []
    got_b: list[mbus.Message] = []
    bus.subscribe("touch", mbus.Layer.PROCESSING, got_a.append)
    bus.subscribe("touch", mbus.Layer.PROCESSING, got_b.append)
    message = bus.publish("touch", 4.2, 5, publisher="sensor")
    assert got_a == [message]
    assert got_b == [message]
    assert got_a[0].seq == got_b[0].seq == 0


def test_foreign_publisher_rejected():
    bus = _bus_with_topics()
    with pytest.raises(mbus.ForeignPublisherError):
        bus.publish("touch", 1.0, 0, publisher="impostor")


def test_global_seq_strictly_increasing_and_gap_free():
    bus = _bus_with_topics()
    seqs = [bus.publish("touch", float(i), i, publisher="sensor").seq for i in range(20)]
    assert seqs == list(range(20))


def test_interleaved_publishes_preserve_global_order():
    # Reference implementation: one flat list of (seq, topic, payload).
    bus = mbus.MessageBus()
    bus.create_topic("a", mbus.Layer.SENSOR, producer="p")
    bus.create_topic("b", mbus.Layer.SENSOR, producer="p")
    received: dict[str, list[mbus.Message]] = {"a": [], "b": []}
    bus.subscribe("a", mbus.Layer.PROCESSING, received["a"].append)
    bus.subscribe("b", mbus.Layer.PROCESSING, received["b"].append)

    reference: list[tuple[int, str, float]] = []
    rng = random.Random(11)
    for i in range(200):
        topic = rng.choice(("a", "b"))
        message = bus.publish(topic, float(i), i, publisher="p")
        reference.append((message.seq, topic, float(i)))

    for name, messages in received.items():
        expected = [(s, p) for s, t, p in reference if t == name]
        got = [(m.seq, m.payload) for m in messages]
        assert got == expected
        assert got == sorted(got)  # subsequence of global order


def test_handler_invoked_in_subscription_order():
    bus = _bus_with_topics()
    calls: list[str] = []
    bus.subscribe("touch", mbus.Layer.PROCESSING, lambda m: calls.append("first"))
    bus.subscribe("touch", mbus.Layer.PROCESSING, lambda m: calls.append("second"))
    bus.publish("touch", 0.0, 0, publisher="sensor")
    assert calls == ["first", "second"]


def test_publish_time_must_not_regress():
    bus = _bus_with_topics()
    bus.publish("touch", 1.0, 100, publisher="sensor")
    with pytest.raises(mbus.BusError, match="before bus time"):
        bus.publish("touch", 2.0, 50, publisher="sensor")


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
