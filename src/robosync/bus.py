"""Layered publish-subscribe fabric.

Messages flow strictly sensor -> processing -> behavior -> control, one hop
at a time; subscriptions that skip or reverse layers are rejected.  Safety
checks are the single exception: they run on each raw reading as it arrives,
ahead of anything queued, and a check that trips halts every layer at once.

Each topic is its own route, holding its subscriptions, so a publish looks
up nothing.  The bus keeps no producer identity and no clock: that each
topic has one producer is `config.validate_config`'s rule, and that time
never goes back is the engine's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .config import SafetyCheckSpec


class Layer(enum.IntEnum):
    SENSOR = 0
    PROCESSING = 1
    BEHAVIOR = 2
    CONTROL = 3

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """Audit row: one message handed to one subscriber, or one layer reached
    by a safety halt."""

    topic: str
    producer_layer: Layer | None
    subscriber_layer: Layer
    seq: int
    safety: bool = False


class BusError(Exception):
    pass


class DuplicateTopicError(BusError):
    pass


class LayeringError(BusError):
    def __init__(self, producer_layer: Layer, subscriber_layer: Layer, topic: str):
        super().__init__(
            f"topic {topic!r} is produced at the {producer_layer.label} layer; "
            f"a {subscriber_layer.label} subscriber is not the adjacent consumer"
        )
        self.producer_layer = producer_layer
        self.subscriber_layer = subscriber_layer
        self.topic = topic


@dataclass(slots=True, eq=False)
class Topic:
    """A route: the topic's name, its producer's layer and that layer's log
    label, and its subscriptions, as `(subscriber layer, handler)` pairs in
    the order they were made."""

    name: str
    producer_layer: Layer
    label: str = field(init=False)
    subscriptions: list[tuple[Layer, Callable[[int, object], None]]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.label = self.producer_layer.label


def _ignore(seq: int, payload: object) -> None:
    pass


class MessageBus:
    """Single-owner, synchronous bus with a global atomic sequence.

    `create_topic` returns the topic, and `subscribe` and `publish` take it:
    the bus looks up no name after setup and knows no producer identity.
    Each subscriber's handler runs inline at publish, in subscription order.
    `routes` gives the static table the layering audit is derived from.
    """

    def __init__(self) -> None:
        self._topics: dict[str, Topic] = {}
        self._next_seq = 0

    def create_topic(self, name: str, producer_layer: Layer) -> Topic:
        if name in self._topics:
            raise DuplicateTopicError(f"topic {name!r} already exists")
        topic = self._topics[name] = Topic(name, producer_layer)
        return topic

    @property
    def next_seq(self) -> int:
        """Sequence number the next publish will be assigned."""
        return self._next_seq

    def subscribe(
        self,
        topic: Topic,
        subscriber_layer: Layer,
        handler: Callable[[int, object], None] = _ignore,
    ) -> None:
        """Attach a subscriber; only the immediately downstream layer may listen."""
        if int(subscriber_layer) != int(topic.producer_layer) + 1:
            raise LayeringError(topic.producer_layer, subscriber_layer, topic.name)
        topic.subscriptions.append((subscriber_layer, handler))

    def publish(self, topic: Topic, payload: object) -> int:
        """Publish one message and return its seq; fan-out happens inline, in
        subscription order, as `handler(seq, payload)`."""
        seq = self._next_seq
        self._next_seq = seq + 1
        for _layer, handler in topic.subscriptions:
            handler(seq, payload)
        return seq

    def close(self) -> None:
        """Detach every subscription: handlers that point back at their owner
        then hold no topic in a reference cycle."""
        for topic in self._topics.values():
            topic.subscriptions.clear()

    def routes(self) -> dict[str, tuple[Layer, tuple[Layer, ...]]]:
        """topic -> (producer layer, each subscriber's layer in subscription order)."""
        return {
            name: (topic.producer_layer, tuple(layer for layer, _handler in topic.subscriptions))
            for name, topic in self._topics.items()
        }


def evaluate_safety(reading: float, check: SafetyCheckSpec) -> bool:
    """Whether a raw reading trips a safety check: only a strict exceedance halts."""
    return reading > check.threshold
