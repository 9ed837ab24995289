"""Layered publish-subscribe fabric.

Messages flow strictly sensor -> processing -> behavior -> control, one hop
at a time; subscriptions that skip or reverse layers are rejected.  Safety
checks are the single exception: they run on each raw reading as it arrives,
ahead of anything queued, and a check that trips halts every layer at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
class Topic:
    name: str
    producer_layer: Layer


# not frozen: one is built per publish, and a frozen dataclass takes about 3x
# as long to build
@dataclass(slots=True)
class Message:
    topic: Topic
    t_us: int
    seq: int
    payload: object


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


class UnknownTopicError(BusError):
    pass


class DuplicateTopicError(BusError):
    pass


class ForeignPublisherError(BusError):
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


@dataclass(slots=True)
class Subscription:
    topic: Topic
    subscriber_layer: Layer
    handler: Callable[[Message], None]


def _ignore(message: Message) -> None:
    pass


class MessageBus:
    """Single-owner, synchronous bus with a global atomic sequence.

    Topics are registered with a producer identity; only that producer may
    publish.  Each subscriber's handler runs inline at publish, in
    subscription order.  `routes` gives the static table the layering audit
    is derived from.
    """

    def __init__(self) -> None:
        self._topics: dict[str, Topic] = {}
        self._producers: dict[str, str] = {}
        self._subs: dict[str, list[Subscription]] = {}
        self._next_seq = 0
        self._last_t_us = 0

    def create_topic(self, name: str, producer_layer: Layer, producer: str) -> Topic:
        if name in self._topics:
            raise DuplicateTopicError(f"topic {name!r} already exists")
        topic = Topic(name, producer_layer)
        self._topics[name] = topic
        self._producers[name] = producer
        self._subs[name] = []
        return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(f"no topic {name!r}") from None

    @property
    def next_seq(self) -> int:
        """Sequence number the next publish will be assigned."""
        return self._next_seq

    def subscribe(
        self,
        name: str,
        subscriber_layer: Layer,
        handler: Callable[[Message], None] = _ignore,
    ) -> Subscription:
        """Attach a subscriber; only the immediately downstream layer may listen."""
        topic = self.topic(name)
        if int(subscriber_layer) != int(topic.producer_layer) + 1:
            raise LayeringError(topic.producer_layer, subscriber_layer, name)
        sub = Subscription(topic=topic, subscriber_layer=subscriber_layer, handler=handler)
        self._subs[name].append(sub)
        return sub

    def publish(self, name: str, payload: object, t_us: int, publisher: str) -> Message:
        """Publish one message; fan-out happens inline in subscription order."""
        topic = self.topic(name)
        if publisher != self._producers[name]:
            raise ForeignPublisherError(
                f"{publisher!r} is not the registered producer of {name!r}"
            )
        if t_us < self._last_t_us:
            raise BusError(f"publish at t={t_us} before bus time {self._last_t_us}")
        self._last_t_us = t_us
        message = Message(topic=topic, t_us=t_us, seq=self._next_seq, payload=payload)
        self._next_seq += 1
        for sub in self._subs[name]:
            sub.handler(message)
        return message

    def routes(self) -> dict[str, tuple[Layer, tuple[Layer, ...]]]:
        """topic -> (producer layer, each subscriber's layer in subscription order)."""
        return {
            name: (topic.producer_layer, tuple(sub.subscriber_layer for sub in self._subs[name]))
            for name, topic in self._topics.items()
        }


def evaluate_safety(reading: float, check: SafetyCheckSpec) -> bool:
    """Whether a raw reading trips a safety check: only a strict exceedance halts."""
    return reading > check.threshold
