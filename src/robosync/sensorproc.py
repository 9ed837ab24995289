"""Processing layer: significance gating, sensor-check functions, and the
plugin registry that turns raw readings into processed topic values."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence


# not frozen: one is built per reading, and one more per reading the gate
# passes; a frozen dataclass takes about 3x as long to build
@dataclass(slots=True)
class Reading:
    """One raw sensor sample; `seq` is the bus sequence number of the gated
    sensor message it travelled in (0 when not yet published)."""

    sensor: str
    t_us: int
    value: float
    seq: int = 0


# not frozen: one is built per plugin output, and a frozen dataclass takes
# about 3x as long to build
@dataclass(slots=True)
class ProcessedValue:
    """Output of a plugin run, bound for a processing-layer topic."""

    topic: str
    t_us: int
    value: float
    source_seq: int


class UnknownPluginError(ValueError):
    """Raised when constructing a plugin instance with an unregistered name."""


class PluginParamError(ValueError):
    """Raised when a plugin's parameters are missing or malformed."""


class NonFiniteOutputError(ValueError):
    """Raised when a plugin step, or a window's priority adjustment in
    `sched.adapt_priorities`, overflows to an infinity or a NaN, which the log
    could not hold as JSON."""


def gate_significant(prev: float | None, curr: float, delta: float) -> bool:
    """Decide whether a reading is worth forwarding to the processing layer.

    The first reading always passes.  With delta > 0 a reading passes when it
    moved at least `delta` away from the last forwarded value; with delta == 0
    any change passes but exact repeats stay suppressed.
    """
    if prev is None:
        return True
    if delta > 0.0:
        return abs(curr - prev) >= delta
    return curr != prev


def touch_level(raw: float, thresholds: Sequence[float]) -> int:
    """Quantize a raw reading against an ascending threshold ladder.

    Returns the count of thresholds <= raw, i.e. level 0..len(thresholds);
    boundary values land on the higher level.
    """
    return bisect_right(list(thresholds), raw)


def jerk_level(history: Sequence[Reading]) -> float:
    """Magnitude of the second finite difference of the last three readings.

    Slopes are taken per second (timestamps are microseconds), so the three
    timestamps must differ.  Fewer than three readings give 0.
    """
    if len(history) < 3:
        return 0.0
    r0, r1, r2 = history[-3], history[-2], history[-1]
    dt1 = (r1.t_us - r0.t_us) / 1e6
    dt2 = (r2.t_us - r1.t_us) / 1e6
    slope1 = (r1.value - r0.value) / dt1
    slope2 = (r2.value - r1.value) / dt2
    return abs(slope2 - slope1)


# A step function consumes (state, reading) and returns the next processed
# value, or None when the plugin has no new insight yet.
StepFn = Callable[[list, Reading], "float | None"]


def _parse_thresholds(params: Mapping[str, object]) -> list[float]:
    raw = params.get("thresholds")
    if raw is None:
        raise PluginParamError("touch_level requires a 'thresholds' parameter")
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        values = [float(raw)]
    elif isinstance(raw, str):
        try:
            values = [float(part) for part in raw.split(",") if part.strip()]
        except ValueError as exc:
            raise PluginParamError(f"bad thresholds string {raw!r}") from exc
    else:
        raise PluginParamError("thresholds must be a number or comma string")
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise PluginParamError("thresholds must be non-empty and strictly ascending")
    return values


def _passthrough(params: Mapping[str, object]) -> tuple[StepFn, int]:
    def step(state: list, reading: Reading) -> float:
        return reading.value

    return step, 0


def _touch_level(params: Mapping[str, object]) -> tuple[StepFn, int]:
    thresholds = _parse_thresholds(params)

    def step(state: list, reading: Reading) -> float:
        return float(touch_level(reading.value, thresholds))

    return step, 0


def _jerk_level(params: Mapping[str, object]) -> tuple[StepFn, int]:
    def step(state: list, reading: Reading) -> float:
        state.append(reading)
        if len(state) > 3:
            state.pop(0)
        if any(a.t_us == b.t_us for a, b in zip(state, state[1:])):
            return None  # no slope across zero time
        return jerk_level(state)

    return step, 3


def _moving_average(params: Mapping[str, object]) -> tuple[StepFn, int]:
    k_raw = params.get("k", 3)
    if isinstance(k_raw, bool) or not isinstance(k_raw, (int, float)) or int(k_raw) != k_raw or int(k_raw) < 1:
        raise PluginParamError("moving_average parameter 'k' must be a positive integer")
    k = int(k_raw)

    def step(state: list, reading: Reading) -> float | None:
        state.append(reading.value)
        if len(state) > k:
            state.pop(0)
        if len(state) < k:
            return None  # warm-up: no new insight yet
        return sum(state) / k

    return step, k


def _threshold_classifier(params: Mapping[str, object]) -> tuple[StepFn, int]:
    raw = params.get("threshold")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise PluginParamError("threshold_classifier requires a numeric 'threshold'")
    limit = float(raw)

    def step(state: list, reading: Reading) -> float:
        return 1.0 if reading.value > limit else 0.0

    return step, 0


PLUGIN_REGISTRY: dict[str, Callable[[Mapping[str, object]], tuple[StepFn, int]]] = {
    "passthrough": _passthrough,
    "touch_level": _touch_level,
    "jerk_level": _jerk_level,
    "moving_average": _moving_average,
    "threshold_classifier": _threshold_classifier,
}


@dataclass(slots=True)
class PluginInstance:
    """A configured, stateful processing function bound to an output topic.

    Instances are deterministic transducers: identical input sequences yield
    identical output sequences, including the None (no output) slots.  State
    never grows beyond `max_state` entries.
    """

    name: str
    inputs: tuple[str, ...]
    topic: str
    state: list = field(default_factory=list)
    max_state: int = 0
    _step: StepFn = field(default=None, repr=False, compare=False)  # type: ignore[assignment]


def make_plugin(
    name: str,
    params: Mapping[str, object] | None = None,
    *,
    inputs: Sequence[str],
    topic: str,
) -> PluginInstance:
    """Construct a plugin instance; unknown names fail here, never at run time."""
    factory = PLUGIN_REGISTRY.get(name)
    if factory is None:
        raise UnknownPluginError(f"unknown plugin {name!r}")
    step, max_state = factory(params or {})
    return PluginInstance(
        name=name,
        inputs=tuple(inputs),
        topic=topic,
        max_state=max_state,
        _step=step,
    )


def run_algorithm(instance: PluginInstance, reading: Reading) -> ProcessedValue | None:
    """Feed one reading through a plugin; None means nothing to publish."""
    if reading.sensor not in instance.inputs:
        raise ValueError(
            f"reading from {reading.sensor!r} fed to plugin {instance.name!r} "
            f"configured for inputs {instance.inputs}"
        )
    value = instance._step(instance.state, reading)
    if value is None:
        return None
    if not math.isfinite(value):
        raise NonFiniteOutputError(
            f"plugin {instance.name!r} gave non-finite output {value} "
            f"for sensor {reading.sensor!r} at t_us {reading.t_us}"
        )
    return ProcessedValue(
        topic=instance.topic,
        t_us=reading.t_us,
        value=float(value),
        source_seq=reading.seq,
    )
