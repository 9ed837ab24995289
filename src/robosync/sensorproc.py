"""Processing layer: the raw `Reading`, significance gating, sensor-check
functions, and the plugin registry that turns readings into processed topic
values.

A plugin is one factory in `PLUGIN_REGISTRY`: called with a dict of an
algorithm's params, it takes out the keys it reads, checks them and returns a
new step function, `step(reading) -> float | None`, that keeps its own
bounded window in its closure.  Whatever keys it leaves are unknown to it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence


# not frozen: one is built per trace line, and a frozen dataclass takes about
# 3x as long to build
@dataclass(slots=True)
class Reading:
    """One raw sensor sample, as its trace line holds it.  The engine hands
    this very object to the sensor-input task and to every plugin that reads
    the sensor, and nothing changes it."""

    sensor: str
    t_us: int
    value: float


class PluginParamError(ValueError):
    """Raised when a plugin parameter is missing or malformed; `key` names the
    parameter and `reason` says what is wrong with it."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"params.{key}: {reason}")
        self.key = key
        self.reason = reason


class NonFiniteOutputError(ValueError):
    """Raised when a plugin step, or a window's priority adjustment in
    `sched.adapt_priorities`, overflows to an infinity or a NaN, which the log
    could not hold as JSON."""


def finite_float(value: object) -> float | None:
    """A JSON number as a finite float; None for any other value, and for an
    integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


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
    return bisect_right(thresholds, raw)


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


# A step consumes one reading and returns the next processed value, or None
# when the plugin has no new insight yet.
Step = Callable[[Reading], "float | None"]


def _parse_thresholds(params: dict[str, object]) -> list[float]:
    raw = params.pop("thresholds", None)
    if raw is None:
        raise PluginParamError("thresholds", "required")
    if isinstance(raw, str):
        try:
            values = [finite_float(float(part)) for part in raw.split(",") if part.strip()]
        except ValueError:  # a part that is no number
            values = [None]
    else:
        values = [finite_float(raw)]
    if None in values:
        raise PluginParamError("thresholds", "must be a finite number or a comma string of finite numbers")
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise PluginParamError("thresholds", "must be non-empty and strictly ascending")
    return values


def _passthrough(params: dict[str, object]) -> Step:
    def step(reading: Reading) -> float:
        return reading.value

    return step


def _touch_level(params: dict[str, object]) -> Step:
    thresholds = _parse_thresholds(params)

    def step(reading: Reading) -> float:
        return float(touch_level(reading.value, thresholds))

    return step


def _jerk_level(params: dict[str, object]) -> Step:
    window: list[Reading] = []  # the last three readings

    def step(reading: Reading) -> float | None:
        window.append(reading)
        if len(window) > 3:
            del window[0]
        if any(a.t_us == b.t_us for a, b in zip(window, window[1:])):
            return None  # no slope across zero time
        return jerk_level(window)

    return step


def _moving_average(params: dict[str, object]) -> Step:
    k = params.pop("k", 3)
    if isinstance(k, float) and k.is_integer():  # 3.0; never an infinity or a NaN
        k = int(k)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise PluginParamError("k", "must be a positive integer")
    window: list[float] = []  # the last k values

    def step(reading: Reading) -> float | None:
        window.append(reading.value)
        if len(window) > k:
            del window[0]
        if len(window) < k:
            return None  # warm-up: no new insight yet
        return sum(window) / k

    return step


def _threshold_classifier(params: dict[str, object]) -> Step:
    if "threshold" not in params:
        raise PluginParamError("threshold", "required")
    limit = finite_float(params.pop("threshold"))
    if limit is None:
        raise PluginParamError("threshold", "must be a finite number")

    def step(reading: Reading) -> float:
        return 1.0 if reading.value > limit else 0.0

    return step


# name -> factory: `factory(params)` takes the keys it reads out of `params`,
# checks them, raising PluginParamError, and returns a new step with an empty
# window, whose outputs (None included) follow from its inputs alone; the keys
# left in `params` are the ones it does not know
PLUGIN_REGISTRY: dict[str, Callable[[dict[str, object]], Step]] = {
    "passthrough": _passthrough,
    "touch_level": _touch_level,
    "jerk_level": _jerk_level,
    "moving_average": _moving_average,
    "threshold_classifier": _threshold_classifier,
}


def run_algorithm(plugin: str, step: Step, reading: Reading) -> float | None:
    """Feed one reading through a step of the named plugin: its finite output,
    or None when there is nothing to publish."""
    value = step(reading)
    if value is None or math.isfinite(value):
        return value
    raise NonFiniteOutputError(
        f"plugin {plugin!r} gave non-finite output {value} for sensor {reading.sensor!r} at t_us {reading.t_us}"
    )
