from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from robosync import sensorproc as sp


# ---------------------------------------------------------------------------
# gating


def test_first_reading_always_passes():
    assert sp.gate_significant(None, 20.0, 0.5) is True


def test_unchanged_reading_suppressed():
    assert sp.gate_significant(20.0, 20.0, 0.5) is False


def test_change_at_least_delta_passes():
    assert sp.gate_significant(20.0, 20.6, 0.5) is True  # |20.6 - 20.0| = 0.6 >= 0.5


def test_change_below_delta_suppressed():
    assert sp.gate_significant(20.0, 20.4, 0.5) is False


def test_delta_zero_means_any_change():
    assert sp.gate_significant(1.0, 1.0, 0.0) is False
    assert sp.gate_significant(1.0, 1.0000001, 0.0) is True


def test_identical_sequence_emits_at_most_once():
    for delta in (0.0, 0.1, 5.0):
        prev = None
        emitted = 0
        for value in [7.5] * 50:
            if sp.gate_significant(prev, value, delta):
                emitted += 1
                prev = value
        assert emitted == 1


# ---------------------------------------------------------------------------
# touch_level


def test_touch_level_below_scale():
    assert sp.touch_level(0.5, [1.0, 2.0, 4.0]) == 0


def test_touch_level_mid_scale():
    assert sp.touch_level(2.5, [1.0, 2.0, 4.0]) == 2  # thresholds <= 2.5 are {1, 2}


def test_touch_level_boundary_is_inclusive():
    assert sp.touch_level(4.0, [1.0, 2.0, 4.0]) == 3


@given(
    st.floats(-100, 100),
    st.floats(-100, 100),
    st.lists(st.floats(-50, 50), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_touch_level_monotone(a, b, thresholds):
    low, high = min(a, b), max(a, b)
    assert sp.touch_level(low, thresholds) <= sp.touch_level(high, thresholds)


# ---------------------------------------------------------------------------
# jerk_level


def _readings(values, times_s):
    return [sp.Reading("s", int(t * 1e6), v) for v, t in zip(values, times_s)]


def test_jerk_constant_signal_is_zero():
    assert sp.jerk_level(_readings([3.0, 3.0, 3.0], [0, 1, 2])) == 0.0


def test_jerk_linear_ramp_is_zero():
    assert sp.jerk_level(_readings([0.0, 2.0, 4.0], [0, 1, 2])) == 0.0


def test_jerk_step_change():
    # slopes 0 then 1: |1 - 0| = 1.0
    assert sp.jerk_level(_readings([0.0, 0.0, 1.0], [0, 1, 2])) == 1.0


def test_jerk_short_history_is_zero():
    assert sp.jerk_level(_readings([0.0, 5.0], [0, 1])) == 0.0
    assert sp.jerk_level([]) == 0.0


# ---------------------------------------------------------------------------
# plugins


def test_unknown_plugin_fails_at_construction():
    with pytest.raises(sp.UnknownPluginError):
        sp.make_plugin("warp_drive", {})


def test_passthrough_identity():
    step = sp.make_plugin("passthrough")
    assert sp.run_algorithm("passthrough", step, sp.Reading("s", 10, 7.5)) == 7.5


def test_moving_average_warmup_then_mean():
    step = sp.make_plugin("moving_average", {"k": 2})
    assert sp.run_algorithm("moving_average", step, sp.Reading("s", 0, 1.0)) is None
    assert sp.run_algorithm("moving_average", step, sp.Reading("s", 1, 3.0)) == 2.0  # (1 + 3) / 2


@pytest.mark.parametrize(
    "plugin, readings",
    [
        ("moving_average", [(0, 1.7e308), (1, 1.6e308)]),  # the mean's sum overflows
        ("jerk_level", [(0, -1e308), (1, 1e308), (2, -1e308)]),  # slopes overflow
        ("jerk_level", [(0, -1e308), (1, 1e308), (2, 1.7e308)]),  # inf - inf is NaN
    ],
    ids=["average_inf", "jerk_inf", "jerk_nan"],
)
def test_non_finite_plugin_output_is_rejected(plugin, readings):
    step = sp.make_plugin(plugin, {"k": 2} if plugin == "moving_average" else {})
    *warmup, (t_us, value) = readings
    for t, v in warmup:
        sp.run_algorithm(plugin, step, sp.Reading("s", t, v))
    with pytest.raises(sp.NonFiniteOutputError) as exc:
        sp.run_algorithm(plugin, step, sp.Reading("s", t_us, value))
    assert isinstance(exc.value, ValueError)
    assert f"plugin {plugin!r} gave non-finite output" in str(exc.value)
    assert str(exc.value).endswith(f"for sensor 's' at t_us {t_us}")


def test_largest_finite_plugin_output_passes():
    step = sp.make_plugin("moving_average", {"k": 2})
    sp.run_algorithm("moving_average", step, sp.Reading("s", 0, 1.7e308))
    assert sp.run_algorithm("moving_average", step, sp.Reading("s", 1, -1.7e308)) == 0.0
    step = sp.make_plugin("passthrough")
    assert sp.run_algorithm("passthrough", step, sp.Reading("s", 0, 1.7976931348623157e308)) == 1.7976931348623157e308


def test_moving_average_is_mean_of_last_k():
    rng = random.Random(5)
    values = [rng.uniform(-1e6, 1e6) for _ in range(500)]
    for k in (1, 2, 3, 7):
        step = sp.make_plugin("moving_average", {"k": k})
        outs = [sp.run_algorithm("moving_average", step, sp.Reading("s", i, v)) for i, v in enumerate(values)]
        assert outs == [None if i + 1 < k else sum(values[i + 1 - k : i + 1]) / k for i in range(len(values))]


def test_touch_level_plugin_matches_function():
    step = sp.make_plugin("touch_level", {"thresholds": "1,2,4"})
    out = sp.run_algorithm("touch_level", step, sp.Reading("s", 0, 2.5))
    assert out == float(sp.touch_level(2.5, [1.0, 2.0, 4.0])) == 2.0


def test_touch_level_plugin_requires_ascending_thresholds():
    for params, reason in [
        ({"thresholds": "4,2,1"}, "must be non-empty and strictly ascending"),
        ({"thresholds": ""}, "must be non-empty and strictly ascending"),
        ({}, "required"),
        ({"thresholds": "1,nan"}, "must be a finite number or a comma string of finite numbers"),
        ({"thresholds": "1,x"}, "must be a finite number or a comma string of finite numbers"),
    ]:
        with pytest.raises(sp.PluginParamError) as exc:
            sp.make_plugin("touch_level", params)
        assert (exc.value.key, exc.value.reason) == ("thresholds", reason)


def test_jerk_plugin_tracks_window():
    rng = random.Random(3)
    readings, t_us = [], 0
    for _ in range(500):
        t_us += rng.choice((0, 1, 250, 1000))  # equal stamps included
        readings.append(sp.Reading("s", t_us, rng.uniform(-10, 10)))
    step = sp.make_plugin("jerk_level")
    for i, reading in enumerate(readings):
        last = readings[max(0, i - 2) : i + 1]
        at_one_instant = any(a.t_us == b.t_us for a, b in zip(last, last[1:]))
        expected = None if at_one_instant else sp.jerk_level(last)
        assert sp.run_algorithm("jerk_level", step, reading) == expected


def test_jerk_plugin_gives_nothing_across_zero_time():
    step = sp.make_plugin("jerk_level")
    outs = [
        sp.run_algorithm("jerk_level", step, sp.Reading("s", t_us, v))
        for t_us, v in ((1000, 1.0), (1000, 5.0), (1000, 9.0), (2000, 9.0), (3000, 9.0))
    ]
    # a window holding two readings of one instant has no slope; later ones do
    assert outs == [0.0, None, None, None, 0.0]


def test_threshold_classifier():
    step = sp.make_plugin("threshold_classifier", {"threshold": 5.0})
    assert sp.run_algorithm("threshold_classifier", step, sp.Reading("s", 0, 5.0)) == 0.0  # strict
    assert sp.run_algorithm("threshold_classifier", step, sp.Reading("s", 1, 5.1)) == 1.0


def test_plugin_replay_determinism():
    rng = random.Random(7)
    inputs = [sp.Reading("s", i * 10, rng.uniform(-5, 5)) for i in range(200)]

    def replay():
        step = sp.make_plugin("moving_average", {"k": 4})
        return [sp.run_algorithm("moving_average", step, r) for r in inputs]

    assert replay() == replay()
