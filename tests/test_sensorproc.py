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
        sp.make_plugin("warp_drive", {}, inputs=("s",), topic="t")


def test_passthrough_identity():
    plugin = sp.make_plugin("passthrough", {}, inputs=("s",), topic="s_proc")
    out = sp.run_algorithm(plugin, sp.Reading("s", 10, 7.5, seq=3))
    assert out == sp.ProcessedValue("s_proc", 10, 7.5, 3)


def test_run_algorithm_rejects_foreign_sensor():
    plugin = sp.make_plugin("passthrough", {}, inputs=("s",), topic="s_proc")
    with pytest.raises(ValueError, match="configured for inputs"):
        sp.run_algorithm(plugin, sp.Reading("other", 10, 1.0))


def test_moving_average_warmup_then_mean():
    plugin = sp.make_plugin("moving_average", {"k": 2}, inputs=("s",), topic="avg")
    assert sp.run_algorithm(plugin, sp.Reading("s", 0, 1.0, seq=0)) is None
    out = sp.run_algorithm(plugin, sp.Reading("s", 1, 3.0, seq=1))
    assert out is not None and out.value == 2.0  # (1 + 3) / 2
    assert out.source_seq == 1


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
    instance = sp.make_plugin(plugin, {"k": 2} if plugin == "moving_average" else {}, inputs=("s",), topic="out")
    *warmup, (t_us, value) = readings
    for t, v in warmup:
        sp.run_algorithm(instance, sp.Reading("s", t, v))
    with pytest.raises(sp.NonFiniteOutputError) as exc:
        sp.run_algorithm(instance, sp.Reading("s", t_us, value))
    assert isinstance(exc.value, ValueError)
    assert f"plugin {plugin!r} gave non-finite output" in str(exc.value)
    assert str(exc.value).endswith(f"for sensor 's' at t_us {t_us}")


def test_largest_finite_plugin_output_passes():
    plugin = sp.make_plugin("moving_average", {"k": 2}, inputs=("s",), topic="avg")
    sp.run_algorithm(plugin, sp.Reading("s", 0, 1.7e308))
    assert sp.run_algorithm(plugin, sp.Reading("s", 1, -1.7e308)).value == 0.0
    plugin = sp.make_plugin("passthrough", {}, inputs=("s",), topic="s_proc")
    assert sp.run_algorithm(plugin, sp.Reading("s", 0, 1.7976931348623157e308)).value == 1.7976931348623157e308


def test_moving_average_state_is_bounded():
    plugin = sp.make_plugin("moving_average", {"k": 3}, inputs=("s",), topic="avg")
    for i in range(20):
        sp.run_algorithm(plugin, sp.Reading("s", i, float(i)))
    assert len(plugin.state) <= plugin.max_state == 3


def test_touch_level_plugin_matches_function():
    plugin = sp.make_plugin("touch_level", {"thresholds": "1,2,4"}, inputs=("s",), topic="lvl")
    out = sp.run_algorithm(plugin, sp.Reading("s", 0, 2.5))
    assert out is not None
    assert out.value == float(sp.touch_level(2.5, [1.0, 2.0, 4.0])) == 2.0


def test_touch_level_plugin_requires_ascending_thresholds():
    with pytest.raises(sp.PluginParamError):
        sp.make_plugin("touch_level", {"thresholds": "4,2,1"}, inputs=("s",), topic="lvl")
    with pytest.raises(sp.PluginParamError):
        sp.make_plugin("touch_level", {}, inputs=("s",), topic="lvl")


def test_jerk_plugin_tracks_window():
    plugin = sp.make_plugin("jerk_level", {}, inputs=("s",), topic="jerk")
    outs = [
        sp.run_algorithm(plugin, sp.Reading("s", t_us, v))
        for t_us, v in ((0, 0.0), (1_000_000, 0.0), (2_000_000, 1.0))
    ]
    assert [o.value for o in outs] == [0.0, 0.0, 1.0]
    assert len(plugin.state) <= plugin.max_state == 3


def test_jerk_plugin_gives_nothing_across_zero_time():
    plugin = sp.make_plugin("jerk_level", {}, inputs=("s",), topic="jerk")
    outs = [
        sp.run_algorithm(plugin, sp.Reading("s", t_us, v))
        for t_us, v in ((1000, 1.0), (1000, 5.0), (1000, 9.0), (2000, 9.0), (3000, 9.0))
    ]
    # a window holding two readings of one instant has no slope; later ones do
    assert [o if o is None else o.value for o in outs] == [0.0, None, None, None, 0.0]


def test_threshold_classifier():
    plugin = sp.make_plugin("threshold_classifier", {"threshold": 5.0}, inputs=("s",), topic="hot")
    assert sp.run_algorithm(plugin, sp.Reading("s", 0, 5.0)).value == 0.0  # strict
    assert sp.run_algorithm(plugin, sp.Reading("s", 1, 5.1)).value == 1.0


def test_plugin_replay_determinism():
    rng = random.Random(7)
    inputs = [sp.Reading("s", i * 10, rng.uniform(-5, 5), seq=i) for i in range(200)]

    def replay():
        plugin = sp.make_plugin("moving_average", {"k": 4}, inputs=("s",), topic="avg")
        return [sp.run_algorithm(plugin, r) for r in inputs]

    assert replay() == replay()
