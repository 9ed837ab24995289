from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from robosync import config as cfg, engine as eng
from robosync.dsl import bind_program, parse_program
from robosync.sensorproc import PLUGIN_REGISTRY


def test_minimal_config_parses(minimal_config_text):
    config = cfg.parse_config(minimal_config_text)
    assert [s.name for s in config.sensors] == ["temp_sensor", "proximity_sensor"]
    temp, prox = config.sensors
    assert temp.kind == "i2c"
    assert temp.address == 0x40
    assert temp.pin is None
    assert prox.kind == "gpio"
    assert prox.pin == 5
    (motor,) = config.actuators
    assert motor.name == "motor_1"
    assert motor.kind == "pwm"
    assert motor.pin == 10
    assert [b.name for b in config.behaviors] == ["temperature_check"]
    assert config.behaviors[0].action == "motor_1"
    assert [a.name for a in config.algorithms] == ["ML_algorithm"]


def test_minimal_config_defaults(minimal_config_text):
    config = cfg.parse_config(minimal_config_text)
    assert config.sensors[0].name == "temp_sensor"
    assert config.sensors[0].delta == 0.0
    assert config.sensors[0].period_us == 10_000
    assert config.scheduler.alpha == 0.05
    assert config.scheduler.window_us == 1_000_000
    assert config.scheduler.p_max == 1.0
    assert config.scheduler.default_task_cost_us == 100
    # single behavior with no declared priority: 1 - 1/2
    assert config.behaviors[0].priority == 0.5


def test_minimal_config_algorithm_plugin_fallback(minimal_config_text):
    config = cfg.parse_config(minimal_config_text)
    alg = config.algorithms[0]
    assert alg.plugin == "passthrough"  # "module.so" stem is not a registry key
    assert alg.inputs == ("temp_sensor", "proximity_sensor")  # defaults to all sensors
    assert alg.output == "ML_algorithm"


def test_algorithm_path_stem_selects_registry_plugin():
    text = json.dumps(
        {
            "sensors": [{"name": "s", "type": "virtual"}],
            "algorithms": [{"name": "avg", "path": "/lib/moving_average.so", "params": {"k": 2}}],
        }
    )
    config = cfg.parse_config(text)
    assert config.algorithms[0].plugin == "moving_average"


def test_empty_arrays_are_valid():
    config = cfg.parse_config('{"sensors": [], "actuators": [], "behaviors": [], "algorithms": []}')
    assert config == cfg.SystemConfig()


def test_empty_document_is_valid():
    assert cfg.parse_config("{}") == cfg.SystemConfig()


def test_duplicate_declared_priorities_rejected():
    text = json.dumps(
        {
            "behaviors": [
                {"name": "a", "priority": 0.5},
                {"name": "b", "priority": 0.5},
            ]
        }
    )
    with pytest.raises(cfg.SchemaError) as exc:
        cfg.parse_config(text)
    assert exc.value.path == "behaviors[1].priority"
    assert "duplicate" in exc.value.reason


def test_unknown_top_level_key_rejected():
    with pytest.raises(cfg.SchemaError, match="unknown top-level key"):
        cfg.parse_config('{"sensores": []}')


def test_unknown_inner_key_rejected():
    with pytest.raises(cfg.SchemaError, match=r"sensors\[0\].colour"):
        cfg.parse_config('{"sensors": [{"name": "s", "type": "virtual", "colour": "red"}]}')


def test_json_syntax_error_has_position():
    with pytest.raises(cfg.ConfigSyntaxError) as exc:
        cfg.parse_config('{"sensors": [,]}')
    assert exc.value.line == 1
    assert exc.value.column > 0


@pytest.mark.parametrize(
    "sensor, path_part",
    [
        ({"name": "s", "type": "i2c"}, "address"),  # missing address
        ({"name": "s", "type": "i2c", "address": "0x40", "pin": 3}, "pin"),
        ({"name": "s", "type": "gpio"}, "pin"),
        ({"name": "s", "type": "gpio", "pin": 1, "address": "0x1"}, "address"),
        ({"name": "s", "type": "virtual", "pin": 1}, "sensors[0]"),
        ({"name": "s", "type": "sonar"}, "type"),
        ({"name": "s", "type": "i2c", "address": "40"}, "address"),
        ({"name": "s", "type": "virtual", "delta": -1}, "delta"),
        ({"name": "s", "type": "virtual", "period_us": 0}, "period_us"),
    ],
)
def test_sensor_shape_violations(sensor, path_part):
    with pytest.raises(cfg.SchemaError) as exc:
        cfg.parse_config(json.dumps({"sensors": [sensor]}))
    assert path_part in exc.value.path


def test_actuator_bounds_must_be_ordered():
    text = json.dumps({"actuators": [{"name": "a", "type": "pwm", "min_value": 2.0, "max_value": 1.0}]})
    with pytest.raises(cfg.SchemaError, match="min_value"):
        cfg.parse_config(text)


def test_duplicate_sensor_names_rejected():
    text = json.dumps({"sensors": [{"name": "s", "type": "virtual"}, {"name": "s", "type": "virtual"}]})
    with pytest.raises(cfg.SchemaError, match=r"sensors\[1\].name"):
        cfg.parse_config(text)


def test_unknown_plugin_rejected():
    text = json.dumps(
        {
            "sensors": [{"name": "s", "type": "virtual"}],
            "algorithms": [{"name": "a", "plugin": "warp_drive"}],
        }
    )
    with pytest.raises(cfg.UnknownPluginError):
        cfg.parse_config(text)


def test_p_max_is_pinned():
    with pytest.raises(cfg.SchemaError, match="p_max"):
        cfg.parse_config('{"scheduler": {"p_max": 0.9}}')


def test_dangling_references_rejected_at_parse():
    text = json.dumps({"behaviors": [{"name": "b", "action": "motor_9"}]})
    with pytest.raises(cfg.CrossReferenceError) as exc:
        cfg.parse_config(text)
    assert exc.value.path == "behaviors[0].action"


def test_safety_check_requires_sensor_pool():
    text = json.dumps({"safety_checks": [{"name": "c", "sensor": "force", "threshold": 1.0}]})
    with pytest.raises(cfg.CrossReferenceError):
        cfg.parse_config(text)


# ---------------------------------------------------------------------------
# default_priorities


def test_default_priority_single_behavior():
    out = cfg.default_priorities([cfg.BehaviorSpec("only")])
    assert out[0].priority == 0.5


def test_default_priorities_three_behaviors():
    out = cfg.default_priorities([cfg.BehaviorSpec("a"), cfg.BehaviorSpec("b"), cfg.BehaviorSpec("c")])
    assert [b.priority for b in out] == [0.75, 0.5, 0.25]


def test_default_priorities_mixed_declared():
    out = cfg.default_priorities([cfg.BehaviorSpec("a", priority=0.75), cfg.BehaviorSpec("b")])
    assert out[0].priority == 0.75
    assert out[1].priority == pytest.approx(1 - 2 / 3)


def test_default_priorities_collision_nudges_down():
    # Declare exactly the second slot's formula value (1 - 2/3) to force a clash.
    collide = 1.0 - 2.0 / 3.0
    out = cfg.default_priorities([cfg.BehaviorSpec("a", priority=collide), cfg.BehaviorSpec("b")])
    step = 1.0 / (10 * 3)
    assert out[1].priority == pytest.approx(collide - step)
    assert out[1].priority != out[0].priority


def test_default_priorities_safety_pins_to_one():
    out = cfg.default_priorities(
        [cfg.BehaviorSpec("stop", priority=0.4, safety=True), cfg.BehaviorSpec("b")]
    )
    assert out[0].priority == 1.0
    assert 0.0 < out[1].priority < 1.0


@given(
    st.lists(
        st.one_of(st.none(), st.integers(1, 99).map(lambda n: n / 100.0)),
        min_size=1,
        max_size=20,
    ).filter(lambda vs: len([v for v in vs if v is not None]) == len({v for v in vs if v is not None}))
)
def test_fill_priorities_property(declared):
    values = cfg.fill_priorities(declared)
    assert len(values) == len(declared)
    assert len(set(values)) == len(values)
    for before, after in zip(declared, values):
        assert 0.0 < after < 1.0
        if before is not None:
            assert after == before


# ---------------------------------------------------------------------------
# validate_config and round-trips


def test_validate_minimal_config_clean(minimal_config_text):
    report = cfg.validate_config(cfg.parse_config(minimal_config_text))
    assert report.ok


def test_validate_reports_dangling_action():
    config = cfg.SystemConfig(behaviors=(cfg.BehaviorSpec("b", priority=0.5, action="motor_9"),))
    report = cfg.validate_config(config)
    assert [i.path for i in report.issues] == ["behaviors[0].action"]
    assert "unresolved actuator" in report.issues[0].reason


def test_validate_reports_dangling_safety_sensor():
    config = cfg.SystemConfig(
        sensors=(cfg.SensorSpec("touch", "virtual"),),
        safety_checks=(cfg.SafetyCheckSpec("c", "force", 10.0),),
    )
    report = cfg.validate_config(config)
    assert [i.path for i in report.issues] == ["safety_checks[0].sensor"]


def test_validate_reports_algorithm_named_like_a_passthrough_stage():
    # b has no reader, so its passthrough stage b_proc would share task algorithmic.b_proc
    config = cfg.SystemConfig(
        sensors=(cfg.SensorSpec("a", "virtual"), cfg.SensorSpec("b", "virtual")),
        algorithms=(cfg.AlgorithmSpec("b_proc", "passthrough", ("a",), "x"),),
    )
    assert cfg.report_lines(cfg.validate_config(config)) == [
        "algorithms[0].name: stage name 'b_proc' is already taken by the passthrough stage of sensors[1].name"
    ]
    # once an algorithm reads b, b has no passthrough stage and the name is free
    reads_b = cfg.SystemConfig(
        sensors=config.sensors, algorithms=(cfg.AlgorithmSpec("b_proc", "passthrough", ("b",), "x"),)
    )
    assert cfg.validate_config(reads_b).ok


def test_validate_reports_repeated_algorithm_names():
    sensors = (cfg.SensorSpec("a", "virtual"),)
    algorithms = (
        cfg.AlgorithmSpec("f", "passthrough", ("a",), "x"),
        cfg.AlgorithmSpec("f", "passthrough", ("a",), "y"),
    )
    report = cfg.validate_config(cfg.SystemConfig(sensors=sensors, algorithms=algorithms))
    assert cfg.report_lines(report) == ["algorithms[1].name: stage name 'f' is already taken by algorithms[0].name"]


FULL_CONFIG = json.dumps(
    {
        "sensors": [
            {"name": "touch", "type": "virtual", "delta": 0.5, "units": "level"},
            {"name": "force", "type": "analog", "pin": 2, "delta": 0.1, "period_us": 5000},
            {"name": "temp", "type": "i2c", "address": "0x48"},
        ],
        "actuators": [
            {"name": "arms", "type": "pwm", "pin": 9, "min_value": 0.0, "max_value": 1.0},
            {"name": "horn", "type": "audio"},
        ],
        "behaviors": [
            {"name": "wave", "priority": 0.8, "action": "arms"},
            {"name": "greet"},
            {"name": "panic", "safety": True},
        ],
        "algorithms": [
            {
                "name": "smooth",
                "plugin": "moving_average",
                "inputs": ["temp"],
                "output": "temp_smooth",
                "params": {"k": 2},
            }
        ],
        "safety_checks": [{"name": "overforce", "sensor": "force", "threshold": 10.0}],
        "scheduler": {"alpha": 0.1, "window_us": 500000, "p_max": 1.0, "default_task_cost_us": 50},
    }
)


@pytest.mark.parametrize("text_name", ["minimal", "full"])
def test_parse_serialize_roundtrip(text_name, minimal_config_text):
    text = minimal_config_text if text_name == "minimal" else FULL_CONFIG
    first = cfg.parse_config(text)
    second = cfg.parse_config(cfg.serialize_config(first))
    assert first == second


def test_accepted_configs_never_dangle():
    for text in (FULL_CONFIG,):
        config = cfg.parse_config(text)
        assert cfg.validate_config(config).ok


# Names from a tiny alphabet, so sensor names, algorithm names and outputs
# keep meeting each other's passthrough topics and actuator m's command topic.
# Output x is no sensor's name, so a stage can collide on its name alone.
_TOPIC_NAMES = st.sampled_from(("a", "b", "a_proc", "b_proc", "m_cmd"))
# every registry plugin, by name or through a legacy path's stem
_PLUGINS = st.sampled_from(sorted(PLUGIN_REGISTRY)).flatmap(
    lambda name: st.sampled_from(({"plugin": name}, {"path": f"lib/{name}.so"}))
)
# each plugin param drawn missing (None) or from values on both sides of every rule
_PARAM_VALUES = st.sampled_from((None, 0, 2.5, 3.0, 10**400, math.nan, math.inf, "5", "1,2,4", "4,2,1", True))
# the params each plugin reads; a legacy `path` entry may carry any of them
_OWN_KEYS = {
    "passthrough": (),
    "touch_level": ("thresholds",),
    "jerk_level": (),
    "moving_average": ("k",),
    "threshold_classifier": ("threshold",),
}
_ALL_KEYS = ("k", "threshold", "thresholds")
# now and then one misspelt key, which a `plugin` entry must refuse
_MISSPELT_KEYS = st.sampled_from((None,) * 8 + ("K", "treshold"))


@st.composite
def _colliding_configs(draw):
    sensors = draw(st.lists(_TOPIC_NAMES, unique=True, max_size=3))
    inputs = st.sampled_from(sensors) if sensors else _TOPIC_NAMES
    algorithms = []
    for name in draw(st.lists(st.sampled_from(("f", "a_proc", "m_cmd")), unique=True, max_size=3)):
        algorithm = {"name": name, **draw(_PLUGINS), "inputs": draw(st.lists(inputs, min_size=1, max_size=2))}
        keys = _OWN_KEYS[algorithm["plugin"]] if "plugin" in algorithm else _ALL_KEYS
        params = {key: draw(_PARAM_VALUES) for key in keys}
        params[draw(_MISSPELT_KEYS)] = 5
        algorithm["params"] = {key: value for key, value in params.items() if key is not None and value is not None}
        output = draw(st.none() | _TOPIC_NAMES | st.just("x"))
        if output is not None:
            algorithm["output"] = output
        algorithms.append(algorithm)
    return {
        "sensors": [{"name": name, "type": "virtual"} for name in sensors],
        "actuators": [{"name": "m", "type": "pwm"}] if draw(st.booleans()) else [],
        "algorithms": algorithms,
    }


@settings(max_examples=300)
@given(doc=_colliding_configs())
@example(
    doc={
        "sensors": [{"name": "a", "type": "virtual"}, {"name": "b", "type": "virtual"}],
        "algorithms": [{"name": "a_proc", "plugin": "passthrough", "inputs": ["b"], "output": "x"}],
    }
)  # the algorithm shares stage name a_proc with sensor a's passthrough
def test_a_config_that_validates_wires_without_bus_errors(doc):
    try:
        config = cfg.parse_config(json.dumps(doc))
    except cfg.ConfigError:
        return
    for algorithm in doc["algorithms"]:  # a `plugin` entry parses with its own keys only
        assert "plugin" not in algorithm or set(algorithm["params"]) <= set(_OWN_KEYS[algorithm["plugin"]])
    # setup creates every topic, subscription and plugin step; any exception,
    # a BusError or a plugin's PluginParamError, fails the test
    log = eng.run(config, bind_program(parse_program(""), config), [])
    assert log.entries == []
    # and each stage is a task of its own
    stage_names = [stage.name for stage in cfg.processing_stages(config)]
    assert len(set(stage_names)) == len(stage_names)


def test_unknown_param_keys_are_refused_for_plugin_entries_only():
    def parse(source):
        algorithm = {"name": "f", **source, "inputs": ["a"], "params": {"k": 4, "K": 5}}
        return cfg.parse_config(json.dumps({"sensors": [{"name": "a", "type": "virtual"}], "algorithms": [algorithm]}))

    with pytest.raises(cfg.SchemaError) as exc:
        parse({"plugin": "moving_average"})
    assert (exc.value.path, exc.value.reason) == ("algorithms[0].params.K", "unknown key")
    # a legacy `path` module may read params of its own
    assert parse({"path": "lib/moving_average.so"}).algorithms[0].params == (("k", 4), ("K", 5))
