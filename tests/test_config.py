from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import MISSING

import pytest
from hypothesis import example, given, settings, strategies as st

from robosync import config as cfg, engine as eng
from robosync.cli import main
from robosync.dsl import bind_program, parse_program
from robosync.sensorproc import PLUGIN_REGISTRY

from conftest import FIXTURES
from test_scenarios import BENCH_WORKLOADS


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


_SENSOR = {"name": "s", "type": "virtual"}
_ALGORITHM = {"name": "f", "plugin": "passthrough"}


@pytest.mark.parametrize(
    "doc, lines",
    [
        ({"sensors": [{"type": "virtual"}]}, ["sensors[0].name: required"]),
        ({"sensors": [{"name": "s"}]}, ["sensors[0].type: required"]),
        ({"safety_checks": [{"name": "c", "threshold": 1.0}]}, ["safety_checks[0].sensor: required"]),
        ({"sensors": [_SENSOR], "safety_checks": [{"name": "c", "sensor": "s"}]}, ["safety_checks[0].threshold: required"]),
        ({"sensors": [{"name": 5, "type": "virtual"}]}, ["sensors[0].name: must be a string"]),
        ({"sensors": [{"name": "9s", "type": "virtual"}]}, ["sensors[0].name: invalid identifier '9s'"]),
        ({"behaviors": [{"name": "b", "safety": "yes"}]}, ["behaviors[0].safety: must be a boolean"]),
        ({"sensors": [1]}, ["sensors[0]: must be an object"]),
        ({"actuators": ["a"]}, ["actuators[0]: must be an object"]),
        ({"behaviors": [None]}, ["behaviors[0]: must be an object"]),
        ({"algorithms": [[]]}, ["algorithms[0]: must be an object"]),
        ({"safety_checks": [True]}, ["safety_checks[0]: must be an object"]),
        ({"scheduler": []}, ["scheduler: must be an object"]),
        (
            {"sensors": [_SENSOR], "algorithms": [{**_ALGORITHM, "params": [1]}]},
            ["algorithms[0].params: must be an object"],
        ),
        ({"sensors": [_SENSOR], "algorithms": [{"name": "f"}]}, ["algorithms[0].plugin: either 'plugin' or 'path' is required"]),
        (
            {"sensors": [_SENSOR], "algorithms": [{**_ALGORITHM, "inputs": []}]},
            ["algorithms[0].inputs: must be a non-empty array of sensor names"],
        ),
        (
            {"sensors": [_SENSOR], "algorithms": [{**_ALGORITHM, "inputs": "s"}]},
            ["algorithms[0].inputs: must be a non-empty array of sensor names"],
        ),
        ({"sensors": [_SENSOR], "algorithms": [{**_ALGORITHM, "inputs": [1]}]}, ["algorithms[0].inputs[0]: must be a string"]),
        (
            {"sensors": [_SENSOR], "algorithms": [{**_ALGORITHM, "inputs": ["s", "s"]}]},
            ["algorithms[0].inputs[1]: duplicate"],
        ),
        ({"sensors": {}}, ["sensors: must be an array"]),
        ({"scheduler": {"alpha": -0.5}}, ["scheduler.alpha: must be >= 0"]),
        ({"behaviors": [{"name": "a", "priority": 1.5}]}, ["behaviors[0].priority: must be strictly between 0 and 1"]),
        (
            {
                "behaviors": [
                    {"name": "a", "priority": 1.5},
                    {"name": "b", "priority": 0.5},
                    {"name": "c", "priority": 0.5},
                ]
            },
            ["behaviors[0].priority: must be strictly between 0 and 1", "behaviors[2].priority: duplicate"],
        ),
        (
            {"algorithms": [_ALGORITHM]},
            [
                "algorithms[0].inputs: must not be empty",
                "sensors: at least one sensor required by algorithms or safety checks",
            ],
        ),
        # two faults in one entry: the fields' getters run in table order, then
        # the rules that span fields
        ({"sensors": [{"name": "s", "type": "i2c", "delta": "x"}]}, ["sensors[0].delta: must be a finite number"]),
        ({"sensors": [{"name": "s", "type": "spi", "delta": -1}]}, ["sensors[0].delta: must be >= 0"]),
        ({"sensors": [{"name": "s", "type": "gpio", "period_us": 0}]}, ["sensors[0].period_us: must be >= 1"]),
        ({"sensors": [{"name": "s", "type": "virtual", "pin": 1, "units": 5}]}, ["sensors[0].units: must be a string"]),
        ({"behaviors": [{"name": "b", "action": 5, "safety": "yes"}]}, ["behaviors[0].action: must be a string"]),
        (
            {"scheduler": {"p_max": 0.5, "default_task_cost_us": 0}},
            ["scheduler.default_task_cost_us: must be >= 1"],
        ),
        # a repeated input is validate_config's issue: a schema error outranks
        # it, and it takes its place among validate_config's other issues
        (
            {"sensors": [_SENSOR], "algorithms": [{**_ALGORITHM, "inputs": ["s", "s"]}, {"name": "g", "plugin": "warp"}]},
            ["algorithms[1].plugin: unknown plugin 'warp'"],
        ),
        (
            {
                "sensors": [_SENSOR],
                "algorithms": [{**_ALGORITHM, "inputs": ["s", "s"]}],
                "behaviors": [{"name": "b", "action": "nope"}],
            },
            ["behaviors[0].action: unresolved actuator 'nope'", "algorithms[0].inputs[1]: duplicate"],
        ),
        (
            {"sensors": [_SENSOR], "algorithms": [{**_ALGORITHM, "inputs": ["x", "x"]}]},
            ["algorithms[0].inputs[0]: unresolved sensor 'x'", "algorithms[0].inputs[1]: duplicate"],
        ),
        (
            {
                "sensors": [_SENSOR],
                "algorithms": [{**_ALGORITHM, "inputs": ["s", "s"]}],
                "behaviors": [{"name": "b", "priority": 1.5}],
            },
            ["algorithms[0].inputs[1]: duplicate", "behaviors[0].priority: must be strictly between 0 and 1"],
        ),
    ],
    ids=[
        "name_required",
        "type_required",
        "check_sensor_required",
        "check_threshold_required",
        "name_not_a_string",
        "name_not_an_identifier",
        "safety_not_a_boolean",
        "sensor_not_an_object",
        "actuator_not_an_object",
        "behavior_not_an_object",
        "algorithm_not_an_object",
        "check_not_an_object",
        "scheduler_not_an_object",
        "params_not_an_object",
        "no_plugin_or_path",
        "inputs_empty",
        "inputs_not_an_array",
        "input_not_a_string",
        "input_repeats",
        "section_not_an_array",
        "alpha_negative",
        "priority_out_of_range",
        "priority_out_of_range_and_duplicate",
        "no_inputs_and_no_sensors",
        "bad_delta_before_address_rule",
        "negative_delta_before_address_rule",
        "bad_period_before_pin_rule",
        "bad_units_before_virtual_rule",
        "bad_action_before_bad_safety",
        "bad_cost_before_p_max",
        "bad_plugin_before_input_repeats",
        "unresolved_action_before_input_repeats",
        "unresolved_input_repeats",
        "input_repeats_and_priority_out_of_range",
    ],
)
def test_each_refusal_is_located_by_parse_and_validate(tmp_path, capsys, doc, lines):
    with pytest.raises(cfg.SchemaError) as exc:
        cfg.parse_config(json.dumps(doc))
    assert exc.value.lines() == lines
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", "-c", str(config)]) == 1
    assert capsys.readouterr() == ("".join(line + "\n" for line in lines), "")


def test_a_safety_behavior_off_its_pin_is_refused_by_validate_config():
    # parsing pins a safety behavior to 1.0, so only a config built by hand can hold another priority
    config = cfg.SystemConfig(behaviors=(cfg.BehaviorSpec("stop", priority=0.5, safety=True),))
    assert [str(issue) for issue in cfg.validate_config(config)] == ["behaviors[0].priority: safety behaviors pin to 1.0"]


def test_a_repeated_input_is_refused_by_validate_config():
    # the stage would run twice per reading, and fire its rules twice
    config = cfg.SystemConfig(
        sensors=(cfg.SensorSpec("s", "virtual"),),
        algorithms=(cfg.AlgorithmSpec("f", "passthrough", ("s", "s"), "o"),),
    )
    assert [str(issue) for issue in cfg.validate_config(config)] == ["algorithms[0].inputs[1]: duplicate"]


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
    assert cfg.validate_config(cfg.parse_config(minimal_config_text)) == []


def test_validate_reports_dangling_action():
    config = cfg.SystemConfig(behaviors=(cfg.BehaviorSpec("b", priority=0.5, action="motor_9"),))
    issues = cfg.validate_config(config)
    assert [i.path for i in issues] == ["behaviors[0].action"]
    assert "unresolved actuator" in issues[0].reason


def test_validate_reports_dangling_safety_sensor():
    config = cfg.SystemConfig(
        sensors=(cfg.SensorSpec("touch", "virtual"),),
        safety_checks=(cfg.SafetyCheckSpec("c", "force", 10.0),),
    )
    issues = cfg.validate_config(config)
    assert [i.path for i in issues] == ["safety_checks[0].sensor"]


def test_validate_reports_algorithm_named_like_a_passthrough_stage():
    # b has no reader, so its passthrough stage b_proc would share task algorithmic.b_proc
    config = cfg.SystemConfig(
        sensors=(cfg.SensorSpec("a", "virtual"), cfg.SensorSpec("b", "virtual")),
        algorithms=(cfg.AlgorithmSpec("b_proc", "passthrough", ("a",), "x"),),
    )
    assert [str(issue) for issue in cfg.validate_config(config)] == [
        "algorithms[0].name: stage name 'b_proc' is already taken by the passthrough stage of sensors[1].name"
    ]
    # once an algorithm reads b, b has no passthrough stage and the name is free
    reads_b = cfg.SystemConfig(
        sensors=config.sensors, algorithms=(cfg.AlgorithmSpec("b_proc", "passthrough", ("b",), "x"),)
    )
    assert cfg.validate_config(reads_b) == []


def test_validate_reports_repeated_algorithm_names():
    sensors = (cfg.SensorSpec("a", "virtual"),)
    algorithms = (
        cfg.AlgorithmSpec("f", "passthrough", ("a",), "x"),
        cfg.AlgorithmSpec("f", "passthrough", ("a",), "y"),
    )
    issues = cfg.validate_config(cfg.SystemConfig(sensors=sensors, algorithms=algorithms))
    assert [str(issue) for issue in issues] == ["algorithms[1].name: stage name 'f' is already taken by algorithms[0].name"]


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


def _readme_config_example() -> str:
    """The JSON example under README's "Configuration file" heading."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    return text.split("## Configuration file\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]


def _config_texts() -> dict[str, str]:
    """Every committed config, FULL_CONFIG, README's example and the bench's two configs."""
    paths = [FIXTURES / "minimal_config.json", FIXTURES / "touch_config.json"]
    paths += sorted(FIXTURES.glob("scenarios/*/config.json"))
    texts = {str(path.relative_to(FIXTURES)): path.read_text(encoding="utf-8") for path in paths}
    texts["FULL_CONFIG"] = FULL_CONFIG
    texts["README"] = _readme_config_example()
    texts["bench"] = BENCH_WORKLOADS.make_config(False)
    texts["bench_halts"] = BENCH_WORKLOADS.make_config(True)
    return texts


# sha256 of serialize_config(parse_config(text)) for each of _config_texts()
_SERIALIZED_SHA256 = {
    "minimal_config.json": "4590208c45dc4f43e227a23e63cad012b8ce5306e30d4e6648c763307a86222a",
    "touch_config.json": "222f773592a61e674fba8177bf2f487552cf15326251998abc4d82abb10688b1",
    "scenarios/escaped_text/config.json": "0f711a65645a201bbaf7087b3453e6a9606c6b534d9c512a984f66657acb6aee",
    "scenarios/halt_windows/config.json": "0dba72848ce1fffff7e51d73641a9f375ba5904a11380635f86130475885cabf",
    "scenarios/plugins/config.json": "adc1b2f2dc1bd320f68c90eedd5af9444bfb776fbdf57f5f2bab8fd9b9931cb9",
    "scenarios/suppression/config.json": "2e43e99e89f83867a76b759ec9f1e7cc374b60a1daf778f94ef82c5ed8de8f04",
    "scenarios/until_idle/config.json": "c89f1ac7c0aa705f69ce9a42c9e7cbc84c3696d3acbf572a2e01e884080e3d0d",
    "scenarios/wait_lexemes/config.json": "7c46a60aae53e6c293d2a2c187ae357a1a0fff0857f267132b25341dc8f8186e",
    "FULL_CONFIG": "fcd1e58c78dc76d40812a90a21f95ad83c3e8bfe98d459bbf42885a8848dda0e",
    "README": "9de7b50858ee61014bcd04dd32714223d1b6d89505dc3e854ccc979d77238597",
    "bench": "0d9be760df1845c894d425cd8fd3b0813defc909aee3747de9a60dc683b30d4e",
    "bench_halts": "98e4dab418b43ab133594995f6beff4f434a752a2df5f3a36db8ad895b02a4ba",
}


@pytest.mark.parametrize("name, text", _config_texts().items())
def test_serialized_config_bytes_are_pinned(name, text):
    serialized = cfg.serialize_config(cfg.parse_config(text))
    assert hashlib.sha256(serialized.encode("utf-8")).hexdigest() == _SERIALIZED_SHA256[name]


def _readme_config_tables() -> dict[str, list[tuple[str, str]]]:
    """README's config reference: section -> (key, default cell) per row, in order."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    text = text.split("## Configuration file\n", 1)[1].split("\n## ", 1)[0]
    heading = r"#### `(\w+)(?:\[i\])?`\n\n\| key \| type \| default \| rule \|\n\|[-|]+\|\n((?:\|.*\n)+)"
    tables = {}
    for section, body in re.findall(heading, text):
        cells = (row.strip("|").split("|") for row in body.splitlines())
        tables[section] = [(key.strip(" `"), default.strip()) for key, _type, default, _rule in cells]
    return tables


def _default_cell(default, render) -> str:
    """A default as README's table writes it."""
    if default is MISSING:
        return "required"
    return "none" if default is None else f"`{json.dumps(default if render is None else render(default))}`"


def test_readme_config_tables_are_the_field_tables():
    tables = _readme_config_tables()
    assert list(tables) == [key for key, _default, _section in cfg._SECTIONS]
    for key, _default, section in cfg._SECTIONS:
        documented = dict(tables[key])
        assert set(documented) == section.keys, key
        # the rows' keys in their order, each other key being one only the section's check reads
        row_keys = [row_key for _name, row_key, _get, _default, _render in section.rows]
        assert [k for k, _cell in tables[key] if k in row_keys] == row_keys
        for _name, row_key, get, default, render in section.rows:
            if get is not None or default is not MISSING:  # the check sets the others
                assert documented[row_key] == _default_cell(default, render), (key, row_key)


def test_readme_config_example_parses_and_roundtrips():
    config = cfg.parse_config(_readme_config_example())
    assert cfg.parse_config(cfg.serialize_config(config)) == config


@pytest.mark.parametrize(
    "algorithm",
    [
        {"name": "f", "path": "lib/x.so", "params": {"foo": 1}},
        {"name": "f", "path": "lib/moving_average.so", "params": {"k": 2, "foo": 1}},
    ],
)
def test_a_legacy_path_with_params_its_plugin_does_not_read_roundtrips(algorithm):
    config = cfg.parse_config(json.dumps({"sensors": [{"name": "s", "type": "virtual"}], "algorithms": [algorithm]}))
    text = cfg.serialize_config(config)
    assert cfg.parse_config(text) == config
    # written as a `path` entry whose basename is the plugin's name
    assert json.loads(text)["algorithms"][0]["path"] == config.algorithms[0].plugin


def _cased(word: str) -> st.SearchStrategy[str]:
    return st.sampled_from((word, word.upper(), word.title()))


_KINDS = {kinds: st.sampled_from(kinds).flatmap(_cased) for kinds in (cfg.SENSOR_KINDS, cfg.ACTUATOR_KINDS)}
_PINS = st.integers(0, 40).flatmap(lambda pin: st.sampled_from((pin, str(pin))))
_NUMBERS = st.sampled_from((0, -0.0, 0.0, 0.5, 2)) | st.floats(min_value=0, max_value=1e6)
# each plugin's params, drawn valid; a missing key takes the plugin's default
_OWN_PARAMS = {
    "passthrough": st.just({}),
    "touch_level": st.fixed_dictionaries({"thresholds": st.sampled_from(("1,2,4", 2.5, -0.0))}),
    "jerk_level": st.just({}),
    "moving_average": st.fixed_dictionaries({}, optional={"k": st.sampled_from((1, 4, 3.0))}),
    "threshold_classifier": st.fixed_dictionaries({"threshold": _NUMBERS}),
}
# params no plugin reads, which only a legacy `path` entry keeps
_EXTRA_PARAMS = st.dictionaries(st.sampled_from(("foo", "gain", "K")), st.sampled_from((1, -0.0, 2.5, "x")), max_size=2)


@st.composite
def _valid_configs(draw):
    """A valid config document that draws every optional key present or absent."""

    def optional(entry, key, strategy):
        if draw(st.booleans()):
            entry[key] = draw(strategy)
        return entry

    sensor_names = [f"s{i}" for i in range(draw(st.integers(0, 3)))]
    sensors = []
    for name in sensor_names:
        sensor = {"name": name, "type": draw(_KINDS[cfg.SENSOR_KINDS])}
        kind = sensor["type"].lower()
        if kind in ("i2c", "spi"):
            address = draw(st.integers(0, 0xFFFF))
            sensor["address"] = draw(st.sampled_from((f"0x{address:x}", f"0X{address:X}")))
        elif kind in ("gpio", "analog"):
            sensor["pin"] = draw(_PINS)
        optional(sensor, "delta", _NUMBERS)
        optional(sensor, "period_us", st.integers(1, 10**6))
        sensors.append(optional(sensor, "units", st.text(max_size=3)))
    actuator_names = [f"a{i}" for i in range(draw(st.integers(0, 2)))]
    actuators = []
    for name in actuator_names:
        actuator = optional({"name": name, "type": draw(_KINDS[cfg.ACTUATOR_KINDS])}, "pin", _PINS)
        optional(actuator, "min_value", st.sampled_from((-1.0, -0.0, 0.0, 0.25)))
        actuators.append(optional(actuator, "max_value", st.sampled_from((0.5, 1.0, 2.0))))
    open_unit = st.floats(0, 1, exclude_min=True, exclude_max=True)
    priorities = iter(draw(st.lists(open_unit, min_size=3, max_size=3, unique=True)))
    behaviors = []
    for i in range(draw(st.integers(0, 3))):
        behavior = {"name": f"b{i}"}
        if draw(st.booleans()):  # a safety behavior may declare a priority, which parsing pins to 1.0
            behavior["safety"] = True
            optional(behavior, "priority", st.sampled_from((0.3, 5, -0.0)))
        else:
            optional(behavior, "safety", st.just(False))
            if draw(st.booleans()):
                behavior["priority"] = next(priorities)
        behaviors.append(optional(behavior, "action", st.sampled_from(["", *actuator_names])))
    algorithms = []
    for i in range(draw(st.integers(0, 3)) if sensor_names else 0):
        plugin = draw(st.sampled_from(sorted(PLUGIN_REGISTRY)))
        params = draw(_OWN_PARAMS[plugin])
        if draw(st.booleans()):
            algorithm = {"name": f"f{i}", "plugin": plugin}
        else:  # a legacy path, whose basename may name no plugin, keeps extra params
            stem = draw(st.sampled_from((plugin, plugin.upper(), "custom")))
            algorithm = {"name": f"f{i}", "path": f"lib/{stem}.so"}
            params = {**draw(_EXTRA_PARAMS), **(params if stem != "custom" else {})}
        optional(algorithm, "inputs", st.lists(st.sampled_from(sensor_names), min_size=1, unique=True))
        optional(algorithm, "output", st.sampled_from(("", f"o{i}")))
        if params or draw(st.booleans()):
            algorithm["params"] = params
        algorithms.append(algorithm)
    safety_checks = [
        {"name": f"c{i}", "sensor": draw(st.sampled_from(sensor_names)), "threshold": draw(_NUMBERS)}
        for i in range(draw(st.integers(0, 2)) if sensor_names else 0)
    ]
    sections = {
        "sensors": sensors,
        "actuators": actuators,
        "behaviors": behaviors,
        "algorithms": algorithms,
        "safety_checks": safety_checks,
    }
    doc = {key: entries for key, entries in sections.items() if entries or draw(st.booleans())}
    if draw(st.booleans()):
        scheduler = optional({}, "alpha", st.sampled_from((0.0, -0.0, 0.05, 2)) | st.floats(0, 10))
        optional(scheduler, "window_us", st.integers(1, 10**7))
        optional(scheduler, "p_max", st.sampled_from((1.0, 1)))
        doc["scheduler"] = optional(scheduler, "default_task_cost_us", st.integers(1, 1000))
    return doc


@settings(max_examples=300)
@given(doc=_valid_configs())
def test_serialize_config_roundtrips_and_is_a_fixed_point(doc):
    config = cfg.parse_config(json.dumps(doc))
    text = cfg.serialize_config(config)
    again = cfg.parse_config(text)
    assert again == config
    assert cfg.serialize_config(again) == text


def test_accepted_configs_never_dangle():
    for text in (FULL_CONFIG,):
        config = cfg.parse_config(text)
        assert cfg.validate_config(config) == []


# Names from a tiny alphabet, so sensor names, algorithm names and outputs
# keep meeting each other's passthrough topics and actuator m's command topic.
# Output x is no sensor's name, so a stage can collide on its name alone.
_TOPIC_NAMES = st.sampled_from(("a", "b", "a_proc", "b_proc", "m_cmd"))
# every registry plugin, by name or through a legacy path's stem
_PLUGINS = st.sampled_from(sorted(PLUGIN_REGISTRY)).flatmap(
    lambda name: st.sampled_from(({"plugin": name}, {"path": f"lib/{name}.so"}))
)
# each plugin param drawn valid for its key about half of the time, otherwise
# missing (None) or from values on both sides of every rule
_PARAM_VALUES = st.sampled_from((None, 0, 2.5, 3.0, 10**400, math.nan, math.inf, "5", "1,2,4", "4,2,1", True))
_VALID_PARAMS = {"k": (1, 4), "threshold": (2.5,), "thresholds": ("1,2,4",)}
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
        params = {key: draw(st.sampled_from(_VALID_PARAMS[key]) | _PARAM_VALUES) for key in keys}
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


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"sensors": [{"name": "touch", "type": "virtual", "delta": -3, "delta": 0.5}]}', "sensors[0].delta"),
        ('{"sensors": [{"name": "touch", "type": "virtual", "delta": 0.5, "delta": -3}]}', "sensors[0].delta"),
        (
            '{"sensors": [{"name": "touch", "type": "virtual"}], "algorithms": [{"name": "avg", '
            '"plugin": "moving_average", "inputs": ["touch"], "params": {"k": 0, "k": 3}}]}',
            "algorithms[0].params.k",
        ),
        ('{"sensors": [], "sensors": [{"name": "touch", "type": "virtual"}]}', "sensors"),
        ('{"scheduler": {"alpha": 0.1, "alpha": 0.2}}', "scheduler.alpha"),
        # outer objects first, then each object's values in document order
        ('{"sensors": [{"name": "a", "name": "b"}], "sensors": []}', "sensors"),
        ('{"sensors": [{"units": {"x": 1, "x": 2}, "name": "a", "name": "b"}]}', "sensors[0].name"),
        ('{"sensors": [{"name": "a", "type": "virtual"}, {"name": "b", "units": {"x": 1, "x": 2}}]}', "sensors[1].units.x"),
        ('{"bogus": 1, "sensors": [[{"name": "a", "name": "b"}]]}', "sensors[0][0].name"),
    ],
    ids=["delta_bad_first", "delta_bad_last", "params_k", "top_level", "scheduler", "outer_first", "own_keys_first", "second_entry", "before_schema"],
)
def test_a_repeated_key_is_refused_at_its_path(text, path):
    """JSON keeps the last of a repeated key, so a bad value could hide
    behind a good one; the repeat is refused before any schema check."""
    with pytest.raises(cfg.SchemaError) as exc:
        cfg.parse_config(text)
    assert (exc.value.path, exc.value.reason) == (path, "repeated key")
    assert str(exc.value) == f"{path}: repeated key"


def test_a_key_repeated_in_no_object_is_not_a_repeat():
    config = cfg.parse_config('{"sensors": [{"name": "a", "type": "virtual"}, {"name": "b", "type": "virtual"}]}')
    assert [s.name for s in config.sensors] == ["a", "b"]
