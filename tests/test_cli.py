from __future__ import annotations

import json

import pytest

from robosync.cli import main
from robosync.engine import parse_log


@pytest.fixture()
def tmp_files(tmp_path, minimal_config_text, touch_config_text, behavior_text, touch_trace_text):
    paths = {
        "minimal": tmp_path / "minimal.json",
        "config": tmp_path / "touch.json",
        "behavior": tmp_path / "behavior.rsb",
        "trace": tmp_path / "trace.jsonl",
    }
    paths["minimal"].write_text(minimal_config_text)
    paths["config"].write_text(touch_config_text)
    paths["behavior"].write_text(behavior_text)
    paths["trace"].write_text(touch_trace_text)
    return paths


def test_validate_ok(tmp_files, capsys):
    assert main(["validate", "-c", str(tmp_files["minimal"])]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_validate_duplicate_priorities(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"behaviors": [{"name": "a", "priority": 0.5}, {"name": "b", "priority": 0.5}]}))
    assert main(["validate", "-c", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("behaviors[1].priority")


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "-c", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_prints_canonical_form(tmp_files, capsys):
    assert main(["parse", "-b", str(tmp_files["behavior"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("WHEN touch LEVEL < 3\n")
    assert "    MOVE arms SLOWLY" in out


def test_parse_dump_ast(tmp_files, capsys):
    assert main(["parse", "-b", str(tmp_files["behavior"]), "--dump-ast"]) == 0
    out = capsys.readouterr().out
    assert "Rule(" in out and "Definition(" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rsb"
    bad.write_text("DEFINE x\n")
    assert main(["parse", "-b", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_long_condition_chain_is_a_parse_error(tmp_files, tmp_path, capsys):
    long_chain = tmp_path / "chain.rsb"
    terms = " AND ".join(f"touch < {i}" for i in range(5000))
    long_chain.write_text(f"WHEN {terms}\nDO gentle_response\nEND\n")
    assert main(["parse", "-b", str(long_chain)]) == 1
    assert capsys.readouterr().err.startswith("parse error: ")
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(long_chain), "-t", str(tmp_files["trace"])]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("parse error: ")


def test_run_writes_log_and_stats(tmp_files, tmp_path, capsys):
    out_path = tmp_path / "log.jsonl"
    code = main(
        [
            "run",
            "-c", str(tmp_files["config"]),
            "-b", str(tmp_files["behavior"]),
            "-t", str(tmp_files["trace"]),
            "-o", str(out_path),
            "--stats",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    stats = json.loads(captured.err)
    assert stats["behaviors_fired"] == 2
    assert stats["halted"] is False
    lines = out_path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "sensor_event"


def test_run_stdout_deterministic(tmp_files, capsys):
    argv = [
        "run",
        "-c", str(tmp_files["config"]),
        "-b", str(tmp_files["behavior"]),
        "-t", str(tmp_files["trace"]),
        "-o", "-",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first  # non-empty


def test_run_until_zero_drops_everything(tmp_files, capsys):
    argv = [
        "run",
        "-c", str(tmp_files["config"]),
        "-b", str(tmp_files["behavior"]),
        "-t", str(tmp_files["trace"]),
        "--until", "0",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sensor_event" not in out


def test_run_negative_until_is_usage_error(tmp_files, capsys):
    argv = [
        "run",
        "-c", str(tmp_files["config"]),
        "-b", str(tmp_files["behavior"]),
        "-t", str(tmp_files["trace"]),
        "--until", "-5",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--until: expected a non-negative integer, got '-5'" in captured.err


def test_run_huge_wait_is_a_parse_error(tmp_files, tmp_path, capsys):
    program = tmp_path / "wait.rsb"
    program.write_text(
        "WHEN touch LEVEL < 3\nDO gentle_response\nEND\n"
        "DEFINE gentle_response\nWAIT 99999999999999999999 ms\nMOVE arms SLOWLY\nEND\n"
    )
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(program), "-t", str(tmp_files["trace"])]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("parse error: 5:6: WAIT duration must be at most")


_PLUGIN_CONFIG = (
    '{"sensors": [{"name": "touch", "type": "virtual", "delta": 0.5}], '
    '"actuators": [{"name": "arms", "type": "pwm", "pin": 10}, {"name": "sound", "type": "audio"}], '
    '"algorithms": [{"name": "proc", "plugin": "%s", "inputs": ["touch"], "output": "proc"%s}]}'
)


@pytest.mark.parametrize(
    "plugin, params, values, t_us",
    [
        ("moving_average", ', "params": {"k": 2}', ["1.7e308", "1.6e308"], 2000),
        ("jerk_level", "", ["-1e308", "1e308", "-1e308"], 1002),
    ],
    ids=["moving_average", "jerk_level"],
)
def test_run_non_finite_plugin_output_is_a_run_error(tmp_files, tmp_path, capsys, plugin, params, values, t_us):
    config = tmp_path / "config.json"
    config.write_text(_PLUGIN_CONFIG % (plugin, params))
    trace = tmp_path / "trace.jsonl"
    step = 1000 if plugin == "moving_average" else 1
    trace.write_text("".join(f'{{"t_us": {1000 + i * step}, "sensor": "touch", "value": {v}}}\n' for i, v in enumerate(values)))
    log = tmp_path / "log.jsonl"
    argv = ["run", "-c", str(config), "-b", str(tmp_files["behavior"]), "-t", str(trace), "-o", str(log)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"run error: plugin {plugin!r} gave non-finite output inf for sensor 'touch' at t_us {t_us}\n"
    )
    assert not log.exists()


def test_run_jerk_level_at_one_instant_exits_zero(tmp_files, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(_PLUGIN_CONFIG % ("jerk_level", ""))
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(f'{{"t_us": 1000, "sensor": "touch", "value": {v}}}\n' for v in (1, 5, 9)))
    argv = ["run", "-c", str(config), "-b", str(tmp_files["behavior"]), "-t", str(trace)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    processed = [e for e in parse_log(captured.out) if e.kind == "message" and e.detail["topic"] == "proc"]
    assert [e.detail["value"] for e in processed] == [0.0]  # the later two readings share its t_us


@pytest.mark.parametrize(
    "reader, text, message",
    [
        ("stats", "[" * 100_000 + "]" * 100_000, "malformed log: line 1: invalid JSON: nested too deeply\n"),
        ("trace", "[" * 100_000 + "]" * 100_000, "trace error: line 1: invalid JSON: nested too deeply\n"),
        ("trace", '{"t_us": ' + "9" * 5000 + "}", "trace error: line 1: invalid JSON: Exceeds the limit"),
        ("validate", "[" * 100_000 + "]" * 100_000, "line 1, column 100000: nested too deeply\n"),
        ("validate", '{"scheduler": {"window_us": ' + "9" * 5000 + "}}", "line 1, column 29: Exceeds the limit"),
        ("config", "[" * 100_000 + "]" * 100_000, "line 1, column 100000: nested too deeply\n"),
    ],
    ids=["stats_deep", "trace_deep", "trace_long_int", "validate_deep", "validate_long_int", "run_config_deep"],
)
def test_json_readers_never_trace_back(tmp_files, tmp_path, capsys, reader, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    argv = {
        "stats": ["stats", str(path)],
        "trace": ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(path)],
        "validate": ["validate", "-c", str(path)],
        "config": ["run", "-c", str(path), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])],
    }[reader]
    assert main(argv) == 1
    captured = capsys.readouterr()
    output = captured.out if reader == "validate" else captured.err
    assert output.startswith(message)
    assert "Traceback" not in captured.out + captured.err


def test_run_bad_trace_exits_one(tmp_files, tmp_path, capsys):
    bad_trace = tmp_path / "bad.jsonl"
    bad_trace.write_text('{"t_us": 1, "sensor": "ghost", "value": 0}\n')
    argv = [
        "run",
        "-c", str(tmp_files["config"]),
        "-b", str(tmp_files["behavior"]),
        "-t", str(bad_trace),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "ghost" in err


def test_run_bind_error_exits_one(tmp_files, tmp_path, capsys):
    bad = tmp_path / "bad.rsb"
    bad.write_text("WHEN warp < 1\nDO gentle\nEND\n")
    argv = [
        "run",
        "-c", str(tmp_files["config"]),
        "-b", str(bad),
        "-t", str(tmp_files["trace"]),
    ]
    assert main(argv) == 1
    assert "bind error" in capsys.readouterr().err


def test_stats_roundtrip(tmp_files, tmp_path, capsys):
    out_path = tmp_path / "log.jsonl"
    main(
        [
            "run",
            "-c", str(tmp_files["config"]),
            "-b", str(tmp_files["behavior"]),
            "-t", str(tmp_files["trace"]),
            "-o", str(out_path),
            "--stats",
        ]
    )
    run_stats = capsys.readouterr().err
    assert main(["stats", str(out_path)]) == 0
    assert capsys.readouterr().out == run_stats


def test_stats_empty_log_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["stats", str(empty)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["dispatches"] == 0
    assert stats["halted"] is False


def test_stats_truncated_line_names_line(tmp_files, tmp_path, capsys):
    out_path = tmp_path / "log.jsonl"
    main(
        [
            "run",
            "-c", str(tmp_files["config"]),
            "-b", str(tmp_files["behavior"]),
            "-t", str(tmp_files["trace"]),
            "-o", str(out_path),
        ]
    )
    text = out_path.read_text().splitlines()
    text[3] = text[3][:20]
    out_path.write_text("\n".join(text))
    assert main(["stats", str(out_path)]) == 1
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("t_us, enqueue_t_us", [("1e999", "0"), ("5", "NaN")], ids=["t_us_overflow", "nan"])
def test_stats_never_prints_non_finite_numbers(tmp_path, capsys, t_us, enqueue_t_us):
    log = tmp_path / "log.jsonl"
    log.write_text(
        f'{{"seq": 0, "t_us": {t_us}, "kind": "task_start", "detail": '
        f'{{"task": "t", "enqueue_seq": 0, "enqueue_t_us": {enqueue_t_us}, "priority": 0.5}}}}\n'
        '{"seq": 1, "t_us": 10, "kind": "task_finish", "detail": {"task": "t", "enqueue_seq": 0}}\n'
    )
    assert main(["stats", str(log)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed log: line 1: ")


def test_halted_run_exits_zero(tmp_files, tmp_path, capsys):
    # A safety halt is a correct outcome, not a failure.
    trace = tmp_path / "halt.jsonl"
    trace.write_text('{"t_us": 1000, "override": "STOP"}\n')
    argv = [
        "run",
        "-c", str(tmp_files["config"]),
        "-b", str(tmp_files["behavior"]),
        "-t", str(trace),
        "--stats",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.err)["halted"] is True
    assert '"kind": "safety_halt"' in captured.out


def test_stats_of_golden_log_matches_golden_stats(fixtures_dir, capsys):
    assert main(["stats", str(fixtures_dir / "golden_touch_log.jsonl")]) == 0
    assert capsys.readouterr().out == (fixtures_dir / "golden_touch_stats.json").read_text()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required flags
    assert exc.value.code == 2
