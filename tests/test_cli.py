from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robosync import cli
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


_VIRTUAL = {"type": "virtual"}


@pytest.mark.parametrize(
    "doc, line",
    [
        (
            {"sensors": [{"name": "a", **_VIRTUAL}], "algorithms": [{"name": "f", "plugin": "passthrough", "output": "a"}]},
            "algorithms[0].output: topic 'a' is already produced by sensors[0].name",
        ),
        (
            {
                "sensors": [{"name": "a", **_VIRTUAL}, {"name": "b", **_VIRTUAL}],
                "algorithms": [{"name": "f", "plugin": "passthrough", "inputs": ["a"], "output": "b_proc"}],
            },
            "sensors[1].name: passthrough topic 'b_proc' is already produced by algorithms[0].output",
        ),
        (
            {"sensors": [{"name": "m_cmd", **_VIRTUAL}], "actuators": [{"name": "m", "type": "pwm"}]},
            "actuators[0].name: command topic 'm_cmd' is already produced by sensors[0].name",
        ),
        (
            {"sensors": [{"name": "a", **_VIRTUAL}, {"name": "a_proc", **_VIRTUAL}]},
            "sensors[0].name: passthrough topic 'a_proc' is already produced by sensors[1].name",
        ),
        (
            {
                "sensors": [{"name": "a", **_VIRTUAL}],
                "algorithms": [{"name": "f", "plugin": "passthrough"}, {"name": "g", "plugin": "passthrough", "output": "f"}],
            },
            "algorithms[1].output: topic 'f' is already produced by algorithms[0].output",
        ),
        (
            # no topic collides, but unread sensor b's passthrough stage is named b_proc too
            {
                "sensors": [{"name": "a", **_VIRTUAL}, {"name": "b", **_VIRTUAL}],
                "algorithms": [{"name": "b_proc", "plugin": "passthrough", "inputs": ["a"], "output": "x"}],
            },
            "algorithms[0].name: stage name 'b_proc' is already taken by the passthrough stage of sensors[1].name",
        ),
    ],
    ids=[
        "output_is_sensor",
        "output_is_passthrough",
        "sensor_is_command",
        "sensor_is_passthrough",
        "outputs_repeat",
        "name_is_passthrough_stage",
    ],
)
def test_topic_collision_is_located_by_validate_and_run(tmp_path, capsys, doc, line):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    empty = tmp_path / "empty"
    empty.write_text("")
    assert main(["validate", "-c", str(config)]) == 1
    assert capsys.readouterr() == (line + "\n", "")
    assert main(["run", "-c", str(config), "-b", str(empty), "-t", str(empty)]) == 1
    assert capsys.readouterr() == ("", line + "\n")  # not a `setup error:` from the bus


_LONG = "1" + "0" * 400  # an integer too large for a float


@pytest.mark.parametrize(
    "plugin, params, line",
    [
        ("touch_level", "{}", "algorithms[0].params.thresholds: required"),
        ("moving_average", '{"k": 0}', "algorithms[0].params.k: must be a positive integer"),
        ("moving_average", '{"k": NaN}', "algorithms[0].params.k: must be a positive integer"),
        ("moving_average", '{"k": Infinity}', "algorithms[0].params.k: must be a positive integer"),
        ("threshold_classifier", '{"threshold": "5"}', "algorithms[0].params.threshold: must be a finite number"),
        ("threshold_classifier", '{"threshold": %s}' % _LONG, "algorithms[0].params.threshold: must be a finite number"),
        (
            "touch_level",
            '{"thresholds": %s}' % _LONG,
            "algorithms[0].params.thresholds: must be a finite number or a comma string of finite numbers",
        ),
        ("moving_average", '{"K": 5}', "algorithms[0].params.K: unknown key"),
    ],
    ids=[
        "no_thresholds",
        "k_zero",
        "k_nan",
        "k_infinity",
        "threshold_string",
        "threshold_long",
        "thresholds_long",
        "k_misspelt",
    ],
)
def test_bad_plugin_params_are_located_by_validate_and_run(tmp_files, touch_config_text, capsys, plugin, params, line):
    algorithm = '{"name": "p", "plugin": "%s", "inputs": ["touch"], "params": %s}' % (plugin, params)
    tmp_files["config"].write_text(touch_config_text.replace('"algorithms": []', f'"algorithms": [{algorithm}]'))
    assert main(["validate", "-c", str(tmp_files["config"])]) == 1
    assert capsys.readouterr() == (line + "\n", "")
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", line + "\n")


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


def _cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "robosync.cli", *argv]


def _cli_env() -> dict[str, str]:
    """The environment for a `robosync.cli` subprocess that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize(
    "trace_lines, until",
    [
        (['{"t_us": 1000, "sensor": "touch", "value": 2}', '{"t_us": 100000000000000, "sensor": "touch", "value": 2}'], None),
        (None, "100000000000000"),
    ],
    ids=["trace_gap", "until"],
)
def test_run_over_idle_windows_is_refused_before_ticking_them(tmp_files, tmp_path, trace_lines, until):
    # a subprocess with a timeout, so that a run that ticks the 10^8 idle
    # windows fails the test instead of hanging the suite
    trace = tmp_files["trace"]
    if trace_lines is not None:
        trace = tmp_path / "gap.jsonl"
        trace.write_text("\n".join(trace_lines) + "\n")
    log = tmp_path / "log.jsonl"
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(trace), "-o", str(log)]
    if until is not None:
        argv += ["--until", until]
    done = subprocess.run(_cli_argv(argv), capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        "run error: 100000000 window boundaries up to t_us 100000000000000 would log 600000000 "
        "priority updates, more than 1000000; raise window_us or shorten the run\n"
    )
    assert not log.exists()


def _run_to_a_closed_pipe(tmp_files, tmp_path, readings: int, env: dict[str, str]) -> None:
    """`robosync run -o -` on `readings` touch readings, its stdout closed
    after 100 bytes: exit 2 with one line, no traceback and no "Exception
    ignored" from the flush at exit."""
    trace = tmp_path / "long.jsonl"
    trace.write_text(
        "".join(f'{{"t_us": {1000 * i}, "sensor": "touch", "value": {2 + 3 * (i % 2)}}}\n' for i in range(1, readings + 1))
    )
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(trace), "-o", "-"]
    with subprocess.Popen(_cli_argv(argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            status = proc.wait(timeout=30)
        finally:
            proc.kill()
        stderr = proc.stderr.read().decode()
    assert len(head) == 100 and head.startswith(b'{"seq": 0, "t_us": 1000, "kind": "sensor_event"')
    assert (status, stderr) == (2, "error: cannot write -: Broken pipe\n")


def test_run_to_a_closed_pipe_is_an_io_error(tmp_files, tmp_path):
    # 1,000 readings log 18,000 entries, three batches of more than a pipe's
    # 64 KiB each, so some write comes after the reader has gone, buffered
    # stdout or not
    _run_to_a_closed_pipe(tmp_files, tmp_path, 1000, _cli_env())


def test_unbuffered_run_to_a_closed_pipe_is_an_io_error(tmp_files, tmp_path):
    # under PYTHONUNBUFFERED stdout sits on a raw file: the one write of this
    # one-batch, 545,512-byte log is cut short when the reader goes, and a
    # dropped short write would exit 0 with nothing said
    _run_to_a_closed_pipe(tmp_files, tmp_path, 200, {**_cli_env(), "PYTHONUNBUFFERED": "1"})


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_run_output_does_not_depend_on_the_batch_size(tmp_files, tmp_path, fixtures_dir, capsys, monkeypatch, batch):
    monkeypatch.setattr(cli, "LOG_BATCH_ENTRIES", batch)
    golden_log = (fixtures_dir / "golden_touch_log.jsonl").read_bytes()
    golden_stats = (fixtures_dir / "golden_touch_stats.json").read_text(encoding="utf-8")
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    log = tmp_path / "log.jsonl"
    assert main([*argv, "-o", str(log)]) == 0
    assert log.read_bytes() == golden_log
    assert main([*argv, "-o", "-"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden_log
    assert main([*argv, "-o", os.devnull, "--stats"]) == 0
    assert capsys.readouterr().err == golden_stats

    gap = tmp_path / "gap.jsonl"
    gap.write_text('{"t_us": 1000, "sensor": "touch", "value": 2}\n{"t_us": 100000000000000, "sensor": "touch", "value": 2}\n')
    gap_log = tmp_path / "gap_log.jsonl"
    assert main(["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(gap), "-o", str(gap_log)]) == 1
    assert capsys.readouterr().err.startswith("run error: ")
    assert not gap_log.exists()


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


@pytest.mark.parametrize(
    "command, flag",
    [("validate", "-c"), ("parse", "-b"), ("run", "-c"), ("run", "-b"), ("run", "-t"), ("stats", None)],
    ids=["validate_config", "parse_behavior", "run_config", "run_behavior", "run_trace", "stats_log"],
)
def test_invalid_utf8_input_is_a_located_domain_error(tmp_files, tmp_path, capsys, command, flag):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"t_us": 1}\r\n\r  \xff "x"\n')  # the bad byte is on line 3, as the readers count lines
    if command == "run":  # the other two inputs are good
        inputs = {"-c": tmp_files["config"], "-b": tmp_files["behavior"], "-t": tmp_files["trace"], flag: bad}
        argv = ["run", *(arg for f, path in inputs.items() for arg in (f, str(path)))]
    else:
        argv = [command, *filter(None, [flag]), str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 3: invalid UTF-8 byte 0xff\n"


def test_run_priority_overflow_is_a_run_error(tmp_files, tmp_path, capsys):
    # validation cannot refuse this alpha: whether alpha * F / W overflows depends on the trace's F
    config = tmp_path / "config.json"
    doc = json.loads(tmp_files["config"].read_text())
    doc["scheduler"] = {"alpha": 1e308, "window_us": 1000}
    config.write_text(json.dumps(doc))
    assert main(["validate", "-c", str(config)]) == 0
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"t_us": 100, "sensor": "touch", "value": 2}\n{"t_us": 1500, "sensor": "touch", "value": 3}\n')
    log = tmp_path / "log.jsonl"
    capsys.readouterr()
    assert main(["run", "-c", str(config), "-b", str(tmp_files["behavior"]), "-t", str(trace), "-o", str(log)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "run error: priority adjustment alpha * F / W is inf for behavior 'gentle_response' "
        "with F 1 in the window ending at t_us 1000\n"
    )
    assert not log.exists()


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


def test_main_leaves_no_cyclic_garbage(fixtures_dir, capsys):
    # the argument parser sits in reference cycles, so the first call builds
    # the one parser of the process and later calls reuse it
    argv = ["stats", str(fixtures_dir / "golden_touch_log.jsonl")]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required flags
    assert exc.value.code == 2
