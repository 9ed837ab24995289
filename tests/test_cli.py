from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from robosync import cli, engine
from robosync.cli import main
from robosync.config import parse_config
from robosync.dsl import bind_program, parse_program
from robosync.engine import parse_log
from robosync.sensorproc import NonFiniteOutputError

from conftest import FIXTURES

GOLDEN_LOG = (FIXTURES / "golden_touch_log.jsonl").read_text(encoding="utf-8")
GOLDEN_STATS = (FIXTURES / "golden_touch_stats.json").read_text(encoding="utf-8")


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
        (
            # the stage would subscribe to sensor a's topic twice, and run twice per reading
            {"sensors": [{"name": "a", **_VIRTUAL}], "algorithms": [{"name": "f", "plugin": "passthrough", "inputs": ["a", "a"]}]},
            "algorithms[0].inputs[1]: duplicate",
        ),
    ],
    ids=[
        "output_is_sensor",
        "output_is_passthrough",
        "sensor_is_command",
        "sensor_is_passthrough",
        "outputs_repeat",
        "name_is_passthrough_stage",
        "inputs_repeat",
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


@pytest.mark.parametrize(
    "text, line",
    [
        (
            '{"sensors": [{"name": "touch", "type": "virtual", "delta": -3, "delta": 0.5}]}',
            "sensors[0].delta: repeated key",
        ),
        (
            '{"sensors": [{"name": "touch", "type": "virtual"}], "algorithms": [{"name": "avg", '
            '"plugin": "moving_average", "inputs": ["touch"], "params": {"k": 0, "k": 3}}]}',
            "algorithms[0].params.k: repeated key",
        ),
    ],
    ids=["sensor_delta", "params_k"],
)
def test_a_repeated_config_key_is_located_by_validate_and_run(tmp_files, capsys, text, line):
    tmp_files["config"].write_text(text)
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


@pytest.mark.parametrize("until", ["-5", "abc", "1.5", ""], ids=["negative", "not_a_number", "fraction", "empty"])
def test_run_negative_until_is_usage_error(tmp_files, capsys, until):
    argv = [
        "run",
        "-c", str(tmp_files["config"]),
        "-b", str(tmp_files["behavior"]),
        "-t", str(tmp_files["trace"]),
        "--until", until,
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--until: expected a non-negative integer, got {until!r}" in captured.err


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


def _touch_trace(readings: int, *tail: str) -> str:
    """`readings` touch readings 1 ms apart, alternating 2 and 5, then the `tail` lines."""
    lines = [f'{{"t_us": {1000 * i}, "sensor": "touch", "value": {2 + 3 * (i % 2)}}}' for i in range(1, readings + 1)]
    return "".join(line + "\n" for line in (*lines, *tail))


def _run_to_a_closed_pipe(tmp_files, tmp_path, readings: int, env: dict[str, str]) -> None:
    """`robosync run -o -` on `readings` touch readings, its stdout closed
    after 100 bytes: exit 2 with one line, no traceback and no "Exception
    ignored" from the flush at exit."""
    trace = tmp_path / "long.jsonl"
    trace.write_text(_touch_trace(readings))
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
    # 1,000 readings log 18,000 entries, about 2.8 MB: many times what a
    # pipe's 64 KiB and stdout's buffer hold, so some write comes after the
    # reader has gone, buffered stdout or not
    _run_to_a_closed_pipe(tmp_files, tmp_path, 1000, _cli_env())


def test_unbuffered_run_to_a_closed_pipe_is_an_io_error(tmp_files, tmp_path):
    # under PYTHONUNBUFFERED stdout sits on a raw file, whose short write to
    # a pipe whose reader has gone is dropped: without the buffered writer
    # `main` puts on it, this 545,512-byte log, many times what the pipe
    # holds, would exit 0 with nothing said
    _run_to_a_closed_pipe(tmp_files, tmp_path, 200, {**_cli_env(), "PYTHONUNBUFFERED": "1"})


class _RawSink(io.RawIOBase):
    """A raw stdout that keeps every byte written to it."""

    def __init__(self) -> None:
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.data += b
        return len(b)


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_run_output_does_not_depend_on_the_batch_size(tmp_files, tmp_path, fixtures_dir, capsys, monkeypatch, batch):
    # the writer hands each batch of lines to its output, whose buffers cut
    # them up: with `-o -` stdout's buffers here hold `batch` at a time
    golden_log = (fixtures_dir / "golden_touch_log.jsonl").read_bytes()
    golden_stats = (fixtures_dir / "golden_touch_stats.json").read_text(encoding="utf-8")
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    log = tmp_path / "log.jsonl"
    assert main([*argv, "-o", str(log)]) == 0
    assert log.read_bytes() == golden_log
    raw = _RawSink()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=batch), encoding="utf-8")
    stdout._CHUNK_SIZE = batch
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert main([*argv, "-o", "-"]) == 0
    assert bytes(raw.data) == golden_log
    assert main([*argv, "-o", os.devnull, "--stats"]) == 0
    assert capsys.readouterr().err == golden_stats

    gap = tmp_path / "gap.jsonl"
    gap.write_text('{"t_us": 1000, "sensor": "touch", "value": 2}\n{"t_us": 100000000000000, "sensor": "touch", "value": 2}\n')
    gap_log = tmp_path / "gap_log.jsonl"
    assert main(["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(gap), "-o", str(gap_log)]) == 1
    assert capsys.readouterr().err.startswith("run error: ")
    assert not gap_log.exists()


def test_run_to_stdout_writes_the_log_bytes_after_the_text_before(tmp_files, fixtures_dir, monkeypatch):
    # `-o -` writes the log to stdout's binary layer once its text layer is
    # flushed, so text printed before comes first; a stdout with no binary
    # layer, such as a StringIO, gets the log as text
    golden_log = (fixtures_dir / "golden_touch_log.jsonl").read_bytes()
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"]), "-o", "-"]
    raw = _RawSink()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    stdout.write("printed before\n")
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
    assert bytes(raw.data) == b"printed before\n" + golden_log
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue() == golden_log.decode("ascii")


_FAILING_RUNS = {
    # 300 readings, then two whose moving average overflows
    "non_finite": (
        _PLUGIN_CONFIG % ("moving_average", ', "params": {"k": 2}'),
        _touch_trace(300, '{"t_us": 400000, "sensor": "touch", "value": 1.7e308}', '{"t_us": 401000, "sensor": "touch", "value": 1.6e308}'),
        "run error: plugin 'moving_average' gave non-finite output inf for sensor 'touch' at t_us 401000\n",
    ),
    # 300 readings, then a gap of 10^8 idle windows
    "gap": (
        None,
        _touch_trace(300, '{"t_us": 100000000000000, "sensor": "touch", "value": 2}'),
        "run error: 100000000 window boundaries up to t_us 100000000000000 would log 600000000 "
        "priority updates, more than 1000000; raise window_us or shorten the run\n",
    ),
}


def _watch_the_writer(monkeypatch, fail_after: int | None = None) -> list[tuple[bytes, BaseException | None]]:
    """Each bytes the run's writer writes to its output, in order, with the
    exception on its way out of the run as it was written, if any; once
    `fail_after` lines are written, the next write finds the disk full."""
    written: list[tuple[bytes, BaseException | None]] = []
    init = engine.LogWriter.__init__

    class Watched:
        def __init__(self, out):
            self.out, self.lines = out, 0

        def write(self, data):
            if fail_after is not None and self.lines >= fail_after:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.lines += data.count(b"\n")
            written.append((data, sys.exc_info()[1]))
            return self.out.write(data)

    monkeypatch.setattr(engine.LogWriter, "__init__", lambda writer, out: init(writer, Watched(out)))
    return written


@pytest.mark.parametrize("target", ["absent", "older_file", "stdout"])
@pytest.mark.parametrize("failure", sorted(_FAILING_RUNS))
def test_run_error_after_output_began_leaves_the_output_path_as_it_was(tmp_files, tmp_path, capsys, monkeypatch, failure, target):
    config_text, trace_text, error = _FAILING_RUNS[failure]
    if config_text is not None:
        tmp_files["config"].write_text(config_text)
    tmp_files["trace"].write_text(trace_text)
    # the lines the run logs before its error, each handed on as it is
    # logged, in batches of one, so that none waits when the error comes
    config = parse_config(tmp_files["config"].read_text())
    program = bind_program(parse_program(tmp_files["behavior"].read_text()), config)
    one_by_one = io.BytesIO()
    with monkeypatch.context() as patch:
        patch.setattr(engine, "BATCH_ENTRIES", 1)
        with pytest.raises((NonFiniteOutputError, engine.RunLimitError)):
            engine.run(config, program, engine.load_trace(trace_text, config), sink=engine.LogWriter(one_by_one))
    written = _watch_the_writer(monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    log = out_dir / "log.jsonl"
    if target == "older_file":
        log.write_text("an older log\n")
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    assert main([*argv, "-o", "-" if target == "stdout" else str(log)]) == 1
    logged = b"".join(data for data, _raised in written)
    assert logged.count(b"\n") > 1000  # the output had begun
    # a batch waited when the error came: the writer was handed it last, as
    # the error left the run, and so every line logged before the error
    assert [raised for _data, raised in written[:-1]] == [None] * (len(written) - 1)
    assert isinstance(written[-1][1], (NonFiniteOutputError, engine.RunLimitError))
    assert logged == one_by_one.getvalue()
    captured = capsys.readouterr()
    assert captured.err == error
    if target == "stdout":
        # stdout cannot take back what it was given: each line logged before the error
        assert captured.out == logged.decode("ascii") and captured.out.endswith("\n")
    else:
        assert captured.out == ""
    assert [path.name for path in out_dir.iterdir()] == ([] if target != "older_file" else ["log.jsonl"])
    if target == "older_file":
        assert log.read_text() == "an older log\n"


@pytest.mark.parametrize("where", ["missing_dir", "disk_full"])
def test_run_output_error_is_an_io_error(tmp_files, tmp_path, capsys, monkeypatch, where):
    output = tmp_path / "missing" / "log.jsonl" if where == "missing_dir" else tmp_path / "log.jsonl"
    reason = os.strerror(errno.ENOENT if where == "missing_dir" else errno.ENOSPC)
    _watch_the_writer(monkeypatch, fail_after=1000)
    tmp_files["trace"].write_text(_touch_trace(1000))  # 18,000 lines
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    assert main([*argv, "-o", str(output)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {output}: {reason}\n")
    assert sorted(tmp_path.iterdir()) == sorted(tmp_files.values())  # no temporary file left


def test_run_output_builds_no_log_entry(tmp_files, tmp_path, fixtures_dir, monkeypatch, capsys):
    # the writer renders each entry from its row and values, so `run -o` builds
    # no LogEntry (nor its detail dict); nor does `--stats`, which counts rows
    # and values, or `robosync stats`; `parse_log` does, and shows the patch bites
    def no_entry(*args):
        raise AssertionError("a LogEntry was built")

    monkeypatch.setattr(engine, "LogEntry", no_entry)
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    log = tmp_path / "log.jsonl"
    assert main([*argv, "-o", str(log)]) == 0
    assert log.read_bytes() == (fixtures_dir / "golden_touch_log.jsonl").read_bytes()
    golden_stats = (fixtures_dir / "golden_touch_stats.json").read_text()
    assert main([*argv, "-o", os.devnull, "--stats"]) == 0
    assert capsys.readouterr() == ("", golden_stats)
    assert main(["stats", str(log)]) == 0
    assert capsys.readouterr() == (golden_stats, "")
    with pytest.raises(AssertionError, match="^a LogEntry was built$"):
        engine.parse_log(log.read_text())


def test_run_output_replaces_the_file_its_path_names(tmp_files, tmp_path, fixtures_dir):
    # the log takes the older file's place and mode; a symlink still points at it
    log = tmp_path / "log.jsonl"
    log.write_text("an older log\n")
    log.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(log)
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    assert main([*argv, "-o", str(link)]) == 0
    assert link.is_symlink() and log.read_bytes() == (fixtures_dir / "golden_touch_log.jsonl").read_bytes()
    assert log.stat().st_mode & 0o777 == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*(path.name for path in tmp_files.values()), "log.jsonl", "link.jsonl"])


def test_run_memory_does_not_grow_with_the_log(tmp_files, tmp_path):
    # the log streams to its file line by line: four times the readings may
    # not take even half again the memory (holding every entry took 2.9x)
    argv = ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"])]
    assert main([*argv, "-o", str(tmp_path / "warm.jsonl")]) == 0  # the parser and line functions, made once
    peaks = {}
    for readings in (1000, 4000):
        tmp_files["trace"].write_text(_touch_trace(readings))
        gc.collect()
        tracemalloc.start()
        try:
            assert main([*argv, "-o", str(tmp_path / "log.jsonl")]) == 0
            peaks[readings] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] < 1.5 * peaks[1000], peaks


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
    "reader, text, message",
    [
        ("trace", '{"t_us": 1000, "sensor": "touch", "value": 2, "t_us": 5}\n', "trace error: line 1: repeated key 't_us'\n"),
        (
            "stats",
            '{"seq": 0, "t_us": 0, "kind": "sensor_event", "detail": {"sensor": "touch", "value": 2.000000}, "seq": 5}\n',
            "malformed log: line 1: repeated key 'seq'\n",
        ),
        (
            "stats",
            '{"seq": 0, "t_us": 0, "kind": "sensor_event", "detail": {"sensor": "touch", "value": 2.0, "value": 3.0}}\n',
            "malformed log: line 1: repeated key 'value'\n",
        ),
    ],
    ids=["trace_t_us", "log_seq", "log_detail_value"],
)
def test_a_repeated_key_is_refused_at_its_line(tmp_files, tmp_path, capsys, reader, text, message):
    # JSON would keep the last of the two: the trace line would run at t_us 5
    path = tmp_path / "input"
    path.write_text(text)
    log = tmp_path / "log.jsonl"
    argv = {
        "stats": ["stats", str(path)],
        "trace": ["run", "-c", str(tmp_files["config"]), "-b", str(tmp_files["behavior"]), "-t", str(path), "-o", str(log)],
    }[reader]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", message)
    assert not log.exists()
    if reader == "stats":  # and parse_log refuses the same line
        with pytest.raises(engine.MalformedLogError) as refused:
            parse_log(text)
        assert f"malformed log: {refused.value}\n" == message


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


def test_a_negative_zero_alpha_reads_as_zero(tmp_files, tmp_path, capsys):
    # -0.0 < 0 is false, so validation accepts it; every delta is then alpha * F / W
    config = tmp_path / "config.json"
    doc = json.loads(tmp_files["config"].read_text())
    doc["scheduler"] = {"alpha": -0.0}
    config.write_text(json.dumps(doc))
    assert main(["validate", "-c", str(config)]) == 0
    assert capsys.readouterr().out == "OK\n"
    log = tmp_path / "log.jsonl"
    argv = ["run", "-c", str(config), "-b", str(tmp_files["behavior"]), "-t", str(tmp_files["trace"]), "-o", str(log)]
    assert main([*argv, "--until", "30000000"]) == 0
    updates = [entry.detail for entry in parse_log(log.read_text()) if entry.kind == "priority_update"]
    assert len(updates) == 30 * 6 and any(update["f_max"] for update in updates)
    assert '"delta": 0.000000' in log.read_text() and "-0.000000" not in log.read_text()


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


@pytest.mark.parametrize(
    "line, reason",
    [
        (
            '{"seq": 2, "t_us": 0, "kind": "message", "detail": {"topic": "touch", "layer": ["sensor"]}}',
            "line 1: message with unknown layer ['sensor'] at seq 2",
        ),
        (
            '{"seq": 1, "t_us": 5, "kind": "task_start", "detail": {"task": {"t": 0}, "enqueue_seq": 0, "enqueue_t_us": 0, "priority": 0.5}}',
            "line 1: task_start at seq 1: task must be a string",
        ),
        (
            '{"seq": 0, "t_us": 0, "kind": "task_finish", "detail": {"task": "t", "enqueue_seq": [0]}}',
            "line 1: task_finish at seq 0: enqueue_seq must be an integer",
        ),
    ],
    ids=["list_layer", "dict_task", "list_enqueue_seq"],
)
def test_stats_name_a_field_of_the_wrong_type(tmp_path, capsys, line, reason):
    # a field that is there but of a type its row does not declare is not a
    # missing field: the reader refuses its line
    with pytest.raises(engine.MalformedLogError) as exc:
        engine.compute_stats(parse_log(line + "\n"))
    assert str(exc.value) == reason
    log = tmp_path / "log.jsonl"
    log.write_text(line + "\n")
    assert main(["stats", str(log)]) == 1
    assert capsys.readouterr() == ("", f"malformed log: {reason}\n")


_SENSOR_FIELDS = ["topic", "layer", "bus_seq", "value", "sensor", "reading_t_us"]


@pytest.mark.parametrize(
    "detail, reason",
    [
        ('{"topic": "x", "layer": "control", "bus_seq": 0}', "line 1: message with unknown layer 'control' at seq 0"),
        (
            '{"topic": "x", "layer": "behavior", "bus_seq": 0, "value": 1.0, "sensor": "x", "reading_t_us": 0}',
            f"line 1: message of layer 'behavior' with off-schema detail fields {_SENSOR_FIELDS} at seq 0",
        ),
    ],
    ids=["control_layer", "sensor_fields_behavior_layer"],
)
def test_stats_refuse_a_message_of_a_layer_without_a_schema_row(tmp_path, capsys, detail, reason):
    # the control layer logs no message: its counter stays 0, and a message
    # that names it has no schema row, like a layer that does not exist; a
    # message of a layer with a row must hold that row's fields
    line = f'{{"seq": 0, "t_us": 0, "kind": "message", "detail": {detail}}}\n'
    with pytest.raises(engine.MalformedLogError) as exc:
        engine.compute_stats(parse_log(line))
    assert str(exc.value) == reason
    log = tmp_path / "log.jsonl"
    log.write_text(line)
    assert main(["stats", str(log)]) == 1
    assert capsys.readouterr() == ("", f"malformed log: {reason}\n")


@pytest.mark.parametrize(
    "kind, detail, reason",
    [
        ("sensor_event", '{"bogus": 1}', "sensor_event with off-schema detail fields ['bogus'] at seq 0"),
        (
            "task_start",
            '{"task": "t", "enqueue_seq": 0, "enqueue_t_us": 0, "priority": "high"}',
            "task_start at seq 0: priority must be a number",
        ),
        # JSON has one number type, so an integer is a number; a bool is neither
        (
            "task_start",
            '{"task": "t", "enqueue_seq": 0, "enqueue_t_us": 0, "priority": true}',
            "task_start at seq 0: priority must be a number",
        ),
        (
            "task_start",
            '{"task": "t", "enqueue_seq": false, "enqueue_t_us": 0, "priority": 1}',
            "task_start at seq 0: enqueue_seq must be an integer",
        ),
        # a detail holds its row's fields in their order, and no other
        (
            "task_start",
            '{"enqueue_seq": 0, "task": "t", "enqueue_t_us": 0, "priority": 0.5}',
            "task_start with off-schema detail fields ['enqueue_seq', 'task', 'enqueue_t_us', 'priority'] at seq 0",
        ),
        (
            "task_start",
            '{"task": "t", "enqueue_seq": 0, "enqueue_t_us": 0, "priority": 0.5, "note": "x"}',
            "task_start with off-schema detail fields ['task', 'enqueue_seq', 'enqueue_t_us', 'priority', 'note'] at seq 0",
        ),
        (
            "message",
            '{"topic": "s", "layer": "sensor", "bus_seq": "zero", "value": 1.0, "sensor": "s", "reading_t_us": 0}',
            "message of layer 'sensor' at seq 0: bus_seq must be an integer",
        ),
    ],
    ids=["unknown_field", "string_priority", "bool_priority", "bool_enqueue_seq", "reordered_fields", "extra_field", "string_bus_seq"],
)
def test_stats_refuse_a_detail_off_its_schema_row(tmp_path, capsys, kind, detail, reason):
    # each detail value must be of a type its row declares, under its row's
    # fields in their order: the reader refuses any other line at its number
    log = tmp_path / "log.jsonl"
    line = f'{{"seq": 0, "t_us": 0, "kind": "{kind}", "detail": {detail}}}\n'
    log.write_text(GOLDEN_LOG + line)
    number = len(GOLDEN_LOG.splitlines()) + 1
    assert main(["stats", str(log)]) == 1
    assert capsys.readouterr() == ("", f"malformed log: line {number}: {reason}\n")
    with pytest.raises(engine.MalformedLogError) as exc:
        parse_log(line)
    assert (exc.value.line, exc.value.reason) == (1, reason)


def test_stats_take_an_integer_where_a_float_is_declared(tmp_path, capsys):
    # a JSON integer is a number: a reading's value written as 2 reads as the canonical 2.000000 does
    lines = GOLDEN_LOG.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if '"value": 2.000000}' in line)
    lines[at] = lines[at].replace('"value": 2.000000}', '"value": 2}')
    log = tmp_path / "log.jsonl"
    log.write_text("".join(lines))
    assert main(["stats", str(log)]) == 0
    assert capsys.readouterr() == (GOLDEN_STATS, "")
    assert parse_log("".join(lines)) == parse_log(GOLDEN_LOG)


def _start(seq: int, enqueue_t_us: int) -> str:
    return (
        f'{{"seq": {seq}, "t_us": 0, "kind": "task_start", "detail": '
        f'{{"task": "a", "enqueue_seq": 0, "enqueue_t_us": {enqueue_t_us}, "priority": 0.500000}}}}'
    )


@pytest.mark.parametrize("compact", [False, True], ids=["canonical", "compact"])
@pytest.mark.parametrize(
    "lines, reason",
    [([_start(0, 0), _start(1, 0)], "task 'a' started twice at seq 1"), ([_start(0, 5)], "negative latency at seq 0")],
    ids=["started_twice", "negative_latency"],
)
def test_stats_refuse_a_start_they_cannot_count(tmp_path, capsys, lines, reason, compact):
    # a second start of one enqueued task, and a start before its enqueue, are
    # refused by the stats pass whether the reader takes a canonical line's
    # fast path or, with compact separators, the slow one
    if compact:
        lines = [json.dumps(json.loads(line), separators=(",", ":")) for line in lines]
    text = "".join(line + "\n" for line in lines)
    stats = engine.StatsAccumulator()
    with pytest.raises(engine.MalformedLogError):
        stats.read(text)
    assert stats.counts[engine._OTHER] == (len(lines) if compact else 0)
    log = tmp_path / "log.jsonl"
    log.write_text(text)
    assert main(["stats", str(log)]) == 1
    assert capsys.readouterr() == ("", f"malformed log: {reason}\n")
    with pytest.raises(engine.MalformedLogError) as exc:
        engine.compute_stats(parse_log(text))
    assert str(exc.value) == reason


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
