"""The golden scenarios: each directory under `fixtures/scenarios/` holds a
config, a program and a trace, and the log and stats a run of them must
give, byte for byte.  An optional `args.json` holds a list of extra `run`
arguments; without it the run gets none.

Each trio, and the touch trio, also checks a metamorphic relation between
two of its own runs: shifting the trace by whole windows shifts the log."""

from __future__ import annotations

import json

import pytest

from robosync.cli import build_parser, main
from robosync.config import parse_config, processing_stages
from robosync.dsl import bind_program, parse_program
from robosync.engine import LogEntry, load_trace, run

from conftest import FIXTURES

SCENARIOS = sorted(path for path in (FIXTURES / "scenarios").iterdir() if path.is_dir())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[path.name for path in SCENARIOS])
def test_scenario_replays_to_its_golden_log_and_stats(scenario, tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    argv = ["run", "-c", str(scenario / "config.json"), "-b", str(scenario / "behavior.rsb")]
    args = scenario / "args.json"
    extra = json.loads(args.read_text(encoding="utf-8")) if args.exists() else []
    assert main([*argv, "-t", str(scenario / "trace.jsonl"), "-o", str(log), "--stats", *extra]) == 0
    stats = (scenario / "stats.json").read_bytes()
    assert log.read_bytes() == (scenario / "log.jsonl").read_bytes()
    assert capsys.readouterr() == ("", stats.decode("utf-8"))
    assert main(["stats", str(log)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == stats


# ---------------------------------------------------------------------------
# time shift: a metamorphic relation between two runs of the same trio

# the detail fields that hold a virtual time, besides each entry's own t_us
_TIME_FIELDS = ("enqueue_t_us", "reading_t_us")

# the touch trio and every scenario: (config, program, trace, extra run arguments)
TRIOS = {
    "touch": (FIXTURES / "touch_config.json", FIXTURES / "behavior.rsb", FIXTURES / "touch_trace.jsonl", None),
    **{path.name: (path / "config.json", path / "behavior.rsb", path / "trace.jsonl", path / "args.json") for path in SCENARIOS},
}


def _replay(config, program, trace_text: str, until: int | None) -> list[LogEntry]:
    return run(config, program, load_trace(trace_text, config), horizon_us=until).entries


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("trio", sorted(TRIOS))
def test_shifting_the_trace_by_whole_windows_shifts_the_log(trio, k):
    """Every trace t_us (and --until) raised by k windows gives the same log
    after k idle windows: each task's no-op priority update per window, then
    every entry renumbered, with its t_us and time fields raised as well."""
    config_path, program_path, trace_path, args_path = TRIOS[trio]
    config = parse_config(config_path.read_text(encoding="utf-8"))
    program = bind_program(parse_program(program_path.read_text(encoding="utf-8")), config)
    extra = json.loads(args_path.read_text(encoding="utf-8")) if args_path and args_path.exists() else []
    until = build_parser().parse_args(["run", "-c", "", "-b", "", "-t", "", *extra]).until
    window_us = config.scheduler.window_us
    shift = k * window_us
    trace_text = trace_path.read_text(encoding="utf-8")
    shifted_trace = "".join(
        json.dumps({**event, "t_us": event["t_us"] + shift}) + "\n" for event in map(json.loads, trace_text.splitlines())
    )

    log = _replay(config, program, trace_text, until)
    shifted = _replay(config, program, shifted_trace, None if until is None else until + shift)

    tasks = len(config.sensors) + len(processing_stages(config)) + len(program.plans) + len(config.actuators)
    idle = k * tasks
    assert all(entry.kind == "priority_update" for entry in shifted[:idle])
    assert [entry.t_us for entry in shifted[:idle]] == [window_us * (1 + i // tasks) for i in range(idle)]
    first_window = [entry.detail["task"] for entry in shifted[:tasks]]
    assert len(set(first_window)) == tasks
    assert [entry.detail["task"] for entry in shifted[:idle]] == first_window * k
    for entry in shifted[:idle]:
        assert entry.detail["old"] == entry.detail["new"]
        assert (entry.detail["f_max"], entry.detail["behavior"], entry.detail["delta"]) == (0, None, 0.0)
    assert shifted[idle:] == [
        LogEntry(
            entry.seq + idle,
            entry.t_us + shift,
            entry.kind,
            {name: value + shift if name in _TIME_FIELDS else value for name, value in entry.detail.items()},
        )
        for entry in log
    ]
