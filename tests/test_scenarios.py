"""The golden scenarios: each directory under `fixtures/scenarios/` holds a
config, a program and a trace, and the log and stats a run of them must
give, byte for byte.  An optional `args.json` holds a list of extra `run`
arguments; without it the run gets none."""

from __future__ import annotations

import json

import pytest

from robosync.cli import main

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
