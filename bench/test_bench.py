"""Tests of the benchmark itself.

    python3 -m pytest bench

Each workload runs end to end at a tiny size, and the invariant checker
must reject hand-corrupted logs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GOLDEN_LOG = (ROOT / "fixtures" / "golden_touch_log.jsonl").read_text(encoding="utf-8")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_READINGS = 60


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(workloads.WORKLOADS[name], readings=TINY_READINGS)
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    assert run.run_workload(name, seed=workloads.DEFAULT_SEED + 1, seconds=0.01, trace=trace) == 0
    result = _result(capsys)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_generator_is_deterministic_per_seed():
    assert workloads.generate("fanout", 7, readings=100) == workloads.generate("fanout", 7, readings=100)
    assert workloads.generate("fanout", 7, readings=100).trace != workloads.generate("fanout", 8, readings=100).trace


def test_fanout_halt_aborts_and_purges(tmp_path):
    workloads.generate("fanout", workloads.DEFAULT_SEED, readings=400).write(tmp_path)
    ref = checks.reference(tmp_path)
    assert ref["errors"] == []
    stats = json.loads(ref["stats"])
    assert stats["halted"] and stats["aborts"] == 1


def test_golden_gate_passes_on_fixtures(tmp_path):
    assert checks.golden_gate(ROOT / "fixtures", tmp_path) == []


def _lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _render(entries: list[dict]) -> str:
    return "".join(json.dumps(e) + "\n" for e in entries)


def test_checker_accepts_golden_log():
    assert checks.check_log(GOLDEN_LOG) == []


def test_checker_rejects_seq_gap():
    entries = _lines(GOLDEN_LOG)
    del entries[5]
    assert any("seq" in e for e in checks.check_log(_render(entries)))


def test_checker_rejects_actuation_after_halt():
    entries = _lines(GOLDEN_LOG)
    last = entries[-1]
    entries.append({"seq": last["seq"] + 1, "t_us": last["t_us"], "kind": "safety_halt", "detail": {}})
    entries.append(
        {"seq": last["seq"] + 2, "t_us": last["t_us"], "kind": "actuator_cmd", "detail": {"actuator": "arms"}}
    )
    assert checks.check_log(_render(entries)) == [f"line {len(entries)}: actuator_cmd after safety_halt"]


def test_checker_rejects_time_going_back():
    entries = _lines(GOLDEN_LOG)
    entries[-1]["t_us"] = entries[-2]["t_us"] - 1
    assert any("before" in e for e in checks.check_log(_render(entries)))


def test_checker_rejects_unfinished_and_unstarted_tasks():
    entries = _lines(GOLDEN_LOG)
    finish = next(i for i, e in enumerate(entries) if e["kind"] == "task_finish")
    entries[finish]["kind"] = "message"
    start = max(i for i, e in enumerate(entries) if e["kind"] == "task_start")
    entries[start]["kind"] = "message"
    errors = checks.check_log(_render(entries))
    assert any("never finished" in e for e in errors)
    assert any("without an open task_start" in e for e in errors)
