"""Correctness checks the benchmark makes before and while it times.

`check_log` is an invariant checker written independently of robosync: it
reads the serialized JSON lines itself and shares no code with
`robosync.engine.parse_log` or `compute_stats`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from robosync import cli
from robosync.config import parse_config
from robosync.dsl import bind_program, parse_program
from robosync.engine import compute_stats, load_trace, parse_log, run, serialize_log, serialize_stats

ACTUATING_KINDS = frozenset({"actuator_cmd", "play_cmd"})


def check_log(text: str, limit: int = 10) -> list[str]:
    """Return up to `limit` invariant violations in a serialized log.

    - `seq` runs 0, 1, 2, ... without gaps;
    - `t_us` never decreases;
    - each `task_start` is closed by exactly one `task_finish` or `task_abort`;
    - no `actuator_cmd` or `play_cmd` follows a `safety_halt`.
    """
    errors: list[str] = []
    open_tasks: set[tuple] = set()
    prev_t: int | None = None
    halted = False
    for index, line in enumerate(text.splitlines()):
        if len(errors) >= limit:
            return errors
        where = f"line {index + 1}"
        try:
            obj = json.loads(line)
        except ValueError:
            errors.append(f"{where}: not JSON")
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("detail"), dict):
            errors.append(f"{where}: not a log entry")
            continue
        seq, t_us, kind, detail = obj.get("seq"), obj.get("t_us"), obj.get("kind"), obj["detail"]
        if seq != index:
            errors.append(f"{where}: seq {seq!r}, expected {index}")
        if not isinstance(t_us, int):
            errors.append(f"{where}: t_us {t_us!r} is not an integer")
        elif prev_t is not None and t_us < prev_t:
            errors.append(f"{where}: t_us {t_us} is before {prev_t}")
        else:
            prev_t = t_us
        if kind in ("task_start", "task_finish", "task_abort"):
            key = (detail.get("task"), detail.get("enqueue_seq"))
            if kind == "task_start":
                if key in open_tasks:
                    errors.append(f"{where}: {key} started while already running")
                open_tasks.add(key)
            elif key in open_tasks:
                open_tasks.remove(key)
            else:
                errors.append(f"{where}: {kind} of {key} without an open task_start")
        elif kind == "safety_halt":
            halted = True
        elif kind in ACTUATING_KINDS and halted:
            errors.append(f"{where}: {kind} after safety_halt")
    for key in sorted(open_tasks, key=repr)[: max(limit - len(errors), 0)]:
        errors.append(f"task_start of {key} never finished or aborted")
    return errors


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0
    return sorted_values[max(math.ceil(p / 100 * len(sorted_values)) - 1, 0)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference(workdir: Path) -> dict:
    """Replay the trio in `workdir` through the library and check the log.

    Returns the log's sha256 and stats line, its size, the simulated
    enqueue-to-start waits, and every invariant failure, including a
    mismatch between the stats of the in-memory entries and the stats of
    the log read back from text.
    """
    config = parse_config((workdir / "config.json").read_text(encoding="utf-8"))
    program = bind_program(parse_program((workdir / "behavior.rsb").read_text(encoding="utf-8")), config)
    trace = load_trace((workdir / "trace.jsonl").read_text(encoding="utf-8"), config)
    entries = run(config, program, trace).entries
    text = serialize_log(entries)
    stats = serialize_stats(compute_stats(entries))
    waits = sorted(e.t_us - e.detail["enqueue_t_us"] for e in entries if e.kind == "task_start")
    # every task but the safety ones gets a priority_update at each window
    tasks = len({e.detail["task"] for e in entries if e.kind == "priority_update"}) + len(config.safety_checks)
    n_entries = len(entries)
    del entries
    errors = check_log(text)
    reread = serialize_stats(compute_stats(parse_log(text)))
    if reread != stats:
        errors.append(f"stats of the parsed log {reread.strip()} differ from in-memory {stats.strip()}")
    return {
        "sha256": sha256(text.encode("utf-8")),
        "stats": stats,
        "entries": n_entries,
        "bytes": len(text.encode("utf-8")),
        "tasks": tasks,
        "dispatches": len(waits),
        "wait_p50": percentile(waits, 50),
        "wait_p99": percentile(waits, 99),
        "errors": errors,
    }


def cli_stats(log_path: Path) -> tuple[int, str]:
    """`robosync stats LOG` in-process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["stats", str(log_path)])
    return code, out.getvalue()


def golden_gate(fixtures: Path, workdir: Path) -> list[str]:
    """Replay the fixture trio through `robosync run` and `robosync stats` and
    compare both outputs byte for byte with the golden files."""
    log_path = workdir / "golden_log.jsonl"
    code = cli.main(
        [
            "run",
            "-c", str(fixtures / "touch_config.json"),
            "-b", str(fixtures / "behavior.rsb"),
            "-t", str(fixtures / "touch_trace.jsonl"),
            "-o", str(log_path),
        ]
    )  # fmt: skip
    if code != 0:
        return [f"robosync run on the fixture trio exited {code}"]
    errors = []
    if log_path.read_bytes() != (fixtures / "golden_touch_log.jsonl").read_bytes():
        errors.append("fixture log differs from golden_touch_log.jsonl")
    code, out = cli_stats(log_path)
    if code != 0 or out.encode("utf-8") != (fixtures / "golden_touch_stats.json").read_bytes():
        errors.append("fixture stats differ from golden_touch_stats.json")
    return errors
