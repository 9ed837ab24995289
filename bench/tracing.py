"""Per-layer tracing from outside the runtime.

Wrappers around the public functions of each robosync module record one span
(name, start, end, parent) per call and a few counts at the same boundary.
They are installed only for a traced run and the originals are restored
afterwards; nothing inside `src/` is changed.

Where the wrappers go follows how the runtime looks the functions up:
`robosync.engine` imports `gate_significant`, `run_algorithm`,
`eval_condition` and `evaluate_safety` by name, so those are patched on the
engine module; it calls the scheduler through the `sched` module, so
`select_next`, `adapt_priorities` and `record_trigger` are patched there;
`MessageBus.publish`, `ReadyQueue.push` and `ReadyQueue.purge` are patched on
their classes.  The stages `cmd_run` and `cmd_stats` call are patched on
`robosync.cli`, and `robosync.engine.run`, which the CLI calls through the
module.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from pathlib import Path

from robosync import bus, cli, engine, sched

# (owner, attribute, span name)
STAGES = (
    (cli, "parse_config", "config.parse_config"),
    (cli, "parse_program", "dsl.parse_program"),
    (cli, "bind_program", "dsl.bind_program"),
    (cli, "load_trace", "engine.load_trace"),
    (engine, "run", "engine.run"),
    (cli, "serialize_log", "engine.serialize_log"),
    (cli, "parse_log", "engine.parse_log"),
    (cli, "compute_stats", "engine.compute_stats"),
)
# the stages of `robosync run`; the rest of its wall time is argument parsing and file I/O
RUN_STAGES = tuple(name for _owner, _attr, name in STAGES[:6])
LAYERS = (
    (engine, "gate_significant", "sensorproc.gate"),
    (engine, "run_algorithm", "sensorproc.run_algorithm"),
    (engine, "eval_condition", "dsl.eval_condition"),
    (engine, "evaluate_safety", "bus.evaluate_safety"),
    (sched, "select_next", "sched.select_next"),
    (sched, "adapt_priorities", "sched.adapt_priorities"),
    (sched, "record_trigger", "sched.record_trigger"),
    (bus.MessageBus, "publish", "bus.publish"),
    (sched.ReadyQueue, "push", "sched.ReadyQueue.push"),
    (sched.ReadyQueue, "purge", "sched.ReadyQueue.purge"),
)


class Tracer:
    """Spans and counts of one replay, kept in memory."""

    def __init__(self) -> None:
        # (name, start, end, index of the parent span or -1); a slot is None
        # only while its call is still running
        self.spans: list = []
        self.counts: Counter[str] = Counter()
        self.depths: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers().get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self) -> dict:
        counts, depths = self.counts, self.depths

        def gate(args, passed):
            counts["sensorproc.gate.passed"] += bool(passed)

        def algorithm(args, processed):
            counts["sensorproc.run_algorithm.outputs"] += processed is not None

        def select(args, entry):
            # the depth the scan saw: what is left plus the entry it popped
            depths.append(len(args[0]) + (entry is not None))

        def adapt(args, updates):
            counts["sched.priority_updates"] += len(updates)

        def replay(args, log):
            counts["engine.log_entries"] += len(log.entries)
            counts["bus.deliveries"] += len(log.deliveries)

        def serialized(args, text):
            counts["engine.log_bytes"] += len(text.encode("utf-8"))

        return {
            "sensorproc.gate": gate,
            "sensorproc.run_algorithm": algorithm,
            "sched.select_next": select,
            "sched.adapt_priorities": adapt,
            "engine.run": replay,
            "engine.serialize_log": serialized,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name.  Self time
        is a span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return out


@contextlib.contextmanager
def installed(tracer: Tracer, layers: bool = True):
    """Patch the stage wrappers, and with `layers` the per-call layer
    wrappers, for the duration of the block."""
    targets = STAGES + (LAYERS if layers else ())
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _name in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def write_spans(path: Path, replays: list[Tracer]) -> None:
    """One tab-separated row per span, times relative to the replay's first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write("replay\tindex\tname\tstart_s\tend_s\tparent\n")
        for replay, tracer in enumerate(replays):
            origin = min((span[1] for span in tracer.spans), default=0.0)
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                out.write(f"{replay}\t{index}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")
