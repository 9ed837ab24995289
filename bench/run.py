"""Replay benchmark for robosync.

    python3 bench/run.py --workload steady|backlog|fanout|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  For one workload it:

1. replays the fixture trio through `robosync run` / `robosync stats` and
   aborts (exit 1) unless both match the golden files byte for byte;
2. generates the workload's config, program and trace from the seed;
3. replays them once in a child process under a fixed PYTHONHASHSEED,
   checks the log invariants (bench/checks.py) and takes that log's sha256
   and stats line as the reference; at the default seed both must equal
   bench/reference.json;
4. times the set-up stages of `cmd_run`, then alternates
   `robosync run -c -b -t -o FILE` and `robosync stats FILE`, both through
   `robosync.cli.main` in this process, for S seconds.  Every replay's log
   must hash to the reference (so its bytes do not depend on the hash seed)
   and every stats output must equal the reference line.

With `--trace 0` it reports the end-to-end metrics: medians of the timings,
each scaled to a reference host speed by a probe taken around it
(bench/hostspeed.py; the raw wall medians are printed beside them), and the
peak RSS.  With `--trace 1` it wraps each layer's public functions
(bench/tracing.py) and reports the per-layer split in raw wall seconds
instead.  Human-readable lines come first; the last line of stdout is one
JSON object {correct, attempted, failed, metrics}.

`--write-reference` re-records bench/reference.json, for a change that alters
the log bytes on purpose.  The benchmark's own tests: `python3 -m pytest bench`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads  # stdlib only; the modules that import robosync load once src/ is on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

# set-up is timed before each replay: short set-ups get more samples
SETUP_REPEATS = 3
SETUP_SECONDS = 0.25
REFERENCE_HASH_SEED = "0"


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def tail(samples: list[float]) -> str:
    """The highest of p99/p90/p75 that has at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99, 90, 75):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p} {ordered[rank - 1]:.6f} s"
    return "no tail percentile: fewer than 10 samples beyond p75"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# reference replay (child process)


def reference_in_child(workdir: Path) -> dict:
    """Run checks.reference in a fresh interpreter with another hash seed."""
    seed = REFERENCE_HASH_SEED if os.environ.get("PYTHONHASHSEED") != REFERENCE_HASH_SEED else "1"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--reference", str(workdir)],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        return {"errors": [f"reference replay exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    result = json.loads(proc.stdout.splitlines()[-1])
    result["hash_seed"] = seed
    return result


def check_recorded(name: str, ref: dict) -> list[str]:
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(name)
    if recorded is None:
        return [f"no recorded reference for {name}"]
    errors = []
    if ref.get("sha256") != recorded["sha256"]:
        errors.append(f"log sha256 {ref.get('sha256')} differs from recorded {recorded['sha256']}")
    if ref.get("stats") != recorded["stats"]:
        errors.append("stats line differs from the recorded one")
    return errors


# ---------------------------------------------------------------------------
# one workload


class Replayer:
    """Runs `robosync run` and `robosync stats` on one workload's files and
    checks each result against the reference."""

    def __init__(self, workdir: Path, ref: dict, ref_ok: bool):
        import checks
        from robosync import cli

        self.checks = checks
        self.cli = cli
        self.log = workdir / "log.jsonl"
        self.argv = [
            "run",
            "-c", str(workdir / "config.json"),
            "-b", str(workdir / "behavior.rsb"),
            "-t", str(workdir / "trace.jsonl"),
            "-o", str(self.log),
        ]  # fmt: skip
        self.ref = ref
        self.ref_ok = ref_ok
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _failure(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(message)

    def replay(self) -> float:
        """One timed `robosync run`, then its check; returns wall seconds."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.cli.main(self.argv)
        except Exception:
            elapsed = time.perf_counter() - start
            self._failure("robosync run raised:\n" + traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        if code != 0:
            self._failure(f"robosync run exited {code}")
        elif self.checks.sha256(self.log.read_bytes()) != self.ref.get("sha256"):
            self._failure("log sha256 differs from the reference replay")
        elif not self.ref_ok:
            self._failure("log equals a reference that failed its checks")
        return elapsed

    def stats(self) -> float:
        """One timed `robosync stats` on the last log; returns wall seconds.
        A wrong or failed summary fails the replay that wrote the log."""
        gc.collect()
        start = time.perf_counter()
        try:
            code, out = self.checks.cli_stats(self.log)
        except Exception:
            elapsed = time.perf_counter() - start
            self._failure("robosync stats raised:\n" + traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        if code != 0 or out != self.ref.get("stats"):
            self._failure("robosync stats output differs from the reference stats line")
        return elapsed


def time_setup(texts: list[str]) -> list[float]:
    """Wall seconds of the stages cmd_run runs before the engine, on the
    config, program and trace texts: at least SETUP_REPEATS samples and
    SETUP_SECONDS of them."""
    from robosync.config import parse_config
    from robosync.dsl import bind_program, parse_program
    from robosync.engine import load_trace

    samples: list[float] = []
    while len(samples) < SETUP_REPEATS or sum(samples) < SETUP_SECONDS:
        gc.collect()
        start = time.perf_counter()
        config = parse_config(texts[0])
        bind_program(parse_program(texts[1]), config)
        load_trace(texts[2], config)
        samples.append(time.perf_counter() - start)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import checks

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        errors = checks.golden_gate(FIXTURES, workdir)
        if errors:
            for line in errors:
                print(f"bench: golden gate: {line}", file=sys.stderr)
            return 1
        print("golden gate: fixture log and stats match the golden files")

        inputs = workloads.generate(name, seed)
        inputs.write(workdir)

        ref = reference_in_child(workdir)
        ref_errors = list(ref["errors"])
        if seed == workloads.DEFAULT_SEED:
            ref_errors += check_recorded(name, ref)
        for line in ref_errors:
            print(f"bench: reference: {line}", file=sys.stderr)
        print(
            f"workload {name} seed {seed}: {inputs.readings} readings, {inputs.rules} rules, "
            f"{inputs.definitions} definitions, {ref.get('tasks')} tasks, {ref.get('entries')} log entries, "
            f"{ref.get('bytes')} log bytes, {ref.get('dispatches')} dispatches"
        )
        print(f"reference: sha256 {ref.get('sha256')} (PYTHONHASHSEED={ref.get('hash_seed')} in a child process)")

        replayer = Replayer(workdir, ref, ref_ok=not ref_errors)
        if trace:
            metrics = traced_run(replayer, seconds, ref, WORK / "spans" / f"{name}.tsv")
        else:
            metrics = timed_run(replayer, [inputs.config, inputs.program, inputs.trace], seconds, inputs.readings, ref)
        for note in replayer.notes:
            print(f"bench: replay failed: {note}", file=sys.stderr)
        correct = replayer.failed == 0 and not ref_errors
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": replayer.attempted,
                    "failed": replayer.failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(replayer: Replayer, texts: list[str], seconds: float, readings: int, ref: dict) -> dict:
    """Alternate set-up, replay and stats until `seconds` have passed, so
    that all three sample the same stretch of host time.  Each iteration's
    wall times are scaled to the reference host speed by the probe taken
    around it (bench/hostspeed.py); the raw medians are printed beside."""
    rss_before = peak_rss_mb()
    raw: dict[str, list[float]] = {"setup_s": [], "replay_s": [], "stats_s": []}
    scaled: dict[str, list[float]] = {"setup_s": [], "replay_s": [], "stats_s": []}
    probes = [hostspeed.probe()]
    deadline = time.perf_counter() + seconds

    def record(key: str, values: list[float], probe_s: float) -> None:
        raw[key] += values
        scaled[key] += [v * hostspeed.REFERENCE_S / probe_s for v in values]

    while len(raw["replay_s"]) < 3 or time.perf_counter() < deadline:
        # each timing is scaled by the probes taken right before and after it
        before = probes[-1]
        record("setup_s", time_setup(texts), before)
        replay_s = replayer.replay()
        probes.append(hostspeed.probe())
        record("replay_s", [replay_s], (before + probes[-1]) / 2)
        stats_s = replayer.stats()
        probes.append(hostspeed.probe())
        record("stats_s", [stats_s], (probes[-2] + probes[-1]) / 2)
    med = {key: statistics.median(values) for key, values in scaled.items()}
    metrics = {
        "replay_s": (med["replay_s"], "s"),
        "readings_per_s": (readings / med["replay_s"], "1/s"),
        "entries_per_s": (ref.get("entries", 0) / med["replay_s"], "1/s"),
        "stats_s": (med["stats_s"], "s"),
        "setup_s": (med["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "readings_per_s": f"{readings} readings / replay_s",
        "entries_per_s": f"{ref.get('entries')} log entries / replay_s",
        "peak_rss_mb": f"ru_maxrss of this process; {rss_before:.1f} MB before the first replay",
    }
    for key, values in scaled.items():
        notes[key] = (
            f"median of {len(values)}, raw wall median {statistics.median(raw[key]):.6f} s; {tail(values)}"
        )
    print(f"{'metric':<20} {'value':>14}  unit  note")
    for key, (value, unit) in metrics.items():
        print(f"{key:<20} {value:>14.6f}  {unit:<4}  {notes[key]}")
    ratio = replayer.failed / replayer.attempted
    print(f"{'replay_failed_ratio':<20} {ratio:>14.6f}  1     {replayer.failed} of {replayer.attempted} replays failed")
    print(
        f"times are in seconds at the reference host speed (probe {hostspeed.REFERENCE_S} s); "
        f"probe median here {statistics.median(probes):.6f} s, range {min(probes):.6f}-{max(probes):.6f} s"
    )
    print("replay_s raw samples: " + " ".join(f"{x:.4f}" for x in raw["replay_s"]))
    return metrics


def traced_run(replayer: Replayer, seconds: float, ref: dict, spans_path: Path) -> dict:
    """Alternate replays with only the stage wrappers (the untraced baseline
    for engine.run) and replays with every layer wrapper installed."""
    import tracing

    plain_run: list[float] = []
    traced: list[tuple[tracing.Tracer, float]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        tracer = tracing.Tracer()
        with tracing.installed(tracer, layers=False):
            replayer.replay()
        plain_run.append(tracer.summary().get("engine.run", {}).get("total_s", 0.0))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            replay_s = replayer.replay()
            replayer.stats()
        traced.append((tracer, replay_s))

    rows = [(t.summary(), t, replay_s) for t, replay_s in traced]

    def med(fn) -> float:
        return statistics.median([fn(summary, tracer, replay_s) for summary, tracer, replay_s in rows])

    def calls(name):
        return med(lambda s, t, r: s.get(name, {}).get("calls", 0))

    def self_s(name):
        return med(lambda s, t, r: s.get(name, {}).get("self_s", 0.0))

    def total_s(name):
        return med(lambda s, t, r: s.get(name, {}).get("total_s", 0.0))

    def count(key):
        return med(lambda s, t, r: t.counts[key])

    gate_calls = calls("sensorproc.gate")
    algorithm_calls = calls("sensorproc.run_algorithm")
    run_s = total_s("engine.run")
    untraced = statistics.median(plain_run)
    m: dict[str, tuple[float, str]] = {}
    for name in ("sched.select_next", "sched.adapt_priorities", "sched.ReadyQueue.push", "dsl.eval_condition",
                 "sensorproc.gate", "sensorproc.run_algorithm", "bus.publish"):  # fmt: skip
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["sched.ready_queue.peak_depth"] = (med(lambda s, t, r: max(t.depths, default=0)), "count")
    m["sched.ready_queue.mean_depth"] = (med(lambda s, t, r: statistics.fmean(t.depths) if t.depths else 0.0), "count")
    m["sched.priority_updates"] = (count("sched.priority_updates"), "count")
    m["sched.record_trigger.calls"] = (calls("sched.record_trigger"), "count")
    m["sched.virtual_wait_us.p50"] = (ref.get("wait_p50", 0), "virtual_us")
    m["sched.virtual_wait_us.p99"] = (ref.get("wait_p99", 0), "virtual_us")
    m["dsl.parse_program_s"] = (total_s("dsl.parse_program"), "s")
    m["dsl.bind_program_s"] = (total_s("dsl.bind_program"), "s")
    m["config.parse_config_s"] = (total_s("config.parse_config"), "s")
    m["sensorproc.gate.pass_ratio"] = (count("sensorproc.gate.passed") / gate_calls if gate_calls else 0.0, "ratio")
    m["sensorproc.run_algorithm.output_ratio"] = (
        count("sensorproc.run_algorithm.outputs") / algorithm_calls if algorithm_calls else 0.0,
        "ratio",
    )
    m["bus.deliveries"] = (count("bus.deliveries"), "count")
    m["bus.evaluate_safety.calls"] = (calls("bus.evaluate_safety"), "count")
    m["engine.load_trace_s"] = (total_s("engine.load_trace"), "s")
    m["engine.run_s"] = (run_s, "s")
    m["engine.self_s"] = (self_s("engine.run"), "s")
    m["engine.serialize_log_s"] = (total_s("engine.serialize_log"), "s")
    m["engine.log_entries"] = (count("engine.log_entries"), "count")
    m["engine.log_bytes"] = (count("engine.log_bytes"), "bytes")
    m["engine.parse_log_s"] = (total_s("engine.parse_log"), "s")
    m["engine.compute_stats_s"] = (total_s("engine.compute_stats"), "s")
    m["cli.io_s"] = (med(lambda s, t, r: r - sum(s.get(n, {}).get("total_s", 0.0) for n in tracing.RUN_STAGES)), "s")
    m["engine.run_untraced_s"] = (untraced, "s")
    overhead = run_s / untraced - 1.0 if untraced else 0.0
    m["trace.overhead_ratio"] = (overhead, "ratio")

    summary = rows[len(rows) // 2][0]
    layer_self = {name: summary[name]["self_s"] for _o, _a, name in tracing.LAYERS if name in summary}
    layer_self["engine.self"] = summary["engine.run"]["self_s"]
    accounted = sum(layer_self.values())
    top = max(layer_self, key=layer_self.get)
    print(f"{'metric':<40} {'value':>14}  unit")
    for key, (value, unit) in m.items():
        print(f"{key:<40} {value:>14.6f}  {unit}")
    print(
        f"medians of {len(rows)} traced replays; engine.run_s untraced is the median of {len(plain_run)} "
        f"replays with only the stage wrappers, so tracing costs {100 * overhead:.1f}% of engine.run"
    )
    print(
        "bus.publish.self_s includes the engine's inline subscriber handlers, i.e. the rule matching "
        "in _on_processed; eval_condition calls inside it are its child spans"
    )
    print(
        f"accounting (one traced replay): engine.self_s + layer self times = {accounted:.6f} s, "
        f"engine.run_s = {summary['engine.run']['total_s']:.6f} s"
    )
    print(f"largest self time inside engine.run: {top} ({100 * layer_self[top] / accounted:.1f}%)")
    tracing.write_spans(spans_path, [t for t, _r in traced])
    print(f"spans of the traced replays: {spans_path.relative_to(ROOT)}")
    return m


def write_reference() -> int:
    recorded = {}
    for name in workloads.WORKLOADS:
        workdir = WORK / f"reference-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            inputs = workloads.generate(name, workloads.DEFAULT_SEED)
            inputs.write(workdir)
            ref = reference_in_child(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if ref["errors"]:
            return fail(f"{name}: " + "; ".join(ref["errors"]))
        recorded[name] = {
            "sha256": ref["sha256"],
            "stats": ref["stats"],
            "readings": inputs.readings,
            "rules": inputs.rules,
            "definitions": inputs.definitions,
            "tasks": ref["tasks"],
            "log_entries": ref["entries"],
            "log_bytes": ref["bytes"],
        }
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": recorded}
    REFERENCE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


# ---------------------------------------------------------------------------
# all workloads


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own process (so peak RSS is per workload)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],  # fmt: skip
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record each workload's log sha256, stats line and size at the default seed in bench/reference.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "robosync").is_dir() or not FIXTURES.is_dir():
        return fail(f"run from a robosync checkout: {SRC / 'robosync'} or {FIXTURES} is missing")
    sys.path.insert(0, str(SRC))
    import checks

    if args.reference:
        print(json.dumps(checks.reference(Path(args.reference))))
        return 0
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
