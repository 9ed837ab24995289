"""Seeded input generators for the replay benchmark.

Each workload is a (config, behavior program, trace) trio written as the
text files `robosync run` reads.  The same name, seed and size always give
the same bytes; the runtime under test sees only those files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

N_SENSORS = 20
SENSOR_DELTA = 0.1
WINDOW_US = 100_000
TASK_COST_US = 100
VALUE_RANGE = (0.0, 10.0)
STEP = (0.12, 0.3)  # always at least SENSOR_DELTA
JITTER = 0.04  # always under SENSOR_DELTA

# Four control tasks: two motors, a virtual lamp and the audio channel.
ACTUATORS = (
    {"name": "m0", "type": "pwm", "pin": 10},
    {"name": "m1", "type": "pwm", "pin": 11},
    {"name": "lamp", "type": "virtual"},
    {"name": "sound", "type": "audio"},
)

SAFETY_SENSOR = "s1"
SAFE_THRESHOLD = 1000.0  # random-walk values never leave VALUE_RANGE
HALT_THRESHOLD = 50.0
HALT_READING = 99.0
HALT_AT = 0.9  # share of the trace after which the halting spike arrives


@dataclass(frozen=True)
class Workload:
    name: str
    readings: int
    spacing_us: int
    rules: int
    halts: bool


# steady: the common underloaded replay; the queue stays short, so time goes
#   to engine bookkeeping, bus fan-out and log write/readback, and a change
#   to dispatch should not move it.
# backlog: steady's config and program, but each reading's task chain costs
#   more virtual time than the 300 us gap, so the ready queue grows all run.
#   Dispatch cost grows with queue depth and depth with trace length, so the
#   length is fixed here (3000 readings: about 430 queued at the peak).
# fanout: 200 rules share s0, so every s0 update evaluates them all and logs
#   the suppressed ones; 400 definitions make 445 tasks for each window's
#   priority adaptation and a 10x larger program to parse; a safety check
#   fires 90% in, so the halt path (abort, purge, neutral, drops) runs.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady", readings=5000, spacing_us=2000, rules=20, halts=False),
        Workload("backlog", readings=3000, spacing_us=300, rules=20, halts=False),
        Workload("fanout", readings=5000, spacing_us=2000, rules=200, halts=True),
    )
}


@dataclass(frozen=True)
class Inputs:
    config: str
    program: str
    trace: str
    readings: int
    rules: int
    definitions: int

    def write(self, directory: Path) -> None:
        """Write the trio as config.json, behavior.rsb and trace.jsonl."""
        for filename, text in (("config.json", self.config), ("behavior.rsb", self.program), ("trace.jsonl", self.trace)):
            (directory / filename).write_text(text, encoding="utf-8")


def sensor_name(i: int) -> str:
    return f"s{i}"


def make_config(halts: bool) -> str:
    sensors = [
        {"name": sensor_name(i), "type": "virtual", "delta": SENSOR_DELTA, "units": "level"}
        for i in range(N_SENSORS)
    ]
    algorithms = [
        {
            "name": f"avg_{sensor_name(i)}",
            "plugin": "moving_average",
            "inputs": [sensor_name(i)],
            "output": f"{sensor_name(i)}_avg",
            "params": {"k": 3},
        }
        for i in range(0, N_SENSORS, 2)
    ]
    doc = {
        "sensors": sensors,
        "actuators": list(ACTUATORS),
        "behaviors": [],
        "algorithms": algorithms,
        "safety_checks": [
            {
                "name": "overload",
                "sensor": SAFETY_SENSOR,
                "threshold": HALT_THRESHOLD if halts else SAFE_THRESHOLD,
            }
        ],
        "scheduler": {"window_us": WINDOW_US, "default_task_cost_us": TASK_COST_US},
    }
    return json.dumps(doc, indent=2) + "\n"


def _definition(rng: random.Random, name: str, with_wait: bool) -> str:
    """One MOVE, one SET and one PLAY in seeded order and values.  Every
    definition issues three commands, so the log's size barely depends on
    which behaviors the seed makes win."""
    body = [
        f"MOVE {rng.choice(('m0', 'm1'))} {rng.choice(('SLOWLY', 'QUICKLY', str(rng.randint(1, 9) / 10)))}",
        f"SET lamp {rng.randint(0, 10) / 10}",
        f'PLAY sound "{name}.wav"',
    ]
    rng.shuffle(body)
    if with_wait:
        body.insert(1, "WAIT 5 ms")
    return "DEFINE " + name + "\n" + "".join(f"{line}\n" for line in body) + "END\n"


def make_program(rng: random.Random, rules: int) -> str:
    """`rules` two-signal then/else rules over 2*rules definitions.

    With 20 rules, rule r pairs s_r with s_(r+1); with more, every rule reads
    s0 and one other sensor, so each s0 update evaluates all of them.  One
    definition holds a WAIT so deferred command enqueues are exercised.
    """
    lines: list[str] = []
    for r in range(rules):
        if rules <= N_SENSORS:
            a, b = sensor_name(r), sensor_name((r + 1) % N_SENSORS)
        else:
            a, b = sensor_name(0), sensor_name(1 + r % (N_SENSORS - 1))
        lo = round(rng.uniform(3.0, 7.0), 2)
        hi = round(rng.uniform(3.0, 7.0), 2)
        lines.append(f"WHEN {a} > {lo} AND {b} < {hi}\nDO act_{2 * r}\nELSE\nDO act_{2 * r + 1}\nEND\n")
    for d in range(2 * rules):
        lines.append(_definition(rng, f"act_{d}", with_wait=d == 1))
    return "\n".join(lines)


def make_trace(rng: random.Random, readings: int, spacing_us: int, halts: bool) -> str:
    """Round-robin readings, one every `spacing_us`, as seeded random walks.

    Each sensor alternates a step of STEP (over the gate's delta, so the
    reading is forwarded) with a reading within JITTER of the last step (so
    it is suppressed).  The gate thus forwards half the readings whatever the
    seed, and the amount of work hardly depends on the seed.

    With `halts`, the first safety-sensor reading at or after HALT_AT of the
    trace becomes a spike over the halting threshold.  It shares its
    timestamp with the two readings before it, so when it lands one task is
    running (and is aborted) and another is queued (and is purged).
    """
    lo, hi = VALUE_RANGE
    forwarded = [round(rng.uniform(lo + 1.0, hi - 1.0), 4) for _ in range(N_SENSORS)]
    rows: list[list] = []
    spike_at = int(readings * HALT_AT) if halts else None
    for k in range(readings):
        i = k % N_SENSORS
        if (k // N_SENSORS) % 2 == 0:
            step = rng.uniform(*STEP) * rng.choice((-1.0, 1.0))
            if not lo <= forwarded[i] + step <= hi:
                step = -step
            forwarded[i] = value = round(forwarded[i] + step, 4)
        else:
            value = round(forwarded[i] + rng.uniform(-JITTER, JITTER), 4)
        rows.append([(k + 1) * spacing_us, sensor_name(i), value])
        if spike_at is not None and k >= max(spike_at, 2) and sensor_name(i) == SAFETY_SENSOR:
            rows[k][2] = HALT_READING
            rows[k - 1][0] = rows[k][0] = rows[k - 2][0]
            spike_at = None
    return "".join(json.dumps({"t_us": t, "sensor": s, "value": v}) + "\n" for t, s, v in rows)


def generate(name: str, seed: int, readings: int | None = None) -> Inputs:
    """Inputs for workload `name`; `readings` overrides the stated trace length."""
    w = WORKLOADS[name]
    n = w.readings if readings is None else readings
    rng = random.Random(f"{name}:{seed}")
    program = make_program(rng, w.rules)
    trace = make_trace(rng, n, w.spacing_us, w.halts)
    return Inputs(make_config(w.halts), program, trace, n, w.rules, 2 * w.rules)
