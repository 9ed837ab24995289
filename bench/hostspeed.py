"""Host-speed probe for scaling wall times to a reference host speed.

On shared hosts the speed of the same Python code drifts by up to 1.7x
between phases that last tens of seconds, so raw wall-time medians of
separate runs spread far more than any change worth detecting.  The probe
times a fixed pure-Python job (dict building and string formatting, like the
replay's log handling) that shares no code with robosync, right before and
after each measured iteration.  Scaling the iteration's wall times by
REFERENCE_S / probe expresses them in seconds on a host where the probe takes
REFERENCE_S, which removes the host's phase and leaves any change to
robosync fully visible.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.15  # probe seconds that define the reference host speed
_ROWS = 20_000
_ROUNDS = 4


def _job() -> int:
    rows = [
        {"seq": i, "t_us": i * 7, "kind": "message", "detail": {"topic": f"s{i % 20}", "value": i * 0.5}}
        for i in range(_ROWS)
    ]
    return len("".join(f'{{"seq": {r["seq"]}, "t_us": {r["t_us"]}, "value": {r["detail"]["value"]:.6f}}}\n' for r in rows))


def probe() -> float:
    """Wall seconds of the fixed job.  The collector is off while it runs, so
    the objects a replay leaves behind cannot change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            _job()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
