"""Task model and scheduling policy: category taxonomy, max-inheritance base
priorities with safety pinning, windowed frequency counters driving adaptive
adjustment, and dispatch selection over a ready queue."""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import AbstractSet, Mapping

from .config import SchedulerParams
from .sensorproc import NonFiniteOutputError

# Base priority for tasks no behavior uses; keeps dispatch total without
# letting orphan work outrank real behaviors.
UNLINKED_BASE_PRIORITY = 0.05


class TaskCategory(enum.IntEnum):
    """Task roles; the numeric value doubles as the dispatch tie-break rank
    (safety first, then the downstream layers draining toward sensors)."""

    SENSOR_INPUT = 0
    ALGORITHMIC = 1
    BEHAVIORAL = 2
    CONTROL = 3
    SAFETY = 4

    @property
    def label(self) -> str:
        return self.name.lower()


class UnknownBehaviorError(KeyError):
    """A usage map references a behavior with no declared priority."""


@dataclass(slots=True)
class TaskDescriptor:
    """A schedulable unit.  `current_priority` floats between base and 1.0
    under the adaptive policy; safety tasks stay exactly at 1.0."""

    id: str
    category: TaskCategory
    behaviors: frozenset[str]
    base_priority: float
    current_priority: float
    cost_us: int


@dataclass(slots=True)
class FrequencyCounter:
    """Trigger count of one behavior within the current tumbling window."""

    behavior: str
    count: int = 0


# not frozen: one is built per non-safety task at every window boundary, and a
# frozen dataclass takes about 3x as long to build
@dataclass(slots=True)
class PriorityUpdate:
    """One task's adjustment at a window boundary."""

    task: str
    old: float
    new: float
    f_max: int
    behavior: str | None
    delta: float


# not frozen: one is built per push, and a frozen dataclass takes about 3x as
# long to build
@dataclass(slots=True)
class QueueEntry:
    task: TaskDescriptor
    enqueue_seq: int
    enqueue_t_us: int
    payload: object = None


class ReadyQueue:
    """FIFO-stamped runnable work items, kept as a binary heap on the dispatch
    key (-current priority, -category rank, enqueue sequence).

    An entry is keyed from its task's priority when it is pushed, and that key
    is frozen, so whoever changes a queued task's `current_priority` must call
    `rekey` (the engine does, right after each window's `adapt_priorities`)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, QueueEntry]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, task: TaskDescriptor, t_us: int, payload: object = None) -> QueueEntry:
        entry = QueueEntry(task, self._next_seq, t_us, payload)
        self._next_seq += 1
        heapq.heappush(self._heap, _dispatch_key(entry))
        return entry

    def pop(self) -> QueueEntry | None:
        """Remove and return the entry with the smallest key."""
        return heapq.heappop(self._heap)[3] if self._heap else None

    def peek(self) -> QueueEntry | None:
        """The entry `pop` would return, left in place."""
        return self._heap[0][3] if self._heap else None

    def rekey(self) -> None:
        """Recompute every key from the tasks' current priorities."""
        self._heap = [_dispatch_key(item[3]) for item in self._heap]
        heapq.heapify(self._heap)

    def purge(self) -> list[QueueEntry]:
        """Drop every queued entry; returns them in enqueue order."""
        removed = [item[3] for item in sorted(self._heap, key=lambda item: item[2])]
        self._heap = []
        return removed


def _dispatch_key(entry: QueueEntry) -> tuple[float, int, int, QueueEntry]:
    task = entry.task
    return (-task.current_priority, -task.category, entry.enqueue_seq, entry)


def assign_base_priorities(
    behavior_priorities: Mapping[str, float],
    usage: Mapping[str, AbstractSet[str]],
    safety_tasks: AbstractSet[str] = frozenset(),
) -> dict[str, float]:
    """Base priority per task: the max over the behaviors that use it, with
    anything tied to a safety check pinned to 1.0 regardless of other usage."""
    out: dict[str, float] = {}
    for task_id, used in usage.items():
        if task_id in safety_tasks:
            out[task_id] = 1.0
            continue
        unknown = sorted(set(used) - set(behavior_priorities))
        if unknown:
            raise UnknownBehaviorError(f"task {task_id!r} uses unknown behavior {unknown[0]!r}")
        out[task_id] = max((behavior_priorities[b] for b in used), default=UNLINKED_BASE_PRIORITY)
    return out


def record_trigger(counter: FrequencyCounter, t_us: int) -> FrequencyCounter:
    """Count one triggering of the counter's behavior at `t_us`."""
    counter.count += 1
    return counter


def adapt_priorities(
    tasks: Mapping[str, TaskDescriptor],
    counters: Mapping[str, FrequencyCounter],
    params: SchedulerParams,
    t_us: int,
) -> list[PriorityUpdate]:
    """Apply the windowed adjustment at the tumbling-window boundary `t_us`.

    Every non-safety task is recomputed from its base: the linked behavior
    with the highest trigger count F contributes alpha * F / W (W in seconds),
    capped at p_max; of behaviors tied on F, the name that sorts first wins.
    A task none of whose behaviors fired keeps its base, with F 0 and no
    behavior.  Counters reset for the next window.  Returns one update record
    per non-safety task, in task insertion order.  Raises NonFiniteOutputError
    when alpha * F / W overflows, since the log could not hold it as JSON.

    Only the behaviors that fired this window are looked at: a task costs at
    most one lookup per fired behavior, however many behaviors it links.
    """
    w_seconds = params.window_us / 1e6
    fired = {name: counter.count for name, counter in counters.items() if counter.count > 0}
    fired_names = frozenset(fired)
    updates: list[PriorityUpdate] = []
    for task in tasks.values():
        if task.category is TaskCategory.SAFETY:
            continue
        # a set intersection walks the smaller of its two sets
        linked = task.behaviors & fired_names
        if linked:
            best_behavior: str | None = min(linked, key=lambda name: (-fired[name], name))
            best_f = fired[best_behavior]
        else:
            best_behavior, best_f = None, 0
        delta = params.alpha * best_f / w_seconds
        if not math.isfinite(delta):
            raise NonFiniteOutputError(
                f"priority adjustment alpha * F / W is {delta} for behavior {best_behavior!r} "
                f"with F {best_f} in the window ending at t_us {t_us}"
            )
        new = min(task.base_priority + delta, params.p_max)
        updates.append(PriorityUpdate(task.id, task.current_priority, new, best_f, best_behavior, delta))
        task.current_priority = new
    for counter in counters.values():
        counter.count = 0
    return updates


def select_next(queue: ReadyQueue) -> QueueEntry | None:
    """Pop the queue entry to run next: highest current priority, ties broken
    by category rank (safety > control > behavioral > algorithmic > sensor
    input), then FIFO by enqueue sequence.  None when the queue is empty.
    O(log n) per call; the priority is the one the entry was keyed with, at
    its push or at the last `ReadyQueue.rekey` since."""
    return queue.pop()
