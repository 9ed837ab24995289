"""Task model and scheduling policy: category taxonomy, max-inheritance base
priorities with safety pinning, windowed trigger counts driving adaptive
adjustment, and dispatch selection over a ready queue."""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping

from .config import P_MAX, SchedulerParams
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


def record_trigger(counts: dict[str, int], behavior: str) -> None:
    """Count one triggering of `behavior` in the current tumbling window."""
    counts[behavior] = counts.get(behavior, 0) + 1


class IdleUpdates:
    """A run's idle `priority_update`s, built once, after base priorities
    are set, for `adapt_priorities`.

    A window leaves a task idle when no behavior it links fired and its
    priority is already its idle priority, min(base + alpha * 0 / W, P_MAX):
    its update is then the same every window, `(task, idle, idle, 0, None,
    alpha * 0 / W)`.  `items` holds each non-safety task's idle update, in
    task order, as `item(values)` makes it (by default, the values), so a
    caller can keep the update's rendering with it; `item` makes every other
    update too.  `linked` maps each behavior to the positions of the tasks
    linking it, and `away` holds the positions not at their idle priority:
    all of them until the first window, since nothing is known of a priority
    set before it."""

    __slots__ = ("tasks", "priorities", "items", "item", "linked", "away")

    def __init__(
        self,
        tasks: Mapping[str, TaskDescriptor],
        params: SchedulerParams,
        item: Callable[[tuple], object] = tuple,
    ) -> None:
        self.tasks = [task for task in tasks.values() if task.category is not TaskCategory.SAFETY]
        delta = params.alpha * 0 / (params.window_us / 1e6)
        self.priorities = [min(task.base_priority + delta, P_MAX) for task in self.tasks]
        self.item = item
        self.items = [item((task.id, idle, idle, 0, None, delta)) for task, idle in zip(self.tasks, self.priorities)]
        self.linked: dict[str, list[int]] = {}
        for position, task in enumerate(self.tasks):
            for behavior in task.behaviors:
                self.linked.setdefault(behavior, []).append(position)
        self.away = set(range(len(self.tasks)))


def adapt_priorities(
    tasks: Mapping[str, TaskDescriptor],
    counts: dict[str, int],
    params: SchedulerParams,
    t_us: int,
    idle: IdleUpdates | None = None,
) -> list:
    """Apply the windowed adjustment at the tumbling-window boundary `t_us`.

    Every non-safety task is recomputed from its base: the linked behavior
    with the highest trigger count F contributes alpha * F / W (W in seconds),
    capped at P_MAX; of behaviors tied on F, the name that sorts first wins.
    A task none of whose behaviors fired keeps its base, with F 0 and no
    behavior.  `counts` (behavior -> triggers this window, as `record_trigger`
    keeps it) is then cleared for the next window.  Returns one
    `priority_update` log detail per non-safety task, in task insertion order,
    as its values in `engine.LOG_FIELDS` order: `(task, old, new, f_max,
    behavior, delta)`.  Raises NonFiniteOutputError when alpha * F / W
    overflows, since the log could not hold it as JSON.

    `idle`, built from these tasks and params and kept across a run's
    windows, lets a window skip its idle tasks: each one's update is its item
    in `idle.items`, as it is, and every other update is `idle.item(values)`.
    Only the tasks linking a behavior that fired, or not yet back at their
    idle priority, are looked at, and each of those costs at most one lookup
    per fired behavior, however many behaviors it links.
    """
    if idle is None:
        idle = IdleUpdates(tasks, params)
    w_seconds = params.window_us / 1e6
    fired_names = frozenset(counts)
    updates = idle.items.copy()
    away = idle.away
    for position in sorted(away.union(*(idle.linked.get(name, ()) for name in counts))):
        task = idle.tasks[position]
        # a set intersection walks the smaller of its two sets
        linked = task.behaviors & fired_names
        if linked:
            best_behavior: str | None = min(linked, key=lambda name: (-counts[name], name))
            best_f = counts[best_behavior]
        else:
            best_behavior, best_f = None, 0
        delta = params.alpha * best_f / w_seconds
        if not math.isfinite(delta):
            raise NonFiniteOutputError(
                f"priority adjustment alpha * F / W is {delta} for behavior {best_behavior!r} "
                f"with F {best_f} in the window ending at t_us {t_us}"
            )
        new = min(task.base_priority + delta, P_MAX)
        updates[position] = idle.item((task.id, task.current_priority, new, best_f, best_behavior, delta))
        task.current_priority = new
        if new == idle.priorities[position]:
            away.discard(position)
        else:
            away.add(position)
    counts.clear()
    return updates


def select_next(queue: ReadyQueue) -> QueueEntry | None:
    """Pop the queue entry to run next: highest current priority, ties broken
    by category rank (safety > control > behavioral > algorithmic > sensor
    input), then FIFO by enqueue sequence.  None when the queue is empty.
    O(log n) per call; the priority is the one the entry was keyed with, at
    its push or at the last `ReadyQueue.rekey` since."""
    return queue.pop()
