from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from robosync import sched, sensorproc as sp
from robosync.config import P_MAX, SchedulerParams
from robosync.engine import LOG_FIELDS


def _task(task_id, category, base, behaviors=()):
    return sched.TaskDescriptor(
        id=task_id,
        category=category,
        behaviors=frozenset(behaviors),
        base_priority=base,
        current_priority=base,
    )


# ---------------------------------------------------------------------------
# assign_base_priorities


def test_max_inheritance():
    out = sched.assign_base_priorities({"a": 0.7, "b": 0.3}, {"t": {"a", "b"}})
    assert out == {"t": 0.7}


def test_singleton_inheritance():
    assert sched.assign_base_priorities({"a": 0.4}, {"t": {"a"}}) == {"t": 0.4}


def test_safety_overrides_usage():
    out = sched.assign_base_priorities({"a": 0.9}, {"t": {"a"}}, safety_tasks={"t"})
    assert out == {"t": 1.0}


def test_unlinked_task_gets_floor_priority():
    out = sched.assign_base_priorities({"a": 0.7}, {"t": set()})
    assert out == {"t": sched.UNLINKED_BASE_PRIORITY}


def test_unknown_behavior_raises():
    with pytest.raises(sched.UnknownBehaviorError):
        sched.assign_base_priorities({"a": 0.7}, {"t": {"ghost"}})


def test_assignment_matches_brute_force_on_random_graphs():
    rng = random.Random(0x5C4ED)
    for _ in range(200):
        behaviors = {f"b{i}": (i + 1) / 8.0 for i in range(rng.randint(1, 6))}
        usage = {
            f"t{j}": {b for b in behaviors if rng.random() < 0.5}
            for j in range(rng.randint(1, 10))
        }
        safety = {t for t in usage if rng.random() < 0.2}
        got = sched.assign_base_priorities(behaviors, usage, safety)
        for task_id, used in usage.items():
            if task_id in safety:
                expected = 1.0
            else:
                linked = [p for b, p in behaviors.items() if b in used]
                expected = max(linked) if linked else sched.UNLINKED_BASE_PRIORITY
            assert got[task_id] == expected


# ---------------------------------------------------------------------------
# trigger counts and adaptation


def test_record_trigger_counts():
    counts: dict[str, int] = {}
    sched.record_trigger(counts, "b")
    assert counts == {"b": 1}
    for _ in range(5):
        sched.record_trigger(counts, "b")
    assert counts == {"b": 6}


def _adapt(*args):
    """`adapt_priorities`'s updates, each as its `priority_update` log detail."""
    fields = LOG_FIELDS[("priority_update", None)]
    return [dict(zip(fields, update)) for update in sched.adapt_priorities(*args)]


def _params(alpha=0.05, window_us=1_000_000):
    return SchedulerParams(alpha=alpha, window_us=window_us, default_task_cost_us=100)


def test_adapt_zero_frequency_keeps_base():
    tasks = {"t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.5, {"b"})}
    updates = _adapt(tasks, {}, _params(), 1_000_000)
    assert tasks["t"].current_priority == 0.5
    assert updates[0]["new"] == 0.5
    assert updates[0]["f_max"] == 0


def test_adapt_formula_direct():
    tasks = {"t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.5, {"b"})}
    counts: dict[str, int] = {}
    for _ in range(4):
        sched.record_trigger(counts, "b")
    sched.adapt_priorities(tasks, counts, _params(alpha=0.05), 1_000_000)
    assert tasks["t"].current_priority == pytest.approx(0.5 + 0.05 * 4 / 1.0)


def test_adapt_caps_at_p_max():
    tasks = {"t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.9, {"b"})}
    counts: dict[str, int] = {}
    for _ in range(10):
        sched.record_trigger(counts, "b")
    sched.adapt_priorities(tasks, counts, _params(alpha=0.05), 1_000_000)
    assert tasks["t"].current_priority == 1.0  # min(0.9 + 0.5, 1.0)


def test_adapt_uses_max_frequency_behavior():
    tasks = {"t": _task("t", sched.TaskCategory.ALGORITHMIC, 0.2, {"a", "b"})}
    counts: dict[str, int] = {}
    sched.record_trigger(counts, "a")
    for _ in range(3):
        sched.record_trigger(counts, "b")
    updates = _adapt(tasks, counts, _params(alpha=0.1), 1_000_000)
    assert updates[0]["behavior"] == "b"
    assert tasks["t"].current_priority == pytest.approx(0.2 + 0.1 * 3)


def test_adapt_resets_counters():
    tasks = {"t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.5, {"b"})}
    counts: dict[str, int] = {}
    sched.record_trigger(counts, "b")
    sched.adapt_priorities(tasks, counts, _params(), 1_000_000)
    assert counts == {}
    sched.adapt_priorities(tasks, counts, _params(), 1_000_000)
    assert tasks["t"].current_priority == 0.5  # decays back once triggering stops


def test_adapt_recomputes_from_base_not_accumulating():
    tasks = {"t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.5, {"b"})}
    counts: dict[str, int] = {}
    for _ in range(5):
        sched.record_trigger(counts, "b")
        sched.adapt_priorities(tasks, counts, _params(alpha=0.05), 1_000_000)
        assert tasks["t"].current_priority == pytest.approx(0.55)


def test_adapt_never_touches_safety():
    tasks = {
        "guard": _task("guard", sched.TaskCategory.SAFETY, 1.0),
        "t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.5, {"b"}),
    }
    counts: dict[str, int] = {}
    for _ in range(100):
        sched.record_trigger(counts, "b")
    updates = _adapt(tasks, counts, _params(alpha=1.0), 1_000_000)
    assert tasks["guard"].current_priority == 1.0
    assert all(u["task"] != "guard" for u in updates)
    assert tasks["t"].current_priority == 1.0  # capped


def test_window_in_seconds():
    tasks = {"t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.1, {"b"})}
    counts: dict[str, int] = {}
    for _ in range(4):
        sched.record_trigger(counts, "b")
    sched.adapt_priorities(tasks, counts, _params(alpha=0.05, window_us=500_000), 1_000_000)
    assert tasks["t"].current_priority == pytest.approx(0.1 + 0.05 * 4 / 0.5)


@pytest.mark.parametrize("alpha, window_us, triggers", [(1e308, 1000, 1), (1e308, 1_000_000, 2), (1.7e308, 1_000_000, 2)])
def test_adapt_refuses_an_adjustment_that_overflows(alpha, window_us, triggers):
    # a validated alpha overflows once F is large enough, and F depends on the trace
    tasks = {
        "idle": _task("idle", sched.TaskCategory.CONTROL, 0.5),
        "t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.5, {"b"}),
    }
    counts: dict[str, int] = {}
    for _ in range(triggers):
        sched.record_trigger(counts, "b")
    message = rf"^priority adjustment alpha \* F / W is inf for behavior 'b' with F {triggers} in the window ending at t_us 7000$"
    with pytest.raises(sp.NonFiniteOutputError, match=message):
        sched.adapt_priorities(tasks, counts, _params(alpha=alpha, window_us=window_us), 7000)


def test_adapt_keeps_the_largest_finite_adjustment():
    tasks = {"t": _task("t", sched.TaskCategory.BEHAVIORAL, 0.5, {"b"})}
    counts: dict[str, int] = {}
    sched.record_trigger(counts, "b")
    (update,) = _adapt(tasks, counts, _params(alpha=1.7e308), 1_000_000)
    assert update["delta"] == 1.7e308
    assert update["new"] == 1.0


# ---------------------------------------------------------------------------
# window adaptation against the sorted-scan oracle


def _linear_adapt(tasks, counts, params):
    """The scan `adapt_priorities` replaced: every task's linked behaviors in
    name order, where only a strictly higher count takes over the lead."""
    w_seconds = params.window_us / 1e6
    updates = []
    for task in tasks.values():
        if task.category is sched.TaskCategory.SAFETY:
            continue
        best_behavior = None
        best_f = 0
        for behavior in sorted(task.behaviors):
            f = counts.get(behavior, 0)
            if f > best_f:
                best_f = f
                best_behavior = behavior
        delta = params.alpha * best_f / w_seconds
        new = min(task.base_priority + delta, P_MAX)
        updates.append(
            {"task": task.id, "old": task.current_priority, "new": new, "f_max": best_f, "behavior": best_behavior, "delta": delta}
        )
        task.current_priority = new
    counts.clear()
    return updates


# "x" is never counted; counts of 0-3 make ties on the highest count common
_LINKABLE = ("a", "b", "c", "d", "x")


@settings(max_examples=300)
@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from(list(sched.TaskCategory)),
            st.sampled_from([0.1, 0.25, 0.5, 0.75]),
            st.frozensets(st.sampled_from(_LINKABLE)),
        ),
        min_size=1,
        max_size=8,
    ),
    counted=st.lists(st.sampled_from(_LINKABLE[:-1]), unique=True),
    windows=st.lists(st.dictionaries(st.sampled_from(_LINKABLE[:-1]), st.integers(0, 3)), min_size=1, max_size=4),
)
@example(
    specs=[(sched.TaskCategory.ALGORITHMIC, 0.25, frozenset({"a", "b"}))],
    counted=["b", "a"],
    windows=[{"a": 2, "b": 2}],
)  # a tie on F goes to the name that sorts first, whatever the counts' order
def test_adapt_matches_sorted_scan_oracle(specs, counted, windows):
    def build():
        return {
            f"t{i}": _task(f"t{i}", category, 1.0 if category is sched.TaskCategory.SAFETY else base, behaviors)
            for i, (category, base, behaviors) in enumerate(specs)
        }

    tasks, counts = build(), {}
    oracle_tasks, oracle_counts = build(), {}
    # and a run's windows, which skip the tasks they leave idle
    idle_tasks, idle_counts = build(), {}
    params = _params(alpha=0.1)  # 0.75 + 3 * 0.1 reaches P_MAX
    idle = sched.IdleUpdates(idle_tasks, params)
    for triggers in windows:
        # in `counted` order, so the counts' order varies apart from their names'
        for name in counted:
            for _ in range(triggers.get(name, 0)):
                sched.record_trigger(counts, name)
                sched.record_trigger(oracle_counts, name)
                sched.record_trigger(idle_counts, name)
        expected = _linear_adapt(oracle_tasks, oracle_counts, params)
        assert _adapt(tasks, counts, params, 1_000_000) == expected
        assert _adapt(idle_tasks, idle_counts, params, 1_000_000, idle) == expected
        assert counts == oracle_counts == idle_counts
        assert tasks == oracle_tasks == idle_tasks


# ---------------------------------------------------------------------------
# dispatch


def _queue_with(tasks, *task_ids):
    queue = sched.ReadyQueue()
    for task_id in task_ids:
        queue.push(tasks[task_id], 0)
    return queue


def test_select_strict_maximum():
    tasks = {
        "a": _task("a", sched.TaskCategory.BEHAVIORAL, 0.7),
        "b": _task("b", sched.TaskCategory.BEHAVIORAL, 0.3),
    }
    queue = _queue_with(tasks, "a", "b")
    assert sched.select_next(queue).task.id == "a"


def test_select_breaks_ties_by_category():
    tasks = {
        "guard": _task("guard", sched.TaskCategory.SAFETY, 1.0),
        "ctrl": _task("ctrl", sched.TaskCategory.CONTROL, 1.0),
    }
    queue = _queue_with(tasks, "ctrl", "guard")  # control enqueued first
    assert sched.select_next(queue).task.id == "guard"


def test_category_order_is_total():
    order = [
        sched.TaskCategory.SAFETY,
        sched.TaskCategory.CONTROL,
        sched.TaskCategory.BEHAVIORAL,
        sched.TaskCategory.ALGORITHMIC,
        sched.TaskCategory.SENSOR_INPUT,
    ]
    tasks = {c.label: _task(c.label, c, 0.5) for c in order}
    queue = _queue_with(tasks, *reversed([c.label for c in order]))
    picked = [sched.select_next(queue).task.id for _ in range(len(order))]
    assert picked == [c.label for c in order]


def test_select_fifo_on_full_tie():
    tasks = {
        "a": _task("a", sched.TaskCategory.CONTROL, 0.5),
        "b": _task("b", sched.TaskCategory.CONTROL, 0.5),
    }
    queue = sched.ReadyQueue()
    first = queue.push(tasks["a"], 0)
    queue.push(tasks["b"], 0)
    selected = sched.select_next(queue)
    assert (selected.task.id, selected.enqueue_seq) == ("a", first.enqueue_seq)


def test_select_empty_queue():
    assert sched.select_next(sched.ReadyQueue()) is None


def test_select_uses_current_priority():
    tasks = {
        "a": _task("a", sched.TaskCategory.BEHAVIORAL, 0.2),
        "b": _task("b", sched.TaskCategory.BEHAVIORAL, 0.4),
    }
    queue = _queue_with(tasks, "a", "b")
    tasks["a"].current_priority = 0.9
    assert queue.peek().task.id == "b"  # the key is the one taken at push
    queue.rekey()
    assert sched.select_next(queue).task.id == "a"


def test_dispatch_decisions_scale_invariant():
    # Scaling all behavior priorities by c in (0, 1] must not change the argmax.
    rng = random.Random(0x5CA1E)
    for _ in range(100):
        n = rng.randint(2, 8)
        priorities = rng.sample([i / 20.0 for i in range(1, 20)], n)
        categories = [rng.choice([c for c in sched.TaskCategory if c is not sched.TaskCategory.SAFETY]) for _ in range(n)]
        for c in (1.0, 0.5, 0.125):
            tasks = {
                f"t{i}": _task(f"t{i}", categories[i], priorities[i] * c) for i in range(n)
            }
            queue = _queue_with(tasks, *[f"t{i}" for i in range(n)])
            if c == 1.0:
                baseline = sched.select_next(queue).task.id
            else:
                assert sched.select_next(queue).task.id == baseline


def test_purge_drops_every_entry_in_enqueue_order():
    tasks = {
        "ctrl": _task("ctrl", sched.TaskCategory.CONTROL, 0.5),
        "work": _task("work", sched.TaskCategory.BEHAVIORAL, 0.9),
    }
    queue = _queue_with(tasks, "ctrl", "work", "ctrl", "work")
    assert queue.peek().task.id == "work"  # purge returns enqueue order, not key order
    removed = queue.purge()
    assert [(e.task.id, e.enqueue_seq) for e in removed] == [("ctrl", 0), ("work", 1), ("ctrl", 2), ("work", 3)]
    assert len(queue) == 0 and queue.peek() is None


# ---------------------------------------------------------------------------
# heap dispatch against the linear-scan oracle


def _linear_select(entries):
    """The list-scan dispatch the heap replaced: the maximum of (current
    priority, category rank, -enqueue_seq) over every queued entry, each
    priority read now rather than when its entry was pushed."""
    best = None
    best_key = None
    for entry in entries:
        task = entry.task
        key = (task.current_priority, int(task.category), -entry.enqueue_seq)
        if best_key is None or key > best_key:
            best = entry
            best_key = key
    if best is not None:
        entries.remove(best)
    return best


# Few priority values (alpha 0.25 over a 1 s window moves a task along the
# grid 0.25, 0.5, 0.75, 1.0) so that category and FIFO ties are common.
_ORACLE_PARAMS = SchedulerParams(alpha=0.25, window_us=1_000_000, default_task_cost_us=100)

_task_specs = st.lists(
    st.tuples(
        st.sampled_from(list(sched.TaskCategory)),
        st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.frozensets(st.sampled_from(["a", "b"])),
    ),
    min_size=1,
    max_size=6,
)
# Pushes come in batches so the queue holds several keyed entries when a
# window moves their priorities.  The engine purges once, at a halt, so the
# purge is a single optional step rather than an operation of its own: purged
# often, the queue would rarely hold the work whose keys go stale.
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.lists(st.integers(0, 5), min_size=1, max_size=5)),
        st.tuples(st.just("select")),
        st.tuples(st.just("window"), st.integers(0, 3), st.integers(0, 3)),
    ),
    min_size=10,
    max_size=40,
)


@settings(max_examples=300)
@given(specs=_task_specs, operations=_operations, purge_at=st.none() | st.integers(0, 40))
@example(
    specs=[(sched.TaskCategory.BEHAVIORAL, 0.25, frozenset({"a"})), (sched.TaskCategory.BEHAVIORAL, 0.5, frozenset())],
    operations=[("push", [0, 1, 1]), ("select",), ("window", 3, 0), ("select",)],
    purge_at=None,
)  # a stale key after the window would pick t1 (0.5) over t0 (now 1.0)
def test_heap_dispatch_matches_linear_oracle(specs, operations, purge_at):
    tasks = {}
    for i, (category, base, behaviors) in enumerate(specs):
        if category is sched.TaskCategory.SAFETY:
            base = 1.0
        tasks[f"t{i}"] = _task(f"t{i}", category, base, behaviors)
    counts: dict[str, int] = {}
    queue = sched.ReadyQueue()
    oracle = []
    picked, expected = [], []
    for step, op in enumerate(operations):
        if step == purge_at:
            assert queue.purge() == oracle
            oracle = []
        if op[0] == "push":
            oracle.extend(queue.push(tasks[f"t{i % len(tasks)}"], 0) for i in op[1])
        elif op[0] == "select":
            picked.append(sched.select_next(queue))
            expected.append(_linear_select(oracle))
        else:
            for behavior, triggers in zip(("a", "b"), op[1:]):
                for _ in range(triggers):
                    sched.record_trigger(counts, behavior)
            sched.adapt_priorities(tasks, counts, _ORACLE_PARAMS, 1_000_000)
            queue.rekey()  # what the engine does after every window
        assert len(queue) == len(oracle)
    assert picked == expected
    assert queue.purge() == oracle
