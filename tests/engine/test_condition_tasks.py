"""Tests for §6's condition-level concurrency: type-3 tasks over signature
group subsets must produce exactly the firings of whole-token processing."""

import pytest

from repro.engine.descriptors import Operation, UpdateDescriptor
from repro.engine.triggerman import TriggerMan


def build(n_per_signature=20):
    tman = TriggerMan.in_memory()
    tman.define_table(
        "emp",
        [("name", "varchar(40)"), ("salary", "float"), ("dept", "varchar(20)")],
    )
    for i in range(n_per_signature):
        tman.create_trigger(
            f"create trigger gt{i} from emp on insert "
            f"when emp.salary > {i * 10} do raise event Fired(emp.name)"
        )
        tman.create_trigger(
            f"create trigger eq{i} from emp on insert "
            f"when emp.name = 'user{i}' do raise event Fired(emp.name)"
        )
        tman.create_trigger(
            f"create trigger dep{i} from emp on insert "
            f"when emp.dept = 'd{i % 4}' and emp.salary < {500 - i} "
            f"do raise event Fired(emp.name)"
        )
    return tman


TOKEN = {"name": "user3", "salary": 105.0, "dept": "d2"}


def firings(tman):
    return sorted(
        n.trigger_name for n in tman.events.history if n.event_name == "Fired"
    )


def test_partitioned_equals_whole_token():
    whole = build()
    whole.insert("emp", TOKEN)
    whole.process_all()
    expected = firings(whole)
    assert expected  # sanity: something fires

    for partitions in (1, 2, 3, 8):
        part = build()
        descriptor = UpdateDescriptor(
            "emp", Operation.INSERT, new=dict(TOKEN)
        )
        tasks = part.enqueue_condition_tasks(descriptor, partitions)
        assert tasks == min(partitions, part.index.signature_count())
        part._run_pending_tasks()
        assert firings(part) == expected, partitions


def test_partitioned_tasks_under_drivers():
    import time

    from repro.engine.tasks import Driver

    tman = build()
    reference = build()
    reference.insert("emp", TOKEN)
    reference.process_all()
    expected = firings(reference)

    descriptor = UpdateDescriptor("emp", Operation.INSERT, new=dict(TOKEN))
    tman.enqueue_condition_tasks(descriptor, 3)
    drivers = [Driver(tman.tasks, poll_period=0.005) for _ in range(3)]
    for driver in drivers:
        driver.start()
    deadline = time.time() + 10
    while firings(tman) != expected and time.time() < deadline:
        time.sleep(0.01)
    for driver in drivers:
        driver.stop()
    assert firings(tman) == expected


def test_no_groups_no_tasks(tman_emp):
    descriptor = UpdateDescriptor("nowhere", Operation.INSERT, new={})
    assert tman_emp.enqueue_condition_tasks(descriptor, 4) == 0


def test_maintenance_runs_once_after_all_subsets():
    """Stream-fed (materialized) A-TREAT memories must be maintained once
    per token even when condition testing is partitioned."""
    tman = TriggerMan.in_memory()
    tman.define_stream("a", [("k", "integer")])
    tman.define_stream("b", [("k", "integer")])
    tman.create_trigger(
        "create trigger j from a, b when a.k = b.k do raise event J(a.k)"
    )
    tman.push("b", Operation.INSERT, new={"k": 1})
    tman.process_all()
    # delete b's row via a partitioned token; memory must be retracted
    tman.push("b", Operation.DELETE, old={"k": 1})
    descriptor = tman.queue.dequeue()
    assert descriptor.operation == Operation.DELETE
    tman.enqueue_condition_tasks(descriptor, 4)
    tman._run_pending_tasks()
    tman.push("a", Operation.INSERT, new={"k": 1})
    tman.process_all()
    assert not [n for n in tman.events.history if n.event_name == "J"]
