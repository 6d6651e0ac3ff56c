"""Differential testing: the full TriggerMan engine against a brute-force
reference on randomized trigger populations and token streams.

The reference evaluates every trigger's original WHEN text directly against
every token (the naive ECA semantics) — if the predicate index, signature
split, residual tests, organizations, cache reloads, or event routing break
anywhere, the firing sets diverge.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.triggerman import TriggerMan
from repro.lang.evaluator import Bindings, Evaluator
from repro.lang.exprparser import parse_expression_text as parse
from repro.predindex.costmodel import Limits

EVALUATOR = Evaluator()

DEPTS = ["toys", "shoes", "books"]


def random_condition(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return f"emp.salary > {rng.randrange(200)}"
    if kind == 1:
        return f"emp.salary < {rng.randrange(200)}"
    if kind == 2:
        return f"emp.dept = '{rng.choice(DEPTS)}'"
    if kind == 3:
        low = rng.randrange(150)
        return f"emp.age between {low} and {low + rng.randrange(1, 40)}"
    if kind == 4:
        return (
            f"emp.dept = '{rng.choice(DEPTS)}' and "
            f"emp.salary > {rng.randrange(200)}"
        )
    if kind == 5:
        picks = rng.sample(["u1", "u2", "u3", "u11", "u25"], 2)
        return "emp.name in ({})".format(
            ", ".join(f"'{p}'" for p in picks)
        )
    return (
        f"emp.salary > {rng.randrange(200)} or "
        f"emp.dept = '{rng.choice(DEPTS)}'"
    )


def random_token(rng):
    return {
        "name": f"u{rng.randrange(50)}",
        "salary": float(rng.randrange(200)),
        "dept": rng.choice(DEPTS),
        "age": rng.randrange(200),
    }


def run_differential(seed, n_triggers, n_tokens, limits=None):
    rng = random.Random(seed)
    tman = TriggerMan.in_memory(
        limits=limits or Limits(), cache_capacity=max(2, n_triggers // 3),
    )
    tman.define_table(
        "emp",
        [
            ("name", "varchar(40)"),
            ("salary", "float"),
            ("dept", "varchar(20)"),
            ("age", "integer"),
        ],
    )
    conditions = {}
    for i in range(n_triggers):
        condition = random_condition(rng)
        conditions[f"t{i}"] = parse(condition)
        tman.create_trigger(
            f"create trigger t{i} from emp on insert when {condition} "
            f"do raise event Fired(emp.name)"
        )
    for _ in range(n_tokens):
        token = random_token(rng)
        expected = {
            name
            for name, expr in conditions.items()
            if EVALUATOR.matches(expr, Bindings(rows={"emp": token}))
        }
        tman.events.history.clear()
        tman.insert("emp", token)
        tman.process_all()
        fired_names = {n.trigger_name for n in tman.events.history}
        assert fired_names == expected, (token, fired_names ^ expected)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_differential_atreat(seed):
    run_differential(seed, n_triggers=60, n_tokens=40)


@pytest.mark.parametrize("seed", [5, 6])
def test_differential_small_limits_forces_db_tables(seed):
    """Tiny organization limits push constant sets into database tables —
    the firing sets must not change."""
    run_differential(
        seed, n_triggers=80, n_tokens=30, limits=Limits(list_max=2, memory_max=5)
    )
