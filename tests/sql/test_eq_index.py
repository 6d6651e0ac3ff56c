"""Differential tests for ``Table.lookup_eq``, the lazy in-memory equality
index: every answer must equal a full-scan filter under Python equality,
across mutations made after the index exists, and every case the index
cannot answer must decline (None) so the caller scans."""

import json
import random

import pytest

from repro.engine.triggerman import TriggerMan
from repro.sql.database import Database
from repro.sql.schema import schema
from repro.sql.types import TypeRegistry, UserDefinedType


def scan_eq(table, columns, key):
    positions = [table.schema.position(c) for c in columns]
    return [
        (rid, row)
        for rid, row in table.scan()
        if all(row[p] == k for p, k in zip(positions, key))
    ]


@pytest.fixture
def table():
    db = Database()
    return db.create_table(
        schema("t", ("a", "integer"), ("b", "varchar(400)"), ("f", "float"))
    )


class TestLookupEq:
    def test_built_lazily_on_first_lookup(self, table):
        table.insert([1, "x", 1.0])
        assert table._eq_indexes == {}
        assert len(table.lookup_eq(("a",), (1,))) == 1
        assert ("a",) in table._eq_indexes

    def test_duplicate_keys_in_heap_order(self, table):
        for i in range(30):
            table.insert([i % 3, f"v{i}", float(i)])
        for key in range(-1, 4):
            assert table.lookup_eq(("a",), (key,)) == scan_eq(
                table, ("a",), (key,)
            )

    def test_cross_type_numeric_keys(self, table):
        table.insert([1, "one", 1.0])
        table.insert([2, "two", 2.5])
        for columns, key in [
            (("a",), (1.0,)),
            (("a",), (True,)),
            (("f",), (1,)),
            (("f",), (True,)),
            (("f",), (2.5,)),
        ]:
            got = table.lookup_eq(columns, key)
            assert got == scan_eq(table, columns, key)
            assert len(got) == 1

    def test_multi_column_key(self, table):
        for i in range(40):
            table.insert([i % 4, f"b{i % 5}", 0.0])
        for a in range(4):
            for b in range(5):
                key = (a, f"b{b}")
                assert table.lookup_eq(("a", "b"), key) == scan_eq(
                    table, ("a", "b"), key
                )

    def test_null_rows_are_never_hits(self, table):
        table.insert([None, "n", 0.0])
        table.insert([1, "one", 0.0])
        assert table.lookup_eq(("a",), (1,)) == scan_eq(table, ("a",), (1,))

    def test_declines_what_it_cannot_answer(self, table):
        table.insert([1, "x", 0.0])
        assert table.lookup_eq(("a",), (None,)) is None
        assert table.lookup_eq(("a",), ([1],)) is None
        assert table.lookup_eq(("nope",), (1,)) is None
        assert table.lookup_eq((), ()) is None

    def test_follows_mutations_after_build(self, table):
        rng = random.Random(7)
        rids = []
        for i in range(50):
            rids.append(table.insert([rng.randrange(6), f"v{i}", 0.0]))
        table.lookup_eq(("a",), (0,))  # build now; mutate afterwards
        for step in range(300):
            op = rng.random()
            if op < 0.4 or not rids:
                rids.append(table.insert([rng.randrange(6), "n", 0.0]))
            elif op < 0.7:
                table.delete(rids.pop(rng.randrange(len(rids))))
            else:
                i = rng.randrange(len(rids))
                # long strings force RID relocation out of full pages
                text = "w" * rng.choice([1, 50, 380])
                rids[i] = table.update(
                    rids[i], {"a": rng.choice([rng.randrange(6), None]), "b": text}
                )
            key = (rng.randrange(-1, 7),)
            assert table.lookup_eq(("a",), key) == scan_eq(table, ("a",), key)

    def test_update_relocation_moves_the_rid(self, table):
        first = table.insert([1, "x", 0.0])
        while table.heap.num_pages == 1:
            table.insert([2, "y" * 300, 0.0])
        table.lookup_eq(("a",), (1,))
        moved = table.update(first, {"b": "z" * 400})
        assert moved != first
        assert table.lookup_eq(("a",), (1,)) == [(moved, (1, "z" * 400, 0.0))]

    def test_truncate_clears(self, table):
        table.insert([1, "x", 0.0])
        assert len(table.lookup_eq(("a",), (1,))) == 1
        table.truncate()
        assert table.lookup_eq(("a",), (1,)) == []
        table.insert([1, "again", 0.0])
        assert table.lookup_eq(("a",), (1,)) == scan_eq(table, ("a",), (1,))

    def test_rebuilt_lazily_after_reopen(self, tmp_path):
        db = Database(str(tmp_path))
        t = db.create_table(schema("t", ("a", "integer")))
        for i in range(10):
            t.insert([i % 2])
        assert len(t.lookup_eq(("a",), (1,))) == 5
        db.close()
        db = Database(str(tmp_path))
        t = db.table("t")
        assert t._eq_indexes == {}
        assert t.lookup_eq(("a",), (1,)) == scan_eq(t, ("a",), (1,))
        db.close()


class TestUnhashableStoredKeys:
    @pytest.fixture
    def tags(self):
        registry = TypeRegistry()
        registry.register(UserDefinedType(
            "tags",
            validate=list,
            to_bytes=lambda v: json.dumps(v).encode(),
            from_bytes=lambda b: json.loads(b.decode()),
        ))
        db = Database(registry=registry)
        return db.create_table(
            schema("u", ("k", "integer"), ("tags", "tags"), registry=registry)
        )

    def test_unhashable_at_build_falls_back(self, tags):
        tags.insert([1, ["a"]])
        assert tags.lookup_eq(("tags",), (["a"],)) is None
        assert tags.lookup_eq(("k",), (1,)) == scan_eq(tags, ("k",), (1,))

    def test_unhashable_after_build_falls_back(self, tags):
        tags.insert([1, None])
        assert tags.lookup_eq(("tags",), ("a",)) == []
        tags.insert([2, ["a"]])
        assert tags.lookup_eq(("tags",), ("a",)) is None
        # other column tuples keep their index
        assert tags.lookup_eq(("k",), (2,)) == scan_eq(tags, ("k",), (2,))


class TestDeleteAndUpdateRows:
    """``delete_rows`` / ``update_rows`` through the index must touch the
    same rows, in the same order, as with the index switched off."""

    COLUMNS = [("k", "integer"), ("v", "float"), ("s", "varchar(300)")]

    def _engine(self, indexed):
        tman = TriggerMan.in_memory()
        table = tman.define_table("t", self.COLUMNS).table
        if not indexed:
            table.lookup_eq = lambda columns, key: None
        tman.create_trigger(
            "create trigger gone from t on delete do raise event Gone(t.k, t.s)"
        )
        tman.create_trigger(
            "create trigger moved from t on update "
            "do raise event Moved(t.k, t.v, t.s)"
        )
        return tman

    def _drive(self, tman, seed):
        rng = random.Random(seed)
        counts = []
        for i in range(40):
            tman.insert("t", {"k": rng.randrange(5), "v": float(i % 3), "s": "x"})
        for _ in range(120):
            op = rng.random()
            where = rng.choice([
                {"k": rng.randrange(-1, 6)},
                {"k": rng.randrange(5), "v": rng.choice([0, 1.0, True, 2])},
                {"v": rng.choice([0.0, 1, None])},
                {"k": [1]},
                {"missing": 1},
            ])
            if op < 0.3:
                counts.append(tman.delete_rows("t", where))
            elif op < 0.7:
                counts.append(tman.update_rows(
                    "t", where, {"s": "y" * rng.choice([1, 290])}
                ))
            else:
                tman.insert(
                    "t",
                    {"k": rng.choice([rng.randrange(5), None]),
                     "v": float(rng.randrange(3)), "s": "z"},
                )
            tman.process_all()
        events = [(n.trigger_name, n.args) for n in tman.events.history]
        return counts, events, list(tman.table("t").rows())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_rows_as_scan(self, seed):
        indexed = self._drive(self._engine(True), seed)
        scanned = self._drive(self._engine(False), seed)
        assert indexed == scanned
        assert sum(indexed[0]) > 0
