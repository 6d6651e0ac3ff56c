"""Engine-level join triggers on the A-TREAT network: virtual memories over
tables see every committed change without priming or maintenance, and
stream-fed materialized memories are maintained (and pinned) by the
engine."""

import pytest

from repro.engine.descriptors import Operation
from repro.engine.triggerman import TriggerMan


def fired(tman, name):
    return [n.args for n in tman.events.history if n.event_name == name]


@pytest.fixture
def estate():
    tman = TriggerMan.in_memory()
    tman.define_table("house", [("hno", "integer"), ("nno", "integer")])
    tman.define_table(
        "represents", [("spno", "integer"), ("nno", "integer")]
    )
    tman.define_table(
        "salesperson", [("spno", "integer"), ("name", "varchar(20)")]
    )
    tman.insert("salesperson", {"spno": 1, "name": "Iris"})
    tman.insert("represents", {"spno": 1, "nno": 10})
    tman.process_all()
    tman.create_trigger(
        "create trigger alert on insert to house "
        "from salesperson s, house h, represents r "
        "when s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno "
        "do raise event NewHouse(h.hno)"
    )
    return tman


def stream_join(tman):
    tman.define_stream("a", [("k", "integer")])
    tman.define_stream("b", [("k", "integer")])
    tman.create_trigger(
        "create trigger j from a, b when a.k = b.k do raise event J(a.k)"
    )


class TestTableJoins:
    def test_table_memories_are_virtual(self, estate):
        """§5.1 priming is a no-op: every table-backed memory is virtual,
        nothing is materialized, and nothing needs a permanent pin."""
        runtime = estate.triggers()[0]
        assert set(runtime.network.memory_sizes().values()) == {None}
        assert runtime.network.materialized_tvars() == []
        assert not estate._permanent_pins

    def test_join_fires_on_rows_from_before_create(self, estate):
        estate.insert("house", {"hno": 7, "nno": 10})
        estate.process_all()
        assert fired(estate, "NewHouse") == [(7,)]

    def test_delete_prevents_stale_join(self, estate):
        estate.delete_rows("represents", {"spno": 1, "nno": 10})
        estate.process_all()
        estate.insert("house", {"hno": 8, "nno": 10})
        estate.process_all()
        assert fired(estate, "NewHouse") == []

    def test_update_out_of_selection_stops_joining(self, estate):
        estate.update_rows("salesperson", {"spno": 1}, {"name": "Bob"})
        estate.process_all()
        estate.insert("house", {"hno": 9, "nno": 10})
        estate.process_all()
        assert fired(estate, "NewHouse") == []

    def test_update_into_selection_joins(self, estate):
        estate.insert("salesperson", {"spno": 2, "name": "Joe"})
        estate.insert("represents", {"spno": 2, "nno": 20})
        estate.process_all()
        estate.insert("house", {"hno": 10, "nno": 20})
        estate.process_all()
        assert fired(estate, "NewHouse") == []
        # the rename's own token joins the stored house; the next insert
        # joins the renamed salesperson
        estate.update_rows("salesperson", {"spno": 2}, {"name": "Iris"})
        estate.process_all()
        assert fired(estate, "NewHouse") == [(10,)]
        estate.insert("house", {"hno": 11, "nno": 20})
        estate.process_all()
        assert fired(estate, "NewHouse") == [(10,), (11,)]

    def test_persistent_replay(self, tmp_path):
        path = str(tmp_path / "j")
        tman = TriggerMan.persistent(path)
        tman.define_table("a", [("k", "integer")])
        tman.define_table("b", [("k", "integer")])
        tman.insert("b", {"k": 1})
        tman.process_all()
        tman.create_trigger(
            "create trigger j from a, b when a.k = b.k "
            "do raise event J(a.k)"
        )
        tman.catalog_db.close()
        reopened = TriggerMan.persistent(path)
        reopened.insert("a", {"k": 1})
        reopened.process_all()
        assert fired(reopened, "J") == [(1,)]
        reopened.catalog_db.close()


class TestStreamMemories:
    def test_unmatched_stream_delete_retracts_row(self):
        """Stream sources have implicit insert_or_update events, so a
        delete never matches through the index; the engine's maintenance
        hook must still retract the row from the materialized memory."""
        tman = TriggerMan.in_memory()
        stream_join(tman)
        tman.push("b", Operation.INSERT, new={"k": 1})
        tman.process_all()
        tman.push("b", Operation.DELETE, old={"k": 1})
        tman.process_all()
        tman.push("a", Operation.INSERT, new={"k": 1})
        tman.process_all()
        assert fired(tman, "J") == []

    def test_stream_memories_are_pinned_until_drop(self):
        tman = TriggerMan.in_memory()
        stream_join(tman)
        trigger_id = tman.catalog.trigger_id("j")
        assert tman._permanent_pins == {trigger_id}
        assert sorted(tman._materialized) == ["a", "b"]
        tman.drop_trigger("j")
        assert not tman._permanent_pins
        assert all(not bucket for bucket in tman._materialized.values())
        # later tokens must not touch the dropped trigger
        tman.push("b", Operation.DELETE, old={"k": 1})
        tman.process_all()
