"""Unit tests for A-TREAT networks: alpha memories, join search, P-nodes."""

import random
from collections import Counter

import pytest

from repro.condition.classify import build_condition_graph
from repro.engine.triggerman import TriggerMan
from repro.errors import NetworkError
from repro.lang.evaluator import Evaluator
from repro.lang.exprparser import parse_expression_text as parse
from repro.network.nodes import AlphaMemory, PNode, VirtualAlphaMemory
from repro.network.treat import ATreatNetwork
from repro.sql.database import Database
from repro.wal import SimDisk, WriteAheadLog


def make_network(tvars, when_text, fetchers=None, lookups=None):
    when = parse(when_text) if when_text else None
    graph = build_condition_graph(tvars, when)
    return ATreatNetwork(1, graph, Evaluator(), fetchers, lookups)


class TestAlphaMemory:
    def test_insert_remove(self):
        memory = AlphaMemory("alpha:t", "t")
        memory.insert({"a": 1})
        memory.insert({"a": 2})
        assert len(memory) == 2
        assert memory.remove({"a": 1})
        assert not memory.remove({"a": 99})
        assert [r["a"] for r in memory.rows()] == [2]

    def test_rows_are_copies(self):
        memory = AlphaMemory("alpha:t", "t")
        row = {"a": 1}
        memory.insert(row)
        row["a"] = 2
        assert next(memory.rows())["a"] == 1


class TestVirtualAlphaMemory:
    def test_filters_by_selection(self):
        base = [{"x": 1}, {"x": 5}, {"x": 10}]
        memory = VirtualAlphaMemory(
            "alpha:t", "t", lambda: iter(base), parse("t.x > 3"), Evaluator()
        )
        assert [r["x"] for r in memory.rows()] == [5, 10]

    def test_no_selection_passes_all(self):
        base = [{"x": 1}, {"x": 2}]
        memory = VirtualAlphaMemory(
            "alpha:t", "t", lambda: iter(base), None, Evaluator()
        )
        assert len(list(memory.rows())) == 2


class TestSingleSourceNetwork:
    def test_entry_node_is_pnode(self):
        network = make_network(["e"], "e.x > 1")
        assert network.entry_node_id("e") == "pnode"

    def test_activate_yields_binding(self):
        network = make_network(["e"], None)
        matches = network.activate("e", "insert", {"x": 5})
        assert len(matches) == 1
        assert matches[0].rows["e"] == {"x": 5}

    def test_delete_uses_old_row(self):
        network = make_network(["e"], None)
        matches = network.activate("e", "delete", None, {"x": 7})
        assert matches[0].rows["e"] == {"x": 7}

    def test_update_carries_old_image(self):
        network = make_network(["e"], None)
        matches = network.activate(
            "e", "update", {"x": 2}, {"x": 1}
        )
        assert matches[0].rows["e"]["x"] == 2
        assert matches[0].old_rows["e"]["x"] == 1

    def test_single_source_memory_not_grown(self):
        network = make_network(["e"], None)
        for i in range(10):
            network.activate("e", "insert", {"x": i})
        assert len(network.alpha["e"]) == 0

    def test_missing_image_raises(self):
        network = make_network(["e"], None)
        with pytest.raises(NetworkError):
            network.activate("e", "insert", None)
        with pytest.raises(NetworkError):
            network.activate("e", "bogus", {"x": 1})

    def test_catch_all_applied(self):
        network = make_network(["e"], "1 = 2")
        assert network.activate("e", "insert", {"x": 1}) == []


class TestTwoWayJoin:
    def _network(self):
        network = make_network(["a", "b"], "a.k = b.k")
        network.prime("b", iter([{"k": 1, "v": "b1"}, {"k": 2, "v": "b2"}]))
        return network

    def test_join_match(self):
        network = self._network()
        matches = network.activate("a", "insert", {"k": 1})
        assert len(matches) == 1
        assert matches[0].rows["b"]["v"] == "b1"

    def test_join_no_match(self):
        network = self._network()
        assert network.activate("a", "insert", {"k": 99}) == []

    def test_seed_from_other_side(self):
        network = self._network()
        network.activate("a", "insert", {"k": 1})
        matches = network.activate("b", "insert", {"k": 1, "v": "b3"})
        # joins against the 'a' row stored earlier
        assert len(matches) == 1
        assert matches[0].rows["a"]["k"] == 1

    def test_delete_maintains_memory(self):
        network = self._network()
        network.activate("b", "delete", None, {"k": 1, "v": "b1"})
        assert network.activate("a", "insert", {"k": 1}) == []

    def test_update_rebinds(self):
        network = self._network()
        network.activate(
            "b", "update", {"k": 5, "v": "b1"}, {"k": 1, "v": "b1"}
        )
        assert network.activate("a", "insert", {"k": 1}) == []
        assert len(network.activate("a", "insert", {"k": 5})) == 1


class TestThreeWayJoin:
    def test_iris_topology(self):
        when = (
            "s.name = 'Iris' and s.spno = r.spno and r.nno = h.nno"
        )
        network = make_network(["s", "h", "r"], when)
        network.prime("s", iter([{"spno": 1, "name": "Iris"}]))
        network.prime("r", iter([{"spno": 1, "nno": 10}, {"spno": 1, "nno": 20}]))
        matches = network.activate("h", "insert", {"hno": 7, "nno": 10})
        assert len(matches) == 1
        assert matches[0].rows["s"]["name"] == "Iris"
        assert matches[0].rows["r"]["nno"] == 10

    def test_multiple_combinations(self):
        network = make_network(["a", "b"], "a.k = b.k")
        network.prime("b", iter([{"k": 1, "i": 1}, {"k": 1, "i": 2}]))
        matches = network.activate("a", "insert", {"k": 1})
        assert len(matches) == 2

    def test_cartesian_when_disconnected(self):
        network = make_network(["a", "b"], None)
        network.prime("b", iter([{"x": 1}, {"x": 2}]))
        matches = network.activate("a", "insert", {"y": 9})
        assert len(matches) == 2

    def test_hyper_join_catch_all(self):
        when = "a.x + b.y = c.z"
        network = make_network(["a", "b", "c"], when)
        network.prime("b", iter([{"y": 2}]))
        network.prime("c", iter([{"z": 5}]))
        assert len(network.activate("a", "insert", {"x": 3})) == 1
        assert network.activate("a", "insert", {"x": 4}) == []


class TestVirtualJoin:
    def test_virtual_alpha_queries_base(self):
        base_b = [{"k": 1, "v": "fresh"}]
        network = make_network(
            ["a", "b"], "a.k = b.k", fetchers={"b": lambda: iter(base_b)}
        )
        assert len(network.activate("a", "insert", {"k": 1})) == 1
        base_b.append({"k": 1, "v": "later"})
        assert len(network.activate("a", "insert", {"k": 1})) == 2

    def test_virtual_alpha_applies_selection(self):
        base_b = [{"k": 1, "q": 1}, {"k": 1, "q": 100}]
        network = make_network(
            ["a", "b"],
            "a.k = b.k and b.q > 10",
            fetchers={"b": lambda: iter(base_b)},
        )
        matches = network.activate("a", "insert", {"k": 1})
        assert len(matches) == 1
        assert matches[0].rows["b"]["q"] == 100


class TestIntrospection:
    def test_node_lookup(self):
        network = make_network(["a", "b"], "a.k = b.k")
        assert isinstance(network.node("pnode"), PNode)
        assert network.node("alpha:a").tvar == "a"
        with pytest.raises(NetworkError):
            network.node("alpha:zz")

    def test_memory_sizes(self):
        network = make_network(
            ["a", "b"], "a.k = b.k", fetchers={"b": lambda: iter([])}
        )
        network.activate("a", "insert", {"k": 1})
        sizes = network.memory_sizes()
        assert sizes["a"] == 1
        assert sizes["b"] is None  # virtual

    def test_pnode_counts(self):
        pnode = PNode("pnode")
        seen = []
        pnode.on_match = seen.append
        from repro.lang.evaluator import Bindings

        pnode.activate(Bindings())
        assert pnode.match_count == 1
        assert len(seen) == 1


class TestAlgebraicJoinSignatures:
    """Signature-hash bucket probing for equi-join edges (§5.4 probe cost)."""

    def _joined(self, net, seed_row):
        return [b.rows for b in net.activate("emp", "insert", seed_row)]

    def test_plan_built_for_equality_edge(self):
        net = make_network(["emp", "dept"], "emp.dept = dept.dno")
        assert ("dept", "emp") in net._join_plans

    def test_no_plan_without_equality_conjunct(self):
        net = make_network(["emp", "dept"], "emp.salary > dept.budget")
        assert net._join_plans == {}

    def test_bucket_probe_narrows_candidates(self):
        net = make_network(["emp", "dept"], "emp.dept = dept.dno")
        net.prime("dept", iter({"dno": i} for i in range(100)))
        out = self._joined(net, {"dept": 42})
        assert len(out) == 1
        assert out[0]["dept"]["dno"] == 42
        assert net.join_stats["hash_probes"] == 1
        # the probe touched the one-bucket candidate, not all 100 rows
        assert net.join_stats["candidates"] == 1

    def test_hash_is_prefilter_only(self):
        # Non-equality conjuncts on the same edge are still evaluated on
        # every bucket candidate.
        net = make_network(
            ["emp", "dept"],
            "emp.dept = dept.dno and emp.salary > dept.budget",
        )
        net.prime("dept", iter([{"dno": 1, "budget": 50}]))
        assert self._joined(net, {"dept": 1, "salary": 100}) != []
        assert self._joined(net, {"dept": 1, "salary": 10}) == []

    def test_cross_type_numeric_keys_match(self):
        # SQL numeric equality crosses int/float; hash(1) == hash(1.0)
        # keeps them in the same bucket.
        net = make_network(["emp", "dept"], "emp.dept = dept.dno")
        net.prime("dept", iter([{"dno": 1.0}]))
        assert self._joined(net, {"dept": 1}) != []

    def test_null_join_key_matches_nothing(self):
        net = make_network(["emp", "dept"], "emp.dept = dept.dno")
        net.prime("dept", iter([{"dno": None}, {"dno": 1}]))
        assert self._joined(net, {"dept": None}) == []
        assert len(self._joined(net, {"dept": 1})) == 1

    def test_buckets_follow_removals(self):
        net = make_network(["emp", "dept"], "emp.dept = dept.dno")
        net.prime("dept", iter([{"dno": 1, "budget": 5}]))
        net.alpha["dept"].remove({"dno": 1, "budget": 5})
        assert self._joined(net, {"dept": 1}) == []

    def test_equivalent_to_scan(self):
        # Differential check: bucket-probed results equal the pre-plan
        # full-scan semantics for a mixed workload.
        net = make_network(
            ["emp", "dept"],
            "emp.dept = dept.dno and emp.salary > dept.budget",
        )
        rows = [
            {"dno": i % 5, "budget": (i * 7) % 30} for i in range(40)
        ]
        net.prime("dept", iter(rows))
        for key in range(-1, 7):
            got = self._joined(net, {"dept": key, "salary": 15})
            expected = [
                r for r in rows if r["dno"] == key and 15 > r["budget"]
            ]
            assert sorted(
                (b["dept"]["dno"], b["dept"]["budget"]) for b in got
            ) == sorted((r["dno"], r["budget"]) for r in expected)

    def test_virtual_memories_fall_back_to_scan(self):
        base = [{"dno": 1}, {"dno": 2}]
        net = make_network(
            ["emp", "dept"],
            "emp.dept = dept.dno",
            fetchers={"dept": lambda: iter(base)},
        )
        assert len(self._joined(net, {"dept": 2})) == 1
        assert net.join_stats["hash_probes"] == 0


def dict_lookup(base):
    """A ``rows_eq`` over a list of dicts that, like a table's equality
    index, declines unhashable keys."""
    calls = []

    def rows_eq(columns, key):
        calls.append((tuple(columns), tuple(key)))
        try:
            hash(key)
        except TypeError:
            return None
        return [r for r in base if tuple(r[c] for c in columns) == key]

    rows_eq.calls = calls
    return rows_eq


class TestVirtualEqualityProbe:
    """Virtual alpha memories probe their base table by join key."""

    def _net(self, when, base, with_lookup=True):
        lookup = dict_lookup(base)
        net = make_network(
            ["emp", "dept"],
            when,
            fetchers={"dept": lambda: iter(base)},
            lookups={"dept": lookup} if with_lookup else None,
        )
        return net, lookup

    def _joined(self, net, seed_row):
        return [b.rows for b in net.activate("emp", "insert", seed_row)]

    def test_probe_replaces_scan(self):
        base = [{"dno": i, "q": i} for i in range(50)]
        net, lookup = self._net("emp.dept = dept.dno", base)
        out = self._joined(net, {"dept": 42})
        assert [r["dept"]["dno"] for r in out] == [42]
        assert lookup.calls == [(("dno",), (42,))]
        assert net.join_stats["virtual_hash_probes"] == 1
        assert net.join_stats["virtual_scans"] == 0
        assert net.join_stats["candidates"] == 1

    def test_null_key_has_no_candidates(self):
        base = [{"dno": None}, {"dno": 1}]
        net, lookup = self._net("emp.dept = dept.dno", base)
        assert self._joined(net, {"dept": None}) == []
        assert lookup.calls == []
        assert net.join_stats["candidates"] == 0

    def test_unhashable_key_falls_back_to_scan(self):
        base = [{"dno": 1}, {"dno": 2}]
        net, _lookup = self._net("emp.dept = dept.dno", base)
        assert self._joined(net, {"dept": [1]}) == []
        assert net.join_stats["virtual_scans"] == 1
        assert net.join_stats["candidates"] == 2

    def test_edge_without_equality_scans(self):
        base = [{"dno": 1, "budget": 5}, {"dno": 2, "budget": 50}]
        net, lookup = self._net("emp.salary > dept.budget", base)
        assert len(self._joined(net, {"salary": 10})) == 1
        assert lookup.calls == []
        assert net.join_stats["virtual_scans"] == 1

    def test_other_conjuncts_and_selection_still_apply(self):
        base = [
            {"dno": 1, "budget": 5, "open": 1},
            {"dno": 1, "budget": 50, "open": 1},
            {"dno": 1, "budget": 1, "open": 0},
        ]
        net, _lookup = self._net(
            "emp.dept = dept.dno and emp.salary > dept.budget "
            "and dept.open = 1",
            base,
        )
        out = self._joined(net, {"dept": 1, "salary": 10})
        assert [r["dept"]["budget"] for r in out] == [5]

    def test_same_bindings_as_scan(self):
        base = [
            {"dno": k, "budget": b}
            for k in (None, 0, 1, 1.0, 2, "2")
            for b in (0, 10)
        ]
        probed, _ = self._net(
            "emp.dept = dept.dno and emp.salary > dept.budget", base
        )
        scanned, _ = self._net(
            "emp.dept = dept.dno and emp.salary > dept.budget", base,
            with_lookup=False,
        )
        for key in (None, 0, 1, 1.0, True, 2, "2", [1], 3):
            seed = {"dept": key, "salary": 5}
            assert self._joined(probed, seed) == self._joined(scanned, seed)
        assert scanned.join_stats["virtual_hash_probes"] == 0

    def test_probe_paths(self):
        net, _ = self._net("emp.dept = dept.dno", [])
        assert net.probe_paths() == {
            "emp": "hashed on (dept)", "dept": "hashed on (dno)"
        }
        net, _ = self._net("emp.dept = dept.dno", [], with_lookup=False)
        assert net.probe_paths()["dept"] == "scan"
        net, _ = self._net("emp.salary > dept.budget", [])
        assert net.probe_paths() == {"emp": "scan", "dept": "scan"}


ESTATE_TABLES = {
    "b": [("id", "integer"), ("k", "integer"), ("m", "varchar(20)"),
          ("x", "float"), ("pad", "varchar(300)")],
    "c": [("bid", "integer"), ("f", "float"), ("flag", "integer")],
    "a": [("k", "integer"), ("m", "varchar(20)"), ("seq", "integer")],
}

JOIN_TRIGGERS = [
    # stream seed probing a table by one column, plus a range conjunct
    "create trigger sb from s, b when s.k = b.k and s.x < b.x "
    "do raise event SB(s.seq, b.id)",
    # three tables: a two-column key, then a key plus a selection
    "create trigger abc on insert to a from a, b, c "
    "when a.k = b.k and a.m = b.m and b.id = c.bid and c.flag = 1 "
    "do raise event ABC(a.seq, b.id, c.f)",
    # integer column = float column, seeded from either side
    "create trigger bc from b, c when b.k = c.f do raise event BC(b.id, c.bid)",
]


def build_joins(tman):
    for name, columns in ESTATE_TABLES.items():
        if name not in tman.registry:
            tman.define_table(name, columns)
    if "s" not in tman.registry:
        tman.define_stream(
            "s", [("k", "integer"), ("x", "float"), ("seq", "integer")]
        )
        for text in JOIN_TRIGGERS:
            tman.create_trigger(text)
    return tman


def scan_only(tman):
    """Switch every table's equality index off: the scan-path oracle."""
    for name in ESTATE_TABLES:
        tman.table(name).lookup_eq = lambda columns, key: None
    return tman


def join_ops(rng, n):
    ops = []
    for seq in range(n):
        r = rng.random()
        key = rng.choice([0, 1, 2, 3, None])
        if r < 0.25:
            ops.append(("insert", "b", {
                "id": rng.randrange(12), "k": key, "m": rng.choice("xy"),
                "x": float(rng.randrange(4)),
                "pad": "p" * rng.choice([1, 250]),
            }))
        elif r < 0.4:
            ops.append(("insert", "c", {
                "bid": rng.randrange(12),
                "f": rng.choice([0.0, 1.0, 2.5, 3.0, None]),
                "flag": rng.randrange(2),
            }))
        elif r < 0.55:
            ops.append(("insert", "a", {
                "k": key, "m": rng.choice("xy"), "seq": seq,
            }))
        elif r < 0.7:
            ops.append(("push", "s", {
                "k": rng.choice([1, 1.0, True, None, [1], 2, "2"]),
                "x": float(rng.randrange(4)), "seq": seq,
            }))
        elif r < 0.85:
            ops.append(("delete", rng.choice("bc"),
                        {rng.choice(["id", "bid"]): rng.randrange(12)}))
        else:
            ops.append(("update", "b", {"id": rng.randrange(12)}, {
                "k": rng.choice([0, 1, 2, None]),
                "pad": "q" * rng.choice([1, 290]),
            }))
    return ops


def apply_ops(tman, ops):
    for op in ops:
        kind, source = op[0], op[1]
        if kind == "insert":
            tman.insert(source, op[2])
        elif kind == "push":
            tman.push(source, "insert", new=op[2])
        elif kind == "delete":
            column = next(iter(op[2]))
            if tman.table(source).schema.has_column(column):
                tman.delete_rows(source, op[2])
        else:
            tman.update_rows(source, op[2], op[3])
        tman.process_all()


def firings(tman):
    return [(n.trigger_name, n.args) for n in tman.events.history]


class TestEngineEqualityProbeDifferential:
    """The same operations fire the same join bindings with the table
    equality index on and off (NULL keys, 1 / 1.0 / True, duplicate and
    two-column keys, unhashable stream values, RID-relocating updates)."""

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_same_firings_as_scan(self, seed):
        ops = join_ops(random.Random(seed), 250)
        hashed = build_joins(TriggerMan.in_memory())
        scanned = scan_only(build_joins(TriggerMan.in_memory()))
        apply_ops(hashed, ops)
        apply_ops(scanned, ops)
        assert firings(hashed) == firings(scanned)
        assert len({name for name, _ in firings(hashed)}) == 3
        stats = [
            hashed.cache.pin(hashed.catalog.trigger_id(t)).network.join_stats
            for t in ("sb", "abc", "bc")
        ]
        assert all(s["virtual_hash_probes"] > 0 for s in stats)
        # unhashable stream keys took the scan fallback
        assert stats[0]["virtual_scans"] > 0

    def test_explain_names_probe_paths(self):
        tman = build_joins(TriggerMan.in_memory())
        out = tman.explain("abc")
        assert "alpha memory: virtual; hashed on (k, m)" in out
        assert "hashed on (bid)" in out
        assert "join search: 0 probe(s)" in out

    def test_crash_recovery_rebuilds_lazily(self):
        """A persistent engine killed mid-run (WAL redo, then lazy index
        rebuild) fires what an uncrashed engine fires."""
        def boot(disk):
            database = Database(
                path=None,
                wal=WriteAheadLog(disk.log, sync="always", faults=disk.faults),
                pager_factory=disk.pager_factory,
                catalog_store=disk.catalog,
                faults=disk.faults,
            )
            return build_joins(TriggerMan(database))

        # tables only: a stream's materialized memory does not outlive its
        # process, so stream tuples would diverge across any restart
        ops = [op for op in join_ops(random.Random(11), 300) if op[0] != "push"]
        oracle = build_joins(TriggerMan.in_memory())
        apply_ops(oracle, ops)

        disk = SimDisk()
        tman = boot(disk)
        got = []
        for start in range(0, len(ops), 80):
            apply_ops(tman, ops[start:start + 80])
            assert tman.table("b")._eq_indexes  # built before the kill
            got.extend(firings(tman))
            disk.crash()  # no close: the next incarnation redoes the WAL
            tman = boot(disk)
            assert tman.table("b")._eq_indexes == {}
        # a reopened heap places new rows on other pages than an
        # uninterrupted one, so compare the firings as a multiset
        assert got
        assert Counter(got) == Counter(firings(oracle))
        assert Counter(tman.table("b").rows()) == Counter(oracle.table("b").rows())
