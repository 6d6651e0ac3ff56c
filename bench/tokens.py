"""Seeded load generators and the independent oracle.

Everything the benchmark feeds the engine is made here from one
``random.Random(seed)``: the trigger population (as full ``create trigger``
text), the token stream, and — by construction, never by asking ``repro`` —
the set of triggers each token must fire.  Nothing in this file imports
``repro``, so a later change under ``src/`` cannot move the load or the
expected answers.

Populations are *stratified*: how many triggers of each shape exist, how many
sit on the user at each popularity rank, and which constants tile which value
domain are fixed by the sizes alone.  The seed only permutes identities
(which user holds rank 0, which trigger name gets which constant) and draws
the token sequence, so firings-per-token — and with it every timing — varies
between seeds by sampling noise only.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

COLUMNS = [
    ("eno", "integer"),
    ("name", "varchar(40)"),
    ("salary", "float"),
    ("dept", "varchar(20)"),
    ("age", "integer"),
    ("seq", "integer"),
]

EVENT = "Hit"
SALARY_LO, SALARY_HI = 10_000, 200_000
AGE_LO = 18

#: share of each shape in the select_match / cache_spill / trigger_churn
#: population (ISSUE 11: "~10 signature shapes")
SELECT_MIX = {
    "name_eq": 0.40,
    "eno_age": 0.20,
    "salary_gt": 0.10,
    "age_between": 0.10,
    "name_or_eno": 0.10,
    "dept_in": 0.05,
    "salary_band": 0.05,
}
#: the equality-heavy population of durable_table and remote_fanout
KEYED_MIX = {"name_eq": 0.60, "eno_age": 0.30, "name_or_eno": 0.10}

KEYED_SHAPES = ("name_eq", "eno_age", "name_or_eno")
#: event clause per shape ("" = insert or update)
SHAPE_EVENT = {
    "name_eq": "",
    "eno_age": "",
    "name_or_eno": "",
    "age_between": "insert",
    "dept_in": "insert",
    "salary_gt": "update",
    "salary_band": "update",
}


class Token(NamedTuple):
    """One generated update plus the trigger names it must fire."""

    seq: int
    source: str
    op: str  # "insert" | "update" | "delete"
    new: Optional[dict]
    old: Optional[dict]
    expect: Tuple[str, ...]


class Trigger(NamedTuple):
    """One generated trigger: its DDL text and a brute-force predicate."""

    name: str
    source: str
    shape: str
    text: str
    #: (op, row) -> bool, written with plain comparisons
    matches: Callable[[str, dict], bool]


def user_name(user: int) -> str:
    return f"user{user:06d}"


def dept_name(dept: int) -> str:
    return f"d{dept:04d}"


def digest(pairs) -> Tuple[int, int]:
    """Order-insensitive multiset digest of (trigger name, seq) pairs:
    (count, sum of hashes mod 2**64).  A dropped, duplicated, or foreign
    notification changes it."""
    total = 0
    count = 0
    for pair in pairs:
        total += hash(pair)
        count += 1
    return count, total & 0xFFFFFFFFFFFFFFFF


def _spread(count: int, slots: int) -> List[int]:
    """``count`` slot indexes spread evenly over ``range(slots)``."""
    count = min(count, slots)
    return [
        r for r in range(slots)
        if (r + 1) * count // slots > r * count // slots
    ]


def _event_ok(shape: str, op: str) -> bool:
    event = SHAPE_EVENT[shape]
    if event == "":
        return op in ("insert", "update")
    return op == event


class Population:
    """Single-source selection triggers over one or more streams/tables.

    ``users`` are ranked by popularity; ``by_rank[r]`` is the user id at rank
    r and a user's tokens always arrive on source ``rank % len(sources)``.
    """

    def __init__(
        self,
        rng: random.Random,
        sources: Sequence[str],
        n_triggers: int,
        n_users: int,
        mix: Dict[str, float],
    ):
        self.rng = rng
        self.sources = list(sources)
        self.n_users = n_users
        self.mix = mix
        n_src = len(self.sources)
        self.by_rank = list(range(n_users))
        rng.shuffle(self.by_rank)
        self.rank_of = {u: r for r, u in enumerate(self.by_rank)}
        counts = {s: int(round(share * n_triggers)) for s, share in mix.items()}
        self.per_source = {
            s: max(1, c // n_src) for s, c in counts.items()
            if s not in KEYED_SHAPES
        }
        #: value domains sized from the population so firings per token do
        #: not change with --scale
        self.age_values = max(50, self.per_source.get("age_between", 0))
        self.dept_values = max(8, 2 * self.per_source.get("dept_in", 0))
        self.band_width = (
            (SALARY_HI - SALARY_LO) // self.per_source["salary_band"]
            if "salary_band" in self.per_source else 0
        )
        self._next_id = 0
        self.triggers: List[Trigger] = []
        # -- oracle maps, per source ------------------------------------
        self._by_name: Dict[str, Dict[str, List[str]]] = {}
        self._by_eno: Dict[str, Dict[int, List[Tuple[Optional[int], str]]]] = {}
        self._by_age: Dict[str, Dict[int, List[str]]] = {}
        self._by_dept: Dict[str, Dict[str, List[str]]] = {}
        self._gt: Dict[str, Tuple[List[float], List[str]]] = {}
        self._band: Dict[str, Tuple[List[float], List[str]]] = {}
        for source in self.sources:
            self._by_name[source] = {}
            self._by_eno[source] = {}
            self._by_age[source] = {}
            self._by_dept[source] = {}
        specs = []
        for shape in KEYED_SHAPES:
            for rank in _spread(counts.get(shape, 0), n_users):
                specs.append(self._keyed_spec(shape, rank))
        for source in self.sources:
            specs.extend(self._range_specs(source))
        rng.shuffle(specs)
        for spec in specs:
            self.triggers.append(self._make(*spec))
        self._freeze_ranges()

    # -- spec construction ----------------------------------------------

    def source_of_rank(self, rank: int) -> str:
        return self.sources[rank % len(self.sources)]

    def _keyed_spec(self, shape: str, rank: int):
        user = self.by_rank[rank]
        source = self.source_of_rank(rank)
        if shape == "name_eq":
            return (shape, source, (user,))
        if shape == "eno_age":
            threshold = AGE_LO + self.rng.randrange(self.age_values)
            return (shape, source, (user, threshold))
        # second arm: the user one source-stride down the ranking, so both
        # arms listen on the same source
        other = self.by_rank[(rank + len(self.sources)) % self.n_users]
        return (shape, source, (user, other))

    def _range_specs(self, source: str):
        rng = self.rng
        specs = []
        m = self.per_source.get("age_between", 0)
        lows = list(range(self.age_values))
        rng.shuffle(lows)
        for i in range(m):
            low = AGE_LO + lows[i % len(lows)]
            specs.append(("age_between", source, (low, low + i % 4)))
        m = self.per_source.get("dept_in", 0)
        deck = list(range(self.dept_values)) + list(
            range(0, self.dept_values, 2)
        )
        rng.shuffle(deck)
        for i in range(m):
            picks = tuple(deck[(3 * i + j) % len(deck)] for j in range(3))
            specs.append(("dept_in", source, picks))
        m = self.per_source.get("salary_band", 0)
        tiles = list(range(m))
        rng.shuffle(tiles)
        for i in range(m):
            low = SALARY_LO + tiles[i] * self.band_width - self.band_width // 2
            specs.append(
                ("salary_band", source, (float(low), float(low + 2 * self.band_width)))
            )
        m = self.per_source.get("salary_gt", 0)
        # exceedance probabilities log-spaced in [1e-5, 3e-2]: a few broad
        # alerts, many selective ones; ~1.9 firings per update token
        levels = [1e-5 * 3000 ** ((i + 0.5) / m) for i in range(m)]
        rng.shuffle(levels)
        for level in levels:
            cut = SALARY_HI - int(level * (SALARY_HI - SALARY_LO))
            specs.append(("salary_gt", source, (float(cut),)))
        return specs

    # -- trigger text + brute-force predicate + oracle registration --------

    def _make(self, shape: str, source: str, consts, register: bool = True) -> Trigger:
        name = f"t{self._next_id}"
        self._next_id += 1
        s = source
        event = SHAPE_EVENT[shape]
        if event == "insert":
            on = " on insert"
        elif event == "update":
            on = f" on update({s}.salary)"
        else:
            on = ""
        if shape == "name_eq":
            (user,) = consts
            uname = user_name(user)
            cond = f"{s}.name = '{uname}'"
            test = lambda row: row["name"] == uname
            if register:
                self._by_name[s].setdefault(uname, []).append(name)
        elif shape == "eno_age":
            user, threshold = consts
            cond = f"{s}.eno = {user} and {s}.age > {threshold}"
            test = lambda row: row["eno"] == user and row["age"] > threshold
            if register:
                self._by_eno[s].setdefault(user, []).append((threshold, name))
        elif shape == "name_or_eno":
            user, other = consts
            uname = user_name(user)
            cond = f"{s}.name = '{uname}' or {s}.eno = {other}"
            test = lambda row: row["name"] == uname or row["eno"] == other
            if register:
                self._by_name[s].setdefault(uname, []).append(name)
                self._by_eno[s].setdefault(other, []).append((None, name))
        elif shape == "age_between":
            low, high = consts
            cond = f"{s}.age between {low} and {high}"
            test = lambda row: low <= row["age"] <= high
            if register:
                for age in range(low, high + 1):
                    self._by_age[s].setdefault(age, []).append(name)
        elif shape == "dept_in":
            depts = tuple(dept_name(d) for d in consts)
            listed = ", ".join(f"'{d}'" for d in depts)
            cond = f"{s}.dept in ({listed})"
            test = lambda row: row["dept"] in depts
            if register:
                for dept in set(depts):
                    self._by_dept[s].setdefault(dept, []).append(name)
        elif shape == "salary_band":
            low, high = consts
            cond = f"{s}.salary > {low!r} and {s}.salary < {high!r}"
            test = lambda row: low < row["salary"] < high
            if register:
                self._band.setdefault(s, ([], []))
                self._band[s][0].append(low)
                self._band[s][1].append(name)
        elif shape == "salary_gt":
            (cut,) = consts
            cond = f"{s}.salary > {cut!r}"
            test = lambda row: row["salary"] > cut
            if register:
                self._gt.setdefault(s, ([], []))
                self._gt[s][0].append(cut)
                self._gt[s][1].append(name)
        else:
            raise ValueError(shape)
        text = (
            f"create trigger {name} from {s}{on} when {cond} "
            f"do raise event {EVENT}({s}.seq)"
        )
        return Trigger(
            name, s, shape, text,
            lambda op, row: _event_ok(shape, op) and test(row),
        )

    def _freeze_ranges(self) -> None:
        for table in (self._gt, self._band):
            for source, (keys, names) in table.items():
                order = sorted(range(len(keys)), key=keys.__getitem__)
                table[source] = (
                    [keys[i] for i in order], [names[i] for i in order]
                )

    # -- the oracle ---------------------------------------------------------

    def expected(self, source: str, op: str, row: dict) -> List[str]:
        """Names of the static triggers this token fires (dict/bisect)."""
        fired = list(self._by_name[source].get(row["name"], ()))
        for threshold, name in self._by_eno[source].get(row["eno"], ()):
            if threshold is None or row["age"] > threshold:
                fired.append(name)
        if op == "insert":
            fired.extend(self._by_age[source].get(row["age"], ()))
            fired.extend(self._by_dept[source].get(row["dept"], ()))
        elif op == "update":
            salary = row["salary"]
            if source in self._gt:
                cuts, names = self._gt[source]
                fired.extend(names[: bisect.bisect_left(cuts, salary)])
            if source in self._band:
                lows, names = self._band[source]
                start = bisect.bisect_right(lows, salary - 2 * self.band_width)
                stop = bisect.bisect_left(lows, salary)
                fired.extend(names[start:stop])
        return fired

    # -- token rows ------------------------------------------------------------

    def zipf_ranks(self, n: int, population: int, s: float = 1.1) -> List[int]:
        weights = itertools.accumulate(
            1.0 / (r + 1) ** s for r in range(population)
        )
        return self.rng.choices(range(population), cum_weights=list(weights), k=n)

    def uniform_ranks(self, n: int, population: int) -> List[int]:
        rng = self.rng
        return [rng.randrange(population) for _ in range(n)]

    def row(self, rank: int, seq: int) -> dict:
        rng = self.rng
        user = self.by_rank[rank]
        return {
            "eno": user,
            "name": user_name(user),
            "salary": float(rng.randrange(SALARY_LO, SALARY_HI)),
            "dept": dept_name(rng.randrange(self.dept_values)),
            "age": AGE_LO + rng.randrange(self.age_values),
            "seq": seq,
        }

    def tokens(
        self, ranks: Sequence[int], first_seq: int, update_share: bool
    ) -> List[Token]:
        """One token per rank; with ``update_share`` 3 in every 20 tokens are
        ``update(salary)`` (15 %), the rest inserts."""
        out = []
        rng = self.rng
        for i, rank in enumerate(ranks):
            seq = first_seq + i
            source = self.source_of_rank(rank)
            new = self.row(rank, seq)
            if update_share and i % 20 in (3, 9, 16):
                old = dict(new)
                old["salary"] = new["salary"] + float(rng.randrange(1, 5000))
                op = "update"
            else:
                old = None
                op = "insert"
            out.append(
                Token(seq, source, op, new, old,
                      tuple(self.expected(source, op, new)))
            )
        return out

    # -- churn support -----------------------------------------------------

    def churn_trigger(self, index: int, target_rank: int) -> Trigger:
        """A fresh trigger outside the static oracle (the caller tracks it
        while it lives).  Shapes cycle through the population's mix; keyed
        shapes aim at ``target_rank`` so the cycle's tokens can hit them."""
        pattern = (
            "name_eq", "eno_age", "name_eq", "salary_gt", "name_eq",
            "age_between", "name_or_eno", "eno_age", "name_eq",
            "dept_in" if (index // 10) % 2 == 0 else "salary_band",
        )
        shape = pattern[index % len(pattern)]
        if shape not in self.mix:
            shape = "name_eq"
        rng = self.rng
        source = self.source_of_rank(target_rank)
        if shape in KEYED_SHAPES:
            spec = self._keyed_spec(shape, target_rank)
        elif shape == "age_between":
            low = AGE_LO + rng.randrange(self.age_values)
            spec = (shape, source, (low, low + 1))
        elif shape == "dept_in":
            spec = (shape, source, tuple(
                rng.randrange(self.dept_values) for _ in range(3)
            ))
        elif shape == "salary_band":
            low = float(rng.randrange(SALARY_LO, SALARY_HI - 2 * self.band_width))
            spec = (shape, source, (low, low + 2 * self.band_width))
        else:
            spec = (shape, source, (float(SALARY_HI - rng.randrange(1, 2000)),))
        return self._make(*spec, register=False)


# -- the real-estate join workload ------------------------------------------

HOUSE_COLUMNS = [
    ("hno", "integer"),
    ("address", "varchar(40)"),
    ("price", "float"),
    ("nno", "integer"),
    ("spno", "integer"),
    ("seq", "integer"),
]
SALESPERSON_COLUMNS = [
    ("spno", "integer"), ("name", "varchar(40)"), ("phone", "varchar(20)"),
]
REPRESENTS_COLUMNS = [("spno", "integer"), ("nno", "integer")]
NEIGHBORHOOD_COLUMNS = [
    ("nno", "integer"), ("name", "varchar(40)"), ("tier", "integer"),
]
PRICE_LO, PRICE_HI = 100_000, 900_000
TIERS = 4


class RealEstate:
    """§2's real-estate schema with join triggers and a brute-force oracle."""

    def __init__(
        self,
        rng: random.Random,
        houses: int,
        salespeople: int = 50,
        neighborhoods: int = 20,
        three_way: int = 10,
        two_way: int = 10,
    ):
        self.rng = rng
        self.neighborhoods = [
            {"nno": n, "name": f"nb{n}", "tier": n % TIERS}
            for n in range(neighborhoods)
        ]
        self.salespeople = [
            {"spno": s, "name": f"sp{s}", "phone": f"555-{s:04d}"}
            for s in range(salespeople)
        ]
        self.represents = [
            {"spno": s, "nno": n}
            for s in range(salespeople)
            for n in rng.sample(range(neighborhoods), 3)
        ]
        self._next_hno = 0
        self.initial_houses = [self._house(-1) for _ in range(houses)]
        watched = rng.sample(range(salespeople), three_way)
        self.triggers: List[Trigger] = []
        for i, spno in enumerate(watched):
            self.triggers.append(self.join_trigger(f"j{i}", f"sp{spno}"))
        for i in range(two_way):
            tier = i % TIERS
            cut = float(
                PRICE_LO + (i + 1) * (PRICE_HI - PRICE_LO) // (two_way + 1)
            )
            text = (
                f"create trigger k{i} on insert to house "
                f"from house h, neighborhood n "
                f"when h.nno = n.nno and n.tier = {tier} and h.price > {cut!r} "
                f"do raise event {EVENT}(h.seq)"
            )
            self.triggers.append(Trigger(
                f"k{i}", "house", "join2", text,
                lambda op, row, tier=tier, cut=cut: (
                    op == "insert"
                    and row["price"] > cut
                    and any(
                        n["nno"] == row["nno"] and n["tier"] == tier
                        for n in self.neighborhoods
                    )
                ),
            ))

    def join_trigger(self, name: str, sp_name: str) -> Trigger:
        """A three-way salesperson ⋈ represents ⋈ house trigger."""
        text = (
            f"create trigger {name} on insert to house "
            f"from salesperson s, house h, represents r "
            f"when s.name = '{sp_name}' and s.spno = r.spno and r.nno = h.nno "
            f"do raise event {EVENT}(h.seq)"
        )

        def matches(op: str, row: dict) -> bool:
            if op != "insert":
                return False
            # brute-force nested loops, as the paper's re-query baseline
            for person in self.salespeople:
                if person["name"] != sp_name:
                    continue
                for link in self.represents:
                    if link["spno"] == person["spno"] and link["nno"] == row["nno"]:
                        return True
            return False

        return Trigger(name, "house", "join3", text, matches)

    def _house(self, seq: int) -> dict:
        rng = self.rng
        hno = self._next_hno
        self._next_hno += 1
        return {
            "hno": hno,
            "address": f"{hno} Paper Ave",
            "price": float(rng.randrange(PRICE_LO, PRICE_HI)),
            "nno": rng.randrange(len(self.neighborhoods)),
            "spno": rng.randrange(len(self.salespeople)),
            "seq": seq,
        }

    def tokens(self, n: int, first_seq: int) -> List[Token]:
        """7 inserts and 3 deletes in every 10 tokens; a delete removes a
        house inserted earlier by this stream."""
        rng = self.rng
        live: List[dict] = []
        out = []
        for i in range(n):
            seq = first_seq + i
            if i % 10 in (3, 6, 9) and live:
                old = live.pop(rng.randrange(len(live)))
                out.append(Token(seq, "house", "delete", None, old, ()))
                continue
            new = self._house(seq)
            live.append(new)
            fired = tuple(
                t.name for t in self.triggers if t.matches("insert", new)
            )
            out.append(Token(seq, "house", "insert", new, None, fired))
        return out
