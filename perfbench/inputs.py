"""Seeded inputs for the benchmark workloads.

Everything here is owned by the benchmark and imports nothing from
``repro``: the program under test only ever sees the database *texts*
and query strings produced below, so a change to the program's own
generators (``repro.workloads``) cannot change what is measured.

The same ``(workload, seed, op count)`` always yields the same op list,
independent of ``PYTHONHASHSEED`` (only ``random.Random`` and sorted
containers are used).
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Sequence, Tuple

#: Semantics whose ground truth (the brute engine) is cheap on the
#: database sizes below, per syntactic regime, restricted to the cells
#: where the semantics is defined: DDR rejects negation, PERF rejects
#: integrity clauses, ICWA needs a stratification.  PWS and PDSM are left
#: out because their brute enumerators (split programs, 3^|V| partial
#: interpretations) take seconds per database at 8 atoms.
SEMANTICS_FOR: Dict[str, Tuple[str, ...]] = {
    "positive": (
        "gcwa", "ccwa", "egcwa", "ecwa", "circ", "ddr", "perf", "icwa",
        "dsm",
    ),
    "deductive": (
        "gcwa", "ccwa", "egcwa", "ecwa", "circ", "ddr", "icwa", "dsm",
    ),
    "stratified": (
        "gcwa", "ccwa", "egcwa", "ecwa", "circ", "perf", "icwa", "dsm",
    ),
    "normal": ("gcwa", "ccwa", "egcwa", "ecwa", "circ", "dsm"),
}

REGIMES = tuple(SEMANTICS_FOR)

#: One operation: ``(kind, db index, semantics, query text)``.  Kinds:
#: ``write`` (register a database), ``lit`` (literal inference), ``fml``
#: (formula inference) and ``has`` (model existence).
Op = Tuple[str, int, str, str]


class Database:
    """A generated database: its text, atoms and syntactic regime."""

    __slots__ = ("text", "atoms", "regime", "family")

    def __init__(self, text: str, atoms: Sequence[str], regime: str,
                 family: str = "random"):
        self.text = text
        self.atoms = tuple(sorted(atoms))
        self.regime = regime
        self.family = family


# ----------------------------------------------------------------------
# Database texts
# ----------------------------------------------------------------------
def _rule(head: Sequence[str], pos: Sequence[str] = (), neg=()) -> str:
    body = list(pos) + [f"not {a}" for a in neg]
    text = " | ".join(head)
    if body:
        text += " :- " + ", ".join(body)
    return text + "."


def random_database(rng: random.Random, regime: str, atoms: int,
                    clauses: int) -> Database:
    """A random database of one of the paper's four regimes: positive,
    deductive with integrity clauses, stratified, normal."""
    names = [f"v{i}" for i in range(1, atoms + 1)]
    lines: List[str] = []
    used = set()
    layer = {a: rng.randrange(3) for a in names}
    for _ in range(clauses):
        head: List[str] = []
        pos: List[str] = []
        neg: List[str] = []
        if regime == "positive":
            head = rng.sample(names, rng.randint(1, 3))
            if rng.random() >= 0.3:
                pos = [a for a in rng.sample(names, rng.randint(0, 2))
                       if a not in head]
        elif regime == "deductive":
            if rng.random() < 0.25:
                pos = rng.sample(names, rng.randint(1, 3))
            else:
                head = rng.sample(names, rng.randint(1, 3))
                pos = [a for a in rng.sample(names, rng.randint(0, 2))
                       if a not in head]
        elif regime == "stratified":
            level = rng.randrange(3)
            pool = [a for a in names if layer[a] == level]
            if not pool:
                continue
            head = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            same = [a for a in names if layer[a] <= level and a not in head]
            lower = [a for a in names if layer[a] < level]
            for _ in range(rng.randint(0, 2)):
                if lower and rng.random() < 0.4:
                    neg.append(rng.choice(lower))
                elif same:
                    pos.append(rng.choice(same))
        elif regime == "normal":
            integrity = rng.random() < 0.15
            if not integrity:
                head = rng.sample(names, rng.randint(1, 2))
            for _ in range(rng.randint(1 if integrity else 0, 2)):
                atom = rng.choice(names)
                if atom in head:
                    continue
                (neg if rng.random() < 0.4 else pos).append(atom)
            if integrity and not pos and not neg:
                pos.append(rng.choice(names))
        else:
            raise ValueError(f"unknown regime {regime!r}")
        pos = sorted(set(pos))
        neg = sorted(set(neg))
        used.update(head, pos, neg)
        if head:
            lines.append(_rule(head, pos, neg))
        else:
            lines.append(":- " + ", ".join(
                pos + [f"not {a}" for a in neg]) + ".")
    if not lines:
        lines.append("v1.")
        used.add("v1")
    return Database("\n".join(lines) + "\n", used, regime)


def chain(n: int) -> Database:
    """Horn: ``a1. a(i) :- a(i-1).`` (the planner's least-model path)."""
    lines = ["a1."] + [f"a{i} :- a{i - 1}." for i in range(2, n + 1)]
    return Database("\n".join(lines) + "\n",
                    [f"a{i}" for i in range(1, n + 1)], "positive",
                    "chain")


def disjunctive_chain(n: int) -> Database:
    """Head-cycle-free: ``a1 | b1. a(i) | b(i) :- a(i-1). ...``."""
    lines = ["a1 | b1."]
    for i in range(2, n + 1):
        lines.append(f"a{i} | b{i} :- a{i - 1}.")
        lines.append(f"a{i} | b{i} :- b{i - 1}.")
    atoms = [f"{p}{i}" for i in range(1, n + 1) for p in "ab"]
    return Database("\n".join(lines) + "\n", atoms, "positive",
                    "disjunctive_chain")


def stratified_tower(levels: int, width: int) -> Database:
    """``levels`` strata of ``width`` choices, each conditioned on the
    negation of the previous level's first atom."""
    lines = []
    atoms = []
    for level in range(1, levels + 1):
        heads = [f"l{level}_{j}" for j in range(1, width + 1)]
        atoms += heads
        if level == 1:
            lines.append(_rule(heads))
        else:
            lines.append(_rule(heads, (), [f"l{level - 1}_1"]))
    return Database("\n".join(lines) + "\n", atoms, "stratified",
                    "stratified_tower")


def exclusive_pairs(n: int) -> Database:
    """``x(i) | y(i).`` — small enough for the bitset kernel."""
    lines = [f"x{i} | y{i}." for i in range(1, n + 1)]
    atoms = [f"{p}{i}" for i in range(1, n + 1) for p in "xy"]
    return Database("\n".join(lines) + "\n", atoms, "positive",
                    "exclusive_pairs")


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def literal(rng: random.Random, atoms: Sequence[str]) -> str:
    atom = rng.choice(atoms)
    return atom if rng.random() < 0.5 else f"~{atom}"


def formula(rng: random.Random, atoms: Sequence[str], depth: int = 2) -> str:
    """A random formula over ``atoms`` (``~``, ``&``, ``|``)."""
    if depth == 0 or rng.random() < 0.3:
        return literal(rng, atoms)
    op = rng.choice(("&", "|", "|"))
    return (f"({formula(rng, atoms, depth - 1)} {op} "
            f"{formula(rng, atoms, depth - 1)})")


def query_tasks(rng: random.Random, db: Database, sems: Sequence[str],
                per_semantics: Sequence[str]) -> List[Tuple[str, str, str]]:
    """``(kind, semantics, query)`` for every semantics in ``sems`` and
    every kind in ``per_semantics``."""
    tasks = []
    for sem in sems:
        for kind in per_semantics:
            if kind == "lit":
                tasks.append(("lit", sem, literal(rng, db.atoms)))
            elif kind == "fml":
                tasks.append(("fml", sem, formula(rng, db.atoms)))
            else:
                tasks.append(("has", sem, ""))
    return tasks


class Zipf:
    """Seeded Zipf(s) sampler over ranks ``0 .. n-1``."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        acc = 0.0
        self.cdf = []
        for weight in weights:
            acc += weight / total
            self.cdf.append(acc)

    def sample(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self.cdf, rng.random()),
                   len(self.cdf) - 1)


# ----------------------------------------------------------------------
# Workload op lists
# ----------------------------------------------------------------------
def rotation(regime: str, turn: int, count: int) -> Tuple[str, ...]:
    """``count`` semantics of ``regime``, taken cyclically from the
    ``turn * count``-th: every semantics gets the same share of the
    databases, so the (very unequal) per-semantics costs do not make one
    seed's mix heavier than another's."""
    names = SEMANTICS_FOR[regime]
    return tuple(names[(turn * count + k) % len(names)]
                 for k in range(count))


#: Per (database, semantics): two literals, one formula, one model
#: existence check.
COLD_TASKS = ("lit", "lit", "fml", "has")
COLD_SEMANTICS_PER_DB = 5


def cold_oracle(seed: int, ops: int) -> Tuple[List[Database], List[Op]]:
    """Several hundred random 7-atom databases, each registered once and
    then asked about 20 queries (5 semantics x COLD_TASKS), never
    revisited; whole databases are added until the list holds at least
    ``ops``."""
    rng = random.Random(f"cold-oracle:{seed}")
    dbs: List[Database] = []
    op_list: List[Op] = []
    while len(op_list) < ops:
        index = len(dbs)
        regime = REGIMES[index % len(REGIMES)]
        db = random_database(rng, regime, 7, 9)
        dbs.append(db)
        sems = rotation(regime, index // len(REGIMES),
                        COLD_SEMANTICS_PER_DB)
        op_list.append(("write", index, "", ""))
        tasks = query_tasks(rng, db, sems, COLD_TASKS)
        rng.shuffle(tasks)
        op_list += [(kind, index, sem, q) for kind, sem, q in tasks]
    return dbs, op_list


def _warm_databases(rng: random.Random) -> List[Database]:
    """The warm working set: structured planner families (at most 10
    atoms, so the brute ground truth stays cheap) plus random databases
    of every regime (76 databases)."""
    dbs = [chain(n) for n in (6, 8, 10)]
    dbs += [disjunctive_chain(n) for n in (3, 4, 5)]
    dbs += [stratified_tower(levels, width)
            for levels, width in ((3, 2), (4, 2), (5, 2), (3, 3))]
    dbs += [exclusive_pairs(n) for n in (3, 4, 5)]
    for index in range(63):
        regime = REGIMES[index % len(REGIMES)]
        dbs.append(random_database(rng, regime, 7, 9))
    return dbs


#: Query catalog per warm database: 4 semantics x (2 literals, formula,
#: model existence).
WARM_TASKS = ("lit", "lit", "fml", "has")
WARM_SEMANTICS_PER_DB = 4
#: Zipf exponent over the query catalog.
WARM_ZIPF_S = 1.1


def stratified_ranks(rng: random.Random, catalog: List[Op],
                     dbs: List[Database]) -> List[Op]:
    """The catalog in Zipf rank order: shuffled (seeded) within each
    stratum of (op kind, database family, regime), then the strata
    interleaved in proportion to their sizes.  Which query is hot varies
    with the seed; what kind of query sits at each rank does not, so the
    seed does not decide whether the hottest ranks are cheap fast paths
    or expensive fallbacks."""
    strata: Dict[Tuple[str, str, str], List[Op]] = {}
    for op in catalog:
        db = dbs[op[1]]
        strata.setdefault((op[0], db.family, db.regime), []).append(op)
    keyed = []
    for order, key in enumerate(sorted(strata)):
        members = strata[key]
        rng.shuffle(members)
        keyed += [((j + 0.5) / len(members), order, op)
                  for j, op in enumerate(members)]
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


def warm_planned(seed: int, ops: int) -> Tuple[List[Database], List[Op],
                                               int]:
    """Zipf-skewed reads over a working set that fits every cache (the
    ops make no writes).

    The working set and its query catalog are the same for every seed
    (an application's fixed data); the seed ranks the catalog and draws
    the op stream.  Returns the databases, the op list, and how many of
    the databases are registered during set-up (all of them)."""
    fixed = random.Random("warm-planned:working-set")
    dbs = _warm_databases(fixed)
    catalog: List[Op] = []
    for index, db in enumerate(dbs):
        sems = rotation(db.regime, index, WARM_SEMANTICS_PER_DB)
        catalog += [(kind, index, sem, q)
                    for kind, sem, q in query_tasks(fixed, db, sems,
                                                    WARM_TASKS)]
    rng = random.Random(f"warm-planned:{seed}")
    catalog = stratified_ranks(rng, catalog, dbs)
    zipf = Zipf(len(catalog), WARM_ZIPF_S)
    op_list = [catalog[zipf.sample(rng)] for _ in range(ops)]
    return dbs, op_list, len(dbs)


#: serve-mixed: databases registered during set-up, every how many ops
#: one is a write, and how many ops a fresh database waits before reads
#: may reference it.
SERVE_INITIAL_DBS = 40
SERVE_WRITE_EVERY = 10
SERVE_READ_LAG = 8
SERVE_TASKS = ("lit", "lit", "fml", "has")


def serve_mixed(seed: int, ops: int) -> Tuple[List[Database], List[Op],
                                              int]:
    """Reads over a growing set of registered databases; every
    ``SERVE_WRITE_EVERY``-th op registers the next database.

    The databases and their query catalogs are the same for every seed
    (database ``i`` comes from its own generator); the seed picks which
    database and which catalog query each read asks.  A read only
    references databases registered at least ``SERVE_READ_LAG`` ops
    earlier in the list (the client additionally waits for the
    registration's acknowledgement before sending)."""
    rng = random.Random(f"serve-mixed:{seed}")
    dbs: List[Database] = []
    catalogs: List[List[Tuple[str, str, str]]] = []

    def new_db() -> int:
        index = len(dbs)
        own = random.Random(f"serve-mixed:db:{index}")
        regime = REGIMES[index % len(REGIMES)]
        db = random_database(own, regime, 7, 9)
        sems = rotation(regime, index // len(REGIMES), 3)
        dbs.append(db)
        catalogs.append(query_tasks(own, db, sems, SERVE_TASKS))
        return index

    for _ in range(SERVE_INITIAL_DBS):
        new_db()
    op_list: List[Op] = []
    registered_at: List[int] = [-SERVE_READ_LAG] * SERVE_INITIAL_DBS
    for position in range(ops):
        if position % SERVE_WRITE_EVERY == SERVE_WRITE_EVERY - 1:
            index = new_db()
            registered_at.append(position)
            op_list.append(("write", index, "", ""))
            continue
        eligible = bisect.bisect_right(
            registered_at, position - SERVE_READ_LAG)
        index = rng.randrange(eligible)
        kind, sem, q = rng.choice(catalogs[index])
        op_list.append((kind, index, sem, q))
    return dbs, op_list, SERVE_INITIAL_DBS
