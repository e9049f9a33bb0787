"""Per-query accounting from context-local observation windows.

Every :class:`~repro.session.Answer` carries the oracle work of its own
query (``observation``) and the CDCL search it did (``solver_stats``).
Both come from the query's :func:`~repro.obs.accounting.observe`
window, which is ticked only by the context that opened it and records
every solver that context touches.  These tests pin the properties that
follow:

* ``solver_stats["solve_calls"]`` equals ``observation.np_calls`` on
  every CDCL-backed engine — also when pooled solvers are evicted and
  garbage-collected mid-query, and for throwaway (``engine="fresh"``)
  solvers the pool never sees;
* concurrent sessions on separate threads never count each other's
  calls: the per-answer counts add up to the process-wide total;
* the per-query cost depends on the solvers the query touches, not on
  the number of solvers alive in the pool;
* a window is unwound on every exit path.
"""

from __future__ import annotations

import gc
import random
import sys
import threading

import pytest

from repro.engine.cache import clear_cache as clear_engine_cache
from repro.logic.parser import parse_database
from repro.obs import accounting
from repro.obs.accounting import NP_CALLS, observe
from repro.runtime.budget import Budget, BudgetExceeded, budget_scope
from repro.sat import solver as sat_solver
from repro.sat.incremental import (
    DEFAULT_POOL_MAXSIZE,
    SOLVER_POOL,
    acquire_solver,
    clear_solver_pool,
    configure_solver_pool,
    release_solver,
)
from repro.sat.solver import SatSolver
from repro.sat.types import SolverStats
from repro.session import DatabaseSession
from repro.workloads.random_db import (
    random_deductive_db,
    random_normal_db,
    random_positive_db,
)

SEMANTICS = ("egcwa", "gcwa", "ecwa", "ccwa", "circ")

EXAMPLE = parse_database("a | b. c :- a. d | e :- c.")


@pytest.fixture(autouse=True)
def clean_state():
    clear_solver_pool()
    clear_engine_cache()
    yield
    configure_solver_pool(DEFAULT_POOL_MAXSIZE)
    clear_solver_pool()
    clear_engine_cache()


def _random_databases(count, seed):
    rng = random.Random(seed)
    makers = (random_positive_db, random_deductive_db, random_normal_db)
    return [
        makers[index % len(makers)](
            num_atoms=rng.randint(3, 6),
            num_clauses=rng.randint(2, 7),
            seed=rng.randrange(1 << 30),
        )
        for index in range(count)
    ]


def _queries(db, rng):
    atoms = sorted(db.vocabulary)
    first, second = rng.choice(atoms), rng.choice(atoms)
    return [
        ("literal", f"~{first}"),
        ("literal", second),
        ("formula", f"~{first} | ~{second}"),
    ]


def _ask(session, kind, text, semantics):
    if kind == "literal":
        return session.ask_literal(text, semantics)
    return session.ask(text, semantics)


def _assert_exact(answer):
    np_calls = answer.observation.np_calls
    assert answer.sat_calls == np_calls
    assert answer.solver_stats["solve_calls"] == np_calls, (
        answer.semantics,
        answer.query,
        answer.solver_stats,
        answer.observation,
    )


# ----------------------------------------------------------------------
# solve_calls == np_calls
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["oracle", "fresh", "cached"])
def test_solve_calls_match_np_calls_under_pool_pressure(engine):
    """A pool of four solvers evicts (and the collector frees) pooled
    solvers in the middle of queries; their search still counts."""
    configure_solver_pool(4)
    rng = random.Random(13)
    asked = 0
    for db in _random_databases(24, seed=7):
        session = DatabaseSession(db, engine=engine, certificates=False)
        for semantics in SEMANTICS:
            for kind, text in _queries(db, rng):
                _assert_exact(_ask(session, kind, text, semantics))
                asked += 1
        gc.collect()
    assert asked == 24 * len(SEMANTICS) * 3
    if engine != "fresh":  # throwaway solvers never enter the pool
        assert SOLVER_POOL.stats()["solver_evictions"] > 0


def test_refuted_theory_still_counts_its_solve_calls():
    """An inconsistent database makes every solver refuted at clause
    addition; each later ``solve`` is still one NP call and one CDCL
    solve call."""
    db = parse_database("a. :- a.")
    answer = DatabaseSession(db, certificates=False).ask("a", "egcwa")
    assert answer.observation.np_calls > 0
    _assert_exact(answer)


def test_fresh_oracle_and_cached_report_the_same_search():
    """Throwaway solvers (``engine="fresh"``) are counted like pooled
    ones: the three engines report the same NP calls and solve calls."""
    solve_calls = {}
    for engine in ("fresh", "oracle", "cached"):
        clear_solver_pool()
        clear_engine_cache()
        answer = DatabaseSession(EXAMPLE, engine=engine).ask(
            "~a | ~b", "egcwa"
        )
        assert answer.verdict is True
        _assert_exact(answer)
        solve_calls[engine] = answer.solver_stats["solve_calls"]
    assert solve_calls["fresh"] > 0
    assert len(set(solve_calls.values())) == 1, solve_calls


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def _run_concurrently(threads, databases_for):
    """Run one session per thread over ``databases_for(index)`` with a
    short switch interval; return every answer and the global NP-call
    delta over the run."""
    barrier = threading.Barrier(threads)
    answers = [[] for _ in range(threads)]
    errors = []

    def work(index):
        try:
            rng = random.Random(index)
            barrier.wait()
            for db in databases_for(index):
                session = DatabaseSession(db, certificates=False)
                for semantics in SEMANTICS:
                    for kind, text in _queries(db, rng):
                        answers[index].append(
                            _ask(session, kind, text, semantics)
                        )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [
        threading.Thread(target=work, args=(index,))
        for index in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        before = NP_CALLS.value
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        delta = NP_CALLS.value - before
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors[0]
    return [answer for per_thread in answers for answer in per_thread], delta


def test_concurrent_sessions_count_only_their_own_calls():
    """Four threads, one session each: windows never see another
    thread's NP calls, so the answers add up to the global counter."""
    threads = 4
    databases = _random_databases(12 * threads, seed=21)
    answers, delta = _run_concurrently(
        threads, lambda index: databases[index::threads]
    )
    assert len(answers) == len(databases) * len(SEMANTICS) * 3
    assert sum(answer.observation.np_calls for answer in answers) == delta
    for answer in answers:
        _assert_exact(answer)


def test_pooled_solver_handed_between_threads_is_split_exactly():
    """Threads querying the *same* databases pass pooled solvers to each
    other: a solver's search after one context released it belongs to
    the next context that checks it out, never to both."""
    threads = 4
    databases = _random_databases(6, seed=5)
    answers, delta = _run_concurrently(
        threads,
        lambda index: databases[index:] + databases[:index],
    )
    assert len(answers) == threads * len(databases) * len(SEMANTICS) * 3
    assert sum(answer.observation.np_calls for answer in answers) == delta
    for answer in answers:
        _assert_exact(answer)
    assert SOLVER_POOL.stats()["solver_reuses"] > 0


# ----------------------------------------------------------------------
# Cost independent of the pool size
# ----------------------------------------------------------------------
def _park_solvers(count):
    before = len(SOLVER_POOL)
    for index in range(count):
        key, solver = acquire_solver(
            EXAMPLE, context=("parked", index)
        )
        release_solver(key, solver)
    assert len(SOLVER_POOL) == before + count


def _count_snapshots_and_touches(monkeypatch):
    snapshots = []
    touched = set()
    original_snapshot = SolverStats.snapshot
    original_note = sat_solver.note_solver

    def snapshot(self):
        snapshots.append(id(self))
        return original_snapshot(self)

    def note_solver(stats):
        touched.add(id(stats))
        original_note(stats)

    monkeypatch.setattr(SolverStats, "snapshot", snapshot)
    monkeypatch.setattr(sat_solver, "note_solver", note_solver)
    return snapshots, touched


def test_memo_hit_snapshots_no_solver_whatever_the_pool_holds(
    monkeypatch,
):
    configure_solver_pool(2 * DEFAULT_POOL_MAXSIZE)
    session = DatabaseSession(EXAMPLE, engine="cached")
    first = session.ask("~a | ~b", "egcwa")
    _park_solvers(DEFAULT_POOL_MAXSIZE)
    snapshots, touched = _count_snapshots_and_touches(monkeypatch)
    hit = session.ask("~a | ~b", "egcwa")
    assert hit.verdict == first.verdict
    assert hit.observation.np_calls == 0
    assert touched == set()
    assert snapshots == []
    assert hit.solver_stats == SolverStats().snapshot()


def test_warm_query_cost_does_not_grow_with_the_pool(monkeypatch):
    """The same warm query snapshots the same solvers, the same number
    of times, whether the pool parks nothing else or 128 solvers."""
    configure_solver_pool(2 * DEFAULT_POOL_MAXSIZE)
    counts = []
    for parked in (0, DEFAULT_POOL_MAXSIZE):
        clear_solver_pool()
        clear_engine_cache()
        session = DatabaseSession(EXAMPLE, certificates=False)
        session.ask("~a | ~b", "egcwa")
        _park_solvers(parked)
        snapshots, touched = _count_snapshots_and_touches(monkeypatch)
        answer = session.ask("~c", "gcwa")
        monkeypatch.undo()
        _assert_exact(answer)
        assert answer.observation.np_calls > 0
        assert set(snapshots) <= touched
        counts.append((len(snapshots), len(touched)))
    assert counts[0] == counts[1], counts
    assert counts[0][1] < 8


# ----------------------------------------------------------------------
# Window mechanics
# ----------------------------------------------------------------------
def test_solver_collected_inside_the_window_still_counts():
    with observe() as outer:
        solver = SatSolver()
        solver.add_database(EXAMPLE)
        with observe() as inner:
            assert solver.solve()
            assert solver.solve()
        del solver
        gc.collect()
    assert inner.np_calls == inner.solver_stats["solve_calls"] == 2
    # Built inside the outer window: counted from zero, construction
    # and clause addition included.
    assert outer.np_calls == outer.solver_stats["solve_calls"] == 2
    assert (
        outer.solver_stats["propagations"]
        >= inner.solver_stats["propagations"]
    )


def test_solver_from_before_the_window_counts_only_its_new_work():
    solver = SatSolver()
    solver.add_database(EXAMPLE)
    solver.solve()
    with observe() as window:
        solver.solve()
    assert window.solver_stats["solve_calls"] == 1
    assert solver.stats()["solve_calls"] == 2


def test_window_unwinds_on_error_and_on_budget_trip():
    session = DatabaseSession(EXAMPLE)
    with pytest.raises(ValueError):
        session.ask("~a", "egcwa", mode="sideways")
    assert accounting._ACTIVE.get() == ()
    with pytest.raises(BudgetExceeded):
        with budget_scope(Budget(max_sat_calls=1)):
            DatabaseSession(EXAMPLE, certificates=False).ask(
                "~a | ~b", "egcwa"
            )
    assert accounting._ACTIVE.get() == ()
    assert session.ask("~a | ~b", "egcwa").verdict is True
