"""Oracle accounting: who asked how many NP questions, and how deeply.

The paper's upper bounds are statements about *counted* oracle access:
a coNP decision procedure makes O(1) NP-oracle dispatches, a Π₂ᵖ
procedure may make polynomially many Σ₂ᵖ dispatches but never nests
them more than one level, Θ₃ᵖ procedures are Σ₂ᵖ-dispatch-bounded.
This module is the single place where those dispatches are ticked:

* :func:`note_np_call` — one NP-oracle invocation (a SAT ``solve``);
  called from :func:`repro.runtime.observe_sat_call`, i.e. it sees the
  exact same stream of events as the budget governor.
* :func:`sigma2_dispatch` / :func:`counts_as_sigma2_dispatch` — one
  Σ₂ᵖ-oracle invocation.  Only the *primitive realizations* are marked
  (the three ``find_minimal_satisfying`` methods and the union-query
  machine) — wrappers like :class:`repro.complexity.oracles.Sigma2Oracle`
  delegate 1:1 and must not be marked, or the bookkeeping would fake a
  nesting depth of two for a flat procedure.
* :func:`note_nodes` — brute-force search nodes, fed from
  :func:`repro.runtime.budget.note_nodes`.
* :func:`note_solver` / :func:`note_solver_released` — a CDCL solver
  touched by the calling context (fed from
  :class:`repro.sat.solver.SatSolver`) and handed back to the solver
  pool, so windows can report its search statistics.

Dispatch *depth* is tracked in a :class:`~contextvars.ContextVar`, so
re-entrant Σ₂ᵖ dispatches (which the certifier must flag for Π₂ᵖ
claims) are visible even across generator suspensions in the same
context.

:func:`observe` opens a *context-local* window.  Every tick above is
added to the process-wide counter (``/metrics``, :func:`totals`) and to
each window open in the calling context — the ``_ACTIVE`` stack — and
to no other.  An observation is therefore the window's own count, exact
under concurrency: a query on another thread ticks its own windows,
never this one.  Observations nest; each sees only its own window.

A window also records every CDCL solver the window touches
(:func:`note_solver`: construction, clause addition, ``solve``),
keeping the solver's search statistics at first touch — zeros for a
solver built inside the window — and summing the deltas when the window
closes — or when the context hands a pooled solver back, since another
context may check it out next.  Pooled or throwaway, a solver
contributes exactly the search it did for the window's context, and the
cost is O(solvers touched), not O(solvers alive).

:func:`record_plan_outcome` closes the planner's feedback loop: every
planned session query compares the cost model's prediction against the
observed window — per-procedure query counters and a predicted-vs-actual
NP-call ratio histogram whose bucket boundaries are exactly the
calibration band the test suite asserts (0.25x–4x).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Tuple

from repro.obs.metrics import METRICS

NP_CALLS = METRICS.counter(
    "repro_oracle_np_calls_total",
    "NP-oracle invocations (SAT solver solve() calls)",
)
SIGMA2_DISPATCHES = METRICS.counter(
    "repro_oracle_sigma2_dispatches_total",
    "Sigma2p-oracle invocations (minimal-model primitive dispatches)",
)
SEARCH_NODES = METRICS.counter(
    "repro_search_nodes_total",
    "Brute-force enumeration nodes visited",
)
MAX_DISPATCH_DEPTH = METRICS.gauge(
    "repro_oracle_max_sigma2_depth",
    "Deepest Sigma2p dispatch nesting observed process-wide",
)
PLANNER_QUERIES = METRICS.counter(
    "repro_planner_queries_total",
    "Session queries answered through the planned engine, by procedure",
    labelnames=("procedure",),
)
PLANNER_NP_RATIO = METRICS.histogram(
    "repro_planner_np_ratio",
    "Predicted-vs-actual NP-call ratio, (actual+1)/(predicted+1); the "
    "0.25/4.0 boundary buckets are the documented calibration band",
    buckets=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
)

#: Current Σ₂ᵖ dispatch nesting depth in this context (0 = outside any).
_DISPATCH_DEPTH: ContextVar[int] = ContextVar("repro_sigma2_depth", default=0)

#: Stack of live observation windows in this context.
_ACTIVE: ContextVar[Tuple["_Window", ...]] = ContextVar(
    "repro_obs_windows", default=()
)


@dataclass
class OracleObservation:
    """Oracle work observed inside one :func:`observe` window.

    ``solver_stats`` sums the CDCL search statistics (``decisions``,
    ``conflicts``, ``propagations``, ...) that the window's solvers spent
    inside it; it is empty when the window touched no solver.  It is
    diagnostic, not part of the certified observation: it is left out of
    :meth:`as_dict`, equality and ``repr``.
    """

    np_calls: int = 0
    sigma2_dispatches: int = 0
    nodes: int = 0
    max_sigma2_depth: int = 0
    solver_stats: Dict[str, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def as_dict(self) -> dict:
        return {
            "np_calls": self.np_calls,
            "sigma2_dispatches": self.sigma2_dispatches,
            "nodes": self.nodes,
            "max_sigma2_depth": self.max_sigma2_depth,
        }

    def render(self) -> str:
        """One-line human rendering (diagnosis reports, CLI summaries)."""
        return (
            f"np_calls={self.np_calls} "
            f"sigma2_dispatches={self.sigma2_dispatches} "
            f"nodes={self.nodes} "
            f"max_sigma2_depth={self.max_sigma2_depth}"
        )


class _Window:
    """The running counts of one open :func:`observe` window.

    Only the context that opened a window can reach it (through
    ``_ACTIVE``), so its fields are updated without a lock.
    """

    __slots__ = (
        "np_calls", "sigma2", "nodes", "max_depth", "solvers", "spent",
    )

    def __init__(self) -> None:
        self.np_calls = 0
        self.sigma2 = 0
        self.nodes = 0
        self.max_depth = 0
        #: ``id(stats) -> (stats, stats at first touch)``; holding the
        #: stats object keeps a solver's spend countable even when the
        #: solver itself is garbage-collected before the window closes.
        self.solvers: Dict[int, Tuple[Any, Dict[str, int]]] = {}
        #: Search statistics of solvers already handed back (see
        #: :func:`note_solver_released`).
        self.spent: Dict[str, int] = {}

    def settle(self, stats: Any, before: Dict[str, int]) -> None:
        """Add one solver's spend since ``before`` to :attr:`spent`."""
        for name, value in stats.snapshot().items():
            self.spent[name] = self.spent.get(name, 0) + value - before[name]

    def settle_all(self) -> Dict[str, int]:
        """Settle every solver still open; the window's total spend."""
        for stats, before in self.solvers.values():
            self.settle(stats, before)
        self.solvers.clear()
        return self.spent


def note_np_call() -> None:
    """Tick one NP-oracle invocation."""
    NP_CALLS.inc()
    for window in _ACTIVE.get():
        window.np_calls += 1


def note_nodes(count: int = 1) -> None:
    """Tick ``count`` brute-force search nodes."""
    SEARCH_NODES.inc(count)
    for window in _ACTIVE.get():
        window.nodes += count


def note_solver(stats: Any) -> None:
    """Record that the calling context touches a solver whose search
    statistics are ``stats`` (anything with a ``snapshot()`` dict, in
    practice a :class:`repro.sat.types.SolverStats`).

    Called by :class:`repro.sat.solver.SatSolver` at construction, on
    every clause addition and on every ``solve`` — before the statistics
    can move — so each open window sees the solver's statistics at its
    first touch.  Outside any window this is one context-variable read.
    """
    for window in _ACTIVE.get():
        if id(stats) not in window.solvers:
            window.solvers[id(stats)] = (stats, stats.snapshot())


def note_solver_released(stats: Any) -> None:
    """Close the calling context's accounting of a solver it hands back
    to a shared pool: its spend so far is settled into every open window,
    and whatever it does after another context checks it out is that
    context's, not this one's.  A later touch here starts afresh."""
    for window in _ACTIVE.get():
        entry = window.solvers.pop(id(stats), None)
        if entry is not None:
            window.settle(*entry)


def current_dispatch_depth() -> int:
    """The Σ₂ᵖ dispatch nesting depth of the calling context."""
    return _DISPATCH_DEPTH.get()


def _tick_sigma2(depth: int) -> None:
    SIGMA2_DISPATCHES.inc()
    if depth > MAX_DISPATCH_DEPTH.value:
        MAX_DISPATCH_DEPTH.set(depth)
    for window in _ACTIVE.get():
        window.sigma2 += 1
        if depth > window.max_depth:
            window.max_depth = depth


@contextmanager
def sigma2_dispatch() -> Iterator[None]:
    """One Σ₂ᵖ-oracle dispatch; nested dispatches raise the depth."""
    depth = _DISPATCH_DEPTH.get() + 1
    _tick_sigma2(depth)
    token = _DISPATCH_DEPTH.set(depth)
    try:
        yield
    finally:
        _DISPATCH_DEPTH.reset(token)


def note_sigma2_dispatch() -> None:
    """A degenerate (no inner work) Σ₂ᵖ dispatch, e.g. the machine's
    ``k* = 0`` branch that answers with a single plain SAT call."""
    _tick_sigma2(_DISPATCH_DEPTH.get() + 1)


def counts_as_sigma2_dispatch(fn):
    """Mark a method as a Σ₂ᵖ-oracle primitive realization."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with sigma2_dispatch():
            return fn(*args, **kwargs)

    wrapper._counts_as_sigma2_dispatch = True
    return wrapper


@contextmanager
def observe() -> Iterator[OracleObservation]:
    """Capture the oracle work of a code window.

    The yielded :class:`OracleObservation` is filled when the block
    exits (including on error — a budget trip mid-query still leaves a
    meaningful partial observation behind).  The window is closed in
    the context that opened it on every path, so an observation counts
    only the calling context's work.
    """
    observation = OracleObservation()
    window = _Window()
    token = _ACTIVE.set(_ACTIVE.get() + (window,))
    try:
        yield observation
    finally:
        _ACTIVE.reset(token)
        observation.np_calls = window.np_calls
        observation.sigma2_dispatches = window.sigma2
        observation.nodes = window.nodes
        observation.max_sigma2_depth = window.max_depth
        observation.solver_stats = window.settle_all()


def record_plan_outcome(plan, observation: OracleObservation) -> None:
    """Feed one planned query's predicted-vs-actual into the metrics.

    ``plan`` is a :class:`~repro.analysis.planner.QueryPlan` (duck-typed
    to keep this module free of analysis imports).  The ratio uses
    ``(actual + 1) / (predicted + 1)`` so zero-call fast paths land in
    the 1.0 bucket instead of dividing by zero.
    """
    PLANNER_QUERIES.labels(procedure=plan.procedure).inc()
    ratio = (observation.np_calls + 1.0) / (plan.predicted_np_calls + 1.0)
    PLANNER_NP_RATIO.observe(ratio)


def totals() -> OracleObservation:
    """Process-lifetime totals (monotone; never reset by queries)."""
    return OracleObservation(
        np_calls=NP_CALLS.value,
        sigma2_dispatches=SIGMA2_DISPATCHES.value,
        nodes=SEARCH_NODES.value,
        max_sigma2_depth=MAX_DISPATCH_DEPTH.value,
    )
