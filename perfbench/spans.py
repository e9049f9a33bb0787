"""The traced run: spans recorded around the program's public callables.

Nothing is added inside ``repro``.  :func:`install` replaces each layer's
public callable *on the name its caller looks up* (``repro.session``
imports ``explain_non_inference`` and ``parse_formula`` by name, so the
wrapper goes on ``repro.session.<name>``, not on the defining module)
with a wrapper that records one span: ``(name, start, end, parent, op)``.
Spans nest through a context variable, so coroutines on one event loop
and the service's worker threads (which run in a copied context) keep
their own parents.  Spans are kept in memory, unbounded, and written as
JSON lines when the run ends.

A layer's self time is its spans' durations minus the part of each span
covered by its child spans; what no span covers is the unattributed
remainder of the ops' wall time.
"""

from __future__ import annotations

import functools
import json
import time
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

#: Every span name the wrappers record.
SPAN_NAMES = (
    "sat.solve", "sat.minimal", "sat.pool_acquire", "semantics.explain",
    "engine.lookup", "engine.build", "analysis.plan", "kernel.pack",
    "obs.certify", "session", "logic.parse", "serve.read", "serve.write",
    "serve.submit", "serve.register",
)

_CURRENT: ContextVar[Optional[list]] = ContextVar("perfbench_span",
                                                  default=None)
#: The op id spans are charged to (set by the benchmark's op loop, or by
#: the daemon launcher from the request payload).
OP: ContextVar[int] = ContextVar("perfbench_op", default=-1)

# Span record layout (a list, so it can be finished in place).
NAME, START, END, PARENT, OP_ID = range(5)


class Recorder:
    """In-memory span store plus the counters read at the same sites."""

    def __init__(self):
        self.spans: List[list] = []
        #: ``id(QueryItem)`` -> its ``serve.submit`` span, while in flight.
        self._submit_of: Dict[int, list] = {}
        self.counters: Dict[str, int] = {
            "sat.propagations": 0,
            "sat.conflicts": 0,
            "sat.decisions": 0,
        }

    # -- wrappers ------------------------------------------------------
    def wrap(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, _CURRENT.get(),
                      OP.get()]
            spans.append(record)
            token = _CURRENT.set(record)
            try:
                return fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                record[END] = time.perf_counter()

        return wrapper

    def wrap_async(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, _CURRENT.get(),
                      OP.get()]
            spans.append(record)
            token = _CURRENT.set(record)
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                record[END] = time.perf_counter()

        return wrapper

    def wrap_solve(self, fn):
        """``CdclSolver.solve`` plus its search counters (per call)."""
        timed = self.wrap("sat.solve", fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(solver, *args, **kwargs):
            stats = solver.stats
            before = (stats.propagations, stats.conflicts, stats.decisions)
            try:
                return timed(solver, *args, **kwargs)
            finally:
                counters["sat.propagations"] += stats.propagations - before[0]
                counters["sat.conflicts"] += stats.conflicts - before[1]
                counters["sat.decisions"] += stats.decisions - before[2]

        return wrapper

    def wrap_read_request(self, fn):
        """``read_request`` timed from the arrival of the request head:
        on a keep-alive connection the call first waits for the client's
        next request, which is idle time, not framing."""
        spans = self.spans

        @functools.wraps(fn)
        async def wrapper(reader, *args, **kwargs):
            timed = _HeadTimedReader(reader)
            # The op id is in the payload, not known before the read.
            record = ["serve.read", 0.0, 0.0, _CURRENT.get(), -1]
            token = _CURRENT.set(record)
            try:
                return await fn(timed, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
                if timed.head_at is not None:
                    record[START] = timed.head_at
                    record[END] = time.perf_counter()
                    spans.append(record)

        return wrapper

    def wrap_submit(self, fn):
        """``QueryService.submit``, remembering each item's span so that
        :meth:`wrap_run_one` can parent the item's evaluation to it."""
        spans, items = self.spans, self._submit_of

        @functools.wraps(fn)
        async def wrapper(service, item, *args, **kwargs):
            record = ["serve.submit", time.perf_counter(), 0.0,
                      _CURRENT.get(), OP.get()]
            spans.append(record)
            items[id(item)] = record
            token = _CURRENT.set(record)
            try:
                return await fn(service, item, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
                del items[id(item)]
                record[END] = time.perf_counter()

        return wrapper

    def wrap_run_one(self, fn):
        """``QueryService._run_one`` under its own item's submit span and
        op id.  The service evaluates a batch in a context copied from the
        request that opened the batch; without this, every item of a
        coalesced batch would be charged to that first request."""
        items = self._submit_of

        @functools.wraps(fn)
        def wrapper(service, session, item, *args, **kwargs):
            record = items.get(id(item))
            if record is None:
                return fn(service, session, item, *args, **kwargs)
            span_token = _CURRENT.set(record)
            op_token = OP.set(record[OP_ID])
            try:
                return fn(service, session, item, *args, **kwargs)
            finally:
                OP.reset(op_token)
                _CURRENT.reset(span_token)

        return wrapper

    def wrap_cache_lookup(self, fn):
        """``EngineCache.get_or_compute`` with its compute callable as a
        child span, so the lookup's self time excludes the computation."""
        timed = self.wrap("engine.lookup", fn)
        wrap = self.wrap

        @functools.wraps(fn)
        def wrapper(cache, kind, key, compute):
            return timed(cache, kind, key, wrap("engine.build", compute))

        return wrapper

    # -- analysis ------------------------------------------------------
    def summarize(self, wall_s: float) -> Dict[str, Any]:
        """Per-layer totals: ``self_s``, ``total_s`` and ``calls`` per span
        name, plus the share of ``wall_s`` no span covers."""
        children: Dict[int, List[list]] = {}
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None:
                children.setdefault(id(parent), []).append(record)
        layers: Dict[str, Dict[str, float]] = {
            name: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            for name in SPAN_NAMES
        }
        for record in self.spans:
            start, end = record[START], record[END]
            if end < start:  # still open, e.g. a read cut by shutdown
                continue
            covered = _union(
                (max(c[START], start), min(c[END], end))
                for c in children.get(id(record), ())
            )
            entry = layers[record[NAME]]
            entry["self_s"] += (end - start) - covered
            entry["total_s"] += end - start
            entry["calls"] += 1
        attributed = sum(entry["self_s"] for entry in layers.values())
        return {
            "layers": layers,
            "spans": len(self.spans),
            "attributed_s": attributed,
            "unattributed_share": (wall_s - attributed) / wall_s
            if wall_s > 0 else 0.0,
            "counters": dict(self.counters),
        }

    def write_jsonl(self, path: str) -> None:
        """One line per span: name, start, end (seconds, perf_counter),
        parent index and op id."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                parent = record[PARENT]
                out.write(json.dumps([
                    record[NAME], round(record[START], 7),
                    round(record[END], 7),
                    index.get(id(parent)) if parent is not None else None,
                    record[OP_ID],
                ]) + "\n")


class _HeadTimedReader:
    """A stream reader that notes when ``readuntil`` (the request head)
    returned; everything else goes to the wrapped reader."""

    def __init__(self, reader):
        self._reader = reader
        self.head_at: Optional[float] = None

    async def readuntil(self, *args, **kwargs):
        head = await self._reader.readuntil(*args, **kwargs)
        self.head_at = time.perf_counter()
        return head

    def __getattr__(self, name):
        return getattr(self._reader, name)


def _union(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def install(recorder: Recorder) -> None:
    """Wrap every layer's public callables (process-wide, for the rest of
    the process's life: the traced run is a process of its own)."""
    import repro
    import repro.kernel
    import repro.kernel.bitset
    import repro.models.enumeration
    import repro.serve.server
    import repro.serve.service
    import repro.session
    from repro.analysis.planner import FragmentPlanner
    from repro.engine.cache import EngineCache
    from repro.obs.certify import Certifier
    from repro.sat import minimal
    from repro.sat.cdcl import CdclSolver
    from repro.sat.incremental import SolverPool
    from repro.serve.service import QueryService
    from repro.session import DatabaseSession

    wrap = recorder.wrap
    CdclSolver.solve = recorder.wrap_solve(CdclSolver.solve)
    for cls in (minimal.MinimalModelSolver, minimal.PZMinimalModelSolver,
                minimal.PrioritizedMinimalModelSolver):
        cls.find_minimal_satisfying = wrap(
            "sat.minimal", cls.find_minimal_satisfying)
    SolverPool.acquire = wrap("sat.pool_acquire", SolverPool.acquire)
    repro.session.explain_non_inference = wrap(
        "semantics.explain", repro.session.explain_non_inference)
    EngineCache.get_or_compute = recorder.wrap_cache_lookup(
        EngineCache.get_or_compute)
    FragmentPlanner.plan = wrap("analysis.plan", FragmentPlanner.plan)
    for module in (repro.kernel, repro.kernel.bitset,
                   repro.models.enumeration):
        module.packed_database_for = wrap(
            "kernel.pack", module.packed_database_for)
    Certifier.check = wrap("obs.certify", Certifier.check)
    for method in ("ask", "ask_literal", "has_model"):
        setattr(DatabaseSession, method,
                wrap("session", getattr(DatabaseSession, method)))
    repro.parse_database = wrap("logic.parse", repro.parse_database)
    repro.session.parse_formula = wrap(
        "logic.parse", repro.session.parse_formula)
    repro.serve.service.parse_database = wrap(
        "logic.parse", repro.serve.service.parse_database)
    repro.serve.server.read_request = recorder.wrap_read_request(
        repro.serve.server.read_request)
    repro.serve.server.write_response = recorder.wrap_async(
        "serve.write", repro.serve.server.write_response)
    QueryService.submit = recorder.wrap_submit(QueryService.submit)
    QueryService._run_one = recorder.wrap_run_one(QueryService._run_one)
    QueryService.register_database = wrap(
        "serve.register", QueryService.register_database)
