"""Instrumented oracles.

The paper's upper-bound proofs are algorithms for oracle Turing machines:
"polynomial time with an NP oracle", "O(log n) calls to a Σ₂ᵖ oracle",
"a guess verified in polynomial time with an NP oracle".  This module
makes those resources *observable*:

* :func:`count_sat_calls` — context manager counting every NP-oracle
  (SAT ``solve``) call the calling context makes, however deeply the
  solvers are nested;
* :class:`Sigma2Oracle` — a Σ₂ᵖ oracle whose queries are "is there a
  (P;Z)-minimal model of this database satisfying this condition?" (the
  primitive all of the paper's Σ₂ᵖ upper bounds factor through), with a
  per-instance query counter;
* :class:`OracleProfile` — the record the benchmark harness prints.

The point is not performance: it is that the *shape* of the oracle usage
(constant, linear, logarithmic in ``|V|``) matches the claimed class.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not
from ..logic.interpretation import Interpretation
from ..obs.accounting import observe
from ..runtime.budget import check_deadline
from ..sat.minimal import MinimalModelSolver, PZMinimalModelSolver


@dataclass
class SatCallCount:
    """Mutable result object of :func:`count_sat_calls`."""

    calls: int = 0


@contextmanager
def count_sat_calls() -> Iterator[SatCallCount]:
    """Count NP-oracle (SAT) calls made inside the ``with`` block by the
    calling context (an :func:`~repro.obs.accounting.observe` window, so
    other threads' calls never leak in)::

        with count_sat_calls() as counter:
            semantics.infers(db, formula)
        print(counter.calls)
    """
    record = SatCallCount()
    try:
        with observe() as window:
            yield record
    finally:
        record.calls = window.np_calls


class Sigma2Oracle:
    """A Σ₂ᵖ oracle for minimal-model queries, with query counting.

    Every query is of the form "∃ a ``(P;Z)``-minimal model ``M`` of
    ``db`` with ``M |= condition``?" — a guess (``M`` plus the condition's
    helper atoms) verifiable with one NP-oracle call, hence a Σ₂ᵖ
    predicate.  Each :meth:`query` increments :attr:`queries` by one,
    regardless of how many SAT calls the realization spends internally
    (an oracle answers in one step; the realization's internal NP calls
    are reported separately as ``inner_sat_calls``).
    """

    def __init__(self) -> None:
        self.queries = 0
        self.inner_sat_calls = 0

    def query(
        self,
        db: DisjunctiveDatabase,
        condition: Formula,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
    ) -> bool:
        """Answer "∃ M ∈ MM(db; P; Z): M |= condition".

        ``p`` defaults to the whole vocabulary (plain subset-minimality).
        """
        check_deadline()
        self.queries += 1
        with count_sat_calls() as counter:
            if p is None or frozenset(p) == frozenset(db.vocabulary):
                witness = MinimalModelSolver(db).find_minimal_satisfying(
                    condition
                )
            else:
                witness = PZMinimalModelSolver(
                    db, p, z
                ).find_minimal_satisfying(condition)
        self.inner_sat_calls += counter.calls
        return witness is not None

    def witness(
        self,
        db: DisjunctiveDatabase,
        condition: Formula,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
    ) -> Optional[Interpretation]:
        """Like :meth:`query` but returning the witnessing model."""
        check_deadline()
        self.queries += 1
        with count_sat_calls() as counter:
            if p is None or frozenset(p) == frozenset(db.vocabulary):
                witness = MinimalModelSolver(db).find_minimal_satisfying(
                    condition
                )
            else:
                witness = PZMinimalModelSolver(
                    db, p, z
                ).find_minimal_satisfying(condition)
        self.inner_sat_calls += counter.calls
        return witness

    def entails(
        self,
        db: DisjunctiveDatabase,
        formula: Formula,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
    ) -> bool:
        """The Π₂ᵖ complement: ``MM(db;P;Z) |= formula`` (one query)."""
        return not self.query(db, Not(formula), p=p, z=z)


@dataclass
class OracleProfile:
    """Measured oracle usage of one decision-procedure run."""

    answer: bool
    sat_calls: int = 0
    sigma2_calls: int = 0
    detail: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"answer={self.answer}"]
        if self.sigma2_calls:
            parts.append(f"Σ2-calls={self.sigma2_calls}")
        parts.append(f"SAT-calls={self.sat_calls}")
        parts += [f"{k}={v}" for k, v in self.detail.items()]
        return ", ".join(parts)


def profile(callable_, *args, **kwargs) -> OracleProfile:
    """Run ``callable_`` and record the NP-oracle calls it made."""
    with count_sat_calls() as counter:
        answer = callable_(*args, **kwargs)
    return OracleProfile(answer=bool(answer), sat_calls=counter.calls)
