"""Brute-force model theory.

Explicit-enumeration implementations of every model-selection notion used
by the paper.  They are exponential in ``|V|`` by construction and serve
as *ground truth* for the oracle-backed engines in the test suite, and as
the reference semantics for small worked examples.

Every sweep runs on the bitset kernel (:mod:`repro.kernel`): candidates
are Python ints over the database's :class:`~repro.kernel.AtomTable` and
become :class:`~repro.logic.interpretation.Interpretation` objects only
at the API boundary.  Mask order is the binary-counter enumeration
order, so every output list comes in that order.  The test suite pins
these enumerators, sequence and node ticks alike, to an independent
frozenset reference (``tests/reference_models.py``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

from ..kernel import (
    PackedDatabase,
    atom_table_for,
    is_proper_submask,
    packed_database_for,
    product_or_masks,
)
from ..logic.database import DisjunctiveDatabase
from ..logic.interpretation import Interpretation
from ..runtime.budget import note_nodes


def _model_masks(packed: PackedDatabase) -> List[int]:
    """The masks of ``M(DB)`` in enumeration order, one node per
    candidate."""
    out = []
    for mask in range(1 << len(packed.table)):
        note_nodes(1)
        if packed.is_model(mask):
            out.append(mask)
    return out


def all_models(db: DisjunctiveDatabase) -> List[Interpretation]:
    """``M(DB)`` — every classical model, by explicit enumeration.

    Every candidate interpretation counts as one node against an active
    :class:`~repro.runtime.budget.BudgetScope`, so the ``2^|V|`` sweep is
    cut off by node ceilings and deadlines.
    """
    packed = packed_database_for(db)
    return [packed.table.unpack(mask) for mask in _model_masks(packed)]


def models_in_block(
    db: DisjunctiveDatabase,
    fixed_true: Iterable[str] = (),
    fixed_false: Iterable[str] = (),
) -> List[Interpretation]:
    """The classical models extending a partial assignment.

    Enumerates the ``2^|free|`` interpretations that make ``fixed_true``
    true and ``fixed_false`` false (the remaining vocabulary atoms are
    free), in binary-counter order over the free atoms.  This is the
    per-worker unit of the block-parallel enumerator in
    :mod:`repro.engine.parallel`; fixing nothing recovers
    :func:`all_models`.
    """
    base = frozenset(fixed_true)
    fixed = base | frozenset(fixed_false)
    packed = packed_database_for(db)
    table = packed.table
    base_mask = table.pack(base)
    free = sorted(frozenset(db.vocabulary) - fixed)
    free_bits = [table.bit(a) for a in free]
    out = []
    for counter in range(1 << len(free_bits)):
        note_nodes(1)
        candidate = base_mask
        for i, bit in enumerate(free_bits):
            if counter >> i & 1:
                candidate |= bit
        if packed.is_model(candidate):
            out.append(table.unpack(candidate))
    return out


def _rank_order(
    db: DisjunctiveDatabase, models: Iterable[Interpretation]
) -> List[Interpretation]:
    """Models in the binary-counter order of the serial enumerator (the
    packed-mask value over the database's atom table)."""
    return sorted(models, key=atom_table_for(db).pack)


def _minimal_models(
    db: DisjunctiveDatabase, preferred
) -> List[Interpretation]:
    """The models of ``db`` no other model is ``preferred(other, model)``
    to (both as masks), in enumeration order.  The quadratic pass ticks
    one node per candidate, since it can dominate the enumeration
    itself."""
    packed = packed_database_for(db)
    masks = _model_masks(packed)
    unpack = packed.table.unpack
    out = []
    for mask in masks:
        note_nodes(1)
        if not any(preferred(other, mask) for other in masks):
            out.append(unpack(mask))
    return out


def _decomposed(db: DisjunctiveDatabase, solve_part):
    """``solve_part`` on each connected component, assembled by the
    product law in enumeration order — or ``None`` when ``db`` is
    connected."""
    from ..sat.decompose import decompose

    parts = decompose(db)
    if parts is None:
        return None
    table = atom_table_for(db)
    part_masks = [
        [table.pack(m) for m in solve_part(part)] for part in parts
    ]
    return [
        table.unpack(mask) for mask in sorted(product_or_masks(part_masks))
    ]


def minimal_models_brute(
    db: DisjunctiveDatabase, decompose: bool = True
) -> List[Interpretation]:
    """``MM(DB)`` — subset-minimal models, by pairwise comparison.

    With ``decompose=True`` (default) the clause graph is split into
    connected components first and ``MM(DB) = ⨂ MM(DBᵢ)`` is assembled as
    a product: the node count drops from ``2^|V|`` to ``Σᵢ 2^|Vᵢ|`` plus
    the (output-sized) product.  ``decompose=False`` is the pristine
    single-sweep reference the decomposed path is tested against.
    """
    if decompose:
        product = _decomposed(
            db, lambda part: minimal_models_brute(part, decompose=False)
        )
        if product is not None:
            return product
    return _minimal_models(db, is_proper_submask)


def pz_minimal_models_brute(
    db: DisjunctiveDatabase,
    p: Iterable[str],
    z: Iterable[str],
    decompose: bool = True,
) -> List[Interpretation]:
    """``MM(DB; P; Z)`` by explicit enumeration.

    ``N <_{P;Z} M`` iff ``N`` and ``M`` agree on ``Q`` and ``N``'s ``P``
    part is strictly smaller.  The order compares components pointwise,
    so it factors over connected components exactly like plain
    minimality: ``decompose=True`` assembles the answer as a product of
    per-component sweeps (with the partition restricted to each
    component).
    """
    p = frozenset(p)
    z = frozenset(z)
    q = frozenset(db.vocabulary) - p - z
    db.check_partition(p, q, z)
    if decompose:
        product = _decomposed(
            db,
            lambda part: pz_minimal_models_brute(
                part, p & part.vocabulary, z & part.vocabulary,
                decompose=False,
            ),
        )
        if product is not None:
            return product
    table = atom_table_for(db)
    p_mask, q_mask = table.pack(p), table.pack(q)

    def preferred(n: int, m: int) -> bool:
        return (n & q_mask) == (m & q_mask) and is_proper_submask(
            n & p_mask, m & p_mask
        )

    return _minimal_models(db, preferred)


def prioritized_minimal_models_brute(
    db: DisjunctiveDatabase,
    levels: Sequence[Iterable[str]],
    z: Iterable[str] = (),
) -> List[Interpretation]:
    """Lexicographically minimal models by explicit enumeration.

    ``N <_{P1>...>Pr;Z} M`` iff ``N`` and ``M`` agree on ``Q`` and, at
    the first level where their parts differ, ``N``'s part is strictly
    smaller.
    """
    level_sets = [frozenset(level) for level in levels]
    z = frozenset(z)
    q = (
        frozenset(db.vocabulary)
        - frozenset(itertools.chain.from_iterable(level_sets))
        - z
    )
    table = atom_table_for(db)
    vocabulary = frozenset(table.atoms)
    level_masks = [table.pack(level & vocabulary) for level in level_sets]
    q_mask = table.pack(q)

    def preferred(n: int, m: int) -> bool:
        if (n & q_mask) != (m & q_mask):
            return False
        for level in level_masks:
            n_part, m_part = n & level, m & level
            if n_part != m_part:
                return is_proper_submask(n_part, m_part)
        return False

    return _minimal_models(db, preferred)


def models_entail_brute(models: Iterable[Interpretation], formula) -> bool:
    """Whether a formula holds in every model of an explicit model set.

    By the convention standard for these semantics (and required for the
    closure readings to coincide with the model-theoretic ones), an empty
    model set entails everything.
    """
    return all(m.satisfies(formula) for m in models)
