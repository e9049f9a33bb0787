"""An independent frozenset reference for the brute enumerators.

:mod:`repro.models.enumeration` runs every sweep on the bitset kernel.
This module recomputes the same four model notions — ``M(DB)``,
``MM(DB)``, ``MM(DB; P; Z)`` and lexicographic (prioritized) minimality
— directly over frozensets of atom names, with its own enumeration
counter and its own connected-component split, and shares nothing with
the kernel but the database's ``Clause.satisfied_by``.

Every function returns ``(models, nodes)``: the models in the order the
production enumerator must emit them (the binary counter over
``sorted(vocabulary)``, bit ``i`` = ``i``-th atom) and the number of
budget nodes the production enumerator must tick.  The accounting
contract is one node per candidate interpretation swept plus one node
per model put through a minimality comparison pass.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.logic.database import DisjunctiveDatabase
from repro.logic.interpretation import Interpretation

Models = List[Interpretation]
Result = Tuple[Models, int]


def _rank(db: DisjunctiveDatabase, model: Iterable[str]) -> int:
    """The binary-counter position of ``model`` over ``db``'s sorted
    vocabulary (the enumeration order every output list follows)."""
    atoms = sorted(db.vocabulary)
    return sum(1 << atoms.index(atom) for atom in model)


def _sweep(
    db: DisjunctiveDatabase, atoms: Sequence[str], base: FrozenSet[str]
) -> Result:
    """The models among ``base ∪ S`` for every ``S ⊆ atoms``, with
    ``atoms`` bit ``i`` of the counter; one node per candidate."""
    out = []
    for counter in range(1 << len(atoms)):
        candidate = Interpretation(
            base | {a for i, a in enumerate(atoms) if counter >> i & 1}
        )
        if all(clause.satisfied_by(candidate) for clause in db.clauses):
            out.append(candidate)
    return out, 1 << len(atoms)


def all_models(db: DisjunctiveDatabase) -> Result:
    """``M(DB)``."""
    return _sweep(db, sorted(db.vocabulary), frozenset())


def models_in_block(
    db: DisjunctiveDatabase,
    fixed_true: Iterable[str],
    fixed_false: Iterable[str],
) -> Result:
    """The models extending a partial assignment (binary counter over
    the sorted free atoms)."""
    base = frozenset(fixed_true)
    free = sorted(db.vocabulary - base - frozenset(fixed_false))
    return _sweep(db, free, base)


def _components(
    db: DisjunctiveDatabase,
) -> Optional[List[DisjunctiveDatabase]]:
    """``db`` split along the connected components of its clause graph,
    ordered by smallest atom, or ``None`` when it has at most one.  A
    clause without atoms goes with the first component."""
    groups: List[set] = [{atom} for atom in db.vocabulary]
    for clause in db.clauses:
        touched = [g for g in groups if g & clause.atoms]
        if len(touched) > 1:
            groups = [g for g in groups if not g & clause.atoms]
            groups.append(set().union(*touched))
    if len(groups) <= 1:
        return None
    groups.sort(key=min)
    return [
        DisjunctiveDatabase(
            [
                c for c in db.clauses
                if c.atoms & group or (not c.atoms and i == 0)
            ],
            vocabulary=group,
        )
        for i, group in enumerate(groups)
    ]


def _minimal(
    db: DisjunctiveDatabase,
    preferred: Callable[[Interpretation, Interpretation], bool],
) -> Result:
    """The models of ``db`` no other model is preferred to."""
    models, nodes = all_models(db)
    out = [m for m in models if not any(preferred(n, m) for n in models)]
    return out, nodes + len(models)


def _product(db: DisjunctiveDatabase, per_part: List[Result]) -> Result:
    """Per-component answers combined by the product law."""
    combined = [
        Interpretation(frozenset().union(*choice))
        for choice in itertools.product(*(models for models, _ in per_part))
    ]
    combined.sort(key=lambda m: _rank(db, m))
    return combined, sum(nodes for _, nodes in per_part)


def pz_preferred(
    n: FrozenSet[str],
    m: FrozenSet[str],
    p: FrozenSet[str],
    q: FrozenSet[str],
) -> bool:
    """``N <_{P;Z} M``: same ``Q`` part, strictly smaller ``P`` part."""
    if (n & q) != (m & q):
        return False
    return (n & p) < (m & p)


def lex_preferred(
    n: FrozenSet[str],
    m: FrozenSet[str],
    levels: Sequence[FrozenSet[str]],
    q: FrozenSet[str],
) -> bool:
    """``N <_{P1>...>Pr;Z} M`` (lexicographic by priority level)."""
    if (n & q) != (m & q):
        return False
    for level in levels:
        n_part, m_part = n & level, m & level
        if n_part == m_part:
            continue
        return n_part < m_part
    return False


def minimal_models(db: DisjunctiveDatabase, decompose: bool = True) -> Result:
    """``MM(DB)``, per connected component when ``decompose``."""
    parts = _components(db) if decompose else None
    if parts is not None:
        return _product(db, [minimal_models(part, False) for part in parts])
    return _minimal(db, lambda n, m: n < m)


def pz_minimal_models(
    db: DisjunctiveDatabase,
    p: Iterable[str],
    z: Iterable[str],
    decompose: bool = True,
) -> Result:
    """``MM(DB; P; Z)``, per connected component when ``decompose``."""
    p, z = frozenset(p), frozenset(z)
    parts = _components(db) if decompose else None
    if parts is not None:
        return _product(db, [
            pz_minimal_models(
                part, p & part.vocabulary, z & part.vocabulary, False
            )
            for part in parts
        ])
    q = db.vocabulary - p - z
    return _minimal(db, lambda n, m: pz_preferred(n, m, p, q))


def prioritized_minimal_models(
    db: DisjunctiveDatabase,
    levels: Sequence[Iterable[str]],
    z: Iterable[str] = (),
) -> Result:
    """Lexicographically minimal models (never decomposed)."""
    level_sets = [frozenset(level) for level in levels]
    q = db.vocabulary - frozenset().union(*level_sets) - frozenset(z)
    return _minimal(db, lambda n, m: lex_preferred(n, m, level_sets, q))
