"""The brute enumerators pinned to the frozenset reference.

:mod:`repro.models.enumeration` runs every sweep on the bitset kernel;
``reference_models`` recomputes ``M(DB)``, the block sweep, ``MM(DB)``
(with and without component decomposition), ``MM(DB; P; Z)`` and
lexicographic minimality over frozensets.  On every database of the
220-database differential corpus, the adversarial regression corpus and
a few hand-built edge cases, each enumerator must return the reference's
output *sequence* (order included) and tick exactly the reference's
budget node count.
"""

from __future__ import annotations

import os

import pytest

from repro.adversary.corpus import corpus_databases
from repro.logic.clause import Clause
from repro.logic.database import DisjunctiveDatabase
from repro.logic.parser import parse_database
from repro.models.enumeration import (
    all_models,
    minimal_models_brute,
    models_in_block,
    prioritized_minimal_models_brute,
    pz_minimal_models_brute,
)
from repro.obs.accounting import observe

import reference_models as ref
from test_differential import COUNTS, build_db

_CORPUS_PATH = os.path.join(
    os.path.dirname(__file__), "data", "adversarial_corpus.json"
)

#: Hand-built edge cases: empty vocabulary, atoms in no clause, an
#: inconsistent component, and a falsum clause (no atoms at all) next to
#: an otherwise independent component.
EDGE_CASES = [
    ("empty", parse_database("")),
    ("free-atoms", parse_database("").with_vocabulary(["a", "b", "c"])),
    ("stray-atom", parse_database("a | b. c :- a.").with_vocabulary(["z"])),
    ("inconsistent-part", parse_database("a | b. c. :- c.")),
    (
        "falsum",
        DisjunctiveDatabase(
            [Clause(), Clause(head={"a", "b"}), Clause(head={"c"})]
        ),
    ),
]

CASES = (
    [
        (f"{regime}-{seed}", build_db(regime, seed))
        for regime in sorted(COUNTS)
        for seed in range(COUNTS[regime])
    ]
    + [(f"corpus-{cid}", db) for cid, db in corpus_databases(_CORPUS_PATH)]
    + EDGE_CASES
)


def assert_matches(enumerator, reference, *args) -> None:
    """Same output sequence and same node ticks."""
    with observe() as window:
        got = enumerator(*args)
    expected, nodes = reference(*args)
    assert got == expected, (enumerator.__name__, args)
    assert window.nodes == nodes, (enumerator.__name__, args)


def partitions(atoms):
    """``(P, Z)`` choices: everything minimized, a prefix minimized with
    one floating atom, and every other atom minimized."""
    return [(atoms, []), (atoms[:2], atoms[2:3]), (atoms[1::2], atoms[:1])]


def priorities(atoms):
    """``(levels, Z)`` choices, one naming an atom outside the
    vocabulary (levels may mention any atom)."""
    return [
        ([atoms], []),
        ([atoms[:1], atoms[1:3]], atoms[3:4]),
        ([atoms[1:2] + ["not_in_vocabulary"], atoms[:1]], []),
    ]


@pytest.mark.parametrize(
    "db", [c[1] for c in CASES], ids=[c[0] for c in CASES]
)
def test_enumerators_match_reference(db):
    atoms = sorted(db.vocabulary)
    assert_matches(all_models, ref.all_models, db)
    assert_matches(models_in_block, ref.models_in_block, db, (), ())
    assert_matches(
        models_in_block, ref.models_in_block, db, atoms[:1], atoms[1:2]
    )
    for decompose in (True, False):
        assert_matches(
            minimal_models_brute, ref.minimal_models, db, decompose
        )
        for p, z in partitions(atoms):
            assert_matches(
                pz_minimal_models_brute, ref.pz_minimal_models,
                db, p, z, decompose,
            )
    for levels, z in priorities(atoms):
        assert_matches(
            prioritized_minimal_models_brute,
            ref.prioritized_minimal_models, db, levels, z,
        )


def test_reference_by_hand():
    """The reference itself on hand-computed cases: binary-counter order
    (bit ``i`` = ``i``-th sorted atom) and the per-component tick sum."""
    db = parse_database("a | b. c | d.")
    models, nodes = ref.all_models(parse_database("a | b."))
    assert models == [{"a"}, {"b"}, {"a", "b"}] and nodes == 4
    models, nodes = ref.minimal_models(db)
    assert models == [{"a", "c"}, {"b", "c"}, {"a", "d"}, {"b", "d"}]
    assert nodes == 2 * (4 + 3)  # two 2-atom sweeps, 3 models each
    models, nodes = ref.minimal_models(db, decompose=False)
    assert models == [{"a", "c"}, {"b", "c"}, {"a", "d"}, {"b", "d"}]
    assert nodes == 16 + 9  # one 4-atom sweep, 3 x 3 models
