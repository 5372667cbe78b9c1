"""Edit semantics of the observation database.

Retractions restore the closed-world default and reject unknown atoms,
and iteration follows current insertion order (with a lint regression
pinning the RPL002 hash-order class out of ``database.py``).
"""

import pytest

from repro.errors import GroundingError
from repro.psl.database import Database
from repro.psl.predicate import Predicate

P = Predicate("p", 1, closed=True)
Q = Predicate("q", 1, closed=False)


def test_retract_unknown_raises():
    db = Database()
    with pytest.raises(GroundingError):
        db.retract_observation(P("a"))
    with pytest.raises(GroundingError):
        db.retract_target(Q("x"))


def test_retract_restores_closed_world_default():
    db = Database()
    db.observe(P("a"), 0.8)
    db.retract_observation(P("a"))
    assert db.truth(P("a")) == 0.0
    assert db.atoms_of(P) == frozenset()
    db.add_target(Q("x"))
    db.retract_target(Q("x"))
    assert not db.is_target(Q("x"))
    assert Q("x") not in db.targets_in_order


def test_iteration_is_insertion_ordered():
    db = Database()
    atoms = [P(f"a{i}") for i in range(20)] + [Q(f"b{i}") for i in range(5)]
    for atom in atoms[:20]:
        db.observe(atom, 1.0)
    for atom in atoms[20:]:
        db.add_target(atom)
    assert list(db) == atoms
    # Retract-then-re-add moves the atom to the back of its bucket —
    # iteration order tracks *current* insertion order, not history.
    db.retract_observation(atoms[0])
    db.observe(atoms[0], 1.0)
    assert list(db) == atoms[1:20] + [atoms[0]] + atoms[20:]


def test_database_module_is_hash_order_clean():
    """Lint regression: no RPL002 (hash-order iteration) in database.py."""
    from repro.psl import database
    from repro.analysis.runner import lint_paths

    report = lint_paths([database.__file__])
    assert not report.parse_errors
    assert [f for f in report.new if f.rule == "RPL002"] == []
    assert [f for f in report.baselined if f.rule == "RPL002"] == []
