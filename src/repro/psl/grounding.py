"""Grounding first-order PSL rules against a database.

Positive body literals drive the enumeration (safe-rule requirement):
substitutions are found by backtracking joins over the atoms the database
knows (observed or target).  Each substitution instantiates the rule into
a :class:`~repro.psl.rule.GroundRule`; trivially satisfied groundings
(hinge provably zero given the observations) are dropped.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import GroundingError
from repro.psl.database import Database
from repro.psl.predicate import GroundAtom
from repro.psl.rule import GroundRule, Literal, Rule, RuleVariable


def _match_literal(
    literal: Literal,
    atom: GroundAtom,
    substitution: dict[RuleVariable, object],
) -> dict[RuleVariable, object] | None:
    """Try to unify *literal* with *atom* under *substitution* (new bindings)."""
    if atom.predicate != literal.predicate:
        return None
    new: dict[RuleVariable, object] = {}
    for term, value in zip(literal.arguments, atom.arguments):
        if isinstance(term, RuleVariable):
            bound = substitution.get(term, new.get(term))
            if bound is None:
                new[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return new


def substitutions(rule: Rule, database: Database) -> Iterator[dict[RuleVariable, object]]:
    """Enumerate all substitutions binding the rule's variables.

    Only *positive* body literals generate bindings; negated body literals
    and head literals must have their variables bound by them.
    """
    positive = [l for l in rule.body if not l.negated]
    other_vars = {
        v
        for l in (*[b for b in rule.body if b.negated], *rule.head)
        for v in l.variables
    }
    positive_vars = {v for l in positive for v in l.variables}
    if not other_vars <= positive_vars:
        raise GroundingError(
            f"rule {rule} is not groundable: variables "
            f"{other_vars - positive_vars} appear only in negated/head literals"
        )

    ordered = sorted(positive, key=lambda l: len(database.atoms_of(l.predicate)))
    seen: set[tuple] = set()

    def extend(index: int, sub: dict[RuleVariable, object]) -> Iterator[dict]:
        if index == len(ordered):
            key = tuple(sorted(((v.name, repr(x)) for v, x in sub.items())))
            if key not in seen:
                seen.add(key)
                yield dict(sub)
            return
        literal = ordered[index]
        # repro-lint: disable=RPL002 -- match order is irrelevant: every
        # substitution is enumerated and ground_rule() sorts canonically.
        for atom in database.atoms_of(literal.predicate):
            new = _match_literal(literal, atom, sub)
            if new is None:
                continue
            sub.update(new)
            yield from extend(index + 1, sub)
            for v in new:
                del sub[v]

    yield from extend(0, {})


def _atom_sort_key(atom: GroundAtom) -> tuple:
    """An injective canonical key for a ground atom.

    ``GroundAtom.__repr__`` renders arguments via ``str``, so e.g.
    ``p(1)`` and ``p("1")`` collide; including the argument type and
    ``repr`` makes the key distinguish every distinct atom.
    """
    return (
        atom.predicate.name,
        atom.predicate.arity,
        tuple((type(a).__name__, repr(a)) for a in atom.arguments),
    )


def _grounding_sort_key(ground: GroundRule) -> tuple:
    return (
        tuple(_atom_sort_key(a) for a in ground.body),
        ground.body_negated,
        tuple(_atom_sort_key(a) for a in ground.head),
        ground.head_negated,
    )


def ground_rule(rule: Rule, database: Database) -> list[GroundRule]:
    """All non-trivial groundings of *rule* against *database*.

    Returned in canonical (injectively key-sorted) order: enumeration
    walks hash-ordered atom sets, so without the sort the grounding
    order — and with it the compiled potential order — would vary with
    the process's hash seed.  Sharded grounding merges rule shards
    against the dict-based order, and grid cells ground in different
    processes, so grounding order must be reproducible anywhere.
    """
    groundings: list[GroundRule] = []
    for sub in substitutions(rule, database):
        body = tuple(l.ground(sub) for l in rule.body)
        head = tuple(l.ground(sub) for l in rule.head)
        ground = GroundRule(
            rule=rule,
            body=body,
            body_negated=tuple(l.negated for l in rule.body),
            head=head,
            head_negated=tuple(l.negated for l in rule.head),
            weight=rule.weight,
        )
        if not _is_trivially_satisfied(ground, database):
            groundings.append(ground)
    groundings.sort(key=_grounding_sort_key)
    return groundings


def _is_trivially_satisfied(ground: GroundRule, database: Database) -> bool:
    """True iff the hinge is provably 0 for every assignment of the targets.

    The distance to satisfaction is ``max(0, s)`` with
    ``s = sum body - (k-1) - sum head``.  Upper-bounding every target
    contribution by 1 gives a sound triviality test.
    """
    upper = -(len(ground.body) - 1)
    for atom, negated in zip(ground.body, ground.body_negated):
        truth = database.truth(atom)
        if truth is None:
            upper += 1.0
        else:
            upper += (1.0 - truth) if negated else truth
    for atom, negated in zip(ground.head, ground.head_negated):
        truth = database.truth(atom)
        if truth is None:
            upper -= 0.0  # a target head could be 0, contributing nothing
        else:
            upper -= truth if not negated else (1.0 - truth)
    return upper <= 1e-12


def linearize(
    ground: GroundRule, database: Database
) -> tuple[dict[GroundAtom, float], float]:
    """Express the grounding's pre-hinge value as ``sum(coeff*target) + const``.

    Returns (coefficients over target atoms, constant) such that the
    distance to satisfaction is ``max(0, expr)`` (or the constraint
    ``expr <= 0`` for hard rules).
    """
    coefficients: dict[GroundAtom, float] = {}
    constant = -(len(ground.body) - 1)

    def accumulate(atom: GroundAtom, negated: bool, sign: float) -> None:
        nonlocal constant
        truth = database.truth(atom)
        if truth is None:  # target (random variable)
            if negated:
                constant += sign * 1.0
                coefficients[atom] = coefficients.get(atom, 0.0) - sign
            else:
                coefficients[atom] = coefficients.get(atom, 0.0) + sign
        else:
            constant += sign * ((1.0 - truth) if negated else truth)

    for atom, negated in zip(ground.body, ground.body_negated):
        accumulate(atom, negated, +1.0)
    for atom, negated in zip(ground.head, ground.head_negated):
        accumulate(atom, negated, -1.0)
    return coefficients, constant
