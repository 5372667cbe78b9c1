"""Homomorphism search between instances with labeled nulls.

A homomorphism h maps labeled nulls to values (constants or nulls) and is
the identity on constants; it maps an instance K into an instance J if
h(f) is a fact of J for every fact f of K.  Homomorphisms are the standard
tool for comparing instances with incomplete information and underpin the
paper's graded ``covers``/``creates`` semantics.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import LabeledNull, Value, is_null


def fact_matches(
    f: Fact,
    target: Fact,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> dict[LabeledNull, Value] | None:
    """Match fact *f* onto *target* under an optional pre-bound null map.

    Returns the (minimal) null assignment extending *fixed* that maps *f*
    exactly onto *target*, or None if no such assignment exists.  Constants
    must agree position-wise; a null may bind to any value but must bind
    consistently across positions.
    """
    if f.relation != target.relation or len(f.values) != len(target.values):
        return None
    binding: dict[LabeledNull, Value] = {}
    for mine, theirs in zip(f.values, target.values):
        if isinstance(mine, LabeledNull):
            # A fixed null never enters *binding*, so the lookups commute.
            bound = fixed.get(mine) if fixed else None
            if bound is None:
                bound = binding.get(mine)
            if bound is None:
                binding[mine] = theirs
            elif bound != theirs:
                return None
        elif mine != theirs:
            return None
    return binding


class FactIndex:
    """A snapshot of an instance's facts, bucketed by ``(relation, position, value)``.

    Every value is indexed, labeled nulls included: the indexed instance
    (e.g. a target example J) may hold nulls, and a null pre-bound by a
    ``fixed`` map may be bound to one.  Matching a fact then visits only
    the smallest bucket that agrees with one of its constants or fixed
    nulls, instead of every fact of the relation.

    The snapshot does not follow later changes to the instance; build one
    per use (it is cheap) rather than caching it on the instance.
    """

    def __init__(self, facts: Iterable[Fact]):
        self._by_relation: dict[str, list[Fact]] = {}
        self._buckets: dict[tuple[str, int, Value], list[Fact]] = {}
        for f in facts:
            self._by_relation.setdefault(f.relation, []).append(f)
            for position, value in enumerate(f.values):
                self._buckets.setdefault((f.relation, position, value), []).append(f)

    def __iter__(self) -> Iterator[Fact]:
        for facts in self._by_relation.values():
            yield from facts

    def candidates(
        self, f: Fact, fixed: Mapping[LabeledNull, Value] | None = None
    ) -> Sequence[Fact]:
        """The smallest bucket that can hold every image of *f*.

        Constants, and nulls *fixed* binds, pin their position; with no
        pinned position this is the whole relation.
        """
        best: Sequence[Fact] = self._by_relation.get(f.relation, ())
        for position, value in enumerate(f.values):
            if is_null(value):
                if not fixed or value not in fixed:
                    continue
                value = fixed[value]
            bucket = self._buckets.get((f.relation, position, value))
            if bucket is None:
                return ()
            if len(bucket) < len(best):
                best = bucket
        return best

    def images(
        self, f: Fact, fixed: Mapping[LabeledNull, Value] | None = None
    ) -> Iterator[tuple[Fact, dict[LabeledNull, Value]]]:
        """Every indexed fact *f* maps onto, with the null binding that does it."""
        for candidate in self.candidates(f, fixed):
            binding = fact_matches(f, candidate, fixed)
            if binding is not None:
                yield candidate, binding


def fact_homomorphisms(
    f: Fact,
    instance: Instance | FactIndex,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> Iterator[dict[LabeledNull, Value]]:
    """All ways of mapping the single fact *f* into *instance*.

    Yields the null bindings (excluding the entries of *fixed*).  Given
    a :class:`FactIndex`, only the facts its buckets admit are tried;
    given an :class:`Instance`, every fact of *f*'s relation is.
    """
    if isinstance(instance, FactIndex):
        for _, binding in instance.images(f, fixed):
            yield binding
        return
    # repro-lint: disable=RPL002 -- existential enumeration: callers
    # consume all bindings or test emptiness, never the order.
    for candidate in instance.facts_of(f.relation):
        binding = fact_matches(f, candidate, fixed)
        if binding is not None:
            yield binding


def has_fact_homomorphism(
    f: Fact,
    instance: Instance | FactIndex,
    fixed: Mapping[LabeledNull, Value] | None = None,
) -> bool:
    """True iff the single fact *f* maps into *instance* (given *fixed*)."""
    return next(fact_homomorphisms(f, instance, fixed), None) is not None


def find_homomorphism(
    source: Instance,
    target: Instance,
) -> dict[LabeledNull, Value] | None:
    """Find a homomorphism mapping *all* of *source* into *target*.

    Backtracking over source facts, most-constrained (fewest candidate
    images) first.  Returns the null assignment or None.  This is the
    decision procedure behind universality checks: a canonical chase
    result must map into every solution of the data-exchange problem.
    """
    facts = sorted(source, key=lambda f: len(target.facts_of(f.relation)))

    def extend(index: int, binding: dict[LabeledNull, Value]) -> dict[LabeledNull, Value] | None:
        if index == len(facts):
            return dict(binding)
        f = facts[index]
        # repro-lint: disable=RPL002 -- backtracking existence search:
        # any satisfying homomorphism is as good as any other.
        for candidate in target.facts_of(f.relation):
            local = fact_matches(f, candidate, binding)
            if local is None:
                continue
            binding.update(local)
            result = extend(index + 1, binding)
            if result is not None:
                return result
            for null in local:
                del binding[null]
        return None

    return extend(0, {})


def is_homomorphic(source: Instance, target: Instance) -> bool:
    """True iff some homomorphism maps *source* into *target*."""
    return find_homomorphism(source, target) is not None
