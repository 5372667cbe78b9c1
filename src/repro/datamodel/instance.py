"""Database instances: sets of facts over a schema.

Facts hold :class:`~repro.datamodel.values.Constant` or
:class:`~repro.datamodel.values.LabeledNull` values.  Instances index facts
by relation name, which keeps homomorphism search and cover computation
close to linear in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.datamodel.values import Constant, LabeledNull, Value, is_null
from repro.errors import InstanceError


@dataclass(frozen=True, slots=True)
class Fact:
    """A single tuple ``relation(values...)``.

    Values are :class:`Constant` or :class:`LabeledNull`.  Facts are
    immutable and hashable, so instances can be modeled as sets.

    The hash is computed once, at construction, and equals
    ``hash((relation, values))`` -- what the generated dataclass hash
    returned -- so set and dict orders are unchanged.  It is never
    pickled (see :meth:`__reduce__`): string hashes depend on the
    interpreter's hash seed, so a fact crossing a process boundary must
    rehash on arrival.
    """

    relation: str
    values: tuple[Value, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.relation, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Fact, (self.relation, self.values)

    @property
    def arity(self) -> int:
        return len(self.values)

    @property
    def nulls(self) -> tuple[LabeledNull, ...]:
        """Labeled nulls occurring in this fact, in position order."""
        return tuple(v for v in self.values if is_null(v))

    @property
    def is_ground(self) -> bool:
        """True iff the fact contains no labeled nulls."""
        return not any(is_null(v) for v in self.values)

    def substitute(self, mapping: Mapping[LabeledNull, Value]) -> "Fact":
        """Apply a null substitution, returning a new fact."""
        return Fact(
            self.relation,
            tuple(mapping.get(v, v) if is_null(v) else v for v in self.values),
        )

    def __repr__(self) -> str:
        # map() over a genexpr: fact reprs order the error-mediator
        # groups during grounding, so this runs hot on every ground.
        inner = ", ".join(map(repr, self.values))
        return f"{self.relation}({inner})"


def fact(relation: str, *values: object) -> Fact:
    """Convenience constructor wrapping raw python values as constants.

    ``LabeledNull`` arguments are kept as-is; anything else becomes a
    :class:`Constant`.  Example: ``fact("task", "ML", "Alice", null)``.
    """
    wrapped = tuple(
        v if isinstance(v, (Constant, LabeledNull)) else Constant(v) for v in values
    )
    return Fact(relation, wrapped)


class Instance:
    """A set of facts, indexed by relation name.

    Supports set-like operations used throughout the library: membership,
    union, difference, iteration, and per-relation access.
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        # dict-as-ordered-set buckets so ``__iter__`` yields facts in
        # insertion order — set buckets leak the per-process hash seed
        # into anything enumerating an instance (e.g. the scenario
        # generator's skolem-constant assignment), making "deterministic"
        # generation differ across processes (RPL002-class bug).
        self._by_relation: dict[str, dict[Fact, None]] = {}
        for f in facts:
            self.add(f)

    def add(self, f: Fact) -> bool:
        """Add *f*; return True if it was not already present."""
        bucket = self._by_relation.setdefault(f.relation, {})
        if f in bucket:
            return False
        bucket[f] = None
        return True

    def discard(self, f: Fact) -> bool:
        """Remove *f* if present; return True if it was removed."""
        bucket = self._by_relation.get(f.relation)
        if bucket and f in bucket:
            del bucket[f]
            if not bucket:
                del self._by_relation[f.relation]
            return True
        return False

    def facts_of(self, relation_name: str) -> frozenset[Fact]:
        """All facts of one relation (empty frozenset if none)."""
        return frozenset(self._by_relation.get(relation_name, ()))

    @property
    def relation_names(self) -> frozenset[str]:
        """Names of relations with at least one fact."""
        return frozenset(self._by_relation)

    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Fact):
            return False
        return f in self._by_relation.get(f.relation, ())

    def __iter__(self) -> Iterator[Fact]:
        for bucket in self._by_relation.values():
            yield from bucket

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_relation.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return set(self) == set(other)

    def __or__(self, other: "Instance") -> "Instance":
        return Instance(list(self) + list(other))

    def __sub__(self, other: "Instance") -> "Instance":
        return Instance(f for f in self if f not in other)

    def copy(self) -> "Instance":
        return Instance(self)

    @property
    def nulls(self) -> set[LabeledNull]:
        """All labeled nulls occurring anywhere in the instance."""
        found: set[LabeledNull] = set()
        for f in self:
            found.update(f.nulls)
        return found

    @property
    def is_ground(self) -> bool:
        """True iff no fact contains a labeled null."""
        return all(f.is_ground for f in self)

    def validate_against(self, schema) -> None:
        """Check every fact names a schema relation with matching arity.

        Raises :class:`InstanceError` on the first violation.
        """
        for f in self:
            if f.relation not in schema:
                raise InstanceError(f"fact {f} uses unknown relation {f.relation!r}")
            expected = schema.get(f.relation).arity
            if f.arity != expected:
                raise InstanceError(
                    f"fact {f} has arity {f.arity}, relation {f.relation!r} expects {expected}"
                )

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self._by_relation):
            for f in sorted(self._by_relation[name], key=repr):
                parts.append(repr(f))
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class DataExample:
    """A data example (I, J): a source instance and a target instance.

    The target instance J is the user's (possibly noisy, possibly partial)
    assertion of what migrating I should produce.  J is normally ground.
    """

    source: Instance
    target: Instance
