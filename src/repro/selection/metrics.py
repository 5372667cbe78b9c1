"""Precomputed metric tables for mapping selection.

Selecting a mapping only needs three ingredients per candidate theta:

* ``covers[(i, t)]`` — the graded degree to which candidate i explains
  target-example fact t (only non-zero entries are stored);
* the set of *error facts* candidate i creates (chase facts with no
  homomorphic image in J);
* ``size(theta_i)``.

:func:`build_selection_problem` chases the source once per candidate and
evaluates the homomorphism-based semantics of
:mod:`repro.homomorphism.covers`.  All downstream solvers (exact, greedy,
collective/PSL) consume the resulting :class:`SelectionProblem`, so they
optimize exactly the same objective.

The per-candidate work (chase + cover table + error set) runs in the
calling process, one candidate at a time.  Each candidate chases with a
private null factory counting from zero; the merge then shifts every
candidate's null labels by the number of nulls its predecessors
consumed.  That reproduces, byte for byte, the labels a single shared
:class:`~repro.datamodel.values.NullFactory` threaded through the loop
would have handed out — candidates never share a null, and an edit that
re-chases one candidate (:mod:`repro.ibench.mutations`) merges into
exactly what a from-scratch build would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.chase.engine import chase
from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import LabeledNull, NullFactory
from repro.errors import SelectionError
from repro.homomorphism.covers import CoverComputer, creates, repr_order
from repro.homomorphism.search import FactIndex, fact_matches
from repro.mappings.tgd import StTgd


@dataclass
class SelectionProblem:
    """A fully materialized instance of the mapping-selection problem.

    Attributes:
        candidates: the candidate st tgds, index-addressed everywhere else.
        source: the source instance I.
        target: the target example J.
        j_facts: J's facts in a fixed order.
        covers: ``covers[i][t]`` — non-zero cover degrees of candidate i.
        error_facts: per candidate, the chase facts flagged as errors.
        sizes: per candidate, the paper's size measure.
        chase_by_candidate: per candidate, its canonical chase instance.
    """

    candidates: list[StTgd]
    source: Instance
    target: Instance
    j_facts: list[Fact]
    covers: list[dict[Fact, Fraction]]
    error_facts: list[frozenset[Fact]]
    sizes: list[int]
    chase_by_candidate: list[Instance] = field(default_factory=list)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def max_cover(self, t: Fact, selected: Iterable[int]) -> Fraction:
        """explains(M, t): best cover of t over the selected candidates."""
        best = Fraction(0)
        for i in selected:
            d = self.covers[i].get(t)
            if d is not None and d > best:
                best = d
                if best == 1:
                    break
        return best

    def union_error_facts(self, selected: Iterable[int]) -> set[Fact]:
        """Distinct error facts created by the selected candidates.

        Facts with labeled nulls are private to one candidate by
        construction (fresh nulls per chase), while ground facts produced
        by several full tgds coincide and are counted once — matching the
        sum over K_C - J in the objective.
        """
        union: set[Fact] = set()
        for i in selected:
            union.update(self.error_facts[i])
        return union

    def coverable_facts(self) -> set[Fact]:
        """J-facts covered (to any degree) by at least one candidate."""
        coverable: set[Fact] = set()
        for table in self.covers:
            coverable.update(table)
        return coverable

    def certain_unexplained(self) -> list[Fact]:
        """J-facts no candidate covers at all.

        These contribute a constant ``w_explains`` each to every selection's
        objective and can be removed prior to optimization (Section III-C).
        """
        coverable = self.coverable_facts()
        return [t for t in self.j_facts if t not in coverable]


def problem_fingerprint(problem: SelectionProblem) -> bytes:
    """A canonical byte serialization of a problem's metric tables.

    Two problems fingerprint equally iff their j_facts, cover tables,
    error sets, sizes, and chase instances agree — independent of dict/set
    iteration order or the process that produced them.  Used to verify
    that incremental edits and from-scratch builds are byte-identical.
    """
    import json

    payload = {
        "j_facts": [repr(t) for t in problem.j_facts],
        "covers": [
            sorted((repr(t), str(d)) for t, d in table.items())
            for table in problem.covers
        ],
        "errors": [sorted(repr(f) for f in errs) for errs in problem.error_facts],
        "sizes": list(problem.sizes),
        "chase": [
            sorted(repr(f) for f in inst) for inst in problem.chase_by_candidate
        ],
        "candidates": [repr(c) for c in problem.candidates],
    }
    return json.dumps(payload, sort_keys=True).encode()


class _CountingNullFactory(NullFactory):
    """A null factory that remembers how many nulls it handed out."""

    def __init__(self) -> None:
        super().__init__(0)
        self.used = 0

    def fresh(self) -> LabeledNull:
        self.used += 1
        return super().fresh()


@dataclass(frozen=True)
class CandidateTables:
    """The metric tables of one candidate, with candidate-local null labels.

    ``nulls_used`` is the number of fresh nulls the candidate's chase
    consumed (its local labels are exactly ``0 .. nulls_used - 1``); the
    merge uses it to relabel into the global, collision-free label space.
    """

    index: int
    chase_facts: tuple[Fact, ...]
    covers: dict[Fact, Fraction]
    error_facts: frozenset[Fact]
    nulls_used: int

    def shifted(self, offset: int) -> tuple[Instance, frozenset[Fact]]:
        """The chase instance and error set with null labels moved by *offset*."""
        if offset == 0:
            return Instance(self.chase_facts), self.error_facts
        remap = {
            LabeledNull(label): LabeledNull(label + offset)
            for label in range(self.nulls_used)
        }
        chase_instance = Instance(f.substitute(remap) for f in self.chase_facts)
        errors = frozenset(f.substitute(remap) for f in self.error_facts)
        return chase_instance, errors

    def reaches(self, target_fact: Fact) -> bool:
        """Does some chase fact map onto *target_fact* (no nulls pre-bound)?

        Only such a candidate's covers and errors can change when
        *target_fact* is added to or removed from J.
        """
        return any(fact_matches(f, target_fact) is not None for f in self.chase_facts)


class IndexedTarget(NamedTuple):
    """J prepared once for a whole build (or edit): its index and an order.

    ``index`` is a :class:`FactIndex` of all of J; ``order`` maps the J
    facts to tabulate covers for to their positions (normally all of J
    in repr order; a sample of it when J is sampled).
    """

    index: FactIndex
    order: Mapping[Fact, int]

    @classmethod
    def of(cls, target: Instance) -> "IndexedTarget":
        return cls(FactIndex(target), repr_order(target))


def cover_and_error_tables(
    chase_facts: Iterable[Fact], target: IndexedTarget
) -> tuple[dict[Fact, Fraction], frozenset[Fact]]:
    """One candidate's cover table and error set against an indexed J.

    Covers tabulate the J facts in ``target.order``, in that order;
    errors and cover corroboration test against all of J.
    """
    chase_facts = tuple(chase_facts)
    computer = CoverComputer(chase_facts, target.index, target.order)
    errors = frozenset(f for f in chase_facts if creates(f, target.index))
    return computer.table, errors


def evaluate_candidate(
    source: Instance,
    target: Instance,
    candidate: StTgd,
    index: int = 0,
    indexed: IndexedTarget | None = None,
) -> CandidateTables:
    """The per-candidate work unit: chase, cover table, error set.

    Pure.  Null labels in the result are candidate-local (they start at
    0).  *indexed* is
    *target* prepared by :meth:`IndexedTarget.of`, when the caller shares
    one across a whole build.
    """
    factory = _CountingNullFactory()
    k_theta = chase(source, [candidate], factory).by_tgd[candidate]
    covers, errors = cover_and_error_tables(
        k_theta, indexed if indexed is not None else IndexedTarget.of(target)
    )
    return CandidateTables(
        index=index,
        chase_facts=tuple(sorted(k_theta, key=repr)),
        covers=covers,
        error_facts=errors,
        nulls_used=factory.used,
    )


def merge_candidate_tables(
    source: Instance,
    target: Instance,
    candidates: Sequence[StTgd],
    results: Iterable[CandidateTables],
    j_facts: list[Fact] | None = None,
    shift: Callable[
        [CandidateTables, int], tuple[Instance, frozenset[Fact]]
    ] = CandidateTables.shifted,
) -> SelectionProblem:
    """Deterministically merge per-candidate tables into a SelectionProblem.

    Results may arrive in any order; they are realigned by index and each
    candidate's local null labels are shifted past all labels consumed by
    earlier candidates — exactly the labels one shared factory would give.
    *j_facts* is *target* in repr order, when the caller already sorted it.
    *shift* computes one candidate's shifted chase and errors (a caller
    merging many revisions may memoize it).  The problem shares each
    result's cover table and the shifted objects; no consumer mutates them.
    """
    ordered = sorted(results, key=lambda r: r.index)
    if [r.index for r in ordered] != list(range(len(candidates))):
        raise SelectionError("candidate tables do not cover the candidate list")
    covers_tables: list[dict[Fact, Fraction]] = []
    error_sets: list[frozenset[Fact]] = []
    chases: list[Instance] = []
    offset = 0
    for result in ordered:
        chase_instance, errors = shift(result, offset)
        offset += result.nulls_used
        chases.append(chase_instance)
        covers_tables.append(result.covers)
        error_sets.append(errors)

    return SelectionProblem(
        candidates=list(candidates),
        source=source,
        target=target,
        j_facts=j_facts if j_facts is not None else sorted(target, key=repr),
        covers=covers_tables,
        error_facts=error_sets,
        sizes=[c.size for c in candidates],
        chase_by_candidate=chases,
    )


def build_selection_problem(
    source: Instance,
    target: Instance,
    candidates: Sequence[StTgd],
) -> SelectionProblem:
    """Chase each candidate and materialize covers/creates/size tables."""
    if not all(isinstance(c, StTgd) for c in candidates):
        raise SelectionError("candidates must be StTgd objects")
    indexed = IndexedTarget.of(target)
    return merge_candidate_tables(
        source,
        target,
        candidates,
        (
            evaluate_candidate(source, target, candidate, index, indexed)
            for index, candidate in enumerate(candidates)
        ),
        j_facts=list(indexed.order),
    )
