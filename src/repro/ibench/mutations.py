"""Primitive-level mutation chains over generated scenarios.

Edit workloads need *edit chains*: a scenario whose data changes a few
tuples at a time, each revision solved after the previous one.  This module supplies the edit primitives —
:class:`AddTargetTuple` / :class:`RemoveTargetTuple` /
:class:`AddSourceTuple` / :class:`RemoveSourceTuple` /
:class:`FlipCandidate` — and :class:`MutableSelection`, which replays
them as *deltas*: per-candidate chases are reused whenever the edit
cannot change them (target-side edits never re-chase; source-side edits
re-chase only candidates whose body mentions the touched relation), and
the merged :class:`~repro.selection.metrics.SelectionProblem` is
**byte-identical** (:func:`~repro.selection.metrics.problem_fingerprint`)
to a from-scratch :func:`~repro.selection.metrics.
build_selection_problem` of the mutated data — the equivalence suite
asserts it.

A target edit re-covers only the candidates it can touch: cover degrees
and error sets are per-candidate functions of J, and adding or removing
a J fact t can change candidate i's tables only if one of i's chase
facts maps onto t (the argument is spelled out on
:meth:`MutableSelection._retable`).  All stored tables keep
candidate-*local* null labels; the merge shifts them into the global
label space exactly as a serial build would, so equivalence survives
any mix of reused and re-chased candidates.  A candidate's shifted chase
and error set are reused while neither its tables nor its null offset
moved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Union

from repro.datamodel.instance import Fact, Instance
from repro.errors import SelectionError
from repro.mappings.tgd import StTgd
from repro.selection.metrics import (
    CandidateTables,
    IndexedTarget,
    SelectionProblem,
    cover_and_error_tables,
    evaluate_candidate,
    merge_candidate_tables,
)


@dataclass(frozen=True)
class AddTargetTuple:
    """Add *fact* to the target example J."""

    fact: Fact


@dataclass(frozen=True)
class RemoveTargetTuple:
    """Remove *fact* from the target example J."""

    fact: Fact


@dataclass(frozen=True)
class AddSourceTuple:
    """Add *fact* to the source instance I (re-chases touching candidates)."""

    fact: Fact


@dataclass(frozen=True)
class RemoveSourceTuple:
    """Remove *fact* from the source instance I (re-chases touching candidates)."""

    fact: Fact


@dataclass(frozen=True)
class FlipCandidate:
    """Replace the candidate at *index* with *candidate*.

    The primitive-level "flip a correspondence": correspondence noise
    manifests at the selection layer as one candidate tgd swapped for a
    variant targeting a different attribute.
    """

    index: int
    candidate: StTgd


Mutation = Union[
    AddTargetTuple, RemoveTargetTuple, AddSourceTuple, RemoveSourceTuple, FlipCandidate
]


class MutableSelection:
    """A selection problem that absorbs edits incrementally.

    Keeps the per-candidate :class:`~repro.selection.metrics.
    CandidateTables` in their candidate-local null-label space plus
    private copies of the source/target instances.  :meth:`apply`
    recomputes only what an edit can touch and re-merges into a new
    problem.  A failed edit raises :class:`SelectionError` and changes
    nothing.

    Two counters record the work done across the chain's lifetime:
    ``rechased_candidates`` counts the chases actually rerun (source
    edits and flips), ``recovered_candidates`` the cover tables
    recomputed on a reused chase (target edits).

    Successive problems share the tables of candidates an edit did not
    touch — cover dicts, shifted chase instances and error sets — so
    they must be treated as read-only, as every consumer does.
    """

    def __init__(
        self,
        source: Instance,
        target: Instance,
        candidates: Iterable[StTgd],
    ):
        self.source = source.copy()
        self.target = target.copy()
        self.candidates = list(candidates)
        if not all(isinstance(c, StTgd) for c in self.candidates):
            raise SelectionError("candidates must be StTgd objects")
        # J indexed once per target revision: source edits reuse it.
        self._indexed = IndexedTarget.of(self.target)
        self._tables: list[CandidateTables] = [
            evaluate_candidate(self.source, self.target, candidate, i, self._indexed)
            for i, candidate in enumerate(self.candidates)
        ]
        # Per candidate, from the last merge: (tables, offset, shifted
        # chase, shifted errors).
        self._shifted: list[tuple | None] = [None] * len(self.candidates)
        self.rechased_candidates = 0
        self.recovered_candidates = 0
        self.problem = self._merge()

    def _shift(
        self, table: CandidateTables, offset: int
    ) -> tuple[Instance, frozenset[Fact]]:
        """``table.shifted(offset)``, reused from the last merge if unchanged."""
        kept = self._shifted[table.index]
        if kept is None or kept[0] is not table or kept[1] != offset:
            kept = (table, offset, *table.shifted(offset))
            self._shifted[table.index] = kept
        return kept[2], kept[3]

    def _merge(self) -> SelectionProblem:
        return merge_candidate_tables(
            self.source.copy(),
            self.target.copy(),
            list(self.candidates),
            self._tables,
            j_facts=list(self._indexed.order),
            shift=self._shift,
        )

    def _rechase(self, indices: Iterable[int]) -> None:
        """Re-chase the candidates at *indices* against the unchanged target."""
        for i in indices:
            self.rechased_candidates += 1
            self._tables[i] = evaluate_candidate(
                self.source, self.target, self.candidates[i], i, self._indexed
            )

    def _retable(self, edited: Fact) -> None:
        """Re-index the edited J; re-cover the candidates that reach *edited*.

        Candidate i's tables test homomorphisms of i's own chase facts
        into J, and J changed only at *edited*:

        * ``covers[i][t]`` is non-zero only if a chase fact maps onto t,
          so *edited*'s own entry needs a chase fact matching it;
        * a null of a covering fact is corroborated by a witness, another
          chase fact of i mapping into J with that null fixed.  A witness
          that maps onto *edited* under a fixed null also maps onto it
          with no null fixed, since fixing a null only adds constraints;
        * ``creates(f)`` asks whether chase fact f has any image in J.

        So if no chase fact of i matches *edited*
        (:meth:`~repro.selection.metrics.CandidateTables.reaches`), every
        test of i has the same answer against the old and the new J, and
        i's cover table, error set and their order (J's repr order, in
        which *edited* has no entry of i) stand.  The candidates it does
        reach are re-covered on their reused chases; cover degrees and
        ``creates`` are invariant under null relabeling, so the
        local-label chase facts yield exactly what a from-scratch
        evaluation would.
        """
        self._indexed = IndexedTarget.of(self.target)
        for i, table in enumerate(self._tables):
            if table.reaches(edited):
                self.recovered_candidates += 1
                covers, errors = cover_and_error_tables(table.chase_facts, self._indexed)
                self._tables[i] = replace(table, covers=covers, error_facts=errors)

    def _body_relations(self, index: int) -> frozenset[str]:
        return frozenset(a.relation for a in self.candidates[index].body)

    def apply(self, mutation: Mutation) -> SelectionProblem:
        """Apply one edit; returns the new problem."""
        if isinstance(mutation, AddTargetTuple):
            if not self.target.add(mutation.fact):
                raise SelectionError(f"{mutation.fact} already in target")
            self._retable(mutation.fact)
        elif isinstance(mutation, RemoveTargetTuple):
            if not self.target.discard(mutation.fact):
                raise SelectionError(f"{mutation.fact} not in target")
            self._retable(mutation.fact)
        elif isinstance(mutation, (AddSourceTuple, RemoveSourceTuple)):
            if isinstance(mutation, AddSourceTuple):
                if not self.source.add(mutation.fact):
                    raise SelectionError(f"{mutation.fact} already in source")
            else:
                if not self.source.discard(mutation.fact):
                    raise SelectionError(f"{mutation.fact} not in source")
            # Re-chase exactly the candidates whose body reads the
            # touched relation; everyone else's chase — and, with the
            # target untouched, covers and errors too — stands as-is.
            touched = mutation.fact.relation
            self._rechase(
                i for i in range(len(self.candidates)) if touched in self._body_relations(i)
            )
        elif isinstance(mutation, FlipCandidate):
            if not 0 <= mutation.index < len(self.candidates):
                raise SelectionError(f"no candidate at index {mutation.index}")
            if not isinstance(mutation.candidate, StTgd):
                raise SelectionError(f"{mutation.candidate!r} is not an StTgd")
            self.candidates[mutation.index] = mutation.candidate
            self._rechase([mutation.index])
        else:
            raise SelectionError(f"unknown mutation {mutation!r}")
        self.problem = self._merge()
        return self.problem
