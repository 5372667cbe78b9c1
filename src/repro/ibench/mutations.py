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

Cover degrees and error sets are *whole-target* functions (cover
corroboration searches homomorphisms into all of J; ``creates`` tests
membership against J), so they are recomputed for every candidate on any
target edit — only the chase, the expensive half, is reused.  All stored
tables keep candidate-*local* null labels; the merge shifts them into
the global label space exactly as a serial build would, so equivalence
survives any mix of reused and re-chased candidates.
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
    problem.

    ``rechased_candidates`` counts the chases actually rerun across the
    chain's lifetime — the work the delta replay saved is the chain
    length times the candidate count, minus it.
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
        self.rechased_candidates = 0
        self.problem = self._merge()

    def _merge(self) -> SelectionProblem:
        return merge_candidate_tables(
            self.source.copy(),
            self.target.copy(),
            list(self.candidates),
            self._tables,
            j_facts=list(self._indexed.order),
        )

    def _rechase(self, indices: Iterable[int]) -> None:
        """Re-chase the candidates at *indices* against the unchanged target."""
        for i in indices:
            self.rechased_candidates += 1
            self._tables[i] = evaluate_candidate(
                self.source, self.target, self.candidates[i], i, self._indexed
            )

    def _retable(self) -> None:
        """Re-index the edited target and recompute every candidate's covers/errors.

        The chases are reused, and J is indexed once for all of them.
        Cover degrees and ``creates`` are invariant under null
        relabeling, so computing them on the local-label chase facts
        yields exactly what a from-scratch evaluation would.
        """
        self._indexed = IndexedTarget.of(self.target)
        tables = []
        for table in self._tables:
            covers, errors = cover_and_error_tables(table.chase_facts, self._indexed)
            tables.append(replace(table, covers=covers, error_facts=errors))
        self._tables = tables

    def _body_relations(self, index: int) -> frozenset[str]:
        return frozenset(a.relation for a in self.candidates[index].body)

    def apply(self, mutation: Mutation) -> SelectionProblem:
        """Apply one edit; returns the new problem."""
        if isinstance(mutation, AddTargetTuple):
            if not self.target.add(mutation.fact):
                raise SelectionError(f"{mutation.fact} already in target")
            self._retable()
        elif isinstance(mutation, RemoveTargetTuple):
            if not self.target.discard(mutation.fact):
                raise SelectionError(f"{mutation.fact} not in target")
            self._retable()
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
            self.candidates[mutation.index] = mutation.candidate
            self._rechase([mutation.index])
        else:
            raise SelectionError(f"unknown mutation {mutation!r}")
        self.problem = self._merge()
        return self.problem

