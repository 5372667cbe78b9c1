"""The mapping-selection objective — Eq. (4) and Eq. (9) of the paper.

For a selection M of candidates::

    F(M) =  w_explains * sum_{t in J}       (1 - explains(M, t))
          + w_errors   * sum_{t in K_C - J}  error(M, t)
          + w_size     * sum_{theta in M}    size(theta)

With all-full candidates the graded terms collapse to Booleans and this
is exactly Eq. (4); in general it is Eq. (9).  The weighted form is the
appendix's Theorem 1 generalization (NP-hard for any positive weights).
Values are exact :class:`fractions.Fraction`s so the appendix table is
reproduced to the digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro.selection.metrics import SelectionProblem


@dataclass(frozen=True)
class ObjectiveWeights:
    """Non-negative weights for the three objective terms (all 1 in the paper).

    A weight of exactly 0 is accepted and simply switches its term off.
    This is deliberate: ablations and the fact-sampling estimator (which
    rescales ``explains`` by the sampled fraction, reaching 0 for an empty
    sample) both rely on it.  Note, however, that Theorem 1's NP-hardness
    statement assumes *strictly positive* weights — with a zero weight the
    optimization problem changes character (e.g. ``size=0`` makes adding
    error-free candidates free), so complexity guarantees no longer carry
    over.  Negative weights are rejected: they would invert a term's
    meaning and break every solver's pruning arguments.
    """

    explains: Fraction = Fraction(1)
    errors: Fraction = Fraction(1)
    size: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for label, w in (
            ("explains", self.explains),
            ("errors", self.errors),
            ("size", self.size),
        ):
            if w < 0:
                raise ValueError(f"weight {label} must be non-negative, got {w}")


DEFAULT_WEIGHTS = ObjectiveWeights()


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """F(M) split into its three terms (all exact fractions)."""

    unexplained: Fraction
    errors: Fraction
    size: Fraction

    @property
    def total(self) -> Fraction:
        return self.unexplained + self.errors + self.size


def objective_breakdown(
    problem: SelectionProblem,
    selected: Iterable[int],
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> ObjectiveBreakdown:
    """Evaluate F on *selected* (candidate indices), term by term."""
    chosen = sorted(set(selected))
    unexplained = sum(
        (Fraction(1) - problem.max_cover(t, chosen) for t in problem.j_facts),
        Fraction(0),
    )
    n_errors = len(problem.union_error_facts(chosen))
    size = sum(problem.sizes[i] for i in chosen)
    return ObjectiveBreakdown(
        weights.explains * unexplained,
        weights.errors * Fraction(n_errors),
        weights.size * Fraction(size),
    )


def objective_value(
    problem: SelectionProblem,
    selected: Iterable[int],
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> Fraction:
    """F(M) as a single exact number."""
    return objective_breakdown(problem, selected, weights).total


class IncrementalObjective:
    """F(M) maintained under single-candidate flips — the one search engine.

    Greedy, k-best, branch and bound and collective rounding all evaluate
    the objective through this class; :func:`objective_breakdown` stays
    the from-scratch definition it is checked against.

    At construction J's facts are interned to dense ids in ``j_facts``
    order and error facts in candidate order, and cover degrees become
    integers over the common denominator of all degrees.  Each candidate
    is then a list of ``(fact_id, degree)`` pairs plus a list of error
    ids.  The engine keeps, per J fact, how many selected candidates
    cover it at each degree and the current best degree; per error fact,
    how many selected candidates create it.  A flip of candidate i costs
    O(|covers(i)| + |errors(i)|): no ``Fact`` hashing, no scan over the
    selection.  ``Fraction``s are built only for reported values.
    """

    def __init__(
        self,
        problem: SelectionProblem,
        weights: ObjectiveWeights = DEFAULT_WEIGHTS,
    ):
        self._weights = weights
        fact_ids = {t: k for k, t in enumerate(problem.j_facts)}
        # F sums over j_facts only; like objective_breakdown, ignore a
        # cover entry for any other fact.
        tables = [
            [(fact_ids[t], d) for t, d in table.items() if t in fact_ids]
            for table in problem.covers
        ]
        scale = self._scale = math.lcm(
            1, *{d.denominator for table in tables for _, d in table}
        )
        self._covers: list[list[tuple[int, int]]] = [
            [(k, int(d * scale)) for k, d in table] for table in tables
        ]
        error_ids: dict = {}
        # Ids only index the owner counts, so the set order they are
        # handed out in cannot change any value.
        self._errors: list[list[int]] = [
            [error_ids.setdefault(f, len(error_ids)) for f in errs]
            for errs in problem.error_facts
        ]
        self._sizes = list(problem.sizes)
        self._selected: set[int] = set()
        self._degree_counts: list[dict[int, int]] = [{} for _ in fact_ids]
        self._best = [0] * len(fact_ids)
        self._owners = [0] * len(error_ids)
        # F's three raw terms: unexplained J mass (in units of 1/scale),
        # distinct error facts, summed size.
        self._unexplained = scale * len(problem.j_facts)
        self._num_errors = 0
        self._size = 0

    @property
    def selected(self) -> frozenset[int]:
        return frozenset(self._selected)

    @property
    def value(self) -> Fraction:
        w = self._weights
        return (
            w.explains * Fraction(self._unexplained, self._scale)
            + w.errors * self._num_errors
            + w.size * self._size
        )

    def add(self, i: int) -> None:
        """Select candidate *i* (no-op if already selected)."""
        if i in self._selected:
            return
        self._selected.add(i)
        best, counts = self._best, self._degree_counts
        for k, d in self._covers[i]:
            row = counts[k]
            row[d] = row.get(d, 0) + 1
            if d > best[k]:
                self._unexplained -= d - best[k]
                best[k] = d
        owners = self._owners
        for e in self._errors[i]:
            if not owners[e]:
                self._num_errors += 1
            owners[e] += 1
        self._size += self._sizes[i]

    def remove(self, i: int) -> None:
        """Deselect candidate *i* (no-op if not selected)."""
        if i not in self._selected:
            return
        self._selected.remove(i)
        best, counts = self._best, self._degree_counts
        for k, d in self._covers[i]:
            row = counts[k]
            left = row[d] - 1
            if left:
                row[d] = left
                continue
            del row[d]
            if d == best[k]:
                runner_up = max(row) if row else 0
                self._unexplained += d - runner_up
                best[k] = runner_up
        owners = self._owners
        for e in self._errors[i]:
            owners[e] -= 1
            if not owners[e]:
                self._num_errors -= 1
        self._size -= self._sizes[i]

    def delta_add(self, i: int) -> Fraction:
        """Change in F if candidate *i* were added (without mutating)."""
        if i in self._selected:
            return Fraction(0)
        w, best, owners = self._weights, self._best, self._owners
        gain = sum(d - best[k] for k, d in self._covers[i] if d > best[k])
        new_errors = sum(1 for e in self._errors[i] if not owners[e])
        return (
            -w.explains * Fraction(gain, self._scale)
            + w.errors * new_errors
            + w.size * self._sizes[i]
        )

    def value_of(self, selection: Iterable[int]) -> Fraction:
        """F(*selection*), reached by flipping the symmetric difference.

        The ``objective(frozenset)`` callback of :mod:`repro.psl.rounding`:
        consecutive rounding queries differ in one or a few candidates, so
        each costs only the flips between them.
        """
        for i in self._selected.symmetric_difference(selection):
            if i in self._selected:
                self.remove(i)
            else:
                self.add(i)
        return self.value

    # -- branch and bound ----------------------------------------------------

    def suffix_covers(self, order: list[int]) -> list[tuple[tuple[int, int], ...]]:
        """Per depth k, the best degree of each J fact over ``order[k:]``.

        Entry ``len(order)`` is empty.  Feed an entry to
        :meth:`lower_bound` while the candidates ``order[k:]`` are
        undecided.
        """
        suffixes: list[tuple[tuple[int, int], ...]] = [()]
        merged: dict[int, int] = {}
        for i in reversed(order):
            for k, d in self._covers[i]:
                if d > merged.get(k, 0):
                    merged[k] = d
            suffixes.append(tuple(merged.items()))
        suffixes.reverse()
        return suffixes

    def lower_bound(self, suffix: tuple[tuple[int, int], ...]) -> Fraction:
        """F of the best completion if *suffix*'s coverage came for free.

        Admissible for every selection that extends the current one with
        candidates from the suffix: their errors and size can only add to
        F, and their coverage can lower it by at most
        ``sum(max(0, suffix - best))`` over J.
        """
        best = self._best
        gap = sum(d - best[k] for k, d in suffix if d > best[k])
        return self.value - self._weights.explains * Fraction(gap, self._scale)
