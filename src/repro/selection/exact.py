"""Exact solvers for mapping selection.

Mapping selection is NP-hard (Theorem 1; reduction in
:mod:`repro.theory.set_cover_reduction`), so exact solving is only viable
for small candidate sets.  Two strategies are provided:

* :func:`solve_exhaustive` — enumerate all 2^n subsets (n <= ~18);
* :func:`solve_branch_and_bound` — depth-first search with an admissible
  lower bound that assumes every still-undecided candidate contributes
  its coverage for free.  Orders of magnitude faster in practice and the
  default for the evaluation's "exact" baseline.

Both return provably optimal selections for the exact objective of
:mod:`repro.selection.objective`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from repro.selection.metrics import SelectionProblem
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    ObjectiveWeights,
    objective_value,
)


@dataclass(frozen=True)
class SelectionResult:
    """A selection (candidate indices) plus its objective value."""

    selected: frozenset[int]
    objective: Fraction

    def tgds(self, problem: SelectionProblem) -> list:
        """The selected st tgds, in index order."""
        return [problem.candidates[i] for i in sorted(self.selected)]


def solve_exhaustive(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
    max_candidates: int = 18,
) -> SelectionResult:
    """Optimal selection by enumerating every subset of candidates."""
    n = problem.num_candidates
    if n > max_candidates:
        raise ValueError(
            f"exhaustive search over {n} candidates would enumerate 2^{n} subsets; "
            f"use solve_branch_and_bound instead"
        )
    best: frozenset[int] = frozenset()
    best_value = objective_value(problem, [], weights)
    indices = range(n)
    for k in range(1, n + 1):
        for subset in combinations(indices, k):
            value = objective_value(problem, subset, weights)
            if value < best_value:
                best_value = value
                best = frozenset(subset)
    return SelectionResult(best, best_value)


class _BranchAndBound:
    """DFS over include/exclude decisions with an admissible bound."""

    def __init__(self, problem: SelectionProblem, weights: ObjectiveWeights):
        # Decide high-coverage candidates first: they tighten the bound fastest.
        self._order = sorted(
            range(problem.num_candidates),
            key=lambda i: -sum(problem.covers[i].values()),
        )
        self._incremental = IncrementalObjective(problem, weights)
        self._suffix_covers = self._incremental.suffix_covers(self._order)
        self._best_value = self._incremental.value
        self._best_set: frozenset[int] = frozenset()
        self._nodes = 0

    def solve(self) -> SelectionResult:
        self._dfs(0)
        return SelectionResult(self._best_set, self._best_value)

    def _dfs(self, depth: int) -> None:
        self._nodes += 1
        inc = self._incremental
        if inc.value < self._best_value:
            self._best_value = inc.value
            self._best_set = inc.selected
        if depth == len(self._order):
            return
        if inc.lower_bound(self._suffix_covers[depth]) >= self._best_value:
            return
        i = self._order[depth]
        # Branch 1: include candidate i (only promising when it covers anything
        # or the caller uses negative weights, which ObjectiveWeights forbids).
        inc.add(i)
        self._dfs(depth + 1)
        inc.remove(i)
        # Branch 2: exclude candidate i.
        self._dfs(depth + 1)

    @property
    def nodes_explored(self) -> int:
        return self._nodes


def solve_branch_and_bound(
    problem: SelectionProblem,
    weights: ObjectiveWeights = DEFAULT_WEIGHTS,
) -> SelectionResult:
    """Provably optimal selection via branch and bound."""
    return _BranchAndBound(problem, weights).solve()
