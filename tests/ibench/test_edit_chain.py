"""An edit chain solved through the grounding cache equals solving from scratch.

Replays the pattern of a data-and-weight edit chain on the 16-primitive,
20-row scenario of generator seed 1: remove, then re-add, each of the
four latest-sorting target tuples, and at every revision solve under
three objective weightings.  The first solve of a revision grounds
fresh; the other two hit the cached grounding and reweight it.  Each
must select the same set, with the same exact objective, as a fresh
solve of a from-scratch build of that revision.
"""

from fractions import Fraction

import pytest

from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.mutations import AddTargetTuple, MutableSelection, RemoveTargetTuple
from repro.selection.collective import (
    GROUNDING_CACHE,
    CollectiveSettings,
    solve_collective,
)
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights

WEIGHTS = (
    ObjectiveWeights(),
    ObjectiveWeights(explains=Fraction(3, 2)),
    ObjectiveWeights(size=Fraction(3, 4)),
)


@pytest.fixture
def clean_cache():
    GROUNDING_CACHE.clear()
    yield
    GROUNDING_CACHE.clear()


def test_edit_chain_cached_solves_match_scratch(clean_cache):
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=16, rows_per_relation=20, seed=1)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    pool = sorted(chain.target, key=repr)[-4:]
    edits = [None] + [
        edit for fact in pool for edit in (RemoveTargetTuple(fact), AddTargetTuple(fact))
    ]
    for edit in edits:
        if edit is not None:
            chain.apply(edit)
        scratch = build_selection_problem(chain.source, chain.target, chain.candidates)
        for weights in WEIGHTS:
            cached = solve_collective(chain.problem, CollectiveSettings(weights=weights))
            fresh = solve_collective(
                scratch, CollectiveSettings(weights=weights, reuse_grounding=False)
            )
            assert cached.selected == fresh.selected, (edit, weights)
            assert isinstance(cached.objective, Fraction)
            assert cached.objective == fresh.objective, (edit, weights)
    # Every revision grounded once and reweighted for the other two weightings.
    assert GROUNDING_CACHE.misses == len(edits)
    assert GROUNDING_CACHE.hits == 2 * len(edits)
