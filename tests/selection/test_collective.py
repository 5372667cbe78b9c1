"""Unit tests for the collective (PSL) selector."""

import pytest

from repro.examples_data import paper_example
from repro.psl.admm import AdmmSettings
from repro.selection.collective import (
    CollectiveSettings,
    build_program,
    solve_collective,
)
from repro.selection.exact import solve_branch_and_bound
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights


@pytest.fixture(scope="module")
def problems():
    base = paper_example()
    extended = paper_example(extra_projects=5)
    return (
        build_selection_problem(base.source, base.target, base.candidates),
        build_selection_problem(extended.source, extended.target, extended.candidates),
    )


def test_collective_matches_exact_on_paper_example(problems):
    for problem in problems:
        collective = solve_collective(problem)
        exact = solve_branch_and_bound(problem)
        assert collective.objective == exact.objective
        assert collective.selected == exact.selected


def test_fractional_state_reported(problems):
    result = solve_collective(problems[1])
    assert set(result.fractional) == {0, 1}
    assert all(0.0 <= v <= 1.0 for v in result.fractional.values())
    # theta3 should carry clearly more fractional mass than theta1.
    assert result.fractional[1] > result.fractional[0]


def test_diagnostics_populated(problems):
    result = solve_collective(problems[0])
    assert result.converged
    assert result.iterations > 0
    assert result.num_potentials > 0
    assert result.num_constraints > 0


def test_program_structure(problems):
    problem = problems[0]
    program, in_atoms = build_program(problem, CollectiveSettings())
    assert len(in_atoms) == problem.num_candidates
    mrf = program.ground()
    # 2 coverable J facts -> 2 explained vars; + 2 in vars.
    assert mrf.num_variables == 4
    # 2 coverage potentials + 2 candidate priors (errors+size folded together).
    assert len(mrf.potentials) == 4
    assert len(mrf.constraints) == 2


def test_squared_hinge_variant_still_correct(problems):
    settings = CollectiveSettings(squared_hinges=True)
    result = solve_collective(problems[1], settings)
    exact = solve_branch_and_bound(problems[1])
    assert result.objective == exact.objective


def test_rounding_without_local_search(problems):
    settings = CollectiveSettings(rounding_local_search=False)
    result = solve_collective(problems[1], settings)
    # Threshold sweep alone already finds the optimum here.
    assert result.selected == frozenset({1})


def test_weights_flow_into_relaxation(problems):
    from fractions import Fraction

    heavy_size = CollectiveSettings(weights=ObjectiveWeights(size=Fraction(100)))
    result = solve_collective(problems[1], heavy_size)
    assert result.selected == frozenset()


def test_custom_admm_settings_respected(problems):
    settings = CollectiveSettings(admm=AdmmSettings(max_iterations=1))
    result = solve_collective(problems[0], settings)
    assert result.iterations == 1
    assert not result.converged
    # Rounding against the exact objective still yields a sane selection.
    assert result.objective <= 12


def test_shared_error_facts_use_mediator_variable():
    """Two full tgds creating the same ground error fact pay it once."""
    from repro.datamodel.instance import Instance, fact
    from repro.mappings.parser import parse_tgds

    source = Instance([fact("r", 1), fact("s", 1)])
    target = Instance([fact("u", 2)])  # u(1) will be an error for both
    tgds = parse_tgds("r(X) -> u(X)\ns(X) -> u(X)")
    problem = build_selection_problem(source, target, tgds)
    assert problem.union_error_facts([0, 1]) == {fact("u", 1)}

    program, _ = build_program(problem, CollectiveSettings())
    mrf = program.ground()
    # mediator errorOf var present: 2 in + 1 errorOf (no coverable facts)
    assert mrf.num_variables == 3
    result = solve_collective(problem)
    exact = solve_branch_and_bound(problem)
    assert result.objective == exact.objective


def test_warm_started_collective_chains_state():
    from repro.examples_data import paper_example
    from repro.psl.admm import AdmmSettings
    from repro.selection.collective import (
        CollectiveSettings,
        WarmStartedCollective,
        solve_collective,
    )
    from repro.selection.metrics import build_selection_problem

    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    settings = CollectiveSettings(admm=AdmmSettings(check_every=1))

    cold = solve_collective(problem, settings)
    warm = WarmStartedCollective(settings)
    first = warm(problem)
    second = warm(problem)  # same structure: full ADMM state carries over
    assert first.selected == cold.selected
    assert second.selected == cold.selected
    assert second.iterations < first.iterations


def test_fractional_aux_reports_explained_atoms(problems):
    result = solve_collective(problems[0])
    kinds = {kind for kind, _ in result.fractional_aux}
    assert kinds == {"explained"}  # paper example has no shared errors
    assert all(0.0 <= v <= 1.0 for v in result.fractional_aux.values())


def test_warm_start_aux_seeds_auxiliary_atoms(problems):
    cold = solve_collective(problems[1])
    warm = solve_collective(
        problems[1],
        warm_start=cold.fractional,
        warm_start_aux=cold.fractional_aux,
    )
    assert warm.selected == cold.selected
    assert warm.objective == cold.objective
    # Unknown aux keys are ignored, like unknown candidate indices.
    ok = solve_collective(
        problems[1], warm_start_aux={("explained", 999): 1.0, ("nope", 0): 0.5}
    )
    assert ok.selected == cold.selected


def test_warm_started_collective_chains_aux_state():
    from repro.selection.collective import WarmStartedCollective

    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    warm = WarmStartedCollective()
    first = warm(problem)
    assert warm._previous_aux == first.fractional_aux
    second = warm(problem)
    assert second.selected == first.selected


def test_sharded_ground_matches_serial_solve(problems):
    for problem in problems:
        serial = solve_collective(problem)
        sharded = solve_collective(problem, CollectiveSettings(ground_shard_size=1))
        assert sharded.selected == serial.selected
        assert sharded.objective == serial.objective
        assert sharded.grounding is not None
        assert sharded.grounding.num_shards >= 1


def test_warm_start_ignores_unknown_indices():
    from repro.examples_data import paper_example
    from repro.selection.collective import solve_collective
    from repro.selection.metrics import build_selection_problem

    ex = paper_example()
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    cold = solve_collective(problem)
    warm = solve_collective(problem, warm_start={0: 1.0, 99: 0.25})
    assert warm.selected == cold.selected
    assert warm.objective == cold.objective


def test_grounding_cache_serves_an_edit_chain_with_one_tier():
    # The cache has one tier: a weight edit on the same problem hits and
    # reweights; a data edit yields a new problem, which grounds fresh.
    # Either way the solve equals one on a fresh ground.
    from fractions import Fraction

    from repro.ibench.mutations import AddTargetTuple, MutableSelection, RemoveTargetTuple
    from repro.psl.sharding import mrf_fingerprint
    from repro.selection.collective import CollectiveGroundingCache, GroundedCollective

    ex = paper_example(extra_projects=5)
    chain = MutableSelection(ex.source, ex.target, ex.candidates)
    fact = sorted(chain.target, key=repr)[-1]
    cache = CollectiveGroundingCache()
    weights = [ObjectiveWeights(), ObjectiveWeights(explains=Fraction(3, 2))]
    steps = [None, RemoveTargetTuple(fact), None, AddTargetTuple(fact), None]
    expected_hits = 0
    for step, edit in enumerate(steps):
        if edit is not None:
            chain.apply(edit)
        else:
            expected_hits += step > 0
        settings = CollectiveSettings(weights=weights[step % 2], ground_shard_size=2)
        grounded = cache.grounded(chain.problem, settings)
        fresh = GroundedCollective(chain.problem, settings)
        assert mrf_fingerprint(grounded.mrf) == mrf_fingerprint(fresh.mrf)
        a = solve_collective(chain.problem, settings, grounded=grounded)
        b = solve_collective(chain.problem, settings, grounded=fresh)
        assert (a.selected, a.objective, a.iterations) == (
            b.selected,
            b.objective,
            b.iterations,
        )
        assert a.fractional == b.fractional
    assert (cache.hits, cache.misses) == (expected_hits, 3)
    assert cache.patch_hits == cache.disk_hits == 0
