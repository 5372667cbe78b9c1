"""Mutation chains replay edits with the exact from-scratch semantics.

The equivalence contract of :mod:`repro.ibench.mutations`: after any
sequence of primitive-level edits, the incrementally maintained
:class:`SelectionProblem` fingerprints identically to
:func:`build_selection_problem` run fresh on the mutated data — chase
reuse, candidate-local null labels, and the merge shift are invisible.
"""

import pytest

from repro.datamodel.instance import Fact
from repro.errors import SelectionError
from repro.examples_data import paper_example
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.mutations import (
    AddSourceTuple,
    AddTargetTuple,
    FlipCandidate,
    MutableSelection,
    RemoveSourceTuple,
    RemoveTargetTuple,
)
from repro.selection.metrics import build_selection_problem, problem_fingerprint


@pytest.fixture
def example():
    return paper_example(extra_projects=3)


def _chain(example) -> MutableSelection:
    return MutableSelection(example.source, example.target, example.candidates)


def _assert_matches_scratch(chain: MutableSelection) -> None:
    scratch = build_selection_problem(chain.source, chain.target, chain.candidates)
    assert problem_fingerprint(chain.problem) == problem_fingerprint(scratch)


def test_base_problem_matches_scratch(example):
    chain = _chain(example)
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 0


def test_target_edits_match_scratch_without_rechasing(example):
    chain = _chain(example)
    fact = sorted(chain.target, key=repr)[-1]
    chain.apply(RemoveTargetTuple(fact))
    _assert_matches_scratch(chain)
    chain.apply(AddTargetTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 0  # target edits reuse every chase


def test_source_edits_rechase_only_touching_candidates():
    # Distinct primitives read distinct source relations, so one edit
    # touches only its own primitive's candidates.
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=3, rows_per_relation=6, seed=11)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    fact = next(iter(chain.source))
    touching = sum(
        1
        for i in range(len(chain.candidates))
        if fact.relation in chain._body_relations(i)
    )
    assert 0 < touching < len(chain.candidates)
    chain.apply(RemoveSourceTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == touching
    chain.apply(AddSourceTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 2 * touching


def test_source_edit_to_foreign_relation_rechases_nothing(example):
    chain = _chain(example)
    chain.apply(AddSourceTuple(Fact("unrelated_relation", ("v1", "v2"))))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 0


def test_flip_candidate_matches_scratch(example):
    chain = _chain(example)
    # Swap the first two candidates' tgds — each flip re-chases one slot.
    flipped = chain.candidates[1]
    chain.apply(FlipCandidate(0, flipped))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 1


def test_mixed_chain_matches_scratch(example):
    chain = _chain(example)
    t_fact = sorted(chain.target, key=repr)[-1]
    s_fact = next(iter(chain.source))
    for edit in (
        RemoveTargetTuple(t_fact),
        RemoveSourceTuple(s_fact),
        AddTargetTuple(t_fact),
        AddSourceTuple(s_fact),
        FlipCandidate(0, chain.candidates[1]),
    ):
        chain.apply(edit)
        _assert_matches_scratch(chain)


def test_generated_scenario_chain_matches_scratch():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=3, rows_per_relation=6, seed=11)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    for fact in sorted(chain.target, key=repr)[-3:]:
        chain.apply(RemoveTargetTuple(fact))
        _assert_matches_scratch(chain)
        chain.apply(AddTargetTuple(fact))
        _assert_matches_scratch(chain)


def test_invalid_edits_raise(example):
    chain = _chain(example)
    present_target = next(iter(chain.target))
    present_source = next(iter(chain.source))
    missing = Fact("nowhere", ("x",))
    with pytest.raises(SelectionError):
        chain.apply(AddTargetTuple(present_target))
    with pytest.raises(SelectionError):
        chain.apply(RemoveTargetTuple(missing))
    with pytest.raises(SelectionError):
        chain.apply(AddSourceTuple(present_source))
    with pytest.raises(SelectionError):
        chain.apply(RemoveSourceTuple(missing))
    with pytest.raises(SelectionError):
        chain.apply(FlipCandidate(len(chain.candidates), chain.candidates[0]))
    # Failed edits must not have changed the problem.
    _assert_matches_scratch(chain)

