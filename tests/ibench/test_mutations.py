"""Mutation chains replay edits with the exact from-scratch semantics.

The equivalence contract of :mod:`repro.ibench.mutations`: after any
sequence of primitive-level edits, the incrementally maintained
:class:`SelectionProblem` fingerprints identically to
:func:`build_selection_problem` run fresh on the mutated data, and lists
J and every cover table in the same order — chase reuse, partial
re-covering, candidate-local null labels, and the merge shift are
invisible.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel.instance import Fact
from repro.datamodel.values import Constant
from repro.errors import SelectionError
from repro.examples_data import paper_example
from repro.homomorphism.search import fact_matches
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
    # The fingerprint sorts; consumers iterate, so order must agree too.
    assert chain.problem.j_facts == scratch.j_facts
    assert [list(table.items()) for table in chain.problem.covers] == [
        list(table.items()) for table in scratch.covers
    ]


def _reaching(problem, fact: Fact) -> list[int]:
    """Candidates with a chase fact that maps onto *fact*, by a plain scan."""
    return [
        i
        for i, chase_instance in enumerate(problem.chase_by_candidate)
        if any(fact_matches(f, fact) is not None for f in chase_instance)
    ]


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


def test_target_edits_recover_exactly_the_reaching_candidates():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=4, rows_per_relation=6, seed=11)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    expected = 0
    for fact in sorted(chain.target, key=repr)[-3:]:
        reaching = _reaching(chain.problem, fact)
        assert 0 < len(reaching) < len(chain.candidates)
        before = chain.problem
        chain.apply(RemoveTargetTuple(fact))
        expected += len(reaching)
        assert chain.recovered_candidates == expected
        _assert_matches_scratch(chain)
        # Untouched candidates keep their tables and shifted chases.
        for i in set(range(len(chain.candidates))) - set(reaching):
            assert chain.problem.covers[i] is before.covers[i]
            assert chain.problem.chase_by_candidate[i] is before.chase_by_candidate[i]
        assert _reaching(chain.problem, fact) == reaching
        chain.apply(AddTargetTuple(fact))
        expected += len(reaching)
        assert chain.recovered_candidates == expected
        _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 0


def test_target_edit_no_candidate_reaches_recovers_nothing(example):
    chain = _chain(example)
    fact = Fact("unrelated_relation", ("v1", "v2"))
    chain.apply(AddTargetTuple(fact))
    assert chain.recovered_candidates == 0
    assert fact in chain.problem.j_facts
    _assert_matches_scratch(chain)


def test_source_edit_shifting_later_offsets_matches_scratch():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=3, rows_per_relation=6, seed=11)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    nulls = [t.nulls_used for t in chain._tables]
    # A source fact read by an early candidate that invents nulls: a new
    # row for it changes that candidate's nulls_used, so every later
    # candidate's labels move by one offset.
    first = next(i for i, n in enumerate(nulls) if n and any(nulls[i + 1 :]))
    relation = chain.candidates[first].body[0].relation
    row = sorted(chain.source.facts_of(relation), key=repr)[0]
    fresh = Fact(relation, tuple(Constant(f"fresh{k}") for k in range(row.arity)))
    before = chain.problem
    chain.apply(AddSourceTuple(fresh))
    assert chain._tables[first].nulls_used > nulls[first]
    _assert_matches_scratch(chain)
    touched = {i for i in range(len(chain.candidates)) if relation in chain._body_relations(i)}
    for i in range(len(chain.candidates)):
        same = chain.problem.chase_by_candidate[i] is before.chase_by_candidate[i]
        # Reused exactly when neither the tables nor the offset moved.
        assert same == (i < first and i not in touched)
    chain.apply(RemoveSourceTuple(fresh))
    _assert_matches_scratch(chain)


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
    before = list(chain.candidates)
    with pytest.raises(SelectionError):
        chain.apply(FlipCandidate(0, "not a tgd"))
    assert chain.candidates == before
    # Failed edits must not have changed the problem.
    _assert_matches_scratch(chain)


def _fresh_variant(base: Fact, position: int, tag: str) -> Fact:
    values = list(base.values)
    values[position] = Constant(tag)
    return Fact(base.relation, tuple(values))


@settings(max_examples=25, deadline=None)
@given(
    primitives=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_random_edit_sequences_match_scratch(primitives, seed, data):
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=primitives, rows_per_relation=4, seed=seed)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    target_pool = sorted(set(scenario.target) | set(scenario.reference_target), key=repr)
    source_pool = sorted(scenario.source, key=repr)
    kinds = st.sampled_from(["add_t", "remove_t", "add_s", "remove_s", "flip"])
    for step in range(data.draw(st.integers(min_value=1, max_value=6))):
        kind = data.draw(kinds)
        if kind == "remove_t" and len(chain.target):
            edit = RemoveTargetTuple(data.draw(st.sampled_from(sorted(chain.target, key=repr))))
        elif kind == "remove_s" and len(chain.source):
            edit = RemoveSourceTuple(data.draw(st.sampled_from(sorted(chain.source, key=repr))))
        elif kind == "flip":
            edit = FlipCandidate(
                data.draw(st.integers(0, len(chain.candidates) - 1)),
                data.draw(st.sampled_from(scenario.candidates)),
            )
        else:
            # Adds re-add a pooled fact or invent a row with one new value:
            # a new source row adds chase triggers, and with them nulls.
            is_source = kind in ("add_s", "remove_s")
            pool, present = (
                (source_pool, chain.source) if is_source else (target_pool, chain.target)
            )
            fact = data.draw(st.sampled_from(pool))
            if fact in present or data.draw(st.booleans()):
                position = data.draw(st.integers(0, fact.arity - 1))
                fact = _fresh_variant(fact, position, f"new{step}")
            edit = AddSourceTuple(fact) if is_source else AddTargetTuple(fact)
        chain.apply(edit)
        _assert_matches_scratch(chain)
