"""Scoring from the build's chase tables equals scoring from a fresh chase.

``score_selection`` exchanges the source as the union of the selected
candidates' chases from the problem build.  That union is isomorphic to
``exchanged_instance``, so data-level P and R must equal
``data_quality`` exactly, as floats, for every method on the golden
scenarios.  Problems without chase tables, or built on another source
object, must take the fresh-chase path and score the same.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.evaluation.harness as harness
from repro.evaluation.engine import METHOD_REGISTRY
from repro.evaluation.metrics import data_quality
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario

#: primitives -> methods, as recorded in tests/golden/selections.json.
SCALES = {
    8: ("collective", "greedy", "all-candidates", "exact"),
    16: ("collective", "greedy", "all-candidates"),
    32: ("collective", "greedy", "all-candidates"),
}


@pytest.fixture(scope="module", params=sorted(SCALES), ids=lambda p: f"p{p}")
def golden_case(request):
    primitives = request.param
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=primitives, rows_per_relation=20, seed=1)
    )
    problem = scenario.selection_problem()
    selections = {
        name: METHOD_REGISTRY[name](problem).selected for name in SCALES[primitives]
    }
    selections["gold"] = frozenset(scenario.gold_indices)
    return scenario, problem, selections


@pytest.fixture
def fresh_chases(monkeypatch):
    """Count the calls scoring makes to the fresh-chase fallback."""
    calls = []

    def counting(source, selection):
        calls.append(len(selection))
        return original(source, selection)

    original = harness.exchanged_instance
    monkeypatch.setattr(harness, "exchanged_instance", counting)
    return calls


def score(scenario, problem, selected):
    run = harness.score_selection(scenario, problem, "m", selected, 0, 0.0)
    return run.data.precision, run.data.recall


def reference(scenario, problem, selected):
    tgds = [problem.candidates[i] for i in sorted(selected)]
    pr = data_quality(scenario.source, tgds, scenario.reference_target)
    return pr.precision, pr.recall


def test_chase_tables_score_like_a_fresh_chase(golden_case, fresh_chases):
    scenario, problem, selections = golden_case
    for name, selected in selections.items():
        assert score(scenario, problem, selected) == reference(scenario, problem, selected), name
    assert fresh_chases == []


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda s, p: {"chase_by_candidate": []}, id="no-chase-tables"),
        pytest.param(lambda s, p: {"source": s.source.copy()}, id="other-source"),
    ],
)
def test_fallback_scores_like_a_fresh_chase(golden_case, fresh_chases, change):
    scenario, problem, selections = golden_case
    other = dataclasses.replace(problem, **change(scenario, problem))
    for name, selected in selections.items():
        assert score(scenario, other, selected) == reference(scenario, problem, selected), name
    assert len(fresh_chases) == len(selections)
