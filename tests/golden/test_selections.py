"""Recorded selections at scale: same set, same exact objective, same ADMM run.

``selections.json`` holds, per generated scenario (``repro generate
--primitives N --rows 20 --seed 1``) and method, the selected candidate
indices, the exact ``Fraction`` objective as a string and — for
``collective`` — the ADMM iteration count.  Any change to the selection
pipeline must reproduce them; changing a golden needs a CHANGES.md entry
that says why.

Re-record (only when a behaviour change is intended)::

    python -m tests.golden.test_selections
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.evaluation.engine import METHOD_REGISTRY
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario

GOLDEN = Path(__file__).with_name("selections.json")

GRID_METHODS = ("collective", "greedy", "all-candidates")

#: primitives -> methods recorded at that scale (branch and bound only
#: where it stays fast).
SCALES = {
    8: GRID_METHODS + ("exact",),
    16: GRID_METHODS,
    32: GRID_METHODS,
}


def scenario_key(primitives: int) -> str:
    return f"p{primitives}-r20-s1"


def compute(primitives: int) -> dict:
    config = ScenarioConfig(num_primitives=primitives, rows_per_relation=20, seed=1)
    problem = generate_scenario(config).selection_problem()
    methods = {}
    for name in SCALES[primitives]:
        result = METHOD_REGISTRY[name](problem)
        methods[name] = {
            "selected": sorted(result.selected),
            "objective": str(result.objective),
            "iterations": getattr(result, "iterations", None),
        }
    return {
        "candidates": problem.num_candidates,
        "j_facts": len(problem.j_facts),
        "methods": methods,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("primitives", sorted(SCALES))
def test_selections_match_golden(golden, primitives):
    expected = golden[scenario_key(primitives)]
    assert compute(primitives) == expected


if __name__ == "__main__":
    rows = [
        f"{json.dumps(scenario_key(p))}: {json.dumps(compute(p), sort_keys=True)}"
        for p in sorted(SCALES)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {GOLDEN}")
