"""Figure: selection runtime vs scenario size.

Wall time of the collective selector (grounding + ADMM + rounding) as
the number of primitive invocations grows.  The cost stays far below
the 2^|C| of exhaustive search, but it does not scale with the number of
groundings: it grows superlinearly in |C|, because rounding evaluates
the exact objective once per threshold prefix and per 1-flip probe.
With each evaluation re-scoring F from scratch, the solve grew about 4x
and then 7x per doubling from 8 to 32 primitives (20 rows, seed 1;
rounding 78-98% of it).  On the incremental objective engine
(docs/objective.md) an evaluation costs only the flipped candidates'
covers, and the solve grows about 2-3.6x per doubling from 8 to 128
primitives (2-CPU host, Python 3.11).
"""

import pytest
from benchmarks._common import record_result

from repro.evaluation.reporting import format_table
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.selection.collective import solve_collective

SIZES = (2, 4, 8, 16)
_problems = {}
_rows = []


def _problem(n: int):
    if n not in _problems:
        scenario = generate_scenario(
            ScenarioConfig(num_primitives=n, rows_per_relation=8, pi_corresp=50, seed=9)
        )
        _problems[n] = (scenario, scenario.selection_problem())
    return _problems[n]


@pytest.mark.parametrize("n", SIZES)
def test_fig_scalability(benchmark, n):
    scenario, problem = _problem(n)
    result = benchmark(lambda: solve_collective(problem))
    assert result.converged
    _rows.append(
        [
            n,
            len(scenario.candidates),
            len(scenario.target),
            result.num_potentials,
            result.num_constraints,
            float(benchmark.stats["mean"]),
        ]
    )
    if n == SIZES[-1]:
        record_result(
            "fig_scalability",
            format_table(
                ["#primitives", "|C|", "|J|", "#potentials", "#constraints", "mean sec"],
                _rows,
                title="Collective-selection runtime vs scenario size",
            ),
        )
