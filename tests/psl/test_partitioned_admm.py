"""ADMM on partitioned groundings, verified against the frozen flat solver.

The solver runs one flat local step, but the MRF it solves is still
built in partitions: grounding splits the terms into shards of a chosen
size and builds them one after another before the merge.  The contract
under test: for ANY shard size, solving the merged MRF reproduces — bit
for bit — the run of
``_ReferenceFlatSolver`` (see ``test_admm_reference.py``) on the MRF
built in one piece, cold, truncated, reweighted and store-attached.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.admm import AdmmSettings, AdmmSolver
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.sharding import (
    ShardResult,
    TermBlockBuilder,
    ground_shards,
    iter_slices,
    mrf_fingerprint,
)
from repro.psl.store import GroundingStore
from repro.selection.collective import (
    CollectiveSettings,
    GroundedCollective,
    build_program,
    collective_structure_key,
    ground_collective,
    solve_collective,
)
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights
from tests.psl.test_admm_reference import (
    X,
    _assert_identical_run,
    _collective_problem,
    _random_mrf,
    _ReferenceFlatSolver,
)


@dataclass(frozen=True)
class _TermShard:
    """A grounding work unit re-emitting a slice of an MRF's terms."""

    order: int
    potentials: tuple
    constraints: tuple

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for p in self.potentials:
            pairs = [(X(i), c) for i, c in p.coefficients]
            builder.add_potential(pairs, p.offset, p.weight, squared=p.squared)
        for c in self.constraints:
            pairs = [(X(i), a) for i, a in c.coefficients]
            builder.add_constraint(pairs, c.offset, equality=c.equality)
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


def _reground_in_shards(mrf: HingeLossMRF, shard_size: int | None) -> HingeLossMRF:
    """Rebuild *mrf* (variables ``X(0..n-1)``) from shards of its terms.

    Potentials shard first, then constraints, which is the solver's flat
    term order; the variables are interned up front to pin their order.
    """
    shards: list[_TermShard] = []
    for lo, hi in iter_slices(len(mrf.potentials), shard_size):
        shards.append(_TermShard(len(shards), tuple(mrf.potentials[lo:hi]), ()))
    for lo, hi in iter_slices(len(mrf.constraints), shard_size):
        shards.append(_TermShard(len(shards), (), tuple(mrf.constraints[lo:hi])))
    merged = HingeLossMRF()
    for i in range(mrf.num_variables):
        merged.variable_index(X(i))
    merged, stats = ground_shards(shards, mrf=merged)
    assert stats.num_shards == len(shards)
    return merged


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shard_size", [1, 3, 17, None])
def test_partitioned_matches_flat_reference_on_random_mrfs(seed, shard_size):
    mrf = _random_mrf(seed)
    reference = _ReferenceFlatSolver(mrf).solve()
    sharded = _reground_in_shards(mrf, shard_size)
    assert mrf_fingerprint(sharded) == mrf_fingerprint(mrf)
    _assert_identical_run(AdmmSolver(sharded).solve(), reference)


@pytest.mark.parametrize("shard_size", [1, 7, 64, None])
def test_partitioned_matches_flat_reference_on_collective_problem(shard_size):
    problem = _collective_problem()
    settings = CollectiveSettings()
    flat = build_program(problem, settings)[0].ground()
    reference = _ReferenceFlatSolver(flat).solve()
    mrf, _, stats = ground_collective(problem, settings, shard_size=shard_size)
    assert mrf_fingerprint(mrf) == mrf_fingerprint(flat)
    if shard_size in (1, 7):
        # Small shards really split every kind of term.
        assert stats.num_shards > 3
    _assert_identical_run(AdmmSolver(mrf).solve(), reference)


@pytest.mark.parametrize("shard_size", [32, None])
def test_process_executor_blocks_match_reference(shard_size):
    # A truncated run on a sharded ground (the loop exits at the
    # iteration cap between convergence checks) must still be
    # bit-identical.
    problem = _collective_problem()
    settings = AdmmSettings(max_iterations=4, check_every=3)
    flat = build_program(problem, CollectiveSettings())[0].ground()
    reference = _ReferenceFlatSolver(flat, settings).solve()
    mrf, _, _ = ground_collective(problem, shard_size=shard_size)
    _assert_identical_run(AdmmSolver(mrf, settings).solve(), reference)


_WEIGHT_TRIPLES = (("2", "1", "1/2"), ("1/3", "5", "1"), ("1", "1", "1"))


@pytest.mark.parametrize("shard_size", [None, 5])
def test_reweight_resolve_bit_identical_to_fresh_ground_and_solve(shard_size):
    # Ground once in shards of *shard_size*, then reweight in place and
    # re-solve: each run must equal the frozen solver's run on a fresh,
    # one-piece grounding at the new weights.
    problem = _collective_problem()
    grounded = GroundedCollective(problem, CollectiveSettings(), shard_size=shard_size)
    settings = AdmmSettings(max_iterations=40, check_every=5)
    solver = AdmmSolver(grounded.mrf, settings)
    solver.solve()  # prime the compiled arrays
    for triple in _WEIGHT_TRIPLES:
        weights = ObjectiveWeights(*(Fraction(w) for w in triple))
        grounded.reweight(weights)
        resolved = solver.solve()
        fresh = build_program(problem, CollectiveSettings(weights=weights))[0].ground()
        assert mrf_fingerprint(grounded.mrf) == mrf_fingerprint(fresh)
        _assert_identical_run(resolved, _ReferenceFlatSolver(fresh, settings).solve())


@pytest.mark.parametrize("shard_size", [None, 5])
def test_store_attach_reweight_solve_bit_identical_to_fresh_ground(
    shard_size, tmp_path
):
    # A grounding spilled from a ground in shards of *shard_size*,
    # attached (mmap) and reweighted, must solve exactly like the frozen
    # solver on a fresh, one-piece grounding at the new weights.
    problem = _collective_problem()
    base = CollectiveSettings()
    writer = GroundedCollective(problem, base, shard_size=shard_size)
    store = GroundingStore(tmp_path)
    key = collective_structure_key(problem, base)
    assert store.put(key, writer.mrf, extra=writer.store_extra())

    stored = store.load(key)
    assert stored is not None
    attached = GroundedCollective.from_store(problem, base, stored)
    assert attached.stats is None  # attached, not ground
    settings = AdmmSettings(max_iterations=40, check_every=5)
    solver = AdmmSolver(attached.mrf, settings)
    for triple in _WEIGHT_TRIPLES:
        weights = ObjectiveWeights(*(Fraction(w) for w in triple))
        attached.reweight(weights)
        resolved = solver.solve()
        fresh = build_program(problem, CollectiveSettings(weights=weights))[0].ground()
        assert mrf_fingerprint(attached.mrf) == mrf_fingerprint(fresh)
        _assert_identical_run(resolved, _ReferenceFlatSolver(fresh, settings).solve())


def test_solve_collective_threads_solver_knobs():
    # The grounding partition knobs reach the ground inside
    # solve_collective and leave the solve unchanged.
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=2, rows_per_relation=6, seed=3)
    )
    problem = build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )
    plain = solve_collective(problem, CollectiveSettings(reuse_grounding=False))
    tuned = solve_collective(
        problem,
        CollectiveSettings(reuse_grounding=False, ground_shard_size=4),
    )
    assert tuned.selected == plain.selected
    assert tuned.objective == plain.objective
    assert tuned.fractional == plain.fractional
    assert tuned.iterations == plain.iterations
