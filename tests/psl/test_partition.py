"""Unit tests for the flat term arrays under the ADMM solver.

The contract: an MRF compiles into one set of CSR arrays over the flat
potentials-then-constraints term order, compiled once and shared by the
solver and :meth:`~repro.psl.hlmrf.HingeLossMRF.energy`; grounding still
records each shard's extent in the MRF (delta patching splices by it).
"""

import numpy as np

from repro.psl.hlmrf import HingeLossMRF
from repro.psl.partition import (
    _KINDS,
    compile_term_arrays,
    compiled_term_arrays,
    kind_index,
)
from repro.psl.predicate import Predicate
from repro.psl.sharding import TermBlockBuilder
from repro.selection.collective import CollectiveSettings, ground_collective
from repro.selection.metrics import build_selection_problem
from repro.examples_data import paper_example

X = Predicate("x", 1, closed=False)


def _legacy_mrf() -> HingeLossMRF:
    mrf = HingeLossMRF()
    mrf.add_potential({X(0): 1.0, X(1): -0.5}, 0.25, weight=2.0)
    mrf.add_potential({X(1): 1.0}, 0.0, weight=1.0, squared=True)
    mrf.add_constraint({X(0): 1.0, X(2): 1.0}, -1.0)
    mrf.add_constraint({X(2): 1.0}, -0.5, equality=True)
    return mrf


def _block_built_mrf(num_blocks: int = 3, terms_per_block: int = 4) -> HingeLossMRF:
    mrf = HingeLossMRF()
    for b in range(num_blocks):
        builder = TermBlockBuilder()
        for t in range(terms_per_block):
            i = b * terms_per_block + t
            builder.add_potential([(X(i), 1.0), (X(i + 1), -1.0)], 0.1 * t, 1.0 + b)
            builder.add_constraint([(X(i), 1.0)], -0.75)
        atoms, block = builder.finish()
        mrf.add_term_block(atoms, block)
    return mrf


def test_legacy_mrf_partitions_as_single_run():
    mrf = _legacy_mrf()
    assert mrf._block_extents == []
    flat = compile_term_arrays(mrf)
    assert flat.num_terms == 4
    assert flat.num_potentials == 2
    assert list(flat.term_ptr) == [0, 2, 3, 5, 6]


def test_empty_mrf_has_no_blocks():
    mrf = HingeLossMRF()
    assert mrf._block_extents == []
    flat = compile_term_arrays(mrf)
    assert flat.num_terms == 0
    assert flat.num_copies == 0


def test_block_built_mrf_records_extents_per_shard():
    mrf = _block_built_mrf(num_blocks=3, terms_per_block=4)
    # One (pot_lo, pot_hi, con_lo, con_hi) extent per add_term_block.
    assert mrf._block_extents == [(0, 4, 0, 4), (4, 8, 4, 8), (8, 12, 8, 12)]
    flat = compile_term_arrays(mrf)
    # Flat order is all potentials, then all constraints.
    assert list(flat.weight[:12]) == [1.0] * 4 + [2.0] * 4 + [3.0] * 4
    assert not flat.weight[12:].any()


def test_partition_degree_counts_every_copy():
    mrf = _legacy_mrf()
    flat = compile_term_arrays(mrf)
    degree = np.maximum(
        np.bincount(flat.var, minlength=mrf.num_variables).astype(float), 1.0
    )
    assert np.array_equal(flat.degree, degree)


def test_collective_grounding_blocks_survive_into_partition():
    ex = paper_example(extra_projects=3)
    problem = build_selection_problem(ex.source, ex.target, ex.candidates)
    mrf, _, stats = ground_collective(
        problem, CollectiveSettings(), shard_size=4
    )
    assert stats.num_shards > 1
    assert len(mrf._block_extents) == stats.num_shards
    # The extents tile the potential and constraint lists in order.
    pot = con = 0
    for pot_lo, pot_hi, con_lo, con_hi in mrf._block_extents:
        assert (pot_lo, con_lo) == (pot, con)
        pot, con = pot_hi, con_hi
    assert (pot, con) == (len(mrf.potentials), len(mrf.constraints))


def test_kind_index_precompiles_the_kind_masks():
    flat = compile_term_arrays(_legacy_mrf())  # all four kinds
    kinds = kind_index(flat.kind)
    assert len(kinds) == len(_KINDS)
    for kind, idx in zip(_KINDS, kinds):
        assert np.array_equal(idx, np.flatnonzero(flat.kind == kind))
    # Together the index sets cover every term exactly once.
    assert sorted(np.concatenate(kinds)) == list(range(flat.num_terms))


def test_compiled_arrays_are_cached_until_the_terms_change():
    mrf = _legacy_mrf()
    flat = compiled_term_arrays(mrf)
    assert compiled_term_arrays(mrf) is flat
    mrf.energy(np.full(mrf.num_variables, 0.5))
    assert mrf._compiled is flat  # energy slices the same compilation
    mrf.add_potential({X(2): 1.0}, 0.0, weight=1.0)
    fresh = compiled_term_arrays(mrf)
    assert fresh is not flat and fresh.num_potentials == 3
    for name in ("kind", "offset", "weight", "term_ptr", "var", "term", "coeff"):
        assert np.array_equal(getattr(fresh, name), getattr(compile_term_arrays(mrf), name))
