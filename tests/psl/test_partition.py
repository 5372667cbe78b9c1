"""Unit tests for the flat term arrays under the ADMM solver.

The contract: an MRF compiles into one set of CSR arrays over the flat
potentials-then-constraints term order, compiled once and shared by the
solver and :meth:`~repro.psl.hlmrf.HingeLossMRF.energy`, with the
potential weights read from the MRF's weight vector.
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
    flat = compile_term_arrays(mrf)
    assert flat.num_terms == 4
    assert flat.num_potentials == 2
    assert list(flat.term_ptr) == [0, 2, 3, 5, 6]


def test_empty_mrf_has_no_blocks():
    mrf = HingeLossMRF()
    flat = compile_term_arrays(mrf)
    assert flat.num_terms == 0
    assert flat.num_copies == 0


def test_block_built_mrf_compiles_weights_from_the_weight_vector():
    mrf = _block_built_mrf(num_blocks=3, terms_per_block=4)
    flat = compile_term_arrays(mrf)
    # Flat order is all potentials, then all constraints.
    assert list(flat.weight[:12]) == [1.0] * 4 + [2.0] * 4 + [3.0] * 4
    assert not flat.weight[12:].any()
    # A reweight is only a write to the vector; a recompile reads it.
    mrf.set_potential_weights([0.5] * 12)
    assert list(compile_term_arrays(mrf).weight[:12]) == [0.5] * 12


def test_partition_degree_counts_every_copy():
    mrf = _legacy_mrf()
    flat = compile_term_arrays(mrf)
    degree = np.maximum(
        np.bincount(flat.var, minlength=mrf.num_variables).astype(float), 1.0
    )
    assert np.array_equal(flat.degree, degree)


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
