"""Flat term arrays and the closed-form local step of consensus ADMM.

The consensus-ADMM formulation of Bach et al. (JMLR 2017) decomposes by
term: every potential/constraint subproblem has the closed-form local
minimizer ``x = v - lambda * a`` and touches shared state only through
the consensus vector ``z`` and its local duals.  This module compiles an
MRF into one set of CSR-style arrays over the flat
potentials-then-constraints term order (:class:`FlatTermArrays`) and
runs that local step over all of them at once (:func:`local_x_update`):
a per-term ``bincount``, one closed-form kernel per term kind, and a
gather back to the copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.psl.hlmrf import (
    KIND_EQ,
    KIND_HINGE,
    KIND_LEQ,
    KIND_SQUARED,
    HingeLossMRF,
)


@dataclass(frozen=True)
class FlatTermArrays:
    """One MRF's flat solver arrays (CSR over variable copies).

    The single compiled form of an MRF: :func:`compile_term_arrays`
    assembles it from the potential/constraint lists, the ADMM solver
    runs its local step over it, :meth:`~repro.psl.hlmrf.HingeLossMRF.
    energy` slices its potential prefix, and the grounding store
    (:mod:`repro.psl.store`) spills exactly these arrays to disk and
    re-attaches them as read-only mmap views — every field except
    ``weight`` is structure, immutable once grounded, so zero-copy
    attach is safe.  ``weight`` is the flat per-term weight vector; it
    **must be writable** (the solver's weight sync rewrites its
    potential prefix in place), so the attach path substitutes a fresh
    in-memory copy for the mmapped original.
    """

    num_variables: int
    num_potentials: int
    kind: np.ndarray  # int64[num_terms], KIND_* values
    offset: np.ndarray  # float64[num_terms]
    weight: np.ndarray  # float64[num_terms]; writable, constraints are 0.0
    normsq: np.ndarray  # float64[num_terms], max(||a||^2, 1e-12)
    term_ptr: np.ndarray  # int64[num_terms+1], CSR row pointer into copies
    var: np.ndarray  # int64[num_copies], global variable index
    term: np.ndarray  # int64[num_copies], global term index
    coeff: np.ndarray  # float64[num_copies]
    degree: np.ndarray  # float64[num_variables], max(copy count, 1)

    @property
    def num_terms(self) -> int:
        return len(self.kind)

    @property
    def num_copies(self) -> int:
        return len(self.var)


def compile_term_arrays(mrf: HingeLossMRF) -> FlatTermArrays:
    """Assemble *mrf*'s flat solver arrays from its term lists.

    Array assembly is single-pass ``np.fromiter`` over generator chains
    — no intermediate Python lists, no per-copy interpreter loop.  The
    derived arrays (``term``, ``normsq``, ``degree``) are computed here
    once and carried along, so a consumer that persisted them (the
    grounding store) reloads bit-identical values instead of recomputing.
    """
    potentials, constraints = mrf.potentials, mrf.constraints
    num_terms = len(potentials) + len(constraints)
    kind_arr = np.fromiter(
        chain(
            (KIND_SQUARED if p.squared else KIND_HINGE for p in potentials),
            (KIND_EQ if c.equality else KIND_LEQ for c in constraints),
        ),
        dtype=np.int64,
        count=num_terms,
    )
    offset_arr = np.fromiter(
        chain((p.offset for p in potentials), (c.offset for c in constraints)),
        dtype=np.float64,
        count=num_terms,
    )
    weight_arr = np.fromiter(
        chain((p.weight for p in potentials), repeat(0.0, len(constraints))),
        dtype=np.float64,
        count=num_terms,
    )
    counts = np.fromiter(
        (len(t.coefficients) for t in chain(potentials, constraints)),
        dtype=np.int64,
        count=num_terms,
    )
    term_ptr = np.zeros(num_terms + 1, dtype=np.int64)
    np.cumsum(counts, out=term_ptr[1:])
    num_copies = int(term_ptr[-1])
    var = np.fromiter(
        (i for t in chain(potentials, constraints) for i, _ in t.coefficients),
        dtype=np.int64,
        count=num_copies,
    )
    a = np.fromiter(
        (c for t in chain(potentials, constraints) for _, c in t.coefficients),
        dtype=np.float64,
        count=num_copies,
    )

    n = mrf.num_variables
    term = np.repeat(np.arange(num_terms, dtype=np.int64), counts)
    normsq = np.maximum(
        np.bincount(term, weights=a**2, minlength=num_terms), 1e-12
    )
    degree = np.maximum(np.bincount(var, minlength=n).astype(np.float64), 1.0)
    return FlatTermArrays(
        num_variables=n,
        num_potentials=len(potentials),
        kind=kind_arr,
        offset=offset_arr,
        weight=weight_arr,
        normsq=normsq,
        term_ptr=term_ptr,
        var=var,
        term=term,
        coeff=a,
        degree=degree,
    )


def compiled_term_arrays(mrf: HingeLossMRF) -> FlatTermArrays:
    """*mrf*'s compiled arrays, compiling (and caching) them if needed.

    An MRF may already carry :class:`FlatTermArrays` (attribute
    ``_compiled`` — seeded at ground time, by a delta splice or by the
    grounding store's mmap attach); they are reused while their term
    counts still match the MRF's lists, which are append-only.
    Otherwise the arrays are compiled here and seeded on the MRF, so the
    solver and :meth:`~repro.psl.hlmrf.HingeLossMRF.energy` share one
    compilation.  The ``weight`` column may be stale (reweights do not
    touch it); the solver resyncs it before every solve.
    """
    flat = getattr(mrf, "_compiled", None)
    if (
        flat is None
        or flat.num_potentials != len(mrf.potentials)
        or flat.num_terms != len(mrf.potentials) + len(mrf.constraints)
    ):
        flat = compile_term_arrays(mrf)
        mrf._compiled = flat
    return flat


#: The four term kinds in index order — KIND_HINGE..KIND_EQ are 0..3,
#: so ``kind_index(kind)[k]`` is the index set of kind constant *k*.
_KINDS = (KIND_HINGE, KIND_SQUARED, KIND_LEQ, KIND_EQ)


def kind_index(kind: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-kind term index sets — the kind masks of the local step.

    Compiled once per solver, so :func:`local_x_update` dispatches the
    closed-form kernels over fixed index sets instead of recomputing
    masks every iteration.
    """
    return tuple(np.flatnonzero(kind == k) for k in _KINDS)


def _hinge_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    w_over_rho = weight / rho
    full_step_ok = d0 - w_over_rho * normsq >= 0.0
    return np.where(d0 <= 0.0, 0.0, np.where(full_step_ok, w_over_rho, d0 / normsq))


def _squared_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    s = d0 / (1.0 + 2.0 * weight * normsq / rho)
    return np.where(d0 <= 0.0, 0.0, 2.0 * weight * s / rho)


def _leq_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    return np.maximum(0.0, d0) / normsq


def _eq_kernel(
    d0: np.ndarray, weight: np.ndarray, normsq: np.ndarray, rho: float
) -> np.ndarray:
    return d0 / normsq


#: Closed-form ``lambda`` kernels (module docstring of
#: :mod:`repro.psl.admm`), indexed like :func:`kind_index`.
_KIND_KERNELS = (_hinge_kernel, _squared_kernel, _leq_kernel, _eq_kernel)


def local_x_update(
    flat: FlatTermArrays,
    kinds: tuple[np.ndarray, ...],
    v: np.ndarray,
    rho: float,
) -> np.ndarray:
    """The ADMM local step over every term: ``x = v - lambda[term] * a``.

    *v* is ``z[var] - u`` over all copies and *kinds* the precompiled
    :func:`kind_index` of ``flat.kind``.  The per-term scalar ``lambda``
    is computed by the closed-form kernel of each kind, dispatched over
    those index sets — ``np.flatnonzero`` preserves the mask order, so
    the result is bit for bit what a per-iteration boolean-mask version
    produces.
    """
    num_terms = flat.num_terms
    dot = np.bincount(flat.term, weights=flat.coeff * v, minlength=num_terms)
    d0 = dot + flat.offset
    lam = np.zeros(num_terms)
    for kernel, idx in zip(_KIND_KERNELS, kinds):
        if len(idx):
            lam[idx] = kernel(d0[idx], flat.weight[idx], flat.normsq[idx], rho)
    return v - lam[flat.term] * flat.coeff
