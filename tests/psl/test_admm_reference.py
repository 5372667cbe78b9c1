"""ADMM solver equivalence against a frozen reference solver.

``_ReferenceFlatSolver`` is a frozen copy of an early ``AdmmSolver`` (one
monolithic term array, boolean kind masks recomputed every iteration).
The contract under test: the solver produces the *identical* run — same
iterates, same iteration count, same residuals, same energy, same dual
state — on fingerprint-verified collective problems and on random MRFs
alike, cold, warm and reweighted.  Not approximately:
bit for bit.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.psl.admm import AdmmResult, AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import Predicate
from repro.psl.sharding import mrf_fingerprint
from repro.selection.collective import (
    CollectiveSettings,
    GroundedCollective,
    build_program,
    ground_collective,
)
from repro.selection.metrics import build_selection_problem
from repro.selection.objective import ObjectiveWeights

X = Predicate("x", 1, closed=False)

_KIND_HINGE = 0
_KIND_SQUARED = 1
_KIND_LEQ = 2
_KIND_EQ = 3


class _ReferenceFlatSolver:
    """An early AdmmSolver, kept verbatim as the ground truth."""

    def __init__(self, mrf, settings=None):
        self._mrf = mrf
        self._settings = settings or AdmmSettings()
        self._build_arrays()

    def _build_arrays(self):
        mrf = self._mrf
        # Weights live in the MRF's weight vector, not on the potentials.
        terms = [
            (_KIND_SQUARED if p.squared else _KIND_HINGE, p.coefficients, p.offset, w)
            for p, w in zip(mrf.potentials, mrf.potential_weights().tolist())
        ] + [
            (_KIND_EQ if c.equality else _KIND_LEQ, c.coefficients, c.offset, 0.0)
            for c in mrf.constraints
        ]
        var_index, term_index, coeff = [], [], []
        kinds, offsets, weights = [], [], []
        for t, (kind, coefficients, offset, weight) in enumerate(terms):
            kinds.append(kind)
            offsets.append(offset)
            weights.append(weight)
            for i, c in coefficients:
                var_index.append(i)
                term_index.append(t)
                coeff.append(c)
        self._n = mrf.num_variables
        self._num_terms = len(terms)
        self._var = np.asarray(var_index, dtype=np.int64)
        self._term = np.asarray(term_index, dtype=np.int64)
        self._a = np.asarray(coeff, dtype=np.float64)
        self._kind = np.asarray(kinds, dtype=np.int64)
        self._b = np.asarray(offsets, dtype=np.float64)
        self._w = np.asarray(weights, dtype=np.float64)
        self._normsq = np.maximum(
            np.bincount(self._term, weights=self._a**2, minlength=self._num_terms),
            1e-12,
        )
        degree = np.bincount(self._var, minlength=self._n).astype(np.float64)
        self._degree = np.maximum(degree, 1.0)

    def solve(self, warm_start=None, warm_state=None):
        settings = self._settings
        n, copies = self._n, len(self._var)
        use_state = (
            warm_state is not None
            and warm_state.z.shape == (n,)
            and warm_state.u.shape == (copies,)
        )
        if use_state:
            z = np.clip(warm_state.z.astype(np.float64), 0.0, 1.0)
        elif warm_start is not None:
            z = np.clip(warm_start.astype(np.float64), 0.0, 1.0)
        else:
            z = np.full(n, 0.5)
        if copies == 0:
            return AdmmResult(
                z, 0, True, 0.0, 0.0, self._mrf.energy(z),
                state=AdmmWarmState(z.copy(), np.zeros(0)),
            )
        u = warm_state.u.astype(np.float64).copy() if use_state else np.zeros(copies)
        x_local = z[self._var].copy()
        rho = settings.rho
        primal = dual = float("inf")
        iteration = 0
        converged = False
        z_old = z
        checked_at = -1
        for iteration in range(1, settings.max_iterations + 1):
            v = z[self._var] - u
            dot = np.bincount(self._term, weights=self._a * v, minlength=self._num_terms)
            d0 = dot + self._b
            lam = np.zeros(self._num_terms)
            hinge = self._kind == _KIND_HINGE
            if hinge.any():
                w_over_rho = self._w[hinge] / rho
                d0_h = d0[hinge]
                full_step_ok = d0_h - w_over_rho * self._normsq[hinge] >= 0.0
                lam[hinge] = np.where(
                    d0_h <= 0.0,
                    0.0,
                    np.where(full_step_ok, w_over_rho, d0_h / self._normsq[hinge]),
                )
            squared = self._kind == _KIND_SQUARED
            if squared.any():
                d0_s = d0[squared]
                s = d0_s / (1.0 + 2.0 * self._w[squared] * self._normsq[squared] / rho)
                lam[squared] = np.where(d0_s <= 0.0, 0.0, 2.0 * self._w[squared] * s / rho)
            leq = self._kind == _KIND_LEQ
            if leq.any():
                lam[leq] = np.maximum(0.0, d0[leq]) / self._normsq[leq]
            eq = self._kind == _KIND_EQ
            if eq.any():
                lam[eq] = d0[eq] / self._normsq[eq]
            x_local = v - lam[self._term] * self._a
            z_old = z
            z = np.clip(
                np.bincount(self._var, weights=x_local + u, minlength=n) / self._degree,
                0.0,
                1.0,
            )
            u = u + x_local - z[self._var]
            if iteration % settings.check_every == 0:
                checked_at = iteration
                primal = float(np.linalg.norm(x_local - z[self._var]))
                dual = float(rho * np.linalg.norm((z - z_old)[self._var]))
                eps = settings.epsilon_abs * np.sqrt(copies) + settings.epsilon_rel * max(
                    float(np.linalg.norm(x_local)), float(np.linalg.norm(z[self._var]))
                )
                if primal < eps and dual < eps:
                    converged = True
                    break
        if iteration > 0 and checked_at != iteration:
            primal = float(np.linalg.norm(x_local - z[self._var]))
            dual = float(rho * np.linalg.norm((z - z_old)[self._var]))
            eps = settings.epsilon_abs * np.sqrt(copies) + settings.epsilon_rel * max(
                float(np.linalg.norm(x_local)), float(np.linalg.norm(z[self._var]))
            )
            converged = primal < eps and dual < eps
        return AdmmResult(
            x=z,
            iterations=iteration,
            converged=converged,
            primal_residual=primal,
            dual_residual=dual,
            energy=self._mrf.energy(z),
            state=AdmmWarmState(z.copy(), u.copy()),
        )


def _assert_identical_run(result: AdmmResult, reference: AdmmResult) -> None:
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert np.array_equal(result.x, reference.x)
    assert result.primal_residual == reference.primal_residual
    assert result.dual_residual == reference.dual_residual
    assert result.energy == reference.energy
    assert np.array_equal(result.state.z, reference.state.z)
    assert np.array_equal(result.state.u, reference.state.u)


def _random_mrf(seed: int, n: int = 8, m: int = 20) -> HingeLossMRF:
    rng = np.random.default_rng(seed)
    mrf = HingeLossMRF()
    for i in range(n):
        mrf.variable_index(X(i))
    for k in range(m):
        size = int(rng.integers(1, 4))
        idx = rng.choice(n, size=size, replace=False)
        coeffs = {X(int(i)): float(rng.normal()) for i in idx}
        if k % 5 == 4:
            mrf.add_constraint(coeffs, float(rng.normal()), equality=k % 10 == 9)
        else:
            mrf.add_potential(
                coeffs,
                float(rng.normal()),
                weight=float(rng.uniform(0.1, 3)),
                squared=k % 3 == 0,
            )
    return mrf


def _collective_problem(pi: int = 50, seed: int = 13):
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=4, rows_per_relation=8, pi_errors=pi, pi_corresp=pi, seed=seed
        )
    )
    return build_selection_problem(
        scenario.source, scenario.target, scenario.candidates
    )


@functools.cache
def _collective_mrf() -> HingeLossMRF:
    problem = _collective_problem()
    settings = CollectiveSettings()
    mrf, _, _ = ground_collective(problem, settings, shard_size=8)
    # Fingerprint-verified: the sharded grounding reproduced the serial
    # reference compilation, so the solve equivalence below is measured
    # on the exact model of the paper pipeline.
    assert mrf_fingerprint(mrf) == mrf_fingerprint(
        build_program(problem, settings)[0].ground()
    )
    return mrf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_flat_reference_on_random_mrfs(seed):
    mrf = _random_mrf(seed)
    reference = _ReferenceFlatSolver(mrf).solve()
    result = AdmmSolver(mrf).solve()
    _assert_identical_run(result, reference)


def test_matches_flat_reference_on_collective_problem():
    mrf = _collective_mrf()
    reference = _ReferenceFlatSolver(mrf).solve()
    result = AdmmSolver(mrf).solve()
    _assert_identical_run(result, reference)


def test_truncated_run_matches_reference():
    # The loop exits at the iteration cap between convergence checks;
    # the final residuals are recomputed on the last iterate.
    mrf = _collective_mrf()
    settings = AdmmSettings(max_iterations=5, check_every=2)
    reference = _ReferenceFlatSolver(mrf, settings).solve()
    _assert_identical_run(AdmmSolver(mrf, settings).solve(), reference)


def test_reweight_resolve_bit_identical_to_fresh_ground_and_solve():
    # The ground-once/reweight-many acceptance contract, measured against
    # the frozen reference solver: reweighting a cached grounding in
    # place and re-solving must reproduce — bit for bit — the run of a
    # solver built on a *fresh* grounding at the new weights.
    problem = _collective_problem()
    grounded = GroundedCollective(problem, CollectiveSettings(), shard_size=8)
    settings = AdmmSettings(max_iterations=40, check_every=5)
    solver = AdmmSolver(grounded.mrf, settings)
    solver.solve()  # prime the compiled arrays
    for triple in (("2", "1", "1/2"), ("1/3", "5", "1"), ("1", "1", "1")):
        weights = ObjectiveWeights(*(Fraction(w) for w in triple))
        grounded.reweight(weights)
        resolved = solver.solve()
        fresh_mrf, _, _ = ground_collective(
            problem, CollectiveSettings(weights=weights), shard_size=8
        )
        assert mrf_fingerprint(grounded.mrf) == mrf_fingerprint(fresh_mrf)
        reference = _ReferenceFlatSolver(fresh_mrf, settings).solve()
        _assert_identical_run(resolved, reference)


def test_reweight_resolve_with_warm_state_matches_reference_warm_run():
    # Warm-state reuse across reweighted solves: same trajectory as the
    # frozen solver restarted from the same state on a fresh grounding.
    problem = _collective_problem(pi=40, seed=5)
    grounded = GroundedCollective(problem, CollectiveSettings(), shard_size=16)
    settings = AdmmSettings(check_every=1)
    solver = AdmmSolver(grounded.mrf, settings)
    state = solver.solve().state
    weights = ObjectiveWeights(Fraction(3, 2), Fraction(1), Fraction(1, 2))
    grounded.reweight(weights)
    warm = solver.solve(warm_state=state)
    fresh_mrf, _, _ = ground_collective(
        problem, CollectiveSettings(weights=weights), shard_size=16
    )
    reference = _ReferenceFlatSolver(fresh_mrf, settings).solve(warm_state=state)
    _assert_identical_run(warm, reference)


def test_warm_state_with_warm_start_interactions_match_reference():
    mrf = _random_mrf(4)
    flat_cold = _ReferenceFlatSolver(mrf).solve()
    cold = AdmmSolver(mrf).solve()
    _assert_identical_run(cold, flat_cold)
    flat_warm = _ReferenceFlatSolver(mrf).solve(warm_state=flat_cold.state)
    warm = AdmmSolver(mrf).solve(warm_state=cold.state)
    _assert_identical_run(warm, flat_warm)
    start = np.linspace(0.0, 1.0, mrf.num_variables)
    _assert_identical_run(
        AdmmSolver(mrf).solve(warm_start=start),
        _ReferenceFlatSolver(mrf).solve(warm_start=start),
    )


def test_warm_state_survives_a_different_shard_size():
    problem = _collective_problem()
    settings = AdmmSettings(check_every=1)
    first = AdmmSolver(_collective_mrf(), settings).solve()
    assert first.converged and first.state is not None
    # The same problem ground at another shard size: the dual layout is
    # the flat copy order, which the shard size does not change.
    regrounded, _, _ = ground_collective(problem, CollectiveSettings(), shard_size=64)
    resumed = AdmmSolver(regrounded, settings).solve(warm_state=first.state)
    assert resumed.iterations < first.iterations
    assert np.allclose(resumed.x, first.x, atol=1e-3)


def test_warm_state_rejected_on_structurally_different_mrf():
    # Same variable count AND same copy count, but a different number of
    # terms: raw shape checks alone would wrongly accept this state.
    two_terms = HingeLossMRF()
    for i in range(2):
        two_terms.variable_index(X(i))
    two_terms.add_potential({X(0): 1.0}, 0.0, weight=1.0)
    two_terms.add_potential({X(1): -1.0}, 0.5, weight=2.0)

    one_term = HingeLossMRF()
    for i in range(2):
        one_term.variable_index(X(i))
    one_term.add_potential({X(0): 1.0, X(1): -1.0}, 0.25, weight=1.5)

    foreign = AdmmSolver(two_terms).solve().state
    assert foreign.num_terms == 2
    solver = AdmmSolver(one_term)
    assert not foreign.matches(solver.arrays)
    result = solver.solve(warm_state=foreign)
    cold = AdmmSolver(one_term).solve()
    _assert_identical_run(result, cold)  # the stale state was ignored


def test_legacy_warm_state_without_signature_still_accepted():
    mrf = _random_mrf(6)
    state = AdmmSolver(mrf).solve().state
    legacy = AdmmWarmState(state.z, state.u)  # num_terms defaults to None
    resumed = AdmmSolver(mrf).solve(warm_state=legacy)
    reference = AdmmSolver(mrf).solve(warm_state=state)
    _assert_identical_run(resumed, reference)
