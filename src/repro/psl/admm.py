"""Consensus ADMM for HL-MRF MAP inference.

Follows the algorithm of Bach et al. (JMLR 2017): every potential and
hard constraint becomes a subproblem holding local copies of its
variables; a consensus vector z (clipped to [0,1]) ties the copies
together.  Every subproblem's minimizer has the closed form
``x = v - lambda * a`` for a per-term scalar ``lambda``, so one ADMM
iteration is a handful of vectorized segment operations — no generic QP
solver needed.

Term kinds:
    linear hinge   w*max(0, a^T x + b)      lambda in {0, w/rho, d/||a||^2}
    squared hinge  w*max(0, a^T x + b)^2    lambda = 2*w*s/rho
    hard <=        project onto halfspace   lambda = max(0, d)/||a||^2
    hard ==        project onto hyperplane  lambda = d/||a||^2

The solver runs one serial local step over the MRF's flat compiled
arrays (:class:`~repro.psl.partition.FlatTermArrays`), then the consensus
and dual steps over the same copy order.  Splitting that step into
blocks on threads or processes was measured and never paid at this
problem size (see ``docs/solver.md``, "Removed, and why").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.partition import (
    FlatTermArrays,
    compiled_term_arrays,
    kind_index,
    local_x_update,
)


@dataclass
class AdmmSettings:
    """Solver knobs; the defaults suit the paper's problem sizes."""

    rho: float = 1.0
    max_iterations: int = 5000
    epsilon_abs: float = 1e-5
    epsilon_rel: float = 1e-4
    check_every: int = 10

    def validate(self) -> None:
        """Reject settings that would crash or loop forever mid-solve.

        Checked at solver construction so a bad knob fails fast with a
        clear message instead of, e.g., a ``ZeroDivisionError`` at the
        ``iteration % check_every`` convergence gate deep in a solve.
        """
        if self.rho <= 0:
            raise InferenceError(f"rho must be > 0, got {self.rho}")
        if self.max_iterations < 0:
            raise InferenceError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.check_every < 1:
            raise InferenceError(
                f"check_every must be >= 1, got {self.check_every}"
            )


@dataclass
class AdmmWarmState:
    """Full ADMM state (consensus vector + local duals) for warm restarts.

    Primal-only warm starts barely help consensus ADMM: with the duals
    reset to zero the solver spends nearly the full iteration budget
    re-building them even when started at the optimum.  Carrying ``u``
    alongside ``z`` is what makes re-solves of the same (or a slightly
    perturbed) problem fast.  The state is only meaningful for an MRF
    with the same grounding structure; :meth:`AdmmSolver.solve` ignores
    a state that fails :meth:`matches`.

    ``num_terms`` records the term count of the producing problem.  The
    dual vector's layout is the flat copy order, so a state from the
    same MRF — or from one ground at a different shard size — is valid;
    what it must *not* survive is a structurally different MRF that
    happens to match on raw array shapes, which the term count rejects.
    """

    z: np.ndarray
    u: np.ndarray
    num_terms: int | None = None

    def matches(self, flat: FlatTermArrays) -> bool:
        """Is this state structurally valid for the problem *flat* compiles?"""
        return (
            self.z.shape == (flat.num_variables,)
            and self.u.shape == (flat.num_copies,)
            and (self.num_terms is None or self.num_terms == flat.num_terms)
        )


@dataclass
class AdmmResult:
    """Solution vector plus convergence diagnostics."""

    x: np.ndarray
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    energy: float
    state: AdmmWarmState | None = None


def _convergence(
    x_local: np.ndarray,
    z: np.ndarray,
    z_old: np.ndarray,
    var: np.ndarray,
    rho: float,
    settings: AdmmSettings,
) -> tuple[float, float, bool]:
    """Residuals and tolerance verdict of the current iterate.

    The one shared definition of the stopping criterion (Boyd et al.'s
    combined absolute/relative epsilon), used both at the scheduled
    ``check_every`` gate and to report final residuals when the loop
    exits between checks.
    """
    z_var = z[var]
    primal = float(np.linalg.norm(x_local - z_var))
    dual = float(rho * np.linalg.norm((z - z_old)[var]))
    eps = settings.epsilon_abs * np.sqrt(len(var)) + settings.epsilon_rel * max(
        float(np.linalg.norm(x_local)), float(np.linalg.norm(z_var))
    )
    return primal, dual, primal < eps and dual < eps


class AdmmSolver:
    """Serial consensus-ADMM solver for one HL-MRF.

    The flat arrays are compiled **once** per MRF (and shared with its
    :meth:`~repro.psl.hlmrf.HingeLossMRF.energy`) and reused across
    solves: because the HL-MRF energy is linear in the potential
    weights, a weight-only change never touches the compiled structure.
    Mutate weights on the MRF (``set_group_weights`` and friends) — or
    pass ``weights=`` straight to :meth:`solve` — and the solver rewrites
    the compiled weight column in place before the next solve
    (:attr:`~repro.psl.hlmrf.HingeLossMRF.weights_version` tells it
    when).
    """

    def __init__(self, mrf: HingeLossMRF, settings: AdmmSettings | None = None):
        self._mrf = mrf
        self._settings = settings or AdmmSettings()
        self._settings.validate()
        self._flat = compiled_term_arrays(mrf)
        self._kinds = kind_index(self._flat.kind)
        # Compiled weights may predate a reweight: force a first sync.
        self._weights_version: int | None = None

    @property
    def arrays(self) -> FlatTermArrays:
        return self._flat

    @property
    def mrf(self) -> HingeLossMRF:
        return self._mrf

    @property
    def settings(self) -> AdmmSettings:
        return self._settings

    def _sync_weights(self) -> None:
        """Pull the MRF's current weights into the compiled arrays.

        No-op unless the MRF's ``weights_version`` moved since the last
        sync; then the potential prefix of the flat weight vector is
        rewritten in place.
        """
        if self._mrf.weights_version == self._weights_version:
            return
        flat = self._flat
        flat.weight[: flat.num_potentials] = self._mrf.potential_weights()
        self._weights_version = self._mrf.weights_version

    def solve(
        self,
        warm_start: np.ndarray | None = None,
        warm_state: AdmmWarmState | None = None,
        weights=None,
    ) -> AdmmResult:
        """Run ADMM to convergence (or the iteration cap).

        *warm_start* seeds only the consensus vector; *warm_state* (from a
        previous :attr:`AdmmResult.state`) additionally restores the local
        duals and takes precedence when it structurally matches this
        problem (see :meth:`AdmmWarmState.matches`).

        *weights* re-weights the (unchanged) ground structure before
        solving: a mapping applies per origin group
        (:meth:`~repro.psl.hlmrf.HingeLossMRF.set_group_weights`), an
        array replaces the full per-potential vector.  Combined with
        *warm_state* from the previous solve this is the fast path of
        iterative reweighting: same compiled arrays, a handful of warm
        iterations.
        """
        if weights is not None:
            if hasattr(weights, "items"):
                self._mrf.set_group_weights(weights)
            else:
                self._mrf.set_potential_weights(weights)
        self._sync_weights()
        settings = self._settings
        flat = self._flat
        n, copies = flat.num_variables, flat.num_copies
        use_state = warm_state is not None and warm_state.matches(flat)
        if use_state:
            z = np.clip(warm_state.z.astype(np.float64), 0.0, 1.0)
        elif warm_start is not None:
            z = np.clip(warm_start.astype(np.float64), 0.0, 1.0)
        else:
            z = np.full(n, 0.5)
        if copies == 0:
            return AdmmResult(
                z, 0, True, 0.0, 0.0, self._mrf.energy(z),
                state=AdmmWarmState(z.copy(), np.zeros(0), flat.num_terms),
            )

        var, degree, kinds = flat.var, flat.degree, self._kinds
        u = warm_state.u.astype(np.float64).copy() if use_state else np.zeros(copies)
        x_local = z[var].copy()
        scratch = np.empty(copies)
        z_old = z.copy()
        rho = settings.rho
        primal = dual = float("inf")
        iteration = 0
        converged = False
        checked_at = -1

        for iteration in range(1, settings.max_iterations + 1):
            # --- local updates: x_local = v - lambda[term] * a ---------
            x_local = local_x_update(flat, kinds, z[var] - u, rho)

            # --- consensus update: average every variable's copies ----
            np.add(x_local, u, out=scratch)
            np.copyto(z_old, z)
            zsum = np.bincount(var, weights=scratch, minlength=n)
            zsum /= degree
            np.clip(zsum, 0.0, 1.0, out=z)

            # --- dual update ------------------------------------------
            u += x_local
            u -= z[var]

            if iteration % settings.check_every == 0:
                checked_at = iteration
                primal, dual, converged = _convergence(
                    x_local, z, z_old, var, rho, settings
                )
                if converged:
                    break

        if iteration > 0 and checked_at != iteration:
            # The loop exited between convergence checks (or never reached
            # one, e.g. max_iterations < check_every): report residuals of
            # the final iterate instead of a stale/inf value, and credit
            # convergence if the final point already satisfies the tolerance.
            primal, dual, converged = _convergence(
                x_local, z, z_old, var, rho, settings
            )

        return AdmmResult(
            x=z,
            iterations=iteration,
            converged=converged,
            primal_residual=primal,
            dual_residual=dual,
            energy=self._mrf.energy(z),
            state=AdmmWarmState(z.copy(), u.copy(), flat.num_terms),
        )
