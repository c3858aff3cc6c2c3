"""Semi-explicit integration of the partitioned eddy-current system.

Spatial discretization yields a differential-algebraic system: a conductivity
mass matrix acts on the conducting unknowns only, while the nonconducting
block is a constant, singular curl-curl matrix with a consistent right-hand
side. Eliminating the algebraic block turns the conducting part into an ODE

    M_c da_c/dt = -K_S(a_c) a_c - K_cn pinv(K_n) j_n(t),
    K_S(a_c) = K_c(a_c) - K_cn pinv(K_n) K_cn^T,

where every pseudo-inverse action is realized by an unregularized PCG solve
on the singular block (consistency makes CG converge without gauging). Each
explicit Euler step therefore costs exactly two inner solves, one per
right-hand-side family. A solve costs one K_n product per PCG iteration
and none for its initial residual: every start vector comes with its K_n
image, which its strategy knows without a product at solve time, so a
solve whose start meets the tolerance makes no K_n product at all. The
strategies' own products (CSPE basis columns, POD modes, the image of the
previous solution) are their upkeep. The step from (a_c, t)
takes its rate at its start, K_n^+ j_n(t) and K_n^+ K_cn^T a_c, and
recovering the nonconducting unknowns at an output time (a_c, t) needs the
same pair: an output row makes both solves and hands them to the next step.
A run therefore pays two solves for all of its recoveries, the pair after
the last step.

The explicit step is stable for dt below 2 / lambda_max(M_c^{-1} K_S). Since
K_cn pinv(K_n) K_cn^T is positive semidefinite, K_S(a_c) <= K_c(a_c), so
lambda_max(M_c^{-1/2} K_c(a_c) M_c^{-1/2}) bounds it from above: one dense
eigenvalue problem of order n_c and no inner solve (``stability_bound``).
A run takes its step from that bound and refreshes it periodically, since
saturation changes K_c. ``estimate_cfl`` runs Lanczos on M_c^{-1} K_S itself,
as a diagnostic of how tight the bound is.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg

from .krylov import (IndefiniteOperatorError, PcgConfig, SolveReport,
                     _relative, _stopping_target, _vector,
                     build_preconditioner, pcg_solve)
from .sparse import (CsrMatrix, _check_count, _matvec, as_vector, spmv,
                     spmv_transpose, symmetric_check)
from .startvec import RhsFamily, StrategyConfig, make_strategy

__all__ = [
    "FAMILIES",
    "PartitionedSystem",
    "ExplicitConfig",
    "ScaledPatternSource",
    "exponential_ramp",
    "SchurOperator",
    "CflEstimate",
    "stability_bound",
    "estimate_cfl",
    "explicit_euler_step",
    "recover_an",
    "run_explicit",
    "TransientResult",
    "StepFailureError",
]

log = logging.getLogger(__name__)

FAMILIES = tuple(RhsFamily)

# seconds between the output rows of either integrator, by default
OUTPUT_PERIOD = 1e-3

# steps an explicit run may take before it fails
MAX_STEPS = 2_000_000


class StepFailureError(RuntimeError):
    """A time step produced a non-finite state or an inner solve failed."""


@dataclass(frozen=True)
class ExplicitConfig:
    """Settings of the explicit run: start vectors, inner solves (PCG,
    always Jacobi-preconditioned, to ``pcg``'s tolerances; ``pcg.rel_tol``
    is also the CSPE drop tolerance), the auto step's safety factor and
    auto-dt refresh period (0: none). A bad value raises ValueError naming
    the field first. The step budget is ``MAX_STEPS``, not a setting."""

    strategy: StrategyConfig = StrategyConfig()
    pcg: PcgConfig = PcgConfig()
    safety: float = 0.9
    reestimate_every: int = 500

    def __post_init__(self):
        if not (0.0 < self.safety <= 1.0):
            raise ValueError("safety must lie in (0, 1]")
        _check_count("reestimate_every", self.reestimate_every, 0)

    def stable_step(self, bound: float) -> float:
        """The step of ``dt="auto"`` under a stability bound:
        ``safety * 2 / bound``."""
        if not (0.0 < bound < math.inf):
            raise StepFailureError(f"stability bound is not positive: {bound}")
        return self.safety * 2.0 / bound


def check_run_arguments(t_end, dt, output_period, *, auto=True) -> None:
    """The run arguments of both integrators: ``t_end``, ``output_period``
    and ``dt`` must be positive finite numbers, and with *auto* ``dt`` may
    be exactly ``"auto"``. A bad one raises ValueError naming it first."""
    named = {"t_end": t_end, "output_period": output_period, "dt": dt}
    if auto and isinstance(dt, str) and dt == "auto":
        del named["dt"]
    for name, value in named.items():
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and value > 0 and math.isfinite(value)):
            also = " or 'auto'" if auto and name == "dt" else ""
            raise ValueError(f"{name} must be a positive finite number{also}"
                             f", got {value!r}")


def exponential_ramp(tau: float) -> Callable[[float], float]:
    """Waveform t -> 1 - exp(-t / tau), the saturating turn-on current."""
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    return lambda t: 1.0 - np.exp(-t / tau)


class ScaledPatternSource:
    """Separable source j(t) = pattern * waveform(t).

    The fixed spatial ``pattern`` stays readable; the model checksum hashes
    it.
    """

    def __init__(self, pattern, waveform: Callable[[float], float]):
        self.pattern = as_vector(pattern, name="source pattern")
        self.waveform = waveform

    def __call__(self, t: float) -> np.ndarray:
        return self.pattern * float(self.waveform(t))


@dataclass
class PartitionedSystem:
    """Matrices and operators of the conducting / nonconducting partition.

    ``kc_apply(a)`` returns the conducting force K_c(a) a of the
    state-dependent conducting block; ``kc_matrix(a)`` materializes K_c(a),
    the one linear form of the block; ``kc_jacobian`` materializes
    d/da [K_c(a) a] at the state (equal to ``kc_matrix`` for linear
    materials, and None falls back to it). ``kc_jacobian`` should
    return one sparsity pattern whatever the state, explicit zeros included;
    the implicit integrator builds its Newton matrix pattern around it and
    re-patterns the Newton matrix whenever it changes. ``source`` maps time
    to the nonconducting right-hand side, which must be consistent with the
    singular block by construction. ``mc`` must be diagonal with a positive
    diagonal, as the lumped FIT conductivity matrix always is, so M_c^{-1}
    is one elementwise product.
    """

    mc: CsrMatrix
    kcn: CsrMatrix
    kn: CsrMatrix
    kc_apply: Callable[[np.ndarray], np.ndarray]
    kc_matrix: Callable[[np.ndarray], CsrMatrix]
    source: Callable[[float], np.ndarray]
    kc_jacobian: Callable[[np.ndarray], CsrMatrix] | None = None

    def __post_init__(self):
        if self.mc.nrows != self.mc.ncols:
            raise ValueError("conductivity block must be square")
        if self.kn.nrows != self.kn.ncols:
            raise ValueError("nonconducting block must be square")
        if self.kcn.shape != (self.mc.nrows, self.kn.nrows):
            raise ValueError(
                f"coupling block has shape {self.kcn.shape}, expected "
                f"({self.mc.nrows}, {self.kn.nrows})")
        if not self.mc.is_diagonal():
            raise ValueError("conductivity block must be diagonal")
        if (self.mc.diagonal() <= 0).any():
            raise ValueError("conductivity diagonal must be positive")
        if self.kc_jacobian is None:
            self.kc_jacobian = self.kc_matrix

    @property
    def n_c(self) -> int:
        return self.mc.nrows

    @property
    def n_n(self) -> int:
        return self.kn.nrows

    def validate(self, tol: float = 1e-10) -> None:
        """Symmetry checks of the nonconducting and conducting blocks."""
        if not symmetric_check(self.kn, tol * _matrix_scale(self.kn)):
            raise ValueError("nonconducting block is not symmetric")
        kc0 = self.kc_matrix(np.zeros(self.n_c))
        if not symmetric_check(kc0, tol * _matrix_scale(kc0)):
            raise ValueError("conducting block is not symmetric")

    @classmethod
    def linear(cls, mc, kcn, kn, kc: CsrMatrix, source) -> "PartitionedSystem":
        """Wrap constant matrices as a (linear) partitioned system."""
        return cls(mc=mc, kcn=kcn, kn=kn,
                   kc_apply=lambda state: spmv(kc, state),
                   kc_matrix=lambda state: kc,
                   kc_jacobian=lambda state: kc,
                   source=source)


def _matrix_scale(a: CsrMatrix) -> float:
    return float(np.abs(a.values).max()) if a.nnz else 1.0


class SchurOperator:
    """The inner K_n solves of the eliminated system and their bookkeeping.

    Inner pseudo-inverse actions are Jacobi-preconditioned CG solves on the
    singular nonconducting block to the tolerances of ``config.pcg`` (None:
    the default ``ExplicitConfig``). Each right-hand-side family is seeded
    by a strategy object of its own, ``strategies[family]``: the one
    ``config.strategy`` names, or the built *strategies* (a dict over
    FAMILIES). A CSPE strategy built here keeps at most n_c basis columns,
    the most directions the coupling solutions span. Per-solve iteration counts
    (``solve_iterations``, one list per family) and solver wall time are
    accumulated for benchmarking, and ``kn_applies`` splits the K_n
    products by cause. ``minv_diag`` is the diagonal of M_c^{-1}, by which
    the explicit step multiplies.
    """

    def __init__(self, system: PartitionedSystem,
                 config: ExplicitConfig | None = None,
                 strategies: dict | None = None):
        self.system = system
        self.config = config = config or ExplicitConfig()
        self._kn_apply = partial(_matvec, system.kn)
        self._precond = build_preconditioner(system.kn)
        # the coupling solutions K_n^+ K_cn^T a_c span at most n_c
        # directions, so a CSPE basis of n_c columns per family holds them
        # all; basis increments smaller than the inner solve tolerance are
        # solver noise, and accepting them churns the capped basis
        self.strategies = strategies or {
            f: make_strategy(config.strategy, system.n_n, self._kn_apply,
                             system.n_c, config.pcg.rel_tol)
            for f in FAMILIES}
        self.minv_diag = 1.0 / system.mc.diagonal()
        self.solve_iterations = {f: [] for f in FAMILIES}
        self.solver_seconds = 0.0

    @property
    def kn_applies(self) -> dict[str, int]:
        """The K_n products so far by cause: PCG iterations of the family
        solves (``pcg``), one product each, and the strategies' upkeep
        (``upkeep``, their ``products_computed``). No solve forms its
        initial residual with a product."""
        return {"pcg": sum(sum(log) for log in self.solve_iterations.values()),
                "upkeep": sum(s.products_computed
                              for s in self.strategies.values())}

    def solve_kn(self, rhs, family: RhsFamily, step: int | None = None
                 ) -> tuple[np.ndarray, SolveReport]:
        """K_n^+ rhs by PCG: the one solve behind every inner action of the
        run.

        The strategy of the *family* returns the start vector x0 with its
        K_n image, and the solve takes the initial residual r0 = rhs - image
        from it under ``pcg_solve``'s finiteness test (``_vector``) and
        stopping rule (``_stopping_target``), with no K_n product. A start
        that meets the rule is returned itself, with zero iterations and its
        true residual; any other start is corrected by ``_correct``. The
        solution goes back to the strategy (``observe``) and its iteration
        count to the family's log.
        A failure names the solve by *family* and *step*; an
        IndefiniteOperatorError from PCG keeps its class, so an
        InconsistentRhsError stays one.
        """
        started = time.perf_counter()
        strategy = self.strategies[family]
        try:
            x0, image = strategy.start_vector(rhs)
            rhs, squares = _vector(rhs, x0.size, "rhs")
            rhs_norm = math.sqrt(squares)
            target = _stopping_target(self.config.pcg, rhs_norm)
            # ndarray.dot is @ without the ufunc dispatch
            r0 = rhs - image
            r0_norm = math.sqrt(r0.dot(r0))
            if r0_norm <= target:
                y, report = x0, SolveReport(0, _relative(r0_norm, rhs_norm),
                                            True)
            else:
                y, report = self._correct(x0, r0, r0_norm, rhs_norm, target)
        except IndefiniteOperatorError as err:
            raise type(err)(f"{_solve_name(family, step)}: {err}",
                            err.component, err.iteration) from err
        except ValueError as err:
            # _vector, or a strategy before it, rejects a non-finite rhs;
            # testing the rhs only then keeps the test off the step's cost
            if np.isfinite(rhs).all():
                raise
            raise StepFailureError(
                f"{_solve_name(family, step)}: non-finite right-hand side"
            ) from err
        if not report.converged:
            raise StepFailureError(
                f"{_solve_name(family, step)} stalled at relative residual "
                f"{report.final_rel_residual:.3e} after {report.iterations} "
                "iterations")
        strategy.observe(y)
        self.solve_iterations[family].append(report.iterations)
        self.solver_seconds += time.perf_counter() - started
        return y, report

    def _correct(self, x0: np.ndarray, r0: np.ndarray, r0_norm: float,
                 rhs_norm: float, target: float
                 ) -> tuple[np.ndarray, SolveReport]:
        """x0 + d, where PCG solves K_n d = r0 from zero down to the
        residual norm *target* of the solve of a right-hand side of norm
        *rhs_norm*. The report's residual and an inconsistency's size are
        relative to that right-hand side, not to r0.
        """
        # the smallest positive rel_tol leaves target the whole rule
        absolute = replace(self.config.pcg, rel_tol=math.ulp(0.0),
                           abs_tol=target)
        try:
            d, report = pcg_solve(self._kn_apply, r0, config=absolute,
                                  preconditioner=self._precond)
        except IndefiniteOperatorError as err:
            if err.component is None:
                raise
            raise IndefiniteOperatorError.inconsistent(
                err.component, rhs_norm, err.iteration) from err
        d += x0
        return d, SolveReport(
            report.iterations,
            _relative(report.final_rel_residual * r0_norm, rhs_norm),
            report.converged)


def _solve_name(family: RhsFamily, step: int | None) -> str:
    where = f" at step {step}" if step is not None else ""
    return f"inner solve ({family.value}){where}"


@dataclass(frozen=True)
class CflEstimate:
    """Lanczos estimate of lambda_max(M_c^{-1} K_S), the diagnostic that
    shows how tight ``stability_bound`` is.

    ``lambda_max`` is the top Ritz value theta of the eliminated operator,
    ``residual`` the norm of its explicit Ritz residual and ``ceiling`` the
    ``stability_bound`` at the same state, which no eigenvalue of the
    eliminated operator exceeds. The residual shows that *some* eigenvalue
    lies within it of theta; theta + residual is above lambda_max only if
    theta approximates the top eigenvalue (see estimate_cfl).
    ``power_iters`` counts the Lanczos steps this estimate took, one inner
    K_n solve each.
    """

    lambda_max: float
    residual: float
    ceiling: float
    power_iters: int


def stability_bound(system: PartitionedSystem, a_c=None) -> float:
    """lambda_max(M_c^{-1/2} K_c(a_c) M_c^{-1/2}), an upper bound on
    lambda_max(M_c^{-1} K_S(a_c)) that needs no inner solve (see the module
    docstring), from one dense symmetric eigenvalue problem of order n_c.
    *a_c* None is the zero state."""
    n = system.n_c
    state = np.zeros(n) if a_c is None else as_vector(a_c, length=n)
    scale = 1.0 / np.sqrt(system.mc.diagonal())
    scaled = scale[:, None] * system.kc_matrix(state).to_dense() * scale
    return float(scipy.linalg.eigvalsh(scaled,
                                       subset_by_index=[n - 1, n - 1])[0])


def _ritz(q: np.ndarray, aq: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Top Ritz pair of the basis q with products aq: (theta, y, residual)."""
    h = q.T @ aq
    theta, vectors = np.linalg.eigh(0.5 * (h + h.T))
    y = vectors[:, -1]
    residual = float(np.linalg.norm(aq @ y - theta[-1] * (q @ y)))
    return float(theta[-1]), y, residual


def estimate_cfl(system: PartitionedSystem, a_c_ref=None, *,
                 pcg: PcgConfig = ExplicitConfig.pcg, cfl_steps: int = 60,
                 cfl_tol: float = 1e-3, seed: int = 42) -> CflEstimate:
    """Estimate lambda_max(M_c^{-1} K_S) by Lanczos with a residual certificate.

    M_c is diagonal, so M_c^{-1} K_S has the eigenvalues of the symmetric
    A = M_c^{-1/2} K_S(a) M_c^{-1/2}. Lanczos with full reorthogonalisation
    runs on A from a pseudo-random start vector drawn with *seed*, written
    as Rayleigh-Ritz on a growing orthonormal basis whose next direction is
    the top Ritz residual (in exact arithmetic the Lanczos vector). Each step
    costs one inner K_n solve, PCG with *pcg* from zero. It stops when the
    explicit Ritz residual is at most ``cfl_tol * theta``, after
    ``cfl_steps`` steps, or when the basis spans an invariant subspace (the
    whole space at the latest), where theta is exact and the residual is 0.
    On the 8-cell builtin model at a_c = 0 the top two eigenvalues are
    83,517 and 83,535, and 20 steps meet the default tolerance 1e-3.

    theta never exceeds lambda_max, and an eigenvalue lies within the
    residual of theta. theta + residual is therefore an upper bound on
    lambda_max only when theta approximates the top eigenvalue, not one
    below it: likely from a random start vector once the residual meets
    ``cfl_tol``, but not certified. An estimate stopped by ``cfl_steps`` can
    fall short: on the 6-cell builtin model at a_c = 0, five steps give
    theta + residual = 82,423 against lambda_max = 83,622. A run therefore
    takes its step from ``stability_bound``, not from this estimate.

    A theta above ``stability_bound`` is impossible, since K_cn K_n^+ K_cn^T
    is positive semidefinite: it raises StepFailureError, as a broken inner
    solve.
    """
    n = system.n_c
    ref = np.zeros(n) if a_c_ref is None else as_vector(a_c_ref, length=n)
    scale = np.sqrt(1.0 / system.mc.diagonal())
    kc = system.kc_matrix(ref).to_scipy()
    ceiling = stability_bound(system, ref)
    precond = build_preconditioner(system.kn)

    def lanczos_step(v):
        # A v from one inner solve
        x = scale * v
        y, report = pcg_solve(system.kn, spmv_transpose(system.kcn, x),
                              config=pcg, preconditioner=precond)
        if not report.converged:
            raise StepFailureError(
                f"spectral estimate: inner solve stalled at relative residual "
                f"{report.final_rel_residual:.3e} after {report.iterations} "
                "iterations")
        return scale * (kc @ x) - scale * spmv(system.kcn, y)

    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    q, aq = v[:, None], lanczos_step(v)[:, None]
    while True:
        theta, y, residual = _ritz(q, aq)
        if q.shape[1] == n:
            residual = 0.0
        if residual <= cfl_tol * abs(theta):
            break
        if q.shape[1] == cfl_steps:
            log.warning("CFL estimate stopped after %d Lanczos steps at "
                        "residual %.3e > %.1e * theta", q.shape[1], residual,
                        cfl_tol)
            break
        # the Ritz residual is orthogonal to the basis; two Gram-Schmidt
        # sweeps keep it so in floating point
        v = aq @ y - theta * (q @ y)
        for _ in range(2):
            v -= q @ (q.T @ v)
        beta = np.linalg.norm(v)
        if beta <= n * np.finfo(float).eps * abs(theta):
            residual = 0.0           # invariant subspace: theta is exact
            break
        q = np.column_stack([q, v / beta])
        aq = np.column_stack([aq, lanczos_step(v / beta)])
    if not (theta > 0.0) or not np.isfinite(theta):
        raise StepFailureError(f"spectral estimate is not positive: {theta}")
    # rounding, and the inner solves' tolerance, may lift an exact theta
    # just above the ceiling
    if theta > ceiling * (1.0 + max(pcg.rel_tol, 1e-8)):
        raise StepFailureError(
            f"spectral estimate: Ritz value {theta:.6e} exceeds the "
            f"stability bound {ceiling:.6e} of M_c^-1/2 K_c M_c^-1/2, so an "
            "inner K_n solve is wrong")
    return CflEstimate(lambda_max=theta, residual=residual, ceiling=ceiling,
                       power_iters=q.shape[1])


def explicit_euler_step(state: tuple[np.ndarray, float], dt: float,
                        op: SchurOperator, step_index: int | None = None,
                        solutions: tuple[np.ndarray, np.ndarray] | None = None
                        ) -> np.ndarray:
    """One explicit Euler step a_c + dt M_c^-1 f(t, a_c) of the eliminated
    system, its rate taken at the step's start.

    The rate needs two inner solves at (a_c, t): the source K_n^+ j_n(t) and
    the coupling K_n^+ K_cn^T a_c. *solutions* is that pair
    ``(y_src, y_cpl)`` as ``recover_an`` returned it for the same (a_c, t);
    without it the step makes both solves. Returns the new conducting state.
    ``dt == 0`` reproduces the state bit for bit. A failure names
    ``step_index`` when it is given.
    """
    a_c, t = state
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if solutions is None:
        y_src, _ = op.solve_kn(op.system.source(t), RhsFamily.SOURCE_CURRENT,
                               step_index)
        y_cpl, _ = op.solve_kn(spmv_transpose(op.system.kcn, a_c),
                               RhsFamily.COUPLING_FROM_PREVIOUS_STATE,
                               step_index)
    else:
        y_src, y_cpl = solutions
    # d/dt a_c = M^-1 (K_cn (y_cpl - y_src) - K_c a_c): substituting the
    # algebraic block a_n = y_src - y_cpl into the conducting row flips the
    # sign of the source term relative to the coupling term.
    rate = spmv(op.system.kcn, y_cpl - y_src) - op.system.kc_apply(a_c)
    a_next = a_c + dt * (op.minv_diag * rate)
    if not np.isfinite(a_next).all():
        where = f" at step {step_index}" if step_index is not None else ""
        raise StepFailureError(f"non-finite conducting state{where} "
                               f"(t = {t + dt:.6e})")
    return a_next


def recover_an(op: SchurOperator, a_c, t: float, step: int | None = None
               ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Nonconducting unknowns a_n = K_n^+ j_n(t) - K_n^+ K_cn^T a_c.

    Both solves run under the stepping families, so they are the pair the
    next step from (a_c, t) needs: returns ``(a_n, (y_src, y_cpl))``, and
    the pair goes to ``explicit_euler_step`` as *solutions*. *step* names
    the step that ended at t in a failure message.
    """
    y_src, _ = op.solve_kn(op.system.source(t), RhsFamily.SOURCE_CURRENT,
                           step)
    y_cpl, _ = op.solve_kn(spmv_transpose(op.system.kcn, a_c),
                           RhsFamily.COUPLING_FROM_PREVIOUS_STATE, step)
    return y_src - y_cpl, (y_src, y_cpl)


@dataclass
class TransientResult:
    """Output-time series of one transient run plus run-level aggregates.

    The iteration columns carry the mean inner iterations per solve of each
    family since the previous output row. Recovery at a row makes the pair
    of solves the next step takes as its own, and logs them in that row.
    ``pod_k`` and ``pod_info`` are the largest k and the smallest kept
    information ratio over every POD projection in the same window (0 and
    1.0 without one).
    """

    times: np.ndarray
    probe_b: np.ndarray
    iters_src: np.ndarray
    iters_cpl_prev: np.ndarray
    basis_cols: np.ndarray
    pod_k: np.ndarray
    pod_info: np.ndarray
    final_a_c: np.ndarray
    final_a_n: np.ndarray | None
    aggregates: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.times.size


def _mean(counts) -> float:
    return float(np.mean(counts)) if counts else 0.0


class TraceRecorder:
    """Output schedule, trace rows and shared aggregates of a transient run.

    Both integrators log every count once and hand the logs over here:
    ``iterations`` maps each family in FAMILIES to its per-solve PCG
    iterations, and ``projections`` holds one log per family of
    ``(k, info)`` entries, one per POD projection. A row reports what was
    logged since the previous row: the mean iterations per solve of each
    family, and over the projections of both families the largest k and the
    smallest kept information (0 and 1.0 without a projection), which do
    not depend on the order of the logs.
    """

    def __init__(self, t_end: float, output_period: float, probe,
                 iterations: dict, projections=()):
        self.t_end = t_end
        self.output_period = output_period
        self.eps = 1e-12 * t_end
        self.probe = probe
        self.iterations = iterations
        self.projections = projections
        self._next_output = output_period
        # log lengths at the previous row
        self._seen = {f: 0 for f in FAMILIES}
        self._seen_projections = [0] * len(projections)
        self.rows = {name: [] for name in ("t", "b", "src", "prev", "basis",
                                           "k", "info")}

    def running(self, t: float) -> bool:
        return t < self.t_end - self.eps

    def due(self, t: float) -> bool:
        """Whether a row is owed at t: an output time passed or t_end hit."""
        return t >= self._next_output - self.eps or t >= self.t_end - self.eps

    def row(self, t: float, a_c, a_n, basis_cols: int = 0) -> None:
        rows = self.rows
        rows["t"].append(t)
        rows["b"].append(float(self.probe(a_c, a_n, t)) if self.probe
                         else 0.0)
        for name, family in zip(("src", "prev"), FAMILIES):
            log = self.iterations[family]
            rows[name].append(_mean(log[self._seen[family]:]))
            self._seen[family] = len(log)
        window = [entry for log, seen in zip(self.projections,
                                             self._seen_projections)
                  for entry in log[seen:]]
        self._seen_projections = [len(log) for log in self.projections]
        rows["basis"].append(basis_cols)
        rows["k"].append(max((k for k, _ in window), default=0))
        # a truncation keeps at most all of the information
        rows["info"].append(min([1.0] + [info for _, info in window]))
        while self._next_output <= t + self.eps:
            self._next_output += self.output_period

    def result(self, final_a_c, final_a_n, aggregates: dict
               ) -> TransientResult:
        """The trace plus *aggregates* and the keys both integrators share."""
        rows = self.rows
        logs = self.iterations
        shared = {
            "solves": {f.value: len(logs[f]) for f in FAMILIES},
            "iterations": {f.value: int(sum(logs[f])) for f in FAMILIES},
            "mean_iterations": {f.value: _mean(logs[f]) for f in FAMILIES},
            "max_basis_cols": max(rows["basis"], default=0),
            "min_pod_info": min([1.0] + [info for log in self.projections
                                         for k, info in log if k]),
        }
        return TransientResult(
            times=np.asarray(rows["t"]), probe_b=np.asarray(rows["b"]),
            iters_src=np.asarray(rows["src"]),
            iters_cpl_prev=np.asarray(rows["prev"]),
            basis_cols=np.asarray(rows["basis"], dtype=np.int64),
            pod_k=np.asarray(rows["k"], dtype=np.int64),
            pod_info=np.asarray(rows["info"]),
            final_a_c=final_a_c, final_a_n=final_a_n,
            aggregates=aggregates | shared)


def run_explicit(system: PartitionedSystem, t_end: float, dt="auto",
                 config: ExplicitConfig | None = None, *, probe=None,
                 output_period: float = OUTPUT_PERIOD) -> TransientResult:
    """Integrate the eliminated system with explicit Euler.

    *config* holds the run's settings (None: the default
    ``ExplicitConfig``). ``dt="auto"`` takes the step
    ``config.stable_step(stability_bound(system))`` at the zero state and
    re-evaluates the bound every ``config.reestimate_every`` steps at the
    current state, shrinking the step when saturation raised the bound (a
    fixed dt is never adjusted). No bound needs a K_n product. Every refresh
    is logged in ``aggregates["cfl_history"]`` as ``(step, bound, dt)``: the
    bound and the step used after it.
    ``probe`` maps (a_c, a_n, t) to the scalar recorded per output row.

    Raises ValueError first on a bad run argument (``check_run_arguments``),
    and StepFailureError on divergence, a non-finite source, a stalled
    inner solve or more than ``MAX_STEPS`` steps, naming the step.
    """
    check_run_arguments(t_end, dt, output_period)
    wall_start = time.perf_counter()
    op = SchurOperator(system, config)
    strategies = op.strategies.values()
    trace = TraceRecorder(t_end, output_period, probe, op.solve_iterations,
                          [s.projections for s in strategies])
    auto = isinstance(dt, str)
    if auto:
        bound = stability_bound(system)
        dt_val = op.config.stable_step(bound)
    else:
        dt_val = float(dt)
        bound = None
    refresh_every = op.config.reestimate_every if auto else 0

    a_c = np.zeros(system.n_c)
    t = 0.0
    # each output row makes the solves of the step after it
    a_n, solutions = recover_an(op, a_c, t, step=0)
    trace.row(t, a_c, a_n, max(s.size for s in strategies))
    steps = 0
    cfl_history = []
    while trace.running(t):
        if refresh_every and steps and steps % refresh_every == 0:
            bound = stability_bound(system, a_c)
            refreshed = op.config.stable_step(bound)
            if refreshed < dt_val:
                log.info("stability bound tightened: dt %.3e -> %.3e",
                         dt_val, refreshed)
                dt_val = refreshed
            cfl_history.append((steps, bound, dt_val))
        step_dt = min(dt_val, t_end - t)
        a_c = explicit_euler_step((a_c, t), step_dt, op,
                                  step_index=steps + 1, solutions=solutions)
        solutions = None
        t += step_dt
        steps += 1
        if steps > MAX_STEPS:
            raise StepFailureError(f"step budget exceeded ({MAX_STEPS})")
        if trace.due(t):
            a_n, solutions = recover_an(op, a_c, t, step=steps)
            trace.row(t, a_c, a_n, max(s.size for s in strategies))

    kn_applies = op.kn_applies
    return trace.result(a_c, a_n, {
        "integrator": "explicit",
        "strategy": op.config.strategy.kind,
        "steps": steps,
        "dt": dt_val,
        "stability_bound": bound,
        "cfl_refreshes": len(cfl_history),
        "cfl_history": cfl_history,
        "maintenance_applies": kn_applies["upkeep"],
        "evictions": {f.value: s.evictions
                      for f, s in op.strategies.items()},
        "kn_applies": kn_applies,
        "operator_applies": sum(kn_applies.values()),
        "wall_seconds": time.perf_counter() - wall_start,
        "solver_seconds": op.solver_seconds,
    })
