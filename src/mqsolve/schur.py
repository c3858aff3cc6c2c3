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
right-hand-side family; recovering the nonconducting unknowns at an output
time adds two more, of which the source-family solve is a repeat that warm
starts to zero iterations.

The explicit step is stable for dt below 2 / lambda_max(M_c^{-1} K_S); the
bound is estimated by Lanczos with a Ritz-residual certificate and checked
against a Gershgorin ceiling that needs no inner solve. Saturation changes
K_S, so a run refreshes the bound periodically; only K_c depends on the
state, so a refresh reuses the Krylov basis and its inner solutions.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .krylov import (PcgConfig, Preconditioner, SolveReport,
                     build_preconditioner, pcg_solve)
from .sparse import CsrMatrix, as_vector, spmv, spmv_transpose, symmetric_check
from .startvec import RhsFamily, StartVectorStrategy, make_strategy

__all__ = [
    "PartitionedSystem",
    "ScaledPatternSource",
    "exponential_ramp",
    "SchurOperator",
    "CflEstimate",
    "estimate_cfl",
    "explicit_euler_step",
    "recover_an",
    "run_explicit",
    "TransientResult",
    "StepFailureError",
]

log = logging.getLogger(__name__)

FAMILIES = (RhsFamily.SOURCE_CURRENT,
            RhsFamily.COUPLING_FROM_CURRENT_STATE,
            RhsFamily.COUPLING_FROM_PREVIOUS_STATE)


class StepFailureError(RuntimeError):
    """A time step produced a non-finite state or an inner solve failed."""


def exponential_ramp(tau: float) -> Callable[[float], float]:
    """Waveform t -> 1 - exp(-t / tau), the saturating turn-on current."""
    if tau <= 0:
        raise ValueError("tau must be positive")
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

    ``kc_apply(state, x)`` applies the state-dependent conducting block
    K_c(state) to x; ``kc_matrix(state)`` materializes it; ``kc_jacobian``
    materializes d/da [K_c(a) a] at the state (equal to ``kc_matrix`` for
    linear materials, and None falls back to it). ``kc_jacobian`` should
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
    kc_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
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
                   kc_apply=lambda state, x: spmv(kc, x),
                   kc_matrix=lambda state: kc,
                   kc_jacobian=lambda state: kc,
                   source=source)


def _matrix_scale(a: CsrMatrix) -> float:
    return float(np.abs(a.values).max()) if a.nnz else 1.0


class SchurOperator:
    """Applies the eliminated-block operator and bookkeeps every inner solve.

    Inner pseudo-inverse actions are PCG solves on the singular nonconducting
    block, seeded per right-hand-side family by the configured start-vector
    strategy. ``pcg`` chooses the tolerances and the preconditioner; None
    means the default tolerances with Jacobi. Per-solve iteration counts
    (``solve_iterations``, one list per family), K_n applications of the
    solves (``pcg_applies``) and solver wall time are accumulated for
    benchmarking.
    """

    def __init__(self, system: PartitionedSystem, pcg: PcgConfig | None = None,
                 strategy: StartVectorStrategy | str = "previous", *,
                 max_cols: int = 20, n_pod: int = 10, eps_pod: float = 1e-4):
        self.system = system
        self.pcg = pcg or PcgConfig(preconditioner=Preconditioner.JACOBI)
        self._kn_apply = system.kn.to_scipy().__matmul__
        # built here from the matrix, so pcg_solve never tries to build one
        # for the callable operator
        self._precond = build_preconditioner(system.kn,
                                             self.pcg.preconditioner)
        if isinstance(strategy, StartVectorStrategy):
            self.strategy = strategy
        else:
            # basis increments smaller than the inner solve tolerance are
            # solver noise; accepting them churns the capped basis
            self.strategy = make_strategy(strategy, system.n_n,
                                          self._kn_apply,
                                          max_cols=max_cols, n_pod=n_pod,
                                          eps_pod=eps_pod,
                                          drop_tol=self.pcg.rel_tol)
        self._minv_diag = 1.0 / system.mc.diagonal()
        self.solve_iterations = {f: [] for f in FAMILIES}
        self.pcg_applies = 0
        self.solver_seconds = 0.0

    def solve_kn(self, rhs, family: RhsFamily, step: int | None = None
                 ) -> tuple[np.ndarray, SolveReport]:
        """One pseudo-inverse action K_n^+ rhs for the given family.

        *step* only names the time step in a failure message.
        """
        return self._solve(rhs, family=family, step=step)

    def minv(self, x: np.ndarray) -> np.ndarray:
        return self._minv_diag * x

    def apply_detached(self, x, lin_state) -> tuple[np.ndarray, np.ndarray]:
        """K_S x with a cold inner solve that leaves no family history.

        Used by the spectral estimator so its probing solves do not pollute
        the time-stepping caches. Returns (K_S x, inner solution
        K_n^+ K_cn^T x).
        """
        w = spmv_transpose(self.system.kcn, x)
        y, _ = self._solve(w)
        return self.system.kc_apply(lin_state, x) - spmv(self.system.kcn, y), y

    def _solve(self, rhs, family: RhsFamily | None = None,
               step: int | None = None) -> tuple[np.ndarray, SolveReport]:
        """The one PCG solve on K_n behind every inner action.

        With a *family* the start vector comes from the strategy, and the
        solution and iteration count go back to it and to the family log;
        without one the solve starts from zero and leaves no history.
        """
        started = time.perf_counter()
        x0 = None
        try:
            if family is not None:
                x0 = self.strategy.start_vector(family, rhs)
            y, report = pcg_solve(self._kn_apply, rhs, x0=x0,
                                  config=self.pcg,
                                  preconditioner=self._precond)
        except ValueError as err:
            # pcg_solve, or a strategy before it, rejects a non-finite rhs;
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
        # one K_n product per iteration, plus the initial residual, which
        # pcg_solve computes only when it is given a start vector
        self.pcg_applies += report.iterations + (x0 is not None)
        if family is not None:
            self.strategy.observe(family, y)
            self.solve_iterations[family].append(report.iterations)
        self.solver_seconds += time.perf_counter() - started
        return y, report


def _solve_name(family: RhsFamily | None, step: int | None) -> str:
    if family is None:
        return "spectral probe solve"
    where = f" at step {step}" if step is not None else ""
    return f"inner solve ({family.value}){where}"


@dataclass(frozen=True)
class CflEstimate:
    """Largest stable explicit step: dt_max = safety * 2 / bound.

    ``lambda_max`` is the top Ritz value theta of the eliminated operator,
    ``residual`` the norm of its explicit Ritz residual, ``bound`` their sum
    and ``ceiling`` the Gershgorin bound of M_c^{-1/2} K_c M_c^{-1/2}, which
    no eigenvalue of the eliminated operator exceeds. Only the ceiling is a
    guaranteed upper bound on lambda_max: the residual shows that *some*
    eigenvalue lies within it of theta, and ``bound`` is above lambda_max
    only if theta approximates the top eigenvalue (see estimate_cfl). ``power_iters`` counts
    the Lanczos steps this estimate took, one inner K_n solve each. ``basis``
    (orthonormal columns Q in the scaled space) and ``coupling``
    (M_c^{-1/2} K_cn K_n^+ K_cn^T M_c^{-1/2} Q) do not depend on the state;
    passing the estimate as ``previous`` to the next estimate reuses them.
    """

    lambda_max: float
    residual: float
    ceiling: float
    dt_max: float
    safety: float
    power_iters: int
    cfl_tol: float
    basis: np.ndarray = field(repr=False, compare=False)
    coupling: np.ndarray = field(repr=False, compare=False)

    @property
    def bound(self) -> float:
        return self.lambda_max + self.residual


def _ritz(q: np.ndarray, aq: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Top Ritz pair of the basis q with products aq: (theta, y, residual)."""
    h = q.T @ aq
    theta, vectors = np.linalg.eigh(0.5 * (h + h.T))
    y = vectors[:, -1]
    residual = float(np.linalg.norm(aq @ y - theta[-1] * (q @ y)))
    return float(theta[-1]), y, residual


def estimate_cfl(op: SchurOperator, a_c_ref=None, *, cfl_steps: int = 60,
                 cfl_tol: float = 1e-3, safety: float = 0.9, seed: int = 42,
                 previous: CflEstimate | None = None,
                 step: int | None = None) -> CflEstimate:
    """Estimate lambda_max(M_c^{-1} K_S) by Lanczos with a residual certificate.

    M_c is diagonal, so M_c^{-1} K_S has the eigenvalues of the symmetric
    A = M_c^{-1/2} K_S(a) M_c^{-1/2}. Lanczos with full reorthogonalisation
    runs on A from a fixed-seed pseudo-random start vector, written as
    Rayleigh-Ritz on a growing orthonormal basis whose next direction is the
    top Ritz residual (in exact arithmetic the Lanczos vector). Each step
    costs one inner K_n solve. It stops when the explicit Ritz residual is
    at most ``cfl_tol * theta``, after ``cfl_steps`` steps, or when the basis
    spans an invariant subspace (the whole space at the latest), where theta
    is exact and the residual is 0. On the 8-cell builtin model at a_c = 0
    the top two eigenvalues are 83,517 and 83,535, and 20 steps meet the
    default tolerance 1e-3.

    Only K_c depends on the state. With ``previous`` the estimate first does
    Rayleigh-Ritz on the previous basis, with its stored coupling products
    and K_c at *a_c_ref*: no K_n solve. Lanczos continues from that Ritz
    vector only if the residual is above the tolerance; a basis of
    ``cfl_steps`` columns restarts from the Ritz vector.

    theta never exceeds lambda_max, and an eigenvalue lies within the
    residual of theta. theta + residual is therefore an upper bound on
    lambda_max only when theta approximates the top eigenvalue, not one
    below it: likely from a random start vector once the residual meets
    ``cfl_tol``, but not certified. An estimate stopped by ``cfl_steps`` can
    fall short: on the 6-cell builtin model at a_c = 0, five steps give
    theta + residual = 82,423 against lambda_max = 83,622. Explicit Euler
    keeps a margin of 1 / safety; anything that needs a guaranteed bound
    must use the ceiling.

    A theta above the Gershgorin ceiling of M_c^{-1/2} K_c M_c^{-1/2} is
    impossible, since K_cn K_n^+ K_cn^T is positive semidefinite: it raises
    StepFailureError naming *step*, as a broken inner solve. The bound
    theta + residual is not held to the ceiling: the residual of an estimate
    stopped by ``cfl_steps`` may pass it with correct solves.
    """
    if not (0.0 < safety <= 1.0):
        raise ValueError("safety must lie in (0, 1]")
    if cfl_steps < 1:
        raise ValueError("cfl_steps must be at least 1")
    if not (cfl_tol >= 0.0):
        raise ValueError("cfl_tol must be nonnegative")
    system = op.system
    n = system.n_c
    ref = np.zeros(n) if a_c_ref is None else as_vector(a_c_ref, length=n)
    scale = np.sqrt(op.minv(np.ones(n)))
    kc = system.kc_matrix(ref).to_scipy()
    ceiling = float((scale * (abs(kc) @ scale)).max())

    def lanczos_step(v):
        # A v and C v, C = M_c^{-1/2} K_cn K_n^+ K_cn^T M_c^{-1/2}, from one
        # inner solve
        ks_x, y = op.apply_detached(scale * v, ref)
        return scale * ks_x, scale * spmv(system.kcn, y)

    if previous is not None:
        q, cq = previous.basis, previous.coupling
        if q.shape[0] != n:
            raise ValueError("previous estimate belongs to another system")
        aq = scale[:, None] * (kc @ (scale[:, None] * q)) - cq
        steps = 0
    else:
        v = np.random.default_rng(seed).standard_normal(n)
        v /= np.linalg.norm(v)
        av, cv = lanczos_step(v)
        q, aq, cq = v[:, None], av[:, None], cv[:, None]
        steps = 1
    while True:
        theta, y, residual = _ritz(q, aq)
        if q.shape[1] == n:
            residual = 0.0
        if residual <= cfl_tol * abs(theta):
            break
        if steps == cfl_steps:
            log.warning("CFL estimate stopped after %d Lanczos steps at "
                        "residual %.3e > %.1e * theta", steps, residual,
                        cfl_tol)
            break
        # the Ritz residual is orthogonal to the basis; two Gram-Schmidt
        # sweeps keep it so in floating point
        v = aq @ y - theta * (q @ y)
        if q.shape[1] >= cfl_steps:
            # restart from the Ritz vector, to which v is orthogonal too
            q, aq, cq = q @ y[:, None], aq @ y[:, None], cq @ y[:, None]
        for _ in range(2):
            v -= q @ (q.T @ v)
        beta = np.linalg.norm(v)
        if beta <= n * np.finfo(float).eps * abs(theta):
            residual = 0.0           # invariant subspace: theta is exact
            break
        av, cv = lanczos_step(v / beta)
        q = np.column_stack([q, v / beta])
        aq = np.column_stack([aq, av])
        cq = np.column_stack([cq, cv])
        steps += 1
    if not (theta > 0.0) or not np.isfinite(theta):
        raise StepFailureError(f"spectral estimate is not positive: {theta}")
    # rounding, and the inner solves' tolerance, may lift an exact theta
    # just above the ceiling
    if theta > ceiling * (1.0 + max(op.pcg.rel_tol, 1e-8)):
        where = f" at step {step}" if step is not None else ""
        raise StepFailureError(
            f"spectral estimate{where}: Ritz value {theta:.6e} exceeds the "
            f"Gershgorin ceiling {ceiling:.6e} of M_c^-1/2 K_c M_c^-1/2, "
            "so an inner K_n solve is wrong")
    return CflEstimate(lambda_max=theta, residual=residual, ceiling=ceiling,
                       dt_max=safety * 2.0 / (theta + residual), safety=safety,
                       power_iters=steps, cfl_tol=cfl_tol, basis=q,
                       coupling=cq)


def explicit_euler_step(state: tuple[np.ndarray, float], dt: float,
                        op: SchurOperator, step_index: int | None = None
                        ) -> tuple[np.ndarray, tuple[SolveReport, SolveReport]]:
    """One explicit Euler step of the eliminated system.

    Exactly two inner solves: the source term at the new time and the
    coupling term built from the previous state. ``dt == 0`` reproduces the
    state bit for bit. A failure names ``step_index`` when it is given.
    """
    a_c, t = state
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    t_new = t + dt
    y_src, rep_src = op.solve_kn(op.system.source(t_new),
                                 RhsFamily.SOURCE_CURRENT, step_index)
    w = spmv_transpose(op.system.kcn, a_c)
    y_cpl, rep_cpl = op.solve_kn(w, RhsFamily.COUPLING_FROM_PREVIOUS_STATE,
                                 step_index)
    # d/dt a_c = M^-1 (K_cn (y_cpl - y_src) - K_c a_c): substituting the
    # algebraic block a_n = y_src - y_cpl into the conducting row flips the
    # sign of the source term relative to the coupling term.
    rate = spmv(op.system.kcn, y_cpl - y_src) - op.system.kc_apply(a_c, a_c)
    a_next = a_c + dt * op.minv(rate)
    if not np.isfinite(a_next).all():
        where = f" at step {step_index}" if step_index is not None else ""
        raise StepFailureError(f"non-finite conducting state{where} "
                               f"(t = {t_new:.6e})")
    return a_next, (rep_src, rep_cpl)


def recover_an(op: SchurOperator, a_c, t: float
               ) -> tuple[np.ndarray, tuple[SolveReport, SolveReport]]:
    """Nonconducting unknowns a_n = K_n^+ j_n(t) - K_n^+ K_cn^T a_c.

    The source solve repeats the family used during stepping, so its start
    vector already satisfies the tolerance and it costs zero iterations.
    """
    y_src, rep_src = op.solve_kn(op.system.source(t),
                                 RhsFamily.SOURCE_CURRENT)
    w = spmv_transpose(op.system.kcn, a_c)
    y_cpl, rep_cpl = op.solve_kn(w, RhsFamily.COUPLING_FROM_CURRENT_STATE)
    return y_src - y_cpl, (rep_src, rep_cpl)


@dataclass
class TransientResult:
    """Output-time series of one transient run plus run-level aggregates.

    The iteration columns carry the mean inner iterations per solve of each
    family since the previous output row; ``pod_k`` and ``pod_info`` are the
    largest k and the smallest kept information ratio over every POD
    projection in the same window (0 and 1.0 without one).
    """

    times: np.ndarray
    probe_b: np.ndarray
    iters_src: np.ndarray
    iters_cpl_prev: np.ndarray
    iters_cpl_cur: np.ndarray
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
    iterations, ``projections`` holds one ``(k, info)`` entry per POD
    projection. A row reports what was logged since the previous row: the
    mean iterations per solve of each family, the largest k and the smallest
    kept information (0 and 1.0 without a projection).
    """

    def __init__(self, t_end: float, output_period: float, probe,
                 iterations: dict, projections=()):
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        if output_period <= 0:
            raise ValueError("output_period must be positive")
        self.t_end = t_end
        self.output_period = output_period
        self.eps = 1e-12 * t_end
        self.probe = probe
        self.iterations = iterations
        self.projections = projections
        self._next_output = output_period
        # log lengths at the previous row
        self._seen = {f: 0 for f in FAMILIES}
        self._seen_projections = 0
        self.rows = {name: [] for name in ("t", "b", "src", "prev", "cur",
                                           "basis", "k", "info")}

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
        for name, family in (("src", RhsFamily.SOURCE_CURRENT),
                             ("prev", RhsFamily.COUPLING_FROM_PREVIOUS_STATE),
                             ("cur", RhsFamily.COUPLING_FROM_CURRENT_STATE)):
            log = self.iterations[family]
            rows[name].append(_mean(log[self._seen[family]:]))
            self._seen[family] = len(log)
        window = self.projections[self._seen_projections:]
        self._seen_projections = len(self.projections)
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
            "min_pod_info": min([1.0] + [info for k, info in self.projections
                                         if k]),
        }
        return TransientResult(
            times=np.asarray(rows["t"]), probe_b=np.asarray(rows["b"]),
            iters_src=np.asarray(rows["src"]),
            iters_cpl_prev=np.asarray(rows["prev"]),
            iters_cpl_cur=np.asarray(rows["cur"]),
            basis_cols=np.asarray(rows["basis"], dtype=np.int64),
            pod_k=np.asarray(rows["k"], dtype=np.int64),
            pod_info=np.asarray(rows["info"]),
            final_a_c=final_a_c, final_a_n=final_a_n,
            aggregates=aggregates | shared)


def run_explicit(system: PartitionedSystem, t_end: float, dt="auto", *,
                 strategy="cspe", pcg: PcgConfig | None = None,
                 output_period: float = 1e-3, probe=None,
                 reestimate_every: int = 500, safety: float = 0.9,
                 cfl_steps: int = 60, cfl_tol: float = 1e-3,
                 seed: int = 42, max_cols: int = 20, n_pod: int = 10,
                 eps_pod: float = 1e-4,
                 max_steps: int = 2_000_000) -> TransientResult:
    """Integrate the eliminated system with explicit Euler.

    ``dt="auto"`` estimates the stability bound up front by Lanczos (see
    ``estimate_cfl``) and re-estimates every ``reestimate_every`` steps at
    the current state, shrinking the step when saturation tightened the
    bound (a fixed dt is never adjusted). A re-estimate is Rayleigh-Ritz on
    the previous estimate's Krylov basis with K_c at the current state; it
    needs no K_n solve unless its residual misses ``cfl_tol``, and then
    Lanczos continues from the Ritz vector. Every re-estimate is logged in
    ``aggregates["cfl_history"]`` as ``(step, lambda_max, steps, dt)``:
    the Ritz value, the Lanczos steps (inner solves) it took, and the step
    used after it.
    ``probe`` maps (a_c, a_n, t) to the scalar recorded per output row.
    ``pcg`` configures the inner solves as in :class:`SchurOperator`.

    Raises StepFailureError on divergence, on a non-finite source and on a
    stalled inner solve, naming the failing step.
    """
    wall_start = time.perf_counter()
    op = SchurOperator(system, pcg=pcg, strategy=strategy,
                       max_cols=max_cols, n_pod=n_pod, eps_pod=eps_pod)
    trace = TraceRecorder(t_end, output_period, probe, op.solve_iterations,
                          op.strategy.projections)
    auto = isinstance(dt, str)
    if auto:
        if dt != "auto":
            raise ValueError(f"dt must be a number or 'auto', got {dt!r}")
        est = estimate_cfl(op, cfl_steps=cfl_steps, cfl_tol=cfl_tol,
                           safety=safety, seed=seed, step=0)
        dt_val = est.dt_max
        lambda_max = est.lambda_max
    else:
        dt_val = float(dt)
        if dt_val <= 0:
            raise ValueError("dt must be positive")
        lambda_max = None

    a_c = np.zeros(system.n_c)
    t = 0.0
    a_n, _ = recover_an(op, a_c, t)
    trace.row(t, a_c, a_n, op.strategy.basis_size())
    steps = 0
    cfl_history = []
    while trace.running(t):
        if auto and reestimate_every > 0 and steps > 0 \
                and steps % reestimate_every == 0:
            est = estimate_cfl(op, a_c_ref=a_c, cfl_steps=cfl_steps,
                               cfl_tol=cfl_tol, safety=safety, seed=seed,
                               previous=est, step=steps)
            lambda_max = est.lambda_max
            if est.dt_max < dt_val:
                log.info("stability bound tightened: dt %.3e -> %.3e",
                         dt_val, est.dt_max)
                dt_val = est.dt_max
            cfl_history.append((steps, lambda_max, est.power_iters, dt_val))
        step_dt = min(dt_val, t_end - t)
        a_c, _ = explicit_euler_step((a_c, t), step_dt, op,
                                     step_index=steps + 1)
        t += step_dt
        steps += 1
        if steps > max_steps:
            raise StepFailureError(f"step budget exceeded ({max_steps})")
        if trace.due(t):
            a_n, _ = recover_an(op, a_c, t)
            trace.row(t, a_c, a_n, op.strategy.basis_size())

    return trace.result(a_c, a_n, {
        "integrator": "explicit",
        "strategy": op.strategy.kind,
        "steps": steps,
        "dt": dt_val,
        "lambda_max": lambda_max,
        "cfl_refreshes": len(cfl_history),
        "cfl_history": cfl_history,
        "pcg_applies": op.pcg_applies,
        "maintenance_applies": op.strategy.maintenance_applies,
        "operator_applies": op.pcg_applies + op.strategy.maintenance_applies,
        "wall_seconds": time.perf_counter() - wall_start,
        "solver_seconds": op.solver_seconds,
    })
