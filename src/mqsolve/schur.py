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
bound is estimated by power iteration and refreshed periodically during a
run because saturation changes K_S.
"""

from __future__ import annotations

import dataclasses
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
    linear materials, and None falls back to it). ``source`` maps time to the
    nonconducting right-hand side, which must be consistent with the singular
    block by construction.
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
        if self.kc_jacobian is None:
            self.kc_jacobian = self.kc_matrix

    @property
    def n_c(self) -> int:
        return self.mc.nrows

    @property
    def n_n(self) -> int:
        return self.kn.nrows

    def validate(self, tol: float = 1e-10) -> None:
        """Structural checks: symmetry of the blocks, positivity of M_c."""
        if not symmetric_check(self.kn, tol * _matrix_scale(self.kn)):
            raise ValueError("nonconducting block is not symmetric")
        kc0 = self.kc_matrix(np.zeros(self.n_c))
        if not symmetric_check(kc0, tol * _matrix_scale(kc0)):
            raise ValueError("conducting block is not symmetric")
        diag = self.mc.diagonal()
        if (diag <= 0).any():
            raise ValueError("conductivity matrix must have a positive diagonal")

    @classmethod
    def linear(cls, mc, kcn, kn, kc: CsrMatrix, source) -> "PartitionedSystem":
        """Wrap constant matrices as a (linear) partitioned system."""
        return cls(mc=mc, kcn=kcn, kn=kn,
                   kc_apply=lambda state, x: spmv(kc, x),
                   kc_matrix=lambda state: kc,
                   kc_jacobian=lambda state: kc,
                   source=source)

    def frozen_at(self, state) -> "PartitionedSystem":
        """Linear system with the conducting block frozen at *state*."""
        state = as_vector(state, length=self.n_c, name="state")
        return PartitionedSystem.linear(self.mc, self.kcn, self.kn,
                                        self.kc_matrix(state), self.source)


def _matrix_scale(a: CsrMatrix) -> float:
    return float(np.abs(a.values).max()) if a.nnz else 1.0


class SchurOperator:
    """Applies the eliminated-block operator and bookkeeps every inner solve.

    Inner pseudo-inverse actions are PCG solves on the singular nonconducting
    block, seeded per right-hand-side family by the configured start-vector
    strategy. Per-solve iteration counts (``solve_iterations``, one list per
    family), K_n applications of the solves (``pcg_applies``) and solver
    wall time are accumulated for benchmarking.
    """

    def __init__(self, system: PartitionedSystem, pcg: PcgConfig | None = None,
                 strategy: StartVectorStrategy | str = "previous", *,
                 preconditioner: Preconditioner = Preconditioner.JACOBI,
                 max_cols: int = 20, n_pod: int = 10, eps_pod: float = 1e-4):
        self.system = system
        # the config names the preconditioner built here, so pcg_solve never
        # tries to build one for the callable operator
        self.pcg = dataclasses.replace(pcg or PcgConfig(),
                                       preconditioner=preconditioner)
        self._kn_apply = system.kn.to_scipy().__matmul__
        self._precond = build_preconditioner(system.kn, preconditioner)
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
        diag = system.mc.diagonal()
        if system.mc.is_diagonal():
            if (diag <= 0).any():
                raise ValueError("conductivity diagonal must be positive")
            self._minv_diag = 1.0 / diag
        else:
            self._minv_diag = None
            self._mc_precond = build_preconditioner(system.mc,
                                                    Preconditioner.JACOBI)
        self.solve_iterations = {f: [] for f in FAMILIES}
        self.pcg_applies = 0
        self.solver_seconds = 0.0

    def solve_kn(self, rhs,
                 family: RhsFamily) -> tuple[np.ndarray, SolveReport]:
        """One pseudo-inverse action K_n^+ rhs for the given family."""
        started = time.perf_counter()
        x0 = self.strategy.start_vector(family, rhs)
        y, report = pcg_solve(self._kn_apply, rhs, x0=x0, config=self.pcg,
                              preconditioner=self._precond)
        if not report.converged:
            raise StepFailureError(
                f"inner solve ({family.value}) stalled at relative residual "
                f"{report.final_rel_residual:.3e} after {report.iterations} "
                "iterations")
        # one K_n product per iteration, plus the initial residual, which
        # pcg_solve computes only when it is given a start vector
        self.pcg_applies += report.iterations + (x0 is not None)
        self.strategy.observe(family, y)
        self.solve_iterations[family].append(report.iterations)
        self.solver_seconds += time.perf_counter() - started
        return y, report

    def minv(self, x: np.ndarray) -> np.ndarray:
        if self._minv_diag is not None:
            return self._minv_diag * x
        y, report = pcg_solve(self.system.mc, x, config=self.pcg,
                              preconditioner=self._mc_precond)
        if not report.converged:
            raise StepFailureError("conductivity mass solve stalled")
        return y

    def apply(self, x, lin_state,
              family: RhsFamily = RhsFamily.COUPLING_FROM_PREVIOUS_STATE
              ) -> np.ndarray:
        """K_S(lin_state) x, charging the inner solve to *family*."""
        w = spmv_transpose(self.system.kcn, x)
        y, _ = self.solve_kn(w, family)
        return self.system.kc_apply(lin_state, x) - spmv(self.system.kcn, y)

    def apply_detached(self, x, lin_state, inner_start=None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """K_S x with an explicit inner start vector and no family history.

        Used by the spectral estimator so its probing solves do not pollute
        the time-stepping caches. Returns (K_S x, inner solution).
        """
        started = time.perf_counter()
        w = spmv_transpose(self.system.kcn, x)
        y, report = pcg_solve(self._kn_apply, w, x0=inner_start,
                              config=self.pcg, preconditioner=self._precond)
        if not report.converged:
            raise StepFailureError("spectral probe solve stalled")
        self.pcg_applies += report.iterations + (inner_start is not None)
        self.solver_seconds += time.perf_counter() - started
        return self.system.kc_apply(lin_state, x) - spmv(self.system.kcn, y), y


@dataclass(frozen=True)
class CflEstimate:
    """Largest stable explicit step: dt_max = safety * 2 / lambda_max.

    ``vector`` is the last power iterate (unit norm); passing it as ``v0`` to
    the next estimate warm-starts that estimate.
    """

    lambda_max: float
    dt_max: float
    safety: float
    power_iters: int
    power_tol: float
    vector: np.ndarray = field(repr=False, compare=False)


def estimate_cfl(op: SchurOperator, a_c_ref=None, *, power_iters: int = 200,
                 power_tol: float = 1e-4, safety: float = 0.9,
                 seed: int = 42, v0=None) -> CflEstimate:
    """Estimate lambda_max(M_c^{-1} K_S) by power iteration.

    The Rayleigh quotient is taken in the M_c inner product, so it converges
    to the largest generalized eigenvalue from below; the safety factor
    guards the remaining gap. A zero or missing start vector is reseeded with
    a fixed-seed pseudo-random vector so runs stay deterministic.

    The stagnation test stops early when the top eigenvalues cluster. On the
    8-cell builtin model at a_c = 0 the top two are 83,517 and 83,535, and a
    cold start stops 0.18% low (83,382 at seed 42). Warm-starting from an
    earlier estimate's ``vector`` resumes the iteration instead: it needs a
    few iterations where a cold start needs about 90, and its estimate keeps
    climbing towards lambda_max.
    """
    if not (0.0 < safety <= 1.0):
        raise ValueError("safety must lie in (0, 1]")
    if power_iters < 1:
        raise ValueError("power_iters must be at least 1")
    n = op.system.n_c
    ref = np.zeros(n) if a_c_ref is None else as_vector(a_c_ref, length=n)
    if v0 is not None:
        v = np.asarray(v0, dtype=np.float64).copy()
        if v.shape != (n,) or not np.linalg.norm(v) > 0.0:
            v = None
        else:
            v = v / np.linalg.norm(v)
    else:
        v = None
    if v is None:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
    mc = op.system.mc.to_scipy()
    lam = 0.0
    lam_prev = None
    inner = None
    used = power_iters
    for it in range(1, power_iters + 1):
        w, inner = op.apply_detached(v, ref, inner_start=inner)
        den = float(v @ (mc @ v))
        lam = float(v @ w) / den
        u = op.minv(w)
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            raise StepFailureError("power iteration collapsed to the nullspace")
        v = u / norm_u
        if lam_prev is not None and abs(lam - lam_prev) <= power_tol * abs(lam):
            used = it
            break
        lam_prev = lam
    if not (lam > 0.0) or not np.isfinite(lam):
        raise StepFailureError(f"spectral estimate is not positive: {lam}")
    return CflEstimate(lambda_max=lam, dt_max=safety * 2.0 / lam,
                       safety=safety, power_iters=used, power_tol=power_tol,
                       vector=v)


def explicit_euler_step(state: tuple[np.ndarray, float], dt: float,
                        op: SchurOperator, step_index: int | None = None
                        ) -> tuple[np.ndarray, tuple[SolveReport, SolveReport]]:
    """One explicit Euler step of the eliminated system.

    Exactly two inner solves: the source term at the new time and the
    coupling term built from the previous state. ``dt == 0`` reproduces the
    state bit for bit.
    """
    a_c, t = state
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    t_new = t + dt
    y_src, rep_src = op.solve_kn(op.system.source(t_new),
                                 RhsFamily.SOURCE_CURRENT)
    w = spmv_transpose(op.system.kcn, a_c)
    y_cpl, rep_cpl = op.solve_kn(w, RhsFamily.COUPLING_FROM_PREVIOUS_STATE)
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
                 preconditioner: Preconditioner = Preconditioner.JACOBI,
                 output_period: float = 1e-3, probe=None,
                 reestimate_every: int = 500, safety: float = 0.9,
                 power_iters: int = 200, power_tol: float = 1e-4,
                 seed: int = 42, max_cols: int = 20, n_pod: int = 10,
                 eps_pod: float = 1e-4,
                 max_steps: int = 2_000_000) -> TransientResult:
    """Integrate the eliminated system with explicit Euler.

    ``dt="auto"`` estimates the stability bound up front and re-estimates
    every ``reestimate_every`` steps at the current state, shrinking the step
    when saturation tightened the bound (a fixed dt is never adjusted).
    Each re-estimate is warm-started from the previous estimate's power
    iterate, so it costs a few power iterations instead of a cold start's
    ~90, and it corrects the cold estimate's early stop below lambda_max
    (0.18% on the 8-cell builtin model, see ``estimate_cfl``). Every
    re-estimate is logged in ``aggregates["cfl_history"]`` as
    ``(step, lambda_max, power_iters, dt)``, dt being the step used after it.
    ``probe`` maps (a_c, a_n, t) to the scalar recorded per output row.

    Raises StepFailureError on divergence, naming the failing step.
    """
    wall_start = time.perf_counter()
    op = SchurOperator(system, pcg=pcg, strategy=strategy,
                       preconditioner=preconditioner,
                       max_cols=max_cols, n_pod=n_pod, eps_pod=eps_pod)
    trace = TraceRecorder(t_end, output_period, probe, op.solve_iterations,
                          op.strategy.projections)
    auto = isinstance(dt, str)
    if auto:
        if dt != "auto":
            raise ValueError(f"dt must be a number or 'auto', got {dt!r}")
        est = estimate_cfl(op, power_iters=power_iters, power_tol=power_tol,
                           safety=safety, seed=seed)
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
            est = estimate_cfl(op, a_c_ref=a_c, power_iters=power_iters,
                               power_tol=power_tol, safety=safety, seed=seed,
                               v0=est.vector)
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
        "aborted": False,
    })
