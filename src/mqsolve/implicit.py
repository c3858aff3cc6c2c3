"""Implicit Euler reference integrator for the unreduced partitioned system.

Each step solves the monolithic nonlinear system

    [ M_c/dt + K_c(a_c)   K_cn ] [a_c]   [ M_c/dt a_c_prev ]
    [ K_cn^T              K_n  ] [a_n] = [ j_n(t + dt)     ]

by a full Newton method. The Jacobian carries the differential reluctivity
term, so it stays symmetric positive semidefinite and the inner solves reuse
the same PCG machinery as the rest of the library; consistency of the
right-hand side is inherited from the model construction, which keeps the
singular lower-right block harmless without gauging. Implicit Euler is
unconditionally stable, which is what makes this integrator the accuracy
reference for the eliminated explicit one.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .krylov import (IndefiniteOperatorError, PcgConfig, Preconditioner,
                     build_preconditioner, pcg_solve)
from .schur import FAMILIES, TraceRecorder, TransientResult
from .sparse import CsrMatrix, as_vector
from .startvec import RhsFamily

__all__ = [
    "NewtonConfig",
    "NewtonStepReport",
    "NewtonFailureError",
    "implicit_euler_step",
    "run_implicit",
]

log = logging.getLogger(__name__)


def _default_linear_config() -> PcgConfig:
    return PcgConfig(rel_tol=1e-10, max_iter=50000,
                     preconditioner=Preconditioner.JACOBI)


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-8
    max_newton: int = 25
    linear_solver: PcgConfig = field(default_factory=_default_linear_config)

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")


@dataclass(frozen=True)
class NewtonStepReport:
    newton_iterations: int
    linear_iterations: tuple[int, ...]
    residual_history: tuple[float, ...]


class NewtonFailureError(RuntimeError):
    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


def _monolithic_jacobian(system, x_c: np.ndarray, dt: float) -> CsrMatrix:
    kc_jac = system.kc_jacobian(x_c).to_scipy()
    mc = system.mc.to_scipy()
    kcn = system.kcn.to_scipy()
    kn = system.kn.to_scipy()
    top_left = (mc * (1.0 / dt) + kc_jac).tocsr()
    full = sp.bmat([[top_left, kcn], [kcn.T, kn]], format="csr")
    return CsrMatrix.from_scipy(full)


def implicit_euler_step(state, dt: float, system, config: NewtonConfig | None = None
                        ) -> tuple[np.ndarray, np.ndarray, NewtonStepReport]:
    """One implicit Euler step by monolithic Newton iteration.

    *state* is ``(a_c, a_n, t)``. Convergence: ||F|| <= tol * ||F_initial||,
    with an absolute floor at rounding level of the residual addends so an
    already-stationary state is accepted rather than iterated into noise.
    Linear materials converge in a single Newton iteration because the first
    update solves the affine system to the linear tolerance. If a full
    update raises the residual the step is halved once before failing.
    """
    config = config or NewtonConfig()
    a_c_prev, a_n_prev, t = state
    a_c_prev = as_vector(a_c_prev, length=system.n_c, name="conducting state")
    a_n_prev = as_vector(a_n_prev, length=system.n_n, name="nonconducting state")
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_new = t + dt
    mc = system.mc.to_scipy()
    kcn = system.kcn.to_scipy()
    kn = system.kn.to_scipy()
    j_n = system.source(t_new)
    n_c = system.n_c

    def residual(xc, xn, with_scale=False):
        t1 = mc @ (xc - a_c_prev) / dt
        t2 = system.kc_apply(xc, xc)
        t3 = kcn @ xn
        t4 = kcn.T @ xc
        t5 = kn @ xn
        f = np.concatenate([t1 + t2 + t3, t4 + t5 - j_n])
        if not with_scale:
            return f
        scale = sum(float(np.linalg.norm(v)) for v in (t1, t2, t3, t4, t5))
        return f, scale + float(np.linalg.norm(j_n))

    x_c = a_c_prev.copy()
    x_n = a_n_prev.copy()
    f, data_scale = residual(x_c, x_n, with_scale=True)
    r0 = float(np.linalg.norm(f))
    history = [r0]
    linear_iters: list[int] = []
    # residuals below rounding noise of their own addends cannot be reduced
    # further in double precision; a pure relative criterion would stall on
    # an already-stationary state
    floor = 64.0 * np.finfo(np.float64).eps * data_scale
    if r0 <= floor:
        return x_c, x_n, NewtonStepReport(0, (), tuple(history))

    # Inner solves never target below a hundredth of the outer Newton bar:
    # the monolithic matrix is singular (gradient fields in the lower-right
    # block), so a relative-only inner tolerance becomes unreachable once
    # the Newton residual is tiny and PCG would grind into roundoff.
    lin_config = dataclasses.replace(
        config.linear_solver,
        abs_tol=max(config.linear_solver.abs_tol, 0.01 * config.tol * r0))

    target = max(config.tol * r0, floor)
    r_current = r0
    for k in range(1, config.max_newton + 1):
        jac = _monolithic_jacobian(system, x_c, dt)
        precond = build_preconditioner(jac, lin_config.preconditioner)
        try:
            delta, report = pcg_solve(jac, -f, config=lin_config,
                                      preconditioner=precond)
        except IndefiniteOperatorError as err:
            raise NewtonFailureError(
                f"inner solver lost positive curvature at Newton "
                f"iteration {k}: {err}", history) from err
        if not report.converged:
            raise NewtonFailureError(
                f"linear solve stalled at Newton iteration {k} "
                f"(relative residual {report.final_rel_residual:.3e})",
                history)
        linear_iters.append(report.iterations)
        scale = 1.0
        xc_try = x_c + delta[:n_c]
        xn_try = x_n + delta[n_c:]
        f_try = residual(xc_try, xn_try)
        r_try = float(np.linalg.norm(f_try))
        if not np.isfinite(r_try) or (r_try > r_current and r_try > target):
            # one half step before giving up; keeps mild overshoot recoverable
            scale = 0.5
            xc_try = x_c + scale * delta[:n_c]
            xn_try = x_n + scale * delta[n_c:]
            f_try = residual(xc_try, xn_try)
            r_try = float(np.linalg.norm(f_try))
            if not np.isfinite(r_try) or (r_try > r_current
                                          and r_try > target):
                raise NewtonFailureError(
                    f"residual increased at Newton iteration {k} "
                    f"({r_current:.3e} -> {r_try:.3e})", history + [r_try])
        x_c, x_n, f = xc_try, xn_try, f_try
        r_current = r_try
        history.append(r_current)
        if r_current <= target:
            return x_c, x_n, NewtonStepReport(k, tuple(linear_iters),
                                              tuple(history))
    raise NewtonFailureError(
        f"Newton did not converge within {config.max_newton} iterations "
        f"(residual {r_current:.3e}, initial {r0:.3e})", history)


def run_implicit(system, t_end: float, dt: float,
                 config: NewtonConfig | None = None, *, probe=None,
                 output_period: float = 1e-3) -> TransientResult:
    """Integrate with implicit Euler on a uniform grid.

    Produces the same output-row schema and shared aggregates as the
    explicit integrator so traces can be diffed column by column. Every
    Newton iteration's monolithic PCG solve is charged to the source family,
    so ``iters_src`` carries the mean PCG iterations per Newton solve since
    the previous row and the coupling columns stay zero. A step failure
    aborts the run and returns the rows collected so far with
    ``aggregates["aborted"]`` set.
    """
    iterations = {f: [] for f in FAMILIES}
    # one entry per Newton iteration
    linear = iterations[RhsFamily.SOURCE_CURRENT]
    trace = TraceRecorder(t_end, output_period, probe, iterations)
    if dt <= 0:
        raise ValueError("dt must be positive")
    config = config or NewtonConfig()
    wall_start = time.perf_counter()
    solver_seconds = 0.0
    a_c = np.zeros(system.n_c)
    a_n = np.zeros(system.n_n)
    t = 0.0
    trace.row(t, a_c, a_n)
    steps = 0
    aborted = False
    abort_reason = None
    while trace.running(t):
        step_dt = min(dt, t_end - t)
        started = time.perf_counter()
        try:
            a_c, a_n, report = implicit_euler_step((a_c, a_n, t), step_dt,
                                                   system, config)
        except NewtonFailureError as bad:
            aborted = True
            abort_reason = f"step {steps + 1}: {bad}"
            log.error("implicit run aborted at %s", abort_reason)
            break
        solver_seconds += time.perf_counter() - started
        t += step_dt
        steps += 1
        linear.extend(report.linear_iterations)
        if trace.due(t):
            trace.row(t, a_c, a_n)

    return trace.result(a_c, a_n, {
        "integrator": "implicit",
        "strategy": "newton",
        "steps": steps,
        "dt": dt,
        "newton_iterations": len(linear),
        "linear_iterations": sum(linear),
        "mean_newton_per_step": (len(linear) / steps) if steps else 0.0,
        "operator_applies": sum(linear),
        "wall_seconds": time.perf_counter() - wall_start,
        "solver_seconds": solver_seconds,
        "aborted": aborted,
        "abort_reason": abort_reason,
    })
