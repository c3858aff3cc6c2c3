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

From its second step on, :func:`run_implicit` starts Newton from the linear
extrapolation of the last two states instead of from the previous state.
That start is a lowest-order form of the start vectors the explicit run
takes from earlier steps: on the builtin model it leaves one Newton
iteration per step where the previous state needed two. The start changes
where Newton begins, never what converged means (see
:func:`implicit_euler_step`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .krylov import (IndefiniteOperatorError, PcgConfig, build_preconditioner,
                     pcg_solve)
from .schur import (FAMILIES, OUTPUT_PERIOD, TraceRecorder, TransientResult,
                    check_run_arguments)
from .sparse import (CsrMatrix, NonFiniteError, _check_count, as_vector, spmv,
                     spmv_transpose)
from .startvec import RhsFamily

__all__ = [
    "MonolithicJacobian",
    "NewtonConfig",
    "NewtonStepReport",
    "NewtonFailureError",
    "implicit_euler_step",
    "run_implicit",
]


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-8
    max_newton: int = 25
    linear_solver: PcgConfig = PcgConfig(rel_tol=1e-10, max_iter=50000)

    def __post_init__(self):
        if not (0.0 < self.tol < np.inf):
            raise ValueError("tol must be finite and positive")
        _check_count("max_newton", self.max_newton, 1)


@dataclass(frozen=True)
class NewtonStepReport:
    """One step's Newton work. ``residual_history`` starts at the iterate
    Newton starts from; ``half_steps`` counts updates taken at half length
    and ``predictor_rejected`` says that a given start was not used."""

    newton_iterations: int
    linear_iterations: tuple[int, ...]
    residual_history: tuple[float, ...]
    half_steps: int = 0
    predictor_rejected: bool = False


class NewtonFailureError(RuntimeError):
    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


class MonolithicJacobian:
    """Assembles the Newton matrix [[M_c/dt + J_c, K_cn], [K_cn^T, K_n]].

    J_c is ``system.kc_jacobian`` at the iterate. The CSR pattern, the
    constant K_cn, K_cn^T and K_n values and the positions of the J_c and
    M_c entries are built for one J_c pattern and kept while
    ``kc_jacobian`` returns that pattern, so each call copies the constant
    values and writes J_c and M_c/dt into them. A J_c with another pattern
    rebuilds them.
    """

    def __init__(self, system):
        self.system = system
        self._kc_pattern = None

    def _matches(self, kc: CsrMatrix) -> bool:
        cached = self._kc_pattern
        return cached is not None and all(
            new is old or np.array_equal(new, old)
            for new, old in zip((kc.row_ptr, kc.col_idx), cached))

    def _build(self, kc: CsrMatrix) -> None:
        s = self.system
        n_c, n = s.n_c, s.n_c + s.n_n

        def keys(a: CsrMatrix, row0: int, col0: int, transpose=False):
            rows = np.repeat(np.arange(a.nrows), np.diff(a.row_ptr))
            cols = a.col_idx
            if transpose:
                rows, cols = cols, rows
            return (rows + row0) * n + (cols + col0)

        blocks = [keys(kc, 0, 0), keys(s.mc, 0, 0), keys(s.kcn, 0, n_c),
                  keys(s.kcn, n_c, 0, transpose=True), keys(s.kn, n_c, n_c)]
        merged = np.unique(np.concatenate(blocks))
        kc_at, mc_at, kcn_at, kcn_t_at, kn_at = (
            np.searchsorted(merged, b) for b in blocks)
        # this build sets the run's peak memory; free the keys before the
        # pattern is validated
        del blocks
        row_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(merged // n, minlength=n))])
        # the constant part of the Newton matrix: zero in the J_c and M_c
        # entries, and K_cn^T holds the K_cn values at the mirrored positions
        constant = np.zeros(merged.size)
        constant[kcn_at] = s.kcn.values
        constant[kcn_t_at] = s.kcn.values
        constant[kn_at] = s.kn.values
        self._constant = CsrMatrix(n, n, row_ptr, merged % n, constant)
        # finds the diagonal positions, which every Newton matrix built by
        # with_values shares for its Jacobi preconditioner
        self._constant.diagonal()
        self._kc_at = kc_at
        self._mc_at = mc_at
        self._kc_pattern = (kc.row_ptr, kc.col_idx)

    def __call__(self, x_c: np.ndarray, dt: float) -> CsrMatrix:
        kc = self.system.kc_jacobian(x_c)
        if not self._matches(kc):
            self._build(kc)
        values = self._constant.values.copy()
        values[self._kc_at] = kc.values
        values[self._mc_at] += self.system.mc.values * (1.0 / dt)
        return self._constant.with_values(values)


def implicit_euler_step(state, dt: float, system, config: NewtonConfig | None = None,
                        *, jacobian: MonolithicJacobian | None = None,
                        start=None
                        ) -> tuple[np.ndarray, np.ndarray, NewtonStepReport]:
    """One implicit Euler step by monolithic Newton iteration.

    *state* is ``(a_c, a_n, t)``. Convergence: ||F|| <= tol * r0, where r0
    is the residual at the previous state, with an absolute floor at
    rounding level of the residual addends so an already-stationary state
    is accepted rather than iterated into noise. Linear materials converge
    in a single Newton iteration because the first update solves the affine
    system to the linear tolerance. If a full update raises the residual
    the step is halved once before failing. A non-finite initial residual
    or Jacobian raises NewtonFailureError. *jacobian* assembles the Newton
    matrix; pass the same one to every step of a run so its pattern is
    built once.

    *start* ``(x_c, x_n)`` is an optional Newton start iterate, such as an
    extrapolation of earlier states. Newton starts from it only when its
    residual is below r0, and from the previous state otherwise
    (``predictor_rejected``); a start that meets the target is returned
    with zero Newton iterations. It changes neither r0, the target nor the
    inner tolerance, and each Newton update is still solved from zero.
    """
    config = config or NewtonConfig()
    a_c_prev, a_n_prev, t = state
    a_c_prev = as_vector(a_c_prev, length=system.n_c, name="conducting state")
    a_n_prev = as_vector(a_n_prev, length=system.n_n, name="nonconducting state")
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_new = t + dt
    j_n = system.source(t_new)
    n_c = system.n_c
    if jacobian is None:
        jacobian = MonolithicJacobian(system)

    def residual(xc, xn, with_scale=False):
        t1 = spmv(system.mc, xc - a_c_prev) / dt
        t2 = system.kc_apply(xc)
        t3 = spmv(system.kcn, xn)
        t4 = spmv_transpose(system.kcn, xc)
        t5 = spmv(system.kn, xn)
        f = np.concatenate([t1 + t2 + t3, t4 + t5 - j_n])
        if not with_scale:
            return f
        scale = sum(float(np.linalg.norm(v)) for v in (t1, t2, t3, t4, t5))
        return f, scale + float(np.linalg.norm(j_n))

    x_c = a_c_prev.copy()
    x_n = a_n_prev.copy()
    f, data_scale = residual(x_c, x_n, with_scale=True)
    r0 = float(np.linalg.norm(f))
    if not np.isfinite(r0):
        raise NewtonFailureError(
            "non-finite residual before Newton iteration 1", [r0])
    # residuals below rounding noise of their own addends cannot be reduced
    # further in double precision; a pure relative criterion would stall on
    # an already-stationary state
    floor = 64.0 * np.finfo(np.float64).eps * data_scale
    if r0 <= floor:
        return x_c, x_n, NewtonStepReport(0, (), (r0,))

    target = max(config.tol * r0, floor)
    r_current = r0
    rejected = False
    if start is not None:
        s_c = as_vector(start[0], length=n_c, name="conducting start")
        s_n = as_vector(start[1], length=system.n_n,
                        name="nonconducting start")
        f_start = residual(s_c, s_n)
        r_start = float(np.linalg.norm(f_start))
        # a NaN residual fails the comparison, so it is rejected too
        if r_start < r0:
            x_c, x_n, f, r_current = s_c.copy(), s_n.copy(), f_start, r_start
            if r_start <= target:
                return x_c, x_n, NewtonStepReport(0, (), (r_start,))
        else:
            rejected = True
    history = [r_current]

    # Inner solves never target below a hundredth of the outer Newton bar:
    # the monolithic matrix is singular (gradient fields in the lower-right
    # block), so a relative-only inner tolerance becomes unreachable once
    # the Newton residual is tiny and PCG would grind into roundoff.
    lin_config = dataclasses.replace(
        config.linear_solver,
        abs_tol=max(config.linear_solver.abs_tol, 0.01 * config.tol * r0))

    linear_iters: list[int] = []
    half_steps = 0
    for k in range(1, config.max_newton + 1):
        try:
            jac = jacobian(x_c, dt)
        except NonFiniteError as err:
            raise NewtonFailureError(
                f"non-finite Jacobian at Newton iteration {k}: {err}",
                history) from err
        precond = build_preconditioner(jac)
        try:
            delta, report = pcg_solve(jac, -f, config=lin_config,
                                      preconditioner=precond)
        except IndefiniteOperatorError as err:
            # err names its cause: a nonpositive curvature or, as an
            # InconsistentRhsError, a right-hand side outside the range
            raise NewtonFailureError(
                f"linear solve failed at Newton iteration {k}: {err}",
                history) from err
        if not report.converged:
            raise NewtonFailureError(
                f"linear solve stalled at Newton iteration {k} "
                f"(relative residual {report.final_rel_residual:.3e})",
                history)
        linear_iters.append(report.iterations)
        xc_try = x_c + delta[:n_c]
        xn_try = x_n + delta[n_c:]
        f_try = residual(xc_try, xn_try)
        r_try = float(np.linalg.norm(f_try))
        if not np.isfinite(r_try) or (r_try > r_current and r_try > target):
            # one half step before giving up; keeps mild overshoot recoverable
            half_steps += 1
            xc_try = x_c + 0.5 * delta[:n_c]
            xn_try = x_n + 0.5 * delta[n_c:]
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
            return x_c, x_n, NewtonStepReport(
                k, tuple(linear_iters), tuple(history), half_steps, rejected)
    raise NewtonFailureError(
        f"Newton did not converge within {config.max_newton} iterations "
        f"(residual {r_current:.3e}, initial {r0:.3e})", history)


def run_implicit(system, t_end: float, dt: float,
                 config: NewtonConfig | None = None, *, probe=None,
                 output_period: float = OUTPUT_PERIOD) -> TransientResult:
    """Integrate with implicit Euler on a uniform grid.

    Produces the same output-row schema and shared aggregates as the
    explicit integrator so traces can be diffed column by column. Every
    Newton iteration's monolithic PCG solve is charged to the source family,
    so ``iters_src`` carries the mean PCG iterations per Newton solve since
    the previous row and the coupling column stays zero. From the second
    step on, Newton starts from a_k + (h_{k+1}/h_k)(a_k - a_{k-1}), the
    linear extrapolation of the last two states, for both blocks;
    ``predictor_rejected`` counts the steps that started from the previous
    state instead and ``newton_half_steps`` the half-length updates. A step
    that fails raises :class:`NewtonFailureError` with a message that starts
    with ``step N:``. A bad run argument raises ValueError first; dt is a
    number.
    """
    check_run_arguments(t_end, dt, output_period, auto=False)
    iterations = {f: [] for f in FAMILIES}
    # one entry per Newton iteration
    linear = iterations[RhsFamily.SOURCE_CURRENT]
    trace = TraceRecorder(t_end, output_period, probe, iterations)
    config = config or NewtonConfig()
    jacobian = MonolithicJacobian(system)
    wall_start = time.perf_counter()
    solver_seconds = 0.0
    a_c = np.zeros(system.n_c)
    a_n = np.zeros(system.n_n)
    t = 0.0
    trace.row(t, a_c, a_n)
    steps = half_steps = rejected = 0
    # the state before the last step and that step's length
    before = None
    while trace.running(t):
        step_dt = min(dt, t_end - t)
        started = time.perf_counter()
        start = None
        if before is not None:
            c_old, n_old, h_old = before
            ratio = step_dt / h_old
            start = (a_c + ratio * (a_c - c_old), a_n + ratio * (a_n - n_old))
        try:
            a_c_new, a_n_new, report = implicit_euler_step(
                (a_c, a_n, t), step_dt, system, config, jacobian=jacobian,
                start=start)
        except NewtonFailureError as err:
            raise NewtonFailureError(f"step {steps + 1}: {err}",
                                     err.residual_history) from err
        solver_seconds += time.perf_counter() - started
        before = (a_c, a_n, step_dt)
        a_c, a_n = a_c_new, a_n_new
        t += step_dt
        steps += 1
        linear.extend(report.linear_iterations)
        half_steps += report.half_steps
        rejected += report.predictor_rejected
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
        "newton_half_steps": half_steps,
        "predictor_rejected": rejected,
        "operator_applies": sum(linear),
        "wall_seconds": time.perf_counter() - wall_start,
        "solver_seconds": solver_seconds,
    })
