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

:func:`run_implicit` starts Newton from an extrapolation of earlier states
instead of from the previous state: linear through the last two states on
its second step, quadratic through the last three from its third. These
starts are a low-order form of the start vectors the explicit run takes
from earlier steps. On the builtin model the linear start leaves one Newton
iteration per step where the previous state needed two, and the quadratic
one cuts the PCG iterations of that Newton solve by about a quarter. The
start changes where Newton begins, never what converged means (see
:func:`implicit_euler_step`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .krylov import (IndefiniteOperatorError, JacobiPreconditioner, PcgConfig,
                     _scaled_norm, build_preconditioner, pcg_solve)
from .schur import (FAMILIES, OUTPUT_PERIOD, TraceRecorder, TransientResult,
                    check_run_arguments)
from .sparse import (CsrMatrix, NonFiniteError, _check_count, _matvec,
                     as_vector)
from .startvec import RhsFamily

__all__ = [
    "MonolithicJacobian",
    "NewtonConfig",
    "NewtonStepReport",
    "NewtonFailureError",
    "ResidualParts",
    "implicit_euler_step",
    "run_implicit",
]


# Each Newton update's PCG solve stops at this fraction of the step's Newton
# target: the update need only be solved as far as the outer test needs, and
# the other half of the target is left for the nonlinear remainder and the
# drift of the CG recurrence from the true residual (inexact Newton)
FORCING = 0.5


@dataclass(frozen=True)
class NewtonConfig:
    """Newton settings of :func:`implicit_euler_step`. A step converges at
    ||F|| <= max(tol * r0, floor). Each update's PCG solve stops at
    ``FORCING`` times that target, within the ``PcgConfig`` default
    budget."""

    tol: float = 1e-8
    max_newton: int = 25

    def __post_init__(self):
        if not (0.0 < self.tol < np.inf):
            raise ValueError("tol must be finite and positive")
        _check_count("max_newton", self.max_newton, 1)


@dataclass(frozen=True)
class NewtonStepReport:
    """One step's Newton work. ``residual_history`` starts at the iterate
    Newton starts from; ``r0`` is the residual at the previous state and
    ``target`` the residual the step had to reach. ``half_steps`` counts
    updates taken at half length and ``predictor_rejected`` says that a
    given start was not used. ``parts`` are the residual parts at the
    returned state, for the next step (:func:`implicit_euler_step`)."""

    newton_iterations: int
    linear_iterations: tuple[int, ...]
    residual_history: tuple[float, ...]
    r0: float
    target: float
    half_steps: int = 0
    predictor_rejected: bool = False
    parts: ResidualParts | None = field(default=None, repr=False,
                                        compare=False)


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
    rebuilds them. So is the Jacobi inverse of the constant rows, and
    :meth:`preconditioner` refreshes only the n_c conductor rows.
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
        # the Jacobi inverse of the constant rows; the conductor rows come
        # first, and M_c's entries are their diagonal
        self._jacobi = build_preconditioner(self._constant)
        self._kc_at = kc_at
        self._mc_at = mc_at
        self._kc_pattern = (kc.row_ptr, kc.col_idx)

    def __call__(self, x_c: np.ndarray, dt: float) -> CsrMatrix:
        kc = self.system.kc_jacobian(x_c)
        if not self._matches(kc):
            self._build(kc)
        values = self._constant.values.copy()
        values[self._kc_at] = kc.values
        # the constant values and J_c's, a CsrMatrix's, are finite, so only
        # the M_c/dt diagonal sums need the finiteness test
        diagonal = values[self._mc_at]
        diagonal += self.system.mc.values * (1.0 / dt)
        if not np.isfinite(diagonal).all():
            raise NonFiniteError("M_c/dt + J_c has non-finite diagonal "
                                 "values")
        values[self._mc_at] = diagonal
        return self._constant.with_values(values, checked=True)

    def preconditioner(self, jac: CsrMatrix) -> JacobiPreconditioner:
        """The Jacobi preconditioner of *jac*, the matrix the last call
        returned, bitwise ``build_preconditioner(jac)``: the inverse of the
        constant rows is kept, and the n_c conductor rows, whose diagonal is
        M_c/dt + J_c, are refreshed."""
        return self._jacobi.refreshed(jac.values[self._mc_at])


class ResidualParts(NamedTuple):
    """The static parts of the Newton residual at one state (x_c, x_n):
    K_c(x_c) x_c, K_cn x_n, K_cn^T x_c and K_n x_n."""

    kc: np.ndarray
    kcn: np.ndarray
    kcn_t: np.ndarray
    kn: np.ndarray


def _residual_parts(system, x_c, x_n) -> ResidualParts:
    return ResidualParts(system.kc_apply(x_c), _matvec(system.kcn, x_n),
                         _matvec(system.kcn._transpose, x_c),
                         _matvec(system.kn, x_n))


def _norms(*vectors) -> list[float]:
    """||v||_2 of each vector as sqrt(v.v), bitwise ``np.linalg.norm``; a
    finite v whose sum of squares overflows gets its finite norm from
    ``krylov._scaled_norm``, and a non-finite one inf or NaN."""
    with np.errstate(over="ignore"):
        squares = [v.dot(v) for v in vectors]
    return [math.sqrt(q) if math.isfinite(q) or not np.isfinite(v).all()
            else _scaled_norm(v) for v, q in zip(vectors, squares)]


def implicit_euler_step(state, dt: float, system, config: NewtonConfig | None = None,
                        *, jacobian: MonolithicJacobian | None = None,
                        start=None, parts: ResidualParts | None = None
                        ) -> tuple[np.ndarray, np.ndarray, NewtonStepReport]:
    """One implicit Euler step by monolithic Newton iteration.

    *state* is ``(a_c, a_n, t)``. Convergence: ||F|| <= tol * r0, where r0
    is the residual at the previous state, with an absolute floor at
    rounding level of the residual addends so an already-stationary state
    is accepted rather than iterated into noise. Each update's PCG solve
    stops at ``FORCING`` times that target (inexact Newton). Linear
    materials converge in a single Newton iteration: the first update
    solves the affine system to half the target. If a full
    update raises the residual the step is halved once before failing. A
    non-finite initial residual or Jacobian raises NewtonFailureError.
    *jacobian* assembles the Newton matrix; pass the same one to every step
    of a run so its pattern is built once.

    *start* ``(x_c, x_n)`` is an optional Newton start iterate, such as an
    extrapolation of earlier states. Newton starts from it only when its
    residual is below r0, and from the previous state otherwise
    (``predictor_rejected``); a start that meets the target is returned
    with zero Newton iterations. It changes neither r0, the target nor the
    inner target, and each Newton update is still solved from zero.

    The report's ``parts`` are the :class:`ResidualParts` at the returned
    state, as the step's last residual evaluation made them. Handed to the
    next step as *parts*, whose state is the one returned, they give its r0
    and floor without a product; the step is bitwise the same with or
    without them.
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
    # PartitionedSystem holds M_c diagonal, one positive entry per row
    mc_diag = system.mc.values
    if jacobian is None:
        jacobian = MonolithicJacobian(system)

    def residual(xc, p: ResidualParts) -> np.ndarray:
        # [M_c (xc - a_c_prev) / dt + K_c(xc) xc + K_cn xn,
        #  K_cn^T xc + K_n xn - j_n], each sum taken left to right
        f = np.empty(n_c + system.n_n)
        fc, fn = f[:n_c], f[n_c:]
        np.subtract(xc, a_c_prev, out=fc)
        fc *= mc_diag
        fc /= dt
        fc += p.kc
        fc += p.kcn
        np.add(p.kcn_t, p.kn, out=fn)
        fn -= j_n
        return f

    def evaluate(xc, xn) -> tuple[ResidualParts, np.ndarray, float]:
        p = _residual_parts(system, xc, xn)
        f = residual(xc, p)
        return p, f, _norms(f)[0]

    x_c, x_n = a_c_prev.copy(), a_n_prev.copy()
    if parts is None:
        parts = _residual_parts(system, x_c, x_n)
    f = residual(x_c, parts)
    # the mass term is zero at the previous state
    r0, *addends = _norms(f, *parts, j_n)
    if not math.isfinite(r0):
        raise NewtonFailureError(
            "non-finite residual before Newton iteration 1", [r0])
    # residuals below rounding noise of their own addends cannot be reduced
    # further in double precision; a pure relative criterion would stall on
    # an already-stationary state
    floor = 64.0 * np.finfo(np.float64).eps * sum(addends, 0.0)
    target = max(config.tol * r0, floor)

    def step_report(iterations=0, linear=(), history=(r0,), half=0,
                    rejected=False):
        return NewtonStepReport(iterations, tuple(linear), tuple(history),
                                r0, target, half, rejected, parts)

    if r0 <= floor:
        return x_c, x_n, step_report()

    r_current = r0
    rejected = False
    if start is not None:
        s_c = as_vector(start[0], length=n_c, name="conducting start")
        s_n = as_vector(start[1], length=system.n_n,
                        name="nonconducting start")
        parts_start, f_start, r_start = evaluate(s_c, s_n)
        # a NaN residual fails the comparison, so it is rejected too
        if r_start < r0:
            x_c, x_n, f, r_current = s_c.copy(), s_n.copy(), f_start, r_start
            parts = parts_start
            if r_start <= target:
                return x_c, x_n, step_report(history=(r_start,))
        else:
            rejected = True
    history = [r_current]

    # Each update is solved only as far as the Newton test needs: to
    # FORCING times the target, which also keeps PCG out of roundoff once
    # the Newton residual is tiny, where a relative-only inner tolerance on
    # the singular monolithic matrix (gradient fields in the lower-right
    # block) would be unreachable.
    lin_config = PcgConfig(FORCING * target)

    linear_iters: list[int] = []
    half_steps = 0
    for k in range(1, config.max_newton + 1):
        try:
            jac = jacobian(x_c, dt)
        except NonFiniteError as err:
            raise NewtonFailureError(
                f"non-finite Jacobian at Newton iteration {k}: {err}",
                history) from err
        precond = jacobian.preconditioner(jac)
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
        parts_try, f_try, r_try = evaluate(xc_try, xn_try)
        if not math.isfinite(r_try) or (r_try > r_current and r_try > target):
            # one half step before giving up; keeps mild overshoot recoverable
            half_steps += 1
            xc_try = x_c + 0.5 * delta[:n_c]
            xn_try = x_n + 0.5 * delta[n_c:]
            parts_try, f_try, r_try = evaluate(xc_try, xn_try)
            if not math.isfinite(r_try) or (r_try > r_current
                                            and r_try > target):
                raise NewtonFailureError(
                    f"residual increased at Newton iteration {k} "
                    f"({r_current:.3e} -> {r_try:.3e})", history + [r_try])
        x_c, x_n, f, parts = xc_try, xn_try, f_try, parts_try
        r_current = r_try
        history.append(r_current)
        if r_current <= target:
            return x_c, x_n, step_report(k, linear_iters, history,
                                         half_steps, rejected)
    raise NewtonFailureError(
        f"Newton did not converge within {config.max_newton} iterations "
        f"(residual {r_current:.3e}, initial {r0:.3e})", history)


def _extrapolate(a, h, back, slope=None):
    """The start of a step of length *h* from the state *a* at t_k, and the
    slope the next step's start takes.

    *back* ``(a_{k-1}, h1)`` is the state before *a* with the length of the
    step that left it, and *slope* ``(D, h2)`` the divided difference
    D = (a_{k-1} - a_{k-2})/h2 that the previous start returned, or None.
    Without a slope the start is the linear extrapolation
    a + (h/h1)(a - a_{k-1}); with one it is the quadratic
    a + h D1 + h(h + h1) D2 in divided differences, D1 = (a - a_{k-1})/h1
    and D2 = (D1 - D)/(h1 + h2). The returned slope is ``(D1, h1)``, the
    D the next step would form from a and a_{k-1} again, bit for bit.
    """
    a1, h1 = back
    d1 = a - a1
    if slope is None:
        start = a + (h / h1) * d1
        d1 /= h1
        return start, (d1, h1)
    d, h2 = slope
    d1 /= h1
    d2 = d1 - d
    d2 /= h1 + h2
    d2 *= h * (h + h1)
    start = d1 * h
    start += a
    start += d2
    return start, (d1, h1)


def run_implicit(system, t_end: float, dt: float,
                 config: NewtonConfig | None = None, *, probe=None,
                 output_period: float = OUTPUT_PERIOD) -> TransientResult:
    """Integrate with implicit Euler on a uniform grid.

    Produces the same output-row schema and shared aggregates as the
    explicit integrator so traces can be diffed column by column. Every
    Newton iteration's monolithic PCG solve is charged to the source family,
    so ``iters_src`` carries the mean PCG iterations per Newton solve since
    the previous row and the coupling column stays zero. The first step
    starts Newton from the previous state, the second from the linear
    extrapolation a_k + (h/h1)(a_k - a_{k-1}) of the last two states and
    every later one from the quadratic extrapolation of the last three
    (:func:`_extrapolate`), for both blocks, with h, h1 and h2 the lengths
    of this step and the two before it. Each start hands its divided
    difference D1 to the next, which would otherwise form it again from
    the same two states; ``predictor_rejected`` counts the
    steps that started from the previous state instead and
    ``newton_half_steps`` the half-length updates. A step
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
    # per block: the state before the current one with the length of the
    # step that left it, and the slope the last start formed (_extrapolate)
    back_c = back_n = slope_c = slope_n = None
    parts = None
    while trace.running(t):
        step_dt = min(dt, t_end - t)
        started = time.perf_counter()
        start = None
        if back_c is not None:
            start_c, slope_c = _extrapolate(a_c, step_dt, back_c, slope_c)
            start_n, slope_n = _extrapolate(a_n, step_dt, back_n, slope_n)
            start = (start_c, start_n)
        try:
            a_c_new, a_n_new, report = implicit_euler_step(
                (a_c, a_n, t), step_dt, system, config, jacobian=jacobian,
                start=start, parts=parts)
        except NewtonFailureError as err:
            raise NewtonFailureError(f"step {steps + 1}: {err}",
                                     err.residual_history) from err
        solver_seconds += time.perf_counter() - started
        back_c, back_n = (a_c, step_dt), (a_n, step_dt)
        a_c, a_n, parts = a_c_new, a_n_new, report.parts
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
