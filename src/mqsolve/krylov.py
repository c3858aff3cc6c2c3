"""Preconditioned conjugate gradients for symmetric positive (semi)definite systems.

The solver never regularizes: on a singular matrix it relies on the right-hand
side being consistent (in the range), in which case CG converges to one of the
solutions. A rounding-level nullspace component of the right-hand side, left
by cancellation when it is formed, is dropped when CG reaches it; a larger one
raises :class:`InconsistentRhsError` naming the inconsistency. Iteration
counting is explicit because downstream benchmarks compare iteration budgets:
``iterations`` is the number of operator applications after the initial
residual, and a start vector that already meets the tolerance reports zero
iterations without touching the operator loop. A solve is preconditioned
only by a preconditioner passed to it, and without one it is plain CG;
every solver in the package passes the Jacobi one that
:func:`build_preconditioner` builds. :func:`_stopping_target` is the one
stopping rule.

A family solve of ``SchurOperator.solve_kn`` does not always enter
:func:`pcg_solve`. Every start vector comes with its K_n image, so
``solve_kn`` forms the initial residual itself, under this module's
finiteness test (:func:`_squared`), norm (finite also where a sum of
squares overflows, by :func:`_scaled_norm`) and stopping rule
(:func:`_stopping_target`). A start that meets the rule is returned
without a call to :func:`pcg_solve`. Any other start is corrected by a solve
from zero down to that same residual norm; no solver of the package hands
:func:`pcg_solve` a start vector. An inconsistency found there is
measured against the residual, so ``solve_kn`` restates it against its
own right-hand side from ``InconsistentRhsError.component``.

Contract with the caller, which ``perfbench/run.py`` relies on to trace a
run: :func:`pcg_solve` keeps the signature
``pcg_solve(a, b, x0=None, config=None, preconditioner=None)``, applies the
operator only through the callable that ``_as_operator`` returns, and uses
a preconditioner only through its ``apply`` method. It writes neither *b*
nor *x0*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .sparse import CsrMatrix, _check_count, _matvec, as_vector

__all__ = [
    "PcgConfig",
    "SolveReport",
    "pcg_solve",
    "build_preconditioner",
    "JacobiPreconditioner",
    "IndefiniteOperatorError",
    "InconsistentRhsError",
]


class IndefiniteOperatorError(RuntimeError):
    """Raised when a CG search direction exposes an indefinite operator, or,
    as its subclass :class:`InconsistentRhsError`, when a right-hand side
    holds more than a rounding-level nullspace component.

    In the latter case ``component`` is the norm of that component and
    ``iteration`` the iteration that found it (both None otherwise), so a
    caller that solved for a residual can state the component relative to
    its own right-hand side (``inconsistent``).
    """

    def __init__(self, message: str, component: float | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.component = component
        self.iteration = iteration

    @staticmethod
    def inconsistent(component: float, b_norm: float, iteration: int
                     ) -> "InconsistentRhsError":
        """The error for a nullspace component of norm *component* in a
        right-hand side of norm *b_norm*."""
        return InconsistentRhsError(
            "inconsistent right-hand side: a nullspace component of "
            f"{_relative(component, b_norm):.3e} ||b|| at iteration "
            f"{iteration}", component, iteration)


class InconsistentRhsError(IndefiniteOperatorError):
    """A right-hand side of a singular operator is not in its range: the
    operator may well be semidefinite, but no solution exists."""


@dataclass(frozen=True)
class PcgConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    max_iter: int = 5000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise ValueError("rel_tol must be finite and positive")
        if not (0.0 <= self.abs_tol < math.inf):
            raise ValueError("abs_tol must be finite and nonnegative")
        _check_count("max_iter", self.max_iter, 1)


# A direction whose curvature p^T A p / p^T M p is below this fraction of the
# largest seen is taken to lie in the operator's nullspace: on the range, the
# ratio stays within the condition number of the preconditioned operator
_NULL_CURVATURE = 1e-12
# the largest nullspace component of b, relative to ||b||, taken for rounding
_ROUNDING = math.sqrt(np.finfo(float).eps)


def _stopping_target(config: PcgConfig, b_norm: float) -> float:
    """Residual norm at which a solve of a right-hand side of norm *b_norm*
    stops: max(rel_tol * ||b||, abs_tol), the one stopping rule."""
    return max(config.rel_tol * b_norm, config.abs_tol)


class SolveReport(NamedTuple):
    """Outcome of one solve. A named tuple, since a CSPE run builds two per
    step: it is built in a third of a frozen dataclass's time."""

    iterations: int
    final_rel_residual: float
    converged: bool


class JacobiPreconditioner:
    """Diagonal scaling M^{-1} = diag(1/A_ii), unit action on zero entries.

    Zero diagonal entries occur on semidefinite rows; keeping the identity
    there preserves a positive definite preconditioner. Negative entries are
    rejected.
    """

    def __init__(self, diag):
        self._inv = _jacobi_inverse(as_vector(diag, name="diagonal"))

    def refreshed(self, head: np.ndarray) -> "JacobiPreconditioner":
        """This preconditioner with the leading ``head.size`` entries of its
        diagonal replaced by the finite *head*; the inverse of the other
        rows is copied, not recomputed."""
        out = object.__new__(JacobiPreconditioner)
        out._inv = self._inv.copy()
        out._inv[:head.size] = _jacobi_inverse(head)
        return out

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._inv * r


def _jacobi_inverse(d: np.ndarray) -> np.ndarray:
    """1 / d, and 1 where d is zero; a negative entry raises ValueError."""
    if d.size and d.min() > 0.0:
        return 1.0 / d
    if (d < 0).any():
        raise ValueError("Jacobi preconditioner requires a nonnegative diagonal")
    return np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 1.0)


def build_preconditioner(a: CsrMatrix) -> JacobiPreconditioner:
    """The Jacobi preconditioner of *a*, the one every solver caller uses."""
    return JacobiPreconditioner(a.diagonal())


def _as_operator(a):
    if isinstance(a, CsrMatrix):
        if a.nrows != a.ncols:
            raise ValueError(f"operator must be square, got shape {a.shape}")
        return partial(_matvec, a), a.nrows
    if callable(a):
        return a, None
    raise TypeError(f"unsupported operator type {type(a).__name__}")


def _vector(v, length: int | None, name: str) -> tuple[np.ndarray, float]:
    """*v* as a 1-D float64 array of *length*, and its sum of squares.

    A finite sum of squares proves every entry finite, so the entries are
    tested (by :func:`as_vector`, with its error) only when the sum is not
    finite; a finite vector whose sum overflows passes, without numpy's
    overflow warning (:func:`_scaled_norm` gives its norm).
    """
    with np.errstate(over="ignore"):
        return _squared(v, length, name)


def _squared(v, length: int | None, name: str) -> tuple[np.ndarray, float]:
    """:func:`_vector` for a caller that holds ``np.errstate(over="ignore")``
    around more than this vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or (length is not None and v.size != length):
        as_vector(v, length=length, name=name)      # raises the shape error
    squares = float(v.dot(v))       # @ without the ufunc dispatch
    if not math.isfinite(squares):
        as_vector(v, name=name)
    return v, squares


def _exponent(v: np.ndarray) -> int:
    """The e with max |v_i| in [2^(e-1), 2^e): v 2^-e, exact for a finite
    v, has entries below 1 and a sum of squares below its length."""
    return math.frexp(float(np.abs(v).max()))[1]


def _scaled_norm(v: np.ndarray) -> float:
    """||v||_2 of a finite *v* whose sum of squares overflows, finite: taken
    from v scaled exactly by the power of two :func:`_exponent` gives."""
    e = _exponent(v)
    w = np.ldexp(v, -e)
    return math.ldexp(math.sqrt(w.dot(w)), e)


def pcg_solve(a, b, x0=None, config: PcgConfig | None = None,
              preconditioner=None) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = b by preconditioned CG.

    Parameters
    ----------
    a : CsrMatrix or callable x -> A x
        Symmetric positive (semi)definite operator. For a singular operator
        the right-hand side must be consistent up to rounding: a nullspace
        component of at most sqrt(eps) ||b|| is dropped.
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Start vector (zero when omitted). If it already satisfies the
        tolerance the solve returns immediately with zero iterations.
    config : PcgConfig
        Tolerances and iteration budget. Stopping rule (_stopping_target):
        ||r||_2 <= max(rel_tol * ||b||_2, abs_tol) on the recurrence residual.
    preconditioner : object with ``apply``, optional
        Prebuilt preconditioner, such as :func:`build_preconditioner`'s;
        when omitted the solve is plain CG.

    A finite *b* whose sum of squares overflows is solved as b 2^-e, with
    2^-e the power of two that puts its largest entry in [0.5, 1), and the
    solution scaled back: the target stays finite and the iterates are
    those of the scaled solve, scaled.

    Returns
    -------
    (x, SolveReport)
        ``converged=False`` with the last iterate when the budget is
        exhausted; indefiniteness raises :class:`IndefiniteOperatorError`
        and a larger nullspace component its subclass
        :class:`InconsistentRhsError`.
        *x* is a new array: neither *b* nor *x0* is written.
    """
    config = config or PcgConfig()
    apply_a, n = _as_operator(a)
    b, b_squares = _vector(b, n, "rhs")
    if not math.isfinite(b_squares):
        return _solve_scaled(a, b, x0, config, preconditioner)
    b_norm = math.sqrt(b_squares)
    target = _stopping_target(config, b_norm)

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = _vector(x0, b.size, "start vector")[0].copy()
        r = b - apply_a(x)
    # products through ndarray.dot: the BLAS product of @ without its ufunc
    # dispatch, bitwise the same
    r_norm = math.sqrt(r.dot(r))

    if r_norm <= target:
        return x, SolveReport(0, _relative(r_norm, b_norm), True)

    # x, r and p are updated in place through one scratch vector; the
    # operator's and the preconditioner's outputs are only read
    z = preconditioner.apply(r) if preconditioner is not None else r
    p = z.copy()
    scratch = np.empty_like(p)
    rz = float(r.dot(z))
    # p^T M p (M the preconditioner) by its exact-arithmetic recurrence, and
    # the largest curvature p^T A p / p^T M p seen: -inf before the first
    # step, so that step never counts as along the nullspace
    pmp = rz
    curvature = -math.inf
    for it in range(1, config.max_iter + 1):
        ap = apply_a(p)
        pap = float(p.dot(ap))
        if abs(pap) <= _NULL_CURVATURE * curvature * pmp:
            # p's curvature is rounding noise, so p lies in the nullspace of
            # a singular operator, and the residual along it is the
            # inconsistency of b. No step reduces it; taking one would add a
            # huge nullspace component to x. Rounding-level inconsistency is
            # dropped from r and the recurrence restarts; more is an error.
            pp = float(p.dot(p))
            along = float(r.dot(p)) / pp
            dropped = abs(along) * math.sqrt(pp)
            if dropped > _ROUNDING * b_norm:
                raise IndefiniteOperatorError.inconsistent(dropped, b_norm,
                                                           it)
            np.subtract(r, np.multiply(p, along, out=scratch), out=r)
            r_norm = math.sqrt(r.dot(r))
            if r_norm <= target:
                return x, SolveReport(it, _relative(r_norm, b_norm), True)
            z = preconditioner.apply(r) if preconditioner is not None else r
            p[:] = z
            rz = pmp = float(r.dot(z))
            continue
        if not math.isfinite(pap) or pap <= 0.0:
            raise IndefiniteOperatorError(
                f"nonpositive curvature p^T A p = {pap:.3e} at iteration {it}")
        curvature = max(curvature, pap / pmp)
        alpha = rz / pap
        np.add(x, np.multiply(p, alpha, out=scratch), out=x)
        np.subtract(r, np.multiply(ap, alpha, out=scratch), out=r)
        r_norm = math.sqrt(r.dot(r))
        if r_norm <= target:
            return x, SolveReport(it, _relative(r_norm, b_norm), True)
        z = preconditioner.apply(r) if preconditioner is not None else r
        rz_next = float(r.dot(z))
        if not math.isfinite(rz_next):
            raise IndefiniteOperatorError(
                f"non-finite preconditioned residual at iteration {it}")
        beta = rz_next / rz
        np.add(z, np.multiply(p, beta, out=p), out=p)
        pmp = rz_next + beta * beta * pmp
        rz = rz_next
    return x, SolveReport(config.max_iter, _relative(r_norm, b_norm), False)


def _solve_scaled(a, b, x0, config: PcgConfig, preconditioner
                  ) -> tuple[np.ndarray, SolveReport]:
    """:func:`pcg_solve` of a finite *b* whose sum of squares overflows.

    Every vector and norm of CG, the stopping rule and the nullspace test
    scale with b, and by a power of two exactly, so the solve of b 2^-e
    (:func:`_exponent`) is that of b scaled by 2^-e, bit for bit, with
    finite norms and a finite target. Its x comes back scaled by 2^e, and
    an inconsistency's ``component`` with it; the report and the messages
    are relative to ||b||.
    """
    e = _exponent(b)
    if x0 is not None:
        x0 = np.ldexp(np.asarray(x0, dtype=np.float64), -e)
    config = replace(config, abs_tol=math.ldexp(config.abs_tol, -e))
    try:
        x, report = pcg_solve(a, np.ldexp(b, -e), x0, config, preconditioner)
    except IndefiniteOperatorError as err:
        if err.component is not None:
            err.component = math.ldexp(err.component, e)
        raise
    return np.ldexp(x, e), report


def _relative(res: float, b_norm: float) -> float:
    if b_norm > 0.0:
        return res / b_norm
    return 0.0 if res == 0.0 else np.inf
