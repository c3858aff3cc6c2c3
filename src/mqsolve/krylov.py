"""Preconditioned conjugate gradients for symmetric positive (semi)definite systems.

The solver never regularizes: on a singular matrix it relies on the right-hand
side being consistent (in the range), in which case CG converges to one of the
solutions. Iteration counting is explicit because downstream benchmarks
compare iteration budgets: ``iterations`` is the number of operator
applications after the initial residual, and a start vector that already
meets the tolerance reports zero iterations without touching the operator
loop. The preconditioner is either none or Jacobi. :func:`_stopping_target`
is the one stopping rule.

A family solve of ``SchurOperator.solve_kn`` does not always enter
:func:`pcg_solve`. A CSPE start vector comes with its K_n image from cached
products, so ``solve_kn`` forms the initial residual itself: a start that
meets :func:`_stopping_target` is returned without a call here, and any
other solves for the correction from zero down to that same residual norm.

Contract with the caller, which ``perfbench/run.py`` relies on to trace a
run: :func:`pcg_solve` keeps the signature
``pcg_solve(a, b, x0=None, config=None, preconditioner=None)``, applies the
operator only through the callable that ``_as_operator`` returns, and uses
a preconditioner only through its ``apply`` method. It writes neither *b*
nor *x0*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .sparse import CsrMatrix, _matvec, as_vector

__all__ = [
    "Preconditioner",
    "PcgConfig",
    "SolveReport",
    "pcg_solve",
    "build_preconditioner",
    "JacobiPreconditioner",
    "IndefiniteOperatorError",
]


class Preconditioner(str, Enum):
    NONE = "none"
    JACOBI = "jacobi"


class IndefiniteOperatorError(RuntimeError):
    """Raised when a CG search direction exposes an indefinite operator."""


@dataclass(frozen=True)
class PcgConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    max_iter: int = 5000
    preconditioner: Preconditioner = Preconditioner.NONE

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not isinstance(self.preconditioner, Preconditioner):
            try:
                kind = Preconditioner(self.preconditioner)
            except ValueError:
                raise ValueError(f"preconditioner {self.preconditioner!r} "
                                 "is unknown") from None
            object.__setattr__(self, "preconditioner", kind)


def _stopping_target(config: PcgConfig, b_norm: float) -> float:
    """Residual norm at which a solve of a right-hand side of norm *b_norm*
    stops: max(rel_tol * ||b||, abs_tol), the one stopping rule."""
    return max(config.rel_tol * b_norm, config.abs_tol)


@dataclass(frozen=True)
class SolveReport:
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
        d = as_vector(diag, name="diagonal")
        if (d < 0).any():
            raise ValueError("Jacobi preconditioner requires a nonnegative diagonal")
        self._inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 1.0)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._inv * r


def build_preconditioner(a: CsrMatrix, kind: Preconditioner):
    """Build the requested preconditioner for *a*; None for ``NONE``."""
    kind = Preconditioner(kind)
    if kind is Preconditioner.NONE:
        return None
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
    finite; a finite vector whose sum overflows passes as before.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or (length is not None and v.size != length):
        as_vector(v, length=length, name=name)      # raises the shape error
    squares = float(v @ v)
    if not math.isfinite(squares):
        as_vector(v, name=name)
    return v, squares


def pcg_solve(a, b, x0=None, config: PcgConfig | None = None,
              preconditioner=None) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = b by preconditioned CG.

    Parameters
    ----------
    a : CsrMatrix or callable x -> A x
        Symmetric positive (semi)definite operator. For a singular operator
        the right-hand side must be consistent.
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Start vector (zero when omitted). If it already satisfies the
        tolerance the solve returns immediately with zero iterations.
    config : PcgConfig
        Tolerances and iteration budget. Stopping rule (_stopping_target):
        ||r||_2 <= max(rel_tol * ||b||_2, abs_tol) on the recurrence residual.
    preconditioner : object with ``apply``, optional
        Prebuilt preconditioner; when omitted and the config requests one,
        it is built from *a* (matrix operators only).

    Returns
    -------
    (x, SolveReport)
        ``converged=False`` with the last iterate when the budget is
        exhausted; indefiniteness raises :class:`IndefiniteOperatorError`.
        *x* is a new array: neither *b* nor *x0* is written.
    """
    config = config or PcgConfig()
    apply_a, n = _as_operator(a)
    b, b_squares = _vector(b, n, "rhs")
    if preconditioner is None and config.preconditioner is not Preconditioner.NONE:
        if not isinstance(a, CsrMatrix):
            raise ValueError("automatic preconditioner construction needs a CsrMatrix")
        preconditioner = build_preconditioner(a, config.preconditioner)

    b_norm = math.sqrt(b_squares)
    target = _stopping_target(config, b_norm)

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = _vector(x0, b.size, "start vector")[0].copy()
        r = b - apply_a(x)
    r_norm = math.sqrt(r @ r)

    if r_norm <= target:
        return x, SolveReport(0, _relative(r_norm, b_norm), True)

    # x, r and p are updated in place through one scratch vector; the
    # operator's and the preconditioner's outputs are only read
    z = preconditioner.apply(r) if preconditioner is not None else r
    p = z.copy()
    scratch = np.empty_like(p)
    rz = float(r @ z)
    for it in range(1, config.max_iter + 1):
        ap = apply_a(p)
        pap = float(p @ ap)
        if not math.isfinite(pap) or pap <= 0.0:
            raise IndefiniteOperatorError(
                f"nonpositive curvature p^T A p = {pap:.3e} at iteration {it}")
        alpha = rz / pap
        np.add(x, np.multiply(p, alpha, out=scratch), out=x)
        np.subtract(r, np.multiply(ap, alpha, out=scratch), out=r)
        r_norm = math.sqrt(r @ r)
        if r_norm <= target:
            return x, SolveReport(it, _relative(r_norm, b_norm), True)
        z = preconditioner.apply(r) if preconditioner is not None else r
        rz_next = float(r @ z)
        if not math.isfinite(rz_next):
            raise IndefiniteOperatorError(
                f"non-finite preconditioned residual at iteration {it}")
        np.add(z, np.multiply(p, rz_next / rz, out=p), out=p)
        rz = rz_next
    return x, SolveReport(config.max_iter, _relative(r_norm, b_norm), False)


def _relative(res: float, b_norm: float) -> float:
    if b_norm > 0.0:
        return res / b_norm
    return 0.0 if res == 0.0 else np.inf
