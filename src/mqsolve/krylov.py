"""Preconditioned conjugate gradients for symmetric positive (semi)definite systems.

The solver never regularizes: on a singular matrix it relies on the right-hand
side being consistent (in the range), in which case CG converges to one of the
solutions. Iteration counting is explicit because downstream benchmarks
compare iteration budgets: ``iterations`` is the number of operator
applications after the initial residual, and a start vector that already
meets the tolerance reports zero iterations without touching the operator
loop. The preconditioner is either none or Jacobi.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sparse import CsrMatrix, as_vector

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
        object.__setattr__(self, "preconditioner",
                           Preconditioner(self.preconditioner))


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
        m = a.to_scipy()
        return lambda x: m @ x, a.nrows
    if callable(a):
        return a, None
    raise TypeError(f"unsupported operator type {type(a).__name__}")


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
        Tolerances and iteration budget. Stopping rule:
        ||r||_2 <= max(rel_tol * ||b||_2, abs_tol) on the recurrence residual.
    preconditioner : object with ``apply``, optional
        Prebuilt preconditioner; when omitted and the config requests one,
        it is built from *a* (matrix operators only).

    Returns
    -------
    (x, SolveReport)
        ``converged=False`` with the last iterate when the budget is
        exhausted; indefiniteness raises :class:`IndefiniteOperatorError`.
    """
    config = config or PcgConfig()
    apply_a, n = _as_operator(a)
    b = as_vector(b, length=n, name="rhs")
    if preconditioner is None and config.preconditioner is not Preconditioner.NONE:
        if not isinstance(a, CsrMatrix):
            raise ValueError("automatic preconditioner construction needs a CsrMatrix")
        preconditioner = build_preconditioner(a, config.preconditioner)

    b_norm = float(np.linalg.norm(b))
    target = max(config.rel_tol * b_norm, config.abs_tol)

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = as_vector(x0, length=b.size, name="start vector").copy()
        r = b - apply_a(x)
    r_norm = float(np.linalg.norm(r))

    def rel(res: float) -> float:
        if b_norm > 0.0:
            return res / b_norm
        return 0.0 if res == 0.0 else np.inf

    if r_norm <= target:
        return x, SolveReport(0, rel(r_norm), True)

    z = preconditioner.apply(r) if preconditioner is not None else r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, config.max_iter + 1):
        ap = apply_a(p)
        pap = float(p @ ap)
        if not np.isfinite(pap) or pap <= 0.0:
            raise IndefiniteOperatorError(
                f"nonpositive curvature p^T A p = {pap:.3e} at iteration {it}")
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        r_norm = float(np.linalg.norm(r))
        if r_norm <= target:
            return x, SolveReport(it, rel(r_norm), True)
        z = preconditioner.apply(r) if preconditioner is not None else r
        rz_next = float(r @ z)
        if not np.isfinite(rz_next):
            raise IndefiniteOperatorError(
                f"non-finite preconditioned residual at iteration {it}")
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, SolveReport(config.max_iter, rel(r_norm), False)
