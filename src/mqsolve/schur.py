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
previous solution) are their upkeep. ``rate`` owns the right-hand side
M_c^{-1} f(t, a_c) of the eliminated system and its pair of solves,
K_n^+ j_n(t) and K_n^+ K_cn^T a_c: the step from (a_c, t) is
a_c + dt * rate at its start. The rate needs only the force
K_cn (y_cpl - y_src), so when both families are CSPE and the source is
separable, a residual screen decides from arrays of the conductor's
dimension whether both starts would be accepted, and then makes no
operation of the nonconducting dimension (``_ResidualScreen``).
Recovering the nonconducting unknowns a_n = y_src - y_cpl at an output time
takes the same screen, or else the same pair of solves, and hands its force
to the next step (see ``recover_an``), so no (a_c, t) is solved or
screened twice.

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
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .krylov import (IndefiniteOperatorError, PcgConfig, SolveReport, _norm,
                     _squared, _vector, build_preconditioner,
                     pcg_solve)
from .sparse import (CsrMatrix, _check_count, _csr_matvec, _matvec,
                     as_vector, spmv, spmv_transpose, symmetric_check)
from .startvec import RhsFamily, StrategyConfig, SubspaceCache, make_strategy

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
    "rate",
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

# the CSPE drop tolerance as a fraction of the inner solve tolerance: a
# correction of a start that missed the target is smaller than tol, and
# a cache that dropped it would miss the same way at the next solve
DROP_FRACTION = 0.01

EPS = float(np.finfo(float).eps)

# a solve whose start's residual is within this factor of its target, but
# above it, is a near miss
NEAR_MISS = 10.0

# why the residual screen sent a pair to the full path: a zero or
# non-finite w(t), a source start that misses, a coupling estimate that
# shows a miss, one within its rounding margin, and a non-finite one
SCREEN_MISSES = ("waveform", "source", "rejected", "inconclusive",
                 "nonfinite")


class StepFailureError(RuntimeError):
    """A time step produced a non-finite state or an inner solve failed."""


@dataclass(frozen=True)
class ExplicitConfig:
    """Settings of the explicit run: start vectors, the relative tolerance
    ``tol`` of every inner solve (Jacobi-preconditioned PCG to the residual
    norm ``tol * ||b||``), the auto step's safety factor and auto-dt
    refresh period (0: none). A bad value raises ValueError naming the
    field first. The step budget ``MAX_STEPS``, the PCG budget (the
    ``PcgConfig`` default), the CSPE drop tolerance ``DROP_FRACTION * tol``
    and whether the residual screen runs (it follows from ``tol``) are not
    settings."""

    strategy: StrategyConfig = StrategyConfig()
    tol: float = 1e-8
    safety: float = 0.9
    reestimate_every: int = 500

    def __post_init__(self):
        if not (0.0 < self.tol < math.inf):
            raise ValueError("tol must be finite and positive")
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
    singular nonconducting block to the relative tolerance ``config.tol``
    (None: the default ``ExplicitConfig``). Each right-hand-side family is
    seeded by a strategy object of its own, ``strategies[family]``: the one
    ``config.strategy`` names, or the built *strategies* (a dict over
    FAMILIES). A CSPE strategy built here keeps at most n_c basis columns,
    the most directions the coupling solutions span, and drops increments
    below ``DROP_FRACTION * tol``. Per-solve iteration counts
    (``solve_iterations``, one list per family) and solver wall time are
    accumulated for benchmarking, and ``kn_applies`` splits the K_n
    products by cause. ``minv_diag`` is the diagonal of M_c^{-1}, by which
    the explicit step multiplies. ``screen`` is the ``_ResidualScreen`` of
    ``rate`` and ``recover_an``, or None where it cannot accept a start
    (decided here, once), and ``screened`` counts the pairs it accepted and
    those it sent to the full path, ``screen_misses`` the latter by cause.
    ``near_misses`` counts, per family, the solves that entered PCG from a
    start within ``NEAR_MISS`` times the target.
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
        # all
        self.strategies = strategies or {
            f: make_strategy(config.strategy, system.n_n, self._kn_apply,
                             system.n_c, DROP_FRACTION * config.tol)
            for f in FAMILIES}
        self.minv_diag = 1.0 / system.mc.diagonal()
        self.solve_iterations = {f: [] for f in FAMILIES}
        self.solver_seconds = 0.0
        self.screened = {"accepted": 0, "full_path": 0}
        self.screen_misses = dict.fromkeys(SCREEN_MISSES, 0)
        self.near_misses = dict.fromkeys(FAMILIES, 0)
        self.screen = (_ResidualScreen(self) if _ResidualScreen.applies(self)
                       else None)

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

        The strategy of the *family* returns the start vector x0 with its K_n
        image, and the solve takes the initial residual r0 = rhs - image from
        it under ``pcg_solve``'s finiteness test (``_squared``), with no K_n
        product; its target is the residual norm ``tol * ||rhs||``. One
        ``np.errstate`` covers the start (with POD's Gram matrix) and both sums
        of squares, so a finite rhs or r0 whose sum of squares overflows draws
        no warning; its norm, and so the target, is taken by ``_norm`` and
        stays finite. A start that meets the target is accepted: it is
        returned itself, with zero iterations and its residual norm r0. Any
        other start is corrected: PCG solves K_n d = r0 from zero to the same
        target and y = x0 + d. As rhs - K_n y = r0 - K_n d, PCG's report is
        that of the family solve. The solution goes back to the strategy with
        that decision (``observe(y, accepted)``), the one place it is made,
        and its iteration count to the family's log.
        A failure names the solve by *family* and *step*; an
        IndefiniteOperatorError from PCG keeps its class, so an
        InconsistentRhsError stays one, its component restated against
        ||rhs||.
        """
        started = time.perf_counter()
        strategy = self.strategies[family]
        try:
            with np.errstate(over="ignore"):
                x0, image = strategy.start_vector(rhs)
                rhs, squares = _squared(rhs, x0.size, "rhs")
                r0 = rhs - image
                # ndarray.dot is @ without the ufunc dispatch
                r0_squares = float(r0.dot(r0))
            rhs_norm = _norm(rhs, squares)
            target = self.config.tol * rhs_norm
            r0_norm = _norm(r0, r0_squares)
            accepted = r0_norm <= target
            if accepted:
                y, report = x0, SolveReport(0, r0_norm, True)
            else:
                if r0_norm <= NEAR_MISS * target:
                    self.near_misses[family] += 1
                y, report = pcg_solve(self._kn_apply, r0,
                                      config=PcgConfig(target),
                                      preconditioner=self._precond)
                y += x0
        except IndefiniteOperatorError as err:
            named = err
            if err.component is not None:
                # PCG named the component against r0
                named = IndefiniteOperatorError.inconsistent(
                    err.component, rhs_norm, err.iteration)
            raise type(err)(f"{_solve_name(family, step)}: {named}",
                            err.component, err.iteration) from err
        except ValueError as err:
            # _squared, or a strategy before it, rejects a non-finite rhs;
            # testing the rhs only then keeps the test off the step's cost
            if np.isfinite(rhs).all():
                raise
            raise StepFailureError(
                f"{_solve_name(family, step)}: non-finite right-hand side"
            ) from err
        if not report.converged:
            raise StepFailureError(
                f"{_solve_name(family, step)} stalled at relative residual "
                f"{report.residual / rhs_norm if rhs_norm else math.inf:.3e} "
                f"after {report.iterations} iterations")
        strategy.observe(y, accepted)
        self.solve_iterations[family].append(report.iterations)
        self.solver_seconds += time.perf_counter() - started
        return y, report


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
    *a_c* None is the zero state.

    This is the package's only ``scipy.linalg`` call, so the module loads
    here, at a process's first bound: an implicit run never loads it."""
    import scipy.linalg
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
                 tol: float = ExplicitConfig.tol, cfl_steps: int = 60,
                 cfl_tol: float = 1e-3, seed: int = 42) -> CflEstimate:
    """Estimate lambda_max(M_c^{-1} K_S) by Lanczos with a residual certificate.

    M_c is diagonal, so M_c^{-1} K_S has the eigenvalues of the symmetric
    A = M_c^{-1/2} K_S(a) M_c^{-1/2}. Lanczos with full reorthogonalisation
    runs on A from a pseudo-random start vector drawn with *seed*, written
    as Rayleigh-Ritz on a growing orthonormal basis whose next direction is
    the top Ritz residual (in exact arithmetic the Lanczos vector). Each step
    costs one inner K_n solve of a right-hand side b, PCG from zero to the
    residual norm ``tol * ||b||`` within the ``PcgConfig`` default budget.
    It stops when the explicit Ritz residual is at most ``cfl_tol * theta``,
    after ``cfl_steps`` steps, or when the basis spans an invariant subspace
    (the whole space at the latest), where theta is exact, its residual 0.
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
    solve. ``tol`` must be finite and positive, ``cfl_steps`` an integer of
    at least 1 and ``cfl_tol`` finite and nonnegative; a bad one raises
    ValueError naming it first, before any solve.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be finite and positive")
    _check_count("cfl_steps", cfl_steps, 1)
    if not (0.0 <= cfl_tol < math.inf):
        raise ValueError("cfl_tol must be finite and nonnegative")
    n = system.n_c
    ref = np.zeros(n) if a_c_ref is None else as_vector(a_c_ref, length=n)
    scale = np.sqrt(1.0 / system.mc.diagonal())
    kc = system.kc_matrix(ref).to_scipy()
    ceiling = stability_bound(system, ref)
    precond = build_preconditioner(system.kn)

    def lanczos_step(v):
        # A v from one inner solve
        x = scale * v
        rhs, squares = _vector(spmv_transpose(system.kcn, x), None, "rhs")
        rhs_norm = _norm(rhs, squares)
        y, report = pcg_solve(system.kn, rhs, config=PcgConfig(tol * rhs_norm),
                              preconditioner=precond)
        if not report.converged:
            raise StepFailureError(
                f"spectral estimate: inner solve stalled at relative residual "
                f"{report.residual / rhs_norm:.3e} after {report.iterations} "
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
    if theta > ceiling * (1.0 + max(tol, 1e-8)):
        raise StepFailureError(
            f"spectral estimate: Ritz value {theta:.6e} exceeds the "
            f"stability bound {ceiling:.6e} of M_c^-1/2 K_c M_c^-1/2, so an "
            "inner K_n solve is wrong")
    return CflEstimate(lambda_max=theta, residual=residual, ceiling=ceiling,
                       power_iters=q.shape[1])


class _ResidualScreen:
    """The pair of CSPE starts of ``rate`` decided in the conductor's
    dimension n_c, with no operation of the nonconducting dimension n_n.

    ``solve_kn`` accepts the start x0 = W W^T b of a family's cache, with
    (W, A W) its ``projection``, when ||b - A W W^T b|| <= tol ||b||,
    and the rate then needs only K_cn x0. Per basis version (the identity
    of ``projection``, a new pair at every accepted column or eviction)
    the screen keeps small arrays:

    * source, b = w(t) p from a ``ScaledPatternSource``: c_p = W^T p,
      rho_p = ||p - A W c_p||, ||p|| and K_cn W c_p. The start's residual
      is |w| rho_p against the target tol |w| ||p||, so one comparison,
      rho_p plus a rounding slack against tol ||p||, decides every
      source solve of the version, and K_cn y_src = w K_cn W c_p.
    * coupling, b = K_cn^T a_c: KW = K_cn W, KAW = K_cn A W and
      G = (A W)^T A W, with S = K_cn K_cn^T built at the first use. KAW
      and KW are kept stacked as one C-contiguous (2k, n_c) block
      [KAW^T; KW^T], so one product gives d = KAW^T a_c and c = KW^T a_c.
      The start's squared residual is
      est = first - 2 second + third
          = a_c^T S a_c - 2 c^T d + c^T G c,
      and K_cn y_cpl = KW c.
    * the pair: F = [KW | -K_cn W c_p] of shape (n_c, k + 1), rebuilt
      (``_version``) when either projection changes and the source start
      hits, never per call. With y = [d; c; w] the force is one product,
      K_cn (y_cpl - y_src) = F [c; w].

    S a_c takes the CSR kernel, as S is sparse; G c is one small product.
    The expansion cancels: a residual below sqrt(eps) ||b|| is of the
    order of its rounding error, which
    err = 4 eps sqrt(k + 1) (|first| + 2 |second| + |third|) bounds with
    the probabilistic sqrt(k) growth (Buhr, Engwer, Ohlberger & Rave,
    WCCM 2014, on such residual estimators). So a coupling start is
    accepted only when est + err <= tol^2 (first - err), a test of
    Python floats.

    A call returns K_cn (y_cpl - y_src) when both starts pass, and logs a
    zero-iteration solve per family and nothing else: ``solve_kn`` hands an
    accepted start to ``observe`` as accepted, which changes no CSPE
    strategy either. Anything else returns None, and ``rate`` then takes the
    full path. Both outcomes count in ``op.screened``, and the screen's time
    in ``op.solver_seconds``. A miss also counts in ``op.screen_misses`` by
    its cause (``SCREEN_MISSES``): a zero or non-finite w(t) (``waveform``),
    a source start that misses (``source``), a coupling estimate that shows
    a miss, est - err > tol^2 (first + err) (``rejected``), a non-finite
    one (``nonfinite``), and any other (``inconclusive``). ``recover`` adds
    the field a_n = y_src - y_cpl = w W_src c_p - W_cpl c of an accepted
    pair, from the call's own coefficients and one product of the
    nonconducting dimension per family.
    """

    def __init__(self, op: SchurOperator):
        self._op = op
        self._pattern = op.system.source.pattern
        self._waveform = op.system.source.waveform
        self._kcn = op.system.kcn
        self._source = op.strategies[RhsFamily.SOURCE_CURRENT]
        self._coupling = op.strategies[RhsFamily.COUPLING_FROM_PREVIOUS_STATE]
        self._logs = tuple(op.solve_iterations[f] for f in FAMILIES)
        self._tol = op.config.tol
        self._shape = (op.system.n_c,)
        # y += S x by the CSR kernel, S bound at the first use
        self._s_apply = None
        # the projections the arrays below belong to
        self._source_version = self._coupling_version = None
        # W c_p and K_cn W c_p, None while the source start misses
        self._source_solution = self._source_force = None
        # [KAW^T; KW^T] and G of the coupling version
        self._block = self._g = None
        self._err = 0.0
        # F = [KW | -K_cn W c_p] of the pair, None while the source misses
        self._force_block = None
        # (w, c) of the last accepted pair
        self._coefficients = None

    @staticmethod
    def applies(op: SchurOperator) -> bool:
        """Whether the screen can accept a start of *op*: both families are
        CSPE, the source is separable, and tol^2 is at least twice the
        rounding floor of est at a full basis of k columns,
        16 eps sqrt(k + 1) ||b||^2 (each term of err is about ||b||^2 at an
        accepted start). At the default tol of 1e-8 it is not."""
        caches = [op.strategies[f] for f in FAMILIES]
        if not (all(isinstance(c, SubspaceCache) for c in caches)
                and isinstance(op.system.source, ScaledPatternSource)):
            return False
        cols = max(c.max_cols for c in caches)
        return 32.0 * EPS * math.sqrt(cols + 1) <= op.config.tol ** 2

    def __call__(self, a_c, t: float) -> np.ndarray | None:
        started = time.perf_counter()
        op = self._op
        source = self._source.projection
        coupling = self._coupling.projection
        w = float(self._waveform(t))
        a_c = np.asarray(a_c, dtype=np.float64)
        # S takes the CSR kernel, which does not bound its reads
        if a_c.shape != self._shape:
            raise ValueError(f"state has shape {a_c.shape}, "
                             f"expected {self._shape}")
        force = None
        with np.errstate(over="ignore", invalid="ignore"):
            if not (w != 0.0 and math.isfinite(w)):
                miss = "waveform"
            else:
                if (source is not self._source_version
                        or coupling is not self._coupling_version):
                    self._version(source, coupling)
                if self._force_block is None:
                    miss = "source"
                else:
                    k = self._g.shape[0]
                    # y = [d; c; w] with d = KAW^T a_c and c = KW^T a_c
                    y = np.empty(2 * k + 1)
                    np.dot(self._block, a_c, out=y[:2 * k])
                    y[2 * k] = w
                    c = y[k:2 * k]
                    s_a = np.zeros(a_c.size)
                    self._s_apply(a_c, s_a)
                    first = float(a_c.dot(s_a))
                    second = float(c.dot(y[:k]))
                    third = float(c.dot(self._g.dot(c)))
                    est = first - 2.0 * second + third
                    err = self._err * (abs(first) + 2.0 * abs(second)
                                       + abs(third))
                    # false for a NaN from an overflow, as for a miss
                    if 0.0 < first and est + err <= (
                            self._tol ** 2 * (first - err)):
                        # K_cn W c - w K_cn W_src c_p
                        force = self._force_block.dot(y[k:])
                        self._coefficients = (w, c)
                    elif not math.isfinite(est + err):
                        miss = "nonfinite"
                    elif est - err > self._tol ** 2 * (first + err):
                        miss = "rejected"
                    else:
                        miss = "inconclusive"
        if force is None:
            op.screened["full_path"] += 1
            op.screen_misses[miss] += 1
        else:
            op.screened["accepted"] += 1
            for log in self._logs:
                log.append(0)
        op.solver_seconds += time.perf_counter() - started
        return force

    def recover(self, a_c, t: float
                ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(a_n, force)`` at (a_c, t) where the call accepts the pair,
        with a_n = y_src - y_cpl from the call's coefficients; else None."""
        force = self(a_c, t)
        if force is None:
            return None
        w, c = self._coefficients
        basis = self._coupling_version[0]
        return w * self._source_solution - basis.dot(c), force

    def _version(self, source, coupling) -> None:
        """The arrays of the pair of projections (*source*, *coupling*):
        the source's where it changed, the coupling's where it changed and
        the source start hits, and F of the pair."""
        if source is not self._source_version:
            self._version_source(source)
        self._force_block = None
        if self._source_force is None:
            return
        if coupling is not self._coupling_version:
            self._version_coupling(coupling)
        kw = self._block[self._g.shape[0]:].T
        self._force_block = np.column_stack([kw, -self._source_force])

    def _version_source(self, projection) -> None:
        w, aw = projection
        p = self._pattern
        c = w.T.dot(p)
        r = p - aw.dot(c)
        p_norm = math.sqrt(p.dot(p))
        slack = 4.0 * EPS * math.sqrt(c.size + 1) * (
            p_norm + np.linalg.norm(np.abs(aw).dot(np.abs(c))))
        hit = 0.0 < p_norm and math.sqrt(r.dot(r)) + slack <= (
            self._tol * p_norm)
        self._source_solution = w.dot(c) if hit else None
        self._source_force = (_matvec(self._kcn, self._source_solution)
                              if hit else None)
        self._source_version = projection

    def _version_coupling(self, projection) -> None:
        w, aw = projection
        kcn = self._kcn.to_scipy()
        if self._s_apply is None:
            s = CsrMatrix.from_scipy(kcn @ kcn.T)
            self._s_apply = partial(_csr_matvec, s.nrows, s.ncols, s.row_ptr,
                                    s.col_idx, s.values)
        # C-contiguous, so one gemv gives d and c
        self._block = np.vstack([np.asarray(kcn @ aw).T,
                                 np.asarray(kcn @ w).T])
        self._g = aw.T.dot(aw)
        self._err = 4.0 * EPS * math.sqrt(w.shape[1] + 1)
        self._coupling_version = projection


def _solve_pair(op: SchurOperator, a_c, t: float, step: int | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(y_src, y_cpl)`` of ``rate`` at (a_c, t), solved in this
    order: the only family solves of the explicit path."""
    y_src, _ = op.solve_kn(op.system.source(t), RhsFamily.SOURCE_CURRENT, step)
    coupling = _matvec(op.system.kcn._transpose, np.asarray(a_c, dtype=float))
    y_cpl, _ = op.solve_kn(coupling, RhsFamily.COUPLING_FROM_PREVIOUS_STATE,
                           step)
    return y_src, y_cpl


def rate(op: SchurOperator, a_c, t: float, step: int | None = None,
         force: np.ndarray | None = None) -> np.ndarray:
    """The rate M_c^-1 f(t, a_c) = M_c^-1 (K_cn (y_cpl - y_src) - K_c(a_c) a_c)
    of the eliminated system at (a_c, t).

    y_src = K_n^+ j_n(t) and y_cpl = K_n^+ K_cn^T a_c are the pair of inner
    solves, one per right-hand-side family, the source first. The algebraic
    block is a_n = y_src - y_cpl; substituting it into the conducting row
    flips the sign of the source term relative to the coupling term.
    *force* is K_cn (y_cpl - y_src) at the same (a_c, t), as recovering a_n
    at an output time (``recover_an``) returns it; without it the rate
    forms its own. A run's output row thus hands its force to the next
    step, and the run pays one pair of solves or screens for all of its
    recoveries: the one after the last step. *step* names the step in a
    solve's failure message.

    Without *force*, ``op.screen`` (when the operator has one) comes
    first: where it shows that both starts would be accepted, it returns
    the force from arrays of the conductor's dimension, and neither solve
    is made (see ``_ResidualScreen``). Otherwise the rate makes both solves
    (``_solve_pair``). K_cn and K_cn^T go to the CSR kernel ``_matvec``
    directly, as in ``kc_apply``: the products are bitwise those of
    ``spmv`` and ``spmv_transpose`` without their call frames.

    The rate is the one array it allocates: it writes neither *force* nor
    the array ``kc_apply`` returns, which a user's ``kc_apply`` may keep.
    """
    if force is None:
        if op.screen is not None:
            force = op.screen(a_c, t)
        if force is None:
            y_src, y_cpl = _solve_pair(op, a_c, t, step)
            force = _matvec(op.system.kcn, y_cpl - y_src)
    out = force - op.system.kc_apply(a_c)
    out *= op.minv_diag
    return out


def explicit_euler_step(state: tuple[np.ndarray, float], dt: float,
                        op: SchurOperator, step_index: int | None = None,
                        force: np.ndarray | None = None) -> np.ndarray:
    """One explicit Euler step a_c + dt * ``rate`` from ``state`` = (a_c, t),
    the rate taken at the step's start.

    *force* is the force K_cn (y_cpl - y_src) at (a_c, t) that ``rate``
    takes (``recover_an`` returns it); without it the step screens or
    solves for its own. Returns the new conducting state. ``dt == 0``
    reproduces the state bit for bit. The step scales and shifts the
    rate's own array, bitwise a_c + dt * rate (IEEE sums and products
    commute), and allocates nothing else. A failure names ``step_index``
    when it is given.
    """
    a_c, t = state
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    a_next = rate(op, a_c, t, step_index, force)
    a_next *= dt
    a_next += a_c
    if np.count_nonzero(np.isfinite(a_next)) != a_next.size:
        where = f" at step {step_index}" if step_index is not None else ""
        raise StepFailureError(f"non-finite conducting state{where} "
                               f"(t = {t + dt:.6e})")
    return a_next


def recover_an(op: SchurOperator, a_c, t: float, step: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Nonconducting unknowns a_n = K_n^+ j_n(t) - K_n^+ K_cn^T a_c.

    Returns ``(a_n, force)``, with the force K_cn (y_cpl - y_src) that
    ``rate`` takes at (a_c, t) and that goes to ``rate`` or
    ``explicit_euler_step`` as *force*. Where ``op.screen`` accepts both
    starts, a_n and the force come from the screen's coefficients
    (``_ResidualScreen.recover``) and no solve is made; anything else (the
    t = 0 row, a rejected or inconclusive estimate, an operator without a
    screen) makes the pair of solves the rate would make, and a_n is
    y_src - y_cpl. *step* names the step that ended at t in a failure
    message.
    """
    if op.screen is not None:
        recovered = op.screen.recover(a_c, t)
        if recovered is not None:
            return recovered
    y_src, y_cpl = _solve_pair(op, a_c, t, step)
    return y_src - y_cpl, _matvec(op.system.kcn, y_cpl - y_src)


@dataclass
class TransientResult:
    """Output-time series of one transient run plus run-level aggregates.

    The iteration columns carry the mean inner iterations per solve of each
    family since the previous output row. Recovery at a row screens or
    solves the pair the next step takes as its own (``recover_an``), and
    logs its two solves in that row.
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
    """The mean of integer *counts*, 0.0 for none: ``np.mean``'s value,
    since a sum of integers is exact, without an array."""
    return sum(counts) / len(counts) if counts else 0.0


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
    # each output row screens or solves for the step after it
    a_n, force = recover_an(op, a_c, t, step=0)
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
                                  step_index=steps + 1, force=force)
        force = None
        t += step_dt
        steps += 1
        if steps > MAX_STEPS:
            raise StepFailureError(f"step budget exceeded ({MAX_STEPS})")
        if trace.due(t):
            a_n, force = recover_an(op, a_c, t, step=steps)
            trace.row(t, a_c, a_n, max(s.size for s in strategies))

    kn_applies = op.kn_applies
    return trace.result(a_c, a_n, {
        "integrator": "explicit",
        "strategy": op.config.strategy.kind,
        "steps": steps,
        "dt": dt_val,
        "stability_bound": bound,
        "cfl_history": cfl_history,
        "maintenance_applies": kn_applies["upkeep"],
        "evictions": {f.value: s.evictions
                      for f, s in op.strategies.items()},
        "columns_dropped": {f.value: s.columns_dropped
                            for f, s in op.strategies.items()},
        "screened": dict(op.screened),
        "screen_misses": dict(op.screen_misses),
        "near_misses": {f.value: n for f, n in op.near_misses.items()},
        "kn_applies": kn_applies,
        "operator_applies": sum(kn_applies.values()),
        "wall_seconds": time.perf_counter() - wall_start,
        "solver_seconds": op.solver_seconds,
    })
