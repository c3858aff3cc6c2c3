"""Start-vector generation for sequences of related linear solves.

A transient run solves the same singular operator against two slowly
varying right-hand-side families. Each family has a strategy object of its
own, which holds that family's history and produces the start vector of its
next solve by Galerkin projection onto a subspace built from the family's
previous solutions; mixing histories would poison the projections.
:func:`make_strategy` builds one family's object. Each returns its start
x0 with the image A x0, so a solve forms rhs - A x0 with no product:

* ``previous``: reuse the last solution (zero before the first) unchanged,
  with the image formed when the solution is observed.
* ``cspe`` (:class:`SubspaceCache`): keep a K_n-orthonormal basis W of
  past solutions with its products K_n W; every accepted basis column
  costs exactly one fresh operator application, and all earlier columns
  and products are reused bit-identically (the cascade property). The
  start W W^T b and its image both come from them with no factorisation,
  and a solution within the drop tolerance of the last start is dropped
  without a sweep.
* ``pod``: keep a ring of the last ``n_pod`` raw solutions and rebuild a
  truncated basis per solve via the method of snapshots
  (``pod_start_vector``). Its modes are K_n-orthonormalised as CSPE's
  columns are, at one operator application per truncated mode each time,
  and the start and its image come from W and K_n W as CSPE's do.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .krylov import _exponent
from .sparse import _check_count

__all__ = [
    "StrategyConfig",
    "RhsFamily",
    "SubspaceCache",
    "pod_start_vector",
    "StartVectorStrategy",
    "PreviousSolutionStrategy",
    "PodStrategy",
    "make_strategy",
]


STRATEGIES = ("previous", "cspe", "pod")


@dataclass(frozen=True)
class StrategyConfig:
    """A start-vector method (one of STRATEGIES) and the POD history
    settings; a bad value raises ValueError naming the field first. The
    CSPE basis cap is not a setting: the caller derives it from the
    problem (see :func:`make_strategy`)."""

    kind: str = "cspe"
    n_pod: int = 10
    eps_pod: float = 1e-4

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"kind {self.kind!r} is not one of {STRATEGIES}")
        _check_count("n_pod", self.n_pod, 1)
        if not (0.0 < self.eps_pod < 1.0):
            raise ValueError("eps_pod must lie in (0, 1)")


class RhsFamily(Enum):
    """The two right-hand-side families of the eliminated-block solves."""

    SOURCE_CURRENT = "source"
    COUPLING_FROM_PREVIOUS_STATE = "coupling_previous"

    # members are singletons compared by identity; Enum's own __hash__ is
    # a Python-level call on every dict lookup of a family
    __hash__ = object.__hash__


# a K_n-Gram-Schmidt pivot at or below this fraction of the operator's
# scale (see _orthonormal_row) fails
PIVOT_FLOOR = 1e-12


def _orthonormal_row(rows: np.ndarray, v: np.ndarray, drop_norm: float,
                     operator, scale: float):
    """The next K_n-orthonormal column after the basis in *rows*, from *v*
    (Fischer, Comput. Methods Appl. Mech. Engrg. 163, 1998).

    ``rows[0]`` and ``rows[1]`` hold the columns of W (W^T A W = I) and of
    A W as rows. Two Gram-Schmidt sweeps u - W (A W)^T u need no product;
    a remainder no longer than *drop_norm* after either, a zero one at
    *drop_norm* 0 included, is dropped without one. Otherwise the unit
    remainder u costs the one product A u, and with c = W^T A u the pivot
    u^T A u - ||c||^2 must exceed PIVOT_FLOOR times the larger of
    |u^T A u| and *scale*, the largest u^T A u of an accepted column: a
    direction the operator maps to rounding noise fails.

    Returns ``(pair, diag)``: the row pair (w, A w) of the new column and
    diag = u^T A u; ``(None, diag)`` when the pivot fails, and
    ``(None, None)`` when no product was made.
    """
    wt, awt = rows
    u = v
    for _ in range(2):
        if len(wt):
            u = u - wt.T @ (awt @ u)
        nu = math.sqrt(u @ u)
        if nu <= drop_norm:
            return None, None
    u = u / nu
    au = np.asarray(operator(u), dtype=np.float64)
    c = wt.dot(au)
    diag = float(u @ au)
    delta2 = diag - c.dot(c)
    # after the sweeps the pivot is about u^T A u, so it is held against
    # the operator's scale too. False for a NaN as well.
    if not delta2 > PIVOT_FLOOR * max(abs(diag), scale):
        return None, diag
    delta = math.sqrt(delta2)
    return ((u - wt.T.dot(c)) / delta, (au - awt.T.dot(c)) / delta), diag


class StartVectorStrategy:
    """Produces the start vectors of one right-hand-side family and absorbs
    its solutions.

    Subclasses define ``start_vector(rhs)``, which returns ``(x0, image)``:
    the start of the family's next solve, which is the caller's, and its
    operator image A x0 up to rounding, which is only read.
    ``observe(solution)`` takes every converged solution, a start returned
    unchanged included. A subclass builds its history in its constructor,
    not at the first solve.
    ``size`` is the size of the basis (for POD, the modes its latest
    projection kept). ``products_computed`` counts operator applications
    spent on history upkeep (outside any Krylov iteration), the quantity
    benchmarks charge to the start-vector method itself, ``evictions``
    the basis columns a capped history dropped to make room and
    ``columns_dropped`` the CSPE solutions that never entered the basis,
    a failed pivot's included; a POD mode whose pivot fails shows only as
    a product beyond its projection's k. ``projections`` logs one
    ``(k, info)`` entry per truncated projection; only POD truncates.
    """

    kind: str
    size = 0
    products_computed = 0
    evictions = 0
    columns_dropped = 0
    projections: tuple | list = ()

    def __init__(self, dim: int):
        self.dim = int(dim)


class SubspaceCache(StartVectorStrategy):
    """K_n-orthonormal solution history with cached operator products: the
    CSPE strategy of one family, whose ``observe`` calls ``insert``.

    ``projection`` is the pair (W, A W), ``basis`` and ``cached_products``,
    with W^T A W = I, so the start W W^T b needs no factorisation (Fischer,
    Comput. Methods Appl. Mech. Engrg. 163, 1998). Both are column-major
    views of a row store that doubles when full: a column appends one row
    to each and changes no other, and each change is a new tuple, whose
    identity names the basis version. The operator is bound at
    construction, as the products hold only for it. Eviction is FIFO once
    ``max_cols`` is reached, and the kept columns stay K_n-orthonormal.
    See ``insert`` for drops. A ``max_cols`` that is not an integer of at
    least 1, or a ``drop_tol`` that is not finite and nonnegative, raises
    ValueError naming it first.
    """

    kind = "cspe"

    def __init__(self, dim: int, operator, max_cols: int,
                 drop_tol: float = 1e-10):
        _check_count("max_cols", max_cols, 1)
        if not (0.0 <= drop_tol < math.inf):
            raise ValueError("drop_tol must be finite and nonnegative")
        super().__init__(dim)
        self.max_cols = int(max_cols)
        self.drop_tol = float(drop_tol)
        self._operator = operator
        # rows j of _rows[0] and _rows[1] are column j of W and of A W
        self._rows = np.empty((2, 0, self.dim))
        self.size = 0
        self.projection = self._views()
        # the largest u^T A u of an accepted unit column, a lower bound of
        # ||A|| that scales the pivot floor
        self._scale = 0.0
        # the start vector last returned, and a copy of its values while
        # it lies in the basis's span: the caller may write the start
        self._start: np.ndarray | None = None
        self._anchor: np.ndarray | None = None
        self.products_computed = 0
        self.columns_accepted = 0
        self.columns_dropped = 0
        self.evictions = 0

    def _views(self) -> tuple[np.ndarray, np.ndarray]:
        rows = self._rows[:, :self.size]
        return rows[0].T, rows[1].T

    @property
    def basis(self) -> np.ndarray:
        return self.projection[0]

    @property
    def cached_products(self) -> np.ndarray:
        return self.projection[1]

    def insert(self, vector) -> bool:
        """Append one K_n-orthonormalized column; True when accepted.

        A vector v within ``drop_tol * ||v||`` of the last start (which is
        in the span) is dropped without a sweep, and one whose remainder
        after the sweeps is that short without a product. Otherwise the one
        product is made, and a failed pivot drops the column (see
        ``_orthonormal_row``). At ``max_cols`` an accepted column, swept
        against every column, evicts the oldest. A finite v whose sum of
        squares overflows is taken by its direction, without a warning.
        """
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.dim},)")
        anchor = self._anchor
        with np.errstate(over="ignore"):
            squares = v.dot(v)
            if not math.isfinite(squares) and np.isfinite(v).all():
                v = v / np.abs(v).max()
                squares, anchor = v.dot(v), None
            orig = math.sqrt(squares)
            if orig == 0.0 or not math.isfinite(orig):
                self.columns_dropped += 1
                return False
            if anchor is not None:
                miss = v - anchor
                if math.sqrt(miss.dot(miss)) <= self.drop_tol * orig:
                    self.columns_dropped += 1
                    return False
        k = self.size
        pair, diag = _orthonormal_row(self._rows[:, :k], v,
                                      self.drop_tol * orig, self._operator,
                                      self._scale)
        if diag is not None:
            self.products_computed += 1
        if pair is None:
            self.columns_dropped += 1
            return False
        self._scale = max(self._scale, diag)
        if k == self.max_cols:
            self._rows = self._rows[:, 1:]
            k -= 1
            self.evictions += 1
            # the evicted column may carry part of the last start
            self._anchor = None
        if k == self._rows.shape[1]:
            rows = np.empty((2, max(1, 2 * k), self.dim))
            rows[:, :k] = self._rows[:, :k]
            self._rows = rows
        self._rows[:, k] = pair
        self.size = k + 1
        self.projection = self._views()
        self.columns_accepted += 1
        return True

    def start_vector(self, rhs) -> tuple[np.ndarray, np.ndarray]:
        """Galerkin-optimal start vector W W^T rhs and its image
        (A W) W^T rhs; zero vectors from an empty cache."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.dim,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.dim},)")
        w, aw = self.projection
        # ndarray.dot runs the BLAS call of @ without the ufunc dispatch,
        # and projecting is every CSPE solve's cost
        coeffs = w.T.dot(rhs)
        self._start = x0 = w.dot(coeffs)
        self._anchor = x0.copy()
        return x0, aw.dot(coeffs)

    def observe(self, solution) -> None:
        # the start last returned is in the basis's span; insert through
        # the attribute, so a wrapper of the class's insert sees it
        if solution is not self._start:
            self.insert(solution)


def pod_start_vector(snapshots, rhs, operator, eps_pod: float
                     ) -> tuple[np.ndarray, int, float, int, np.ndarray]:
    """Proper-orthogonal-decomposition start vector from raw snapshots.

    Builds the basis by the method of snapshots: eigendecomposition of the
    small Gram matrix X^T X of the *snapshots* (a sequence of vectors),
    singular values sigma_i = sqrt(eigenvalues), truncation keeping all
    modes with sigma_i / sigma_1 > eps_pod. The modes are K_n-orthonormalised
    in sigma order as CSPE's columns are (``_orthonormal_row``), one product
    each: a mode whose pivot fails is dropped, and the kept modes' fraction
    of the total singular-value mass is reported alongside. The start is
    W W^T rhs and its image (A W) W^T rhs.

    Returns ``(x0, k, info_kept, operator_applications, image)`` with k the
    kept modes and image = A x0 from the modes' products. No snapshots or
    all-zero snapshots give zero vectors with k = 0 and info 0. Finite
    snapshots whose Gram matrix overflows are scaled by a power of two
    first; call it under ``np.errstate(over="ignore")`` (as
    ``SchurOperator.solve_kn`` does) to keep numpy's overflow warning off.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if len(snapshots) == 0:
        return np.zeros(rhs.size), 0, 0.0, 0, np.zeros(rhs.size)
    # one snapshot per row
    x = np.array(snapshots, dtype=np.float64)
    dim = x.shape[1]
    if rhs.shape != (dim,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({dim},)")
    gram = x @ x.T
    if not np.isfinite(gram).all():
        # finite snapshots whose Gram matrix overflows: the modes and the
        # singular-value ratios of x 2^-e are those of x, and its Gram
        # matrix is finite
        x = np.ldexp(x, -_exponent(x))
        gram = x @ x.T
    # eigh's eigenvalues ascend: reversed, the modes come in sigma order
    evals, evecs = np.linalg.eigh(gram)
    sigma = np.sqrt(np.clip(evals[::-1], 0.0, None))
    if sigma[0] == 0.0:
        return np.zeros(dim), 0, 0.0, 0, np.zeros(dim)
    k = int(np.count_nonzero(sigma / sigma[0] > eps_pod))
    # the modes' directions X v_j as rows; _orthonormal_row scales each
    modes = evecs[:, ::-1][:, :k].T @ x
    # rows j of rows[0] and rows[1] are the kept columns j of W and A W
    rows = np.empty((2, k, dim))
    keep = []
    scale = 0.0
    applies = 0
    for j in range(k):
        pair, diag = _orthonormal_row(rows[:, :len(keep)], modes[j], 0.0,
                                      operator, scale)
        if diag is not None:
            applies += 1
        if pair is not None:
            rows[:, len(keep)] = pair
            keep.append(j)
            scale = max(scale, diag)
    w, aw = rows[:, :len(keep)]
    coeffs = w.dot(rhs)
    info = float(sigma[keep].sum() / sigma.sum())
    return w.T.dot(coeffs), len(keep), info, applies, aw.T.dot(coeffs)


# -- the other strategies ---------------------------------------------------


class PreviousSolutionStrategy(StartVectorStrategy):
    """Start from the family's last converged solution, whose image costs
    one operator application when it is observed (``products_computed``)."""

    kind = "previous"

    def __init__(self, dim: int, operator):
        super().__init__(dim)
        self._operator = operator
        self._last = np.zeros(self.dim)
        self._image = np.zeros(self.dim)
        # the start vector last returned
        self._start: np.ndarray | None = None

    def start_vector(self, rhs):
        self._start = self._last.copy()
        return self._start, self._image

    def observe(self, solution):
        if solution is self._start:
            return
        self._last = np.array(solution, dtype=np.float64)
        self._image = np.asarray(self._operator(self._last), dtype=np.float64)
        self.products_computed += 1


class PodStrategy(StartVectorStrategy):
    """Snapshot POD projection on a ring of the family's last ``n_pod``
    solutions, basis rebuilt per solve. Every observed solution enters the
    ring, also a start returned unchanged."""

    kind = "pod"

    def __init__(self, dim: int, operator, n_pod: int, eps_pod: float):
        super().__init__(dim)
        self._operator = operator
        self.eps_pod = float(eps_pod)
        self._snapshots = deque(maxlen=n_pod)
        self.projections = []

    def start_vector(self, rhs):
        if not self._snapshots:
            return np.zeros(self.dim), np.zeros(self.dim)
        x0, k, info, applies, image = pod_start_vector(
            self._snapshots, rhs, self._operator, self.eps_pod)
        self.products_computed += applies
        self.size = k
        self.projections.append((k, info))
        return x0, image

    def observe(self, solution):
        v = np.asarray(solution, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"snapshot has shape {v.shape}, "
                             f"expected ({self.dim},)")
        self._snapshots.append(v.copy())


def make_strategy(config: StrategyConfig, dim: int, operator,
                  max_cols: int | None = None,
                  drop_tol: float = 1e-10) -> StartVectorStrategy:
    """One family's strategy of the kind *config* names, applying the
    system *operator*. CSPE keeps at most *max_cols* basis columns (None:
    *dim*, which no basis exceeds) and drops increments below
    *drop_tol* (see ``SubspaceCache.insert``)."""
    if config.kind == "previous":
        return PreviousSolutionStrategy(dim, operator)
    if config.kind == "cspe":
        return SubspaceCache(dim, operator,
                             dim if max_cols is None else max_cols, drop_tol)
    return PodStrategy(dim, operator, config.n_pod, config.eps_pod)
