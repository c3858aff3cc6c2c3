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
* ``cspe`` (:class:`SubspaceCache`): keep an orthonormal basis of past
  solutions; every accepted basis column costs exactly one fresh operator
  application, and all previously cached operator products and Galerkin
  entries are reused bit-identically (the cascade property). The start
  vector and its image both come from cached products.
* ``pod``: keep a ring of the last ``n_pod`` raw solutions and rebuild a
  truncated orthogonal basis per solve via the method of snapshots
  (``pod_start_vector``), paying one operator application per retained
  mode each time; the image comes from those products.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

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


def _cholesky_lower(g: np.ndarray, rel_floor: float = 1e-12
                    ) -> tuple[np.ndarray, int | None]:
    """Dense Cholesky factor of a small SPD matrix and None, or a partial
    factor and the index of the first pivot that fails."""
    n = g.shape[0]
    low = np.zeros_like(g)
    for j in range(n):
        s = g[j, j] - low[j, :j] @ low[j, :j]
        if not np.isfinite(s) or s <= rel_floor * abs(g[j, j]) or s <= 0.0:
            return low, j
        low[j, j] = np.sqrt(s)
        if j + 1 < n:
            low[j + 1:, j] = (g[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low, None


def _galerkin_basis(basis: np.ndarray, products: np.ndarray,
                    galerkin: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """W = U L^{-T}, A W = (A U) L^{-T} and the kept columns of a basis U
    with products A U and Galerkin matrix G = U^T A U = L L^T: the start
    for b is W c with c = W^T b, and its image (A W) c. A column whose
    pivot fails is dropped and the rest refactored."""
    keep = list(range(galerkin.shape[0]))
    low, bad = _cholesky_lower(galerkin)
    while bad is not None:
        del keep[bad]
        low, bad = _cholesky_lower(galerkin[np.ix_(keep, keep)])
    if len(keep) < basis.shape[1]:
        basis, products = basis[:, keep], products[:, keep]
    # (U^T A U)^{-1} = L^{-T} L^{-1}; W and A W are column-major, on which
    # numpy's products with them run faster
    inv_t = scipy.linalg.solve_triangular(low, np.eye(len(keep)),
                                          lower=True).T
    return (np.asfortranarray(basis @ inv_t),
            np.asfortranarray(products @ inv_t), keep)


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
    benchmarks charge to the start-vector method itself, and ``evictions``
    the basis columns a capped history dropped to make room.
    ``projections`` logs one ``(k, info)`` entry per truncated projection;
    only POD truncates.
    """

    kind: str
    size = 0
    products_computed = 0
    evictions = 0
    projections: tuple | list = ()

    def __init__(self, dim: int):
        self.dim = int(dim)


class SubspaceCache(StartVectorStrategy):
    """Orthonormal solution history with cached operator products: the CSPE
    strategy of one family, whose ``observe`` calls ``insert``.

    The operator is bound at construction: cached products are only valid
    against a fixed operator, so rebinding is deliberately impossible.
    Eviction is first-in-first-out once ``max_cols`` is reached.

    ``start_vector`` keeps W and A W from ``_galerkin_basis`` and rebuilds
    them only after the basis changed (an accepted insert or an eviction).
    Most inserts are dropped as solver noise, so most projections reuse
    them.
    """

    kind = "cspe"

    def __init__(self, dim: int, operator, max_cols: int,
                 drop_tol: float = 1e-10):
        if max_cols < 1:
            raise ValueError("max_cols must be at least 1")
        super().__init__(dim)
        self.max_cols = int(max_cols)
        self.drop_tol = float(drop_tol)
        self._operator = operator
        self._basis = np.empty((self.dim, 0))
        self._products = np.empty((self.dim, 0))
        self._galerkin = np.empty((0, 0))
        # W and A W, None after a basis change
        self._w: np.ndarray | None = None
        self._aw: np.ndarray | None = None
        # the start vector last returned
        self._start: np.ndarray | None = None
        self.products_computed = 0
        self.columns_accepted = 0
        self.columns_dropped = 0
        self.evictions = 0

    @property
    def size(self) -> int:
        return self._basis.shape[1]

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def cached_products(self) -> np.ndarray:
        return self._products

    @property
    def galerkin(self) -> np.ndarray:
        return self._galerkin

    def insert(self, vector) -> bool:
        """Append one orthonormalized column; True when accepted.

        Costs exactly one operator application on acceptance and none on a
        drop. Existing products and Galerkin entries are not recomputed.
        """
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.dim},)")
        orig = math.sqrt(v @ v)
        if orig == 0.0 or not math.isfinite(orig):
            self.columns_dropped += 1
            return False
        # Two Gram-Schmidt sweeps; a sweep never lengthens the vector, so
        # one that falls below the drop threshold after the first is
        # dropped without the second.
        w = v
        for _ in range(2):
            if self.size:
                w = w - self._basis @ (self._basis.T @ w)
            nw = math.sqrt(w @ w)
            if nw < self.drop_tol * orig:
                self.columns_dropped += 1
                return False
        u = w / nw
        if self.size == self.max_cols:
            self._basis = self._basis[:, 1:]
            self._products = self._products[:, 1:]
            self._galerkin = self._galerkin[1:, 1:]
            self.evictions += 1
        ku = np.asarray(self._operator(u), dtype=np.float64)
        self.products_computed += 1
        cross = self._basis.T @ ku
        diag = float(u @ ku)
        k = self.size
        g = np.empty((k + 1, k + 1))
        g[:k, :k] = self._galerkin
        g[:k, k] = cross
        g[k, :k] = cross
        g[k, k] = diag
        self._basis = np.column_stack([self._basis, u])
        self._products = np.column_stack([self._products, ku])
        self._galerkin = g
        self._w = self._aw = None
        self.columns_accepted += 1
        return True

    def start_vector(self, rhs) -> tuple[np.ndarray, np.ndarray]:
        """Galerkin-optimal start vector U (U^T A U)^{-1} U^T rhs = W W^T rhs
        and its image (A W) W^T rhs; zero vectors from an empty cache. A
        column whose pivot fails leaves the basis (``columns_dropped``)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.dim,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.dim},)")
        if self._w is None:
            self._w, self._aw, keep = _galerkin_basis(
                self._basis, self._products, self._galerkin)
            dropped = self._basis.shape[1] - len(keep)
            if dropped:
                self._basis = self._basis[:, keep]
                self._products = self._products[:, keep]
                self._galerkin = self._galerkin[np.ix_(keep, keep)]
                self.columns_dropped += dropped
        # ndarray.dot runs the BLAS call of @ without the ufunc dispatch,
        # and projecting is every CSPE solve's cost
        coeffs = self._w.T.dot(rhs)
        self._start = x0 = self._w.dot(coeffs)
        return x0, self._aw.dot(coeffs)

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
    modes with sigma_i / sigma_1 > eps_pod. The Galerkin projection onto the
    modes (``_galerkin_basis``) drops a mode whose pivot fails, and the kept
    modes' fraction of the total singular-value mass is reported alongside.

    Returns ``(x0, k, info_kept, operator_applications, image)`` with k the
    kept modes and image = A x0 from the modes' products. No snapshots or
    all-zero snapshots give zero vectors with k = 0 and info 0.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if len(snapshots) == 0:
        return np.zeros(rhs.size), 0, 0.0, 0, np.zeros(rhs.size)
    x = np.column_stack(snapshots)
    dim = x.shape[0]
    if rhs.shape != (dim,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({dim},)")
    gram = x.T @ x
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    sigma = np.sqrt(np.clip(evals[order], 0.0, None))
    evecs = evecs[:, order]
    if sigma[0] == 0.0:
        return np.zeros(dim), 0, 0.0, 0, np.zeros(dim)
    k = int(np.count_nonzero(sigma / sigma[0] > eps_pod))
    basis = (x @ evecs[:, :k]) / sigma[:k]
    products = np.column_stack([np.asarray(operator(basis[:, j]), dtype=np.float64)
                                for j in range(k)])
    g = basis.T @ products
    w, aw, keep = _galerkin_basis(basis, products, 0.5 * (g + g.T))
    coeffs = w.T @ rhs
    info = float(sigma[keep].sum() / sigma.sum())
    return w @ coeffs, len(keep), info, k, aw @ coeffs


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
    *drop_tol*."""
    if config.kind == "previous":
        return PreviousSolutionStrategy(dim, operator)
    if config.kind == "cspe":
        return SubspaceCache(dim, operator,
                             dim if max_cols is None else max_cols, drop_tol)
    return PodStrategy(dim, operator, config.n_pod, config.eps_pod)
