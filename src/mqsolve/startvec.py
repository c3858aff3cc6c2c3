"""Start-vector generation for sequences of related linear solves.

A transient run solves the same singular operator against two slowly
varying right-hand-side families. A strategy builds the history of each
family when it is constructed and produces a start vector by Galerkin
projection onto a subspace built from that family's previous solutions:

* ``previous``: reuse the last solution (zero before the first) unchanged.
* ``cspe``: keep an orthonormal basis of past solutions; every accepted basis
  column costs exactly one fresh operator application, and all previously
  cached operator products and Galerkin entries are reused bit-identically
  (the cascade property). The start vector and its operator image both
  come from cached products, so a solve needs no operator application for
  its initial residual (``start_product``).
* ``pod``: keep a ring of the last ``n_pod`` raw solutions and rebuild a
  truncated orthogonal basis per solve via the method of snapshots
  (``pod_start_vector``), paying one operator application per retained
  mode each time.

Families never share state; mixing histories would poison the projections.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

__all__ = [
    "StrategyConfig",
    "RhsFamily",
    "SubspaceCache",
    "pod_start_vector",
    "StartVectorStrategy",
    "PreviousSolutionStrategy",
    "CspeStrategy",
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
        if self.n_pod < 1:
            raise ValueError("n_pod must be at least 1")
        if not (0.0 < self.eps_pod < 1.0):
            raise ValueError("eps_pod must lie in (0, 1)")


class RhsFamily(Enum):
    """The two right-hand-side families of the eliminated-block solves."""

    SOURCE_CURRENT = "source"
    COUPLING_FROM_PREVIOUS_STATE = "coupling_previous"

    # members are singletons compared by identity; Enum's own __hash__ is
    # a Python-level call on every dict lookup of a family
    __hash__ = object.__hash__


class _PivotFailure(Exception):
    def __init__(self, index: int):
        super().__init__(f"nonpositive pivot at column {index}")
        self.index = index


def _cholesky_lower(g: np.ndarray, rel_floor: float = 1e-12) -> np.ndarray:
    """Dense Cholesky of a small SPD matrix; raises _PivotFailure(j).

    The failing column index lets callers drop exactly the offending basis
    vector instead of guessing.
    """
    n = g.shape[0]
    low = np.zeros_like(g)
    for j in range(n):
        s = g[j, j] - low[j, :j] @ low[j, :j]
        if not np.isfinite(s) or s <= rel_floor * abs(g[j, j]) or s <= 0.0:
            raise _PivotFailure(j)
        low[j, j] = np.sqrt(s)
        if j + 1 < n:
            low[j + 1:, j] = (g[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _solve_spd(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    y = scipy.linalg.solve_triangular(low, rhs, lower=True)
    return scipy.linalg.solve_triangular(low.T, y, lower=False)


class SubspaceCache:
    """Orthonormal solution history with cached operator products.

    The operator is bound at construction: cached products are only valid
    against a fixed operator, so rebinding is deliberately impossible.
    Eviction is first-in-first-out once ``max_cols`` is reached.

    With the Galerkin matrix U^T A U = L L^T, ``project`` keeps
    W = U L^{-T} and A W = (A U) L^{-T}: the start vector is x0 = W c with
    c = W^T rhs, and its image A x0 = (A W) c (``start_product``) costs no
    operator application. W and A W are rebuilt only after the basis
    changed (an accepted insert, an eviction or a dropped column). Most
    inserts are dropped as solver noise, so most projections reuse them.
    """

    def __init__(self, dim: int, operator, max_cols: int,
                 drop_tol: float = 1e-10):
        if max_cols < 1:
            raise ValueError("max_cols must be at least 1")
        self.dim = int(dim)
        self.max_cols = int(max_cols)
        self.drop_tol = float(drop_tol)
        self._operator = operator
        self._basis = np.empty((self.dim, 0))
        self._products = np.empty((self.dim, 0))
        self._galerkin = np.empty((0, 0))
        # W and A W, None after a basis change
        self._w: np.ndarray | None = None
        self._aw: np.ndarray | None = None
        # A W and c of the last projection
        self._start: tuple[np.ndarray, np.ndarray] | None = None
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

    def drop_column(self, index: int) -> None:
        keep = [j for j in range(self.size) if j != index]
        self._basis = self._basis[:, keep]
        self._products = self._products[:, keep]
        self._galerkin = self._galerkin[np.ix_(keep, keep)]
        self._w = self._aw = None

    def project(self, rhs) -> np.ndarray:
        """Galerkin-optimal start vector U (U^T A U)^{-1} U^T rhs.

        It is W W^T rhs. An empty cache returns the zero vector. A singular
        Galerkin matrix drops the offending column and retries. The
        returned array is the caller's.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.dim,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.dim},)")
        while self._w is None:
            try:
                low = _cholesky_lower(self._galerkin)
            except _PivotFailure as bad:
                self.drop_column(bad.index)
                self.columns_dropped += 1
                continue
            # (U^T A U)^{-1} = L^{-T} L^{-1}; W and A W are stored
            # column-major, on which numpy's products with them run faster
            inv_t = scipy.linalg.solve_triangular(
                low, np.eye(self.size), lower=True).T
            self._w = np.asfortranarray(self._basis @ inv_t)
            self._aw = np.asfortranarray(self._products @ inv_t)
        # ndarray.dot runs the BLAS call of @ without the ufunc dispatch,
        # and projecting is every CSPE solve's cost
        coeffs = self._w.T.dot(rhs)
        self._start = (self._aw, coeffs)
        return self._w.dot(coeffs)

    def start_product(self) -> np.ndarray:
        """A x0 for the start vector x0 that ``project`` last returned.

        It is (A W) c from the cached products, with no operator
        application; it equals A x0 up to rounding.
        """
        if self._start is None:
            raise RuntimeError("start_product needs a projection first")
        aw, coeffs = self._start
        return aw.dot(coeffs)


def pod_start_vector(snapshots, rhs, operator, eps_pod: float
                     ) -> tuple[np.ndarray, int, float, int]:
    """Proper-orthogonal-decomposition start vector from raw snapshots.

    Builds the basis by the method of snapshots: eigendecomposition of the
    small Gram matrix X^T X of the *snapshots* (a sequence of vectors),
    singular values sigma_i = sqrt(eigenvalues), truncation keeping all
    modes with sigma_i / sigma_1 > eps_pod. The kept fraction of total
    singular-value mass is reported alongside.

    Returns ``(x0, k, info_kept, operator_applications)``. No snapshots or
    all-zero snapshots give a zero start vector with k = 0 and info 0.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if len(snapshots) == 0:
        return np.zeros(rhs.size), 0, 0.0, 0
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
        return np.zeros(dim), 0, 0.0, 0
    k = int(np.count_nonzero(sigma / sigma[0] > eps_pod))
    total = float(sigma.sum())
    basis = (x @ evecs[:, :k]) / sigma[:k]
    products = np.column_stack([np.asarray(operator(basis[:, j]), dtype=np.float64)
                                for j in range(k)])
    applications = k
    while k:
        g = basis[:, :k].T @ products[:, :k]
        g = 0.5 * (g + g.T)
        try:
            low = _cholesky_lower(g)
        except _PivotFailure:
            k -= 1
            continue
        coeff = _solve_spd(low, basis[:, :k].T @ rhs)
        info = float(sigma[:k].sum() / total)
        return basis[:, :k] @ coeff, k, info, applications
    return np.zeros(dim), 0, 0.0, applications


# -- per-family strategy objects -------------------------------------------


class StartVectorStrategy:
    """Produces start vectors per right-hand-side family and absorbs solutions.

    Subclasses define ``start_vector(family, rhs)``, the start of the next
    solve of a family, and ``observe(family, solution)``, which takes its
    converged solution. A subclass builds the history of every family in
    its constructor, not at the first solve.
    ``basis_size(family)`` is the size of a family's basis (for POD, the
    modes its latest projection kept) and ``basis_size()`` the largest
    over the families. ``start_product(family)`` is the operator image of
    the family's last start vector when the strategy knows it without an
    operator application, else None. ``maintenance_applies`` counts
    operator applications spent on history upkeep (outside any Krylov
    iteration), the quantity benchmarks charge to the start-vector method
    itself, and ``evictions(family)`` the basis columns a capped history
    dropped to make room. ``projections`` logs one ``(k, info)`` entry per
    truncated projection; only POD truncates.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.projections: list[tuple[int, float]] = []

    def start_product(self, family: RhsFamily) -> np.ndarray | None:
        return None

    def basis_size(self, family: RhsFamily | None = None) -> int:
        return 0

    def evictions(self, family: RhsFamily) -> int:
        return 0

    @property
    def maintenance_applies(self) -> int:
        return 0


class PreviousSolutionStrategy(StartVectorStrategy):
    """Start from the last converged solution of the same family."""

    kind = "previous"

    def __init__(self, dim: int):
        super().__init__(dim)
        self._last = {family: np.zeros(self.dim) for family in RhsFamily}

    def start_vector(self, family, rhs):
        return self._last[family].copy()

    def observe(self, family, solution):
        self._last[family] = np.asarray(solution, dtype=np.float64).copy()


class CspeStrategy(StartVectorStrategy):
    """Cascaded subspace projection with one cache per family."""

    kind = "cspe"

    def __init__(self, dim: int, operator, max_cols: int, drop_tol: float):
        super().__init__(dim)
        self._caches = {family: SubspaceCache(dim, operator, max_cols,
                                              drop_tol)
                        for family in RhsFamily}

    def cache(self, family: RhsFamily) -> SubspaceCache:
        return self._caches[family]

    def start_vector(self, family, rhs):
        return self._caches[family].project(rhs)

    def start_product(self, family):
        return self._caches[family].start_product()

    def observe(self, family, solution):
        self._caches[family].insert(solution)

    def basis_size(self, family=None):
        if family is not None:
            return self._caches[family].size
        return max(c.size for c in self._caches.values())

    def evictions(self, family):
        return self._caches[family].evictions

    @property
    def maintenance_applies(self) -> int:
        return sum(c.products_computed for c in self._caches.values())


class PodStrategy(StartVectorStrategy):
    """Snapshot POD projection, one ring of the last ``n_pod`` solutions per
    family, basis rebuilt per solve."""

    kind = "pod"

    def __init__(self, dim: int, operator, n_pod: int, eps_pod: float):
        super().__init__(dim)
        self._operator = operator
        self.eps_pod = float(eps_pod)
        self._snapshots = {family: deque(maxlen=int(n_pod))
                           for family in RhsFamily}
        # modes kept by each family's latest projection
        self._modes = {family: 0 for family in RhsFamily}
        self._applies = 0

    def start_vector(self, family, rhs):
        snapshots = self._snapshots[family]
        if not snapshots:
            return np.zeros(self.dim)
        x0, k, info, applies = pod_start_vector(snapshots, rhs,
                                                self._operator, self.eps_pod)
        self._applies += applies
        self._modes[family] = k
        self.projections.append((k, info))
        return x0

    def observe(self, family, solution):
        v = np.asarray(solution, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"snapshot has shape {v.shape}, "
                             f"expected ({self.dim},)")
        self._snapshots[family].append(v.copy())

    def basis_size(self, family=None):
        """Modes kept by the family's latest projection, or the largest
        such count over both families."""
        if family is not None:
            return self._modes[family]
        return max(self._modes.values())

    @property
    def maintenance_applies(self) -> int:
        return self._applies


def make_strategy(config: StrategyConfig, dim: int, operator=None,
                  max_cols: int | None = None,
                  drop_tol: float = 1e-10) -> StartVectorStrategy:
    """The strategy *config* names. CSPE keeps at most *max_cols* basis
    columns per family (None: *dim*, which no basis exceeds) and drops
    increments below *drop_tol*."""
    if config.kind == "previous":
        return PreviousSolutionStrategy(dim)
    if operator is None:
        raise ValueError(f"strategy {config.kind!r} needs the system operator")
    if config.kind == "cspe":
        return CspeStrategy(dim, operator,
                            dim if max_cols is None else max_cols, drop_tol)
    return PodStrategy(dim, operator, config.n_pod, config.eps_pod)
