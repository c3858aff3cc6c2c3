"""Start-vector generation for sequences of related linear solves.

A transient run solves the same singular operator against three slowly
varying right-hand-side families. Each family keeps its own history and
produces a start vector by Galerkin projection onto a subspace built from its
previous solutions:

* ``previous``: reuse the last solution unchanged.
* ``cspe``: keep an orthonormal basis of past solutions; every accepted basis
  column costs exactly one fresh operator application, and all previously
  cached operator products and Galerkin entries are reused bit-identically
  (the cascade property).
* ``pod``: keep a ring buffer of raw snapshots and rebuild a truncated
  orthogonal basis per solve via the method of snapshots (eigendecomposition
  of the small Gram matrix), paying one operator application per retained
  mode each time.

Families never share state; mixing histories would poison the projections.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

import numpy as np
import scipy.linalg

__all__ = [
    "RhsFamily",
    "SubspaceCache",
    "SnapshotBuffer",
    "pod_start_vector",
    "StartVectorStrategy",
    "PreviousSolutionStrategy",
    "CspeStrategy",
    "PodStrategy",
    "make_strategy",
]


class RhsFamily(Enum):
    """The three right-hand-side families of the eliminated-block solves."""

    SOURCE_CURRENT = "source"
    COUPLING_FROM_CURRENT_STATE = "coupling_current"
    COUPLING_FROM_PREVIOUS_STATE = "coupling_previous"


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

    The inverse Cholesky factor of the Galerkin matrix is kept between
    projections and rebuilt only after the basis changed (an accepted insert,
    an eviction or a dropped column). Most inserts are dropped as solver
    noise, so most projections reuse it.
    """

    def __init__(self, dim: int, operator, max_cols: int = 20,
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
        self._inv_factor: np.ndarray | None = None
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
        orig = np.linalg.norm(v)
        if orig == 0.0 or not np.isfinite(orig):
            self.columns_dropped += 1
            return False
        # Two Gram-Schmidt sweeps; a sweep never lengthens the vector, so
        # one that falls below the drop threshold after the first is
        # dropped without the second.
        w = v
        for _ in range(2):
            if self.size:
                w = w - self._basis @ (self._basis.T @ w)
            nw = np.linalg.norm(w)
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
        self._inv_factor = None
        self.columns_accepted += 1
        return True

    def drop_column(self, index: int) -> None:
        keep = [j for j in range(self.size) if j != index]
        self._basis = self._basis[:, keep]
        self._products = self._products[:, keep]
        self._galerkin = self._galerkin[np.ix_(keep, keep)]
        self._inv_factor = None

    def project(self, rhs) -> np.ndarray:
        """Galerkin-optimal start vector U (U^T A U)^{-1} U^T rhs.

        An empty cache returns the zero vector. A singular Galerkin matrix
        drops the offending column and retries.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.dim,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.dim},)")
        while self.size and self._inv_factor is None:
            try:
                low = _cholesky_lower(self._galerkin)
            except _PivotFailure as bad:
                self.drop_column(bad.index)
                self.columns_dropped += 1
                continue
            self._inv_factor = scipy.linalg.solve_triangular(
                low, np.eye(self.size), lower=True)
        if not self.size:
            return np.zeros(self.dim)
        # (U^T A U)^{-1} = L^{-T} L^{-1}
        inv = self._inv_factor
        return self._basis @ (inv.T @ (inv @ (self._basis.T @ rhs)))


class SnapshotBuffer:
    """Fixed-capacity ring buffer of raw solution snapshots."""

    def __init__(self, dim: int, n_pod: int = 10, eps_pod: float = 1e-4):
        if n_pod < 1:
            raise ValueError("n_pod must be at least 1")
        if not (0.0 < eps_pod < 1.0):
            raise ValueError("eps_pod must lie in (0, 1)")
        self.dim = int(dim)
        self.n_pod = int(n_pod)
        self.eps_pod = float(eps_pod)
        self._snapshots: deque[np.ndarray] = deque(maxlen=n_pod)

    def __len__(self) -> int:
        return len(self._snapshots)

    def push(self, solution) -> None:
        v = np.asarray(solution, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"snapshot has shape {v.shape}, expected ({self.dim},)")
        self._snapshots.append(v.copy())

    def matrix(self) -> np.ndarray:
        if not self._snapshots:
            return np.empty((self.dim, 0))
        return np.column_stack(list(self._snapshots))


def pod_start_vector(buffer: SnapshotBuffer, rhs, operator
                     ) -> tuple[np.ndarray, int, float, int]:
    """Proper-orthogonal-decomposition start vector from raw snapshots.

    Builds the basis by the method of snapshots: eigendecomposition of the
    small Gram matrix X^T X, singular values sigma_i = sqrt(eigenvalues),
    truncation keeping all modes with sigma_i / sigma_1 > eps_pod. The kept
    fraction of total singular-value mass is reported alongside.

    Returns ``(x0, k, info_kept, operator_applications)``. An empty buffer or
    all-zero snapshots give a zero start vector with k = 0 and info 0.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (buffer.dim,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({buffer.dim},)")
    x = buffer.matrix()
    if x.shape[1] == 0:
        return np.zeros(buffer.dim), 0, 0.0, 0
    gram = x.T @ x
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    sigma = np.sqrt(np.clip(evals[order], 0.0, None))
    evecs = evecs[:, order]
    if sigma[0] == 0.0:
        return np.zeros(buffer.dim), 0, 0.0, 0
    k = int(np.count_nonzero(sigma / sigma[0] > buffer.eps_pod))
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
    return np.zeros(buffer.dim), 0, 0.0, applications


# -- per-family strategy objects -------------------------------------------


class StartVectorStrategy:
    """Produces start vectors per right-hand-side family and absorbs solutions.

    Subclasses define ``start_vector(family, rhs)``, the start of the next
    solve of a family, and ``observe(family, solution)``, which takes its
    converged solution. ``maintenance_applies`` counts operator applications
    spent on history upkeep (outside any Krylov iteration), the quantity
    benchmarks charge to the start-vector method itself. ``projections``
    logs one ``(k, info)`` entry per truncated projection; only POD
    truncates.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.projections: list[tuple[int, float]] = []

    def basis_size(self, family: RhsFamily | None = None) -> int:
        return 0

    @property
    def maintenance_applies(self) -> int:
        return 0


class PreviousSolutionStrategy(StartVectorStrategy):
    """Start from the last converged solution of the same family."""

    kind = "previous"

    def __init__(self, dim: int):
        super().__init__(dim)
        self._last: dict[RhsFamily, np.ndarray] = {}

    def start_vector(self, family, rhs):
        last = self._last.get(family)
        return np.zeros(self.dim) if last is None else last.copy()

    def observe(self, family, solution):
        self._last[family] = np.asarray(solution, dtype=np.float64).copy()


class CspeStrategy(StartVectorStrategy):
    """Cascaded subspace projection with one cache per family."""

    kind = "cspe"

    def __init__(self, dim: int, operator, max_cols: int = 20,
                 drop_tol: float = 1e-10):
        super().__init__(dim)
        self._operator = operator
        self._caches: dict[RhsFamily, SubspaceCache] = {}
        self.max_cols = max_cols
        self.drop_tol = drop_tol

    def cache(self, family: RhsFamily) -> SubspaceCache:
        if family not in self._caches:
            self._caches[family] = SubspaceCache(
                self.dim, self._operator, self.max_cols, self.drop_tol)
        return self._caches[family]

    def start_vector(self, family, rhs):
        return self.cache(family).project(rhs)

    def observe(self, family, solution):
        self.cache(family).insert(solution)

    def basis_size(self, family=None):
        if family is not None:
            return self.cache(family).size
        return max((c.size for c in self._caches.values()), default=0)

    @property
    def maintenance_applies(self) -> int:
        return sum(c.products_computed for c in self._caches.values())


class PodStrategy(StartVectorStrategy):
    """Snapshot POD projection, one buffer per family, basis rebuilt per solve."""

    kind = "pod"

    def __init__(self, dim: int, operator, n_pod: int = 10,
                 eps_pod: float = 1e-4):
        super().__init__(dim)
        self._operator = operator
        self.n_pod = n_pod
        self.eps_pod = eps_pod
        self._buffers: dict[RhsFamily, SnapshotBuffer] = {}
        self._applies = 0

    def buffer(self, family: RhsFamily) -> SnapshotBuffer:
        if family not in self._buffers:
            self._buffers[family] = SnapshotBuffer(self.dim, self.n_pod,
                                                   self.eps_pod)
        return self._buffers[family]

    def start_vector(self, family, rhs):
        buf = self.buffer(family)
        if len(buf) == 0:
            return np.zeros(self.dim)
        x0, k, info, applies = pod_start_vector(buf, rhs, self._operator)
        self._applies += applies
        self.projections.append((k, info))
        return x0

    def observe(self, family, solution):
        self.buffer(family).push(solution)

    def basis_size(self, family=None):
        """Modes kept by the latest projection."""
        return self.projections[-1][0] if self.projections else 0

    @property
    def maintenance_applies(self) -> int:
        return self._applies


def make_strategy(kind: str, dim: int, operator=None, *, max_cols: int = 20,
                  n_pod: int = 10, eps_pod: float = 1e-4,
                  drop_tol: float = 1e-10) -> StartVectorStrategy:
    """Build a strategy by name: ``previous``, ``cspe`` or ``pod``."""
    kind = str(kind).lower()
    if kind == "previous":
        return PreviousSolutionStrategy(dim)
    if operator is None:
        raise ValueError(f"strategy {kind!r} needs the system operator")
    if kind == "cspe":
        return CspeStrategy(dim, operator, max_cols=max_cols, drop_tol=drop_tol)
    if kind == "pod":
        return PodStrategy(dim, operator, n_pod=n_pod, eps_pod=eps_pod)
    raise ValueError(f"unknown start-vector strategy {kind!r}")
