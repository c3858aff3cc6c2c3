"""Compressed sparse row matrices and the input checks used across the library.

Vectors are plain 1-D float64 numpy arrays; :func:`as_vector` is the boundary
validator, and ``_check_count`` the one rule for the integer settings.
:class:`CsrMatrix` is the single canonical matrix format: builders accept
COO triplets or dense arrays and canonicalize (duplicates summed, column
indices sorted per row). SciPy supplies the Matrix Market codec behind
this surface; the public contract does not expose scipy types.

Every matrix-vector product (:func:`spmv`, :func:`spmv_transpose` and the
operators the solvers apply) runs :func:`_matvec`: scipy's compiled CSR
kernel ``scipy.sparse._sparsetools.csr_matvec`` called on the matrix's own
index and value arrays. A scipy matrix's ``@`` runs the same kernel behind
a few microseconds of Python dispatch per product: about 4 us of a 18 us
product with the 8-cell K_n (2-vCPU x86 virtual machine), and more than the
kernel itself on the small blocks of the conducting force. The kernel is
private scipy API, so tests check that every product stays bitwise equal to
``@``, on random patterns and on every block of the builtin model, and that
the time-step paths never reach ``@``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = [
    "CsrMatrix",
    "NonFiniteError",
    "as_vector",
    "spmv",
    "spmv_transpose",
    "symmetric_check",
    "read_matrix_market",
    "write_matrix_market",
    "read_dense_vector",
    "write_dense_vector",
]


class NonFiniteError(ValueError):
    """A vector or matrix holds NaN or infinite entries."""


def as_vector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate *x* as a finite 1-D float64 vector and return it.

    Raises ValueError on wrong dimensionality or wrong length, and
    NonFiniteError on non-finite entries.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if length is not None and v.size != length:
        raise ValueError(f"{name} has length {v.size}, expected {length}")
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError, naming *name* first, unless *value* is an integer
    of at least *least*; a bool or a float such as 2.0 is not one."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Immutable sparse matrix in compressed sparse row storage.

    Invariants enforced at construction: ``row_ptr`` is nondecreasing with
    ``row_ptr[0] == 0`` and ``row_ptr[-1] == nnz``; column indices are
    strictly increasing within each row (hence no duplicates) and within
    bounds; all values are finite. The index and value arrays are frozen
    (non-writeable) after construction.
    """

    nrows: int
    ncols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        row_ptr = np.ascontiguousarray(self.row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(self.col_idx, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if row_ptr.ndim != 1 or row_ptr.size != self.nrows + 1:
            raise ValueError("row_ptr must have length nrows + 1")
        if row_ptr[0] != 0:
            raise ValueError("row_ptr must start at 0")
        if col_idx.shape != values.shape or col_idx.ndim != 1:
            raise ValueError("col_idx and values must be 1-D and equally long")
        if row_ptr[-1] != col_idx.size:
            raise ValueError("row_ptr[-1] must equal the number of stored entries")
        counts = np.diff(row_ptr)
        if (counts < 0).any():
            raise ValueError("row_ptr must be nondecreasing")
        if col_idx.size:
            if col_idx.min() < 0 or col_idx.max() >= self.ncols:
                raise ValueError("column index out of range")
            rows = np.repeat(np.arange(self.nrows), counts)
            same_row = rows[1:] == rows[:-1]
            if not (np.diff(col_idx)[same_row] > 0).all():
                raise ValueError("column indices must be strictly increasing per row")
        if not np.isfinite(values).all():
            raise NonFiniteError("matrix values must be finite")
        for arr in (row_ptr, col_idx, values):
            arr.flags.writeable = False
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        object.__setattr__(self, "values", values)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals) -> "CsrMatrix":
        """Build from COO triplets; duplicates are summed, columns sorted."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("COO triplet arrays must be 1-D and equally long")
        if rows.size and (rows.min() < 0 or rows.max() >= nrows
                          or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("COO index out of range")
        m = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(nrows, ncols, m.indptr, m.indices, m.data)

    @classmethod
    def from_scipy(cls, m) -> "CsrMatrix":
        c = sp.csr_matrix(m)
        c.sum_duplicates()
        c.sort_indices()
        return cls(c.shape[0], c.shape[1], c.indptr, c.indices, c.data)

    @classmethod
    def from_dense(cls, arr) -> "CsrMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        return cls.from_scipy(sp.csr_matrix(arr))

    @classmethod
    def from_diagonal(cls, diag) -> "CsrMatrix":
        d = as_vector(diag, name="diagonal")
        n = d.size
        return cls(n, n, np.arange(n + 1), np.arange(n), d.copy())

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls.from_diagonal(np.ones(n))

    def with_values(self, values) -> "CsrMatrix":
        """This matrix's pattern with new *values* in stored order.

        The pattern was validated when this matrix was built, so only the
        length and finiteness of *values* are checked; the index arrays are
        shared, and so are the diagonal positions once :meth:`diagonal` has
        found them. Like the constructor, it freezes *values* when they are
        already a contiguous float64 array rather than copying them.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != self.col_idx.shape:
            raise ValueError(f"values have shape {values.shape}, expected "
                             f"({self.nnz},)")
        if not np.isfinite(values).all():
            raise NonFiniteError("matrix values must be finite")
        values.flags.writeable = False
        out = object.__new__(type(self))
        for name, value in (("nrows", self.nrows), ("ncols", self.ncols),
                            ("row_ptr", self.row_ptr),
                            ("col_idx", self.col_idx), ("values", values)):
            object.__setattr__(out, name, value)
        if "_diagonal_at" in self.__dict__:
            # the diagonal positions depend on the pattern alone
            object.__setattr__(out, "_diagonal_at", self._diagonal_at)
        return out

    # -- views and simple queries -----------------------------------------

    @cached_property
    def _scipy(self) -> sp.csr_matrix:
        # Shares the frozen arrays; scipy only reads them during matvec.
        return sp.csr_matrix((self.values, self.col_idx, self.row_ptr),
                             shape=(self.nrows, self.ncols))

    def to_scipy(self) -> sp.csr_matrix:
        return self._scipy

    @cached_property
    def _transpose(self) -> "CsrMatrix":
        # Built on first use and kept for spmv_transpose. A stable sort by
        # column keeps the entries of each new row in ascending column order.
        order = np.argsort(self.col_idx, kind="stable")
        row_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.col_idx, minlength=self.ncols))])
        return CsrMatrix(self.ncols, self.nrows, row_ptr,
                         self._entry_rows()[order], self.values[order])

    def _entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.nrows), np.diff(self.row_ptr))

    def to_dense(self) -> np.ndarray:
        return self._scipy.toarray()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @cached_property
    def _diagonal_at(self) -> tuple[np.ndarray, np.ndarray]:
        # the rows that store a diagonal entry and its position in values
        rows = self._entry_rows()
        at = np.flatnonzero(self.col_idx == rows)
        return rows[at], at

    def diagonal(self) -> np.ndarray:
        """Main diagonal of length min(nrows, ncols), zero where not stored.

        The positions of the diagonal entries are found once per pattern.
        """
        rows, at = self._diagonal_at
        out = np.zeros(min(self.nrows, self.ncols))
        out[rows] = self.values[at]
        return out

    def is_diagonal(self) -> bool:
        if self.nrows != self.ncols:
            return False
        if (np.diff(self.row_ptr) > 1).any():
            return False
        return bool((self.col_idx == self._entry_rows()).all())

    def __matmul__(self, x):
        return spmv(self, x)


def _matvec(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x by scipy's CSR kernel on A's own arrays.

    The kernel adds each row's products in stored order into a zeroed
    output, and takes an integer or strided *x* through a contiguous float64
    copy. Only the length of *x* is checked: the kernel does not bound its
    reads.
    """
    if x.shape != (a.ncols,):
        raise ValueError(f"operand has shape {x.shape}, "
                         f"expected ({a.ncols},)")
    y = np.zeros(a.nrows)
    _sparsetools.csr_matvec(a.nrows, a.ncols, a.row_ptr, a.col_idx, a.values,
                            x, y)
    return y


def spmv(a: CsrMatrix, x) -> np.ndarray:
    """Product y = A x with per-row sequential accumulation in stored order."""
    return _matvec(a, np.asarray(x, dtype=np.float64))


def spmv_transpose(a: CsrMatrix, x) -> np.ndarray:
    """Product y = A^T x through a CSR copy of the transpose.

    The copy is built on the first call and kept with the matrix, so it
    costs one more copy of the index and value arrays.
    """
    return _matvec(a._transpose, np.asarray(x, dtype=np.float64))


def symmetric_check(a: CsrMatrix, tol: float) -> bool:
    """True when max |A_ij - A_ji| over the stored pattern union is <= tol."""
    if a.nrows != a.ncols:
        raise ValueError("symmetry is only defined for square matrices")
    d = (a.to_scipy() - a.to_scipy().T).tocoo()
    gap = float(np.abs(d.data).max()) if d.nnz else 0.0
    return gap <= tol


# -- Matrix Market interchange --------------------------------------------


def write_matrix_market(path, a: CsrMatrix, symmetry: str = "general",
                        comment: str = "") -> None:
    """Write *a* in coordinate Matrix Market format.

    ``symmetry="symmetric"`` stores the lower triangle only; the caller is
    responsible for the matrix actually being symmetric.
    """
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    path = Path(path)
    if path.suffix != ".mtx":
        raise ValueError("matrix market files must use the .mtx suffix")
    scipy.io.mmwrite(str(path), a.to_scipy().tocoo(), comment=comment,
                     field="real", symmetry=symmetry)


def read_matrix_market(path) -> CsrMatrix:
    """Read a real Matrix Market file; symmetric storage expands to full."""
    m = scipy.io.mmread(str(path))
    if isinstance(m, np.ndarray):
        return CsrMatrix.from_dense(m)
    return CsrMatrix.from_scipy(m)


def write_dense_vector(path, v) -> None:
    """Write a vector in array Matrix Market format (one column)."""
    v = as_vector(v)
    path = Path(path)
    if path.suffix != ".mtx":
        raise ValueError("matrix market files must use the .mtx suffix")
    scipy.io.mmwrite(str(path), v.reshape(-1, 1), field="real")


def read_dense_vector(path) -> np.ndarray:
    m = scipy.io.mmread(str(path))
    if not isinstance(m, np.ndarray):
        m = m.toarray()
    if m.ndim != 2 or 1 not in m.shape:
        raise ValueError(f"{path} does not hold a single vector")
    return as_vector(m.ravel(), name=str(path))
