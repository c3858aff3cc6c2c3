"""CSR container, products, and matrix exchange files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (CsrMatrix, NonFiniteError, as_vector, read_dense_vector,
                     read_matrix_market, spmv, spmv_transpose,
                     symmetric_check, write_dense_vector,
                     write_matrix_market)


@st.composite
def coo_triplets(draw):
    """Shape plus COO triplets with repeated positions and integer values."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    nnz = draw(st.integers(0, 30))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz,
                         max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz,
                         max_size=nnz))
    # integer values keep every sum exact whatever the summation order
    vals = draw(st.lists(st.integers(-1000, 1000), min_size=nnz,
                         max_size=nnz))
    return nrows, ncols, rows, cols, [float(v) for v in vals]


def test_from_coo_sums_duplicates_and_sorts_columns():
    rows = np.array([0, 0, 1, 0])
    cols = np.array([1, 0, 1, 1])
    vals = np.array([2.0, 5.0, 3.0, 4.0])
    a = CsrMatrix.from_coo(2, 2, rows, cols, vals)
    expected = np.array([[5.0, 6.0], [0.0, 3.0]])
    assert np.array_equal(a.to_dense(), expected)
    # columns inside each row come back ordered
    assert np.array_equal(a.col_idx, np.array([0, 1, 1]))


def test_spmv_hand_example():
    a = CsrMatrix.from_dense(np.array([[2.0, 0.0], [1.0, 3.0]]))
    assert np.array_equal(spmv(a, np.array([1.0, 1.0])), np.array([2.0, 4.0]))


def test_identity_spmv_is_identity(rng):
    x = rng.standard_normal(3)
    assert np.array_equal(spmv(CsrMatrix.identity(3), x), x)


def test_spmv_unit_vector_extracts_column(rng):
    dense = rng.standard_normal((5, 5))
    a = CsrMatrix.from_dense(dense)
    e2 = np.zeros(5)
    e2[2] = 1.0
    assert np.allclose(spmv(a, e2), dense[:, 2], rtol=0.0, atol=1e-14)


def test_spmv_matches_dense_product(rng):
    dense = rng.standard_normal((7, 4))
    dense[np.abs(dense) < 0.6] = 0.0
    a = CsrMatrix.from_dense(dense)
    x = rng.standard_normal(4)
    assert np.allclose(spmv(a, x), dense @ x, rtol=0.0, atol=1e-14)
    assert np.allclose(a @ x, dense @ x, rtol=0.0, atol=1e-14)


def test_spmv_linearity(rng):
    dense = rng.standard_normal((6, 6))
    a = CsrMatrix.from_dense(dense)
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    lhs = spmv(a, 2.0 * x + 3.0 * y)
    rhs = 2.0 * spmv(a, x) + 3.0 * spmv(a, y)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_spmv_transpose_hand_example():
    a = CsrMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    out = spmv_transpose(a, np.array([1.0, 0.0]))
    assert np.array_equal(out, np.array([0.0, 1.0]))


def test_spmv_transpose_matches_materialized_transpose(rng):
    dense = rng.standard_normal((6, 4))
    a = CsrMatrix.from_dense(dense)
    y = rng.standard_normal(6)
    assert np.allclose(spmv_transpose(a, y), dense.T @ y,
                       rtol=0.0, atol=1e-14)


def test_spmv_dimension_mismatch_raises(rng):
    a = CsrMatrix.from_dense(rng.standard_normal((3, 4)))
    with pytest.raises(ValueError):
        spmv(a, np.zeros(3))
    with pytest.raises(ValueError):
        spmv_transpose(a, np.zeros(4))


def test_symmetric_check_accepts_identity():
    assert symmetric_check(CsrMatrix.identity(4), tol=0.0)


def test_symmetric_check_rejects_asymmetric():
    a = CsrMatrix.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert not symmetric_check(a, tol=0.4)


def test_symmetric_check_non_square_raises():
    a = CsrMatrix.from_dense(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_check(a, tol=0.0)


def test_assembled_curl_curl_block_is_symmetric(builtin6):
    kn = builtin6.system.kn
    scale = float(np.abs(kn.values).max())
    assert symmetric_check(kn, tol=1e-12 * scale)


def test_matrix_market_roundtrip_general(rng, tmp_path):
    dense = rng.standard_normal((5, 3))
    dense[np.abs(dense) < 0.5] = 0.0
    a = CsrMatrix.from_dense(dense)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    back = read_matrix_market(path)
    assert back.shape == a.shape
    assert np.array_equal(back.to_dense(), a.to_dense())


def test_matrix_market_roundtrip_symmetric(rng, tmp_path, make_spd):
    dense = make_spd(rng, 6)
    path = tmp_path / "spd.mtx"
    write_matrix_market(path, CsrMatrix.from_dense(dense),
                        symmetry="symmetric")
    back = read_matrix_market(path)
    assert np.array_equal(back.to_dense(), dense)


def test_dense_vector_roundtrip(rng, tmp_path):
    x = rng.standard_normal(9)
    path = tmp_path / "x.mtx"
    write_dense_vector(path, x)
    assert np.array_equal(read_dense_vector(path), x)


def test_csr_construction_validates_structure():
    with pytest.raises(ValueError):
        CsrMatrix(nrows=2, ncols=2, row_ptr=np.array([0, 1]),
                  col_idx=np.array([0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        CsrMatrix(nrows=2, ncols=2, row_ptr=np.array([0, 1, 1]),
                  col_idx=np.array([5]), values=np.array([1.0]))


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector(np.zeros(3), length=4)
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.nan]))


def test_diagonal_helpers(rng):
    d = rng.uniform(1.0, 2.0, 5)
    a = CsrMatrix.from_diagonal(d)
    assert a.is_diagonal()
    assert np.array_equal(a.diagonal(), d)
    full = CsrMatrix.from_dense(rng.standard_normal((5, 5)))
    assert not full.is_diagonal()
    assert np.allclose(full.diagonal(), np.diag(full.to_dense()),
                       rtol=0.0, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(coo=coo_triplets())
def test_from_coo_matches_dense_accumulation(coo):
    nrows, ncols, rows, cols, vals = coo
    a = CsrMatrix.from_coo(nrows, ncols, rows, cols, vals)
    dense = np.zeros((nrows, ncols))
    np.add.at(dense, (np.array(rows, dtype=int), np.array(cols, dtype=int)),
              vals)
    assert np.array_equal(a.to_dense(), dense)
    # one stored entry per distinct position, also where duplicates cancel
    assert a.nnz == len(set(zip(rows, cols)))
    again = CsrMatrix.from_scipy(a.to_scipy())
    for name in ("row_ptr", "col_idx", "values"):
        assert np.array_equal(getattr(again, name), getattr(a, name))
    assert again.shape == a.shape


@settings(max_examples=40, deadline=None)
@given(coo=coo_triplets(), shift=st.integers(1, 3), bad=st.integers(0, 29),
       value=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_with_values_checks_length_and_finiteness(coo, shift, bad, value):
    a = CsrMatrix.from_coo(*coo)
    values = np.arange(1.0, a.nnz + 1.0)
    b = a.with_values(values)
    assert b.row_ptr is a.row_ptr and b.col_idx is a.col_idx
    expected = a.to_scipy().copy()
    expected.data = values
    assert np.array_equal(b.to_dense(), expected.toarray())
    assert not b.values.flags.writeable
    for length in (a.nnz + shift, a.nnz - shift):
        if length >= 0:
            with pytest.raises(ValueError):
                a.with_values(np.ones(length))
    if a.nnz:
        poisoned = np.ones(a.nnz)
        poisoned[bad % a.nnz] = value
        with pytest.raises(NonFiniteError):
            a.with_values(poisoned)
