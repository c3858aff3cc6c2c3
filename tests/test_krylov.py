"""Preconditioned conjugate gradients, unpreconditioned and with Jacobi."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (CsrMatrix, IndefiniteOperatorError, JacobiPreconditioner,
                     PcgConfig, Preconditioner, pcg_solve)


def test_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(5)
    x, report = pcg_solve(CsrMatrix.identity(5), b)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(x, b, rtol=0.0, atol=1e-14)


def test_diagonal_system_exact():
    a = CsrMatrix.from_diagonal(np.array([1.0, 2.0, 3.0]))
    b = np.array([1.0, 2.0, 3.0])
    x, report = pcg_solve(a, b)
    assert report.converged
    assert np.allclose(x, np.ones(3), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", [Preconditioner.NONE, Preconditioner.JACOBI])
def test_random_spd_all_preconditioners(rng, make_spd, kind):
    dense = make_spd(rng, 30, lo=0.5, hi=50.0)
    a = CsrMatrix.from_dense(dense)
    b = rng.standard_normal(30)
    config = PcgConfig(rel_tol=1e-10, max_iter=200, preconditioner=kind)
    x, report = pcg_solve(a, b, config=config)
    assert report.converged
    true_rel = np.linalg.norm(dense @ x - b) / np.linalg.norm(b)
    assert true_rel <= 1e-8


def test_singular_consistent_system_matches_pseudoinverse():
    # path-graph Laplacian: singular, nullspace = constants
    dense = np.array([[1.0, -1.0, 0.0, 0.0],
                      [-1.0, 2.0, -1.0, 0.0],
                      [0.0, -1.0, 2.0, -1.0],
                      [0.0, 0.0, -1.0, 1.0]])
    b = np.array([1.0, -0.5, 0.25, -0.75])
    assert abs(b.sum()) < 1e-15
    config = PcgConfig(rel_tol=1e-12, max_iter=100,
                       preconditioner=Preconditioner.NONE)
    x, report = pcg_solve(CsrMatrix.from_dense(dense), b, x0=np.zeros(4),
                          config=config)
    assert report.converged
    expected = np.linalg.pinv(dense) @ b
    assert np.allclose(x, expected, rtol=0.0, atol=1e-8)


def test_exact_start_vector_short_circuits(counting_operator):
    dense = np.diag([2.0, 3.0])
    op = counting_operator(dense)
    b = np.array([4.0, 9.0])
    x0 = np.array([2.0, 3.0])
    x, report = pcg_solve(op, b, x0=x0,
                          config=PcgConfig(preconditioner=Preconditioner.NONE))
    assert report.iterations == 0
    assert report.converged
    # the start-vector residual check costs exactly one application
    assert op.count == 1
    assert np.array_equal(x, x0)


def test_zero_rhs_without_start_vector_is_free(counting_operator):
    op = counting_operator(np.eye(3))
    x, report = pcg_solve(op, np.zeros(3),
                          config=PcgConfig(preconditioner=Preconditioner.NONE))
    assert report.iterations == 0
    assert report.converged
    assert report.final_rel_residual == 0.0
    assert op.count == 0
    assert np.array_equal(x, np.zeros(3))


def test_iteration_count_equals_operator_applications(rng, make_spd,
                                                      counting_operator):
    dense = make_spd(rng, 12)
    op = counting_operator(dense)
    b = rng.standard_normal(12)
    x, report = pcg_solve(op, b, x0=rng.standard_normal(12),
                          config=PcgConfig(rel_tol=1e-10, max_iter=100,
                                           preconditioner=Preconditioner.NONE))
    assert report.converged
    # one application for the initial residual, one per iteration
    assert op.count == report.iterations + 1


def test_budget_exhaustion_reports_failure(rng, make_spd):
    dense = make_spd(rng, 40, lo=1e-3, hi=1e3)
    b = rng.standard_normal(40)
    config = PcgConfig(rel_tol=1e-14, max_iter=3,
                       preconditioner=Preconditioner.NONE)
    x, report = pcg_solve(CsrMatrix.from_dense(dense), b, config=config)
    assert not report.converged
    assert report.iterations == 3
    assert report.final_rel_residual > 1e-14


def test_indefinite_operator_raises():
    a = CsrMatrix.from_diagonal(np.array([1.0, -1.0]))
    with pytest.raises(IndefiniteOperatorError):
        pcg_solve(a, np.array([1.0, 1.0]),
                  config=PcgConfig(preconditioner=Preconditioner.NONE))


def test_jacobi_apply_hand_example():
    pre = JacobiPreconditioner(np.array([2.0, 4.0]))
    assert np.array_equal(pre.apply(np.array([2.0, 4.0])),
                          np.array([1.0, 1.0]))


def test_jacobi_identity_action_on_zero_diagonal():
    pre = JacobiPreconditioner(np.array([2.0, 0.0]))
    assert np.array_equal(pre.apply(np.array([4.0, 3.0])),
                          np.array([2.0, 3.0]))


def test_jacobi_rejects_negative_diagonal():
    with pytest.raises(ValueError):
        JacobiPreconditioner(np.array([1.0, -2.0]))


def test_error_norm_decreases_monotonically(rng, make_spd):
    dense = make_spd(rng, 15, lo=0.5, hi=20.0)
    a = CsrMatrix.from_dense(dense)
    b = rng.standard_normal(15)
    x_star = np.linalg.solve(dense, b)

    def a_norm_error(x):
        e = x - x_star
        return float(np.sqrt(e @ (dense @ e)))

    errors = []
    for k in range(1, 9):
        config = PcgConfig(rel_tol=1e-15, max_iter=k,
                           preconditioner=Preconditioner.NONE)
        xk, _ = pcg_solve(a, b, x0=np.zeros(15), config=config)
        errors.append(a_norm_error(xk))
    diffs = np.diff(errors)
    assert np.all(diffs < 1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        PcgConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        PcgConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        PcgConfig(max_iter=0)


def test_callable_operator_needs_explicit_preconditioner():
    config = PcgConfig(preconditioner=Preconditioner.JACOBI)
    with pytest.raises(ValueError):
        pcg_solve(lambda x: x, np.ones(2), config=config)
    # supplying the preconditioner object directly works
    x, report = pcg_solve(lambda x: 2.0 * x, np.array([2.0, 4.0]),
                          config=config,
                          preconditioner=JacobiPreconditioner(np.full(2, 2.0)))
    assert report.converged
    assert np.allclose(x, np.array([1.0, 2.0]), rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25),
       rank_deficit=st.integers(1, 3),
       kind=st.sampled_from([Preconditioner.NONE, Preconditioner.JACOBI]))
def test_consistent_singular_systems_converge(seed, n, rank_deficit, kind):
    rng = np.random.default_rng(seed)
    rank = max(n - rank_deficit, 1)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    dense = (basis * rng.uniform(1.0, 100.0, rank)) @ basis.T
    dense = 0.5 * (dense + dense.T)
    # a right-hand side in the range of the matrix
    b = dense @ rng.standard_normal(n)
    config = PcgConfig(rel_tol=1e-10, max_iter=20 * n, preconditioner=kind)
    x, report = pcg_solve(CsrMatrix.from_dense(dense), b, config=config)
    assert report.converged
    assert np.linalg.norm(dense @ x - b) <= 1e-8 * np.linalg.norm(b)
