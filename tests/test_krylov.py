"""Preconditioned conjugate gradients, unpreconditioned and with Jacobi."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (CsrMatrix, InconsistentRhsError, IndefiniteOperatorError,
                     JacobiPreconditioner, NonFiniteError, PcgConfig,
                     build_preconditioner, pcg_solve)
from mqsolve.krylov import _stopping_target, _vector


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


# plain CG, or the Jacobi preconditioner every solver caller passes
PRECONDITIONERS = pytest.mark.parametrize(
    "build", [lambda a: None, build_preconditioner], ids=["none", "jacobi"])


@PRECONDITIONERS
def test_random_spd_all_preconditioners(rng, make_spd, build):
    dense = make_spd(rng, 30, lo=0.5, hi=50.0)
    a = CsrMatrix.from_dense(dense)
    b = rng.standard_normal(30)
    config = PcgConfig(rel_tol=1e-10, max_iter=200)
    x, report = pcg_solve(a, b, config=config, preconditioner=build(a))
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
    config = PcgConfig(rel_tol=1e-12, max_iter=100)
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
                          config=PcgConfig())
    assert report.iterations == 0
    assert report.converged
    # the start-vector residual check costs exactly one application
    assert op.count == 1
    assert np.array_equal(x, x0)


def test_zero_rhs_without_start_vector_is_free(counting_operator):
    op = counting_operator(np.eye(3))
    x, report = pcg_solve(op, np.zeros(3),
                          config=PcgConfig())
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
                          config=PcgConfig(rel_tol=1e-10, max_iter=100))
    assert report.converged
    # one application for the initial residual, one per iteration
    assert op.count == report.iterations + 1


@PRECONDITIONERS
def test_rounding_level_inconsistency_is_dropped_and_more_is_named(rng, build):
    # path-graph Laplacian: singular, nullspace = constants
    n = 30
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    dense[0, 0] = dense[-1, -1] = 1.0
    a = CsrMatrix.from_dense(dense)
    b = dense @ rng.standard_normal(n)
    b_norm = np.linalg.norm(b)
    constant = np.full(n, 1.0 / math.sqrt(n))
    config = PcgConfig(rel_tol=1e-12, max_iter=500)
    preconditioner = build(a)
    # a nullspace component above rel_tol, of the size rounding leaves in
    # a right-hand side formed with cancellation: CG solves the consistent
    # part, up to a constant
    x, report = pcg_solve(a, b + 1e-10 * b_norm * constant, config=config,
                          preconditioner=preconditioner)
    assert report.converged
    assert np.linalg.norm(dense @ x - b) <= 1e-12 * b_norm
    expected = np.linalg.pinv(dense) @ b
    assert np.allclose(x - x.mean(), expected, rtol=0.0, atol=1e-10)
    with pytest.raises(InconsistentRhsError,
                       match="inconsistent right-hand side: a nullspace "
                             "component of 1.000e-06 "):
        pcg_solve(a, b + 1e-6 * b_norm * constant, config=config,
                  preconditioner=preconditioner)


def test_budget_exhaustion_reports_failure(rng, make_spd):
    dense = make_spd(rng, 40, lo=1e-3, hi=1e3)
    b = rng.standard_normal(40)
    config = PcgConfig(rel_tol=1e-14, max_iter=3)
    x, report = pcg_solve(CsrMatrix.from_dense(dense), b, config=config)
    assert not report.converged
    assert report.iterations == 3
    assert report.final_rel_residual > 1e-14


def test_indefinite_operator_raises():
    a = CsrMatrix.from_diagonal(np.array([1.0, -1.0]))
    with pytest.raises(IndefiniteOperatorError) as err:
        pcg_solve(a, np.array([1.0, 1.0]),
                  config=PcgConfig())
    # an indefinite operator is not taken for an inconsistent rhs
    assert type(err.value) is IndefiniteOperatorError


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
        config = PcgConfig(rel_tol=1e-15, max_iter=k)
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


def test_the_smallest_rel_tol_stops_at_the_absolute_target_alone(
        rng, make_spd):
    config = PcgConfig(rel_tol=1e-3, abs_tol=1e-2, max_iter=300)
    assert _stopping_target(config, 1.0) == 1e-2
    assert _stopping_target(config, 1e3) == 1.0
    # the configuration a cached-residual solve hands to pcg_solve
    absolute = dataclasses.replace(config, rel_tol=math.ulp(0.0),
                                   abs_tol=1e-7)
    for b_norm in (0.0, 1e-3, 1.0, 1e12):
        assert _stopping_target(absolute, b_norm) == 1e-7
    a = CsrMatrix.from_dense(make_spd(rng, 30, lo=0.5, hi=50.0))
    jacobi = build_preconditioner(a)
    b = 1e3 * rng.standard_normal(30)
    x, report = pcg_solve(a, b, config=absolute, preconditioner=jacobi)
    assert report.converged
    assert report.final_rel_residual * np.linalg.norm(b) <= 1e-7
    # the config's own rule, max(1e-3 * ||b||, 1e-2), stops earlier
    _, relative = pcg_solve(a, b, config=config, preconditioner=jacobi)
    assert relative.iterations < report.iterations


def test_callable_operator_needs_explicit_preconditioner(rng, make_spd):
    # a solve is preconditioned only by a preconditioner passed to it:
    # without one, a matrix and a callable operator both take plain CG
    dense = make_spd(rng, 20, lo=0.5, hi=80.0)
    a = CsrMatrix.from_dense(dense)
    b = rng.standard_normal(20)
    config = PcgConfig(rel_tol=1e-10)
    plain, plain_report = pcg_solve(a, b, config=config)
    x, report = pcg_solve(lambda v: a @ v, b, config=config)
    assert report == plain_report
    assert np.array_equal(x, plain)
    # supplying the preconditioner object directly works
    x, report = pcg_solve(lambda x: 2.0 * x, np.array([2.0, 4.0]),
                          config=config,
                          preconditioner=JacobiPreconditioner(np.full(2, 2.0)))
    assert report.converged
    assert np.allclose(x, np.array([1.0, 2.0]), rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25),
       rank_deficit=st.integers(1, 3),
       jacobi=st.booleans())
def test_consistent_singular_systems_converge(seed, n, rank_deficit, jacobi):
    rng = np.random.default_rng(seed)
    rank = max(n - rank_deficit, 1)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    dense = (basis * rng.uniform(1.0, 100.0, rank)) @ basis.T
    dense = 0.5 * (dense + dense.T)
    # a right-hand side in the range of the matrix
    b = dense @ rng.standard_normal(n)
    a = CsrMatrix.from_dense(dense)
    config = PcgConfig(rel_tol=1e-10, max_iter=20 * n)
    x, report = pcg_solve(a, b, config=config, preconditioner=(
        build_preconditioner(a) if jacobi else None))
    assert report.converged
    assert np.linalg.norm(dense @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_rectangular_matrix_operator_is_rejected():
    with pytest.raises(ValueError, match="square"):
        pcg_solve(CsrMatrix.from_dense(np.ones((2, 3))), np.ones(2))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-160.0, 160.0))
def test_norm_by_dot_product_equals_numpy_norm(n, seed, log_scale):
    # pcg_solve and SubspaceCache.insert take 2-norms as sqrt(v @ v); the
    # traces keep their bits only while np.linalg.norm computes the same,
    # overflow and underflow included
    v = np.random.default_rng(seed).standard_normal(n) * 10.0 ** log_scale
    with np.errstate(over="ignore", under="ignore"):
        assert math.sqrt(v @ v) == float(np.linalg.norm(v))


def textbook_pcg(a, b, x0, config, preconditioner):
    """The out-of-place PCG recurrence that pcg_solve must reproduce bitwise."""
    b_norm = math.sqrt(b @ b)
    target = max(config.rel_tol * b_norm, config.abs_tol)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b.copy() if x0 is None else b - a @ x
    r_norm = math.sqrt(r @ r)
    rel = r_norm / b_norm if b_norm > 0.0 else (0.0 if r_norm == 0.0 else np.inf)
    if r_norm <= target:
        return x, 0, rel
    z = preconditioner.apply(r) if preconditioner is not None else r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, config.max_iter + 1):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        r_norm = math.sqrt(r @ r)
        if r_norm <= target:
            return x, it, r_norm / b_norm
        z = preconditioner.apply(r) if preconditioner is not None else r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, config.max_iter, r_norm / b_norm


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
       rank_deficit=st.integers(0, 3), jacobi=st.booleans(),
       start=st.booleans(), max_iter=st.integers(1, 60))
def test_in_place_recurrence_equals_the_textbook_one(seed, n, rank_deficit,
                                                     jacobi, start, max_iter):
    rng = np.random.default_rng(seed)
    rank = max(n - rank_deficit, 1)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    dense = (basis * rng.uniform(1.0, 100.0, rank)) @ basis.T
    a = CsrMatrix.from_dense(0.5 * (dense + dense.T))
    # consistent: in the range of a singular matrix too
    b = a @ rng.standard_normal(n)
    x0 = rng.standard_normal(n) if start else None
    preconditioner = (JacobiPreconditioner(a.diagonal()) if jacobi
                      else None)
    config = PcgConfig(rel_tol=1e-10, max_iter=max_iter)
    b_before = b.copy()
    x0_before = None if x0 is None else x0.copy()

    x, report = pcg_solve(a, b, x0=x0, config=config,
                          preconditioner=preconditioner)
    expected, iterations, rel = textbook_pcg(a, b, x0, config,
                                             preconditioner)
    assert np.array_equal(x, expected)
    assert report.iterations == iterations
    assert report.final_rel_residual == rel
    assert np.array_equal(b, b_before)
    if x0 is not None:
        assert np.array_equal(x0, x0_before)
        assert x is not x0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_and_start_vector_are_named(bad):
    a = CsrMatrix.identity(3)
    poisoned = np.array([1.0, bad, 2.0])
    with pytest.raises(NonFiniteError, match="rhs"):
        pcg_solve(a, poisoned)
    with pytest.raises(NonFiniteError, match="start vector"):
        pcg_solve(a, np.ones(3), x0=poisoned)


def test_finite_vectors_whose_sum_of_squares_overflows_pass():
    # b @ b overflows to inf although every entry is finite: the entries
    # are checked and pass, and the solve runs on b scaled by a power of
    # two, so its target is finite and the zero start does not meet it
    a = CsrMatrix.identity(3)
    big = np.full(3, 1e200)
    x, report = pcg_solve(a, big)
    assert report == (1, 0.0, True)
    assert np.array_equal(x, big)
    # an exact start vector of the same size returns as a copy
    x, report = pcg_solve(a, big, x0=big)
    assert report.iterations == 0
    assert np.array_equal(x, big)
    assert x is not big


def test_a_huge_rhs_is_solved_as_its_power_of_two_scaling(builtin6):
    # CG is exactly equivariant under scaling by a power of two, so the
    # solve of 2^532 b, whose sum of squares overflows, is the solve of b
    # scaled back, bit for bit, with no overflow warning
    kn = builtin6.system.kn
    b = builtin6.system.source.pattern
    precond = build_preconditioner(kn)
    x, report = pcg_solve(kn, b, preconditioner=precond)
    huge = np.ldexp(b, 532)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(_vector(huge, None, "rhs")[1])
        x_huge, report_huge = pcg_solve(kn, huge, preconditioner=precond)
    assert report.converged and report.iterations > 0
    assert report_huge == report
    assert np.array_equal(x_huge, np.ldexp(x, 532))


def test_an_inconsistency_of_a_huge_rhs_keeps_its_size(make_linear_system):
    system, blocks = make_linear_system(np.random.default_rng(3), n_c=3,
                                        n_n=8, singular=True)
    b = system.source(0.1)
    b = b + 1e-3 * np.linalg.norm(b) * blocks["nullvec"]
    errors = []
    for scale in (0, 600):
        with pytest.raises(InconsistentRhsError) as failure:
            pcg_solve(system.kn, np.ldexp(b, scale))
        errors.append(failure.value)
    # the component is the huge rhs's own, the message relative to it
    assert errors[1].component == math.ldexp(errors[0].component, 600)
    assert str(errors[1]) == str(errors[0])


def test_a_finite_vector_whose_sum_of_squares_overflows_draws_no_warning():
    # the sum of squares is taken with numpy's overflow warning off, and
    # the entries are tested because it is not finite; a non-finite entry
    # still raises
    big = np.full(5, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, squares = _vector(big, 5, "rhs")
        assert v is big and squares == math.inf
        with pytest.raises(NonFiniteError, match="rhs"):
            _vector(np.array([1e200, np.inf]), 2, "rhs")


def test_rhs_and_start_vector_shapes_are_checked():
    a = CsrMatrix.identity(3)
    with pytest.raises(ValueError, match="rhs has length 2, expected 3"):
        pcg_solve(a, np.ones(2))
    with pytest.raises(ValueError, match="rhs must be one-dimensional"):
        pcg_solve(lambda x: x, np.ones((3, 1)))
    with pytest.raises(ValueError, match="start vector has length 2"):
        pcg_solve(a, np.ones(3), x0=np.ones(2))


def test_a_preconditioner_is_used_only_through_apply(rng, make_spd):
    # perfbench traces a run by handing pcg_solve a namespace that holds
    # nothing but the preconditioner's apply
    dense = make_spd(rng, 20, lo=0.5, hi=80.0)
    a = CsrMatrix.from_dense(dense)
    b = rng.standard_normal(20)
    x0 = rng.standard_normal(20)
    config = PcgConfig(rel_tol=1e-10)
    jacobi = JacobiPreconditioner(a.diagonal())
    expected, expected_report = pcg_solve(a, b, x0=x0, config=config,
                                          preconditioner=jacobi)
    x, report = pcg_solve(lambda v: a @ v, b, x0=x0, config=config,
                          preconditioner=SimpleNamespace(apply=jacobi.apply))
    assert report.iterations > 1
    assert report == expected_report
    assert np.array_equal(x, expected)
