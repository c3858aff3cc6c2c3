"""Subspace recycling: cached-subspace projection and snapshot POD."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (ExplicitConfig, PodStrategy, PreviousSolutionStrategy,
                     RhsFamily, SchurOperator, StartVectorStrategy,
                     StrategyConfig, SubspaceCache, make_strategy,
                     pod_start_vector, run_explicit, schur)

SRC = RhsFamily.SOURCE_CURRENT
CPL_PREV = RhsFamily.COUPLING_FROM_PREVIOUS_STATE


def test_cache_counts_one_product_per_accepted_column(rng, make_spd,
                                                      counting_operator):
    dense = make_spd(rng, 8)
    op = counting_operator(dense)
    cache = SubspaceCache(8, op, 20)
    assert cache.insert(rng.standard_normal(8))
    assert cache.insert(rng.standard_normal(8))
    v = rng.standard_normal(8)
    assert cache.insert(v)
    assert not cache.insert(v)  # dependent, dropped before any product
    assert cache.size == 3
    assert cache.products_computed == 3
    assert op.count == 3
    assert cache.size + cache.evictions == 3
    assert cache.columns_dropped == 1


def test_cache_products_and_galerkin_match_dense(rng, make_spd):
    dense = make_spd(rng, 9)
    cache = SubspaceCache(9, dense.__matmul__, 20)
    for _ in range(4):
        cache.insert(rng.standard_normal(9))
    w = cache.basis
    assert w.shape == (9, 4)
    assert np.allclose(cache.cached_products, dense @ w, rtol=0.0, atol=1e-12)
    # the basis is K_n-orthonormal: its Galerkin matrix is the identity
    assert np.allclose(w.T @ dense @ w, np.eye(4), rtol=0.0, atol=1e-12)


def test_cache_reuses_old_products_bit_for_bit(rng, make_spd):
    dense = make_spd(rng, 7)
    cache = SubspaceCache(7, dense.__matmul__, 20)
    cache.insert(rng.standard_normal(7))
    cache.insert(rng.standard_normal(7))
    before = cache.cached_products[:, :2].copy()
    cache.insert(rng.standard_normal(7))
    assert np.array_equal(cache.cached_products[:, :2], before)


def test_cache_fifo_eviction(rng, make_spd):
    dense = make_spd(rng, 4)
    cache = SubspaceCache(4, dense.__matmul__, 3)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        assert cache.insert(e)
    assert cache.size == 3
    assert cache.evictions == 1
    assert cache.size + cache.evictions == 4
    # the oldest column (along e_0) left the basis, and the kept columns
    # are K_n-orthogonal to it
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(cache.cached_products.T @ e0) < 1e-10


def test_project_matches_dense_galerkin_solution(rng, make_spd):
    dense = make_spd(rng, 10)
    cache = SubspaceCache(10, dense.__matmul__, 20)
    for _ in range(3):
        cache.insert(rng.standard_normal(10))
    rhs = rng.standard_normal(10)
    x0, _ = cache.start_vector(rhs)
    u = cache.basis
    coeffs = np.linalg.solve(u.T @ dense @ u, u.T @ rhs)
    assert np.allclose(x0, u @ coeffs, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("n, k", [(10, 3), (138, 1), (1038, 6), (1038, 20)])
def test_projection_products_are_bitwise_those_of_matmul(rng, n, k):
    # start_vector multiplies through ndarray.dot, which costs less
    # dispatch than @; the traces hold only while both run the same BLAS
    # products
    d = rng.uniform(1.0, 2.0, n)
    cache = SubspaceCache(n, lambda x: d * x, 20)
    for _ in range(k):
        cache.insert(rng.standard_normal(n))
    assert cache.size == k
    rhs = rng.standard_normal(n)
    x0, image = cache.start_vector(rhs)
    w, aw = cache.projection
    coeffs = w.T @ rhs
    assert np.array_equal(x0, w @ coeffs)
    assert np.array_equal(image, aw @ coeffs)


def test_projection_minimizes_energy_error_over_subspace(rng, make_spd):
    dense = make_spd(rng, 8)
    cache = SubspaceCache(8, dense.__matmul__, 20)
    cache.insert(rng.standard_normal(8))
    cache.insert(rng.standard_normal(8))
    rhs = rng.standard_normal(8)
    x0, _ = cache.start_vector(rhs)
    x_star = np.linalg.solve(dense, rhs)

    def energy_err(x):
        e = x - x_star
        return float(e @ (dense @ e))

    best = energy_err(x0)
    u = cache.basis
    for _ in range(50):
        trial = x0 + u @ rng.standard_normal(2) * 1e-3
        assert energy_err(trial) >= best - 1e-12


def test_projection_exact_when_solution_in_subspace(rng, make_spd):
    dense = make_spd(rng, 6)
    x_star = rng.standard_normal(6)
    cache = SubspaceCache(6, dense.__matmul__, 20)
    cache.insert(x_star)
    x0, _ = cache.start_vector(dense @ x_star)
    assert np.allclose(x0, x_star, rtol=0.0, atol=1e-8)


def test_project_edge_cases(rng, make_spd):
    dense = make_spd(rng, 5)
    cache = SubspaceCache(5, dense.__matmul__, 20)
    for vector in cache.start_vector(rng.standard_normal(5)):
        assert np.array_equal(vector, np.zeros(5))
    v = rng.standard_normal(5)
    cache.insert(v)
    # rhs orthogonal to the basis projects to zero
    u = cache.basis[:, 0]
    u = u / np.linalg.norm(u)
    rhs = rng.standard_normal(5)
    rhs -= u * (u @ rhs)
    assert np.linalg.norm(cache.start_vector(rhs)[0]) <= 1e-10
    with pytest.raises(ValueError):
        cache.start_vector(np.zeros(4))
    with pytest.raises(ValueError):
        cache.insert(np.zeros(6))


def test_project_drops_the_column_whose_pivot_fails():
    # the third direction is in the operator's nullspace
    dense = np.diag([1.0, 2.0, 0.0])
    cache = SubspaceCache(3, dense.__matmul__, 20)
    assert cache.insert(np.array([1.0, 0.0, 0.0]))
    # refused at its insert, after the one product that shows its pivot
    assert not cache.insert(np.array([0.0, 0.0, 1.0]))
    assert cache.size == 1
    assert cache.columns_dropped == 1
    assert cache.products_computed == 2
    x0, image = cache.start_vector(np.array([3.0, 1.0, 1.0]))
    assert np.allclose(x0, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.allclose(image, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    # the next accepted column extends the basis
    assert cache.insert(np.array([0.0, 1.0, 0.0]))
    x0, _ = cache.start_vector(np.array([3.0, 1.0, 1.0]))
    assert np.allclose(x0, [3.0, 0.5, 0.0], rtol=0.0, atol=1e-15)


CACHE_OPS = st.lists(
    st.tuples(st.sampled_from(("insert", "insert_in_span", "insert_null")),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), max_cols=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), ops=CACHE_OPS)
def test_cache_state_matches_a_rebuild_after_every_operation(
        make_spd, n, max_cols, seed, ops):
    rng = np.random.default_rng(seed)
    # an operator with the null vector z: a column along z fails its
    # Galerkin pivot at its insert, unless it is the first column, which no
    # earlier column's Rayleigh quotient scales
    z = rng.standard_normal(n)
    z /= np.linalg.norm(z)
    off = np.eye(n) - np.outer(z, z)
    dense = off @ make_spd(rng, n) @ off
    dense = 0.5 * (dense + dense.T)
    cache = SubspaceCache(n, dense.__matmul__, max_cols)
    for op, arg in ops:
        if op == "insert":
            cache.insert(np.random.default_rng(arg).standard_normal(n))
        elif op == "insert_in_span":
            # dependent on the basis, so dropped; the basis must survive
            coeffs = np.random.default_rng(arg).standard_normal(cache.size)
            cache.insert(cache.basis @ coeffs)
        else:
            accepted = cache.insert(z)
            assert not accepted or cache.size + cache.evictions == 1
        rhs = rng.standard_normal(n)
        x0, image = cache.start_vector(rhs)
        k = cache.size
        # W^T A W = I on the unit directions u_j = w_j / ||w_j|| of the
        # columns: a first null column has a huge norm
        norms = np.linalg.norm(cache.basis, axis=0)
        u = cache.basis / norms
        assert np.allclose(u.T @ dense @ u, np.diag(norms ** -2.0),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(cache.cached_products / norms, dense @ u,
                           rtol=0.0, atol=1e-12)
        assert (np.linalg.norm(image - dense @ x0)
                <= 1e-12 * np.abs(dense).max() * np.linalg.norm(x0))
        if k == 0:
            assert np.array_equal(x0, np.zeros(n))
            assert np.array_equal(image, np.zeros(n))
            continue
        # the Galerkin condition on the kept basis: u^T (A x0 - rhs) = 0
        assert (np.linalg.norm(u.T @ (dense @ x0 - rhs))
                <= 1e-10 * np.abs(dense).max() * np.linalg.norm(x0)
                + 1e-12 * np.linalg.norm(rhs))


def test_cache_rejects_zero_and_nonfinite(rng, make_spd):
    dense = make_spd(rng, 4)
    cache = SubspaceCache(4, dense.__matmul__, 20)
    assert not cache.insert(np.zeros(4))
    assert not cache.insert(np.array([1.0, np.nan, 0.0, 0.0]))
    assert cache.size == 0
    assert cache.columns_dropped == 2
    # the cap is a count and the drop tolerance a finite number >= 0; the
    # message starts with the field's name
    for field, value in (("max_cols", 0), ("max_cols", 2.5),
                         ("max_cols", True), ("drop_tol", np.nan),
                         ("drop_tol", -1e-6), ("drop_tol", np.inf)):
        with pytest.raises(ValueError, match=f"^{field} "):
            SubspaceCache(4, dense.__matmul__, **{"max_cols": 3, field: value})
    # at drop_tol 0 a remainder the sweeps zero exactly is still dropped
    cache = SubspaceCache(4, dense.__matmul__, 3, drop_tol=0.0)
    assert cache.insert(np.eye(4)[0])
    assert not cache.insert(np.eye(4)[0])
    assert cache.size == 1 and cache.columns_dropped == 1


def test_a_finite_huge_insert_is_taken_by_its_direction_without_a_warning(
        rng, make_spd):
    dense = make_spd(rng, 5)
    cache = SubspaceCache(5, dense.__matmul__, 3)
    direction = rng.standard_normal(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # its sum of squares overflows, but every entry is finite
        assert cache.insert(1e200 * direction)
        assert not cache.insert(np.array([1e200, np.inf, 0.0, 0.0, 0.0]))
    u = cache.basis[:, 0]
    u = u / np.linalg.norm(u)
    assert np.isclose(abs(u @ direction), np.linalg.norm(direction),
                      rtol=1e-12)
    assert cache.columns_dropped == 1


class Swept(np.ndarray):
    """A basis that counts the products of a Gram-Schmidt sweep with it."""

    products = 0

    def __matmul__(self, other):
        Swept.products += 1
        return np.asarray(self) @ other


def test_a_near_miss_of_the_last_start_is_dropped_by_the_sweep(rng,
                                                               make_spd):
    # a solution y = x0 + d of the last start x0, which lies in the
    # basis's span, with ||d|| half of drop_tol ||y||: the sweeps leave
    # only the part of d off the span, short enough to drop
    dense = make_spd(rng, 10)
    cache = SubspaceCache(10, dense.__matmul__, 6, drop_tol=1e-8)
    for _ in range(3):
        cache.insert(rng.standard_normal(10))
    x0, _ = cache.start_vector(rng.standard_normal(10))
    x0_values = x0.copy()
    # the caller owns the start and may write it
    x0[:] = 0.0
    cache._rows = cache._rows.view(Swept)
    Swept.products = 0
    d = rng.standard_normal(10)
    near = x0_values + 0.5e-8 * np.linalg.norm(x0_values) * d / np.linalg.norm(d)
    dropped = cache.columns_dropped
    assert not cache.insert(near)
    assert cache.columns_dropped == dropped + 1
    # a larger correction is swept, and one out of the span is kept
    assert cache.insert(x0_values + 1e-3 * np.linalg.norm(x0_values) * d)
    assert Swept.products > 0


def test_an_eviction_lets_the_sweep_keep_the_old_start(rng, make_spd):
    # the cache keeps no record of its starts, only its basis: the evicted
    # column carries part of an old start, so a vector at that start is no
    # longer within reach of the basis, and the sweeps keep it
    dense = make_spd(rng, 6)
    cache = SubspaceCache(6, dense.__matmul__, 2, drop_tol=1e-8)
    for _ in range(2):
        cache.insert(rng.standard_normal(6))
    x0, _ = cache.start_vector(rng.standard_normal(6))
    x0 = x0.copy()
    assert cache.insert(rng.standard_normal(6))
    assert cache.evictions == 1
    assert cache.insert(x0)


@pytest.mark.parametrize("change", ["eviction", "accepted"])
def test_a_basis_change_forgets_the_projection(rng, make_spd, change):
    # W and A W belong to one basis: after a change the next start vector
    # and its product are those of the new basis
    dense = make_spd(rng, 8)
    cache = SubspaceCache(8, dense.__matmul__, max_cols=3)
    for _ in range(3 if change == "eviction" else 2):
        cache.insert(rng.standard_normal(8))
    rhs = rng.standard_normal(8)
    before, _ = cache.start_vector(rhs)
    assert cache.insert(rng.standard_normal(8))
    assert cache.evictions == (change == "eviction")
    x0, image = cache.start_vector(rhs)
    u = cache.basis
    expected = u @ np.linalg.solve(u.T @ dense @ u, u.T @ rhs)
    assert not np.allclose(x0, before)
    assert np.allclose(x0, expected, rtol=0.0, atol=1e-11)
    assert np.allclose(image, dense @ x0, rtol=0.0, atol=1e-11)


def test_a_modified_start_vector_is_not_taken_for_the_projection(rng,
                                                                 make_spd):
    # the caller owns the start vector; its image is an array of its own,
    # and the cache's insert takes the start once the caller moved it
    dense = make_spd(rng, 8)
    cache = SubspaceCache(8, dense.__matmul__, 20)
    for _ in range(2):
        cache.insert(rng.standard_normal(8))
    x0, image = cache.start_vector(rng.standard_normal(8))
    expected = dense @ x0
    x0 += rng.standard_normal(8)
    assert np.allclose(image, expected, rtol=0.0, atol=1e-11)
    assert cache.insert(x0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 40), k=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1),
       drop_tol=st.sampled_from([1e-12, 1e-10, 1e-8]),
       log_scale=st.floats(-8.0, 8.0))
def test_the_sweep_drops_every_exact_projection(make_spd, n, k, seed,
                                                drop_tol, log_scale):
    # a start returned unchanged is an exact projection onto the span, and
    # the sweep drops it before any product, whichever start it was: the
    # cache's one drop rule needs no record of its starts
    rng = np.random.default_rng(seed)
    dense = make_spd(rng, n)
    cache = SubspaceCache(n, dense.__matmul__, max_cols=20,
                          drop_tol=drop_tol)
    for _ in range(k):
        cache.insert(10.0 ** log_scale * rng.standard_normal(n))
    earlier, _ = cache.start_vector(rng.standard_normal(n))
    latest, _ = cache.start_vector(rng.standard_normal(n))
    assert not np.array_equal(earlier, latest)
    products = cache.products_computed
    assert not cache.insert(earlier)
    assert cache.products_computed == products


CONTRACT_OPS = st.lists(
    st.tuples(st.sampled_from(("solution", "null", "start")),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=20)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(("previous", "cspe", "pod")),
       singular=st.booleans(), n=st.integers(3, 12), n_pod=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), ops=CONTRACT_OPS)
def test_every_start_comes_with_its_image(make_spd, kind, singular, n, n_pod,
                                          seed, ops):
    # the contract of every strategy: start_vector returns x0 with its
    # image A x0, and observe takes every solution, told whether it is the
    # start returned unchanged. On a singular operator the history takes
    # null vectors, whose Galerkin pivots fail.
    rng = np.random.default_rng(seed)
    dense = make_spd(rng, n)
    z = rng.standard_normal(n)
    z /= np.linalg.norm(z)
    if singular:
        off = np.eye(n) - np.outer(z, z)
        dense = off @ dense @ off
        dense = 0.5 * (dense + dense.T)
    scale = np.abs(dense).max()
    strategy = make_strategy(StrategyConfig(kind, n_pod=n_pod), n,
                             dense.__matmul__)
    observed = []
    for op, arg in ops:
        draw = np.random.default_rng(arg)
        rhs = dense @ draw.standard_normal(n)
        x0, image = strategy.start_vector(rhs)
        assert (np.linalg.norm(image - dense @ x0)
                <= 1e-11 * np.linalg.norm(rhs)
                + 1e-13 * scale * np.linalg.norm(x0))
        products = strategy.products_computed
        if op == "start":
            solution = x0
        elif op == "null":
            solution = draw.standard_normal() * z
        else:
            solution = draw.standard_normal(n)
        observed.append(solution.copy())
        strategy.observe(solution, op == "start")
        if op == "start" and kind != "pod":
            # the history spans its own start, so observing it costs nothing
            assert strategy.products_computed == products
        if kind == "pod":
            ring = list(strategy._snapshots)
            assert len(ring) == len(observed[-n_pod:])
            assert all(np.array_equal(kept, solution) for kept, solution
                       in zip(ring, observed[-n_pod:]))


def family_strategies(make_linear_system, kind, n_n=5, **settings):
    """The per-family strategies a SchurOperator builds, on a linear system
    whose K_n block is SPD; returns them with that block."""
    system, blocks = make_linear_system(np.random.default_rng(7), n_n=n_n)
    op = SchurOperator(system, ExplicitConfig(
        strategy=StrategyConfig(kind, **settings)))
    assert set(op.strategies) == set(RhsFamily)
    assert op.strategies[SRC] is not op.strategies[CPL_PREV]
    return op.strategies, blocks["kn"]


def test_pod_strategy_keeps_the_last_n_pod_solutions_per_family(
        rng, make_linear_system):
    dim = 8
    strategies, dense = family_strategies(make_linear_system, "pod", n_n=dim,
                                          n_pod=3, eps_pod=1e-12)
    src, cpl = strategies[SRC], strategies[CPL_PREV]
    pushed = [rng.standard_normal(dim) for _ in range(5)]
    originals = [v.copy() for v in pushed]
    for v in pushed:
        src.observe(v, False)
    cpl.observe(pushed[0], False)
    for v in pushed:
        v[:] = 0.0  # the rings hold copies
    rhs = rng.standard_normal(dim)
    # the Galerkin solution on the span of the last three source solutions
    q, _ = np.linalg.qr(np.column_stack(originals[2:]))
    expected = q @ np.linalg.solve(q.T @ dense @ q, q.T @ rhs)
    assert np.allclose(src.start_vector(rhs)[0], expected, rtol=0.0,
                       atol=1e-8)
    u = originals[0]
    expected = u * (u @ rhs) / (u @ dense @ u)
    assert np.allclose(cpl.start_vector(rhs)[0], expected, rtol=0.0,
                       atol=1e-8)
    with pytest.raises(ValueError, match="shape"):
        src.observe(np.zeros(dim - 1), False)


def test_pod_matches_dense_svd(rng, make_spd):
    dim, n_snap = 12, 5
    dense = make_spd(rng, dim)
    snaps = [rng.standard_normal(dim) for _ in range(n_snap)]
    rhs = rng.standard_normal(dim)
    x0, k, info, applies, image = pod_start_vector(snaps, rhs,
                                                   dense.__matmul__, 1e-12)
    x_mat = np.column_stack(snaps)
    sigma = np.linalg.svd(x_mat, compute_uv=False)
    k_expected = int(np.sum(sigma / sigma[0] > 1e-12))
    assert k == k_expected
    assert applies == k
    assert abs(info - sigma[:k].sum() / sigma.sum()) <= 1e-12
    # x0 solves the Galerkin system on the snapshot span
    q, _ = np.linalg.qr(x_mat)
    coeffs = np.linalg.solve(q.T @ dense @ q, q.T @ rhs)
    assert np.allclose(x0, q @ coeffs, rtol=0.0, atol=1e-8)
    assert np.allclose(image, dense @ x0, rtol=0.0, atol=1e-10)


def test_pod_truncation_ladder(rng):
    dim = 10
    u = np.linalg.qr(rng.standard_normal((dim, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    sigma = np.array([1.0, 1e-3, 1e-5])
    x_mat = (u * sigma) @ v.T
    dense = np.eye(dim)
    x0, k, info, applies, _ = pod_start_vector(list(x_mat.T),
                                            rng.standard_normal(dim),
                                            dense.__matmul__, 1e-4)
    assert k == 2
    assert applies == 2
    expected_info = (1.0 + 1e-3) / (1.0 + 1e-3 + 1e-5)
    assert abs(info - expected_info) <= 1e-10


def test_pod_rank_one_snapshots(rng):
    v = rng.standard_normal(6)
    dense = np.diag(np.arange(1.0, 7.0))
    x0, k, info, applies, _ = pod_start_vector([v, v, v], dense @ v,
                                            dense.__matmul__, 1e-4)
    assert k == 1
    # tiny spurious Gram eigenvalues keep info marginally below one
    assert info >= 1.0 - 1e-6
    assert applies == 1
    assert np.allclose(x0, v, rtol=0.0, atol=1e-8)


def test_pod_empty_and_zero_snapshots():
    for snapshots in ([], [np.zeros(4)]):
        x0, k, info, applies, image = pod_start_vector(
            snapshots, np.ones(4), np.eye(4).__matmul__, 1e-4)
        assert np.array_equal(x0, np.zeros(4))
        assert np.array_equal(image, np.zeros(4))
        assert (k, info, applies) == (0, 0.0, 0)
    with pytest.raises(ValueError, match="shape"):
        pod_start_vector([np.ones(4)], np.ones(3), np.eye(4).__matmul__,
                         1e-4)


def test_pod_drops_the_mode_whose_galerkin_pivot_fails():
    # the weaker mode lies in the operator's nullspace: its Galerkin pivot
    # is zero, so the projection keeps the stronger mode alone
    dense = np.diag([1.0, 2.0, 0.0])
    snapshots = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1e-2])]
    x0, k, info, applies, image = pod_start_vector(
        snapshots, np.array([3.0, 1.0, 1.0]), dense.__matmul__, 1e-4)
    assert (k, applies) == (1, 2)
    assert info == pytest.approx(1.0 / 1.01, rel=1e-12)
    assert np.allclose(x0, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.allclose(image, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)


def test_pod_keeps_the_modes_after_one_whose_pivot_fails():
    # the middle mode lies in the operator's nullspace: it alone leaves the
    # projection, and the weaker mode after it stays
    dense = np.diag([1.0, 2.0, 0.0])
    snapshots = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1e-1]),
                 np.array([0.0, 1e-2, 0.0])]
    x0, k, info, applies, image = pod_start_vector(
        snapshots, np.array([3.0, 1.0, 1.0]), dense.__matmul__, 1e-4)
    assert (k, applies) == (2, 3)
    assert info == pytest.approx(1.01 / 1.11, rel=1e-12)
    assert np.allclose(x0, [3.0, 0.5, 0.0], rtol=0.0, atol=1e-14)
    assert np.allclose(image, [3.0, 1.0, 0.0], rtol=0.0, atol=1e-14)


def test_pod_drops_a_mode_the_operator_maps_to_rounding_noise():
    # the weaker mode's pivot 1e-13 is large beside its own diagonal but
    # not beside the operator's scale, the stronger mode's Rayleigh
    # quotient 1: kept, it would put 1e13 into the start
    dense = np.diag([1.0, 1e-13, 1.0])
    snapshots = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e-2, 0.0])]
    x0, k, info, applies, image = pod_start_vector(
        snapshots, np.array([3.0, 1.0, 1.0]), dense.__matmul__, 1e-4)
    assert (k, applies) == (1, 2)
    assert info == pytest.approx(1.0 / 1.01, rel=1e-12)
    assert np.allclose(x0, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.allclose(image, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)


def test_pod_galerkin_residual_is_small(rng, make_spd):
    dense = make_spd(rng, 9)
    x_star = rng.standard_normal(9)
    rhs = dense @ x_star
    x0, k, info, _, _ = pod_start_vector([x_star], rhs, dense.__matmul__,
                                         1e-10)
    assert k == 1
    assert np.linalg.norm(dense @ x0 - rhs) <= 1e-8 * np.linalg.norm(rhs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
       n_snap=st.integers(1, 8), rank=st.integers(0, 8),
       decay=st.floats(0.0, 1.0),
       log_eps=st.lists(st.floats(-14.0, -0.01), min_size=2, max_size=2))
def test_pod_info_monotone_in_eps(make_spd, seed, dim, n_snap, rank, decay,
                                  log_eps):
    # snapshot sets of any rank, with geometrically decaying columns; a
    # larger eps_pod keeps no more modes and no more information
    rng = np.random.default_rng(seed)
    rank = min(rank, dim, n_snap)
    mixed = (rng.standard_normal((dim, rank))
             @ rng.standard_normal((rank, n_snap)))
    snaps = [mixed[:, j] * decay ** j for j in range(n_snap)]
    operator = make_spd(rng, dim).__matmul__
    rhs = rng.standard_normal(dim)
    small, large = (pod_start_vector(snaps, rhs, operator, 10.0 ** e)[1:3]
                    for e in sorted(log_eps))
    assert large[0] <= small[0]
    assert large[1] <= small[1]


def test_previous_strategy_isolates_families(rng, make_linear_system):
    strategies, dense = family_strategies(make_linear_system, "previous",
                                          n_n=4)
    src, cpl = strategies[SRC], strategies[CPL_PREV]
    for vector in src.start_vector(None):
        assert np.array_equal(vector, np.zeros(4))
    sol_src = rng.standard_normal(4)
    sol_cpl = rng.standard_normal(4)
    src.observe(sol_src, False)
    assert np.array_equal(cpl.start_vector(None)[0], np.zeros(4))
    cpl.observe(sol_cpl, False)
    x0, image = src.start_vector(None)
    assert np.array_equal(x0, sol_src)
    assert np.allclose(image, dense @ sol_src, rtol=0.0, atol=1e-12)
    assert np.array_equal(cpl.start_vector(None)[0], sol_cpl)
    # returned vectors are copies, not views into the history
    out, _ = src.start_vector(None)
    out[:] = 0.0
    assert np.array_equal(src.start_vector(None)[0], sol_src)
    # one product per observed solution, for its image; the start returned
    # unchanged is not observed again
    src.observe(src.start_vector(None)[0], True)
    assert (src.size, src.products_computed, src.evictions,
            src.projections) == (0, 1, 0, ())


def test_cspe_strategy_isolates_families(rng, make_linear_system):
    strategies, dense = family_strategies(make_linear_system, "cspe")
    src, cpl = strategies[SRC], strategies[CPL_PREV]
    x = rng.standard_normal(5)
    src.observe(x, False)
    assert (src.size, cpl.size) == (1, 0)
    assert (src.products_computed, cpl.products_computed) == (1, 0)
    # the coupling family sees an empty cache: zero start vector
    rhs = dense @ x
    assert np.array_equal(cpl.start_vector(rhs)[0], np.zeros(5))
    assert np.allclose(src.start_vector(rhs)[0], x, rtol=0.0, atol=1e-8)
    assert src.size == 1
    assert src.products_computed == 1
    assert src.projections == cpl.projections == ()


def test_pod_strategy_diagnostics_and_min_info(rng, make_spd):
    dense = make_spd(rng, 6)
    strat = PodStrategy(6, dense.__matmul__, n_pod=4, eps_pod=1e-10)
    rhs = rng.standard_normal(6)
    # empty buffer: zero vectors, no operator work
    for vector in strat.start_vector(rhs):
        assert np.array_equal(vector, np.zeros(6))
    assert strat.products_computed == 0
    strat.observe(rng.standard_normal(6), False)
    strat.observe(rng.standard_normal(6), False)
    assert strat.projections == []
    strat.start_vector(rhs)
    assert strat.size == 2
    assert strat.products_computed == 2
    [(k, info)] = strat.projections
    assert k == 2
    assert 0.0 < info <= 1.0
    assert strat.evictions == 0


def test_pod_basis_size_answers_per_family(rng, make_linear_system):
    strategies, _ = family_strategies(make_linear_system, "pod", n_n=6,
                                      n_pod=4, eps_pod=1e-10)
    src, cpl = strategies[SRC], strategies[CPL_PREV]
    assert (src.size, cpl.size) == (0, 0)
    for _ in range(3):
        src.observe(rng.standard_normal(6), False)
    cpl.observe(rng.standard_normal(6), False)
    src.start_vector(rng.standard_normal(6))
    cpl.start_vector(rng.standard_normal(6))
    # each family's size is the modes of its own latest projection
    assert [k for k, _ in src.projections] == [3]
    assert [k for k, _ in cpl.projections] == [1]
    assert (src.size, cpl.size) == (3, 1)


def test_make_strategy_dispatch(rng, make_spd):
    dense = make_spd(rng, 4)
    previous = make_strategy(StrategyConfig("previous"), 4, dense.__matmul__)
    assert isinstance(previous, PreviousSolutionStrategy)
    assert previous.kind == "previous"
    # the CSPE cap is the caller's, the whole space by default
    for max_cols, cap in ((3, 3), (None, 4)):
        cspe = make_strategy(StrategyConfig("cspe"), 4, dense.__matmul__,
                             max_cols)
        assert isinstance(cspe, SubspaceCache)
        assert (cspe.kind, cspe.max_cols) == ("cspe", cap)
    # the cache's own checks are the one check of the cap and tolerance
    for field, max_cols, drop_tol in (("max_cols", 0, 1e-6),
                                      ("max_cols", 2.5, 1e-6),
                                      ("max_cols", True, 1e-6),
                                      ("drop_tol", 3, np.nan),
                                      ("drop_tol", 3, -1.0)):
        with pytest.raises(ValueError, match=f"^{field} "):
            make_strategy(StrategyConfig("cspe"), 4, dense.__matmul__,
                          max_cols, drop_tol)
    pod = make_strategy(StrategyConfig("pod", n_pod=3), 4, dense.__matmul__)
    assert isinstance(pod, PodStrategy) and pod.kind == "pod"
    # every kind applies the operator, so it is a required argument
    for kind in ("previous", "cspe", "pod"):
        with pytest.raises(TypeError, match="operator"):
            make_strategy(StrategyConfig(kind), 4)
    for unknown in ("banana", "zero"):
        with pytest.raises(ValueError):
            make_strategy(StrategyConfig(unknown), 4, dense.__matmul__)


@pytest.mark.parametrize("kind, setting", [("pod", dict(n_pod=0)),
                                           ("pod", dict(eps_pod=2.0)),
                                           ("pod", dict(n_pod=2.5)),
                                           ("pod", dict(n_pod=True))],
                         ids=["n_pod", "eps_pod", "n_pod_float",
                              "n_pod_bool"])
def test_a_bad_setting_fails_when_the_strategy_is_built(builtin6, kind,
                                                        setting):
    # before any solve, so before a run's start CFL estimate
    [name] = setting
    with pytest.raises(ValueError, match=f"^{name} "):
        make_strategy(StrategyConfig(kind, **setting), 4,
                      np.eye(4).__matmul__)
    with pytest.raises(ValueError, match=name):
        SchurOperator(builtin6.system, ExplicitConfig(
            strategy=StrategyConfig(kind, **setting)))


def hook_strategy_classes(monkeypatch):
    """Wrap start_vector on every strategy class and insert on
    SubspaceCache, on the classes, as perfbench/run.py's Tracer.hooks
    does, and record the SchurOperator that a run builds. Returns the
    lists of starts (their strategy's class), inserted vectors and
    operators."""
    starts, inserts = [], []
    for cls in StartVectorStrategy.__subclasses__():
        assert {"start_vector", "observe"} <= set(vars(cls)), cls

        def start_vector(self, rhs, original=vars(cls)["start_vector"]):
            starts.append(type(self))
            return original(self, rhs)
        monkeypatch.setattr(cls, "start_vector", start_vector)
    original_insert = SubspaceCache.insert

    def insert(self, vector):
        inserts.append(vector)
        return original_insert(self, vector)
    monkeypatch.setattr(SubspaceCache, "insert", insert)
    operators = []

    class Recorded(SchurOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            operators.append(self)
    monkeypatch.setattr(schur, "SchurOperator", Recorded)
    return starts, inserts, operators


@pytest.mark.parametrize("kind", ["previous", "cspe", "pod"])
def test_class_hooks_see_every_start_and_insert(builtin6, kind, monkeypatch):
    # no call may go round the class hooks
    starts, inserts, operators = hook_strategy_classes(monkeypatch)

    result = run_explicit(builtin6.system, t_end=2e-3, dt="auto",
                          config=ExplicitConfig(strategy=StrategyConfig(kind)),
                          output_period=5e-4)
    [op] = operators
    logs = op.solve_iterations.values()
    assert len(starts) == sum(len(log) for log in logs) \
        == sum(result.aggregates["solves"].values()) > 0
    assert set(starts) == {type(op.strategies[SRC])}
    if kind == "cspe":
        # a solve that moved its start hands the solution to the cache
        moved = sum(iterations > 0 for log in logs for iterations in log)
        assert len(inserts) == moved > 0
    else:
        assert inserts == []


def test_a_screened_pair_counts_as_two_solves(builtin6, monkeypatch):
    # at tol 1e-6 the residual screen accepts most pairs of starts
    # without a start_vector call; each still logs one solve per family
    starts, inserts, operators = hook_strategy_classes(monkeypatch)
    config = ExplicitConfig(tol=1e-6)
    result = run_explicit(builtin6.system, t_end=2e-3, dt="auto",
                          config=config, output_period=5e-4)
    [op] = operators
    agg = result.aggregates
    screened = agg["screened"]
    assert screened["accepted"] > 0 and screened["full_path"] > 0
    assert len(starts) + 2 * screened["accepted"] == sum(agg["solves"].values())
    # every output row tries the screen, and so does every step but those
    # handed a row's force: one try per step, plus the last row's
    assert (screened["accepted"] + screened["full_path"]
            == agg["steps"] - (result.n_rows - 1) + result.n_rows)
    logs = op.solve_iterations.values()
    moved = sum(iterations > 0 for log in logs for iterations in log)
    assert len(inserts) == moved > 0
    assert agg["columns_dropped"] == {
        f.value: s.columns_dropped for f, s in op.strategies.items()}
    for counts in (screened, agg["columns_dropped"]):
        assert all(type(v) is int for v in counts.values())
