"""Subspace recycling: cached-subspace projection and snapshot POD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (CspeStrategy, PodStrategy, PreviousSolutionStrategy,
                     RhsFamily, SnapshotBuffer, SubspaceCache, make_strategy,
                     pod_start_vector)

SRC = RhsFamily.SOURCE_CURRENT
CPL_CUR = RhsFamily.COUPLING_FROM_CURRENT_STATE
CPL_PREV = RhsFamily.COUPLING_FROM_PREVIOUS_STATE


def test_cache_counts_one_product_per_accepted_column(rng, make_spd,
                                                      counting_operator):
    dense = make_spd(rng, 8)
    op = counting_operator(dense)
    cache = SubspaceCache(8, op)
    assert cache.insert(rng.standard_normal(8))
    assert cache.insert(rng.standard_normal(8))
    v = rng.standard_normal(8)
    assert cache.insert(v)
    assert not cache.insert(v)  # dependent, dropped before any product
    assert cache.size == 3
    assert cache.products_computed == 3
    assert op.count == 3
    assert cache.columns_accepted == 3
    assert cache.columns_dropped == 1


def test_cache_products_and_galerkin_match_dense(rng, make_spd):
    dense = make_spd(rng, 9)
    cache = SubspaceCache(9, dense.__matmul__)
    for _ in range(4):
        cache.insert(rng.standard_normal(9))
    u = cache.basis
    assert np.allclose(cache.cached_products, dense @ u, rtol=0.0, atol=1e-12)
    assert np.allclose(cache.galerkin, u.T @ dense @ u, rtol=0.0, atol=1e-12)


def test_cache_reuses_old_products_bit_for_bit(rng, make_spd):
    dense = make_spd(rng, 7)
    cache = SubspaceCache(7, dense.__matmul__)
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
    assert cache.columns_accepted == 4
    # oldest column (e_0) left the basis: e_0 no longer in the span
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    coords = cache.basis.T @ e0
    assert np.linalg.norm(cache.basis @ coords) < 1e-10


def test_project_matches_dense_galerkin_solution(rng, make_spd):
    dense = make_spd(rng, 10)
    cache = SubspaceCache(10, dense.__matmul__)
    for _ in range(3):
        cache.insert(rng.standard_normal(10))
    rhs = rng.standard_normal(10)
    x0 = cache.project(rhs)
    u = cache.basis
    coeffs = np.linalg.solve(u.T @ dense @ u, u.T @ rhs)
    assert np.allclose(x0, u @ coeffs, rtol=0.0, atol=1e-10)


def test_projection_minimizes_energy_error_over_subspace(rng, make_spd):
    dense = make_spd(rng, 8)
    cache = SubspaceCache(8, dense.__matmul__)
    cache.insert(rng.standard_normal(8))
    cache.insert(rng.standard_normal(8))
    rhs = rng.standard_normal(8)
    x0 = cache.project(rhs)
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
    cache = SubspaceCache(6, dense.__matmul__)
    cache.insert(x_star)
    x0 = cache.project(dense @ x_star)
    assert np.allclose(x0, x_star, rtol=0.0, atol=1e-8)


def test_project_edge_cases(rng, make_spd):
    dense = make_spd(rng, 5)
    cache = SubspaceCache(5, dense.__matmul__)
    assert np.array_equal(cache.project(rng.standard_normal(5)), np.zeros(5))
    v = rng.standard_normal(5)
    cache.insert(v)
    # rhs orthogonal to the basis projects to zero
    u = cache.basis[:, 0]
    rhs = rng.standard_normal(5)
    rhs -= u * (u @ rhs)
    assert np.linalg.norm(cache.project(rhs)) <= 1e-10
    with pytest.raises(ValueError):
        cache.project(np.zeros(4))
    with pytest.raises(ValueError):
        cache.insert(np.zeros(6))


def test_project_drops_the_column_whose_pivot_fails():
    # the third direction is in the operator's nullspace
    dense = np.diag([1.0, 2.0, 0.0])
    cache = SubspaceCache(3, dense.__matmul__)
    assert cache.insert(np.array([1.0, 0.0, 0.0]))
    assert cache.insert(np.array([0.0, 0.0, 1.0]))
    x0 = cache.project(np.array([3.0, 1.0, 1.0]))
    assert cache.size == 1
    assert cache.columns_dropped == 1
    assert np.allclose(x0, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    # the next accepted column rebuilds the factor over the new basis
    assert cache.insert(np.array([0.0, 1.0, 0.0]))
    x0 = cache.project(np.array([3.0, 1.0, 1.0]))
    assert np.allclose(x0, [3.0, 0.5, 0.0], rtol=0.0, atol=1e-15)


CACHE_OPS = st.lists(
    st.tuples(st.sampled_from(("insert", "insert_in_span", "drop")),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), max_cols=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), ops=CACHE_OPS)
def test_cache_state_matches_a_rebuild_after_every_operation(
        make_spd, n, max_cols, seed, ops):
    rng = np.random.default_rng(seed)
    dense = make_spd(rng, n)
    cache = SubspaceCache(n, dense.__matmul__, max_cols)
    for op, arg in ops:
        if op == "insert":
            cache.insert(np.random.default_rng(arg).standard_normal(n))
        elif op == "insert_in_span":
            # dependent on the basis, so dropped; the factor must survive
            coeffs = np.random.default_rng(arg).standard_normal(cache.size)
            cache.insert(cache.basis @ coeffs)
        elif cache.size:
            cache.drop_column(arg % cache.size)
        u = cache.basis
        k = cache.size
        assert np.allclose(u.T @ u, np.eye(k), rtol=0.0, atol=1e-10)
        assert np.allclose(cache.galerkin, u.T @ dense @ u,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(cache.cached_products, dense @ u,
                           rtol=0.0, atol=1e-12)
        rhs = rng.standard_normal(n)
        x0 = cache.project(rhs)
        if k == 0:
            assert np.array_equal(x0, np.zeros(n))
            continue
        expected = u @ np.linalg.solve(u.T @ dense @ u, u.T @ rhs)
        assert (np.linalg.norm(x0 - expected)
                <= 1e-10 * np.linalg.norm(expected))


def test_cache_rejects_zero_and_nonfinite(rng, make_spd):
    dense = make_spd(rng, 4)
    cache = SubspaceCache(4, dense.__matmul__)
    assert not cache.insert(np.zeros(4))
    assert not cache.insert(np.array([1.0, np.nan, 0.0, 0.0]))
    assert cache.size == 0
    assert cache.columns_dropped == 2
    with pytest.raises(ValueError):
        SubspaceCache(4, dense.__matmul__, 0)


def test_snapshot_buffer_ring(rng):
    buf = SnapshotBuffer(3, n_pod=3)
    pushed = [rng.standard_normal(3) for _ in range(5)]
    for v in pushed:
        buf.push(v)
    assert len(buf) == 3
    assert np.array_equal(buf.matrix(), np.column_stack(pushed[2:]))
    with pytest.raises(ValueError):
        buf.push(np.zeros(2))


def test_pod_matches_dense_svd(rng, make_spd):
    dim, n_snap = 12, 5
    dense = make_spd(rng, dim)
    snaps = [rng.standard_normal(dim) for _ in range(n_snap)]
    buf = SnapshotBuffer(dim, n_pod=8, eps_pod=1e-12)
    for s in snaps:
        buf.push(s)
    rhs = rng.standard_normal(dim)
    x0, k, info, applies = pod_start_vector(buf, rhs, dense.__matmul__)
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


def test_pod_truncation_ladder(rng):
    dim = 10
    u = np.linalg.qr(rng.standard_normal((dim, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    sigma = np.array([1.0, 1e-3, 1e-5])
    x_mat = (u * sigma) @ v.T
    buf = SnapshotBuffer(dim, n_pod=5, eps_pod=1e-4)
    for j in range(3):
        buf.push(x_mat[:, j])
    dense = np.eye(dim)
    x0, k, info, applies = pod_start_vector(buf, rng.standard_normal(dim),
                                            dense.__matmul__)
    assert k == 2
    assert applies == 2
    expected_info = (1.0 + 1e-3) / (1.0 + 1e-3 + 1e-5)
    assert abs(info - expected_info) <= 1e-10


def test_pod_rank_one_snapshots(rng):
    v = rng.standard_normal(6)
    buf = SnapshotBuffer(6, n_pod=4, eps_pod=1e-4)
    for _ in range(3):
        buf.push(v)
    dense = np.diag(np.arange(1.0, 7.0))
    x0, k, info, applies = pod_start_vector(buf, dense @ v, dense.__matmul__)
    assert k == 1
    # tiny spurious Gram eigenvalues keep info marginally below one
    assert info >= 1.0 - 1e-6
    assert applies == 1
    assert np.allclose(x0, v, rtol=0.0, atol=1e-8)


def test_pod_empty_and_zero_buffers(rng):
    buf = SnapshotBuffer(4, n_pod=3)
    x0, k, info, applies = pod_start_vector(buf, np.ones(4), np.eye(4).__matmul__)
    assert np.array_equal(x0, np.zeros(4))
    assert (k, info, applies) == (0, 0.0, 0)
    buf.push(np.zeros(4))
    x0, k, info, applies = pod_start_vector(buf, np.ones(4), np.eye(4).__matmul__)
    assert np.array_equal(x0, np.zeros(4))
    assert (k, info, applies) == (0, 0.0, 0)


def test_pod_galerkin_residual_is_small(rng, make_spd):
    dense = make_spd(rng, 9)
    x_star = rng.standard_normal(9)
    buf = SnapshotBuffer(9, n_pod=4, eps_pod=1e-10)
    buf.push(x_star)
    rhs = dense @ x_star
    x0, k, info, _ = pod_start_vector(buf, rhs, dense.__matmul__)
    assert k == 1
    assert np.linalg.norm(dense @ x0 - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_pod_info_monotone_in_eps(rng):
    dim = 8
    snaps = [rng.standard_normal(dim) * (0.5 ** j) for j in range(4)]
    dense = np.eye(dim)
    rhs = rng.standard_normal(dim)
    prev_k = dim + 1
    for eps in (1e-12, 1e-4, 1e-1, 0.9):
        buf = SnapshotBuffer(dim, n_pod=6, eps_pod=eps)
        for s in snaps:
            buf.push(s)
        _, k, _, _ = pod_start_vector(buf, rhs, dense.__matmul__)
        assert k <= prev_k
        prev_k = k


def test_previous_strategy_isolates_families(rng):
    strat = PreviousSolutionStrategy(4)
    assert np.array_equal(strat.start_vector(SRC, None), np.zeros(4))
    sol_src = rng.standard_normal(4)
    sol_cpl = rng.standard_normal(4)
    strat.observe(SRC, sol_src)
    strat.observe(CPL_PREV, sol_cpl)
    assert np.array_equal(strat.start_vector(SRC, None), sol_src)
    assert np.array_equal(strat.start_vector(CPL_PREV, None), sol_cpl)
    assert np.array_equal(strat.start_vector(CPL_CUR, None), np.zeros(4))
    # returned vectors are copies, not views into the history
    out = strat.start_vector(SRC, None)
    out[:] = 0.0
    assert np.array_equal(strat.start_vector(SRC, None), sol_src)


def test_cspe_strategy_isolates_families(rng, make_spd):
    dense = make_spd(rng, 5)
    strat = CspeStrategy(5, dense.__matmul__)
    x = rng.standard_normal(5)
    strat.observe(SRC, x)
    assert strat.basis_size(SRC) == 1
    assert strat.basis_size(CPL_PREV) == 0
    assert strat.basis_size() == 1
    assert strat.maintenance_applies == 1
    # coupling families see an empty cache: zero start vector
    rhs = dense @ x
    assert np.array_equal(strat.start_vector(CPL_PREV, rhs), np.zeros(5))
    assert np.allclose(strat.start_vector(SRC, rhs), x, rtol=0.0, atol=1e-8)
    assert strat.basis_size() == 1
    assert strat.maintenance_applies == 1
    assert strat.projections == []


def test_pod_strategy_diagnostics_and_min_info(rng, make_spd):
    dense = make_spd(rng, 6)
    strat = PodStrategy(6, dense.__matmul__, n_pod=4, eps_pod=1e-10)
    rhs = rng.standard_normal(6)
    # empty buffer: zero vector, no operator work
    assert np.array_equal(strat.start_vector(SRC, rhs), np.zeros(6))
    assert strat.maintenance_applies == 0
    strat.observe(SRC, rng.standard_normal(6))
    strat.observe(SRC, rng.standard_normal(6))
    assert strat.projections == []
    strat.start_vector(SRC, rhs)
    assert strat.basis_size() == 2
    assert strat.maintenance_applies == 2
    [(k, info)] = strat.projections
    assert k == 2
    assert 0.0 < info <= 1.0


def test_make_strategy_dispatch(rng, make_spd):
    dense = make_spd(rng, 4)
    assert make_strategy("previous", 4).kind == "previous"
    assert isinstance(make_strategy("cspe", 4, dense.__matmul__,
                                    max_cols=7), CspeStrategy)
    assert isinstance(make_strategy("pod", 4, dense.__matmul__,
                                    n_pod=3), PodStrategy)
    with pytest.raises(ValueError):
        make_strategy("cspe", 4)
    with pytest.raises(ValueError):
        make_strategy("pod", 4)
    for unknown in ("banana", "zero"):
        with pytest.raises(ValueError):
            make_strategy(unknown, 4, dense.__matmul__)
