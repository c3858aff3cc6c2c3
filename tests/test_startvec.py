"""Subspace recycling: cached-subspace projection and snapshot POD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (CspeStrategy, ExplicitConfig, PodStrategy,
                     PreviousSolutionStrategy, RhsFamily, SchurOperator,
                     StrategyConfig, SubspaceCache, make_strategy,
                     pod_start_vector)

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
    assert cache.columns_accepted == 3
    assert cache.columns_dropped == 1


def test_cache_products_and_galerkin_match_dense(rng, make_spd):
    dense = make_spd(rng, 9)
    cache = SubspaceCache(9, dense.__matmul__, 20)
    for _ in range(4):
        cache.insert(rng.standard_normal(9))
    u = cache.basis
    assert np.allclose(cache.cached_products, dense @ u, rtol=0.0, atol=1e-12)
    assert np.allclose(cache.galerkin, u.T @ dense @ u, rtol=0.0, atol=1e-12)


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
    assert cache.columns_accepted == 4
    # oldest column (e_0) left the basis: e_0 no longer in the span
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    coords = cache.basis.T @ e0
    assert np.linalg.norm(cache.basis @ coords) < 1e-10


def test_project_matches_dense_galerkin_solution(rng, make_spd):
    dense = make_spd(rng, 10)
    cache = SubspaceCache(10, dense.__matmul__, 20)
    for _ in range(3):
        cache.insert(rng.standard_normal(10))
    rhs = rng.standard_normal(10)
    x0 = cache.project(rhs)
    u = cache.basis
    coeffs = np.linalg.solve(u.T @ dense @ u, u.T @ rhs)
    assert np.allclose(x0, u @ coeffs, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("n, k", [(10, 3), (138, 1), (1038, 6), (1038, 20)])
def test_projection_products_are_bitwise_those_of_matmul(rng, n, k):
    # project and start_product multiply through ndarray.dot, which costs
    # less dispatch than @; the traces hold only while both run the same
    # BLAS products
    d = rng.uniform(1.0, 2.0, n)
    cache = SubspaceCache(n, lambda x: d * x, 20)
    for _ in range(k):
        cache.insert(rng.standard_normal(n))
    assert cache.size == k
    rhs = rng.standard_normal(n)
    x0 = cache.project(rhs)
    coeffs = cache._w.T @ rhs
    assert np.array_equal(x0, cache._w @ coeffs)
    assert np.array_equal(cache.start_product(), cache._aw @ coeffs)


def test_projection_minimizes_energy_error_over_subspace(rng, make_spd):
    dense = make_spd(rng, 8)
    cache = SubspaceCache(8, dense.__matmul__, 20)
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
    cache = SubspaceCache(6, dense.__matmul__, 20)
    cache.insert(x_star)
    x0 = cache.project(dense @ x_star)
    assert np.allclose(x0, x_star, rtol=0.0, atol=1e-8)


def test_project_edge_cases(rng, make_spd):
    dense = make_spd(rng, 5)
    cache = SubspaceCache(5, dense.__matmul__, 20)
    with pytest.raises(RuntimeError, match="projection"):
        cache.start_product()
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
    cache = SubspaceCache(3, dense.__matmul__, 20)
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
            assert np.array_equal(cache.start_product(), np.zeros(n))
            continue
        expected = u @ np.linalg.solve(u.T @ dense @ u, u.T @ rhs)
        assert (np.linalg.norm(x0 - expected)
                <= 1e-10 * np.linalg.norm(expected))
        image = dense @ x0
        assert (np.linalg.norm(cache.start_product() - image)
                <= 1e-12 * np.abs(dense).max() * np.linalg.norm(x0))


def test_cache_rejects_zero_and_nonfinite(rng, make_spd):
    dense = make_spd(rng, 4)
    cache = SubspaceCache(4, dense.__matmul__, 20)
    assert not cache.insert(np.zeros(4))
    assert not cache.insert(np.array([1.0, np.nan, 0.0, 0.0]))
    assert cache.size == 0
    assert cache.columns_dropped == 2
    with pytest.raises(ValueError):
        SubspaceCache(4, dense.__matmul__, 0)


@pytest.mark.parametrize("change", ["drop_column", "eviction", "accepted"])
def test_a_basis_change_forgets_the_projection(rng, make_spd, change):
    # W and A W belong to one basis: after a change the next start vector
    # and its product are those of the new basis
    dense = make_spd(rng, 8)
    cache = SubspaceCache(8, dense.__matmul__, max_cols=3)
    for _ in range(3 if change == "eviction" else 2):
        cache.insert(rng.standard_normal(8))
    rhs = rng.standard_normal(8)
    before = cache.project(rhs)
    if change == "drop_column":
        cache.drop_column(0)
    else:
        assert cache.insert(rng.standard_normal(8))
        assert cache.evictions == (change == "eviction")
    x0 = cache.project(rhs)
    u = cache.basis
    expected = u @ np.linalg.solve(u.T @ dense @ u, u.T @ rhs)
    assert not np.allclose(x0, before)
    assert np.allclose(x0, expected, rtol=0.0, atol=1e-11)
    assert np.allclose(cache.start_product(), dense @ x0, rtol=0.0,
                       atol=1e-11)


def test_a_modified_start_vector_is_not_taken_for_the_projection(rng,
                                                                 make_spd):
    # the caller owns the start vector; its product comes from the cache's
    # own coefficients
    dense = make_spd(rng, 8)
    cache = SubspaceCache(8, dense.__matmul__, 20)
    for _ in range(2):
        cache.insert(rng.standard_normal(8))
    x0 = cache.project(rng.standard_normal(8))
    image = dense @ x0
    x0 += rng.standard_normal(8)
    assert np.allclose(cache.start_product(), image, rtol=0.0, atol=1e-11)
    assert cache.insert(x0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 40), k=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1),
       drop_tol=st.sampled_from([1e-12, 1e-10, 1e-8]),
       log_scale=st.floats(-8.0, 8.0))
def test_the_sweep_drops_every_exact_projection(make_spd, n, k, seed,
                                                drop_tol, log_scale):
    # the condition under which insert may skip the sweep for the last
    # projection: the sweep itself drops any exact projection
    rng = np.random.default_rng(seed)
    dense = make_spd(rng, n)
    cache = SubspaceCache(n, dense.__matmul__, max_cols=20,
                          drop_tol=drop_tol)
    for _ in range(k):
        cache.insert(10.0 ** log_scale * rng.standard_normal(n))
    earlier = cache.project(rng.standard_normal(n))
    latest = cache.project(rng.standard_normal(n))
    assert not np.array_equal(earlier, latest)
    products = cache.products_computed
    assert not cache.insert(earlier)
    assert cache.products_computed == products


def test_pod_strategy_keeps_the_last_n_pod_solutions_per_family(rng,
                                                                make_spd):
    dim = 8
    dense = make_spd(rng, dim)
    strat = PodStrategy(dim, dense.__matmul__, n_pod=3, eps_pod=1e-12)
    pushed = [rng.standard_normal(dim) for _ in range(5)]
    originals = [v.copy() for v in pushed]
    for v in pushed:
        strat.observe(SRC, v)
    strat.observe(CPL_PREV, pushed[0])
    for v in pushed:
        v[:] = 0.0  # the rings hold copies
    rhs = rng.standard_normal(dim)
    # the Galerkin solution on the span of the last three source solutions
    q, _ = np.linalg.qr(np.column_stack(originals[2:]))
    expected = q @ np.linalg.solve(q.T @ dense @ q, q.T @ rhs)
    assert np.allclose(strat.start_vector(SRC, rhs), expected, rtol=0.0,
                       atol=1e-8)
    u = originals[0]
    expected = u * (u @ rhs) / (u @ dense @ u)
    assert np.allclose(strat.start_vector(CPL_PREV, rhs), expected,
                       rtol=0.0, atol=1e-8)
    with pytest.raises(ValueError, match="shape"):
        strat.observe(SRC, np.zeros(dim - 1))


def test_pod_matches_dense_svd(rng, make_spd):
    dim, n_snap = 12, 5
    dense = make_spd(rng, dim)
    snaps = [rng.standard_normal(dim) for _ in range(n_snap)]
    rhs = rng.standard_normal(dim)
    x0, k, info, applies = pod_start_vector(snaps, rhs, dense.__matmul__,
                                            1e-12)
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
    dense = np.eye(dim)
    x0, k, info, applies = pod_start_vector(list(x_mat.T),
                                            rng.standard_normal(dim),
                                            dense.__matmul__, 1e-4)
    assert k == 2
    assert applies == 2
    expected_info = (1.0 + 1e-3) / (1.0 + 1e-3 + 1e-5)
    assert abs(info - expected_info) <= 1e-10


def test_pod_rank_one_snapshots(rng):
    v = rng.standard_normal(6)
    dense = np.diag(np.arange(1.0, 7.0))
    x0, k, info, applies = pod_start_vector([v, v, v], dense @ v,
                                            dense.__matmul__, 1e-4)
    assert k == 1
    # tiny spurious Gram eigenvalues keep info marginally below one
    assert info >= 1.0 - 1e-6
    assert applies == 1
    assert np.allclose(x0, v, rtol=0.0, atol=1e-8)


def test_pod_empty_and_zero_snapshots():
    for snapshots in ([], [np.zeros(4)]):
        x0, k, info, applies = pod_start_vector(snapshots, np.ones(4),
                                                np.eye(4).__matmul__, 1e-4)
        assert np.array_equal(x0, np.zeros(4))
        assert (k, info, applies) == (0, 0.0, 0)
    with pytest.raises(ValueError, match="shape"):
        pod_start_vector([np.ones(4)], np.ones(3), np.eye(4).__matmul__,
                         1e-4)


def test_pod_drops_the_mode_whose_galerkin_pivot_fails():
    # the weaker mode lies in the operator's nullspace: its Galerkin pivot
    # is zero, so the projection keeps the stronger mode alone
    dense = np.diag([1.0, 2.0, 0.0])
    snapshots = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1e-2])]
    x0, k, info, applies = pod_start_vector(
        snapshots, np.array([3.0, 1.0, 1.0]), dense.__matmul__, 1e-4)
    assert (k, applies) == (1, 2)
    assert info == pytest.approx(1.0 / 1.01, rel=1e-12)
    assert np.allclose(x0, [3.0, 0.0, 0.0], rtol=0.0, atol=1e-15)


def test_pod_galerkin_residual_is_small(rng, make_spd):
    dense = make_spd(rng, 9)
    x_star = rng.standard_normal(9)
    rhs = dense @ x_star
    x0, k, info, _ = pod_start_vector([x_star], rhs, dense.__matmul__, 1e-10)
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


def test_previous_strategy_isolates_families(rng):
    strat = PreviousSolutionStrategy(4)
    assert np.array_equal(strat.start_vector(SRC, None), np.zeros(4))
    sol_src = rng.standard_normal(4)
    sol_cpl = rng.standard_normal(4)
    strat.observe(SRC, sol_src)
    assert np.array_equal(strat.start_vector(CPL_PREV, None), np.zeros(4))
    strat.observe(CPL_PREV, sol_cpl)
    assert np.array_equal(strat.start_vector(SRC, None), sol_src)
    assert np.array_equal(strat.start_vector(CPL_PREV, None), sol_cpl)
    # returned vectors are copies, not views into the history
    out = strat.start_vector(SRC, None)
    out[:] = 0.0
    assert np.array_equal(strat.start_vector(SRC, None), sol_src)


def test_cspe_strategy_isolates_families(rng, make_spd):
    dense = make_spd(rng, 5)
    strat = CspeStrategy(5, dense.__matmul__, 20, 1e-10)
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


def test_pod_basis_size_answers_per_family(rng, make_spd):
    dense = make_spd(rng, 6)
    strat = PodStrategy(6, dense.__matmul__, n_pod=4, eps_pod=1e-10)
    assert (strat.basis_size(), strat.basis_size(SRC),
            strat.basis_size(CPL_PREV)) == (0, 0, 0)
    for _ in range(3):
        strat.observe(SRC, rng.standard_normal(6))
    strat.observe(CPL_PREV, rng.standard_normal(6))
    strat.start_vector(SRC, rng.standard_normal(6))
    strat.start_vector(CPL_PREV, rng.standard_normal(6))
    # the latest projection kept one mode, the source family's three
    assert [k for k, _ in strat.projections] == [3, 1]
    assert strat.basis_size(SRC) == 3
    assert strat.basis_size(CPL_PREV) == 1
    assert strat.basis_size() == 3


def test_make_strategy_dispatch(rng, make_spd):
    dense = make_spd(rng, 4)
    assert make_strategy(StrategyConfig("previous"), 4).kind == "previous"
    # the CSPE cap is the caller's, the whole space by default
    for max_cols, cap in ((3, 3), (None, 4)):
        cspe = make_strategy(StrategyConfig("cspe"), 4, dense.__matmul__,
                             max_cols)
        assert isinstance(cspe, CspeStrategy)
        assert all(cspe.cache(family).max_cols == cap
                   for family in RhsFamily)
    # the cache's own range check is the one check of the cap
    with pytest.raises(ValueError, match="max_cols"):
        make_strategy(StrategyConfig("cspe"), 4, dense.__matmul__, 0)
    assert isinstance(make_strategy(StrategyConfig("pod", n_pod=3), 4,
                                    dense.__matmul__), PodStrategy)
    with pytest.raises(ValueError):
        make_strategy(StrategyConfig("cspe"), 4)
    with pytest.raises(ValueError):
        make_strategy(StrategyConfig("pod"), 4)
    for unknown in ("banana", "zero"):
        with pytest.raises(ValueError):
            make_strategy(StrategyConfig(unknown), 4, dense.__matmul__)


@pytest.mark.parametrize("kind, setting", [("pod", dict(n_pod=0)),
                                           ("pod", dict(eps_pod=2.0))],
                         ids=["n_pod", "eps_pod"])
def test_a_bad_setting_fails_when_the_strategy_is_built(builtin6, kind,
                                                        setting):
    # before any solve, so before a run's start CFL estimate
    [name] = setting
    with pytest.raises(ValueError, match=name):
        make_strategy(StrategyConfig(kind, **setting), 4,
                      np.eye(4).__matmul__)
    with pytest.raises(ValueError, match=name):
        SchurOperator(builtin6.system, ExplicitConfig(
            strategy=StrategyConfig(kind, **setting)))
