"""Acceptance suite: one test per shipped guarantee, measured end to end.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; add ``-rA`` to see the measured numbers each test prints.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from mqsolve import (FAMILIES, CsrMatrix, ExplicitConfig, NewtonConfig,
                     PcgConfig, SchurOperator,
                     StrategyConfig, SubspaceCache, builtin_model,
                     estimate_cfl, explicit_euler_step, gradient_incidence,
                     implicit_euler_step, make_strategy, pcg_solve,
                     run_explicit, spmv)
from mqsolve.bench import RunConfig, run_single

TIGHT = PcgConfig(rel_tol=1e-10, max_iter=20000)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Benchmark-default runs shared by the trace-level criteria.

    Three explicit runs (one per start-vector strategy) plus the implicit
    reference, all at the default configuration: nonlinear 8-cell model,
    120 ms, auto time step for the explicit runs, 0.25 ms implicit steps.
    """
    runs = {}
    for strategy in ("previous", "cspe", "pod"):
        runs[strategy] = run_single(RunConfig(strategy=strategy))[0]
    runs["implicit"] = run_single(RunConfig(integrator="implicit"))[0]
    return runs


def test_criterion_1_explicit_matches_implicit_reference(benchmark_runs):
    explicit = benchmark_runs["cspe"]
    implicit = benchmark_runs["implicit"]
    b_explicit = np.interp(implicit.times, explicit.times, explicit.probe_b)
    rel_l2 = (np.linalg.norm(b_explicit - implicit.probe_b)
              / np.linalg.norm(implicit.probe_b))
    endpoint = (abs(explicit.probe_b[-1] - implicit.probe_b[-1])
                / abs(implicit.probe_b[-1]))
    print(f"probe-field agreement: rel L2 {rel_l2:.3e} (<= 5e-2), "
          f"endpoint {endpoint:.3e} (<= 2e-2), "
          f"B(120ms) = {implicit.probe_b[-1]:.4f}")
    assert rel_l2 <= 0.05
    assert endpoint <= 0.02


def test_the_implicit_reference_keeps_its_newton_and_pcg_counts(
        benchmark_runs):
    # from its third step Newton starts from the quadratic extrapolation of
    # the last three states: one Newton iteration per step, none rejected
    # and none at half length; each update is solved to half the Newton
    # target, so about 4,900 PCG iterations where a solve to a hundredth of
    # it made 7,413
    agg = benchmark_runs["implicit"].aggregates
    assert agg["newton_iterations"] == 480
    assert agg["predictor_rejected"] == 0
    assert agg["newton_half_steps"] == 0
    assert agg["linear_iterations"] <= 5100


def test_the_cspe_run_keeps_its_product_and_basis_counts(benchmark_runs):
    # each accepted column costs one K_n product and no rebuild, so the
    # residual screen takes every step whose starts pass at once
    agg = benchmark_runs["cspe"].aggregates
    assert agg["kn_applies"] == {"pcg": 77, "upkeep": 10}
    assert agg["max_basis_cols"] == 9
    assert sum(agg["evictions"].values()) == 0
    assert agg["screened"]["accepted"] >= 6719


def test_the_cspe_run_sends_eleven_pairs_to_the_full_path(benchmark_runs):
    # the t = 0 row (w = 0), the source start of the first step that
    # screens (the source cache is empty), eight coupling estimates that
    # show a miss and one within the rounding margin
    agg = benchmark_runs["cspe"].aggregates
    assert agg["screened"] == {"accepted": 6843, "full_path": 11}
    assert agg["screen_misses"] == {"waveform": 1, "source": 1,
                                    "rejected": 8, "inconclusive": 1,
                                    "nonfinite": 0}


def test_the_pod_run_keeps_its_product_and_iteration_counts(benchmark_runs):
    # every projection applies K_n once per truncated mode, and the modes
    # go through CSPE's K_n-Gram-Schmidt and pivot floor
    agg = benchmark_runs["pod"].aggregates
    assert agg["kn_applies"]["upkeep"] == 13824
    assert agg["iterations"] == {"source": 17, "coupling_previous": 8733}


REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "references"
             / "probe_cells8_t0.12.csv")


def test_explicit_traces_match_the_stored_reference(benchmark_runs):
    # explicit Euler with the rate at the step's start is within a few 1e-6
    # of the implicit run at dt 6.25e-5; a source taken at t + dt instead
    # lags the trace by about 2.4e-4
    stored = np.loadtxt(REFERENCE, delimiter=",", comments="#", skiprows=2)
    times, probe = stored[:, 0], stored[:, 1]
    for strategy in ("previous", "cspe", "pod"):
        run = benchmark_runs[strategy]
        b = np.interp(times, run.times, run.probe_b)
        rel_l2 = np.linalg.norm(b - probe) / np.linalg.norm(probe)
        print(f"{strategy} against the stored reference: rel L2 "
              f"{rel_l2:.3e} (<= 1e-5)")
        assert rel_l2 <= 1e-5


def test_criterion_2_pcg_iteration_ordering(benchmark_runs):
    means = {}
    for strategy in ("previous", "cspe", "pod"):
        agg = benchmark_runs[strategy].aggregates
        means[strategy] = (sum(agg["iterations"].values())
                           / sum(agg["solves"].values()))
    print(f"mean PCG iterations per solve: cspe {means['cspe']:.3f} "
          f"<= pod {means['pod']:.3f} <= previous {means['previous']:.3f}, "
          f"cspe/previous = {means['cspe'] / means['previous']:.3f}")
    assert means["cspe"] <= means["pod"] <= means["previous"]
    assert means["cspe"] <= 0.6 * means["previous"]


def test_criterion_3_galerkin_exactness_trials(rng):
    trials = 100
    passed = {"cspe": 0, "pod": 0}
    for _ in range(trials):
        n = int(rng.integers(10, 401))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        dense = (q * rng.uniform(0.5, 5.0, n)) @ q.T
        dense = 0.5 * (dense + dense.T)
        matrix = CsrMatrix.from_dense(dense)
        history = rng.standard_normal((n, 4))
        rhs = dense @ (history @ rng.standard_normal(4))
        config = PcgConfig(rel_tol=1e-8, max_iter=n + 10)
        for kind in ("cspe", "pod"):
            strategy = make_strategy(StrategyConfig(kind), n,
                                     operator=lambda v: dense @ v)
            for column in history.T:
                strategy.observe(column)
            x0, _ = strategy.start_vector(rhs)
            _, report = pcg_solve(matrix, rhs, x0=x0, config=config)
            passed[kind] += report.iterations == 0
    print(f"zero-iteration starts: cspe {passed['cspe']}/{trials}, "
          f"pod {passed['pod']}/{trials}")
    assert passed["cspe"] == trials
    assert passed["pod"] == trials


def test_criterion_4_cfl_dichotomy(builtin6_linear, schur_action):
    system = builtin6_linear.system
    op = SchurOperator(system, ExplicitConfig(
        pcg=TIGHT, strategy=StrategyConfig("previous")))
    estimate = estimate_cfl(system, pcg=TIGHT)

    # dense reference for the eliminated operator, column by column
    n_c = system.n_c
    zeros = np.zeros(n_c)
    dense = np.zeros((n_c, n_c))
    for i in range(n_c):
        unit = np.zeros(n_c)
        unit[i] = 1.0
        dense[:, i], _ = schur_action(op, unit, zeros)
    dense = 0.5 * (dense + dense.T)
    reference = scipy.linalg.eigh(dense, np.diag(system.mc.diagonal()),
                                  eigvals_only=True)[-1]
    rel = abs(estimate.lambda_max - reference) / reference
    print(f"lanczos {estimate.lambda_max:.5e} vs dense {reference:.5e} "
          f"({n_c} dofs): rel diff {rel:.2e} (<= 2e-2)")
    assert rel <= 0.02

    solve = PcgConfig(rel_tol=1e-8, max_iter=5000)
    dt_stable = 0.95 * 2.0 / estimate.lambda_max
    op_stable = SchurOperator(system, ExplicitConfig(
        pcg=solve, strategy=StrategyConfig("cspe")))
    a_c = np.zeros(n_c)
    t = 0.0
    max_norm = 0.0
    for step in range(1000):
        a_c = explicit_euler_step((a_c, t), dt_stable, op_stable,
                                  step_index=step)
        t += dt_stable
        max_norm = max(max_norm, float(np.linalg.norm(a_c)))
    final_norm = float(np.linalg.norm(a_c))
    print(f"stable dt: max |a| {max_norm:.3e} over 1000 steps, "
          f"final {final_norm:.3e}")
    assert np.isfinite(max_norm)
    assert final_norm > 0
    assert max_norm <= 2.0 * final_norm

    dt_unstable = 2.5 * 2.0 / estimate.lambda_max
    op_unstable = SchurOperator(system, ExplicitConfig(
        pcg=solve, strategy=StrategyConfig("previous")))
    a_c = np.zeros(n_c)
    t = 0.0
    norms = []
    growth = 0.0
    for step in range(100):
        a_c = explicit_euler_step((a_c, t), dt_unstable, op_unstable,
                                  step_index=step)
        t += dt_unstable
        norms.append(float(np.linalg.norm(a_c)))
        # reference amplitude once the ramp has injected a signal; the
        # state is identically zero until the source switches on
        if len(norms) > 10:
            growth = norms[-1] / norms[9]
            if growth > 1e3:
                break
    print(f"unstable dt: growth {growth:.3e} (> 1e3) "
          f"after {len(norms)} steps")
    assert growth > 1e3


def test_criterion_5_pod_information_criterion(benchmark_runs):
    result = benchmark_runs["pod"]
    floor = result.aggregates["min_pod_info"]
    # rows 0 and 1 cover the cold start: the t = 0 field is identically
    # zero, so the first snapshots are zero vectors and the first window
    # legitimately reports no information kept
    trace_floor = result.pod_info[2:].min()
    print(f"info kept: min over projections {floor:.6f}, "
          f"min trace row {trace_floor:.6f} (> 0.99)")
    assert floor > 0.99
    assert trace_floor > 0.99


def test_criterion_6_cspe_cost_invariant(benchmark_runs, builtin6,
                                         counting_operator, rng):
    # cache level: one operator product per accepted column, never
    # recomputed, basis capped
    dim = 60
    counter = counting_operator(lambda v: 3.0 * v)
    cache = SubspaceCache(dim, counter, max_cols=20)
    for insertion in range(30):
        before = cache.cached_products.copy()
        count_before = counter.count
        assert cache.insert(rng.standard_normal(dim))
        assert counter.count - count_before == 1
        kept = cache.cached_products[:, :-1]
        previous = before if before.shape[1] < 20 else before[:, 1:]
        assert np.array_equal(kept, previous)
    assert counter.count == 30
    assert cache.products_computed == cache.columns_accepted == 30
    assert cache.size == 20
    assert cache.evictions == 10

    # integrated: at most one new product per family per step
    system = builtin6.system
    kn = system.kn.to_scipy()
    counter = counting_operator(lambda v: kn @ v)
    strategies = {family: make_strategy(StrategyConfig("cspe"), system.n_n,
                                        operator=counter)
                  for family in FAMILIES}
    solve = PcgConfig(rel_tol=1e-8, max_iter=5000)
    op = SchurOperator(system, ExplicitConfig(pcg=solve), strategies)
    a_c = np.zeros(system.n_c)
    t = 0.0

    def columns():
        return max(strategy.size for strategy in strategies.values())
    for step in range(12):
        count_before = counter.count
        cols_before = columns()
        a_c = explicit_euler_step((a_c, t), 2e-5, op, step_index=step)
        t += 2e-5
        new_products = counter.count - count_before
        assert new_products <= 2  # two families solve per step
        assert columns() - cols_before <= new_products
    assert counter.count == sum(strategy.products_computed
                                for strategy in strategies.values())
    sizes = {family.value: strategy.size
             for family, strategy in strategies.items()}
    assert all(size <= 20 for size in sizes.values())

    # full benchmark run never exceeds the cap
    aggregates = benchmark_runs["cspe"].aggregates
    print(f"products {counter.count} for {columns()} columns "
          f"over 12 steps {sizes}; benchmark max basis "
          f"{aggregates['max_basis_cols']} (<= 20)")
    assert aggregates["max_basis_cols"] <= 20
    assert benchmark_runs["cspe"].basis_cols.max() <= 20


def test_criterion_7_order_of_accuracy(make_linear_system, rng, corner_toy):
    system, blocks = make_linear_system(rng, n_c=4, n_n=7)
    mc = blocks["mc_diag"]
    kc, kcn, kn = blocks["kc"], blocks["kcn"], blocks["kn"]
    pattern, tau = blocks["pattern"], blocks["tau"]

    def rate(t, x):
        current = pattern * (1.0 - np.exp(-t / tau))
        inner = np.linalg.solve(kn, kcn.T @ x - current)
        return (kcn @ inner - kc @ x) / mc

    t_end = 0.2
    exact = scipy.integrate.solve_ivp(
        rate, (0.0, t_end), np.zeros(4), method="DOP853",
        rtol=1e-12, atol=1e-14, t_eval=[t_end]).y[:, -1]
    errors = []
    for dt in (0.02, 0.01, 0.005):
        result = run_explicit(system, dt=dt, t_end=t_end,
                              config=ExplicitConfig(
                                  pcg=TIGHT,
                                  strategy=StrategyConfig("previous")),
                              output_period=t_end)
        errors.append(np.linalg.norm(result.final_a_c - exact))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    print(f"error ratios under dt halving: "
          f"{ratios[0]:.3f}, {ratios[1]:.3f} (2.0 +- 0.2)")
    assert all(1.8 <= ratio <= 2.2 for ratio in ratios)

    # linearization of the backward-difference residual vs central
    # differences, at a state past one nonlinear step
    system = corner_toy.system
    n_c, n_n = system.n_c, system.n_n
    dt = 0.05
    newton = NewtonConfig(tol=1e-10)
    a_prev = np.zeros(n_c)
    a_c, a_n, _ = implicit_euler_step((a_prev, np.zeros(n_n), 0.0), dt,
                                      system, config=newton)
    state = np.concatenate([a_c, a_n])
    current = system.source(dt)
    mc_diag = system.mc.diagonal()
    kcn_dense = system.kcn.to_dense()
    kn_dense = system.kn.to_dense()

    def residual(z):
        zc, zn = z[:n_c], z[n_c:]
        top = (mc_diag * (zc - a_prev) / dt + system.kc_apply(zc)
               + kcn_dense @ zn)
        bottom = kcn_dense.T @ zc + kn_dense @ zn - current
        return np.concatenate([top, bottom])

    jacobian = np.zeros((n_c + n_n, n_c + n_n))
    jacobian[:n_c, :n_c] = (system.kc_jacobian(a_c).to_dense()
                            + np.diag(mc_diag / dt))
    jacobian[:n_c, n_c:] = kcn_dense
    jacobian[n_c:, :n_c] = kcn_dense.T
    jacobian[n_c:, n_c:] = kn_dense

    eps = 1e-6 * np.linalg.norm(state)
    worst = 0.0
    for _ in range(8):
        direction = rng.standard_normal(n_c + n_n)
        direction /= np.linalg.norm(direction)
        fd = (residual(state + eps * direction)
              - residual(state - eps * direction)) / (2.0 * eps)
        exact_dir = jacobian @ direction
        worst = max(worst, np.linalg.norm(exact_dir - fd)
                    / np.linalg.norm(exact_dir))
    print(f"linearization vs finite differences: worst rel {worst:.3e} "
          f"(<= 1e-6)")
    assert worst <= 1e-6


def test_criterion_8_weak_gauging():
    for cells in range(6, 13):
        model = builtin_model(cells=cells)
        kn = model.system.kn
        n = kn.shape[0]
        rng = np.random.default_rng(cells)
        rhs = spmv(kn, rng.standard_normal(n))
        _, report = pcg_solve(kn, rhs,
                              config=PcgConfig(rel_tol=1e-8, max_iter=n))
        assert report.converged
        assert report.iterations <= n

        # discrete gradient of a potential vanishing on boundary nodes and
        # on the nodes of conducting edges spans the gauge nullspace
        incidence = gradient_incidence(model.grid)
        interior = model.interior_edges
        potential = np.random.default_rng(7).standard_normal(
            incidence.shape[1])
        boundary = np.setdiff1d(np.arange(incidence.shape[0]), interior)
        for rows in (boundary, interior[model.conducting]):
            potential[np.unique(incidence[rows].indices)] = 0.0
        gradient = (incidence @ potential)[interior][model.nonconducting]
        rel = (np.linalg.norm(spmv(kn, gradient))
               / (np.abs(kn.values).max() * np.linalg.norm(gradient)))
        print(f"cells={cells}: n={n}, {report.iterations} iterations, "
              f"nullspace residual {rel:.2e} (<= 1e-12)")
        assert rel <= 1e-12
