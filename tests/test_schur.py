"""Eliminated-block operator, CFL estimation, and the explicit integrator."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (FAMILIES, CsrMatrix, PartitionedSystem, PcgConfig,
                     Preconditioner, RhsFamily, ScaledPatternSource,
                     SchurOperator, StepFailureError, estimate_cfl,
                     explicit_euler_step, exponential_ramp, krylov,
                     pcg_solve, recover_an, run_explicit)
from mqsolve.schur import TraceRecorder

TIGHT = PcgConfig(rel_tol=1e-12, max_iter=2000)
JACOBI = Preconditioner.JACOBI
SRC = RhsFamily.SOURCE_CURRENT
PREV = RhsFamily.COUPLING_FROM_PREVIOUS_STATE
CUR = RhsFamily.COUPLING_FROM_CURRENT_STATE


def dense_schur(blocks):
    kn_inv = np.linalg.pinv(blocks["kn"])
    return blocks["kc"] - blocks["kcn"] @ kn_inv @ blocks["kcn"].T


def test_exponential_ramp_values():
    ramp = exponential_ramp(0.5)
    assert ramp(0.0) == 0.0
    assert ramp(0.5) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-15)
    assert ramp(np.inf) == 1.0
    with pytest.raises(ValueError):
        exponential_ramp(0.0)
    with pytest.raises(ValueError):
        exponential_ramp(-1.0)


def test_scaled_pattern_source(rng):
    pattern = rng.standard_normal(5)
    src = ScaledPatternSource(pattern, exponential_ramp(0.25))
    t = 0.1
    scale = 1.0 - np.exp(-t / 0.25)
    assert np.allclose(src(t), pattern * scale, rtol=0.0, atol=1e-15)
    assert np.array_equal(src.pattern, pattern)


def test_partitioned_system_shape_validation(rng, make_linear_system):
    system, blocks = make_linear_system(rng)
    bad_kcn = CsrMatrix.from_dense(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PartitionedSystem.linear(mc=system.mc, kcn=bad_kcn, kn=system.kn,
                                 kc=system.kc_matrix(None),
                                 source=system.source)


def test_validate_flags_asymmetric_block(rng, make_linear_system):
    system, blocks = make_linear_system(rng)
    system.validate()
    asym = blocks["kn"].copy()
    asym[0, 1] += 1.0
    bad = PartitionedSystem.linear(mc=system.mc, kcn=system.kcn,
                                   kn=CsrMatrix.from_dense(asym),
                                   kc=system.kc_matrix(None),
                                   source=system.source)
    with pytest.raises(ValueError):
        bad.validate()


def test_apply_matches_dense_schur_nonsingular(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=4, n_n=6)
    op = SchurOperator(system, pcg=TIGHT)
    x = rng.standard_normal(4)
    out, _ = op.apply_detached(x, lin_state=x)
    expected = dense_schur(blocks) @ x
    assert np.allclose(out, expected, rtol=1e-9, atol=1e-12)


def test_apply_without_coupling_is_conducting_block(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=3, n_n=5)
    decoupled = PartitionedSystem.linear(
        mc=system.mc, kcn=CsrMatrix.from_dense(np.zeros((3, 5))),
        kn=system.kn, kc=system.kc_matrix(None), source=system.source)
    op = SchurOperator(decoupled, pcg=TIGHT)
    x = rng.standard_normal(3)
    out, inner = op.apply_detached(x, lin_state=x)
    assert np.allclose(out, blocks["kc"] @ x, rtol=0.0, atol=1e-12)
    # a zero coupling right-hand side needs no K_n product
    assert np.array_equal(inner, np.zeros(5))
    assert op.pcg_applies == 0
    zero, _ = op.apply_detached(np.zeros(3), lin_state=np.zeros(3))
    assert np.array_equal(zero, np.zeros(3))


def test_apply_matches_dense_schur_singular(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=4, n_n=7, singular=True)
    op = SchurOperator(system, pcg=TIGHT)
    x = rng.standard_normal(4)
    out, inner = op.apply_detached(x, lin_state=x)
    expected = dense_schur(blocks) @ x
    assert np.allclose(out, expected, rtol=1e-8, atol=1e-11)
    # from a zero start the Krylov iterates stay in the range, so the inner
    # solution is the minimum-norm one
    y_expected = np.linalg.pinv(blocks["kn"]) @ (blocks["kcn"].T @ x)
    assert np.allclose(inner, y_expected, rtol=1e-8, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_c=st.integers(1, 5),
       n_n=st.integers(2, 8))
def test_apply_detached_matches_dense_schur(make_linear_system, seed, n_c,
                                            n_n):
    rng = np.random.default_rng(seed)
    system, blocks = make_linear_system(rng, n_c=n_c, n_n=n_n, singular=True)
    op = SchurOperator(system, pcg=TIGHT)
    x = rng.standard_normal(n_c)
    out, _ = op.apply_detached(x, lin_state=x)
    expected = dense_schur(blocks) @ x
    scale = np.abs(blocks["full"]).max() * np.linalg.norm(x)
    assert np.allclose(out, expected, rtol=1e-8, atol=1e-10 * scale)
    zero, inner = op.apply_detached(np.zeros(n_c), lin_state=np.zeros(n_c))
    assert np.array_equal(zero, np.zeros(n_c))
    assert np.array_equal(inner, np.zeros(n_n))


def test_schur_operator_honours_the_pcg_preconditioner(builtin6):
    system = builtin6.system
    assert SchurOperator(system).pcg.preconditioner is JACOBI
    rhs = system.source(1e-3)
    solutions = {}
    for kind in Preconditioner:
        config = PcgConfig(preconditioner=kind)
        y, _ = SchurOperator(system, pcg=config).solve_kn(rhs, SRC)
        # the strategy's first start vector is zero
        expected, _ = pcg_solve(system.kn, rhs, x0=np.zeros(system.n_n),
                                config=config)
        assert np.array_equal(y, expected)
        solutions[kind] = y
    assert not np.array_equal(solutions[Preconditioner.NONE],
                              solutions[JACOBI])


def test_conductivity_block_must_be_diagonal(rng, make_linear_system):
    system, blocks = make_linear_system(rng)
    lumped = np.diag(blocks["mc_diag"])
    lumped[0, 1] = lumped[1, 0] = 0.1
    for mc, message in ((lumped, "diagonal"),
                        (-np.diag(blocks["mc_diag"]), "positive")):
        with pytest.raises(ValueError, match=message):
            PartitionedSystem.linear(mc=CsrMatrix.from_dense(mc),
                                     kcn=system.kcn, kn=system.kn,
                                     kc=system.kc_matrix(None),
                                     source=system.source)


@pytest.mark.parametrize("strategy", ["previous", "cspe", "pod"])
def test_non_finite_source_names_the_step_and_family(builtin6, strategy):
    system = builtin6.system

    def source(t):
        return system.source(t) * (np.nan if t > 2e-4 else 1.0)

    broken = dataclasses.replace(system, source=source)
    t, step = 0.0, 0
    while t <= 2e-4:
        t, step = t + 1e-5, step + 1
    with pytest.raises(StepFailureError,
                       match=rf"^inner solve \(source\) at step {step}: "
                             "non-finite right-hand side$"):
        run_explicit(broken, t_end=1e-3, dt=1e-5, strategy=strategy)


def test_step_and_recovery_solve_accounting(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    op = SchurOperator(system, pcg=TIGHT, strategy="previous")
    a0 = np.zeros(3)
    dt = 1e-3
    log = op.solve_iterations
    a1, (rep_src, rep_cpl) = explicit_euler_step((a0, 0.0), dt, op)
    assert log[SRC] == [rep_src.iterations]
    assert log[PREV] == [rep_cpl.iterations]
    assert log[CUR] == []
    assert rep_src.converged and rep_cpl.converged
    a_n, (rec_src, rec_cpl) = recover_an(op, a1, dt)
    assert log[SRC] == [rep_src.iterations, rec_src.iterations]
    assert log[CUR] == [rec_cpl.iterations]
    # identical source right-hand side: the recycled start vector already
    # meets the tolerance
    assert rec_src.iterations == 0
    assert sum(map(len, log.values())) == 4


def test_recovered_state_solves_algebraic_row(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=3, n_n=6)
    op = SchurOperator(system, pcg=TIGHT)
    a_c = rng.standard_normal(3)
    t = 0.2
    a_n, _ = recover_an(op, a_c, t)
    residual = (blocks["kcn"].T @ a_c + blocks["kn"] @ a_n
                - blocks["pattern"] * (1.0 - np.exp(-t / blocks["tau"])))
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(blocks["pattern"])


def test_explicit_step_matches_dense_rate(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=4, n_n=6)
    op = SchurOperator(system, pcg=TIGHT, strategy="previous")
    a0 = rng.standard_normal(4) * 0.1
    dt = 1e-3
    a1, _ = explicit_euler_step((a0, 0.0), dt, op)
    kn_inv = np.linalg.inv(blocks["kn"])
    w = 1.0 - np.exp(-dt / blocks["tau"])
    y_src = kn_inv @ (blocks["pattern"] * w)
    y_cpl = kn_inv @ (blocks["kcn"].T @ a0)
    rate = (blocks["kcn"] @ (y_cpl - y_src) - blocks["kc"] @ a0)
    expected = a0 + dt * rate / blocks["mc_diag"]
    assert np.allclose(a1, expected, rtol=1e-9, atol=1e-13)


def test_zero_dt_step_is_identity(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    op = SchurOperator(system, pcg=TIGHT)
    a0 = rng.standard_normal(3)
    a1, _ = explicit_euler_step((a0, 0.0), 0.0, op)
    assert np.array_equal(a1, a0)
    with pytest.raises(ValueError):
        explicit_euler_step((a0, 0.0), -1e-3, op)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_state_raises_named_step(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=2, n_n=4)
    # decoupled so the overflow happens in the update, not in an inner rhs
    decoupled = PartitionedSystem.linear(
        mc=CsrMatrix.identity(2),
        kcn=CsrMatrix.from_dense(np.zeros((2, 4))), kn=system.kn,
        kc=CsrMatrix.from_diagonal(np.array([10.0, 10.0])),
        source=system.source)
    op = SchurOperator(decoupled, pcg=TIGHT)
    huge = np.full(2, 1e300)
    with pytest.raises(StepFailureError, match="7"):
        explicit_euler_step((huge, 0.0), 1e9, op, step_index=7)


def test_zero_source_zero_state_stays_zero(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=3, n_n=5)
    quiet = PartitionedSystem.linear(
        mc=system.mc, kcn=system.kcn, kn=system.kn,
        kc=system.kc_matrix(None),
        source=ScaledPatternSource(np.zeros(5), exponential_ramp(0.5)))
    result = run_explicit(quiet, t_end=1e-2, dt=1e-3, strategy="previous",
                          pcg=TIGHT)
    assert np.array_equal(result.final_a_c, np.zeros(3))
    assert np.array_equal(result.final_a_n, np.zeros(5))
    assert result.aggregates["iterations"] == {
        "source": 0, "coupling_current": 0, "coupling_previous": 0}


def test_cfl_diagonal_examples(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=2, n_n=4)
    decoupled = PartitionedSystem.linear(
        mc=CsrMatrix.identity(2),
        kcn=CsrMatrix.from_dense(np.zeros((2, 4))), kn=system.kn,
        kc=CsrMatrix.from_diagonal(np.array([1.0, 4.0])),
        source=system.source)
    op = SchurOperator(decoupled, pcg=TIGHT)
    est = estimate_cfl(op, power_tol=1e-10, power_iters=500)
    assert est.lambda_max == pytest.approx(4.0, rel=1e-6)
    assert est.dt_max == pytest.approx(0.45, rel=1e-6)
    assert est.safety == 0.9

    coupled_kc = CsrMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    op2 = SchurOperator(PartitionedSystem.linear(
        mc=CsrMatrix.identity(2),
        kcn=CsrMatrix.from_dense(np.zeros((2, 4))), kn=system.kn,
        kc=coupled_kc, source=system.source), pcg=TIGHT)
    est2 = estimate_cfl(op2, power_tol=1e-10, power_iters=500)
    assert est2.lambda_max == pytest.approx(3.0, rel=1e-6)


def test_cfl_matches_dense_generalized_eigenvalue(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=6, n_n=9, singular=True)
    op = SchurOperator(system, pcg=TIGHT)
    est = estimate_cfl(op, power_tol=1e-10, power_iters=2000)
    ks = dense_schur(blocks)
    lam = scipy.linalg.eigh(ks, np.diag(blocks["mc_diag"]),
                            eigvals_only=True)[-1]
    assert est.lambda_max == pytest.approx(lam, rel=1e-6)
    assert est.dt_max == pytest.approx(0.9 * 2.0 / lam, rel=1e-6)


def test_cfl_zero_start_vector_reseeds_deterministically(rng,
                                                         make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=5)
    op = SchurOperator(system, pcg=TIGHT)
    a = estimate_cfl(op, v0=None)
    b = estimate_cfl(op, v0=np.zeros(3))
    assert a.lambda_max == b.lambda_max


def test_warm_started_cfl_estimate_resumes_below_the_dense_bound(builtin6):
    system = builtin6.system
    op = SchurOperator(system, pcg=PcgConfig(rel_tol=1e-10, max_iter=20000,
                                             preconditioner=JACOBI),
                       strategy="cspe")
    first = estimate_cfl(op)
    a_c = np.zeros(system.n_c)
    t = 0.0
    for step in range(1, 301):
        a_c, _ = explicit_euler_step((a_c, t), first.dt_max, op,
                                     step_index=step)
        t += first.dt_max
    cold = estimate_cfl(op, a_c_ref=a_c)
    warm = estimate_cfl(op, a_c_ref=a_c, v0=first.vector)

    n_c = system.n_c
    dense = np.zeros((n_c, n_c))
    for i in range(n_c):
        dense[:, i], _ = op.apply_detached(np.eye(n_c)[i], a_c)
    dense = 0.5 * (dense + dense.T)
    lam = scipy.linalg.eigh(dense, np.diag(system.mc.diagonal()),
                            eigvals_only=True)[-1]
    assert warm.power_iters < cold.power_iters
    assert cold.lambda_max <= warm.lambda_max <= lam * (1.0 + 1e-6)


def test_cfl_validation(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    op = SchurOperator(system, pcg=TIGHT)
    with pytest.raises(ValueError):
        estimate_cfl(op, safety=0.0)
    with pytest.raises(ValueError):
        estimate_cfl(op, safety=1.5)
    with pytest.raises(ValueError):
        estimate_cfl(op, power_iters=0)


def test_final_state_is_strategy_independent(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=4, n_n=8, singular=True)
    finals = {}
    for strategy in ("previous", "cspe", "pod"):
        result = run_explicit(system, t_end=1.2e-2, dt=1e-3,
                              strategy=strategy, pcg=TIGHT)
        finals[strategy] = result.final_a_c
    scale = np.linalg.norm(finals["previous"])
    for strategy in ("cspe", "pod"):
        diff = np.linalg.norm(finals[strategy] - finals["previous"])
        assert diff <= 1e-8 * max(scale, 1.0)


def test_run_explicit_rows_and_validation(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    result = run_explicit(system, t_end=1e-2, dt=1e-3, strategy="previous",
                          pcg=TIGHT, output_period=2e-3)
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(1e-2, rel=1e-12)
    assert np.all(np.diff(result.times) > 0)
    assert result.n_rows == len(result.probe_b)
    assert result.aggregates["steps"] == 10
    assert result.aggregates["solves"]["source"] >= 10
    with pytest.raises(ValueError):
        run_explicit(system, t_end=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        run_explicit(system, t_end=1.0, dt="sideways")
    with pytest.raises(ValueError):
        run_explicit(system, t_end=1.0, dt=-1e-3)
    with pytest.raises(ValueError):
        run_explicit(system, t_end=1.0, dt=1e-3, output_period=0.0)


def test_run_explicit_logs_every_cfl_refresh(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=4, n_n=8, singular=True)
    cold = estimate_cfl(SchurOperator(system, pcg=TIGHT))
    dt0 = cold.dt_max
    result = run_explicit(system, t_end=23.5 * dt0, strategy="cspe",
                          pcg=TIGHT, reestimate_every=5)
    agg = result.aggregates
    history = agg["cfl_history"]
    assert agg["cfl_refreshes"] == len(history) == 4
    assert [entry[0] for entry in history] == [5, 10, 15, 20]
    dts = [entry[3] for entry in history]
    assert dts == sorted(dts, reverse=True) and all(dt <= dt0 for dt in dts)
    assert history[-1][1] == agg["lambda_max"]
    assert history[-1][3] == agg["dt"]
    # each refresh resumes from the previous power iterate
    assert all(1 <= entry[2] < cold.power_iters for entry in history)


def test_run_explicit_step_budget(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    with pytest.raises(StepFailureError):
        run_explicit(system, t_end=1.0, dt=1e-6, strategy="previous",
                     pcg=TIGHT, max_steps=10)


def test_operator_applies_count_every_kn_product(builtin6, monkeypatch):
    # count the products pcg_solve makes with the callable K_n operator
    counted = [0]
    original = krylov._as_operator

    def as_operator(a):
        apply, n = original(a)
        if isinstance(a, CsrMatrix):
            return apply, n

        def apply_counted(x):
            counted[0] += 1
            return apply(x)
        return apply_counted, n

    monkeypatch.setattr(krylov, "_as_operator", as_operator)
    result = run_explicit(builtin6.system, t_end=1e-4, dt="auto",
                          strategy="cspe", output_period=2e-5,
                          reestimate_every=2)
    agg = result.aggregates
    assert agg["cfl_refreshes"] > 0
    assert counted[0] + agg["maintenance_applies"] == agg["operator_applies"]


@settings(max_examples=40, deadline=None)
@given(t_end=st.floats(1e-3, 1.0),
       period_frac=st.floats(0.01, 2.0),
       dt_frac=st.floats(0.005, 0.5))
def test_trace_recorder_rows_and_windows(t_end, period_frac, dt_frac):
    period, dt = period_frac * t_end, dt_frac * t_end
    iterations = {f: [] for f in FAMILIES}
    projections = []
    trace = TraceRecorder(t_end, period, lambda a_c, a_n, t: 2.0 * t,
                          iterations, projections)
    window = {f: [] for f in FAMILIES}
    window_pod = []
    expected = []

    def row(t, basis):
        trace.row(t, None, None, basis)
        expected.append((t, {f: list(v) for f, v in window.items()},
                         list(window_pod)))
        for v in window.values():
            v.clear()
        window_pod.clear()

    def log(family, count):
        iterations[family].append(count)
        window[family].append(count)

    log(SRC, 5)
    log(CUR, 7)
    row(0.0, 0)
    t, step, step_times = 0.0, 0, []
    while trace.running(t):
        t += min(dt, t_end - t)
        step += 1
        step_times.append(t)
        log(SRC, step % 4)
        log(PREV, 3 * step)
        if step % 3 == 0:
            projections.append((step % 5, 1.0 / step))
            window_pod.append(projections[-1])
        if trace.due(t):
            log(CUR, step)
            row(t, step)

    eps = 1e-12 * t_end
    crossings = {next(s for s in step_times if s >= m * period - eps)
                 for m in range(1, int(t_end / period) + 1)
                 if m * period <= t_end - eps}
    assert [t for t, _, _ in expected] == sorted({0.0, step_times[-1]}
                                                 | crossings)
    assert step_times[-1] >= t_end - eps
    rows = trace.rows
    assert rows["b"] == [2.0 * t for t, _, _ in expected]
    for i, (_, logged, pod) in enumerate(expected):
        for name, family in (("src", SRC), ("prev", PREV), ("cur", CUR)):
            mean = float(np.mean(logged[family])) if logged[family] else 0.0
            assert rows[name][i] == mean
        if pod:
            assert rows["k"][i] == max(k for k, _ in pod)
            assert rows["info"][i] == min(info for _, info in pod)
        else:
            assert (rows["k"][i], rows["info"][i]) == (0, 1.0)

    agg = trace.result(None, None, {}).aggregates
    assert agg["solves"] == {f.value: len(iterations[f]) for f in FAMILIES}
    assert agg["iterations"] == {f.value: sum(iterations[f])
                                 for f in FAMILIES}
    assert agg["max_basis_cols"] == max(rows["basis"])
    assert agg["min_pod_info"] == min(
        [info for k, info in projections if k], default=1.0)
