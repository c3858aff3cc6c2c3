"""Eliminated-block operator, CFL estimation, and the explicit integrator."""

import cProfile
import dataclasses
import os
import pstats
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqsolve import (FAMILIES, CsrMatrix, ExplicitConfig, NewtonConfig,
                     PartitionedSystem, PcgConfig, RhsFamily,
                     ScaledPatternSource, SchurOperator, StepFailureError,
                     StrategyConfig, build_preconditioner, estimate_cfl,
                     explicit_euler_step, exponential_ramp, krylov,
                     make_strategy, pcg_solve, recover_an, run_explicit,
                     schur)
from mqsolve.schur import TraceRecorder
from mqsolve.sparse import spmv, spmv_transpose

TIGHT = PcgConfig(rel_tol=1e-12, max_iter=2000)
SRC = RhsFamily.SOURCE_CURRENT
PREV = RhsFamily.COUPLING_FROM_PREVIOUS_STATE
STRATEGIES = ("previous", "cspe", "pod")


def explicit(kind, **fields):
    """Run settings with the start-vector method *kind*."""
    return ExplicitConfig(strategy=StrategyConfig(kind), **fields)


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
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            exponential_ramp(bad)


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


def test_apply_matches_dense_schur_nonsingular(rng, make_linear_system,
                                                schur_action):
    system, blocks = make_linear_system(rng, n_c=4, n_n=6)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    x = rng.standard_normal(4)
    out, _ = schur_action(op, x, x)
    expected = dense_schur(blocks) @ x
    assert np.allclose(out, expected, rtol=1e-9, atol=1e-12)


def test_apply_without_coupling_is_conducting_block(rng, make_linear_system,
                                                    schur_action, monkeypatch):
    system, blocks = make_linear_system(rng, n_c=3, n_n=5)
    decoupled = PartitionedSystem.linear(
        mc=system.mc, kcn=CsrMatrix.from_dense(np.zeros((3, 5))),
        kn=system.kn, kc=system.kc_matrix(None), source=system.source)
    op = SchurOperator(decoupled, explicit("previous", pcg=TIGHT))
    x = rng.standard_normal(3)
    counted = count_products_by_cause(monkeypatch)
    out, inner = schur_action(op, x, x)
    assert np.allclose(out, blocks["kc"] @ x, rtol=0.0, atol=1e-12)
    # a zero coupling right-hand side needs no K_n product
    assert np.array_equal(inner, np.zeros(5))
    assert counted["total"] == 0
    zero, _ = schur_action(op, np.zeros(3), np.zeros(3))
    assert np.array_equal(zero, np.zeros(3))


def test_apply_matches_dense_schur_singular(rng, make_linear_system,
                                            schur_action):
    system, blocks = make_linear_system(rng, n_c=4, n_n=7, singular=True)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    x = rng.standard_normal(4)
    out, inner = schur_action(op, x, x)
    expected = dense_schur(blocks) @ x
    assert np.allclose(out, expected, rtol=1e-8, atol=1e-11)
    # from a zero start the Krylov iterates stay in the range, so the inner
    # solution is the minimum-norm one
    y_expected = np.linalg.pinv(blocks["kn"]) @ (blocks["kcn"].T @ x)
    assert np.allclose(inner, y_expected, rtol=1e-8, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_c=st.integers(1, 5),
       n_n=st.integers(2, 8))
# K_cn^T x formed with cancellation: its rounding-level nullspace component
# is above rel_tol, where PCG drifted along the nullspace (692663) or
# reported an indefinite operator (61)
@example(seed=692663, n_c=2, n_n=2)
@example(seed=61, n_c=2, n_n=2)
def test_apply_detached_matches_dense_schur(make_linear_system, schur_action,
                                            seed, n_c, n_n):
    rng = np.random.default_rng(seed)
    system, blocks = make_linear_system(rng, n_c=n_c, n_n=n_n, singular=True)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    x = rng.standard_normal(n_c)
    out, _ = schur_action(op, x, x)
    expected = dense_schur(blocks) @ x
    scale = np.abs(blocks["full"]).max() * np.linalg.norm(x)
    assert np.allclose(out, expected, rtol=1e-8, atol=1e-10 * scale)
    zero, inner = schur_action(op, np.zeros(n_c), np.zeros(n_c))
    assert np.array_equal(zero, np.zeros(n_c))
    assert np.array_equal(inner, np.zeros(n_n))


def test_schur_operator_preconditions_with_jacobi_under_any_pcg_config(
        builtin6):
    # a PcgConfig sets tolerances only: one built for a run keeps Jacobi
    system = builtin6.system
    rhs = system.source(1e-3)
    config = PcgConfig(rel_tol=1e-6)
    y, _ = SchurOperator(system, ExplicitConfig(pcg=config)).solve_kn(rhs,
                                                                      SRC)
    # the strategy's first start vector is zero
    x0 = np.zeros(system.n_n)
    jacobi, _ = pcg_solve(system.kn, rhs, x0=x0, config=config,
                          preconditioner=build_preconditioner(system.kn))
    plain, _ = pcg_solve(system.kn, rhs, x0=x0, config=config)
    assert np.array_equal(y, jacobi)
    assert not np.array_equal(y, plain)


def test_the_cspe_basis_cap_is_n_c(builtin6, rng, make_linear_system):
    # the coupling solutions K_n^+ K_cn^T a_c span at most n_c directions
    for system in (builtin6.system, make_linear_system(rng)[0]):
        strategies = SchurOperator(system).strategies
        for family in FAMILIES:
            assert strategies[family].max_cols == system.n_c


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
    # step k + 1 takes its source at t_k, the first bad time; no output row
    # falls at t_k to solve it first
    with pytest.raises(StepFailureError,
                       match=rf"^inner solve \(source\) at step {step + 1}: "
                             "non-finite right-hand side$"):
        run_explicit(broken, t_end=1e-3, dt=1e-5, config=explicit(strategy))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_stalled_inner_solve_names_the_step_and_family(builtin6, strategy):
    # cspe solves from its cached residual, previous and pod by PCG from
    # their start vector; the t = 0 row's solves, which step 1 takes, have
    # zero right-hand sides, so step 2 makes the first real solve
    one_iteration = PcgConfig(max_iter=1)
    with pytest.raises(StepFailureError,
                       match=r"^inner solve \(source\) at step 2 stalled at "
                             r"relative residual \S+ after 1 iterations$"):
        run_explicit(builtin6.system, t_end=1e-4, dt=1e-5,
                     config=explicit(strategy, pcg=one_iteration))


def test_step_and_recovery_solve_accounting(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    dt = 1e-3
    log = op.solve_iterations
    # a step without a force solves both families once
    a1 = explicit_euler_step((np.zeros(3), 0.0), dt, op)
    assert [len(log[SRC]), len(log[PREV])] == [1, 1]
    # recovery solves both, under the stepping families
    a_n, force = recover_an(op, a1, dt)
    assert [len(log[SRC]), len(log[PREV])] == [2, 2]
    # a_n = y_src - y_cpl, and the force is K_cn (y_cpl - y_src)
    assert np.array_equal(force, spmv(system.kcn, -a_n))
    # the next step takes that force and solves nothing
    a2 = explicit_euler_step((a1, dt), dt, op, force=force)
    assert [len(log[SRC]), len(log[PREV])] == [2, 2]
    # it is the pair the step would have solved itself
    again = SchurOperator(system, explicit("previous", pcg=TIGHT))
    b1 = explicit_euler_step((np.zeros(3), 0.0), dt, again)
    b2 = explicit_euler_step((b1, dt), dt, again)
    assert np.array_equal(a2, b2)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_solves_each_family_once_per_step_and_once_more(
        rng, make_linear_system, strategy):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    result = run_explicit(system, t_end=1e-2, dt=1e-3,
                          config=explicit(strategy, pcg=TIGHT),
                          output_period=2e-3)
    n = result.aggregates["steps"]
    assert (n, result.n_rows) == (10, 6)
    # each row's pair is the next step's; the last row's has no step
    # after it
    assert result.aggregates["solves"] == {"source": n + 1,
                                           "coupling_previous": n + 1}


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=20, deadline=None)
@given(period=st.floats(5e-6, 3e-4))
# a row after every step; rows at 0 and t_end only
@example(period=1e-5)
@example(period=2e-4)
def test_output_rows_leave_the_trajectory_bit_for_bit(builtin6, strategy,
                                                      period):
    # a row makes the pair of solves the next step would make itself, so
    # where the rows fall, on step times or between them, changes nothing
    def run(output_period):
        return run_explicit(builtin6.system, t_end=2e-4, dt=1e-5,
                            config=explicit(strategy),
                            output_period=output_period)

    rows_only_at_the_ends, drawn = run(2e-4), run(period)
    assert rows_only_at_the_ends.n_rows == 2
    if period <= 1e-5:
        assert drawn.n_rows == 21
    assert np.array_equal(drawn.final_a_c, rows_only_at_the_ends.final_a_c)
    assert np.array_equal(drawn.final_a_n, rows_only_at_the_ends.final_a_n)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_final_field_solves_algebraic_row(rng, make_linear_system,
                                              strategy):
    system, blocks = make_linear_system(rng, n_c=4, n_n=8, singular=True)
    tol = 1e-10
    t_end = 1.2e-2
    pcg = PcgConfig(rel_tol=tol, max_iter=2000)
    result = run_explicit(system, t_end=t_end, dt=1e-3,
                          config=explicit(strategy, pcg=pcg),
                          output_period=5e-3)
    a_c, a_n = result.final_a_c, result.final_a_n
    coupling = blocks["kcn"].T @ a_c
    source = blocks["pattern"] * (1.0 - np.exp(-t_end / blocks["tau"]))
    residual = coupling + blocks["kn"] @ a_n - source
    # each of the two solves meets rel_tol against its own right-hand side
    assert np.linalg.norm(residual) <= 2 * tol * (
        np.linalg.norm(coupling) + np.linalg.norm(source))


def test_recovered_state_solves_algebraic_row(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=3, n_n=6)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    a_c = rng.standard_normal(3)
    t = 0.2
    a_n, _ = recover_an(op, a_c, t)
    residual = (blocks["kcn"].T @ a_c + blocks["kn"] @ a_n
                - blocks["pattern"] * (1.0 - np.exp(-t / blocks["tau"])))
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(blocks["pattern"])


def test_explicit_step_matches_dense_rate(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=4, n_n=6)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    a0 = rng.standard_normal(4) * 0.1
    # explicit Euler takes the rate f(t, a0) at the step's start; t > 0, so
    # j(t) is not zero and differs from j(t + dt) by far more than rel_tol
    t, dt = 0.05, 1e-3
    a1 = explicit_euler_step((a0, t), dt, op)
    kn_inv = np.linalg.inv(blocks["kn"])
    w = 1.0 - np.exp(-t / blocks["tau"])
    y_src = kn_inv @ (blocks["pattern"] * w)
    y_cpl = kn_inv @ (blocks["kcn"].T @ a0)
    rate = (blocks["kcn"] @ (y_cpl - y_src) - blocks["kc"] @ a0)
    expected = a0 + dt * rate / blocks["mc_diag"]
    assert np.allclose(a1, expected, rtol=1e-9, atol=1e-13)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_step_and_the_recovery_share_one_rate(builtin6, strategy):
    # two operators with one history: each takes five steps from rest
    system = builtin6.system
    settings = explicit(strategy)
    dt = settings.stable_step(schur.stability_bound(system))
    ops = [SchurOperator(system, settings) for _ in range(2)]
    for op in ops:
        a_c, t = np.zeros(system.n_c), 0.0
        for step in range(1, 6):
            a_c = explicit_euler_step((a_c, t), dt, op, step)
            t += dt
    recovered, solving = ops

    def solves(op):
        return [len(op.solve_iterations[f]) for f in FAMILIES]

    # without a pair the rate makes one solve per family
    before = solves(solving)
    own = schur.rate(solving, a_c, t, 6)
    assert solves(solving) == [n + 1 for n in before]
    # the recovery's force gives the same rate bit for bit, and no solve
    a_n, force = recover_an(recovered, a_c, t, 6)
    assert np.array_equal(force, spmv(system.kcn, -a_n))
    before = solves(recovered)
    given = schur.rate(recovered, a_c, t, 6, force)
    assert solves(recovered) == before
    assert np.array_equal(given, own)
    assert np.any(given != 0.0)
    # the step is a_c + dt * rate, bit for bit
    stepped = explicit_euler_step((a_c, t), dt, recovered, 6, force)
    assert np.array_equal(stepped, a_c + dt * given)
    assert solves(recovered) == before


def test_zero_dt_step_is_identity(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    a0 = rng.standard_normal(3)
    a1 = explicit_euler_step((a0, 0.0), 0.0, op)
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
    op = SchurOperator(decoupled, explicit("previous", pcg=TIGHT))
    huge = np.full(2, 1e300)
    with pytest.raises(StepFailureError, match="7"):
        explicit_euler_step((huge, 0.0), 1e9, op, step_index=7)


def test_a_finite_state_whose_sum_of_squares_overflows_steps(
        rng, make_linear_system):
    # the sum of squares of a_next overflows although every entry is
    # finite: the step tests the entries, so it returns without a warning.
    # A given force keeps the state out of the solves, whose right-hand
    # side would overflow its own sum of squares.
    system, _ = make_linear_system(rng)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    big = np.full(system.n_c, 1e200)
    zeros = np.zeros(system.n_c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a1 = explicit_euler_step((big, 0.0), 0.0, op, step_index=3,
                                 force=zeros)
        a2 = explicit_euler_step((big, 0.0), 1e-3, op, step_index=4,
                                 force=zeros)
    assert np.array_equal(a1, big)
    assert np.isfinite(a2).all() and not np.array_equal(a2, big)


def test_a_nan_state_raises_named_step(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    op = SchurOperator(system, explicit("previous", pcg=TIGHT))
    poisoned = np.array([0.1, np.nan, 0.2])
    # a given force skips the only solve that sees the state, so the
    # state's own test raises
    with pytest.raises(StepFailureError,
                       match=r"^non-finite conducting state at step 9 "):
        explicit_euler_step((poisoned, 0.0), 1e-3, op, step_index=9,
                            force=np.zeros(system.n_c))


def test_a_cached_step_makes_few_python_calls(builtin6):
    """Python calls into mqsolve on the first explicit CSPE step that makes
    no K_n product from caches that already hold a column, so both of its
    solves return their start from cached products: a deterministic proxy
    for the step's per-call overhead. Step 1 makes no product either, since
    both of its right-hand sides are zero, but its calls set up the caches'
    first projections.

    Before ``solve_kn`` took the cached-image case without a call to
    ``_solve_from_image`` and ``kc_apply`` called the CSR kernel directly,
    such a step made 39 calls at 6 and at 8 cells, and 33 while a wrapper
    forwarded each solve's start_vector and start_product to the family's
    cache, 29 while ``kc_apply`` made eight, and 28 while it made seven.
    It now makes 27, two of them one cache's Cholesky refactorization: per
    solve, ``start_vector`` returns the start with its image and
    ``observe`` takes the solution back. The step calls ``rate``, which calls
    ``_solve_pair`` for the two solves; both apply K_cn^T and K_cn by
    ``_matvec`` directly, as ``kc_apply`` does, not through
    ``spmv_transpose`` and ``spmv``.
    """
    package = str(Path(schur.__file__).parent) + os.sep
    system = builtin6.system
    op = SchurOperator(system, explicit("cspe"))
    dt = op.config.stable_step(schur.stability_bound(system))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    def products():
        return sum(op.kn_applies.values())

    a_c, t = np.zeros(system.n_c), 0.0
    outer = sys.getprofile()
    for step in range(1, 50):
        before, calls = products(), 0
        held = min(s.size for s in op.strategies.values())
        sys.setprofile(count)
        try:
            a_c = explicit_euler_step((a_c, t), dt, op, step_index=step)
        finally:
            sys.setprofile(outer)
        t += dt
        if held and products() == before:
            break
    else:
        pytest.fail("every step made a K_n product")
    assert [log[-1] for log in op.solve_iterations.values()] == [0, 0]
    assert 0 < calls <= 27


def test_cspe_evictions_reach_the_aggregates(builtin6, rng,
                                            make_linear_system):
    # the basis cap is n_c = 2 columns per family; a source j = K_n v(t)
    # whose solution v(t) turns through four directions overflows it
    system, blocks = make_linear_system(rng, n_c=2, n_n=6)
    directions = np.linalg.qr(rng.standard_normal((6, 4)))[0]

    def source(t):
        turn = 2.0 * np.pi * t
        v = directions @ np.array([np.cos(turn), np.sin(turn),
                                   np.cos(2.0 * turn), np.sin(2.0 * turn)])
        return blocks["kn"] @ v

    turning = dataclasses.replace(system, source=source)
    result = run_explicit(turning, t_end=1.0, dt=1e-2, config=explicit("cspe"),
                          output_period=0.1)
    evictions = result.aggregates["evictions"]
    assert evictions["source"] > 0
    # the coupling solutions span n_c directions, which the cap holds
    assert evictions["coupling_previous"] == 0
    for strategy in STRATEGIES:
        result = run_explicit(builtin6.system, t_end=3e-4, dt=1e-5,
                              config=explicit(strategy), output_period=1e-4)
        assert result.aggregates["evictions"] == {"source": 0,
                                                  "coupling_previous": 0}


def test_zero_source_zero_state_stays_zero(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=3, n_n=5)
    quiet = PartitionedSystem.linear(
        mc=system.mc, kcn=system.kcn, kn=system.kn,
        kc=system.kc_matrix(None),
        source=ScaledPatternSource(np.zeros(5), exponential_ramp(0.5)))
    result = run_explicit(quiet, t_end=1e-2, dt=1e-3,
                          config=explicit("previous", pcg=TIGHT))
    assert np.array_equal(result.final_a_c, np.zeros(3))
    assert np.array_equal(result.final_a_n, np.zeros(5))
    assert result.aggregates["iterations"] == {
        "source": 0, "coupling_previous": 0}


def test_cfl_diagonal_examples(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=2, n_n=4)
    decoupled = PartitionedSystem.linear(
        mc=CsrMatrix.identity(2),
        kcn=CsrMatrix.from_dense(np.zeros((2, 4))), kn=system.kn,
        kc=CsrMatrix.from_diagonal(np.array([1.0, 4.0])),
        source=system.source)
    settings = explicit("previous", pcg=TIGHT)
    lanczos = dict(pcg=TIGHT, cfl_tol=1e-10, cfl_steps=500)
    est = estimate_cfl(decoupled, **lanczos)
    assert est.lambda_max == pytest.approx(4.0, rel=1e-6)
    # without coupling the bound is the eigenvalue itself
    assert est.ceiling == pytest.approx(4.0, rel=1e-14)
    assert settings.stable_step(est.ceiling) == pytest.approx(0.45,
                                                              rel=1e-14)
    with pytest.raises(StepFailureError, match="not positive"):
        settings.stable_step(0.0)
    # the basis spans the whole space after n_c = 2 steps: theta is exact
    assert (est.power_iters, est.residual) == (2, 0.0)

    coupled_kc = CsrMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    est2 = estimate_cfl(PartitionedSystem.linear(
        mc=CsrMatrix.identity(2),
        kcn=CsrMatrix.from_dense(np.zeros((2, 4))), kn=system.kn,
        kc=coupled_kc, source=system.source), **lanczos)
    assert est2.lambda_max == pytest.approx(3.0, rel=1e-6)


def test_cfl_matches_dense_generalized_eigenvalue(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=6, n_n=9, singular=True)
    est = estimate_cfl(system, pcg=TIGHT, cfl_tol=1e-10, cfl_steps=2000)
    ks = dense_schur(blocks)
    lam = scipy.linalg.eigh(ks, np.diag(blocks["mc_diag"]),
                            eigvals_only=True)[-1]
    assert est.lambda_max == pytest.approx(lam, rel=1e-6)
    assert lam <= est.ceiling == schur.stability_bound(system)


def test_cfl_validation(builtin6, monkeypatch):
    # the message starts with the field's name, which RunConfig maps to its
    # own key
    for field, value in (("safety", 0.0), ("safety", 1.5),
                         ("reestimate_every", -3),
                         ("reestimate_every", 2.5),
                         ("reestimate_every", True)):
        with pytest.raises(ValueError, match=f"^{field} "):
            ExplicitConfig(**{field: value})
    # the inner solves' tolerances must be finite too, and the counts
    # integers
    for field, value in (("rel_tol", np.inf), ("rel_tol", np.nan),
                         ("abs_tol", np.inf), ("abs_tol", np.nan),
                         ("max_iter", 10.5), ("max_iter", 0),
                         ("max_iter", True)):
        with pytest.raises(ValueError, match=f"^{field} "):
            PcgConfig(**{field: value})
    for value in (2.5, 0, True):
        with pytest.raises(ValueError, match="^max_newton "):
            NewtonConfig(max_newton=value)
    # an integer of another type is a count
    assert ExplicitConfig(reestimate_every=np.int64(3)).reestimate_every == 3

    # the Lanczos estimate checks its budget and tolerance before its first
    # inner solve
    def no_solve(*args, **kwargs):
        raise AssertionError("estimate_cfl solved before checking")

    monkeypatch.setattr(schur, "pcg_solve", no_solve)
    for field, value in (("cfl_steps", 0), ("cfl_steps", -1),
                         ("cfl_steps", 2.5), ("cfl_steps", True),
                         ("cfl_tol", -1.0), ("cfl_tol", np.nan),
                         ("cfl_tol", np.inf)):
        with pytest.raises(ValueError, match=f"^{field} "):
            estimate_cfl(builtin6.system, **{field: value})


def test_cfl_invariant_subspace_stops_with_the_exact_value(rng,
                                                           make_linear_system):
    # two distinct eigenvalues: the Krylov space is invariant after two steps
    system, _ = make_linear_system(rng, n_c=5, n_n=4)
    est = estimate_cfl(PartitionedSystem.linear(
        mc=CsrMatrix.identity(5),
        kcn=CsrMatrix.from_dense(np.zeros((5, 4))), kn=system.kn,
        kc=CsrMatrix.from_diagonal(np.array([1.0, 4.0, 1.0, 4.0, 1.0])),
        source=system.source), pcg=TIGHT, cfl_tol=0.0)
    assert est.power_iters == 2
    assert est.residual == 0.0
    assert est.lambda_max == pytest.approx(4.0, rel=1e-12)


def dense_lambda_max(op, a_c, schur_action):
    """Top generalized eigenvalue of K_S(a_c), assembled column by column."""
    n_c = op.system.n_c
    dense = np.zeros((n_c, n_c))
    for i in range(n_c):
        dense[:, i], _ = schur_action(op, np.eye(n_c)[i], a_c)
    dense = 0.5 * (dense + dense.T)
    return scipy.linalg.eigh(dense, np.diag(op.system.mc.diagonal()),
                             eigvals_only=True)[-1]


def saturated_state(system):
    """A Schur operator and the state after 300 auto steps from rest, far
    enough for the conductor to saturate."""
    settings = explicit("cspe", pcg=PcgConfig(rel_tol=1e-10, max_iter=20000))
    op = SchurOperator(system, settings)
    dt = settings.stable_step(schur.stability_bound(system))
    a_c = np.zeros(system.n_c)
    t = 0.0
    for step in range(1, 301):
        a_c = explicit_euler_step((a_c, t), dt, op, step_index=step)
        t += dt
    return op, a_c


def test_the_stability_bound_brackets_the_dense_value_after_saturation(
        builtin6, schur_action):
    system = builtin6.system
    op, a_c = saturated_state(system)
    # saturation raises the reluctivity, so K_c and the bound grow
    bound = schur.stability_bound(system, a_c)
    assert bound > schur.stability_bound(system)
    lam = dense_lambda_max(op, a_c, schur_action)
    assert lam <= bound


def test_a_capped_lanczos_estimate_stays_below_the_dense_value(
        builtin6, schur_action):
    system = builtin6.system
    op, a_c = saturated_state(system)
    lam = dense_lambda_max(op, a_c, schur_action)
    # Lanczos capped at five steps misses its tolerance: its Ritz value is
    # below lam, and theta + residual need not bound it
    est = estimate_cfl(system, a_c_ref=a_c, pcg=op.config.pcg, cfl_steps=5)
    assert est.power_iters == 5
    assert est.residual > 1e-3 * est.lambda_max
    assert est.lambda_max <= lam * (1.0 + 1e-8)
    assert est.ceiling == schur.stability_bound(system, a_c)


def test_run_explicit_logs_every_cfl_refresh(builtin6, monkeypatch):
    # each refresh logs the bound at the state it was taken at and the step
    # used after it
    system = builtin6.system
    original = schur.stability_bound
    states = []

    def bound_at(system, a_c=None):
        states.append(a_c)
        return original(system, a_c)

    monkeypatch.setattr(schur, "stability_bound", bound_at)
    settings = explicit("cspe", reestimate_every=100)
    dt0 = settings.stable_step(original(system))
    result = run_explicit(system, t_end=350.5 * dt0, config=settings)
    agg = result.aggregates
    history = agg["cfl_history"]
    assert len(history) == 3
    # the refresh count is the length of the history, not a key of its own
    assert "cfl_refreshes" not in agg
    assert [entry[0] for entry in history] == [100, 200, 300]
    assert states[0] is None and len(states) == 4
    dt = dt0
    for (step, bound, logged_dt), state in zip(history, states[1:]):
        assert bound == original(system, state)
        dt = min(dt, settings.stable_step(bound))
        assert logged_dt == dt
    assert history[-1][1] == agg["stability_bound"]
    assert history[-1][2] == agg["dt"]


def test_a_cfl_refresh_never_raises_dt(builtin6, monkeypatch):
    original = schur.stability_bound
    refreshes = []

    def bound_at(system, a_c=None):
        if a_c is None:
            return original(system)
        # a refresh that would allow a larger step
        refreshes.append(original(system, a_c) / 10.0)
        return refreshes[-1]

    monkeypatch.setattr(schur, "stability_bound", bound_at)
    settings = explicit("cspe", reestimate_every=2)
    dt0 = settings.stable_step(original(builtin6.system))
    result = run_explicit(builtin6.system, t_end=2e-4, config=settings)
    agg = result.aggregates
    assert len(agg["cfl_history"]) == len(refreshes) > 0
    assert all(settings.stable_step(bound) > dt0 for bound in refreshes)
    assert agg["dt"] == dt0
    assert [entry[2] for entry in agg["cfl_history"]] == [dt0] * len(refreshes)


def test_a_ritz_value_above_the_stability_bound_raises(builtin6, monkeypatch):
    system = builtin6.system
    est = estimate_cfl(system)
    assert est.ceiling == schur.stability_bound(system)
    assert est.lambda_max < est.lambda_max + est.residual < est.ceiling

    # a broken inner solve of the estimate: its solution comes back as -4 y
    original = schur.pcg_solve

    def broken(*args, **kwargs):
        y, report = original(*args, **kwargs)
        return -4.0 * y, report

    monkeypatch.setattr(schur, "pcg_solve", broken)
    with pytest.raises(StepFailureError, match="exceeds the stability bound"):
        estimate_cfl(system)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_c=st.integers(1, 7),
       n_n=st.integers(2, 9), singular=st.booleans(),
       cfl_steps=st.integers(1, 8))
def test_ritz_value_stays_below_the_dense_eigenvalue(make_linear_system, seed,
                                                     n_c, n_n, singular,
                                                     cfl_steps):
    system, blocks = make_linear_system(np.random.default_rng(seed), n_c=n_c,
                                        n_n=n_n, singular=singular)
    lanczos = dict(pcg=TIGHT, cfl_steps=cfl_steps, cfl_tol=1e-6, seed=seed)
    est = estimate_cfl(system, **lanczos)
    lam = scipy.linalg.eigh(dense_schur(blocks), np.diag(blocks["mc_diag"]),
                            eigvals_only=True)[-1]
    # the bound is a bound
    bound = schur.stability_bound(system)
    assert lam <= bound * (1.0 + 1e-12)
    assert est.ceiling == bound
    assert est.lambda_max <= lam * (1.0 + 1e-9)
    # bitwise deterministic for a fixed seed
    again = estimate_cfl(system, **lanczos)
    assert again == est


def test_final_state_is_strategy_independent(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=4, n_n=8, singular=True)
    finals = {}
    for strategy in ("previous", "cspe", "pod"):
        result = run_explicit(system, t_end=1.2e-2, dt=1e-3,
                              config=explicit(strategy, pcg=TIGHT))
        finals[strategy] = result.final_a_c
    scale = np.linalg.norm(finals["previous"])
    for strategy in ("cspe", "pod"):
        diff = np.linalg.norm(finals[strategy] - finals["previous"])
        assert diff <= 1e-8 * max(scale, 1.0)


def test_run_explicit_rows_and_validation(rng, make_linear_system,
                                          monkeypatch):
    system, _ = make_linear_system(rng)
    result = run_explicit(system, t_end=1e-2, dt=1e-3,
                          config=explicit("previous", pcg=TIGHT),
                          output_period=2e-3)
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(1e-2, rel=1e-12)
    assert np.all(np.diff(result.times) > 0)
    assert result.n_rows == len(result.probe_b)
    assert result.aggregates["steps"] == 10
    assert result.aggregates["solves"]["source"] >= 10

    # a bad run argument fails first, naming itself
    def no_operator(*_):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(schur, "SchurOperator", no_operator)
    for name, bad in [("t_end", 0.0), ("t_end", np.nan), ("t_end", np.inf),
                      ("dt", "sideways"), ("dt", -1e-3), ("dt", np.nan),
                      ("dt", True), ("output_period", 0.0),
                      ("output_period", np.nan)]:
        with pytest.raises(ValueError, match=f"^{name} "):
            run_explicit(system, **(dict(t_end=1.0, dt=1e-3) | {name: bad}))


def test_run_explicit_step_budget(rng, make_linear_system, monkeypatch):
    system, _ = make_linear_system(rng)
    monkeypatch.setattr(schur, "MAX_STEPS", 10)
    with pytest.raises(StepFailureError, match=r"step budget exceeded \(10\)"):
        run_explicit(system, t_end=1.0, dt=1e-6, config=explicit(
            "previous", pcg=TIGHT))


def count_products_by_cause(monkeypatch):
    """Every K_n product made through ``krylov._as_operator``, in total
    and split by cause.

    The products of each ``pcg_solve`` call that ``schur`` makes are counted
    there: its reported iterations are PCG products and the rest were made
    for an initial residual.
    """
    counted = dict.fromkeys(("total", "pcg", "initial"), 0)
    original_as_operator = krylov._as_operator
    original_pcg_solve = schur.pcg_solve

    def as_operator(a):
        apply, n = original_as_operator(a)
        def apply_counted(x):
            counted["total"] += 1
            return apply(x)
        return apply_counted, n

    def solve(a, b, x0=None, config=None, preconditioner=None):
        before = counted["total"]
        x, report = original_pcg_solve(a, b, x0=x0, config=config,
                                       preconditioner=preconditioner)
        made = counted["total"] - before
        counted["pcg"] += report.iterations
        counted["initial"] += made - report.iterations
        return x, report

    monkeypatch.setattr(krylov, "_as_operator", as_operator)
    monkeypatch.setattr(schur, "pcg_solve", solve)
    return counted


def test_operator_applies_count_every_kn_product(builtin6, monkeypatch):
    # count the products made with the callable K_n operator, by cause
    counted = count_products_by_cause(monkeypatch)
    for strategy in STRATEGIES:
        counted.update(dict.fromkeys(counted, 0))
        result = run_explicit(builtin6.system, t_end=1e-4, dt="auto",
                              config=explicit(strategy, reestimate_every=2),
                              output_period=2e-5)
        agg = result.aggregates
        assert len(agg["cfl_history"]) > 0
        # every product made, by any cause, is in operator_applies
        assert (counted["total"] + agg["maintenance_applies"]
                == agg["operator_applies"])
        # no solve forms its initial residual with a product
        assert counted["initial"] == 0
        assert counted["total"] == counted["pcg"]
        assert agg["kn_applies"] == {"pcg": counted["pcg"],
                                     "upkeep": agg["maintenance_applies"]}
        assert agg["kn_applies"]["pcg"] == sum(agg["iterations"].values())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_no_family_solve_hands_pcg_a_start_vector(builtin6, strategy,
                                                  monkeypatch):
    # every strategy returns its start with its K_n image, so a family
    # solve forms its initial residual itself and PCG corrects from zero
    original_pcg_solve = schur.pcg_solve

    def solve(a, b, x0=None, config=None, preconditioner=None):
        assert x0 is None, "a family solve handed pcg_solve a start vector"
        return original_pcg_solve(a, b, config=config,
                                  preconditioner=preconditioner)
    operators = []

    class Recorded(SchurOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            operators.append(self)
    monkeypatch.setattr(schur, "pcg_solve", solve)
    monkeypatch.setattr(schur, "SchurOperator", Recorded)
    result = run_explicit(builtin6.system, t_end=3e-3, dt="auto",
                          config=explicit(strategy), output_period=5e-4)
    [op] = operators
    agg = result.aggregates
    moved = sum(iterations > 0 for log in op.solve_iterations.values()
                for iterations in log)
    assert 0 < moved < sum(agg["solves"].values())
    if strategy == "previous":
        # one product for the image of each solution a solve moved
        assert agg["kn_applies"]["upkeep"] == moved


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_kn_applies_are_plain_and_repeat_exactly(builtin6, strategy):
    aggregates = [run_explicit(builtin6.system, t_end=5e-5, dt="auto",
                               config=explicit(strategy),
                               output_period=1e-5).aggregates
                  for _ in range(2)]
    first, second = aggregates
    assert first["kn_applies"] == second["kn_applies"]
    assert set(first["kn_applies"]) == {"pcg", "upkeep"}
    assert all(type(v) is int for v in first["kn_applies"].values())


def kn_solver(kn_dense, config, operator=None, drop_tol=None):
    """A SchurOperator whose K_n block is *kn_dense*, with CSPE strategies.

    Each family's cache applies *operator* (K_n by default) and drops
    columns below *drop_tol* (the solve tolerance by default).
    """
    n = kn_dense.shape[0]
    system = PartitionedSystem.linear(
        mc=CsrMatrix.identity(1), kcn=CsrMatrix.from_dense(np.zeros((1, n))),
        kn=CsrMatrix.from_dense(kn_dense), kc=CsrMatrix.identity(1),
        source=ScaledPatternSource(np.zeros(n), exponential_ramp(1.0)))
    strategies = {f: make_strategy(
        StrategyConfig("cspe"), n, operator or kn_dense.__matmul__,
        drop_tol=config.rel_tol if drop_tol is None else drop_tol)
        for f in FAMILIES}
    return SchurOperator(system, ExplicitConfig(pcg=config), strategies)


def singular_spd(rng, n, deficit):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = rng.uniform(0.5, 5.0, n)
    eigs[:deficit] = 0.0
    dense = (q * eigs) @ q.T
    return 0.5 * (dense + dense.T), q[:, deficit:]


def observe_near_floor(op, dense, range_basis, null_basis, rng):
    """Give the source cache two columns whose last Galerkin pivot sits
    about 1e-11 above zero: the floor at which a column is dropped is
    1e-12 of the largest Rayleigh quotient of an accepted column.

    The columns span a range vector r and a null vector z, rotated, plus
    eta times a second range vector w; a combination of them is then
    nearly null, and W has a column of norm about 1 / eta.
    """
    r, w = range_basis[:, 0], range_basis[:, 1]
    z = null_basis[:, 0]
    theta = rng.uniform(0.3, 1.2)
    eta = np.sqrt(1e-11 * (r @ dense @ r) / (w @ dense @ w))
    cache = op.strategies[SRC]
    cache.observe(np.cos(theta) * r + np.sin(theta) * z)
    cache.observe(-np.sin(theta) * r + np.cos(theta) * z + eta * w)
    assert cache.size == 2
    # the columns have unit K_n-norm, so 1 / ||w_j||^2 is the Rayleigh
    # quotient u^T A u of the unit direction u of column j; after the
    # sweeps, the pivot delta^2 of the second is that of its direction
    first, second = np.linalg.norm(cache.basis, axis=0) ** -2.0
    pivot = second / first
    assert 1e-12 < pivot < 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30),
       deficit=st.integers(1, 2), history=st.integers(0, 5),
       in_span=st.booleans(), near_floor=st.booleans())
# a zero-iteration return from a start with a near-floor pivot
@example(seed=0, n=12, deficit=1, history=0, in_span=True, near_floor=True)
def test_cached_residual_solve_matches_pcg_from_the_same_start(
        seed, n, deficit, history, in_span, near_floor):
    rng = np.random.default_rng(seed)
    if near_floor:
        n = max(n, deficit + 2)
    dense, range_basis = singular_spd(rng, n, deficit)
    config = PcgConfig(rel_tol=1e-8, max_iter=10 * n)
    op = kn_solver(dense, config)
    if near_floor:
        null_basis = scipy.linalg.null_space(range_basis.T)
        observe_near_floor(op, dense, range_basis, null_basis, rng)
    else:
        for _ in range(history):
            op.strategies[SRC].observe(rng.standard_normal(n))
    cache = op.strategies[SRC]
    coeffs = rng.standard_normal(range_basis.shape[1])
    if in_span and cache.size:
        # a right-hand side whose solution the basis holds
        coeffs = range_basis.T @ (cache.basis @ rng.standard_normal(
            cache.size))
    rhs = dense @ (range_basis @ coeffs)
    x0, image = cache.start_vector(rhs)
    kn = CsrMatrix.from_dense(dense)
    reference, ref_report = pcg_solve(kn, rhs, x0=x0, config=config,
                                      preconditioner=build_preconditioner(kn))
    y, report = op.solve_kn(rhs, SRC)
    assert report.converged and ref_report.converged
    assert abs(report.iterations - ref_report.iterations) <= 1
    rhs_norm = np.linalg.norm(rhs)
    scale = np.abs(dense).max() * (np.linalg.norm(x0) + np.linalg.norm(y))
    slack = 1e-13 * scale + 1e-13 * rhs_norm
    # the image from cached products is K_n x0 up to rounding, also when
    # a column of W is large
    assert np.linalg.norm(dense @ x0 - image) <= 1e-11 * rhs_norm + slack
    residual = np.linalg.norm(rhs - dense @ y)
    assert residual <= 1.5e-8 * rhs_norm + slack
    if report.iterations == 0:
        # the start returned as it is meets the target in its true
        # residual, not only in the one formed from cached products
        assert np.array_equal(y, x0)
        assert residual <= config.rel_tol * rhs_norm + slack
    # both solutions lie in x0 + range(K_n), where K_n is at least 0.5
    gap = y - reference
    assert np.linalg.norm(gap) <= (3e-8 * rhs_norm + 2 * slack) / 0.5
    assert report.final_rel_residual <= config.rel_tol


def test_a_cached_residual_solve_stops_at_the_rhs_tolerance(rng):
    n = 40
    # a rotated spectrum: the solve's Jacobi preconditioner would solve a
    # diagonal matrix in one iteration
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    dense = (q * np.linspace(1.0, 100.0, n)) @ q.T
    dense = 0.5 * (dense + dense.T)
    config = PcgConfig(rel_tol=1e-6, max_iter=500)
    op = kn_solver(dense, config)
    rhs = rng.standard_normal(n)
    exact = np.linalg.solve(dense, rhs)
    # a start about 1e-3 of the way from the solution
    op.strategies[SRC].observe(exact + 1e-3 * np.linalg.norm(exact)
                               * rng.standard_normal(n) / np.sqrt(n))
    x0, _ = op.strategies[SRC].start_vector(rhs)
    r0 = rhs - dense @ x0
    rhs_norm, r0_norm = np.linalg.norm(rhs), np.linalg.norm(r0)
    assert 10 * config.rel_tol * rhs_norm < r0_norm < 1e-2 * rhs_norm
    y, report = op.solve_kn(rhs, SRC)
    residual = np.linalg.norm(rhs - dense @ y)
    # the target is rel_tol * ||rhs||, met but not overshot to rel_tol * ||r0||
    assert residual <= 1.01 * config.rel_tol * rhs_norm
    assert residual > config.rel_tol * r0_norm
    matrix = CsrMatrix.from_dense(dense)
    jacobi = build_preconditioner(matrix)
    _, from_start = pcg_solve(matrix, rhs, x0=x0, config=config,
                              preconditioner=jacobi)
    _, relative_to_r0 = pcg_solve(matrix, r0, config=config,
                                  preconditioner=jacobi)
    assert report.iterations == from_start.iterations
    assert report.iterations < relative_to_r0.iterations


def test_a_cspe_solve_hashes_its_family_by_identity(rng):
    # a family is looked up several times per solve; Enum's Python-level
    # __hash__ would run on every lookup
    n = 12
    dense, _ = singular_spd(rng, n, 1)
    op = kn_solver(dense, PcgConfig(rel_tol=1e-8, max_iter=200))
    for family in FAMILIES:
        op.strategies[family].observe(dense @ rng.standard_normal(n))
    profiler = cProfile.Profile()
    profiler.enable()
    for family in FAMILIES:
        op.solve_kn(dense @ rng.standard_normal(n), family)
    profiler.disable()
    calls = pstats.Stats(profiler).stats
    assert any(name == "solve_kn" for _, _, name in calls)
    assert not [f for f in calls
                if f[2] == "__hash__" and Path(f[0]).name == "enum.py"]


def test_an_unmoved_cspe_start_makes_no_product_copy_or_insert(
        rng, counting_operator, monkeypatch):
    n = 12
    dense, _ = singular_spd(rng, n, 1)
    upkeep = counting_operator(dense)
    # with drop_tol 0 the sweep keeps any vector it does not zero exactly,
    # so an insert of the start would be accepted as a column
    op = kn_solver(dense, PcgConfig(rel_tol=1e-8, max_iter=200), upkeep,
                   drop_tol=0.0)
    for _ in range(3):
        op.strategies[SRC].observe(dense @ rng.standard_normal(n))
    cache = op.strategies[SRC]
    products = []
    original_as_operator = krylov._as_operator

    def as_operator(a):
        apply, size = original_as_operator(a)

        def apply_counted(x):
            products.append(1)
            return apply(x)
        return apply_counted, size

    starts = []
    original_start = type(cache).start_vector

    def start_vector(self, rhs):
        x0, image = original_start(self, rhs)
        starts.append(x0)
        return x0, image

    monkeypatch.setattr(krylov, "_as_operator", as_operator)
    monkeypatch.setattr(type(cache), "start_vector", start_vector)

    def arrays():
        return cache.basis, cache.cached_products

    def counters():
        # every insert moves columns_accepted or columns_dropped
        return (cache.products_computed, cache.columns_accepted,
                cache.columns_dropped, cache.evictions, upkeep.count)

    arrays_before, counters_before = arrays(), counters()
    kn_applies = dict(op.kn_applies)

    rhs = dense @ (cache.basis @ rng.standard_normal(cache.size))
    y, report = op.solve_kn(rhs, SRC)
    assert report.iterations == 0 and report.converged
    assert y is starts[-1]                  # no copy
    assert products == []
    assert all(now is before for now, before in zip(arrays(), arrays_before))
    assert counters() == counters_before    # no insert
    assert op.kn_applies == kn_applies
    assert op.solve_iterations[SRC] == [0]

    # a start the solve moves is observed and, with drop_tol 0, accepted
    y, report = op.solve_kn(dense @ rng.standard_normal(n), SRC)
    assert report.iterations > 0 and y is not starts[-1]
    assert len(products) == report.iterations
    products_computed, accepted, dropped, evictions, applied = counters_before
    assert counters() == (products_computed + 1, accepted + 1, dropped,
                          evictions, applied + 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_on_the_cached_path_names_family_and_step(
        builtin6, bad):
    system = builtin6.system
    op = SchurOperator(system, explicit("cspe"))
    rhs = spmv(system.kn, np.ones(system.n_n))
    op.solve_kn(rhs, PREV, step=6)
    assert op.strategies[PREV].size == 1
    rhs[3] = bad
    with pytest.raises(StepFailureError,
                       match=r"^inner solve \(coupling_previous\) at step 7: "
                             "non-finite right-hand side$"):
        op.solve_kn(rhs, PREV, step=7)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_inconsistent_rhs_names_family_and_step(make_linear_system,
                                                   strategy):
    system, blocks = make_linear_system(np.random.default_rng(3), n_c=3,
                                        n_n=8, singular=True)
    op = SchurOperator(system, explicit(strategy))
    b = system.source(0.1)
    # one consistent solve first, so every strategy has a nonzero start
    op.solve_kn(b, SRC, step=4)
    rhs = b + 1e-3 * np.linalg.norm(b) * blocks["nullvec"]
    # the component is stated against the solve's rhs, although PCG solved
    # for the residual of the strategy's start
    with pytest.raises(krylov.InconsistentRhsError,
                       match=r"^inner solve \(source\) at step 5: "
                             "inconsistent right-hand side: a nullspace "
                             r"component of 1\.000e-03 \|\|b\|\|") as failure:
        op.solve_kn(rhs, SRC, step=5)
    assert type(failure.value) is krylov.InconsistentRhsError
    assert type(failure.value.__cause__) is krylov.InconsistentRhsError
    assert failure.value.component == pytest.approx(
        1e-3 * np.linalg.norm(b), rel=1e-3)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_finite_rhs_whose_sum_of_squares_overflows_is_solved(builtin6,
                                                              strategy):
    # 2^532 p has a sum of squares above the largest double. Its norm, the
    # target and, for previous, the residual of the stale start are taken
    # in power-of-two scaled form; the next POD start builds its Gram
    # matrix from a snapshot of that size.
    system = builtin6.system
    op = SchurOperator(system, explicit(strategy))
    rel_tol = op.config.pcg.rel_tol
    pattern = system.source.pattern
    for step, (factor, scale) in enumerate([(1.0, 0), (1.0, 532),
                                            (1.5, 532)], start=1):
        rhs = np.ldexp(factor * pattern, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, report = op.solve_kn(rhs, SRC, step=step)
        assert report.converged
        assert report.final_rel_residual <= rel_tol
        residual = spmv(system.kn, np.ldexp(y, -scale)) - factor * pattern
        assert (np.linalg.norm(residual)
                <= 10 * rel_tol * np.linalg.norm(factor * pattern))


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 10**9), max_size=300))
def test_the_row_mean_is_numpys_mean_bit_for_bit(counts):
    # a sum of integer counts is exact, so sum / len is np.mean's value
    got = schur._mean(counts)
    assert type(got) is float
    expected = np.mean(counts) if counts else 0.0
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=40, deadline=None)
@given(t_end=st.floats(1e-3, 1.0),
       period_frac=st.floats(0.01, 2.0),
       dt_frac=st.floats(0.005, 0.5))
def test_trace_recorder_rows_and_windows(t_end, period_frac, dt_frac):
    period, dt = period_frac * t_end, dt_frac * t_end
    iterations = {f: [] for f in FAMILIES}
    # one projection log per family
    projections = {f: [] for f in FAMILIES}
    trace = TraceRecorder(t_end, period, lambda a_c, a_n, t: 2.0 * t,
                          iterations, list(projections.values()))
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

    # recovery at a row solves the coupling of the step after it
    log(SRC, 5)
    log(PREV, 7)
    row(0.0, 0)
    t, step, step_times, handed_over = 0.0, 0, [], True
    while trace.running(t):
        t += min(dt, t_end - t)
        step += 1
        step_times.append(t)
        log(SRC, step % 4)
        if not handed_over:
            log(PREV, 3 * step)
        handed_over = False
        if step % 3 == 0:
            projected = projections[SRC if step % 2 else PREV]
            projected.append((step % 5, 1.0 / step))
            window_pod.append(projected[-1])
        if trace.due(t):
            log(PREV, step)
            handed_over = True
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
        for name, family in (("src", SRC), ("prev", PREV)):
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
        [info for log in projections.values() for k, info in log if k],
        default=1.0)


SCREENED = PcgConfig(rel_tol=1e-6)


def test_the_screen_runs_only_where_it_can_accept(builtin6):
    system = builtin6.system
    # at the default rel_tol 1e-8, rel_tol^2 is below the rounding floor
    # of the coupling estimate
    assert SchurOperator(system).screen is None
    assert SchurOperator(system, explicit("cspe", pcg=SCREENED)).screen
    for kind in ("previous", "pod"):
        assert SchurOperator(system, explicit(kind, pcg=SCREENED)).screen \
            is None
    # a source that is not a ScaledPatternSource
    general = dataclasses.replace(system, source=system.source.__call__)
    assert SchurOperator(general, explicit("cspe", pcg=SCREENED)).screen \
        is None


def forced_full_path(monkeypatch):
    monkeypatch.setattr(schur._ResidualScreen, "applies",
                        staticmethod(lambda op: False))


def test_the_screen_keeps_the_full_path_trace(builtin6, monkeypatch):
    config = explicit("cspe", pcg=SCREENED)
    screened = run_explicit(builtin6.system, t_end=0.12, config=config)
    forced_full_path(monkeypatch)
    full = run_explicit(builtin6.system, t_end=0.12, config=config)
    agg, full_agg = screened.aggregates, full.aggregates
    steps = agg["steps"]
    assert agg["screened"]["accepted"] > 0.95 * steps
    assert full_agg["screened"] == {"accepted": 0, "full_path": 0}
    # every pair sent to the full path is counted once, by its cause
    misses = agg["screen_misses"]
    assert set(misses) == set(schur.SCREEN_MISSES)
    assert sum(misses.values()) == agg["screened"]["full_path"] > 0
    assert misses["waveform"] == 1
    assert set(full_agg["screen_misses"].values()) == {0}
    # the screen accepts only starts the full path accepts: the same K_n
    # products and iteration logs
    assert agg["kn_applies"] == full_agg["kn_applies"]
    assert agg["iterations"] == full_agg["iterations"]
    assert agg["solves"] == full_agg["solves"]
    assert agg["near_misses"] == full_agg["near_misses"]
    scale = np.abs(full.probe_b).max()
    assert np.abs(screened.probe_b - full.probe_b).max() <= 1e-10 * scale
    assert (np.linalg.norm(screened.final_a_c - full.final_a_c)
            <= 1e-10 * np.linalg.norm(full.final_a_c))


def test_a_screened_row_hands_the_step_its_force(builtin6):
    # two operators with one history, stepped from rest to a state whose
    # pair the screen accepts
    system = builtin6.system
    settings = explicit("cspe", pcg=SCREENED)
    dt = settings.stable_step(schur.stability_bound(system))
    ops = [SchurOperator(system, settings) for _ in range(2)]
    for op in ops:
        a_c, t = np.zeros(system.n_c), 0.0
        for step in range(1, 101):
            a_c = explicit_euler_step((a_c, t), dt, op, step)
            t += dt
    recovered, stepping = ops
    assert recovered.screened == stepping.screened
    accepted = recovered.screened["accepted"]
    logs = [recovered.solve_iterations[f] for f in FAMILIES]
    lengths = [len(log) for log in logs]
    a_n, force = recover_an(recovered, a_c, t, 100)
    # the row is screened: one zero-iteration solve per family
    assert recovered.screened["accepted"] == accepted + 1
    assert [log[n:] for log, n in zip(logs, lengths)] == [[0], [0]]
    # a_n solves the algebraic row K_cn^T a_c + K_n a_n = j_n(t) to the
    # tolerance of its two starts
    coupling = spmv_transpose(system.kcn, a_c)
    source = system.source(t)
    residual = coupling + spmv(system.kn, a_n) - source
    assert np.linalg.norm(residual) <= 2 * SCREENED.rel_tol * (
        np.linalg.norm(coupling) + np.linalg.norm(source))
    # the handed force is the rate's own screened one, bit for bit, and
    # the step that takes it logs no solve
    given = schur.rate(recovered, a_c, t, 101, force)
    assert [len(log) for log in logs] == [n + 1 for n in lengths]
    assert recovered.screened["accepted"] == accepted + 1
    own = schur.rate(stepping, a_c, t, 101)
    assert stepping.screened["accepted"] == accepted + 1
    assert np.array_equal(given, own)
    assert np.any(given != 0.0)


@pytest.mark.parametrize("screen", [True, False])
def test_the_cspe_count_does_not_depend_on_rounding(builtin6, monkeypatch,
                                                    screen):
    # a start that misses by a hair is learned instead of dropped, so a
    # source perturbed by 1e-12 makes the same K_n products; with the
    # solve tolerance as the drop tolerance this run made 506 PCG
    # iterations, and 542 perturbed
    if not screen:
        forced_full_path(monkeypatch)
    system = builtin6.system
    source = system.source
    perturbed = dataclasses.replace(system, source=ScaledPatternSource(
        source.pattern, lambda t: (1.0 + 1e-12) * source.waveform(t)))
    config = explicit("cspe", pcg=SCREENED)
    counts = [run_explicit(s, t_end=0.12, config=config).aggregates
              ["kn_applies"] for s in (system, perturbed)]
    assert counts[0] == counts[1]
    assert counts[0]["pcg"] < 100


def test_a_screened_step_makes_few_python_calls(builtin6):
    """Python calls into mqsolve on the first explicit CSPE step that the
    residual screen takes from the arrays of the step before: the step,
    ``rate``, the screen and the source waveform, then ``kc_apply`` and
    ``_face_weights``, 6 in all; the product with K_cn K_cn^T and those
    of the conducting force take the CSR kernel directly, and the screen
    forms its coefficients and its force by one stacked product each. It
    made 11 while each product went through ``_matvec``, and 12 while
    ``kc_apply`` formed B^2 and the reluctivity in calls of their own. The
    full path of ``test_a_cached_step_makes_few_python_calls`` makes 27."""
    package = str(Path(schur.__file__).parent) + os.sep
    system = builtin6.system
    op = SchurOperator(system, explicit("cspe", pcg=SCREENED))
    dt = op.config.stable_step(schur.stability_bound(system))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    a_c, t = np.zeros(system.n_c), 0.0
    outer = sys.getprofile()
    screened = False
    for step in range(1, 50):
        before, calls = op.screened["accepted"], 0
        sys.setprofile(count)
        try:
            a_c = explicit_euler_step((a_c, t), dt, op, step_index=step)
        finally:
            sys.setprofile(outer)
        t += dt
        # the first screened step builds the screen's arrays
        if screened and op.screened["accepted"] > before:
            break
        screened = op.screened["accepted"] > before
    else:
        pytest.fail("the screen took no two steps in a row")
    assert [log[-1] for log in op.solve_iterations.values()] == [0, 0]
    assert 0 < calls <= 6


def fill_near_target(rng, n, kn, kcn, op, k, ratio, source_ratio):
    """Give the coupling cache the solutions for k conductor states and
    the source cache one solution near the pattern's; return a state
    whose coupling start misses the target by about *ratio*, and set the
    source start's miss to about *source_ratio*."""
    n_c = kcn.shape[0]
    states = rng.standard_normal((n_c, k))
    for j in range(k):
        op.strategies[PREV].insert(np.linalg.solve(kn, kcn.T @ states[:, j]))
    pattern = op.system.source.pattern
    source = op.strategies[SRC]

    def residual(cache, b):
        x0, _ = cache.start_vector(b)
        return np.linalg.norm(b - kn @ x0)

    # the source miss is about linear in a small offset of the solution
    offset = rng.standard_normal(n)
    trial = make_strategy(StrategyConfig("cspe"), n, kn.__matmul__, n_c)
    trial.insert(np.linalg.solve(kn, pattern + 1e-3 * offset))
    target = SCREENED.rel_tol * np.linalg.norm(pattern)
    sigma = 1e-3 * source_ratio * target / residual(trial, pattern)
    source.insert(np.linalg.solve(kn, pattern + sigma * offset))
    base = states @ rng.standard_normal(k)
    z = rng.standard_normal(n_c)
    target = SCREENED.rel_tol * np.linalg.norm(kcn.T @ base)
    tau = ratio * target / residual(op.strategies[PREV], kcn.T @ z)
    return base + tau * z


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_c=st.integers(2, 6),
       n_n=st.integers(6, 30), k=st.integers(1, 5),
       ratio=st.floats(0.5, 2.0), source_ratio=st.floats(0.5, 2.0))
@example(seed=1, n_c=4, n_n=12, k=2, ratio=0.5, source_ratio=0.5)
# one family's start just above its target, the other's well below
@example(seed=2, n_c=4, n_n=12, k=2, ratio=1.05, source_ratio=0.5)
@example(seed=3, n_c=4, n_n=12, k=2, ratio=0.5, source_ratio=1.05)
def test_the_screen_never_accepts_a_start_that_misses_the_target(
        seed, n_c, n_n, k, ratio, source_ratio):
    rng = np.random.default_rng(seed)
    k = min(k, n_c - 1)
    q = np.linalg.qr(rng.standard_normal((n_n, n_n)))[0]
    kn = (q * rng.uniform(1.0, 10.0, n_n)) @ q.T
    kn = 0.5 * (kn + kn.T)
    kcn = rng.standard_normal((n_c, n_n))
    system = PartitionedSystem.linear(
        mc=CsrMatrix.identity(n_c), kcn=CsrMatrix.from_dense(kcn),
        kn=CsrMatrix.from_dense(kn), kc=CsrMatrix.identity(n_c),
        source=ScaledPatternSource(rng.standard_normal(n_n),
                                   lambda t: 1.0 + t))
    op = SchurOperator(system, explicit("cspe", pcg=SCREENED))
    assert op.screen is not None
    a_c = fill_near_target(rng, n_n, kn, kcn, op, k, ratio, source_ratio)
    t = float(rng.uniform(0.0, 1.0))
    b = {SRC: system.source(t), PREV: kcn.T @ a_c}
    # the starts the full path would take, with explicitly formed residuals
    starts, misses = {}, []
    for family, rhs in b.items():
        starts[family], _ = op.strategies[family].start_vector(rhs)
        misses.append(np.linalg.norm(rhs - kn @ starts[family])
                      / (SCREENED.rel_tol * np.linalg.norm(rhs)))
    force = op.screen(a_c, t)
    if max(misses) > 1.0:
        assert force is None
    if max(misses) <= 0.9:
        # the screen is not much more cautious than the full path
        assert force is not None
    if force is not None:
        expected = kcn @ (starts[PREV] - starts[SRC])
        assert (np.linalg.norm(force - expected)
                <= 1e-10 * np.linalg.norm(kcn) * (
                    np.linalg.norm(starts[PREV]) + np.linalg.norm(starts[SRC])))
        assert op.screened["accepted"] == 1
        assert list(op.solve_iterations.values()) == [[0], [0]]
    else:
        assert op.screened["full_path"] == 1


def dense_screened_system(rng, n_c, n_n):
    """A linear system on dense random blocks with a separable source,
    its K_n and K_cn as dense arrays."""
    q = np.linalg.qr(rng.standard_normal((n_n, n_n)))[0]
    kn = (q * rng.uniform(1.0, 10.0, n_n)) @ q.T
    kn = 0.5 * (kn + kn.T)
    kcn = rng.standard_normal((n_c, n_n))
    system = PartitionedSystem.linear(
        mc=CsrMatrix.identity(n_c), kcn=CsrMatrix.from_dense(kcn),
        kn=CsrMatrix.from_dense(kn), kc=CsrMatrix.identity(n_c),
        source=ScaledPatternSource(rng.standard_normal(n_n),
                                   lambda t: 1.0 + t))
    return system, kn, kcn


def test_the_screens_arrays_follow_every_basis_version(rng):
    # caches of two columns, so the third coupling column evicts the
    # first; after each new projection the screen, which kept the arrays
    # of the one before, decides and forms the force as a screen built
    # fresh on the same caches does
    n_c, n_n = 5, 12
    system, kn, kcn = dense_screened_system(rng, n_c, n_n)
    caches = {f: make_strategy(StrategyConfig("cspe"), n_n, kn.__matmul__, 2)
              for f in FAMILIES}
    op = SchurOperator(system, explicit("cspe", pcg=SCREENED), caches)
    pattern = system.source.pattern
    t = 0.3

    def screened(a_c):
        force = op.screen(a_c, t)
        fresh = schur._ResidualScreen(op)(a_c, t)
        assert (force is None) == (fresh is None)
        if force is not None:
            assert (np.linalg.norm(force - fresh)
                    <= 1e-12 * np.linalg.norm(fresh))
        return force

    def exact_state():
        # a state whose coupling start the current projection meets: its
        # right-hand side is K_n of a basis combination
        _, images = caches[PREV].projection
        combination = images @ rng.standard_normal(images.shape[1])
        return np.linalg.lstsq(kcn.T, combination, rcond=None)[0]

    states = rng.standard_normal((n_c, 3))
    caches[PREV].insert(np.linalg.solve(kn, kcn.T @ states[:, 0]))
    # a source start that misses, then one that meets its target
    caches[SRC].insert(np.linalg.solve(
        kn, pattern + 0.1 * rng.standard_normal(n_n)))
    assert screened(states[:, 0]) is None
    assert op.screen_misses["source"] == 2
    caches[SRC].insert(np.linalg.solve(kn, pattern))
    assert screened(states[:, 0]) is not None
    for j in (1, 2):
        # an accepted column, then one that evicts the oldest
        caches[PREV].insert(np.linalg.solve(kn, kcn.T @ states[:, j]))
        assert screened(exact_state()) is not None
        assert screened(rng.standard_normal(n_c)) is None
    assert caches[PREV].evictions == 1
    assert op.screened["accepted"] == 6
    assert sum(op.screen_misses.values()) == op.screened["full_path"]


@pytest.mark.parametrize("ratio, near", [(0.5, 0), (3.0, 1), (30.0, 0)])
def test_a_start_within_ten_targets_is_a_near_miss(rng, ratio, near):
    # the coupling start misses its target by about *ratio*; a start that
    # meets it makes no PCG solve, and one that misses by more than ten
    # times is no near miss
    system, kn, kcn = dense_screened_system(rng, 4, 12)
    op = SchurOperator(system, explicit("cspe", pcg=SCREENED))
    a_c = fill_near_target(rng, 12, kn, kcn, op, 2, ratio, 0.5)
    _, report = op.solve_kn(kcn.T @ a_c, PREV, step=1)
    assert (report.iterations > 0) == (ratio > 1.0)
    assert op.near_misses == {SRC: 0, PREV: near}


@pytest.mark.parametrize("strategy", ["previous", "cspe"])
def test_the_step_is_its_expression_and_writes_no_input(builtin6, strategy):
    # kc_apply hands out one cached array, which the step must not write
    inner = builtin6.system.kc_apply
    cached = np.empty(builtin6.system.n_c)

    def kc_apply(a):
        cached[:] = inner(a)
        return cached

    system = dataclasses.replace(builtin6.system, kc_apply=kc_apply)
    op = SchurOperator(system, explicit(strategy, pcg=SCREENED))
    dt = op.config.stable_step(schur.stability_bound(system))
    a_c, t = np.zeros(system.n_c), 0.0
    for step in range(1, 21):
        a_c = explicit_euler_step((a_c, t), dt, op, step)
        t += dt
    _, force = recover_an(op, a_c, t, 20)
    handed = force.copy()
    expected = a_c + dt * (op.minv_diag * (force - inner(a_c)))
    a_next = explicit_euler_step((a_c, t), dt, op, 21, force=force)
    assert np.array_equal(a_next, expected)
    assert np.array_equal(cached, inner(a_c))
    after = explicit_euler_step((a_next, t + dt), dt, op, 22)
    assert np.array_equal(cached, inner(a_next))
    assert np.array_equal(force, handed)
    assert np.any(after != a_next)
