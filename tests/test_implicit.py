"""Monolithic backward Euler with damped Newton iterations."""

import dataclasses
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mqsolve import (CsrMatrix, InconsistentRhsError, MonolithicJacobian,
                     NewtonConfig, NewtonFailureError, NonFiniteError,
                     PartitionedSystem, build_preconditioner,
                     builtin_model, implicit, implicit_euler_step,
                     run_implicit)
from mqsolve.bench import RunConfig, run_single

TIGHT = NewtonConfig(tol=1e-10)


def ramp_value(t, tau):
    return 1.0 - np.exp(-t / tau)


def monolithic(blocks, dt):
    n_c = blocks["mc_diag"].size
    j = blocks["full"].copy()
    j[:n_c, :n_c] += np.diag(blocks["mc_diag"] / dt)
    return j


def test_linear_step_needs_one_newton_iteration(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    a_c = rng.standard_normal(3)
    a_n = rng.standard_normal(5)
    x_c, x_n, report = implicit_euler_step((a_c, a_n, 0.0), 1e-2, system,
                                           TIGHT)
    assert report.newton_iterations == 1
    assert len(report.residual_history) == 2
    assert len(report.linear_iterations) == 1


def test_huge_step_lands_on_stationary_state(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=3, n_n=6)
    dt = 1e12
    x_c, x_n, _ = implicit_euler_step(
        (np.zeros(3), np.zeros(6), 0.0), dt, system, TIGHT)
    rhs = np.concatenate([np.zeros(3),
                          blocks["pattern"] * ramp_value(dt, blocks["tau"])])
    expected = np.linalg.solve(blocks["full"], rhs)
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(np.concatenate([x_c, x_n]) - expected) <= 1e-6 * scale


def test_run_implicit_matches_dense_chain(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=4, n_n=7)
    dt, steps = 0.05, 4
    result = run_implicit(system, t_end=dt * steps, dt=dt, config=TIGHT,
                          output_period=dt)
    j = monolithic(blocks, dt)
    a_c = np.zeros(4)
    for k in range(1, steps + 1):
        rhs = np.concatenate([
            blocks["mc_diag"] * a_c / dt,
            blocks["pattern"] * ramp_value(k * dt, blocks["tau"])])
        x = np.linalg.solve(j, rhs)
        a_c = x[:4]
    assert np.allclose(result.final_a_c, a_c, rtol=1e-7, atol=1e-12)
    assert np.allclose(result.final_a_n, x[4:], rtol=1e-7, atol=1e-12)
    assert result.aggregates["steps"] == steps
    assert result.aggregates["mean_newton_per_step"] == 1.0


def test_hard_nonlinear_step_converges_with_damping(corner_toy):
    system = corner_toy.system
    x_c, x_n, report = implicit_euler_step(
        (np.zeros(system.n_c), np.zeros(system.n_n), 0.0), 0.2, system)
    hist = np.array(report.residual_history)
    assert report.newton_iterations <= 10
    assert np.all(np.diff(hist) < 0)
    assert hist[-1] <= 1e-8 * hist[0]
    # terminal contraction is much faster than the damped opening phase;
    # the last update stops at FORCING times the target by design, so the
    # quadratic contraction shows in the update before it
    assert hist[-2] / hist[-3] < 1e-2
    assert hist[-1] <= report.target
    assert 1.5 <= corner_toy.probe(x_c, x_n) <= 3.5


def test_each_update_is_solved_to_forcing_times_the_target(
        builtin6, builtin6_linear, corner_toy, monkeypatch):
    # inexact Newton: every update's PCG solve stops at FORCING times the
    # step's own target, and the step still ends within that target
    solve, step = implicit.pcg_solve, implicit.implicit_euler_step
    abs_tols, reports = [], []

    def recorded_solve(*args, config, **kwargs):
        abs_tols.append(config.abs_tol)
        return solve(*args, config=config, **kwargs)

    def checked_step(*args, **kwargs):
        abs_tols.clear()
        x_c, x_n, report = step(*args, **kwargs)
        assert abs_tols == ([implicit.FORCING * report.target]
                            * report.newton_iterations)
        assert report.residual_history[-1] <= report.target
        reports.append(report)
        return x_c, x_n, report

    monkeypatch.setattr(implicit, "pcg_solve", recorded_solve)
    monkeypatch.setattr(implicit, "implicit_euler_step", checked_step)
    # steel, with the extrapolated starts of a run
    run_implicit(builtin6.system, t_end=5e-3, dt=1e-3)
    assert len(reports) == 5
    assert sum(r.newton_iterations for r in reports) >= 5
    # corner_toy's hard step takes several damped updates
    system = corner_toy.system
    _, _, hard = implicit.implicit_euler_step(
        (np.zeros(system.n_c), np.zeros(system.n_n), 0.0), 0.2, system)
    assert hard.newton_iterations >= 3
    # a linear conductor converges in one Newton iteration per step
    system = builtin6_linear.system
    x_c, x_n, t = np.zeros(system.n_c), np.zeros(system.n_n), 0.0
    for _ in range(4):
        x_c, x_n, report = implicit.implicit_euler_step((x_c, x_n, t), 1e-3,
                                                        system)
        assert report.newton_iterations == 1
        t += 1e-3


def test_moderate_nonlinear_step(corner_toy):
    system = corner_toy.system
    x_c, x_n, report = implicit_euler_step(
        (np.zeros(system.n_c), np.zeros(system.n_n), 0.0), 0.05, system)
    assert report.newton_iterations == 2
    assert 1.0 <= corner_toy.probe(x_c, x_n) <= 1.7


def test_conducting_jacobian_matches_directional_fd(corner_toy, rng):
    system = corner_toy.system
    x_c, _, _ = implicit_euler_step(
        (np.zeros(system.n_c), np.zeros(system.n_n), 0.0), 0.05, system)
    jac = system.kc_jacobian(x_c).to_dense()
    eps = 1e-6 * np.linalg.norm(x_c)
    for _ in range(4):
        e = rng.standard_normal(system.n_c)
        e /= np.linalg.norm(e)
        plus = system.kc_apply(x_c + eps * e)
        minus = system.kc_apply(x_c - eps * e)
        fd = (plus - minus) / (2.0 * eps)
        assert np.linalg.norm(fd - jac @ e) <= 1e-6 * np.linalg.norm(jac @ e)


def test_unconditional_stability_across_step_sizes(rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=3, n_n=6)
    a0 = rng.standard_normal(3)
    stationary = np.linalg.norm(
        np.linalg.solve(blocks["full"],
                        np.concatenate([np.zeros(3), blocks["pattern"]])))
    bound = 10.0 * (np.linalg.norm(a0) + stationary)
    for dt in (1e-3, 1.0, 1e3, 1e6):
        a_c, a_n, t = a0.copy(), np.zeros(6), 0.0
        for _ in range(3):
            a_c, a_n, rep = implicit_euler_step((a_c, a_n, t), dt, system,
                                                TIGHT)
            t += dt
            assert np.isfinite(a_c).all()
            assert np.linalg.norm(a_c) <= bound


def test_zero_source_stays_zero(rng, make_linear_system):
    from mqsolve import PartitionedSystem, ScaledPatternSource, exponential_ramp
    system, _ = make_linear_system(rng, n_c=3, n_n=5)
    quiet = PartitionedSystem.linear(
        mc=system.mc, kcn=system.kcn, kn=system.kn,
        kc=system.kc_matrix(None),
        source=ScaledPatternSource(np.zeros(5), exponential_ramp(0.5)))
    result = run_implicit(quiet, t_end=1e-2, dt=2e-3)
    assert np.array_equal(result.final_a_c, np.zeros(3))
    assert result.aggregates["newton_iterations"] == 0


def test_run_implicit_rows_and_aggregates(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    result = run_implicit(system, t_end=1e-2, dt=2e-3, config=TIGHT,
                          output_period=5e-3)
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(1e-2, rel=1e-12)
    agg = result.aggregates
    assert agg["integrator"] == "implicit"
    assert agg["strategy"] == "newton"
    assert agg["steps"] == 5
    assert agg["min_pod_info"] == 1.0
    assert agg["max_basis_cols"] == 0
    assert np.all(result.iters_cpl_prev == 0)
    assert np.all(result.basis_cols == 0)
    assert np.all(result.pod_info == 1.0)


def test_two_steps_match_manual_chain(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    dt = 1e-2
    result = run_implicit(system, t_end=2 * dt, dt=dt, config=TIGHT,
                          output_period=dt)
    a_c, a_n, _ = implicit_euler_step((np.zeros(3), np.zeros(6), 0.0), dt,
                                      system, TIGHT)
    # the second step starts from the linear extrapolation a_1 + (a_1 - a_0)
    a_c, a_n, _ = implicit_euler_step((a_c, a_n, dt), dt, system, TIGHT,
                                      start=(2.0 * a_c, 2.0 * a_n))
    assert np.array_equal(result.final_a_c, a_c)
    assert np.array_equal(result.final_a_n, a_n)


def test_three_steps_match_manual_chain(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    # a power of two, so every step of the run has length dt exactly
    dt = 2.0 ** -7
    result = run_implicit(system, t_end=3 * dt, dt=dt, config=TIGHT,
                          output_period=dt)
    a_c, a_n, _ = implicit_euler_step((np.zeros(3), np.zeros(6), 0.0), dt,
                                      system, TIGHT)
    b_c, b_n, _ = implicit_euler_step((a_c, a_n, dt), dt, system, TIGHT,
                                      start=(2.0 * a_c, 2.0 * a_n))

    def quadratic(a2, a1, a0):
        # the third step's start: a_2 + h D1 + h(h + h1) D2 with
        # h = h1 = h2 = dt
        d1 = (a2 - a1) / dt
        d2 = (d1 - (a1 - a0) / dt) / (dt + dt)
        return a2 + dt * d1 + (dt * (dt + dt)) * d2

    start = (quadratic(b_c, a_c, np.zeros(3)),
             quadratic(b_n, a_n, np.zeros(6)))
    c_c, c_n, report = implicit_euler_step((b_c, b_n, 2 * dt), dt, system,
                                           TIGHT, start=start)
    assert not report.predictor_rejected
    assert np.array_equal(result.final_a_c, c_c)
    assert np.array_equal(result.final_a_n, c_n)


@pytest.mark.parametrize("lengths", [(1e-3, 1e-3, 1e-3),
                                     (2e-3, 1e-3, 4e-4),
                                     (3e-4, 1.7e-3, 2e-4)])
def test_the_start_is_exact_on_a_quadratic_trajectory(rng, lengths):
    # three earlier states of a(t) = c0 + c1 t + c2 t^2 at unequal spacings,
    # the last step shorter than the others in two cases
    h2, h1, h = lengths
    c0, c1, c2 = rng.standard_normal((3, 5)) * [[1.0], [1e3], [1e6]]

    def a(t):
        return c0 + c1 * t + c2 * t * t

    t0 = 0.01
    t1, t2 = t0 + h2, t0 + h2 + h1
    _, slope = implicit._extrapolate(a(t1), h1, (a(t0), h2))
    start, _ = implicit._extrapolate(a(t2), h, (a(t1), h1), slope)
    assert np.allclose(start, a(t2 + h), rtol=1e-12, atol=0.0)
    # one earlier state: exact on a line, as the second step's start
    line, _ = implicit._extrapolate(c0 + c1 * t1, h, (c0 + c1 * t0, h2))
    assert np.allclose(line, c0 + c1 * (t1 + h), rtol=1e-12, atol=0.0)


def test_the_carried_slope_keeps_every_start_bitwise(builtin6):
    # the start the run hands each step is, bit for bit, the extrapolation
    # that forms both divided differences from the last three states
    system = builtin6.system
    starts, states = [], []
    step = implicit.implicit_euler_step

    def recorded(state, dt, *args, start=None, **kwargs):
        states.append((state[0], state[1], dt))
        starts.append(start)
        return step(state, dt, *args, start=start, **kwargs)

    dt = 1e-3
    with mock.patch.object(implicit, "implicit_euler_step", recorded):
        # a short last step: the lengths differ
        run_implicit(system, t_end=5.5 * dt, dt=dt)
    assert len(states) == 6 and starts[0] is None
    assert states[-1][2] == pytest.approx(0.5 * dt, rel=1e-9)
    for k in range(1, 6):
        for block in (0, 1):
            a, a1 = states[k][block], states[k - 1][block]
            h, h1 = states[k][2], states[k - 1][2]
            if k == 1:
                expected = a + (h / h1) * (a - a1)
            else:
                a2, h2 = states[k - 2][block], states[k - 2][2]
                d1 = (a - a1) / h1
                d2 = (d1 - (a1 - a2) / h2) / (h1 + h2) * (h * (h + h1))
                expected = d1 * h + a + d2
            assert starts[k][block].tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_c=st.integers(1, 5),
       n_n=st.integers(1, 8), singular=st.booleans(),
       log2_dt=st.integers(-14, 0), steps=st.integers(3, 8))
def test_the_extrapolated_start_ends_within_the_newton_target(
        make_linear_system, seed, n_c, n_n, singular, log2_dt, steps):
    # a run that starts Newton from the extrapolations and a chain of
    # steps that each start from the previous state land within their
    # Newton targets of one solution: each step's residual is at most its
    # target, and implicit Euler does not amplify a residual in the norm
    # of the Newton matrix J, so the final states differ in that norm by
    # at most ||J^+||^(1/2) times the sum of both runs' targets
    system, blocks = make_linear_system(np.random.default_rng(seed),
                                        n_c=n_c, n_n=n_n, singular=singular)
    dt = 2.0 ** log2_dt
    config = NewtonConfig()
    reports = []
    step = implicit.implicit_euler_step

    def recorded(*args, **kwargs):
        x_c, x_n, report = step(*args, **kwargs)
        reports.append(report)
        return x_c, x_n, report

    with mock.patch.object(implicit, "implicit_euler_step", recorded):
        extrapolated = run_implicit(system, t_end=steps * dt, dt=dt,
                                    config=config)
    assert extrapolated.aggregates["steps"] == steps
    x_c, x_n, t = np.zeros(n_c), np.zeros(n_n), 0.0
    for _ in range(steps):
        x_c, x_n, report = implicit_euler_step((x_c, x_n, t), dt, system,
                                               config)
        reports.append(report)
        t += dt
    assert len(reports) == 2 * steps
    assert all(r.residual_history[-1] <= r.target for r in reports)
    gap = np.concatenate([extrapolated.final_a_c - x_c,
                          extrapolated.final_a_n - x_n])
    jac = monolithic(blocks, dt)
    bound = (np.sqrt(np.linalg.norm(np.linalg.pinv(jac), 2))
             * sum(r.target for r in reports))
    assert np.sqrt(max(gap @ jac @ gap, 0.0)) <= bound


def test_a_start_at_the_solution_takes_no_newton_iteration(
        rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    state = (rng.standard_normal(3), rng.standard_normal(6), 0.0)
    x_c, x_n, _ = implicit_euler_step(state, 1e-2, system, TIGHT)
    y_c, y_n, report = implicit_euler_step(state, 1e-2, system, TIGHT,
                                           start=(x_c, x_n))
    assert report.newton_iterations == 0
    assert not report.predictor_rejected
    assert np.array_equal(y_c, x_c) and np.array_equal(y_n, x_n)
    assert y_c is not x_c and y_n is not x_n


def test_a_start_worse_than_the_previous_state_is_rejected(
        rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    state = (rng.standard_normal(3), rng.standard_normal(6), 0.0)
    x_c, x_n, plain = implicit_euler_step(state, 1e-2, system, TIGHT)
    far = (state[0] + 100.0, state[1] - 100.0)
    y_c, y_n, report = implicit_euler_step(state, 1e-2, system, TIGHT,
                                           start=far)
    assert report.predictor_rejected and not plain.predictor_rejected
    # the step falls back to the previous state, bit for bit
    assert np.array_equal(y_c, x_c) and np.array_equal(y_n, x_n)
    assert report.residual_history == plain.residual_history


def test_run_counts_rejected_predictors(rng, make_linear_system):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    dt, source = 1e-2, system.source
    # the source drops to zero after the first step, so extrapolating the
    # first step's rise moves away from the second step's solution
    pulse = dataclasses.replace(
        system, source=lambda t: source(t) * (t < 1.5 * dt))
    agg = run_implicit(pulse, t_end=4 * dt, dt=dt, config=TIGHT).aggregates
    assert agg["predictor_rejected"] >= 1
    assert agg["newton_half_steps"] == 0
    smooth = run_implicit(system, t_end=4 * dt, dt=dt, config=TIGHT)
    assert smooth.aggregates["predictor_rejected"] == 0


def overshooting_first_update(monkeypatch):
    """Make the first Newton update of the next solves three times too long."""
    solve = implicit.pcg_solve
    calls = []

    def overshoot(*args, **kwargs):
        delta, report = solve(*args, **kwargs)
        calls.append(None)
        return (3.0 * delta if len(calls) == 1 else delta), report

    monkeypatch.setattr(implicit, "pcg_solve", overshoot)


def test_an_overshoot_is_counted_as_a_half_step(rng, make_linear_system,
                                                monkeypatch):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    state = (rng.standard_normal(3), rng.standard_normal(6), 0.0)
    overshooting_first_update(monkeypatch)
    # on a linear system 3x the Newton update doubles the residual, and the
    # half step 1.5x halves it
    _, _, report = implicit_euler_step(state, 1e-2, system, TIGHT)
    assert report.half_steps == 1
    assert report.newton_iterations == 2
    hist = report.residual_history
    assert hist[1] == pytest.approx(0.5 * hist[0], rel=1e-6)


def test_run_counts_half_steps(rng, make_linear_system, monkeypatch):
    system, _ = make_linear_system(rng, n_c=3, n_n=6)
    overshooting_first_update(monkeypatch)
    agg = run_implicit(system, t_end=3e-2, dt=1e-2, config=TIGHT).aggregates
    assert agg["newton_half_steps"] == 1
    assert agg["newton_iterations"] == 4


def assert_same_step(system, given, plain):
    """*given*, a step handed the residual parts of its state, returned the
    bits of *plain*, the same step without them, and parts that a fresh
    evaluation at its result repeats."""
    (x_c, x_n, report), (y_c, y_n, other) = given, plain
    assert x_c.tobytes() == y_c.tobytes() and x_n.tobytes() == y_n.tobytes()
    # every field but the parts: counts, r0, target and the histories
    assert report == other
    fresh = implicit._residual_parts(system, x_c, x_n)
    for parts in (report.parts, other.parts):
        assert [p.tobytes() for p in parts] == [p.tobytes() for p in fresh]


def test_handed_residual_parts_leave_every_step_bitwise(builtin6,
                                                        monkeypatch):
    system = builtin6.system
    dt = 1e-3
    # the first step evaluates its parts itself
    x_c, x_n, report = implicit_euler_step(
        (np.zeros(system.n_c), np.zeros(system.n_n), 0.0), dt, system)
    t = dt
    # accepted Newton updates from the previous state
    for _ in range(3):
        state = (x_c, x_n, t)
        given = implicit_euler_step(state, dt, system, parts=report.parts)
        assert given[2].newton_iterations >= 1
        assert_same_step(system, given,
                         implicit_euler_step(state, dt, system))
        x_c, x_n, report = given
        t += dt
    # a start at the solution, accepted with zero Newton iterations
    state = (x_c, x_n, t)
    solution = implicit_euler_step(state, dt, system)[:2]
    given = implicit_euler_step(state, dt, system, start=solution,
                                parts=report.parts)
    assert given[2].newton_iterations == 0
    assert_same_step(system, given,
                     implicit_euler_step(state, dt, system, start=solution))
    x_c, x_n, report = given
    t += dt
    # a half step: each solve's first update overshoots
    state = (x_c, x_n, t)
    overshooting_first_update(monkeypatch)
    given = implicit_euler_step(state, dt, system, parts=report.parts)
    assert given[2].half_steps == 1
    overshooting_first_update(monkeypatch)
    assert_same_step(system, given, implicit_euler_step(state, dt, system))


def test_handed_residual_parts_leave_the_floor_return_bitwise(builtin6):
    # a stationary state: x_c = 0 and x_n on edges that K_cn does not
    # couple, so K_cn x_n is exactly zero, and the source is K_n x_n
    system = builtin6.system
    uncoupled = np.diff(system.kcn._transpose.row_ptr) == 0
    x_n = np.where(uncoupled, np.random.default_rng(3).standard_normal(
        system.n_n), 0.0)
    j_n = system.kn @ x_n
    stationary = dataclasses.replace(system, source=lambda t: j_n)
    x_c, parts, t = np.zeros(system.n_c), None, 0.0
    for _ in range(2):
        state = (x_c, x_n, t)
        given = implicit_euler_step(state, 1e-3, stationary, parts=parts)
        report = given[2]
        assert report.newton_iterations == 0 and report.r0 == 0.0
        assert 0.0 < report.target and report.residual_history == (0.0,)
        assert_same_step(stationary, given,
                         implicit_euler_step(state, 1e-3, stationary))
        x_c, x_n, parts = given[0], given[1], report.parts
        t += 1e-3


def test_the_default_implicit_run_applies_the_force_twice_per_step():
    # one evaluation at the start, one at the Newton update: the first step
    # has no start, and each later step takes r0 from the parts of the
    # step before
    system = builtin_model(cells=8).system
    calls = 0
    kc_apply = system.kc_apply

    def counted(state):
        nonlocal calls
        calls += 1
        return kc_apply(state)

    config = RunConfig(integrator="implicit")
    result = run_implicit(dataclasses.replace(system, kc_apply=counted),
                          config.t_end, config.implicit_dt)
    assert result.aggregates["steps"] == 480
    assert result.aggregates["newton_iterations"] == 480
    assert calls == 960


def test_a_state_whose_residual_overflows_its_squares_steps_quietly(
        builtin6_linear):
    # the residual is finite, but its sum of squares is not
    system = builtin6_linear.system
    x_c, x_n, _ = implicit_euler_step(
        (np.zeros(system.n_c), np.zeros(system.n_n), 0.0), 1e-3, system)
    state = (np.ldexp(x_c, 532), np.ldexp(x_n, 532), 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y_c, y_n, report = implicit_euler_step(state, 1e-3, system)
    assert np.isfinite(y_c).all() and np.isfinite(y_n).all()
    assert np.isfinite(report.r0) and report.r0 > 1e154
    assert report.newton_iterations == 1
    assert report.residual_history[-1] <= report.target


REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "references"
             / "probe_cells8_t0.12.csv")


def test_reference_run_keeps_the_stored_reference():
    # the stored probe trace was made at dt 6.25e-5 with every Newton step
    # started from the previous state; the linear start of the second step
    # and the quadratic start of every later one must agree with it to
    # well within the Newton tolerance
    stored = np.loadtxt(REFERENCE, delimiter=",", comments="#", skiprows=2)
    result, _ = run_single(RunConfig(integrator="implicit", cells=8,
                                     t_end=0.01, implicit_dt=6.25e-5))
    assert result.aggregates["steps"] == 160
    rows = len(result.times)
    assert rows == 11
    times, probe = stored[:rows, 0], stored[:rows, 1]
    assert np.allclose(result.times, times, rtol=0.0, atol=1e-15)
    gap = result.probe_b - probe
    assert np.linalg.norm(gap) <= 1e-9 * np.linalg.norm(probe)
    assert np.abs(gap).max() <= 1e-9 * np.abs(probe).max()


def test_newton_budget_failure_carries_history(corner_toy):
    system = corner_toy.system
    config = NewtonConfig(max_newton=1)
    with pytest.raises(NewtonFailureError) as err:
        implicit_euler_step((np.zeros(system.n_c), np.zeros(system.n_n), 0.0),
                            0.2, system, config)
    assert len(err.value.residual_history) >= 2
    assert "Newton" in str(err.value) or "newton" in str(err.value)


def test_run_implicit_abort_records_reason(corner_toy):
    with pytest.raises(NewtonFailureError, match=r"^step 1: ") as err:
        run_implicit(corner_toy.system, t_end=0.4, dt=0.2,
                     config=NewtonConfig(max_newton=1))
    assert len(err.value.residual_history) >= 2


def test_validation_errors(rng, make_linear_system, monkeypatch):
    system, _ = make_linear_system(rng)
    state = (np.zeros(3), np.zeros(5), 0.0)
    with pytest.raises(ValueError):
        implicit_euler_step(state, 0.0, system)
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_newton=0)

    # a bad run argument fails first, naming itself
    def no_jacobian(*_):
        raise AssertionError("a Newton matrix was built")

    monkeypatch.setattr(implicit, "MonolithicJacobian", no_jacobian)
    for name, bad in [("t_end", 0.0), ("t_end", np.nan), ("t_end", np.inf),
                      ("dt", 0.0), ("dt", np.nan), ("dt", True),
                      ("dt", "auto"), ("output_period", 0.0),
                      ("output_period", np.nan)]:
        with pytest.raises(ValueError, match=f"^{name} "):
            run_implicit(system, **(dict(t_end=1.0, dt=1e-3) | {name: bad}))


@pytest.mark.parametrize("model", ["builtin6", "builtin6_linear"])
def test_a_step_near_a_stationary_state_stops_at_the_floor(model, request):
    # a frozen source and long steps: by the third step tol * r0 is far
    # below the rounding floor, so the floor sets the target and the inner
    # target with it, and PCG stops before it meets the rounding-level
    # nullspace component of -F, which it would report as an inconsistent
    # right-hand side
    system = request.getfixturevalue(model).system
    j_n = 1e-3 * system.source(1.0)
    frozen = dataclasses.replace(system, source=lambda t: j_n)
    x_c, x_n, t = np.zeros(system.n_c), np.zeros(system.n_n), 0.0
    for _ in range(3):
        x_c, x_n, report = implicit_euler_step((x_c, x_n, t), 10.0, frozen)
        assert report.residual_history[-1] <= report.target
        t += 10.0
    assert report.newton_iterations == 1
    assert report.target > 1e4 * NewtonConfig().tol * report.r0


def test_singular_block_keeps_algebraic_row_consistent(rng,
                                                       make_linear_system):
    system, blocks = make_linear_system(rng, n_c=4, n_n=8, singular=True)
    t_end = 0.03
    result = run_implicit(system, t_end=t_end, dt=1e-2, config=TIGHT)
    j = blocks["pattern"] * ramp_value(t_end, blocks["tau"])
    residual = (blocks["kcn"].T @ result.final_a_c
                + blocks["kn"] @ result.final_a_n - j)
    assert np.linalg.norm(residual) <= 1e-7 * np.linalg.norm(j)


def test_an_inconsistent_source_is_named_as_such(rng, make_linear_system):
    # the singular system's null vector (0, g) is also a null vector of the
    # Newton matrix; a source with a component along g has no solution
    system, blocks = make_linear_system(rng, n_c=4, n_n=8, singular=True)
    g = blocks["nullvec"]
    source = system.source

    def inconsistent(t):
        j = source(t)
        return j + 1e-2 * np.linalg.norm(j) * g

    broken = dataclasses.replace(system, source=inconsistent)
    with pytest.raises(NewtonFailureError,
                       match="^linear solve failed at Newton iteration 1: "
                             "inconsistent right-hand side") as err:
        implicit_euler_step((np.zeros(4), np.zeros(8), 0.0), 1e-2, broken,
                            TIGHT)
    assert "curvature" not in str(err.value)
    assert type(err.value.__cause__) is InconsistentRhsError


def bmat_jacobian(system, kc, dt):
    """Newton matrix around the K_c Jacobian *kc*, block by block with bmat."""
    kcn = system.kcn.to_scipy()
    top_left = system.mc.to_scipy() * (1.0 / dt) + kc.to_scipy()
    return sp.bmat([[top_left, kcn], [kcn.T, system.kn.to_scipy()]]).toarray()


def test_monolithic_jacobian_matches_bmat_for_a_shortened_step(builtin6):
    system = builtin6.system
    jacobian = MonolithicJacobian(system)
    x_c, x_n = np.zeros(system.n_c), np.zeros(system.n_n)
    assembled = []
    # a full 1 ms step, then the shorter last step of a run that 1 ms steps
    # do not divide evenly
    for t, dt in ((0.0, 1e-3), (1e-3, 3.7e-4)):
        x_c, x_n, _ = implicit_euler_step((x_c, x_n, t), dt, system,
                                          jacobian=jacobian)
        assembled.append(jacobian(x_c, dt))
        assert np.array_equal(
            assembled[-1].to_dense(),
            bmat_jacobian(system, system.kc_jacobian(x_c), dt))
    assert assembled[1].row_ptr is assembled[0].row_ptr


def test_the_refreshed_preconditioner_is_the_newton_matrix_jacobi(builtin6):
    # only the conductor rows are refreshed; the result is bitwise the
    # preconditioner built from the whole diagonal
    system = builtin6.system
    jacobian = MonolithicJacobian(system)
    rng = np.random.default_rng(2)
    for dt in (1e-3, 3.7e-4):
        jac = jacobian(rng.standard_normal(system.n_c) * 2e-5, dt)
        r = rng.standard_normal(jac.nrows)
        assert (jacobian.preconditioner(jac).apply(r).tobytes()
                == build_preconditioner(jac).apply(r).tobytes())


@pytest.mark.parametrize("singular", [False, True])
def test_monolithic_jacobian_matches_bmat_for_constant_kc(rng,
                                                          make_linear_system,
                                                          singular):
    system, _ = make_linear_system(rng, n_c=4, n_n=7, singular=singular)
    jacobian = MonolithicJacobian(system)
    x_c = rng.standard_normal(4)
    for dt in (1e-2, 3e-3):
        assert np.array_equal(
            jacobian(x_c, dt).to_dense(),
            bmat_jacobian(system, system.kc_jacobian(x_c), dt))


def test_monolithic_jacobian_follows_a_changing_kc_pattern(
        rng, make_linear_system):
    system, blocks = make_linear_system(rng, n_c=4, n_n=6)
    pruned = blocks["kc"].copy()
    pruned[0, 3] = pruned[3, 0] = 0.0
    patterns = [CsrMatrix.from_dense(blocks["kc"]),
                CsrMatrix.from_dense(pruned)]
    assert patterns[0].nnz != patterns[1].nnz
    served = []

    def kc_jacobian(state):
        served.append(patterns[len(served) % 2])
        return served[-1]

    changing = dataclasses.replace(system, kc_jacobian=kc_jacobian)
    jacobian = MonolithicJacobian(changing)
    x_c = rng.standard_normal(4)
    for k in range(4):
        assembled = jacobian(x_c, 1e-2)
        assert len(served) == k + 1
        assert np.array_equal(assembled.to_dense(),
                              bmat_jacobian(changing, served[-1], 1e-2))


def test_kc_matrix_backed_jacobian_keeps_its_pattern(builtin6):
    full = builtin6.system
    # without kc_jacobian the system falls back to kc_matrix, which builds
    # new index arrays on every call
    system = PartitionedSystem(mc=full.mc, kcn=full.kcn, kn=full.kn,
                               kc_apply=full.kc_apply,
                               kc_matrix=full.kc_matrix, source=full.source)
    jacobian = MonolithicJacobian(system)
    first = jacobian(np.zeros(system.n_c), 1e-3)
    state = np.random.default_rng(1).standard_normal(system.n_c) * 2e-6
    second = jacobian(state, 1e-3)
    assert second.row_ptr is first.row_ptr
    assert np.array_equal(second.to_dense(), bmat_jacobian(
        system, system.kc_matrix(state), 1e-3))


def test_non_finite_source_aborts_with_the_step_number(builtin6):
    system = builtin6.system
    source = system.source

    def failing(t):
        return source(t) if t <= 2e-3 else np.full(system.n_n, np.nan)

    with pytest.raises(NewtonFailureError,
                       match=r"^step 3: .*non-finite residual"):
        run_implicit(dataclasses.replace(system, source=failing), 5e-3, 1e-3)


def test_non_finite_jacobian_raises_newton_failure(rng, make_linear_system):
    system, _ = make_linear_system(rng)
    kc = system.kc_jacobian(None)
    broken = dataclasses.replace(
        system, kc_jacobian=lambda state: kc.with_values(
            np.full(kc.nnz, np.inf)))
    with pytest.raises(NewtonFailureError, match="Newton iteration 1"):
        implicit_euler_step((np.zeros(3), np.zeros(5), 0.0), 1e-2, broken)


def test_an_overflowing_mass_term_raises_newton_failure(rng,
                                                        make_linear_system):
    # M_c/dt + J_c is the one block of the Newton matrix whose values the
    # assembly tests: 1/dt overflows here, with no warning
    system, _ = make_linear_system(rng)
    jacobian = MonolithicJacobian(system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="M_c/dt"):
            jacobian(np.zeros(3), 1e-310)
        with pytest.raises(NewtonFailureError,
                           match="^non-finite Jacobian at Newton iteration 1"):
            implicit_euler_step((rng.standard_normal(3), np.zeros(5), 0.0),
                                1e-310, system, jacobian=jacobian)
    assert np.isfinite(jacobian(np.zeros(3), 1e-3).values).all()
