"""Optimality-condition solver tests: LQ endpoint steering, the bilinear
switching example, time-optimal double-integrator runs, residual reports."""

import dataclasses

import numpy as np
import pytest

from conftest import rng
from statespace_kit.errors import InvalidHorizon, SingularPsi12
from statespace_kit.lqr import LqrProblem, solve_rde
from statespace_kit.minprin import (
    ArgminReport,
    BilinearProblem,
    MinTimeProblem,
    TpbvpProblem,
    bilinear_costate,
    bilinear_piecewise_cost,
    bilinear_state,
    hamiltonian_residual,
    min_time_costate,
    min_time_costates,
    min_time_state,
    min_time_states,
    min_time_terminal_residual,
    solve_bilinear_bang_bang,
    solve_double_integrator_min_time,
    solve_lq_tpbvp,
)
from statespace_kit.model import state_space
from statespace_kit.structural import minimum_energy_steer


def double_integrator():
    return state_space(np.array([[0.0, 1.0], [0.0, 0.0]]),
                       np.array([[0.0], [1.0]]))


def steer_problem(x0, x1, t1=1.0):
    return TpbvpProblem(sys=double_integrator(), Q=np.zeros((2, 2)),
                        R=np.array([[1.0]]), x0=x0, x1=x1, t0=0.0, t1=t1)


# ---------------------------------------------------------------------------
# LQ endpoint problems


def test_tpbvp_rejects_bad_data():
    with pytest.raises(ValueError):
        TpbvpProblem(sys=double_integrator(), Q=np.zeros((2, 2)),
                     R=np.array([[0.0]]), x0=[0, 0], x1=[1, 0],
                     t0=0.0, t1=1.0)
    with pytest.raises(ValueError):
        TpbvpProblem(sys=double_integrator(), Q=np.zeros((2, 2)),
                     R=np.array([[1.0]]), x0=[0, 0], x1=[1, 0],
                     t0=0.0, t1=1.0, endpoint_mask=(True,))


def test_tpbvp_golden_double_integrator():
    sol = solve_lq_tpbvp(steer_problem([0.0, 0.0], [1.0, 0.0]))
    np.testing.assert_allclose(sol.trajectory.states[-1], [1.0, 0.0],
                               atol=1e-6)
    np.testing.assert_allclose(sol.initial_costate, [-12.0, -6.0], atol=1e-8)
    t = sol.trajectory.times
    np.testing.assert_allclose(sol.control[:, 0], 6.0 - 12.0 * t, atol=1e-8)
    np.testing.assert_allclose(sol.trajectory.states[:, 0],
                               3.0 * t**2 - 2.0 * t**3, atol=1e-8)
    assert sol.endpoint_residual <= 1e-8


def test_tpbvp_flow_is_one_exponential_per_spacing(expm_calls):
    sol = solve_lq_tpbvp(steer_problem([0.0, 0.0], [1.0, 0.0]), samples=401)
    assert len(expm_calls) <= 8
    t = sol.trajectory.times
    # free double integrator steered by u = 6 - 12 t from rest to (1, 0)
    np.testing.assert_allclose(sol.control[:, 0], 6.0 - 12.0 * t, atol=1e-9)
    np.testing.assert_allclose(sol.trajectory.states[:, 0],
                               3.0 * t**2 - 2.0 * t**3, atol=1e-10)


def test_tpbvp_reverse_run_flips_costate():
    sol = solve_lq_tpbvp(steer_problem([1.0, 0.0], [0.0, 0.0]))
    np.testing.assert_allclose(sol.initial_costate, [12.0, 6.0], atol=1e-8)


def test_tpbvp_trivial_when_endpoint_on_free_flow():
    import scipy.linalg

    x0 = np.array([1.0, 2.0])
    x1 = scipy.linalg.expm(double_integrator().A) @ x0
    sol = solve_lq_tpbvp(steer_problem(x0, x1))
    assert np.max(np.abs(sol.control)) <= 1e-9
    assert np.max(np.abs(sol.costate)) <= 1e-9
    np.testing.assert_allclose(sol.initial_costate, [0.0, 0.0], atol=1e-10)


def test_tpbvp_matches_minimum_energy_steer():
    sys = double_integrator()
    sol = solve_lq_tpbvp(steer_problem([0.0, 0.0], [1.0, 0.0]))
    u_steer, traj = minimum_energy_steer(sys, [0.0, 0.0], [1.0, 0.0],
                                         0.0, 1.0)
    for t, u_val in zip(sol.trajectory.times[::40], sol.control[::40, 0]):
        np.testing.assert_allclose(u_steer(t), [u_val], atol=1e-3)
    np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-4)


def test_tpbvp_unreachable_endpoint():
    sys = state_space(np.array([[0.0, 1.0], [0.0, 0.0]]),
                      np.zeros((2, 1)))
    prob = TpbvpProblem(sys=sys, Q=np.zeros((2, 2)), R=np.array([[1.0]]),
                        x0=[0.0, 0.0], x1=[1.0, 0.0], t0=0.0, t1=1.0)
    with pytest.raises(SingularPsi12):
        solve_lq_tpbvp(prob)


def test_tpbvp_residual_report():
    prob = steer_problem([0.0, 0.0], [1.0, 0.0])
    sol = solve_lq_tpbvp(prob)
    res = hamiltonian_residual(sol, prob)
    assert res.state_residual <= 1e-4
    assert res.costate_residual <= 1e-4
    assert res.stationarity_residual <= 1e-10
    # a visibly suboptimal control must not slip through
    bent = dataclasses.replace(sol, control=sol.control + 0.01)
    worse = hamiltonian_residual(bent, prob)
    assert worse.stationarity_residual >= 0.009


def reference_lq_residuals(sol, prob):
    # the residual loop written with @ and np.linalg.norm
    A, B = prob.sys.A, prob.sys.B
    t, X = sol.trajectory.times, sol.trajectory.states
    Lam, U = sol.costate, sol.control
    sr = cr = st = 0.0
    for k in range(1, t.size - 1):
        dt = t[k + 1] - t[k - 1]
        dx = (X[k + 1] - X[k - 1]) / dt
        dl = (Lam[k + 1] - Lam[k - 1]) / dt
        sr = max(sr, float(np.linalg.norm(dx - (A @ X[k] + B @ U[k]))))
        cr = max(cr, float(np.linalg.norm(dl + prob.Q @ X[k] + A.T @ Lam[k])))
    for k in range(t.size):
        st = max(st, float(np.linalg.norm(prob.R @ U[k] + B.T @ Lam[k])))
    return sr, cr, st


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (4, 2), (6, 3)])
def test_lq_residuals_match_the_reference_loop_bitwise(n, m):
    gen = rng(40 + n)
    A = gen.standard_normal((n, n)) / np.sqrt(n)
    G = gen.standard_normal((n, n))
    prob = TpbvpProblem(sys=state_space(A, gen.standard_normal((n, m))),
                        Q=G @ G.T / n, R=np.diag(gen.uniform(0.5, 2.0, m)),
                        x0=gen.standard_normal(n), x1=gen.standard_normal(n),
                        t0=0.0, t1=1.5)
    sol = solve_lq_tpbvp(prob, samples=int(gen.integers(50, 400)))
    for variant in (sol, dataclasses.replace(sol, control=sol.control + 0.01)):
        res = hamiltonian_residual(variant, prob)
        assert (res.state_residual, res.costate_residual,
                res.stationarity_residual) == reference_lq_residuals(variant, prob)


def test_tpbvp_free_endpoint_matches_riccati_sweep():
    sys = state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                      np.array([[0.0], [1.0]]))
    Q = np.diag([1.0, 0.0])
    R = np.array([[1.0]])
    M = np.eye(2)
    prob = TpbvpProblem(sys=sys, Q=Q, R=R, x0=[1.0, -0.5], x1=[0.0, 0.0],
                        t0=0.0, t1=2.0, endpoint_mask=(False, False),
                        terminal_penalty=M)
    sol = solve_lq_tpbvp(prob, samples=101)
    sweep = solve_rde(LqrProblem(sys, Q=Q, R=R, M=M, t1=2.0))
    for k, t in enumerate(sol.trajectory.times):
        lam_sweep = sweep.P_at(t) @ sol.trajectory.states[k]
        np.testing.assert_allclose(sol.costate[k], lam_sweep, atol=1e-5)


# ---------------------------------------------------------------------------
# bilinear switching example


def test_bilinear_golden_half_start():
    sol = solve_bilinear_bang_bang(0.5, 2.0)
    assert len(sol.switching_times) == 1
    assert abs(sol.switching_times[0] - 1.0) <= 1e-8
    assert abs(bilinear_state(sol, 0.5, 2.0) - 0.5 * np.e) <= 1e-8
    assert abs(sol.cost - (-0.5 * np.e)) <= 1e-8
    assert sol.control_at(0.5) == 1.0
    assert sol.control_at(1.5) == 0.0


def test_bilinear_costate_profile():
    sol = solve_bilinear_bang_bang(0.5, 2.0)
    # linear ramp after the switch, exponential before, continuous at it
    assert abs(bilinear_costate(sol, 2.0) - 0.0) <= 1e-12
    assert abs(bilinear_costate(sol, 1.0) - (-1.0)) <= 1e-12
    assert abs(bilinear_costate(sol, 0.0) - (-np.e)) <= 1e-12
    assert abs(bilinear_costate(sol, 1.5) - (-0.5)) <= 1e-12


def test_bilinear_unit_horizon_never_grows():
    sol = solve_bilinear_bang_bang(1.0, 1.0)
    assert sol.switching_times == (0.0,)
    for t in (0.0, 0.3, 1.0):
        assert sol.control_at(t) == 0.0
    assert abs(bilinear_state(sol, 1.0, 0.7) - 1.0) <= 1e-12


def test_bilinear_short_horizon_rejected():
    with pytest.raises(InvalidHorizon):
        solve_bilinear_bang_bang(1.0, 0.5)


def test_bilinear_argmin_clean():
    sol = solve_bilinear_bang_bang(0.5, 2.0)
    rep = hamiltonian_residual(sol, BilinearProblem(x0=0.5, t1=2.0))
    assert isinstance(rep, ArgminReport)
    assert rep.violations == ()
    assert rep.samples == 201


def reference_control_at(sol, t):
    # the boundary rule one time at a time
    for (a, b, u) in sol.control_pieces:
        if a <= t <= b:
            if t == b and b != sol.control_pieces[-1][1]:
                continue  # the boundary belongs to the next piece
            return u
    return sol.control_pieces[-1][2]


def test_controls_at_keeps_the_boundary_rule():
    sols = [solve_double_integrator_min_time(x0)
            for x0 in ([1.0, 0.0], [-2.0, 0.5], [0.5, -1.0], [0.0, 0.0])]
    sols += [solve_bilinear_bang_bang(0.5, 2.0), solve_bilinear_bang_bang(1.0, 1.0)]
    # the single-piece run along the curve and the zero-time run
    assert [len(sol.control_pieces) for sol in sols] == [2, 2, 1, 1, 2, 2]
    for sol in sols:
        t1 = sol.terminal_time
        probe = [0.0, *sol.switching_times, 0.5 * t1, t1, t1 + 0.5, -0.25]
        want = [reference_control_at(sol, t) for t in probe]
        assert sol.controls_at(probe).tolist() == want
        assert [sol.control_at(t) for t in probe] == want


def reference_bilinear_argmin(sol, prob, u_grid):
    # the grid check one sample at a time, on the closed-form state and costate
    ts, t1 = sol.switching_times[0], sol.terminal_time
    times = np.linspace(0.0, prob.t1, 201)
    bad = []
    for t in times:
        x = prob.x0 * float(np.exp(t if t <= ts else ts))
        p = t - t1 if t >= ts else -float(np.exp(-t + t1 - 1.0))
        hvals = [(u - 1.0) * x + p * u * x for u in u_grid]
        u_star = reference_control_at(sol, t)
        h_star = (u_star - 1.0) * x + p * u_star * x
        if h_star > min(hvals) + 1e-9 * (1.0 + abs(h_star)):
            bad.append(float(t))
    gap = max((abs(t - ts) for t in bad), default=0.0)
    return ArgminReport(violations=tuple(bad), samples=times.size,
                        max_gap_to_switch=gap)


def test_bilinear_argmin_matches_the_reference_loop_bitwise():
    gen = rng(13)
    grids = (np.linspace(0.0, 1.0, 11), [0, 1], gen.uniform(0.0, 1.0, 6))
    cases = [(0.5, 2.0), (1.0, 1.0)] + list(zip(gen.uniform(0.05, 5.0, 6).tolist(),
                                                gen.uniform(1.0, 30.0, 6).tolist()))
    violated = 0
    for x0, t1 in cases:
        sol = solve_bilinear_bang_bang(x0, t1)
        prob = BilinearProblem(x0=x0, t1=t1)
        ts = sol.switching_times[0]
        # an input that switches off early or late breaks the argmin property
        variants = [sol] + [
            dataclasses.replace(sol, control_pieces=((0.0, s, 1.0), (s, t1, 0.0)))
            for s in (0.8 * ts, ts + 0.5 * (t1 - ts))]
        for variant in variants:
            for u_grid in grids:
                rep = hamiltonian_residual(variant, prob, u_grid)
                assert rep == reference_bilinear_argmin(variant, prob, u_grid)
                violated += len(rep.violations) > 0
    assert violated >= 2 * len(cases)


def test_bilinear_dominates_sampled_controls():
    sol = solve_bilinear_bang_bang(0.5, 2.0)
    gen = rng(401)
    grid = np.linspace(0.0, 2.0, 21)
    for _ in range(40):
        u = gen.random(20)  # feasible: values inside [0, 1]
        cost = bilinear_piecewise_cost(0.5, grid, u)
        assert cost >= sol.cost - 1e-12


def test_bilinear_piecewise_cost_recovers_optimum():
    sol = solve_bilinear_bang_bang(0.5, 2.0)
    grid = np.array([0.0, 1.0, 2.0])
    cost = bilinear_piecewise_cost(0.5, grid, [1.0, 0.0])
    assert abs(cost - sol.cost) <= 1e-12


# ---------------------------------------------------------------------------
# time-optimal double integrator


def test_min_time_golden_unit_displacement():
    sol = solve_double_integrator_min_time([1.0, 0.0])
    assert sol.switching_times == (1.0,)
    assert abs(sol.terminal_time - 2.0) <= 1e-8
    assert sol.control_pieces[0][2] == -1.0
    assert sol.control_pieces[1][2] == 1.0
    np.testing.assert_allclose(min_time_state(sol, [1.0, 0.0], 2.0),
                               [0.0, 0.0], atol=1e-8)
    assert abs(min_time_terminal_residual(sol, [1.0, 0.0])) <= 1e-6


def test_min_time_origin_is_instant():
    sol = solve_double_integrator_min_time([0.0, 0.0])
    assert sol.terminal_time == 0.0
    assert sol.switching_times == ()


def test_min_time_on_curve_single_arc():
    sol = solve_double_integrator_min_time([0.5, -1.0])
    assert sol.switching_times == ()
    assert abs(sol.terminal_time - 1.0) <= 1e-10
    assert sol.control_pieces == ((0.0, 1.0, 1.0),)
    np.testing.assert_allclose(min_time_state(sol, [0.5, -1.0], 1.0),
                               [0.0, 0.0], atol=1e-10)


def test_min_time_controls_saturate():
    gen = rng(409)
    for _ in range(25):
        x0 = gen.normal(size=2) * 2.0
        sol = solve_double_integrator_min_time(x0)
        assert len(sol.switching_times) <= 1
        for (_, _, u) in sol.control_pieces:
            assert u in (-1.0, 1.0)
        np.testing.assert_allclose(
            min_time_state(sol, x0, sol.terminal_time), [0.0, 0.0],
            atol=1e-8)
        assert abs(min_time_terminal_residual(sol, x0)) <= 1e-6


def test_min_time_costate_switch_alignment():
    sol = solve_double_integrator_min_time([1.0, 0.0])
    # second component crosses zero exactly at the switch
    p_switch = min_time_costate(sol, 1.0)
    assert abs(p_switch[1]) <= 1e-12
    np.testing.assert_allclose(min_time_costate(sol, 0.0), [1.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(min_time_costate(sol, 2.0), [1.0, -1.0],
                               atol=1e-12)


def test_min_time_argmin_clean():
    sol = solve_double_integrator_min_time([1.0, 0.0])
    rep = hamiltonian_residual(sol, MinTimeProblem(x0=np.array([1.0, 0.0])))
    assert rep.violations == ()


def reference_min_time_costate(sol, t):
    # the closed form at one time: without a switch p = (0, -u), u the last
    # control; with one at ts, p1 is constant and p2 linear in t, zero at ts
    # and -u at the terminal time
    u = sol.control_pieces[-1][2] if sol.control_pieces else 0.0
    if not sol.switching_times:
        return np.array([0.0, -u if u else 0.0])
    ts = sol.switching_times[0]
    slope = -u / (sol.terminal_time - ts)
    return np.array([-slope, slope * (t - ts)])


def reference_min_time_argmin(sol, x0, u_grid):
    # the grid check on numpy scalars, one sample at a time, on the test's
    # own state, costate and control
    times = np.linspace(0.0, sol.terminal_time, 201)
    bad = []
    for t in times:
        x = reference_min_time_state(sol, x0, t)
        p = reference_min_time_costate(sol, t)
        hvals = [1.0 + p[0] * x[1] + p[1] * u for u in u_grid]
        u_star = reference_control_at(sol, t)
        h_star = 1.0 + p[0] * x[1] + p[1] * u_star
        if h_star > min(hvals) + 1e-9 * (1.0 + abs(h_star)):
            bad.append(float(t))
    gap = max((abs(t - s) for t in bad for s in sol.switching_times), default=0.0)
    return ArgminReport(violations=tuple(bad), samples=times.size,
                        max_gap_to_switch=gap)


def test_min_time_costates_match_the_closed_form_bitwise():
    gen = rng(13)
    starts = ([[1.0, 0.0], [-0.5, 1.0], [0.5, -1.0], [0.0, 0.0]]
              + gen.uniform(-3, 3, (4, 2)).tolist())
    for x0 in starts:
        sol = solve_double_integrator_min_time(x0)
        ts = np.linspace(0.0, sol.terminal_time, 51)
        want = np.array([reference_min_time_costate(sol, t) for t in ts])
        assert min_time_costates(sol, ts).tobytes() == want.tobytes()


def test_min_time_argmin_matches_the_reference_loop_bitwise():
    gen = rng(12)
    grids = (np.linspace(-1.0, 1.0, 21), [-1, 0, 1], gen.uniform(-1.0, 1.0, 7))
    starts = ([[1.0, 0.0], [-0.5, 1.0], [0.5, -1.0]]
              + gen.uniform(-3, 3, (5, 2)).tolist())
    violated = 0
    for x0 in starts:
        sol = solve_double_integrator_min_time(x0)
        # a costate that switches early breaks the argmin property
        early = dataclasses.replace(sol, switching_times=tuple(
            0.8 * s for s in sol.switching_times))
        for variant in (sol, early):
            for u_grid in grids:
                rep = hamiltonian_residual(variant, MinTimeProblem(x0=x0), u_grid)
                assert rep == reference_min_time_argmin(variant, x0, u_grid)
                violated += len(rep.violations) > 0
    assert violated >= len(starts)


def reference_min_time_state(sol, x0, t):
    # x0 read on every call, the state integrated piece by piece
    x1, x2 = (float(v) for v in np.asarray(x0, dtype=float).reshape(2))
    pos, vel, now = x1, x2, 0.0
    for (a, b, u) in sol.control_pieces:
        dt = min(t, b) - now
        if dt <= 0:
            break
        pos += vel * dt + 0.5 * u * dt * dt
        vel += u * dt
        now += dt
        if now >= t:
            break
    return np.array([pos, vel])


def test_min_time_states_match_the_reference_bitwise():
    gen = rng(14)
    starts = ([[1.0, 0.0], [0.5, -1.0], [0.0, 0.0]]
              + gen.uniform(-3, 3, (5, 2)).tolist())
    for x0 in starts:
        sol = solve_double_integrator_min_time(x0)
        t1 = sol.terminal_time
        ts = np.concatenate([np.linspace(0.0, t1, 401), [1.5 * t1 + 1.0]])
        want = np.array([reference_min_time_state(sol, x0, t) for t in ts])
        got = min_time_states(sol, np.array(x0), ts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for t in ts[::50]:
            assert (min_time_state(sol, x0, t).tobytes()
                    == reference_min_time_state(sol, x0, t).tobytes())


def test_min_time_beats_slower_feasible_run():
    # a milder deceleration profile needs strictly more time
    sol = solve_double_integrator_min_time([1.0, 0.0])
    # drive with u = -0.5 then +0.5: same structure at half authority
    # doubles every arc duration in this symmetric case
    assert sol.terminal_time < 2.0 * np.sqrt(2.0)


def test_costate_pairing_types():
    sol = solve_lq_tpbvp(steer_problem([0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(TypeError):
        hamiltonian_residual(sol, MinTimeProblem(x0=np.array([1.0, 0.0])))
