"""Quadratic regulator tests: stationary equation, finite-horizon flows,
loop-gain identity, root-locus cross-checks, value function."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from conftest import rng, sorted_complex
from statespace_kit import lqr as lqr_module
from statespace_kit import numkit
from statespace_kit.errors import (
    ArgumentError,
    AxisEigenvalue,
    IllConditioned,
    NotDetectable,
    NotStabilizable,
    RepeatedHamiltonianEigenvalues,
    StableSpaceDefect,
    WorkBudgetExceeded,
)
from statespace_kit.lqr import (
    LqrProblem,
    lqr_value,
    return_difference_report,
    solve_are,
    solve_rde,
    solve_rde_by_hamiltonian,
    symmetric_root_locus,
    symmetric_root_locus_multi,
)
from statespace_kit.model import ltv_model, state_space
from statespace_kit.realization import ccf, rational
from statespace_kit.response import simulate

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)


def two_input_problem():
    sys = state_space(np.array([[0.0, -1.0], [0.0, 0.0]]), np.eye(2))
    return LqrProblem(sys, Q=np.array([[4.0, 2.0], [2.0, 1.0]]), R=np.eye(2))


def chain_problem():
    # one integrator feeding a lag, only the position weighted
    sys = state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                      np.array([[0.0], [1.0]]))
    return LqrProblem(sys, Q=np.diag([1.0, 0.0]), R=np.array([[1.0]]))


def scalar_unstable_problem(t1=None, M=None):
    sys = state_space(np.array([[1.0]]), np.array([[1.0]]))
    return LqrProblem(sys, Q=np.array([[1.0]]), R=np.array([[1.0]]),
                      M=M, t1=t1)


# ---------------------------------------------------------------------------
# problem validation


def test_problem_rejects_bad_weights():
    sys = state_space(np.array([[-1.0]]), np.array([[1.0]]))
    for name, change in [
        ("R", {"R": np.array([[0.0]])}),
        ("Q", {"Q": np.array([[-1.0]])}),
        ("M", {"M": np.array([[-1.0]]), "t1": 1.0}),
        ("t1", {"t0": 1.0, "t1": 1.0}),
        ("t1", {"t0": 2.0, "t1": 1.0}),
    ]:
        args = dict({"Q": np.array([[1.0]]), "R": np.array([[1.0]])}, **change)
        with pytest.raises(ValueError) as info:
            LqrProblem(sys, **args)
        assert isinstance(info.value, ArgumentError)
        assert info.value.name == name


def test_state_cost_factor_squares_to_weight():
    gen = rng(301)
    F = gen.normal(size=(2, 3))
    Q = F.T @ F
    prob = LqrProblem(state_space(-np.eye(3), np.ones((3, 1))), Q=Q,
                      R=np.array([[1.0]]))
    C = prob.state_cost_factor()
    np.testing.assert_allclose(C.T @ C, Q, atol=1e-12)


def test_horizon_flags():
    assert scalar_unstable_problem().infinite
    assert not scalar_unstable_problem(t1=2.0).infinite
    with pytest.raises(ValueError):
        solve_rde(scalar_unstable_problem())
    with pytest.raises(ValueError):
        solve_are(scalar_unstable_problem(t1=2.0))


# ---------------------------------------------------------------------------
# stationary equation


def test_are_two_input_golden():
    sol = solve_are(two_input_problem())
    np.testing.assert_allclose(sol.P_bar, [[2.0, 0.0], [0.0, 1.0]], atol=1e-8)
    np.testing.assert_allclose(sorted_complex(sol.closed_loop_poles),
                               [-2.0, -1.0], atol=1e-8)
    np.testing.assert_allclose(sol.K_bar, [[2.0, 0.0], [0.0, 1.0]], atol=1e-8)


def test_are_chain_golden():
    sol = solve_are(chain_problem())
    np.testing.assert_allclose(sol.P_bar, [[SQRT3, 1.0], [1.0, SQRT3 - 1.0]],
                               atol=1e-8)
    np.testing.assert_allclose(sol.K_bar, [[1.0, SQRT3 - 1.0]], atol=1e-8)
    want = [-0.5 * (SQRT3 + 1.0j), -0.5 * (SQRT3 - 1.0j)]
    np.testing.assert_allclose(sorted_complex(sol.closed_loop_poles),
                               sorted_complex(np.array(want)), atol=1e-8)


def test_are_scalar_stationary_value():
    sol = solve_are(scalar_unstable_problem())
    np.testing.assert_allclose(sol.P_bar, [[1.0 + SQRT2]], atol=1e-10)


def test_are_residual_is_tiny():
    prob = two_input_problem()
    sol = solve_are(prob)
    A, B = prob.sys.A, prob.sys.B
    S = B @ np.linalg.solve(prob.R, B.T)
    res = A.T @ sol.P_bar + sol.P_bar @ A - sol.P_bar @ S @ sol.P_bar + prob.Q
    assert np.max(np.abs(res)) <= 1e-10


def test_are_work_counts_dense(linalg_calls):
    # one SVD per staircase step: n / m for (A, B) and one for the full-rank
    # cost factor; one eigendecomposition, of the coupled-flow matrix
    n, m = 30, 2
    gen = rng(71)
    A = gen.normal(size=(n, n)) / np.sqrt(n) - 0.5 * np.eye(n)
    G = gen.normal(size=(n, n))
    prob = LqrProblem(state_space(A, gen.normal(size=(n, m))),
                      Q=G @ G.T / n + 0.5 * np.eye(n), R=np.eye(m))
    solve_are(prob)
    assert linalg_calls["svd"] <= n // m + 1
    assert linalg_calls["eig"] <= 1


def test_are_zero_weight_warns_and_returns_zero():
    sys = state_space(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]))
    sol = solve_are(LqrProblem(sys, Q=np.zeros((2, 2)), R=np.array([[1.0]])))
    np.testing.assert_allclose(sol.P_bar, np.zeros((2, 2)), atol=1e-10)
    np.testing.assert_allclose(sol.K_bar, np.zeros((1, 2)), atol=1e-10)
    assert any("vacuously" in w for w in sol.warnings)


def test_are_not_stabilizable():
    sys = state_space(np.array([[1.0]]), np.array([[0.0]]))
    with pytest.raises(NotStabilizable):
        solve_are(LqrProblem(sys, Q=np.array([[1.0]]), R=np.array([[1.0]])))


def test_are_not_detectable():
    sys = state_space(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(NotDetectable):
        solve_are(LqrProblem(sys, Q=np.array([[0.0]]), R=np.array([[1.0]])))


def jordan_problem(n, q):
    # a stable Jordan block driven through its last state: the coupled-flow
    # matrix is defective (q = 0) or nearly so (small q)
    A = -np.eye(n) + np.diag(np.ones(n - 1), 1)
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    return LqrProblem(state_space(A, b), Q=q * np.eye(n), R=np.array([[1.0]]))


def kleinman_reference(prob, steps=6):
    # Newton-Kleinman from the stabilizing gain K = 0 (A is stable, R = 1);
    # the first step is the Lyapunov solution of the open loop
    A, B = prob.sys.A, prob.sys.B
    K = np.zeros((B.shape[1], A.shape[0]))
    for _ in range(steps):
        P = solve_continuous_lyapunov((A - B @ K).T, -(prob.Q + K.T @ K))
        K = B.T @ P
    return P


@pytest.mark.parametrize("n", [2, 4])
def test_are_defective_hamiltonian_zero_weight(n):
    sol = solve_are(jordan_problem(n, 0.0))
    assert np.max(np.abs(sol.P_bar)) <= 1e-15
    assert np.max(np.abs(sol.K_bar)) <= 1e-15


@pytest.mark.parametrize("q", [1e-12, 1e-8])
def test_are_nearly_defective_hamiltonian(q):
    prob = jordan_problem(4, q)
    sol = solve_are(prob)
    assert np.max(np.abs(sol.P_bar - kleinman_reference(prob))) <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 2),
       log_c=st.floats(-12.0, 12.0), rotate=st.booleans())
def test_are_survives_scaling_and_rotation(seed, n, m, log_c, rotate):
    # (A, Q, R) -> (cA, cQ, R/c) leaves P alone; an orthogonal change of
    # coordinates T takes P to T'PT
    gen = rng(seed)
    A = gen.normal(size=(n, n)) / np.sqrt(n)
    B = gen.normal(size=(n, m))
    G = gen.normal(size=(n, n))
    Q = G @ G.T / n + 0.1 * np.eye(n)
    F = gen.normal(size=(m, m))
    R = F @ F.T / m + np.eye(m)
    base = solve_are(LqrProblem(state_space(A, B), Q=Q, R=R)).P_bar
    c = 10.0 ** log_c
    T = np.linalg.qr(gen.normal(size=(n, n)))[0] if rotate else np.eye(n)
    moved = LqrProblem(state_space(c * (T.T @ A @ T), T.T @ B),
                       Q=c * (T.T @ Q @ T), R=R / c)
    P = solve_are(moved).P_bar
    assert np.linalg.norm(P - T.T @ base @ T) <= 1e-8 * np.linalg.norm(base)


def test_are_axis_gate_names_distance_and_band():
    sys = state_space(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1e-6]]))
    with pytest.raises(StableSpaceDefect, match="imaginary axis") as exc:
        solve_are(LqrProblem(sys, Q=1e-6 * np.eye(2), R=np.array([[1.0]])))
    assert "7.071e-10" in str(exc.value) and "1.000e-09" in str(exc.value)


def test_are_closed_loop_gate_names_distance_and_bound(monkeypatch):
    real = numkit.eigen

    def shifted(M):
        return dataclasses.replace(real(M), values=real(M).values + 1e-3)

    monkeypatch.setattr(numkit, "eigen", shifted)
    with pytest.raises(StableSpaceDefect, match="closed-loop") as exc:
        solve_are(two_input_problem())
    # poles -1 and -2, each 1e-3 away: the worst margin is at -1
    assert "1.000e-03" in str(exc.value) and "2.000e-06" in str(exc.value)


def test_are_conditioning_gate_names_ratio_and_threshold(monkeypatch):
    W = -np.eye(4)
    W[2:, 2:] += np.diag([1.0, 2.0 ** -46])  # W22 + I = diag(1, 2^-46), exactly
    monkeypatch.setattr(lqr_module, "_matrix_sign", lambda H: W)
    with pytest.raises(StableSpaceDefect, match="condition") as exc:
        solve_are(two_input_problem())
    assert "7.037e+13" in str(exc.value) and "1e+12" in str(exc.value)


def test_are_sign_iteration_cap_names_steps_and_tolerance(monkeypatch):
    monkeypatch.setattr(lqr_module, "_SIGN_MAX_STEPS", 2)
    with pytest.raises(StableSpaceDefect, match="2 steps") as exc:
        solve_are(two_input_problem())
    assert re.search(r"change \d\.\d{3}e[-+]\d\d above 1e-08", str(exc.value))


# ---------------------------------------------------------------------------
# finite-horizon flow


def test_rde_scalar_reaches_stationary_value():
    sol = solve_rde(scalar_unstable_problem(t1=10.0, M=np.array([[5.0]])))
    assert abs(sol.P_at(0.0)[0, 0] - (1.0 + SQRT2)) <= 1e-4
    np.testing.assert_allclose(sol.P_at(10.0), [[5.0]], atol=1e-12)


def test_rde_zero_data_stays_zero():
    sys = state_space(np.array([[1.0]]), np.array([[1.0]]))
    prob = LqrProblem(sys, Q=np.array([[0.0]]), R=np.array([[1.0]]), t1=3.0)
    sol = solve_rde(prob, steps=900)
    assert np.max(np.abs(sol.P_grid)) == 0.0


def reference_rde_sweep(prob, steps):
    # the backward sweep written out: fourth-order steps in s = t1 - t of
    # Q + PA + A'P - PSP, resymmetrized after each step
    n = prob.Q.shape[0]
    M = prob.M if prob.M is not None else np.zeros((n, n))
    h = (prob.t1 - prob.t0) / steps
    Rinv = np.linalg.solve(prob.R, np.eye(prob.R.shape[0]))

    def flow(P, t):
        if callable(prob.sys.A):
            A = numkit.as_matrix(prob.sys.A(t))
            B = numkit.as_matrix(prob.sys.B(t))
        else:
            A, B = prob.sys.A, prob.sys.B
        S = B @ Rinv @ B.T
        return prob.Q + P @ A + A.T @ P - P @ S @ P

    P, t = M.astype(float), prob.t1
    times, grid = [t], [P]
    for _ in range(steps):
        k1 = flow(P, t)
        k2 = flow(P + h / 2 * k1, t - h / 2)
        k3 = flow(P + h / 2 * k2, t - h / 2)
        k4 = flow(P + h * k3, t - h)
        P = P + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        P = 0.5 * (P + P.T)
        t -= h
        times.append(t)
        grid.append(P)
    return np.array(times[::-1]), np.array(grid[::-1])


def test_rde_sweep_matches_reference_loop_bitwise():
    lti = LqrProblem(two_input_problem().sys, Q=np.diag([4.0, 1.0]),
                     R=np.array([[2.0, 0.5], [0.5, 1.0]]),
                     M=np.array([[1.0, 0.2], [0.2, 0.5]]), t0=0.3, t1=1.7)
    varying = ltv_model(
        lambda t: np.array([[0.0, 1.0], [-1.0 - 0.5 * np.sin(t), -0.2]]),
        lambda t: np.array([[0.0], [1.0 + 0.3 * np.cos(t)]]), n=2, m=1, p=2)
    ltv = LqrProblem(varying, Q=np.diag([1.0, 0.1]), R=np.array([[0.5]]),
                     t1=2.0)
    for prob, steps in ((lti, 70), (ltv, 150)):
        sol = solve_rde(prob, steps=steps)
        times, grid = reference_rde_sweep(prob, steps)
        assert np.array_equal(sol.times, times)
        assert np.array_equal(sol.P_grid, grid)


def test_rde_sweep_totals_its_work_before_the_first_step(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a step ran")

    prob = LqrProblem(two_input_problem().sys, Q=np.eye(2), R=np.eye(2),
                      t1=1.0)
    default = lqr_module._default_rde_steps(prob)
    real = numkit.rk4_march
    for steps, work in ((70, 70 * 8), (None, default * 8)):
        monkeypatch.setattr(numkit, "rk4_march", never)
        monkeypatch.setattr(lqr_module, "RDE_BUDGET", work - 1)
        with pytest.raises(WorkBudgetExceeded, match=f" is {work} steps x n"):
            solve_rde(prob, steps=steps)
        monkeypatch.setattr(numkit, "rk4_march", real)
        monkeypatch.setattr(lqr_module, "RDE_BUDGET", work)
        assert solve_rde(prob, steps=steps).times.size == (steps or default) + 1


def test_rde_gain_uses_current_matrix():
    sol = solve_rde(scalar_unstable_problem(t1=4.0, M=np.array([[5.0]])),
                    steps=2000)
    K0 = sol.K_at(0.0)
    np.testing.assert_allclose(K0, sol.P_at(0.0), atol=1e-12)  # B = R = 1


def _searchsorted_P_at(sol, t):
    # the interpolation P_at computed with np.clip and np.searchsorted
    ts = sol.times
    t = float(np.clip(t, ts[0], ts[-1]))
    i = int(np.searchsorted(ts, t, side="right") - 1)
    i = min(max(i, 0), ts.size - 2)
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * sol.P_grid[i] + w * sol.P_grid[i + 1]


def test_rde_interpolation_matches_searchsorted_bitwise():
    sys = state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                      np.array([[0.0], [1.0]]))
    prob = LqrProblem(sys, Q=np.diag([1.0, 0.0]), R=np.array([[1.0]]),
                      M=np.eye(2), t0=0.5, t1=2.0)
    sweep = solve_rde(prob, steps=30)
    two_point = dataclasses.replace(sweep, times=sweep.times[[0, -1]],
                                    P_grid=sweep.P_grid[[0, -1]])
    for sol in (sweep, two_point):
        ts = sol.times
        mids = 0.5 * (ts[:-1] + ts[1:])
        inside = rng(5).uniform(ts[0], ts[-1], size=40)
        outside = [ts[0] - 1.0, np.nextafter(ts[0], -np.inf), -1e300,
                   np.nextafter(ts[-1], np.inf), ts[-1] + 3.0, 1e300]
        for t in [*ts, *mids, *inside, *outside]:
            assert np.array_equal(sol.P_at(t), _searchsorted_P_at(sol, t)), t


def test_hamiltonian_route_matches_terminal_weight():
    sol = solve_rde_by_hamiltonian(
        scalar_unstable_problem(t1=2.0, M=np.array([[5.0]])))
    np.testing.assert_allclose(sol.P_at(2.0), [[5.0]], atol=1e-9)


def test_hamiltonian_route_refuses_axis_eigenvalues():
    # a rotation with zero state weight: H carries the spectrum of A
    sys = state_space(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                      np.array([[0.0], [1.0]]))
    prob = LqrProblem(sys, Q=np.zeros((2, 2)), R=np.array([[1.0]]), t1=1.0)
    with pytest.raises(AxisEigenvalue):
        solve_rde_by_hamiltonian(prob)


def test_hamiltonian_route_refuses_repeated_eigenvalues():
    # two identical decoupled channels: each eigenvalue of H comes twice
    prob = LqrProblem(state_space(-np.eye(2), np.eye(2)), Q=np.eye(2),
                      R=np.eye(2), t1=1.0)
    with pytest.raises(RepeatedHamiltonianEigenvalues):
        solve_rde_by_hamiltonian(prob)


def test_hamiltonian_route_fixed_point():
    M = np.array([[1.0 + SQRT2]])
    sol = solve_rde_by_hamiltonian(scalar_unstable_problem(t1=3.0, M=M))
    assert np.max(np.abs(sol.P_grid - (1.0 + SQRT2))) <= 1e-8


def test_rde_routes_agree_two_state():
    sys = state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                      np.array([[0.0], [1.0]]))
    prob = LqrProblem(sys, Q=np.diag([1.0, 0.0]), R=np.array([[1.0]]),
                      M=np.eye(2), t1=2.0)
    sweep = solve_rde(prob)
    closed = solve_rde_by_hamiltonian(prob, samples=41)
    for t, P in zip(closed.times, closed.P_grid):
        np.testing.assert_allclose(sweep.P_at(t), P, atol=1e-6)


def test_hamiltonian_spectrum_reflection_symmetry():
    prob = two_input_problem()
    H, _, _ = numkit.hamiltonian(prob.sys.A, prob.sys.B, prob.Q, prob.R)
    lam = np.linalg.eigvals(H)
    for z in lam:
        assert np.min(np.abs(lam + z)) <= 1e-8 * (1.0 + abs(z))
    assert H.shape == (4, 4)


# ---------------------------------------------------------------------------
# loop-gain margins


def test_margin_bound_chain_fixture():
    rep = return_difference_report(solve_are(chain_problem()))
    assert rep.omegas.size == 400
    assert rep.min_return_difference >= 1.0 - 1e-6
    assert rep.identity_residual <= 1e-7
    np.testing.assert_allclose(rep.sensitivity,
                               1.0 / rep.return_difference, atol=1e-12)


def test_margin_bound_two_input_fixture():
    rep = return_difference_report(solve_are(two_input_problem()))
    assert rep.min_return_difference >= 1.0 - 1e-6
    assert rep.identity_residual <= 1e-7


def _loop_margins(sol, omegas):
    """Per-frequency reference for the stacked margin sweep."""
    prob = sol.problem
    A, B, K, R = prob.sys.A, prob.sys.B, sol.K_bar, prob.R
    Cfac = prob.state_cost_factor()
    n, m = B.shape
    rd, worst = [], 0.0
    for om in omegas:
        res = np.linalg.solve(1j * om * np.eye(n) - A, B.astype(complex))
        IL = np.eye(m) + K @ res
        lhs = R + (Cfac @ res).conj().T @ (Cfac @ res)
        rhs = IL.conj().T @ R @ IL
        worst = max(worst, np.linalg.norm(lhs - rhs)
                    / max(np.linalg.norm(lhs), np.linalg.norm(R)))
        rd.append(np.linalg.svd(IL, compute_uv=False)[-1])
    return np.array(rd), worst


@pytest.mark.parametrize("problem", [chain_problem, two_input_problem])
def test_margin_sweep_matches_per_frequency_loop(problem):
    sol = solve_are(problem())
    omegas = np.logspace(-2, 2, 57)
    rep = return_difference_report(sol, omegas=omegas)
    rd, worst = _loop_margins(sol, omegas)
    np.testing.assert_allclose(rep.return_difference, rd, rtol=1e-12)
    np.testing.assert_allclose(rep.sensitivity, 1.0 / rd, rtol=1e-12)
    assert rep.min_return_difference == rep.return_difference.min()
    assert rep.min_omega == omegas[np.argmin(rd)]
    assert abs(rep.identity_residual - worst) <= 1e-14


def test_margin_zero_gain_is_unity():
    sys = state_space(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]))
    sol = solve_are(LqrProblem(sys, Q=np.zeros((2, 2)), R=np.array([[1.0]])))
    rep = return_difference_report(sol)
    assert np.all(rep.return_difference == 1.0)
    assert rep.identity_residual <= 1e-14


# ---------------------------------------------------------------------------
# symmetric root locus


def test_srl_matches_are_poles():
    plant = rational([1.0], [1.0, 1.0, 0.0])
    pts = symmetric_root_locus(plant, [1.0])
    sys = ccf(plant)
    prob = LqrProblem(sys, Q=sys.C.T @ sys.C, R=np.array([[1.0]]))
    poles = solve_are(prob).closed_loop_poles
    np.testing.assert_allclose(sorted_complex(pts[0].stable_roots),
                               sorted_complex(poles), atol=1e-6)


def test_srl_expensive_control_limit():
    # large weight pushes the stable branch to the reflected plant poles
    plant = rational([1.0], [1.0, 1.0, 0.0])
    pts = symmetric_root_locus(plant, [1e6])
    roots = np.sort(pts[0].stable_roots.real)
    assert abs(roots[0] + 1.0) <= 1e-2
    assert abs(roots[1]) <= 1e-2


def test_srl_roots_reflection_paired():
    plant = rational([1.0, 4.0], [1.0, 3.0, 2.0])
    for pt in symmetric_root_locus(plant, [0.3, 1.0, 7.0]):
        for z in pt.roots:
            assert np.min(np.abs(pt.roots + z)) <= 1e-8 * (1.0 + abs(z))


def test_srl_multi_state_weight():
    # double integrator with full state weight: two scalar channels
    pts = symmetric_root_locus_multi(
        [1.0, 0.0, 0.0], [[1.0], [1.0, 0.0]], [1.0])
    sys = state_space(np.array([[0.0, 1.0], [0.0, 0.0]]),
                      np.array([[0.0], [1.0]]))
    poles = solve_are(LqrProblem(sys, Q=np.eye(2),
                                 R=np.array([[1.0]]))).closed_loop_poles
    np.testing.assert_allclose(sorted_complex(pts[0].stable_roots),
                               sorted_complex(poles), atol=1e-6)


def _srl_reference(a, numerators, r):
    """One weight as the root locus solved it before weights were stacked."""
    a_even = np.convolve(a, numkit.poly_reflect(a))
    b_even = np.array([0.0])
    for b in numerators:
        b_even = np.polyadd(b_even, np.convolve(b, numkit.poly_reflect(b)))
    roots = np.roots(numkit.poly_trim(np.polyadd(a_even * r, b_even)))
    stable = np.asarray(sorted((z for z in roots if z.real < 0),
                               key=lambda w: (w.real, w.imag)), dtype=complex)
    return roots, stable


def test_srl_stacked_weights_match_one_weight_at_a_time():
    # a(0) = b(0) = 0 puts trailing zeros in every row; 40 weights cross
    # several blocks; a numerator longer than a pads the other side
    gen = rng(433)
    a = np.concatenate([np.poly(-gen.uniform(0.5, 3.0, size=5)), [0.0]])
    cases = [(a, [np.concatenate([gen.normal(size=3), [0.0]])]),
             (a, [gen.normal(size=2), gen.normal(size=4)]),
             ([1.0, 2.0], [[1.0, 0.0, 3.0]])]
    for a, numerators in cases:
        weights = np.logspace(-4, 4, 40)
        points = symmetric_root_locus_multi(a, numerators, weights)
        assert [pt.r for pt in points] == weights.tolist()
        for pt in points:
            roots, stable = _srl_reference(np.asarray(a), numerators, pt.r)
            assert pt.roots.dtype == roots.dtype
            assert pt.roots.tobytes() == roots.tobytes()
            assert pt.stable_roots.tobytes() == stable.tobytes()


def _gaussian_plant():
    """A 16-state Gaussian plant whose locus loses its axis symmetry at
    r = 100 to rounding in the degree-32 polynomial, but not at r = 0.01."""
    gen = rng(5)
    A = gen.standard_normal((16, 16)) / 4.0
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(16)
    return np.real(np.poly(A)), [gen.standard_normal(int(gen.integers(1, 16)))]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_srl_errors_come_in_weight_order():
    a, numerators = _gaussian_plant()
    assert len(symmetric_root_locus_multi(a, numerators, [0.01] * 5)) == 5
    with pytest.raises(IllConditioned):
        symmetric_root_locus_multi(a, numerators, [100.0])
    # the mirror failure at weight 3 comes before the non-finite weight 5,
    # in one block or across two
    for k, j in ((3, 5), (1, 2), (2, 9)):
        weights = [0.01] * 12
        weights[k], weights[j] = 100.0, np.inf
        with pytest.raises(IllConditioned):
            symmetric_root_locus_multi(a, numerators, weights)
        weights[k], weights[j] = np.inf, 100.0
        with pytest.raises(np.linalg.LinAlgError):
            symmetric_root_locus_multi(a, numerators, weights)


def test_srl_failing_early_stacks_few_weights(monkeypatch):
    a, numerators = _gaussian_plant()
    eigvals = np.linalg.eigvals
    stacked = []

    def counting(A):
        stacked.append(A.shape[0] if A.ndim == 3 else 1)
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    for k in range(40):
        stacked.clear()
        weights = [0.01] * 200
        weights[k] = 100.0
        with pytest.raises(IllConditioned):
            symmetric_root_locus_multi(a, numerators, weights)
        assert k + 1 <= sum(stacked) <= 2 * k + 1
    stacked.clear()
    symmetric_root_locus_multi(a, numerators, [0.01] * 25)
    assert stacked == [1, 2, 4, 8, 10]


# ---------------------------------------------------------------------------
# value function


def test_value_vanishes_on_invisible_direction():
    sys = state_space(np.array([[-3.0, -2.0], [1.0, 0.0]]),
                      np.array([[0.0], [1.0]]))
    prob = LqrProblem(sys, Q=np.array([[1.0, 1.0], [1.0, 1.0]]),
                      R=np.array([[1.0]]))
    sol = solve_are(prob)
    p = SQRT5 - 2.0
    np.testing.assert_allclose(sol.P_bar, p * np.ones((2, 2)), atol=1e-8)
    assert np.max(np.abs(sol.P_bar - 0.24)) <= 0.005
    assert lqr_value(sol, [1.0, -1.0]) <= 1e-6


def test_value_matches_simulated_cost():
    prob = chain_problem()
    sol = solve_are(prob)
    A_cl = prob.sys.A - prob.sys.B @ sol.K_bar
    W = prob.Q + sol.K_bar.T @ prob.R @ sol.K_bar
    times = np.linspace(0.0, 14.0, 7001)
    traj = simulate(state_space(A_cl), [1.0, 0.0], times)
    integrand = np.einsum("ti,ij,tj->t", traj.states, W, traj.states)
    cost = np.trapezoid(integrand, times)
    want = lqr_value(sol, [1.0, 0.0])
    assert abs(cost - want) <= 0.02 * want


def test_value_monotone_in_horizon():
    vals = []
    for t1 in (2.0, 5.0, 10.0, 20.0):
        sol = solve_rde(scalar_unstable_problem(t1=t1), steps=int(400 * t1))
        vals.append(sol.value_at([1.0]))
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0 + SQRT2 + 1e-6


def coefficient_calls(monkeypatch):
    calls = []
    real = lqr_module._coeff_matrices

    def counted(prob, t):
        calls.append(t)
        return real(prob, t)

    monkeypatch.setattr(lqr_module, "_coeff_matrices", counted)
    return calls


def test_rde_forms_constant_weight_once(monkeypatch):
    calls = coefficient_calls(monkeypatch)
    prob = LqrProblem(two_input_problem().sys, Q=np.diag([4.0, 1.0]),
                      R=np.eye(2), M=np.eye(2), t1=1.0)
    solve_rde(prob, steps=50)
    assert len(calls) == 1


def test_rde_time_varying_evaluates_once_per_stage_time(monkeypatch):
    calls = coefficient_calls(monkeypatch)
    sys = state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                      np.array([[0.0], [1.0]]))
    varying = ltv_model(lambda t: sys.A, lambda t: sys.B, n=2, m=1, p=2)
    weights = dict(Q=np.diag([1.0, 0.0]), R=np.array([[2.0]]), M=np.eye(2),
                   t1=2.0)
    sol = solve_rde(LqrProblem(varying, **weights), steps=200)
    assert len(calls) <= 2 * 200 + 1
    # constant callables march exactly as the constant-coefficient model
    fixed = solve_rde(LqrProblem(sys, **weights), steps=200)
    assert np.array_equal(sol.P_grid, fixed.P_grid)
