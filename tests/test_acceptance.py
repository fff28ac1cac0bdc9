"""Acceptance battery: every release-gating golden value and property suite,
one test per gate, each at its stated tolerance. Run with -v to get one
pass/fail line per gate."""

import json
import os
import subprocess
import sys

import numpy as np

from conftest import (
    golden_phi_8m2,
    random_controllable_siso,
    random_stable_diagonalizable,
    rng,
    siso_system,
    sorted_complex,
    subspace_angle,
)
from statespace_kit import numkit
from statespace_kit.lqr import (
    LqrProblem,
    return_difference_report,
    solve_are,
    solve_rde,
    solve_rde_by_hamiltonian,
    symmetric_root_locus,
)
from statespace_kit.minprin import (
    TpbvpProblem,
    bilinear_piecewise_cost,
    bilinear_state,
    min_time_terminal_residual,
    solve_bilinear_bang_bang,
    solve_double_integrator_min_time,
    solve_lq_tpbvp,
)
from statespace_kit.model import StateSpace, state_space
from statespace_kit.realization import ccf, rational, ss_to_tf
from statespace_kit.registry import builtin_model
from statespace_kit.response import (
    simulate,
    stm_cayley_hamilton,
    stm_modal,
    stm_series,
)
from statespace_kit.stability import solve_lyapunov, stability_subspaces
from statespace_kit.structural import (
    controllability_grammian,
    controllability_matrix,
    kalman_decompose,
    observability_grammian,
    structural_analysis,
    transmission_zeros,
)
from statespace_kit.synthesis import (
    assemble_observer_feedback,
    diophantine_design,
    integral_control,
    observer_gain,
    place_poles,
)


def test_01_transition_matrix_golden_three_routes():
    A = np.array([[0.0, 1.0], [8.0, -2.0]])
    routes = (stm_series(A), stm_cayley_hamilton(A), stm_modal(A))
    for t in (0.0, 0.1, 0.5, 1.0):
        want = golden_phi_8m2(t)
        for phi in routes:
            np.testing.assert_allclose(phi(t, 0.0), want, atol=1e-8)


def test_02_polynomial_coefficient_golden():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    beta = stm_cayley_hamilton(A).evaluator.beta
    for t in (0.25, 1.0):
        b = np.real(beta(t))
        want0 = 2.0 * np.exp(-t) - np.exp(-2.0 * t)
        want1 = np.exp(-t) - np.exp(-2.0 * t)
        np.testing.assert_allclose(b, [want0, want1], atol=1e-10)


def test_03_lyapunov_solve_golden():
    A = np.array([[0.0, 1.0], [-2.0, -2.0]])
    P = solve_lyapunov(A, np.eye(2))
    np.testing.assert_allclose(P, [[1.25, 0.25], [0.25, 0.375]], atol=1e-10)
    assert P[0, 0] > 0.0
    assert np.linalg.det(P) > 0.0


def test_04_structural_golden():
    sys = state_space(np.array([[-2.0, 0.0], [-1.0, -1.0]]),
                      np.array([[1.0], [1.0]]))
    report = structural_analysis(sys)
    assert report.ctrb_rank == 1
    assert len(report.uncontrollable_modes) == 1
    assert abs(report.uncontrollable_modes[0] - (-1.0)) <= 1e-9
    dec = kalman_decompose(sys, "KCCF")
    np.testing.assert_allclose(dec.A_bar, [[-2.0, -1.0], [0.0, -1.0]],
                               atol=1e-9)
    np.testing.assert_allclose(dec.B_bar, [[1.0], [0.0]], atol=1e-9)


def test_05_stability_subspace_golden():
    A = np.array([[-2.0, 1.0, -1.0], [-2.0, -5.0, 6.0], [-1.0, -3.0, 4.0]])
    pair = stability_subspaces(A)
    assert subspace_angle(pair.unstable,
                          np.array([[0.0], [1.0], [1.0]])) <= 1e-6
    assert subspace_angle(
        pair.stable,
        np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])) <= 1e-6


def test_06_pendubot_round_trip():
    model = builtin_model("pendubot")
    g = ss_to_tf(model).single()
    assert abs(g.num[0] - 15.9549) <= 1e-2
    np.testing.assert_allclose(np.sort(np.real(g.zeros())),
                               [-6.5354, 6.5354], atol=1e-3)
    np.testing.assert_allclose(np.sort(np.real(g.poles())),
                               [-9.4109, -5.6372, 5.6372, 9.4109], atol=1e-3)
    tz = transmission_zeros(model).transmission_zeros
    np.testing.assert_allclose(sorted_complex(tz),
                               sorted_complex(np.roots(g.num)), atol=1e-6)


def test_07_stationary_riccati_goldens():
    sqrt3 = np.sqrt(3.0)
    multi = solve_are(LqrProblem(
        state_space(np.array([[0.0, -1.0], [0.0, 0.0]]), np.eye(2)),
        Q=np.array([[4.0, 2.0], [2.0, 1.0]]), R=np.eye(2)))
    np.testing.assert_allclose(multi.P_bar, [[2.0, 0.0], [0.0, 1.0]],
                               atol=1e-8)
    np.testing.assert_allclose(np.sort(np.real(multi.closed_loop_poles)),
                               [-2.0, -1.0], atol=1e-8)

    chain = solve_are(LqrProblem(
        state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                    np.array([[0.0], [1.0]])),
        Q=np.diag([1.0, 0.0]), R=np.array([[1.0]])))
    np.testing.assert_allclose(chain.P_bar,
                               [[sqrt3, 1.0], [1.0, sqrt3 - 1.0]], atol=1e-8)
    np.testing.assert_allclose(
        sorted_complex(chain.closed_loop_poles),
        sorted_complex([-0.5 * (sqrt3 + 1.0j), -0.5 * (sqrt3 - 1.0j)]),
        atol=1e-8)

    scalar = solve_rde(LqrProblem(
        state_space(np.array([[1.0]]), np.array([[1.0]])),
        Q=np.array([[1.0]]), R=np.array([[1.0]]), t1=20.0))
    assert abs(scalar.P_at(0.0)[0, 0] - (1.0 + np.sqrt(2.0))) <= 1e-3


def test_08_symmetric_locus_matches_stationary_design():
    plant = rational([1.0], [1.0, 1.0, 0.0])
    sys = ccf(plant)
    are = solve_are(LqrProblem(sys, Q=sys.C.T @ sys.C,
                               R=np.array([[1.0]])))
    point = symmetric_root_locus(plant, [1.0])[0]
    np.testing.assert_allclose(sorted_complex(point.stable_roots),
                               sorted_complex(are.closed_loop_poles),
                               atol=1e-6)


def test_09_return_difference_inequality_all_fixtures():
    pendubot = builtin_model("pendubot")
    fixtures = (
        LqrProblem(state_space(np.array([[0.0, -1.0], [0.0, 0.0]]),
                               np.eye(2)),
                   Q=np.array([[4.0, 2.0], [2.0, 1.0]]), R=np.eye(2)),
        LqrProblem(state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                               np.array([[0.0], [1.0]])),
                   Q=np.diag([1.0, 0.0]), R=np.array([[1.0]])),
        LqrProblem(state_space(np.array([[1.0]]), np.array([[1.0]])),
                   Q=np.array([[1.0]]), R=np.array([[1.0]])),
        LqrProblem(state_space(np.array([[-3.0, -2.0], [1.0, 0.0]]),
                               np.array([[0.0], [1.0]])),
                   Q=np.ones((2, 2)), R=np.array([[1.0]])),
        LqrProblem(state_space(pendubot.A, pendubot.B),
                   Q=np.eye(4), R=np.array([[1.0]])),
    )
    omegas = np.logspace(-2.0, 3.0, 400)
    for prob in fixtures:
        report = return_difference_report(solve_are(prob), omegas=omegas)
        assert report.min_return_difference >= 1.0 - 1e-6
        assert report.identity_residual <= 1e-7


def test_10_integral_action_golden():
    sys = state_space(np.array([[-2.0]]), np.array([[1.0]]),
                      np.array([[1.0]]))
    des = integral_control(sys, [-2.0 + 2.0j, -2.0 - 2.0j])
    K1, K2 = des.gains
    assert K1[0, 0] == 2.0
    assert K2[0, 0] == 8.0
    # unit step reference plus constant input disturbance of 0.5
    A_cl = np.array([[-2.0 - K1[0, 0], -K2[0, 0]], [1.0, 0.0]])
    B_cl = np.array([[0.0, 1.0], [-1.0, 0.0]])
    loop = state_space(A_cl, B_cl, np.array([[1.0, 0.0]]))
    times = np.linspace(0.0, 6.0, 1201)
    traj = simulate(loop, [0.0, 0.0], times,
                    u=lambda t: np.array([1.0, 0.5]))
    settled = traj.outputs[times >= 5.0, 0]
    assert np.max(np.abs(settled - 1.0)) <= 1e-4


def test_11_polynomial_design_golden():
    plant = rational([1.0], [1.0, 0.0, -1.0])
    alpha_c = np.array([1.0, 2.0, 2.0])
    alpha_o = np.array([1.0, 11.0, 30.0])
    des = diophantine_design(plant, alpha_c, alpha_o)
    np.testing.assert_allclose(des.d, [1.0, 13.0, 55.0], atol=1e-9)
    np.testing.assert_allclose(des.n_poly, [95.0, 115.0], atol=1e-9)
    # independent re-multiplication of the designed factors
    left = np.polyadd(np.convolve(plant.den, des.d),
                      np.convolve(plant.num, des.n_poly))
    target = np.convolve(alpha_c, alpha_o)
    assert np.max(np.abs(left - target)) <= 1e-10


def test_12_switching_solution_goldens():
    bil = solve_bilinear_bang_bang(0.5, 2.0)
    assert abs(bil.switching_times[0] - 1.0) <= 1e-8
    assert abs(bilinear_state(bil, 0.5, 2.0) - 0.5 * np.e) <= 1e-8

    mt = solve_double_integrator_min_time([1.0, 0.0])
    assert abs(mt.switching_times[0] - 1.0) <= 1e-8
    assert abs(mt.terminal_time - 2.0) <= 1e-8
    assert abs(min_time_terminal_residual(mt, [1.0, 0.0])) <= 1e-6


def test_13_property_suites():
    # cross-method transition matrices, 20 random draws, 1e-7
    gen = rng(1301)
    for _ in range(20):
        A = random_stable_diagonalizable(gen, int(gen.integers(2, 5)))
        mats = [phi(0.7, 0.0) for phi in
                (stm_series(A), stm_cayley_hamilton(A), stm_modal(A))]
        np.testing.assert_allclose(mats[0], mats[1], atol=1e-7)
        np.testing.assert_allclose(mats[0], mats[2], atol=1e-7)

    # semigroup and inverse laws
    for _ in range(5):
        A = random_stable_diagonalizable(gen, 3)
        phi = stm_series(A)
        np.testing.assert_allclose(phi(1.1, 0.0),
                                   phi(1.1, 0.4) @ phi(0.4, 0.0), atol=1e-8)
        np.testing.assert_allclose(np.linalg.inv(phi(0.6, 0.0)),
                                   phi(-0.6, 0.0), atol=1e-8)

    # grammian rank equals reachability-matrix rank, 50 draws
    gen = rng(1303)
    for _ in range(50):
        n = int(gen.integers(2, 5))
        lam = -gen.uniform(0.3, 2.0, size=n) - np.arange(n) * 1.1
        b = gen.normal(size=(n, 1))
        kill = gen.integers(0, n + 1)
        b[gen.permutation(n)[:kill]] = 0.0
        sys = state_space(np.diag(lam), b)
        W = controllability_grammian(sys, 0.0, 2.0).matrix
        assert numkit.rank(W, tol=1e-8) == numkit.rank(
            controllability_matrix(sys.A, sys.B))

    # grammian duality across transposition and time reversal, 1e-6
    gen = rng(1305)
    for _ in range(5):
        A = random_stable_diagonalizable(gen, 3)
        C = gen.normal(size=(2, 3))
        H = observability_grammian(
            StateSpace(A, np.zeros((3, 0)), C, np.zeros((2, 0))),
            0.0, 3.0).matrix
        W = controllability_grammian(
            StateSpace(-A.T, C.T, np.zeros((0, 3)), np.zeros((0, 2))),
            0.0, 3.0).matrix
        np.testing.assert_allclose(H, W, atol=1e-6)

    # placement reproduces the target characteristic polynomial, 50 draws
    gen = rng(1307)
    for _ in range(50):
        n = int(gen.integers(2, 5))
        A, b = random_controllable_siso(gen, n)
        roots = (-gen.uniform(0.5, 3.0, size=n)).astype(complex)
        if gen.random() < 0.5:
            im = gen.uniform(0.5, 2.0)
            roots[0] = complex(roots[0].real, im)
            roots[1] = np.conj(roots[0])
        gains = place_poles(state_space(A, b), list(roots))
        achieved = numkit.char_poly(A - b @ gains.K)
        target = np.real(numkit.poly_from_roots(roots))
        scale = max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(achieved - target)) <= 1e-6 * scale

    # separation of state-feedback and observer spectra, 1e-6
    gen = rng(1309)
    done = 0
    while done < 5:
        n = int(gen.integers(2, 4))
        A, b = random_controllable_siso(gen, n)
        c = gen.normal(size=(1, n))
        sys = siso_system(A, b, c)
        if structural_analysis(sys).obsv_rank < n:
            continue
        state_poles = [-1.0 - k for k in range(n)]
        obs_poles = [-6.0 - k for k in range(n)]
        kg = place_poles(sys, state_poles)
        lg = observer_gain(sys, obs_poles)
        asm = assemble_observer_feedback(sys, kg.K, lg.L)
        got = np.sort(np.real(np.linalg.eigvals(asm.closed_loop.A)))
        want = np.sort(np.real(state_poles + obs_poles))
        np.testing.assert_allclose(got, want, atol=1e-6)
        done += 1

    # two finite-horizon routes agree, 1e-6
    prob = LqrProblem(
        state_space(np.array([[0.0, 1.0], [0.0, -1.0]]),
                    np.array([[0.0], [1.0]])),
        Q=np.diag([1.0, 0.0]), R=np.array([[1.0]]), M=np.eye(2), t1=2.0)
    ham = solve_rde_by_hamiltonian(prob, samples=41)
    sweep = solve_rde(prob)
    for t, P in zip(ham.times, ham.P_grid):
        np.testing.assert_allclose(P, sweep.P_at(t), atol=1e-6)

    # costate of the free-endpoint run equals P(t) x(t), 1e-5
    tp = TpbvpProblem(
        sys=prob.sys, Q=prob.Q, R=prob.R, x0=[1.0, -0.5], x1=[0.0, 0.0],
        t0=0.0, t1=2.0, endpoint_mask=(False, False),
        terminal_penalty=np.eye(2))
    sol = solve_lq_tpbvp(tp, samples=101)
    for k, t in enumerate(sol.trajectory.times):
        np.testing.assert_allclose(
            sol.costate[k], sweep.P_at(t) @ sol.trajectory.states[k],
            atol=1e-5)

    # Monte-Carlo dominance, 100 draws per switching example
    bil = solve_bilinear_bang_bang(0.5, 2.0)
    gen = rng(1311)
    grid = np.linspace(0.0, 2.0, 21)
    for _ in range(100):
        cost = bilinear_piecewise_cost(0.5, grid, gen.random(20))
        assert cost >= bil.cost - 1e-12

    mt = solve_double_integrator_min_time([1.0, 0.0])
    horizon = mt.terminal_time - 1e-3
    nodes = 16001
    ts = np.linspace(0.0, horizon, nodes)
    dt = ts[1] - ts[0]
    for _ in range(100):
        switches = np.sort(gen.integers(1, nodes - 1,
                                        size=int(gen.integers(0, 4))))
        u = np.full(nodes - 1, 1.0 if gen.random() < 0.5 else -1.0)
        for s in switches:
            u[s:] = -u[s - 1]
        x2 = np.concatenate([[0.0], np.cumsum(u) * dt])
        x1 = 1.0 + np.concatenate(
            [[0.0], np.cumsum((x2[:-1] + x2[1:]) * 0.5 * dt)])
        # the origin stays out of reach before the optimal arrival time
        assert np.min(np.hypot(x1, x2)) >= 1.5e-4


def test_14_cli_byte_determinism(tmp_path):
    doc = {
        "model": {"type": "lti", "A": [[0.0, -1.0], [0.0, 0.0]],
                  "B": [[1.0, 0.0], [0.0, 1.0]]},
        "Q": [[4.0, 2.0], [2.0, 1.0]],
        "R": [[1.0, 0.0], [0.0, 1.0]],
        "M": [[1.0, 0.0], [0.0, 1.0]],
        "t1": 1.5,
    }
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    out = tmp_path / "out"

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "statespace_kit.cli", "lqr",
             "--input", str(inp), "--out", str(out), "--seed", "11"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {name: (out / name).read_bytes()
                for name in sorted(os.listdir(out))}

    first = run()
    second = run()
    assert set(first) == {"report.json", "rde_profile.csv"}
    for name in first:
        assert first[name] == second[name], name
