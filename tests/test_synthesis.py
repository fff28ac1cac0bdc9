"""Synthesis tests: pole placement, observers, combined compensation,
integral action, polynomial designs."""

import json

import numpy as np
import pytest

from conftest import random_controllable_siso, rng, siso_system, sorted_complex
from statespace_kit import cli, numkit
from statespace_kit.errors import (
    CommonFactor,
    ConjugacyViolation,
    ImproperTransferFunction,
    RankDeficientC,
    SubpairUnobservable,
    Uncontrollable,
    Unobservable,
    ZeroAtOrigin,
)
from statespace_kit.model import StateSpace, state_space
from statespace_kit.realization import ccf, rational
from statespace_kit.response import simulate
from statespace_kit.synthesis import (
    assemble_observer_feedback,
    diophantine_design,
    integral_control,
    observer_gain,
    place_poles,
    reduced_order_observer,
)


def ball_system():
    # second-order plant with one unstable mode, position measured
    return state_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                       np.array([[0.0], [1.0]]),
                       np.array([[1.0, 0.0]]))


# ---------------------------------------------------------------------------
# state feedback


def test_place_golden_gain():
    sys = state_space(np.array([[1.0, 1.0], [0.0, 3.0]]),
                      np.array([[1.0], [1.0]]))
    g = place_poles(sys, [-2.0, -2.0])
    np.testing.assert_allclose(g.K, [[-9.0, 17.0]], atol=1e-9)
    np.testing.assert_allclose(np.sort(g.achieved_state_poles.real),
                               [-2.0, -2.0], atol=1e-6)


def test_place_zero_gain_when_poles_already_there():
    sys = state_space(np.array([[0.0, 1.0], [-2.0, -3.0]]),
                      np.array([[0.0], [1.0]]))
    g = place_poles(sys, [-1.0, -2.0])
    np.testing.assert_allclose(g.K, np.zeros((1, 2)), atol=1e-12)


def test_place_uncontrollable_raises():
    sys = state_space(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))
    with pytest.raises(Uncontrollable):
        place_poles(sys, [-1.0, -2.0])


def test_place_conjugacy_violation():
    sys = state_space(np.array([[0.0, 1.0], [-2.0, -3.0]]),
                      np.array([[0.0], [1.0]]))
    with pytest.raises(ConjugacyViolation):
        place_poles(sys, [-1.0 + 1.0j, -2.0])


@pytest.mark.parametrize("poles", [[-1.0000000001 + 1j, -1.0 - 1j],
                                   [-1.0 + 1j, -1.0000000001 - 1j]])
def test_place_verdict_does_not_depend_on_request_order(tmp_path, poles):
    # a near-conjugate request: sorted by (re, im), one of its two orders
    # paired each request with the other's mate
    sys = state_space(np.array([[0.0, 1.0], [-2.0, -3.0]]),
                      np.array([[0.0], [1.0]]))
    g = place_poles(sys, poles)
    np.testing.assert_allclose(sorted_complex(g.achieved_state_poles),
                               [-1.0 - 1j, -1.0 + 1j], atol=1e-6)
    doc = {"model": {"type": "lti", "A": [[0, 1], [-2, -3]], "B": [[0], [1]]},
           "poles": [[p.real, p.imag] for p in poles]}
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    assert cli.main(["place", "--input", str(inp),
                     "--out", str(tmp_path / "out")]) == 0


def test_place_characteristic_polynomial_property():
    gen = rng(211)
    for _ in range(15):
        n = int(gen.integers(2, 6))
        A, b = random_controllable_siso(gen, n)
        roots = -gen.uniform(0.5, 4.0, size=n)
        if n >= 2 and gen.random() < 0.5:
            w = gen.uniform(0.5, 2.0)
            roots = roots.astype(complex)
            roots[0] = roots[0].real + 1j * w
            roots[1] = roots[0].conjugate()
        g = place_poles(state_space(A, b), roots)
        got = numkit.char_poly(A - b @ g.K)
        want = np.real(numkit.poly_from_roots(roots))
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_place_multi_input_projection():
    sys = state_space(np.diag([1.0, 2.0]), np.eye(2))
    g = place_poles(sys, [-1.0, -2.0])
    assert g.K.shape == (2, 2)
    np.testing.assert_allclose(sorted_complex(g.achieved_state_poles),
                               [-2.0, -1.0], atol=1e-6)
    # funneled through one direction: the gain never exceeds rank one
    assert numkit.rank(g.K) == 1


def test_feedback_cannot_move_unreachable_mode():
    # left eigenvector of the -1 mode annihilates B, so the mode is fixed
    A = np.array([[-2.0, 0.0], [-1.0, -1.0]])
    B = np.array([[1.0], [1.0]])
    gen = rng(223)
    for _ in range(10):
        K = gen.normal(size=(1, 2))
        lam = np.linalg.eigvals(A - B @ K)
        assert np.min(np.abs(lam - (-1.0))) <= 1e-8


# ---------------------------------------------------------------------------
# observers


def test_observer_golden_gain():
    g = observer_gain(ball_system(), [-5.0, -6.0])
    np.testing.assert_allclose(g.L, [[11.0], [31.0]], atol=1e-9)
    np.testing.assert_allclose(np.sort(g.achieved_observer_poles.real),
                               [-6.0, -5.0], atol=1e-6)


def test_observer_unobservable_raises():
    sys = siso_system(np.diag([1.0, 2.0]), np.array([[0.0], [1.0]]),
                      np.array([[1.0, 0.0]]))
    with pytest.raises(Unobservable):
        observer_gain(sys, [-1.0, -2.0])


def test_observer_duality_with_placement():
    gen = rng(227)
    A, b = random_controllable_siso(gen, 3)
    # placing on (A', c') and transposing must agree with the direct call
    c = b.T.copy()
    sys = siso_system(A.T, np.zeros((3, 1)), c)
    g = observer_gain(sys, [-1.0, -2.0, -3.0])
    direct = place_poles(state_space(A, b), [-1.0, -2.0, -3.0])
    np.testing.assert_allclose(g.L, direct.K.T, atol=1e-9)


# ---------------------------------------------------------------------------
# observer plus state feedback


def test_assembly_block_structure_and_spectrum():
    sys = ball_system()
    K = place_poles(sys, [-2.0, -3.0]).K
    L = observer_gain(sys, [-5.0, -6.0]).L
    asm = assemble_observer_feedback(sys, K, L)
    A_cl = asm.closed_loop.A
    assert A_cl.shape == (4, 4)
    np.testing.assert_allclose(A_cl[:2, :2], sys.A - sys.B @ K, atol=1e-12)
    np.testing.assert_allclose(A_cl[2:, :2], np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(A_cl[2:, 2:], sys.A - L @ sys.C, atol=1e-12)
    got = np.sort(np.linalg.eigvals(A_cl).real)
    np.testing.assert_allclose(got, [-6.0, -5.0, -3.0, -2.0], atol=1e-7)
    np.testing.assert_allclose(np.sort(asm.state_poles.real), [-3.0, -2.0],
                               atol=1e-7)
    np.testing.assert_allclose(np.sort(asm.observer_poles.real), [-6.0, -5.0],
                               atol=1e-7)


def test_assembly_compensator_matches_resolvent_formula():
    sys = ball_system()
    K = place_poles(sys, [-2.0, -3.0]).K
    L = observer_gain(sys, [-5.0, -6.0]).L
    asm = assemble_observer_feedback(sys, K, L)
    comp = asm.compensator.single()
    core = sys.A - sys.B @ K - L @ sys.C
    for s in (1.0j, 0.5 + 2.0j, -1.0 + 0.25j):
        direct = (K @ np.linalg.solve(s * np.eye(2) - core, L))[0, 0]
        assert abs(comp(s) - direct) <= 1e-9 * max(1.0, abs(direct))
    # strictly proper: no feedthrough from measurement to actuation
    assert len(comp.num) < len(comp.den)


# ---------------------------------------------------------------------------
# reduced-order observer


def test_reduced_observer_golden_scalar_estimator():
    sys = ball_system()
    red = reduced_order_observer(sys, [-5.0])
    np.testing.assert_allclose(red.gain, [[5.0]], atol=1e-12)
    est = red.estimator
    np.testing.assert_allclose(est.A, [[-5.0]], atol=1e-12)
    np.testing.assert_allclose(est.B, [[-24.0, 1.0]], atol=1e-12)
    # transfer to the second state estimate: ((5s+1) y + u) / (s + 5)
    for s in (1.0j, 2.0 + 1.0j):
        row = est.C[1] @ np.linalg.solve(s * np.eye(1) - est.A, est.B) \
            + est.D[1]
        np.testing.assert_allclose(row, [(5 * s + 1) / (s + 5), 1 / (s + 5)],
                                   atol=1e-12)


def test_reduced_observer_error_decays_at_design_rate():
    # plant and estimator run together; the estimate error of the
    # unmeasured state obeys a pure first-order decay
    sys = ball_system()
    red = reduced_order_observer(sys, [-5.0])
    A_aug = np.zeros((3, 3))
    A_aug[:2, :2] = sys.A
    A_aug[2, 0] = red.estimator.B[0, 0]  # y feeds the estimator state
    A_aug[2, 2] = red.estimator.A[0, 0]
    B_aug = np.array([[0.0], [1.0], [red.estimator.B[0, 1]]])
    plant = state_space(A_aug, B_aug)
    times = np.linspace(0.0, 2.0, 801)
    traj = simulate(plant, [0.3, -0.2, 0.0], times,
                    u=lambda t: np.array([np.sin(t)]))
    x2 = traj.states[:, 1]
    xhat2 = traj.states[:, 2] + 5.0 * traj.states[:, 0]
    err = xhat2 - x2
    expected = err[0] * np.exp(-5.0 * times)
    np.testing.assert_allclose(err, expected, atol=1e-6)


def test_reduced_observer_rank_deficient_measurement():
    sys = StateSpace(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                     np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(RankDeficientC):
        reduced_order_observer(sys, [-3.0])


def test_reduced_observer_subpair_unobservable():
    A = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    sys = StateSpace(A, np.zeros((3, 1)), np.array([[1.0, 0.0, 0.0]]),
                     np.zeros((1, 1)))
    with pytest.raises(SubpairUnobservable):
        reduced_order_observer(sys, [-1.0, -2.0])


# ---------------------------------------------------------------------------
# integral action


def test_integral_golden_gains():
    sys = state_space(np.array([[-2.0]]), np.array([[1.0]]),
                      np.array([[1.0]]))
    des = integral_control(sys, [-2.0 + 2.0j, -2.0 - 2.0j])
    K1, K2 = des.gains
    assert K1[0, 0] == 2.0
    assert K2[0, 0] == 8.0
    assert des.rank_check == 2
    assert des.augmented.integrator_dim == 1
    np.testing.assert_allclose(sorted_complex(des.achieved_poles),
                               [-2.0 - 2.0j, -2.0 + 2.0j], atol=1e-9)


def test_integral_tracks_step_and_rejects_disturbance():
    sys = state_space(np.array([[-2.0]]), np.array([[1.0]]),
                      np.array([[1.0]]))
    des = integral_control(sys, [-2.0 + 2.0j, -2.0 - 2.0j])
    K1, K2 = des.gains
    # states (x, q); inputs (r, d) with u = -K1 x - K2 q + d, qdot = y - r
    A_cl = np.array([[-2.0 - K1[0, 0], -K2[0, 0]], [1.0, 0.0]])
    B_cl = np.array([[0.0, 1.0], [-1.0, 0.0]])
    loop = state_space(A_cl, B_cl, np.array([[1.0, 0.0]]))
    times = np.linspace(0.0, 10.0, 2001)
    traj = simulate(loop, [0.0, 0.0], times,
                    u=lambda t: np.array([1.0, 0.5]))
    y = traj.outputs[:, 0]
    settled = y[times >= 5.0]
    assert np.max(np.abs(settled - 1.0)) <= 1e-4
    assert abs(y[-1] - 1.0) <= 1e-6  # offset-free despite the disturbance


def test_integral_zero_at_origin_rejected():
    sys = ccf(rational([1.0, 0.0], [1.0, 3.0, 2.0]))
    np.testing.assert_allclose(sys.C, [[0.0, 1.0]], atol=1e-12)
    with pytest.raises(ZeroAtOrigin):
        integral_control(sys, [-1.0, -2.0, -3.0])


# ---------------------------------------------------------------------------
# polynomial compensator


def test_diophantine_golden():
    plant = rational([1.0], [1.0, 0.0, -1.0])
    prob = diophantine_design(plant, [1.0, 2.0, 2.0], [1.0, 11.0, 30.0])
    np.testing.assert_allclose(prob.d, [1.0, 13.0, 55.0], atol=1e-9)
    np.testing.assert_allclose(prob.n_poly, [95.0, 115.0], atol=1e-9)
    assert prob.residual <= 1e-10
    comp = prob.compensator
    np.testing.assert_allclose(comp.den, [1.0, 13.0, 55.0], atol=1e-9)


def test_diophantine_closed_loop_roots():
    plant = rational([1.0], [1.0, 0.0, -1.0])
    prob = diophantine_design(plant, [1.0, 2.0, 2.0], [1.0, 11.0, 30.0])
    closed = np.polyadd(np.convolve(prob.a, prob.d),
                        np.convolve(prob.b, prob.n_poly))
    got = sorted_complex(np.roots(closed))
    want = sorted_complex(np.concatenate([
        np.roots([1.0, 2.0, 2.0]), np.roots([1.0, 11.0, 30.0])]))
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_diophantine_remultiplication_residual():
    gen = rng(233)
    for _ in range(8):
        den = np.real(numkit.poly_from_roots(-gen.uniform(0.5, 3.0, size=3)))
        num = np.real(numkit.poly_from_roots(-gen.uniform(4.0, 6.0, size=1)))
        plant = rational(num, den)
        ac = np.real(numkit.poly_from_roots(-gen.uniform(1.0, 2.0, size=3)))
        ao = np.real(numkit.poly_from_roots(-gen.uniform(6.0, 9.0, size=3)))
        prob = diophantine_design(plant, ac, ao)
        assert prob.residual <= 1e-10


def test_diophantine_refuses_improper_and_solves_biproper_plants():
    with pytest.raises(ImproperTransferFunction):
        diophantine_design(rational([1.0, 0.0, 0.0], [1.0, 1.0]),
                           [1.0, 2.0], [1.0, 3.0])
    # (s + 1)(s + 8) + (2s + 1)(-2) = (s + 2)(s + 3)
    prob = diophantine_design(rational([2.0, 1.0], [1.0, 1.0]),
                              [1.0, 2.0], [1.0, 3.0])
    np.testing.assert_array_equal(prob.d, [1.0, 8.0])
    np.testing.assert_array_equal(prob.n_poly, [-2.0])
    assert prob.residual == 0.0


def test_diophantine_common_factor_rejected():
    plant = rational([1.0, 1.0], [1.0, 2.0, 1.0])  # shared root at -1
    assert plant.cancelled
    with pytest.raises(CommonFactor):
        diophantine_design(plant, [1.0, 2.0, 2.0], [1.0, 11.0, 30.0])
