import numpy as np
import pytest

from conftest import rng, siso_system
from statespace_kit.errors import (
    NoConvergence,
    SingularTransform,
    StepTooSmall,
    TrajectoryResidualTooLarge,
)
from statespace_kit.model import (
    Equilibrium,
    NonlinearModel,
    _fd_jacobian,
    _jacobians,
    find_equilibrium,
    linearize_along_trajectory,
    linearize_at_equilibrium,
    ltv_model,
    similarity_transform,
    state_space,
)
from statespace_kit.realization import ss_to_tf
from statespace_kit.registry import builtin_model


def magnetic_ball():
    # unit mass, unit gravity constant scaling absorbed: f2 = 1 - u^2/x1^2
    def f(x, u, t):
        return np.array([x[1], 1.0 - u[0] ** 2 / x[0] ** 2])

    def h(x, u, t):
        return np.array([x[0]])

    return NonlinearModel(f=f, h=h, n=2, m=1, p=1)


def pendulum():
    def f(x, u, t):
        return np.array([x[1], -np.sin(x[0])])

    def h(x, u, t):
        return np.array([x[0]])

    return NonlinearModel(f=f, h=h, n=2, m=0, p=1)


# ---------------------------------------------------------------------------
# records


def test_state_space_defaults():
    sys = state_space(np.array([[-1.0]]))
    assert (sys.n, sys.m) == (1, 0)
    assert sys.p == 1  # full-state output when C is omitted
    sys2 = state_space(np.eye(2), np.array([[1.0], [0.0]]))
    assert sys2.C.shape == (2, 2)  # identity output by default
    assert sys2.D.shape == (2, 1)
    np.testing.assert_allclose(sys2.D, 0.0)


def test_ltv_model_dimension_inference():
    m = ltv_model(lambda t: np.array([[0.0, t], [0.0, 0.0]]),
                  lambda t: np.array([[0.0], [1.0]]))
    assert (m.n, m.m) == (2, 1)
    assert m.p == 2
    assert m.piecewise_continuity_breaks == ()


# ---------------------------------------------------------------------------
# equilibria


def test_ball_equilibrium():
    eq = find_equilibrium(magnetic_ball(), [1.0], [0.5, 0.5])
    np.testing.assert_allclose(eq.xe, [1.0, 0.0], atol=1e-8)
    assert eq.residual <= 1e-10


def test_linear_field_equilibrium_is_origin():
    A = np.array([[-1.0, 0.3], [0.0, -2.0]])

    def f(x, u, t):
        return A @ x

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=2, m=0, p=2)
    eq = find_equilibrium(model, [], [0.7, -0.4])
    np.testing.assert_allclose(eq.xe, [0.0, 0.0], atol=1e-9)


def test_pendulum_inverted_equilibrium():
    eq = find_equilibrium(pendulum(), [], [3.0, 0.0])
    np.testing.assert_allclose(eq.xe, [np.pi, 0.0], atol=1e-9)


def test_no_convergence_reported():
    def f(x, u, t):
        return np.array([x[0] ** 2 + 1.0])  # no real root

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=1, m=0, p=1)
    with pytest.raises(NoConvergence):
        find_equilibrium(model, [], [0.3], max_iter=25)


# ---------------------------------------------------------------------------
# linearization at a fixed point


def test_ball_linearization():
    model = magnetic_ball()
    eq = find_equilibrium(model, [1.0], [0.5, 0.5])
    sys = linearize_at_equilibrium(model, eq)
    np.testing.assert_allclose(sys.A, [[0.0, 1.0], [2.0, 0.0]], atol=1e-7)
    np.testing.assert_allclose(sys.B, [[0.0], [-2.0]], atol=1e-7)
    np.testing.assert_allclose(sys.C, [[1.0, 0.0]], atol=1e-9)


def test_linear_field_linearization_exact():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    B = np.array([[0.0], [1.0]])

    def f(x, u, t):
        return A @ x + B @ u

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=2, m=1, p=2)
    sys = linearize_at_equilibrium(
        model, Equilibrium(xe=np.zeros(2), ue=np.zeros(1), residual=0.0))
    np.testing.assert_allclose(sys.A, A, atol=1e-8)
    np.testing.assert_allclose(sys.B, B, atol=1e-8)


def test_pendulum_linearization_at_inverted_point():
    model = pendulum()
    eq = find_equilibrium(model, [], [3.0, 0.0])
    sys = linearize_at_equilibrium(model, eq)
    np.testing.assert_allclose(sys.A, [[0.0, 1.0], [1.0, 0.0]], atol=1e-7)


@pytest.mark.parametrize("step", [None, 1e-4])
@pytest.mark.parametrize("name", ["magnetic_ball", "pendulum", "vanderpol"])
def test_one_jacobian_has_the_bits_of_the_four_blocks(name, step):
    model = builtin_model(name)
    x, u, t = np.array([0.7, -0.3]), np.full(model.m, 1.3), 0.25
    blocks = (
        _fd_jacobian(lambda z: model.f(z, u, t), x, step),
        _fd_jacobian(lambda v: model.f(x, v, t), u, step) if model.m
        else np.zeros((model.n, 0)),
        _fd_jacobian(lambda z: model.h(z, u, t), x, step),
        _fd_jacobian(lambda v: model.h(x, v, t), u, step) if model.m
        else np.zeros((model.p, 0)),
    )
    for got, ref in zip(_jacobians(model, x, u, t, step), blocks):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_step_too_small_guard():
    model = magnetic_ball()
    eq = Equilibrium(xe=np.array([1.0, 0.0]), ue=np.array([1.0]), residual=0.0)
    with pytest.raises(StepTooSmall):
        linearize_at_equilibrium(model, eq, step=1e-17)


def test_central_vs_forward_difference_agreement():
    model = magnetic_ball()
    eq = find_equilibrium(model, [1.0], [0.5, 0.5])
    sys = linearize_at_equilibrium(model, eq)
    # independent forward-difference check
    h = 1e-6
    fwd = np.zeros((2, 2))
    f0 = model.f(eq.xe, eq.ue, 0.0)
    for j in range(2):
        xp = eq.xe.copy()
        xp[j] += h
        fwd[:, j] = (np.asarray(model.f(xp, eq.ue, 0.0)) - np.asarray(f0)) / h
    assert np.max(np.abs(sys.A - fwd)) <= 1e-5 * (1.0 + np.max(np.abs(sys.A)))


# ---------------------------------------------------------------------------
# linearization along a trajectory


def test_constant_nominal_reduces_to_equilibrium_case():
    model = magnetic_ball()
    eq = find_equilibrium(model, [1.0], [0.5, 0.5])
    times = np.linspace(0.0, 1.0, 11)
    X = np.tile(eq.xe, (11, 1))
    U = np.tile(eq.ue, (11, 1))
    ltv = linearize_along_trajectory(model, times, X, U)
    ref = linearize_at_equilibrium(model, eq)
    np.testing.assert_allclose(ltv.A(0.37), ref.A, atol=1e-6)
    np.testing.assert_allclose(ltv.B(0.81), ref.B, atol=1e-6)


def test_satellite_circular_orbit_entry():
    # planar orbit in polar coordinates, radial and tangential thrusts;
    # circular nominal r=1, angular rate 1, k chosen for force balance
    def f(x, u, t):
        r, v, _, w = x
        return np.array([v,
                         r * w ** 2 - 1.0 / r ** 2 + u[0],
                         w,
                         -2.0 * v * w / r + u[1] / r])

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=4, m=2, p=4)
    times = np.linspace(0.0, 2.0, 41)
    X = np.column_stack([np.ones_like(times), np.zeros_like(times),
                         times, np.ones_like(times)])
    U = np.zeros((times.size, 2))
    ltv = linearize_along_trajectory(model, times, X, U)
    A = ltv.A(1.0)
    assert A[1, 0] == pytest.approx(3.0, abs=1e-5)
    np.testing.assert_allclose(ltv.A(0.2), ltv.A(1.8), atol=1e-6)


def test_ltv_field_recovered_at_samples():
    def f(x, u, t):
        return np.array([[0.0, t], [0.0, -1.0]]) @ x

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=2, m=0, p=2)
    times = np.linspace(0.0, 1.0, 201)
    # x' = A(t) x from (1, 1): integrate finely for a consistent nominal
    X = [np.array([1.0, 1.0])]
    for k in range(1, times.size):
        h = times[k] - times[k - 1]
        x = X[-1]
        k1 = f(x, None, times[k - 1])
        k2 = f(x + h / 2 * k1, None, times[k - 1] + h / 2)
        k3 = f(x + h / 2 * k2, None, times[k - 1] + h / 2)
        k4 = f(x + h * k3, None, times[k])
        X.append(x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    ltv = linearize_along_trajectory(model, times, np.array(X), np.zeros((times.size, 0)))
    np.testing.assert_allclose(ltv.A(0.5), [[0.0, 0.5], [0.0, -1.0]], atol=1e-6)


def test_stale_nominal_rejected():
    def f(x, u, t):
        return np.array([-x[0]])

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=1, m=0, p=1)
    times = np.linspace(0.0, 1.0, 11)
    X = np.ones((11, 1))  # constant 1 does not satisfy x' = -x
    with pytest.raises(TrajectoryResidualTooLarge):
        linearize_along_trajectory(model, times, X, np.zeros((11, 0)))


# ---------------------------------------------------------------------------
# similarity transforms


def test_similarity_identity():
    sys = siso_system([[0.0, 1.0], [8.0, -2.0]], [0.0, 1.0], [1.0, 0.0])
    out = similarity_transform(sys, np.eye(2))
    np.testing.assert_allclose(out.A, sys.A, atol=1e-14)
    np.testing.assert_allclose(out.B, sys.B, atol=1e-14)


def test_similarity_diagonalizes_with_modal_matrix():
    sys = siso_system([[0.0, 1.0], [8.0, -2.0]], [0.0, 1.0], [1.0, 0.0])
    M = np.array([[1.0, 1.0], [-4.0, 2.0]])
    out = similarity_transform(sys, np.linalg.inv(M))
    np.testing.assert_allclose(out.A, np.diag([-4.0, 2.0]), atol=1e-12)


def test_similarity_preserves_spectrum_and_transfer():
    gen = rng(21)
    sys = siso_system(gen.normal(size=(3, 3)), gen.normal(size=3),
                      gen.normal(size=3))
    P = gen.normal(size=(3, 3)) + 3.0 * np.eye(3)
    out = similarity_transform(sys, P)
    np.testing.assert_allclose(np.sort_complex(np.linalg.eigvals(out.A)),
                               np.sort_complex(np.linalg.eigvals(sys.A)),
                               atol=1e-9)
    g0 = ss_to_tf(sys).single()
    g1 = ss_to_tf(out).single()
    for s in 1j * np.linspace(0.1, 5.0, 10):
        assert g0(s) == pytest.approx(g1(s), abs=1e-8)


def test_similarity_rejects_singular_transform():
    sys = siso_system([[-1.0]], [1.0], [1.0])
    with pytest.raises(SingularTransform):
        similarity_transform(sys, np.array([[0.0]]))
