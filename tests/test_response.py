import math
import time

import numpy as np
import pytest

from conftest import (
    golden_phi_2m3,
    golden_phi_8m2,
    random_stable_diagonalizable,
    rng,
    siso_system,
)
from statespace_kit import numkit
from statespace_kit.errors import (
    IllConditionedVandermonde,
    NotDiagonalizable,
    RepeatedEigenvalues,
    WorkBudgetExceeded,
)
from statespace_kit.model import NonlinearModel, ltv_model, state_space
from statespace_kit.response import (
    _sampled_outputs,
    fundamental_matrix_ltv,
    peano_baker,
    simulate,
    stm_cayley_hamilton,
    stm_modal,
    stm_series,
)

A_GOLD = np.array([[0.0, 1.0], [8.0, -2.0]])


# ---------------------------------------------------------------------------
# constant-coefficient propagators


@pytest.mark.parametrize("builder", [stm_series, stm_cayley_hamilton, stm_modal])
def test_golden_propagator_all_methods(builder):
    stm = builder(A_GOLD)
    for t in (0.0, 0.1, 0.5, 1.0):
        np.testing.assert_allclose(stm(t, 0.0), golden_phi_8m2(t), atol=1e-8)


def test_propagator_at_equal_times_is_identity():
    for builder in (stm_series, stm_cayley_hamilton, stm_modal):
        stm = builder(A_GOLD)
        np.testing.assert_allclose(stm(0.7, 0.7), np.eye(2), atol=1e-10)


def test_cayley_hamilton_coefficients():
    stm = stm_cayley_hamilton(np.array([[0.0, 1.0], [-2.0, -3.0]]))
    for t in (0.25, 1.0):
        b0, b1 = stm.evaluator.beta(t)
        assert abs(b0 - (2 * np.exp(-t) - np.exp(-2 * t))) <= 1e-10
        assert abs(b1 - (np.exp(-t) - np.exp(-2 * t))) <= 1e-10


def test_cayley_hamilton_rejects_repeated_spectrum():
    with pytest.raises(RepeatedEigenvalues):
        stm_cayley_hamilton(3.0 * np.eye(2))


def test_cayley_hamilton_conditioning_guard():
    # nearly coincident eigenvalues leave the coefficient system unusable
    A = np.diag([1.0, 1.0 + 1e-13])
    with pytest.raises((IllConditionedVandermonde, RepeatedEigenvalues)):
        stm_cayley_hamilton(A)


def test_modal_rejects_defective_matrix():
    with pytest.raises(NotDiagonalizable):
        stm_modal(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_modal_diagonal_input():
    stm = stm_modal(np.diag([-1.0, -3.0]))
    np.testing.assert_allclose(stm(2.0, 0.0),
                               np.diag([np.exp(-2.0), np.exp(-6.0)]), atol=1e-12)


def test_cross_method_agreement_random():
    gen = rng(41)
    for _ in range(20):
        n = int(gen.integers(2, 6))
        A = random_stable_diagonalizable(gen, n)
        t = float(gen.uniform(0.0, 3.0))
        ref = stm_series(A)(t, 0.0)
        assert np.max(np.abs(stm_cayley_hamilton(A)(t, 0.0) - ref)) <= 1e-7
        assert np.max(np.abs(stm_modal(A)(t, 0.0) - ref)) <= 1e-7


def test_semigroup_and_inverse_laws():
    stm = stm_series(A_GOLD)
    t0, t1, t2 = 0.0, 0.4, 1.1
    lhs = stm(t2, t0)
    rhs = stm(t2, t1) @ stm(t1, t0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * max(1.0, np.max(np.abs(lhs)))
    np.testing.assert_allclose(stm(t0, t1) @ stm(t1, t0), np.eye(2), atol=1e-6)


# ---------------------------------------------------------------------------
# time-varying propagators


def commutator_fixture():
    F = np.array([[0.0, 1.0], [0.0, 0.0]])
    G = np.array([[0.0, 0.0], [1.0, 0.0]])

    def A_of_t(t):
        eF = np.array([[1.0, t], [0.0, 1.0]])
        eFm = np.array([[1.0, -t], [0.0, 1.0]])
        return eFm @ G @ eF

    def phi_exact(t, s):
        eFm = np.array([[1.0, -t], [0.0, 1.0]])
        eFs = np.array([[1.0, s], [0.0, 1.0]])
        return eFm @ numkit.expm(F + G, t - s) @ eFs

    return A_of_t, phi_exact


def test_ltv_constant_coefficient_reduction():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    model = ltv_model(lambda t: A)
    stm = fundamental_matrix_ltv(model, 0.0, 2.0, max_step=1e-3)
    for t in (0.5, 1.3, 2.0):
        np.testing.assert_allclose(stm(t, 0.0), golden_phi_2m3(t), atol=1e-6)


def test_ltv_conjugated_field_closed_form():
    A_of_t, phi_exact = commutator_fixture()
    model = ltv_model(A_of_t)
    stm = fundamental_matrix_ltv(model, 0.0, 2.0)
    for (t, s) in [(1.0, 0.0), (2.0, 0.0), (1.5, 0.5)]:
        np.testing.assert_allclose(stm(t, s), phi_exact(t, s), atol=1e-5)


def test_ltv_identity_at_equal_times():
    A_of_t, _ = commutator_fixture()
    stm = fundamental_matrix_ltv(ltv_model(A_of_t), 0.0, 1.0)
    np.testing.assert_allclose(stm(0.6, 0.6), np.eye(2), atol=1e-10)


def test_ltv_adjoint_relation():
    A_of_t, _ = commutator_fixture()
    fwd = fundamental_matrix_ltv(ltv_model(A_of_t), 0.0, 1.5)
    adj = fundamental_matrix_ltv(
        ltv_model(lambda t: -A_of_t(t).T), 0.0, 1.5)
    for (t1, t0) in [(1.5, 0.0), (1.0, 0.25)]:
        assert np.max(np.abs(adj(t1, t0) - fwd(t0, t1).T)) <= 1e-6


def test_ltv_semigroup():
    A_of_t, _ = commutator_fixture()
    stm = fundamental_matrix_ltv(ltv_model(A_of_t), 0.0, 2.0)
    lhs = stm(1.8, 0.2)
    rhs = stm(1.8, 1.0) @ stm(1.0, 0.2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_ltv_fundamental_over_budget_refused_before_the_march(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(numkit, "rk4_march", refused)
    with pytest.raises(WorkBudgetExceeded,
                       match="needs 1e\\+09 steps, over the budget of 200000"):
        fundamental_matrix_ltv(ltv_model(lambda t: [[-1.0]]), 0.0, 1e3,
                               max_step=1e-6)


# ---------------------------------------------------------------------------
# iterated-integral approximation


def test_iterated_integral_quadratic_truncation():
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    dt = 0.3
    out = peano_baker(lambda t: A, 0.0, dt, iterations=2)
    expected = np.eye(2) + A * dt + A @ A * dt ** 2 / 2.0
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_iterated_integral_zero_span():
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_allclose(peano_baker(lambda t: A, 0.5, 0.5, iterations=3),
                               np.eye(2), atol=1e-14)


def test_iterated_integral_accepts_model():
    A_of_t, phi_exact = commutator_fixture()
    out = peano_baker(ltv_model(A_of_t), 0.0, 0.5, iterations=12)
    np.testing.assert_allclose(out, phi_exact(0.5, 0.0), atol=1e-6)


def test_iterated_integral_contraction():
    A_of_t, _ = commutator_fixture()
    ref = fundamental_matrix_ltv(ltv_model(A_of_t), 0.0, 1.0)(1.0, 0.0)
    errs = []
    for k in range(1, 7):
        errs.append(np.max(np.abs(peano_baker(A_of_t, 0.0, 1.0, iterations=k) - ref)))
    # halves or better per iteration until the quadrature floor takes over
    for a, b in zip(errs, errs[1:]):
        if a <= 1e-5:
            break
        assert b <= 0.5 * a
    assert errs[-1] <= 1e-5


# ---------------------------------------------------------------------------
# simulation


def test_simulate_unforced_golden_column():
    sys = state_space(A_GOLD, np.zeros((2, 0)), np.eye(2))
    times = np.linspace(0.0, 0.5, 51)
    traj = simulate(sys, [1.0, 0.0], times)
    for t_check in (0.1, 0.5):
        i = int(np.argmin(np.abs(times - t_check)))
        np.testing.assert_allclose(traj.states[i], golden_phi_8m2(t_check)[:, 0],
                                   atol=1e-6)
    assert not traj.truncated


def test_simulate_zero_state_stays_zero():
    sys = siso_system([[0.0, 1.0], [-2.0, -3.0]], [0.0, 1.0], [1.0, 0.0])
    traj = simulate(sys, [0.0, 0.0], np.linspace(0.0, 1.0, 11))
    np.testing.assert_allclose(traj.states, 0.0, atol=1e-14)
    np.testing.assert_allclose(traj.outputs, 0.0, atol=1e-14)


def test_simulate_scalar_constant_input_closed_form():
    a, b, ubar, x0 = -0.5, 2.0, 1.5, 0.7
    sys = siso_system([[a]], [b], [1.0])
    times = np.linspace(0.0, 2.0, 81)
    traj = simulate(sys, [x0], times, u=lambda t: np.array([ubar]))
    exact = np.exp(a * times) * x0 + (b * ubar / a) * (np.exp(a * times) - 1.0)
    np.testing.assert_allclose(traj.states[:, 0], exact, atol=1e-7)
    np.testing.assert_allclose(traj.inputs[:, 0], ubar, atol=1e-14)


def test_simulate_lti_forced_convergence_order():
    # smooth forcing; quadrature error should drop by at least 2^3.5 per halving
    a, w = -1.0, 3.0
    sys = siso_system([[a]], [1.0], [1.0])
    x0 = 0.4

    def u(t):
        return np.array([np.sin(w * t)])

    def exact(t):
        amp = a ** 2 + w ** 2
        xp = (-a * np.sin(w * t) - w * np.cos(w * t)) / amp
        return xp + (x0 - (-w / amp)) * np.exp(a * t)

    times = np.linspace(0.0, 2.0, 5)
    errs = []
    for step in (0.1, 0.05, 0.025):
        traj = simulate(sys, [x0], times, u=u, max_step=step)
        errs.append(np.max(np.abs(traj.states[:, 0] - exact(times))))
    assert errs[1] <= errs[0] / 2 ** 3.5 * 1.2
    assert errs[2] <= errs[1] / 2 ** 3.5 * 1.2


def test_simulate_ltv_homogeneous_against_closed_form():
    A_of_t, phi_exact = commutator_fixture()
    model = ltv_model(A_of_t)
    times = np.linspace(0.0, 1.5, 61)
    x0 = np.array([1.0, -0.5])
    traj = simulate(model, x0, times)
    np.testing.assert_allclose(traj.states[-1], phi_exact(1.5, 0.0) @ x0,
                               atol=1e-6)


def test_simulate_nonlinear_linear_field():
    model = NonlinearModel(f=lambda x, u, t: -x, h=lambda x, u, t: x,
                           n=1, m=0, p=1)
    times = np.linspace(0.0, 2.0, 101)
    traj = simulate(model, [1.0], times)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-times), atol=1e-7)


def test_simulate_blow_up_truncates_without_raising():
    model = NonlinearModel(f=lambda x, u, t: x * x, h=lambda x, u, t: x,
                           n=1, m=0, p=1)
    with np.errstate(over="ignore"):
        traj = simulate(model, [1.0], np.linspace(0.0, 2.0, 201))
    assert traj.truncated
    assert np.all(np.isfinite(traj.states))
    assert traj.times[-1] < 2.0


def test_simulate_held_input_is_one_exponential(expm_calls):
    sys = siso_system([[0.0, 1.0], [-2.0, -3.0]], [0.0, 1.0], [1.0, 0.0])
    times = np.linspace(0.0, 20.0, 3001)
    traj = simulate(sys, [1.0, -1.0], times, u=[0.5])
    assert len(expm_calls) <= 8
    # x(t) = x_ss + e^{At} (x0 - x_ss) with x_ss = -A^{-1} B u
    x_ss = np.array([0.25, 0.0])
    exact = np.array([x_ss + numkit.expm(sys.A, t) @ ([1.0, -1.0] - x_ss)
                      for t in times[::500]])
    np.testing.assert_allclose(traj.states[::500], exact, atol=1e-12)


def test_simulate_long_horizon_returns_at_steady_state():
    sys = siso_system([[0.0, 1.0], [-2.0, -3.0]], [0.0, 1.0], [1.0, 0.0])
    start = time.perf_counter()
    traj = simulate(sys, [1.0, -1.0], np.linspace(0.0, 1e9, 11), u=[0.5])
    assert time.perf_counter() - start < 5.0
    assert not traj.truncated
    np.testing.assert_allclose(traj.states[-1], [0.25, 0.0], atol=1e-12)


def test_simulate_callable_input_long_horizon_exceeds_budget():
    sys = siso_system([[0.0, 1.0], [-2.0, -3.0]], [0.0, 1.0], [1.0, 0.0])
    start = time.perf_counter()
    with pytest.raises(WorkBudgetExceeded):
        simulate(sys, [1.0, -1.0], np.linspace(0.0, 1e9, 11),
                 u=lambda t: np.array([np.sin(t)]))
    assert time.perf_counter() - start < 2.0


def test_march_totals_its_steps_before_the_first(monkeypatch):
    from statespace_kit import response

    def never(*args):
        raise AssertionError("a step ran")

    times = np.linspace(0.0, 1.0, 11)
    models = (NonlinearModel(f=never, h=never, n=1, m=0, p=1),
              ltv_model(never, n=1, m=0, p=1, breaks=(0.55,)))
    steps = rk4_steps(times, 0.01)
    monkeypatch.setattr(response, "SUBSTEP_BUDGET", steps - 1)
    for model in models:
        with pytest.raises(WorkBudgetExceeded, match="over the budget"):
            simulate(model, [1.0], times, max_step=0.01)
    monkeypatch.setattr(response, "SUBSTEP_BUDGET", steps + 1)
    good = NonlinearModel(f=lambda x, v, t: -x, h=lambda x, v, t: x,
                          n=1, m=0, p=1)
    traj = simulate(good, [1.0], times, max_step=0.01)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-times), rtol=1e-8)


@pytest.mark.parametrize("max_step", [0.0, -1.0])
def test_simulate_refuses_a_step_that_is_not_positive(max_step):
    model = NonlinearModel(f=lambda x, v, t: -x, h=lambda x, v, t: x,
                           n=1, m=0, p=1)
    with pytest.raises(ValueError, match="max_step must be positive"):
        simulate(model, [1.0], np.linspace(0.0, 1.0, 3), max_step=max_step)


def test_simulate_overflowing_step_truncates_without_raising():
    sys = siso_system([[1.0]], [1.0], [1.0])
    for u in (None, [0.5]):
        traj = simulate(sys, [1.0], np.linspace(0.0, 4000.0, 5), u=u)
        assert traj.truncated
        assert traj.times[-1] < 4000.0
        assert np.all(np.isfinite(traj.states))


def test_trajectory_fields_aligned():
    sys = siso_system([[-1.0]], [1.0], [2.0])
    times = np.linspace(0.0, 1.0, 21)
    traj = simulate(sys, [1.0], times, u=lambda t: np.array([0.3]))
    assert traj.states.shape == (21, 1)
    assert traj.inputs.shape == (21, 1)
    assert traj.outputs.shape == (21, 1)
    np.testing.assert_allclose(traj.outputs, 2.0 * traj.states, atol=1e-12)


# ---------------------------------------------------------------------------
# coefficient evaluations: once per distinct stage time


def counted(fn):
    def wrapped(t):
        wrapped.calls += 1
        return fn(t)

    wrapped.calls = 0
    return wrapped


def rk4_steps(times, max_step):
    return sum(max(1, int(np.ceil((b - a) / max_step)))
               for a, b in zip(times[:-1], times[1:]))


def test_simulate_ltv_evaluates_coefficients_once_per_stage_time():
    A_of_t, _ = commutator_fixture()

    def B_of_t(t):
        return np.array([[np.cos(t)], [1.0]])

    A, B = counted(A_of_t), counted(B_of_t)
    model = ltv_model(A, B, n=2, m=1, p=2)
    times = np.linspace(0.0, 4.0, 201)
    traj = simulate(model, [1.0, -0.5], times, u=[0.3], max_step=0.01)
    steps = rk4_steps(times, 0.01)
    assert steps > 400  # the floating-point ceil gives 3 steps to some intervals
    assert A.calls <= 2 * steps + (times.size - 1)
    assert B.calls == A.calls
    # the same march with every stage evaluating its coefficients afresh
    shell = NonlinearModel(
        f=lambda x, v, t: numkit.as_matrix(A_of_t(t)) @ x
        + numkit.as_matrix(B_of_t(t)) @ v,
        h=lambda x, v, t: np.eye(2) @ x + np.zeros((2, 1)) @ v,
        n=2, m=1, p=2)
    ref = simulate(shell, [1.0, -0.5], times, u=[0.3], max_step=0.01)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.outputs, ref.outputs)


def sampled_ltv(gen, n, m, p, knots, breaks=()):
    times = np.linspace(0.0, 2.0, knots)
    A = [np.diag(-gen.uniform(0.3, 1.5, n)) + 0.3 * gen.standard_normal((n, n))
         for _ in times]
    stacks = (np.array(A), gen.standard_normal((knots, n, m)),
              gen.standard_normal((knots, p, n)), gen.standard_normal((knots, p, m)))
    return ltv_model(*(numkit.sample_interpolant(times, S) for S in stacks),
                     n=n, m=m, p=p, breaks=breaks)


def scalar_only(model):
    """The same model through callables that take one time at a time."""
    return ltv_model(*(lambda t, f=f: f(t) for f in (model.A, model.B, model.C,
                                                      model.D)),
                     n=model.n, m=model.m, p=model.p,
                     breaks=model.piecewise_continuity_breaks)


# 64 states make 31 stage times a table, so the march crosses many tables
@pytest.mark.parametrize("n, m", [(3, 2), (64, 2)])
def test_sampled_ltv_simulate_matches_the_scalar_march_bitwise(n, m, p=2):
    gen = rng(11)
    model = sampled_ltv(gen, n, m, p, 6, breaks=(0.7, 1.3))
    x0, u = gen.standard_normal(n), gen.uniform(-1.0, 1.0, m)
    times = np.linspace(0.0, 2.0, 41)
    ref = simulate(scalar_only(model), x0, times, u=u, max_step=0.01)
    shapes = []

    def spy(t, _A=model.A):
        shapes.append(np.shape(t))
        return _A(t)

    spy.vectorized = True
    model = ltv_model(spy, model.B, model.C, model.D, n=n, m=m, p=p,
                      breaks=model.piecewise_continuity_breaks)
    traj = simulate(model, x0, times, u=u, max_step=0.01)
    # A(t) came in tables only: one for 3 states, many for 64
    assert shapes and all(len(shape) == 1 for shape in shapes)
    assert (len(shapes) == 1) == (n == 3)
    assert not traj.truncated
    for field in ("times", "states", "inputs", "outputs"):
        assert np.array_equal(getattr(traj, field), getattr(ref, field)), field


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n", [1, 64])
def test_sampled_outputs_match_the_per_row_loop_bitwise(n, m, p):
    # one state makes each C.dot(x) a scalar product; at 64 states the
    # 2 500 rows cross a block of _sampled_outputs at every m and p
    gen = rng(30 + 4 * p + m + n)
    model = sampled_ltv(gen, n, m, p, 5)
    times = np.sort(gen.uniform(0.0, 2.0, 2500))
    states = gen.standard_normal((times.size, n))
    inputs = gen.standard_normal((times.size, m))
    got = _sampled_outputs(model, states, inputs, times)
    want = np.array([C.dot(x) + D.dot(v) for C, D, x, v
                     in zip(model.C(times), model.D(times), states, inputs)])
    assert got.shape == (times.size, p)
    assert got.tobytes() == want.reshape(times.size, p).tobytes()


@pytest.mark.parametrize("n", [1, 64])
def test_sampled_ltv_with_a_non_finite_sample_stops_where_the_scalar_march_does(n):
    # from t = 2 on every coefficient is non-finite; a growing state leaves
    # the finite range before that, a decaying one reaches it and raises
    knots = np.array([0.0, 1.0, 2.0, 3.0])
    times = np.linspace(0.0, 3.0, 31)
    B = numkit.sample_interpolant(knots, np.ones((4, n, 1)))
    for rate in (-1.0, 800.0):
        samples = np.array([rate * np.eye(n)] * 3 + [np.full((n, n), np.inf)])
        model = ltv_model(numkit.sample_interpolant(knots, samples), B, n=n)
        outcomes = []
        for variant in (model, scalar_only(model)):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    outcomes.append(simulate(variant, np.ones(n), times, u=[0.5],
                                             max_step=0.01).states)
                except ValueError as exc:
                    outcomes.append(str(exc))
        if rate < 0:
            assert outcomes == ["matrix entries must be finite"] * 2
        else:
            assert 1 < len(outcomes[0]) < times.size
            assert np.array_equal(outcomes[0], outcomes[1])


def test_sampled_ltv_outputs_across_blocks_match_the_scalar_path_bitwise():
    # 64 outputs of 64 states make 31 output rows a block, so 41 rows cross two
    test_sampled_ltv_simulate_matches_the_scalar_march_bitwise(64, 2, p=64)


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("field", ["C", "D"])
def test_sampled_ltv_outputs_with_a_non_finite_sample_match_the_scalar_path(
        n, field):
    # C or D is non-finite from t = 2 on: a decaying state reaches it and
    # raises on both paths, a growing one stops before it and both agree
    knots = np.array([0.0, 1.0, 2.0, 3.0])
    times = np.linspace(0.0, 3.0, 31)
    gen = rng(17)
    stacks = {"B": gen.standard_normal((4, n, 1)),
              "C": gen.standard_normal((4, 2, n)),
              "D": gen.standard_normal((4, 2, 1))}
    stacks[field][3] = np.inf
    B, C, D = (numkit.sample_interpolant(knots, stacks[k]) for k in "BCD")
    for rate in (-1.0, 800.0):
        A = numkit.sample_interpolant(knots, np.array([rate * np.eye(n)] * 4))
        model = ltv_model(A, B, C, D, n=n, m=1, p=2)
        outcomes = []
        for variant in (model, scalar_only(model)):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    outcomes.append(simulate(variant, np.ones(n), times, u=[0.5],
                                             max_step=0.01).outputs)
                except ValueError as exc:
                    outcomes.append(str(exc))
        if rate < 0:
            assert outcomes == ["matrix entries must be finite"] * 2
        else:
            assert 1 < len(outcomes[0]) < 21
            assert np.array_equal(outcomes[0], outcomes[1])


def test_simulate_nonlinear_evaluates_callable_input_once_per_stage_time():
    model = NonlinearModel(f=lambda x, v, t: -x + v, h=lambda x, v, t: x,
                           n=1, m=1, p=1)
    u = counted(lambda t: np.array([np.sin(t)]))
    times = np.linspace(0.0, 2.0, 21)
    traj = simulate(model, [1.0], times, u=u, max_step=0.01)
    steps = rk4_steps(times, 0.01)
    # stage times plus one start per interval, then the recorded inputs
    assert u.calls <= 2 * steps + (times.size - 1) + times.size
    np.testing.assert_allclose(traj.inputs[:, 0], np.sin(times))


def test_simulate_lti_evaluates_callable_input_once_per_stage_time():
    # a substep starts at the float t + h the one before it ended at
    a, w, x0 = -1.0, 3.0, 0.4
    sys = siso_system([[a]], [1.0], [1.0])
    u = counted(lambda t: np.array([np.sin(w * t)]))
    times = np.linspace(0.0, 2.0, 21)
    traj = simulate(sys, [x0], times, u=u, max_step=0.01)
    substeps = rk4_steps(times, 0.01)
    # midpoint and end per substep, the start of each interval, then the
    # recorded inputs
    assert u.calls == 2 * substeps + (times.size - 1) + times.size
    amp = a ** 2 + w ** 2
    exact = ((-a * np.sin(w * times) - w * np.cos(w * times)) / amp
             + (x0 + w / amp) * np.exp(a * times))
    np.testing.assert_allclose(traj.states[:, 0], exact, rtol=0, atol=1e-9)


def test_fundamental_matrix_evaluates_coefficients_once_per_stage_time():
    A_of_t, phi_exact = commutator_fixture()
    A = counted(A_of_t)
    stm = fundamental_matrix_ltv(ltv_model(A, n=2), 0.0, 4.0, max_step=0.01)
    steps = max(2, int(np.ceil(4.0 / 0.01)))
    assert A.calls <= 2 * steps + 1
    np.testing.assert_allclose(stm(4.0, 0.0), phi_exact(4.0, 0.0), atol=1e-8)


# ---------------------------------------------------------------------------
# builtin nonlinear models march on Python floats


def on_arrays(model):
    """The same model, with an f that simulate marches on arrays."""
    f = model.f
    return NonlinearModel(f=lambda x, u, t: f(x, u, t), h=model.h,
                          n=model.n, m=model.m, p=model.p)


def assert_same_run(a, b):
    assert a.truncated == b.truncated
    for field in ("times", "states", "inputs", "outputs"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_rk4_march_on_float_lists_matches_arrays_bitwise():
    gen = rng(3)
    M = gen.standard_normal((3, 3))

    def rate(y, c):
        return [sum(M[i, j] * math.sin(y[j]) for j in range(3)) + c
                for i in range(3)]

    y0 = gen.standard_normal(3)
    floats = numkit.rk4_march(rate, math.cos, 0.1, y0.tolist(), 0.05, 40)
    arrays = numkit.rk4_march(lambda y, c: np.array(rate(y, c)), math.cos,
                              0.1, y0, 0.05, 40)
    for (t, y, c), (s, z, d) in zip(floats, arrays):
        assert type(y) is list and type(z) is np.ndarray
        assert (t, c) == (s, d)
        assert np.array(y).tobytes() == z.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pendulum_on_floats_matches_arrays_bitwise(seed):
    from statespace_kit import registry

    gen = rng(seed)
    model = registry.builtin_model(
        "pendulum", {"m": gen.uniform(0.5, 2.0), "g": gen.uniform(0.5, 2.0),
                     "l": gen.uniform(0.5, 2.0)})
    assert model.f.takes_lists
    x0 = gen.uniform(-1.0, 1.0, 2)
    times = np.linspace(0.0, 4.0, 81)
    freq = gen.uniform(0.5, 3.0)
    for u in ([gen.uniform(-0.3, 0.3)], lambda t: [0.2 * math.sin(freq * t)]):
        assert_same_run(simulate(model, x0, times, u=u),
                        simulate(on_arrays(model), x0, times, u=u))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vanderpol_on_floats_matches_arrays_bitwise(seed):
    from statespace_kit import registry

    model = registry.builtin_model("vanderpol")
    assert model.f.takes_lists
    x0 = rng(seed).uniform(-2.0, 2.0, 2)
    times = np.linspace(0.0, 4.0, 81)
    assert_same_run(simulate(model, x0, times, max_step=0.01),
                    simulate(on_arrays(model), x0, times, max_step=0.01))


def test_vanderpol_blow_up_on_floats_matches_arrays():
    from statespace_kit import registry

    model = registry.builtin_model("vanderpol")
    times = np.linspace(0.0, 8.0, 401)
    floats = simulate(model, [3.0, 3.0], times)
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = simulate(on_arrays(model), [3.0, 3.0], times)
    assert floats.truncated
    assert 1 < floats.times.size < times.size
    assert_same_run(floats, arrays)


def test_user_rate_receives_arrays():
    seen = set()

    def f(x, u, t):
        seen.add((type(x), type(u)))
        return -x + u

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=2, m=2, p=2)
    times = np.linspace(0.0, 1.0, 11)
    for u in ([0.5, -0.5], lambda t: [math.sin(t), math.cos(t)]):
        simulate(model, [1.0, 2.0], times, u=u)
    assert seen == {(np.ndarray, np.ndarray)}
