"""Stability module tests: eigenvalue trichotomy, Lyapunov machinery,
invariant subspaces, sampled region certification, linearization verdicts,
input-output stability."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_stable_diagonalizable, rng, subspace_angle
from statespace_kit import numkit
from statespace_kit.errors import SingularLyapunovOperator
from statespace_kit.model import Equilibrium, NonlinearModel
from statespace_kit.realization import rational
from statespace_kit.stability import (
    _real_schur,
    bibo_stability,
    linearization_verdict,
    lti_stability,
    lyapunov_stability_test,
    quadratic_lyapunov_scan,
    solve_lyapunov,
    stability_subspaces,
)


def damped_oscillator_model():
    # position-velocity form with state-dependent damping; origin attracts
    def f(x, u, t):
        return np.array([x[1], -(1.0 - x[0] ** 2) * x[1] - x[0]])

    return NonlinearModel(f=f, h=lambda x, u, t: x, n=2, m=0, p=2)


def damped_oscillator_field(x):
    return np.array([x[1], -(1.0 - x[0] ** 2) * x[1] - x[0]])


# ---------------------------------------------------------------------------
# eigenvalue trichotomy


def test_zero_matrix_is_stable_isl():
    v = lti_stability(np.zeros((2, 2)))
    assert v.kind == "stableISL"


def test_double_integrator_unstable_by_deficit():
    v = lti_stability(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert v.kind == "unstable"
    assert len(v.multiplicity_deficits) == 1


def test_deficit_verdict_is_scale_free():
    # the geometric-multiplicity rank test scales with A
    assert lti_stability(np.array([[0.0, 1e-9], [0.0, 0.0]])).kind == "unstable"
    Q, _ = np.linalg.qr(rng(5).normal(size=(3, 3)))
    A = 1e12 * Q @ np.diag([0.0, 0.0, -1.0]) @ Q.T
    assert lti_stability(A).kind == "stableISL"


def test_stable_verdict_makes_no_rank_tests(linalg_calls):
    n = 30
    A = rng(61).normal(size=(n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
    assert lti_stability(A).kind == "asymptoticallyStable"
    assert linalg_calls["svd"] == 0


def test_unstable_witness_reported():
    v = lti_stability(np.array([[0.0, 1.0], [2.0, 1.0]]))
    assert v.kind == "unstable"
    assert any(abs(complex(w) - 2.0) <= 1e-9 for w in v.witnesses)


def test_hurwitz_matrix_asymptotically_stable():
    assert lti_stability(np.array([[0.0, 1.0], [-2.0, -2.0]])).kind == \
        "asymptoticallyStable"


def test_oscillator_stable_isl():
    # simple imaginary pair, full geometric multiplicity
    assert lti_stability(np.array([[0.0, 1.0], [-1.0, 0.0]])).kind == "stableISL"


# ---------------------------------------------------------------------------
# Lyapunov equation


def test_lyapunov_golden_solution():
    P = solve_lyapunov(np.array([[0.0, 1.0], [-2.0, -2.0]]), np.eye(2))
    np.testing.assert_allclose(P, [[1.25, 0.25], [0.25, 0.375]], atol=1e-10)
    rep = numkit.is_positive_definite(P)
    assert rep.verdict == "PD"
    assert np.all(rep.leading_minors > 0)


def test_lyapunov_trivial_half_identity():
    np.testing.assert_allclose(solve_lyapunov(-np.eye(3), np.eye(3)),
                               0.5 * np.eye(3), atol=1e-12)


def test_lyapunov_matches_integral_oracle():
    gen = rng(51)
    A = random_stable_diagonalizable(gen, 3)
    Q = np.eye(3)
    P = solve_lyapunov(A, Q)
    # long-horizon quadrature of the defining integral
    from scipy.integrate import simpson

    ts = np.linspace(0.0, 40.0, 4001)
    vals = np.array([numkit.expm(A, t).T @ Q @ numkit.expm(A, t) for t in ts])
    acc = simpson(vals, x=ts, axis=0)
    np.testing.assert_allclose(P, acc, atol=1e-5)


def test_lyapunov_linearity_in_forcing():
    gen = rng(53)
    A = random_stable_diagonalizable(gen, 3)
    Q1 = np.eye(3)
    F = gen.normal(size=(3, 3))
    Q2 = F @ F.T
    lhs = solve_lyapunov(A, Q1 + Q2)
    rhs = solve_lyapunov(A, Q1) + solve_lyapunov(A, Q2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_lyapunov_residual_definition():
    A = np.array([[0.0, 1.0], [-2.0, -2.0]])
    Q = np.eye(2)
    P = solve_lyapunov(A, Q)
    assert np.max(np.abs(A.T @ P + P @ A + Q)) <= 1e-12


def test_lyapunov_large_state_residual():
    # Schur-based solve, no size limit
    n = 60
    gen = rng(67)
    A = gen.normal(size=(n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
    F = gen.normal(size=(n, n))
    Q = F @ F.T
    P = solve_lyapunov(A, Q)
    assert np.linalg.norm(A.T @ P + P @ A + Q) <= 1e-10 * np.linalg.norm(Q)


def test_lyapunov_singular_spectrum_pair():
    # eigenvalues +1 and -1 sum to zero: operator is singular
    with pytest.raises(SingularLyapunovOperator):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_lyapunov_stability_test_paths():
    verdict, cert = lyapunov_stability_test(np.array([[0.0, 1.0], [-2.0, -2.0]]))
    assert verdict.kind == "asymptoticallyStable"
    assert cert.pd_verdict == "PD"

    verdict, cert = lyapunov_stability_test(np.eye(2))
    assert verdict.kind == "unstable"
    assert cert.pd_verdict != "PD"
    np.testing.assert_allclose(cert.P, -0.5 * np.eye(2), atol=1e-12)

    verdict, cert = lyapunov_stability_test(np.array([[-1.0, 1.0], [-2.0, 3.0]]))
    assert verdict.kind == "unstable"
    assert cert.pd_verdict != "PD"


def test_lyapunov_verdict_agrees_with_eigen_test():
    gen = rng(57)
    checked = 0
    for _ in range(20):
        A = gen.normal(size=(4, 4))
        try:
            verdict, cert = lyapunov_stability_test(A)
        except SingularLyapunovOperator:
            continue  # surfaced, measure-zero spectrum configuration
        hurwitz = verdict.kind == "asymptoticallyStable"
        assert (cert.pd_verdict == "PD") == hurwitz
        checked += 1
    assert checked >= 15


@pytest.fixture(params=["extension", "fallback"])
def lapack_route(request, monkeypatch):
    """numkit.lapack() loading the extension by file, or, with the file spec
    failing, falling back to the scipy.linalg.lapack module."""
    import importlib.util

    numkit.lapack.cache_clear()
    if request.param == "fallback":
        monkeypatch.setattr(importlib.util, "spec_from_file_location",
                            lambda *args, **kwargs: None)
    yield request.param
    numkit.lapack.cache_clear()


def _stable_draws(seed):
    """(A, Q) pairs: n from 1 to 30, and 160, where dgees's blocked QR
    depends on the workspace size, at three scales, Q identity or a random
    positive semidefinite matrix."""
    gen = rng(seed)
    for n in [*range(1, 31), 160]:
        for scale in (1e-3, 1.0, 1e3):
            A = gen.normal(size=(n, n))
            shift = np.max(np.linalg.eigvals(A).real) + gen.uniform(0.1, 2.0)
            F = gen.normal(size=(n, int(gen.integers(1, n + 1))))
            for Q in (np.eye(n), F @ F.T):
                yield scale * (A - shift * np.eye(n)), Q


def test_lyapunov_has_the_bits_of_scipy(lapack_route):
    # the solve follows scipy.linalg.solve_continuous_lyapunov step for step;
    # a scipy whose routines or wrappers change must fail here
    import scipy.linalg

    count = 0
    for A, Q in _stable_draws(71):
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
        np.testing.assert_array_equal(solve_lyapunov(A, Q), 0.5 * (ref + ref.T))
        count += 1
    assert count == 186
    assert (numkit.lapack() is scipy.linalg.lapack) == (lapack_route == "fallback")


def test_lyapunov_empty_and_non_finite():
    assert solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(ValueError, match="finite"):
        solve_lyapunov([[np.nan, 0.0], [0.0, -1.0]], np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        solve_lyapunov(-np.eye(2), [[np.inf, 0.0], [0.0, 1.0]])


def test_lyapunov_warns_when_dtrsyl_perturbs():
    # the eigenvalues 1 and -1 + 1e-8 clear the pair band, but beside the
    # 1e12 coupling dtrsyl must perturb them, and says so as scipy does
    import scipy.linalg

    A = np.array([[1.0, 1e12], [0.0, -1.0 + 1e-8]])
    with pytest.warns(RuntimeWarning, match="perturbing"):
        P = solve_lyapunov(A, np.eye(2))
    with pytest.warns(RuntimeWarning):
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(2))
    np.testing.assert_array_equal(P, 0.5 * (ref + ref.T))


def test_lapack_loader_leaves_the_scipy_package_unloaded():
    # a later import of scipy.linalg reuses the loaded extension
    code = (
        "import json, sys\n"
        "from statespace_kit import numkit\n"
        "module = numkit.lapack()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import scipy.linalg\n"
        "print(json.dumps([loaded, scipy.linalg.lapack._flapack is module]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["scipy.linalg._flapack"], True]


# ---------------------------------------------------------------------------
# invariant subspaces


def test_subspace_golden_example():
    A = np.array([[-2.0, 1.0, -1.0], [-2.0, -5.0, 6.0], [-1.0, -3.0, 4.0]])
    pair = stability_subspaces(A)
    assert pair.unstable.shape[1] == 1
    assert pair.stable.shape[1] == 2
    assert subspace_angle(pair.unstable, np.array([[0.0], [1.0], [1.0]])) <= 1e-6
    target = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
    assert subspace_angle(pair.stable, target) <= 1e-6


def test_subspace_hurwitz_all_stable():
    gen = rng(59)
    A = random_stable_diagonalizable(gen, 4)
    pair = stability_subspaces(A)
    assert pair.unstable.shape[1] == 0
    assert numkit.rank(pair.stable) == 4


def test_subspace_invariance_residual():
    A = np.array([[-2.0, 1.0, -1.0], [-2.0, -5.0, 6.0], [-1.0, -3.0, 4.0]])
    pair = stability_subspaces(A)
    for S in (pair.stable, pair.unstable):
        if S.shape[1] == 0:
            continue
        coeff = np.linalg.lstsq(S, A @ S, rcond=None)[0]
        assert np.max(np.abs(A @ S - S @ coeff)) <= 1e-8


def test_subspace_completeness():
    A = np.array([[-2.0, 1.0, -1.0], [-2.0, -5.0, 6.0], [-1.0, -3.0, 4.0]])
    pair = stability_subspaces(A)
    assert numkit.rank(np.hstack([pair.stable, pair.unstable])) == 3


def test_subspace_complex_pair_real_basis():
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])  # eigenvalues -1 +- 2j
    pair = stability_subspaces(A)
    assert pair.stable.shape == (2, 2)
    assert np.isrealobj(pair.stable)


SPLIT_CASES = [
    (np.eye(2), (0, 0, 2)),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), (0, 2, 0)),
    # a defective stable block beside a rotation
    (np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]), (2, 2, 0)),
    # the pair -1 +- 2j twice, beside an unstable mode
    (np.array([[-1.0, 2.0, 0.0, 0.0, 0.0], [-2.0, -1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, -1.0, 2.0, 1.0], [0.0, 0.0, -2.0, -1.0, 0.0],
               [0.0, 0.0, 0.0, 0.0, 3.0]]), (4, 0, 1)),
]


@pytest.mark.parametrize("A, dims", SPLIT_CASES, ids=[
    "identity", "nilpotent", "jordan-and-rotation", "repeated-pair"])
def test_subspace_splits_repeated_and_defective_eigenvalues(A, dims):
    pair = stability_subspaces(A)
    parts = (pair.stable, pair.center, pair.unstable)
    assert tuple(V.shape[1] for V in parts) == dims
    norm = np.linalg.norm(A, 2)
    for V in parts:
        np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-12)
        assert np.linalg.norm(A @ V - V @ (V.T @ A @ V), 2) <= 1e-12 * norm


def test_subspaces_have_the_bits_of_scipy_schur():
    # the sorted dgees call is scipy.linalg.schur(..., sort=callable)'s
    import scipy.linalg

    gen = rng(73)
    cases = [A for A, _ in SPLIT_CASES]
    for n in range(1, 13):
        cases.append(gen.normal(size=(n, n)))
        # a repeated and a defective eigenvalue, under a similarity
        J = np.diag(gen.choice([-1.0, 0.0, 2.0], size=n))
        J += np.diag(gen.integers(0, 2, size=n - 1).astype(float), 1)
        V = gen.normal(size=(n, n))
        cases.append(V @ J @ np.linalg.inv(V))
    for A in cases:
        tol = 1e-9 * (1.0 + np.linalg.norm(A, 2))
        pair = stability_subspaces(A)
        parts = (pair.stable, pair.center, pair.unstable)
        for part, select in zip(parts, (lambda re, im: re < -tol,
                                        lambda re, im: abs(re) <= tol,
                                        lambda re, im: re > tol)):
            T, Z, sdim = scipy.linalg.schur(A, output="real", sort=select)
            mine = _real_schur(A, select)
            np.testing.assert_array_equal(mine[0], T)
            np.testing.assert_array_equal(mine[1], Z)
            assert mine[2] == sdim
            np.testing.assert_array_equal(part, Z[:, :sdim])


# ---------------------------------------------------------------------------
# sampled quadratic certification


def test_scan_certifies_cubic_example():
    # decay rate along the field is -2(x1^2 + x2^2 (1 - x2^2)), nonpositive
    # on the unit ball and zero only on its boundary
    def f(x):
        return np.array([-x[0] - x[1], x[0] - x[1] + x[1] ** 3])

    rep = quadratic_lyapunov_scan(f, np.eye(2), level=1.0)
    assert rep.certified
    assert rep.worst_decay < 0


def test_scan_certifies_linear_contraction():
    rep = quadratic_lyapunov_scan(lambda x: -x, np.eye(2), level=4.0)
    assert rep.certified
    assert rep.worst_decay == pytest.approx(-2.0, abs=1e-8)


def test_scan_certifies_damped_oscillator_small_level():
    P = np.array([[0.5, 1.0 / 12.0], [1.0 / 12.0, 0.5]])
    rep = quadratic_lyapunov_scan(damped_oscillator_field, P, level=0.1)
    assert rep.certified


def test_scan_reports_counterexample():
    # expanding field: every sample violates decay
    rep = quadratic_lyapunov_scan(lambda x: x, np.eye(2), level=1.0)
    assert not rep.certified
    assert rep.failing_point is not None
    x = rep.failing_point
    assert 2.0 * x @ x > 0  # gradient-dot-field positive at the witness


def test_scan_is_deterministic():
    P = np.array([[0.5, 1.0 / 12.0], [1.0 / 12.0, 0.5]])
    a = quadratic_lyapunov_scan(damped_oscillator_field, P, level=0.1)
    b = quadratic_lyapunov_scan(damped_oscillator_field, P, level=0.1)
    assert a.worst_decay == b.worst_decay
    assert a.samples == b.samples


# ---------------------------------------------------------------------------
# linearization verdicts


def test_linearization_damped_oscillator_stable():
    model = damped_oscillator_model()
    eq = Equilibrium(xe=np.zeros(2), ue=np.zeros(0), residual=0.0)
    v = linearization_verdict(model, eq)
    assert v.kind == "asympStable"
    np.testing.assert_allclose(v.linear_model.A, [[0.0, 1.0], [-1.0, -1.0]],
                               atol=1e-6)


def test_linearization_cubic_field_inconclusive():
    model = NonlinearModel(f=lambda x, u, t: np.array([-x[0] ** 3]),
                           h=lambda x, u, t: x, n=1, m=0, p=1)
    eq = Equilibrium(xe=np.zeros(1), ue=np.zeros(0), residual=0.0)
    assert linearization_verdict(model, eq).kind == "inconclusive"


def test_linearization_inverted_pendulum_unstable():
    def f(x, u, t):
        return np.array([x[1], -np.sin(x[0])])

    model = NonlinearModel(f=f, h=lambda x, u, t: x, n=2, m=0, p=2)
    eq = Equilibrium(xe=np.array([np.pi, 0.0]), ue=np.zeros(0), residual=0.0)
    assert linearization_verdict(model, eq).kind == "unstable"


def test_linearization_implies_local_decay():
    from statespace_kit.response import simulate

    model = damped_oscillator_model()
    eq = Equilibrium(xe=np.zeros(2), ue=np.zeros(0), residual=0.0)
    v = linearization_verdict(model, eq)
    assert v.kind == "asympStable"
    tau = 1.0 / abs(max(np.real(v.eigenvalues)))  # slowest time constant
    gen = rng(61)
    for _ in range(5):
        dx = gen.normal(size=2)
        dx *= 1e-3 / np.linalg.norm(dx)
        times = np.linspace(0.0, 10.0 * tau, 400)
        traj = simulate(model, dx, times)
        assert np.linalg.norm(traj.states[-1]) <= np.linalg.norm(dx) / 10.0


# ---------------------------------------------------------------------------
# input-output stability


def test_bibo_cancelled_unstable_pole_flagged():
    rep = bibo_stability(rational([1.0, -2.0], [1.0, -1.0, -2.0]))
    assert rep.bibo_stable
    assert rep.unstable_cancellation
    assert any(abs(complex(r) - 2.0) <= 1e-7 for r in rep.cancelled_roots)
    np.testing.assert_allclose(np.sort(rep.poles.real), [-1.0], atol=1e-9)


def test_bibo_simple_lag_stable():
    rep = bibo_stability(rational([1.0], [1.0, 1.0]))
    assert rep.bibo_stable
    assert not rep.unstable_cancellation


def test_bibo_integrator_not_stable():
    assert not bibo_stability(rational([1.0], [1.0, 0.0])).bibo_stable
