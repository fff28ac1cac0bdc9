"""Structural analysis tests: rank and pencil classification, grammians,
modal test, canonical decompositions, zeros, steering, discrete reachability."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_controllable_siso,
    random_stable_diagonalizable,
    rng,
    siso_system,
    subspace_angle,
)
from statespace_kit import numkit
from statespace_kit.errors import (
    DegeneratePencil,
    IllConditioned,
    Overflow,
    RepeatedEigenvalues,
    SingularFundamental,
    SingularGrammian,
    Uncontrollable,
    Unobservable,
    WorkBudgetExceeded,
)
from statespace_kit.model import StateSpace, ltv_model, state_space
from statespace_kit.realization import ccf, minimality, rational, ss_to_tf
from statespace_kit.registry import builtin_model
from statespace_kit.structural import (
    controllability_grammian,
    controllability_matrix,
    discrete_reachability,
    kalman_decompose,
    minimum_energy_steer,
    modal_controllability_test,
    observability_grammian,
    observability_matrix,
    staircase,
    structural_analysis,
    transmission_zeros,
)
from statespace_kit.synthesis import observer_gain, place_poles


def star_system():
    # three decoupled modes, input reaches the first two, output sees
    # the first and third
    return state_space(
        np.diag([1.0, 2.0, -1.0]),
        np.array([[1.0], [1.0], [0.0]]),
        np.array([[1.0, 0.0, 1.0]]),
    )


# ---------------------------------------------------------------------------
# rank and mode classification


def test_structural_golden_example():
    sys = state_space(np.array([[-2.0, 0.0], [-1.0, -1.0]]),
                      np.array([[1.0], [1.0]]))
    rep = structural_analysis(sys)
    assert rep.ctrb_rank == 1
    assert len(rep.uncontrollable_modes) == 1
    assert abs(rep.uncontrollable_modes[0] - (-1.0)) <= 1e-9
    assert rep.stabilizable
    basis = rep.controllable_subspace_basis
    assert basis.shape == (2, 1)
    assert subspace_angle(basis, np.array([[1.0], [1.0]])) <= 1e-6


def test_structural_star_mode_table():
    rep = structural_analysis(star_system())
    assert rep.ctrb_rank == 2
    assert rep.obsv_rank == 2
    unc = sorted(z.real for z in rep.uncontrollable_modes)
    unob = sorted(z.real for z in rep.unobservable_modes)
    np.testing.assert_allclose(unc, [-1.0], atol=1e-9)
    np.testing.assert_allclose(unob, [2.0], atol=1e-9)
    # the only uncontrollable mode decays, the unobservable one grows
    assert rep.stabilizable
    assert not rep.detectable


def test_structural_no_input():
    rep = structural_analysis(state_space(np.diag([-1.0, -2.0])))
    assert rep.ctrb_rank == 0
    assert len(rep.uncontrollable_modes) == 2
    assert rep.stabilizable  # every mode already decays

    rep = structural_analysis(state_space(np.diag([1.0, -1.0])))
    assert not rep.stabilizable


def test_stabilizability_tracks_unstable_mode_reach():
    A = np.diag([1.0, -1.0])
    reached = structural_analysis(state_space(A, np.array([[1.0], [0.0]])))
    assert reached.stabilizable
    missed = structural_analysis(state_space(A, np.array([[0.0], [1.0]])))
    assert not missed.stabilizable
    assert abs(missed.uncontrollable_modes[0] - 1.0) <= 1e-9


def test_pencil_count_matches_rank_deficit():
    # modal-coordinate construction: zeroed input rows decide both routes
    gen = rng(71)
    for _ in range(20):
        n = int(gen.integers(2, 6))
        lam = -gen.uniform(0.3, 3.0, size=n)
        lam += np.arange(n) * 3.5  # force pairwise distinct
        b = gen.normal(size=(n, 1))
        dead = gen.integers(0, 2, size=n).astype(bool)
        if dead.all():
            dead[0] = False
        b[dead] = 0.0
        rep = structural_analysis(state_space(np.diag(lam), b))
        assert rep.ctrb_rank == n - int(dead.sum())
        assert len(rep.uncontrollable_modes) == int(dead.sum())
        got = sorted(z.real for z in rep.uncontrollable_modes)
        np.testing.assert_allclose(got, np.sort(lam[dead]), atol=1e-7)


def test_structural_duality():
    gen = rng(73)
    A = gen.normal(size=(4, 4))
    C = gen.normal(size=(2, 4))
    primal = structural_analysis(StateSpace(A, np.zeros((4, 0)), C,
                                            np.zeros((2, 0))))
    dual = structural_analysis(StateSpace(A.T, C.T, np.zeros((0, 4)),
                                          np.zeros((0, 2))))
    assert primal.obsv_rank == dual.ctrb_rank
    np.testing.assert_allclose(observability_matrix(A, C),
                               controllability_matrix(A.T, C.T).T)


def test_similarity_preserves_ranks():
    gen = rng(79)
    A, b = random_controllable_siso(gen, 3)
    c = gen.normal(size=(1, 3))
    T = gen.normal(size=(3, 3)) + 3.0 * np.eye(3)
    sys = siso_system(A, b, c)
    mapped = state_space(T @ A @ np.linalg.inv(T), T @ b,
                         c @ np.linalg.inv(T))
    a_rep = structural_analysis(sys)
    b_rep = structural_analysis(mapped)
    assert a_rep.ctrb_rank == b_rep.ctrb_rank
    assert a_rep.obsv_rank == b_rep.obsv_rank


def test_output_feedback_preserves_controllability_rank():
    gen = rng(83)
    for seed_off in range(5):
        A, b = random_controllable_siso(rng(83 + seed_off), 4)
        c = rng(183 + seed_off).normal(size=(1, 4))
        F = float(rng(283 + seed_off).normal())
        before = numkit.rank(controllability_matrix(A, b))
        after = numkit.rank(controllability_matrix(A + b * F @ c, b))
        assert before == after == 4


def gaussian_stable_pair(n):
    # dense Gaussian A shifted to be stable, seed 0: the Krylov matrix
    # [b, Ab, ...] is numerically rank deficient at n = 20 and 30
    gen = rng(0)
    A = gen.standard_normal((n, n)) / np.sqrt(n)
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    return siso_system(A, gen.standard_normal((n, 1)),
                       gen.standard_normal((1, n)))


@pytest.mark.parametrize("n", [20, 30])
def test_ranks_hold_where_the_krylov_matrix_fails(n):
    sys = gaussian_stable_pair(n)
    rep = structural_analysis(sys)
    assert (rep.ctrb_rank, rep.obsv_rank) == (n, n)
    assert rep.uncontrollable_modes == rep.unobservable_modes == ()
    assert minimality(sys).minimal_degree == n
    assert discrete_reachability(sys.A, sys.B, n).ranks == tuple(range(1, n + 1))
    poles = -np.arange(1.0, n + 1.0)
    for design, refusal in ((place_poles, Uncontrollable),
                            (observer_gain, Unobservable)):
        try:
            design(sys, poles)
        except refusal:
            pytest.fail(f"{design.__name__} refused a pair of full rank")
        except IllConditioned:
            pass  # companion-form placement itself may miss at this size


def staircase_pair(gen, r, q, m):
    """(A, B) whose controllable subspace is the first r coordinates.

    The controllable part is a block staircase whose steps (the leading
    block of B and each subdiagonal block of A) have singular values in
    [0.5, 2]; the last q coordinates get neither input nor coupling.
    """
    n = r + q
    A = gen.normal(size=(n, n))
    B = np.zeros((n, m))
    A[r:, :r] = 0.0
    sizes = [int(gen.integers(1, min(m, r) + 1))]
    while sum(sizes) < r:
        sizes.append(int(gen.integers(1, min(sizes[-1], r - sum(sizes)) + 1)))
    starts = np.cumsum([0] + sizes)

    def step(rows, cols):
        block = gen.normal(size=(rows, cols))
        block[:, :rows] = np.diag(gen.uniform(0.5, 2.0, rows))
        return block

    B[:sizes[0]] = step(sizes[0], m)
    for i in range(1, len(sizes)):
        A[starts[i]:, starts[i - 1]:starts[i]] = 0.0
        A[starts[i]:starts[i + 1], starts[i - 1]:starts[i]] = step(
            sizes[i], sizes[i - 1])
    return A, B


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 7),
       q=st.integers(0, 4), m=st.integers(1, 3),
       log_c=st.floats(-12.0, 12.0), log_d=st.floats(-12.0, 12.0),
       transform=st.sampled_from(["none", "orthogonal", "similarity"]))
def test_staircase_rank_survives_scaling_and_similarity(
        seed, r, q, m, log_c, log_d, transform):
    gen = rng(seed)
    A, B = staircase_pair(gen, r, q, m)
    n = r + q
    T = np.eye(n)
    if transform != "none":
        T, _ = np.linalg.qr(gen.normal(size=(n, n)))
    if transform == "similarity":  # condition number at most 10
        U, _ = np.linalg.qr(gen.normal(size=(n, n)))
        T = T @ np.diag(np.geomspace(1.0, 10.0, n)) @ U
    A = 10.0 ** log_c * (T @ A @ np.linalg.inv(T))
    B = 10.0 ** log_d * (T @ B)
    assert staircase(A, B).rank == r
    assert structural_analysis(state_space(A, B)).ctrb_rank == r
    dual = StateSpace(A.T, np.zeros((n, 0)), B.T, np.zeros((m, 0)))
    assert structural_analysis(dual).obsv_rank == r
    assert discrete_reachability(A, B, n).ranks[-1] == r


def test_staircase_form_and_subspaces():
    sys = star_system()
    stair = staircase(sys.A, sys.B)
    assert (stair.rank, stair.blocks) == (2, (1, 1))
    np.testing.assert_allclose(stair.Z.T @ stair.Z, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(stair.A_bar, stair.Z.T @ sys.A @ stair.Z,
                               atol=1e-12)
    np.testing.assert_allclose(stair.A_bar[2:, :2], 0.0, atol=1e-12)
    rep = structural_analysis(sys)
    assert subspace_angle(rep.controllable_subspace_basis,
                          np.eye(3)[:, :2]) <= 1e-9
    assert subspace_angle(rep.unobservable_subspace_basis,
                          np.array([[0.0], [1.0], [0.0]])) <= 1e-9


def test_explicit_tolerance_is_absolute():
    # a weakly coupled second mode: controllable at the default cutoff,
    # not at an absolute cutoff above the coupling
    A, B = np.diag([-1.0, -2.0]), np.array([[1.0], [1e-6]])
    assert staircase(A, B).rank == 2
    assert staircase(A, B, tol=1e-3).rank == 1


# ---------------------------------------------------------------------------
# grammians


def test_ctrb_grammian_integrator_unit():
    sys = state_space(np.zeros((1, 1)), np.ones((1, 1)))
    rep = controllability_grammian(sys, 0.0, 1.0)
    assert rep.kind == "controllability"
    np.testing.assert_allclose(rep.matrix, [[1.0]], atol=1e-10)


def test_ctrb_grammian_rank_matches_matrix_rank():
    gen = rng(89)
    for _ in range(12):
        n = int(gen.integers(2, 5))
        lam = -gen.uniform(0.3, 2.0, size=n) - np.arange(n) * 1.3
        b = gen.normal(size=(n, 1))
        dead = np.zeros(n, dtype=bool)
        dead[gen.integers(0, n)] = gen.random() < 0.5
        b[dead] = 0.0
        sys = state_space(np.diag(lam), b)
        W = controllability_grammian(sys, 0.0, 2.0).matrix
        expected = numkit.rank(controllability_matrix(sys.A, sys.B))
        assert numkit.rank(W, tol=1e-8) == expected


def test_ctrb_grammian_uncontrollable_is_singular():
    sys = state_space(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    rep = controllability_grammian(sys, 0.0, 2.0)
    assert rep.min_eig <= 1e-12
    assert rep.conditioning == np.inf


def test_ltv_grammians_refuse_an_infinite_horizon():
    model = ltv_model(lambda t: np.array([[-1.0, t], [0.0, -2.0]]),
                      B=lambda t: np.array([[0.0], [1.0]]),
                      C=lambda t: np.array([[1.0, 0.0]]), n=2, m=1, p=1)
    for grammian in (controllability_grammian, observability_grammian):
        with pytest.raises(ValueError, match="constant-coefficient model"):
            grammian(model, 0.0, np.inf)


def _integrator_ramp():
    # A(t) = t [[0, 1], [0, 0]]: phi(t, tau) = [[1, (t^2 - tau^2) / 2], [0, 1]]
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    return ltv_model(lambda t: t * N, B=lambda t: np.array([[0.0], [1.0]]),
                     C=lambda t: np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("T", [1.0, 3.0])
def test_ltv_grammians_closed_form(T):
    model = _integrator_ramp()
    W = np.array([[T**5 / 20, -T**3 / 6], [-T**3 / 6, T]])
    H = np.array([[T, T**3 / 6], [T**3 / 6, T**5 / 20]])
    tol = 1e-11 * np.abs(W).max()
    np.testing.assert_allclose(controllability_grammian(model, 0.0, T).matrix,
                               W, rtol=0, atol=tol)
    np.testing.assert_allclose(observability_grammian(model, 0.0, T).matrix,
                               H, rtol=0, atol=tol)


def _stiff(lam):
    A, B, C = np.diag([lam, -1.0]), np.array([[1.0], [0.0]]), np.array([[1.0, 1.0]])
    calls = []

    def A_of_t(t):
        calls.append(t)
        return A

    return (ltv_model(A_of_t, B=lambda t: B, C=lambda t: C, n=2, m=1, p=1), calls,
            state_space(A, B, C))


def test_stiff_ltv_grammian_agrees_with_the_constant_route():
    # h |lambda| = 2.9 at 800 steps is past a fourth-order step's stability
    # bound; the march takes ceil(2 * 2320) = 4640 steps and stays stable
    model, _, lti = _stiff(-2320.0)
    got = observability_grammian(model, 0.0, 1.0).matrix
    want = observability_grammian(lti, 0.0, 1.0).matrix
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_far_stiffer_ltv_grammian_is_refused_before_the_first_step():
    # 2e8 steps: A(t) is read for the state dimension at t0 and at the 801
    # samples of the step plan, and never by the march
    model, calls, _ = _stiff(-1e8)
    with pytest.raises(WorkBudgetExceeded, match="2e\\+08 steps"):
        observability_grammian(model, 0.0, 1.0)
    assert calls == [0.0] + np.linspace(0.0, 1.0, 801).tolist()


def test_grammian_range_equals_reachable_subspace():
    sys = state_space(np.diag([-1.0, -2.0, -3.0]),
                      np.array([[1.0], [1.0], [0.0]]))
    W = controllability_grammian(sys, 0.0, 1.5).matrix
    Ct = controllability_matrix(sys.A, sys.B)
    Uw, sw, _ = np.linalg.svd(W)
    rw = numkit.rank(W, tol=1e-8)
    Uc, sc, _ = np.linalg.svd(Ct)
    rc = numkit.rank(Ct)
    assert rw == rc == 2
    assert subspace_angle(Uw[:, :rw], Uc[:, :rc]) <= 1e-6


def test_obsv_grammian_scalar_lag():
    sys = siso_system(np.array([[-1.0]]), np.array([[0.0]]),
                      np.array([[1.0]]))
    rep = observability_grammian(sys, 0.0, 20.0)
    assert rep.kind == "observability"
    np.testing.assert_allclose(rep.matrix, [[0.5]], atol=1e-9)


def test_obsv_grammian_infinite_horizon_exact():
    sys = siso_system(np.array([[-1.0]]), np.array([[0.0]]),
                      np.array([[1.0]]))
    rep = observability_grammian(sys, 0.0, np.inf)
    np.testing.assert_allclose(rep.matrix, [[0.5]], atol=1e-12)
    assert rep.horizon[1] == np.inf


def test_obsv_grammian_zero_output_map():
    sys = StateSpace(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                     np.zeros((1, 2)), np.zeros((1, 1)))
    rep = observability_grammian(sys, 0.0, 4.0)
    np.testing.assert_allclose(rep.matrix, np.zeros((2, 2)), atol=1e-12)
    assert rep.max_eig == 0.0


def test_ctrb_grammian_stiff_long_horizon():
    # W = X - e^{-A t} X e^{-A' t} with A X + X A' = B B'
    gen = rng(211)
    V = gen.normal(size=(4, 4))
    A = V @ np.diag([0.5, 3.0, 40.0, 200.0]) @ np.linalg.inv(V)
    B = gen.normal(size=(4, 2))
    W = controllability_grammian(state_space(A, B), 0.0, 5.0).matrix
    X = np.linalg.solve(np.kron(np.eye(4), A) + np.kron(A, np.eye(4)),
                        (B @ B.T).reshape(-1)).reshape(4, 4)
    E = numkit.expm(A, -5.0)
    np.testing.assert_allclose(W, X - E @ X @ E.T, rtol=1e-9)
    with pytest.raises(Overflow):
        controllability_grammian(state_space(-A, B), 0.0, 5.0)


def test_grammian_duality():
    gen = rng(97)
    A = random_stable_diagonalizable(gen, 3)
    C = gen.normal(size=(2, 3))
    H = observability_grammian(
        StateSpace(A, np.zeros((3, 0)), C, np.zeros((2, 0))), 0.0, 3.0
    ).matrix
    W = controllability_grammian(
        StateSpace(-A.T, C.T, np.zeros((0, 3)), np.zeros((0, 2))), 0.0, 3.0
    ).matrix
    np.testing.assert_allclose(H, W, atol=1e-6)


# ---------------------------------------------------------------------------
# modal controllability


def test_modal_test_golden():
    sys = state_space(np.array([[-2.0, 0.0], [-1.0, -1.0]]),
                      np.array([[1.0], [1.0]]))
    rep = modal_controllability_test(sys)
    i_slow = int(np.argmin(np.abs(rep.eigenvalues - (-1.0))))
    i_fast = int(np.argmin(np.abs(rep.eigenvalues - (-2.0))))
    assert not rep.controllable_flags[i_slow]
    assert rep.controllable_flags[i_fast]
    assert rep.row_norms[i_slow] <= 1e-10


def test_modal_test_agrees_with_pencil():
    gen = rng(101)
    for _ in range(20):
        n = int(gen.integers(2, 5))
        lam = -gen.uniform(0.5, 2.0, size=n) - np.arange(n) * 2.0
        V = gen.normal(size=(n, n))
        while abs(np.linalg.det(V)) < 0.1:
            V = gen.normal(size=(n, n))
        Bm = gen.normal(size=(n, 1))
        dead = gen.random(size=n) < 0.3
        Bm[dead] = 0.0
        A = V @ np.diag(lam) @ np.linalg.inv(V)
        B = V @ Bm
        sys = state_space(A, B)
        modal = modal_controllability_test(sys)
        pencil = structural_analysis(sys)
        n_dead_modal = sum(1 for f in modal.controllable_flags if not f)
        assert n_dead_modal == len(pencil.uncontrollable_modes)


def test_modal_test_rejects_repeated_eigenvalues():
    with pytest.raises(RepeatedEigenvalues):
        modal_controllability_test(state_space(np.eye(2), np.ones((2, 1))))


# ---------------------------------------------------------------------------
# Kalman decompositions


def test_kccf_golden():
    sys = state_space(np.array([[-2.0, 0.0], [-1.0, -1.0]]),
                      np.array([[1.0], [1.0]]))
    dec = kalman_decompose(sys, "KCCF")
    assert dec.n1 == 1
    np.testing.assert_allclose(dec.A_bar, [[-2.0, -1.0], [0.0, -1.0]],
                               atol=1e-9)
    np.testing.assert_allclose(dec.B_bar, [[1.0], [0.0]], atol=1e-9)
    # trailing block carries exactly the unreachable spectrum
    np.testing.assert_allclose(np.linalg.eigvals(dec.trailing_block), [-1.0],
                               atol=1e-9)


def test_kccf_lower_left_zero_block():
    gen = rng(103)
    lam = np.array([-1.0, -2.0, -3.0, -4.0])
    b = np.array([[1.0], [1.0], [0.0], [0.0]])
    sys = state_space(np.diag(lam), b)
    dec = kalman_decompose(sys, "KCCF")
    assert dec.n1 == 2
    np.testing.assert_allclose(dec.A_bar[dec.n1:, : dec.n1],
                               np.zeros((2, 2)), atol=1e-9)
    np.testing.assert_allclose(dec.B_bar[dec.n1:], np.zeros((2, 1)),
                               atol=1e-9)
    # reachable pair of the leading block is controllable
    lead_rank = numkit.rank(controllability_matrix(dec.leading_block,
                                                   dec.B_bar[: dec.n1]))
    assert lead_rank == dec.n1


def test_kccf_controllable_case_is_identity():
    gen = rng(107)
    A, b = random_controllable_siso(gen, 3)
    dec = kalman_decompose(state_space(A, b), "KCCF")
    assert dec.n1 == 3
    np.testing.assert_allclose(dec.transform, np.eye(3))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_kccf_reachable_dimension_is_scale_free(scale):
    # the reachability columns past b are as short as A is small; each is
    # accepted or rejected relative to its own length
    sys = state_space(scale * np.diag([-1.0, -2.0, -3.0]),
                      np.array([[1.0], [1.0], [0.0]]))
    dec = kalman_decompose(sys, "KCCF")
    assert dec.n1 == 2
    np.testing.assert_allclose(dec.B_bar[dec.n1:], np.zeros((1, 1)), atol=1e-9)


def test_kocf_hidden_mode():
    sys = siso_system(np.array([[0.0, 1.0], [-5.0, -6.0]]),
                      np.array([[0.0], [1.0]]), np.array([[1.0, 1.0]]))
    dec = kalman_decompose(sys, "KOCF")
    assert dec.kind == "KOCF"
    assert dec.n1 == 1
    # coupling from the unobservable part into the observable part is zero
    np.testing.assert_allclose(dec.A_bar[: dec.n1, dec.n1:],
                               np.zeros((1, 1)), atol=1e-9)
    np.testing.assert_allclose(dec.C_bar[:, dec.n1:], np.zeros((1, 1)),
                               atol=1e-9)
    np.testing.assert_allclose(np.linalg.eigvals(dec.trailing_block), [-1.0],
                               atol=1e-9)
    np.testing.assert_allclose(np.linalg.eigvals(dec.leading_block), [-5.0],
                               atol=1e-9)


def test_decomposition_preserves_transfer_function():
    sys = siso_system(np.array([[0.0, 1.0], [-5.0, -6.0]]),
                      np.array([[0.0], [1.0]]), np.array([[1.0, 1.0]]))
    dec = kalman_decompose(sys, "KOCF")
    for s in (0.7j, 1.0 + 0.3j, -0.2 + 2.0j):
        g_orig = sys.C @ np.linalg.solve(s * np.eye(2) - sys.A, sys.B)
        g_bar = dec.C_bar @ np.linalg.solve(s * np.eye(2) - dec.A_bar,
                                            dec.B_bar)
        np.testing.assert_allclose(g_bar, g_orig, atol=1e-9)


# ---------------------------------------------------------------------------
# transmission zeros


def test_zeros_of_first_order_numerator():
    sys = ccf(rational([1.0, 4.0], [1.0, 3.0, 2.0]))
    zs = transmission_zeros(sys)
    np.testing.assert_allclose(zs.transmission_zeros, [-4.0], atol=1e-8)


def test_zeros_empty_for_constant_numerator():
    sys = ccf(rational([1.0], [1.0, 1.0, 0.0]))
    assert transmission_zeros(sys).transmission_zeros.size == 0


def test_zeros_pendubot_match_numerator_roots():
    sys = builtin_model("pendubot")
    zs = transmission_zeros(sys).transmission_zeros
    tf = ss_to_tf(sys).single()
    num_roots = np.sort_complex(np.roots(tf.num))
    np.testing.assert_allclose(np.sort_complex(zs), num_roots, atol=1e-6)
    np.testing.assert_allclose(np.sort(zs.real), [-6.5354, 6.5354],
                               atol=1e-3)


def test_zeros_degenerate_pencil_raises():
    # zero output map: the pencil loses rank identically in s
    sys = StateSpace(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)),
                     np.zeros((1, 1)))
    with pytest.raises(DegeneratePencil):
        transmission_zeros(sys)


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e6, 1e10, 1e13])
def test_zero_scales_with_a(c):
    # the zero of (c diag(-1, -2), [1; 1], [1 1]) is -1.5c at every scale
    sys = state_space(c * np.diag([-1.0, -2.0]), np.ones((2, 1)),
                      np.ones((1, 2)))
    zs = transmission_zeros(sys).transmission_zeros
    assert zs.shape == (1,)
    assert abs(zs[0] - (-1.5 * c)) <= 1e-12 * c


def conjugate_closed(zs):
    return all(np.min(np.abs(zs - np.conj(z))) <= 1e-9 * abs(z) for z in zs)


def test_zeros_of_relative_degree_two_plants():
    # C is made orthogonal to B, so CB is zero up to rounding and a plant of
    # n states has n - 2 zeros, which come in conjugate pairs
    gen = np.random.default_rng(0)
    for _ in range(300):
        A = gen.standard_normal((6, 6))
        b = gen.standard_normal((6, 1))
        c = gen.standard_normal((1, 6))
        c = c - (c @ b) / (b.T @ b) * b.T
        zs = transmission_zeros(siso_system(A, b, c)).transmission_zeros
        assert zs.size == 4
        assert conjugate_closed(zs)


def qz_zeros(sys):
    """Finite generalized eigenvalues of the system pencil by scipy's QZ, or
    None when the pencil is identically singular (alpha = beta = 0)."""
    import scipy.linalg

    n = sys.n
    M = np.block([[sys.A, sys.B], [sys.C, sys.D]])
    N = np.zeros_like(M)
    N[:n, :n] = np.eye(n)
    alpha, beta = scipy.linalg.eig(M, N, right=False, homogeneous_eigvals=True)
    scale = np.abs(M).sum()
    if np.any((np.abs(alpha) <= 1e-12 * scale) & (np.abs(beta) <= 1e-12 * scale)):
        return None
    finite = np.abs(beta) > 1e-8 * np.abs(alpha)
    return np.sort_complex(alpha[finite] / beta[finite])


def same_zeros(got, want):
    if got.size != want.size:
        return False
    left = list(want)
    for z in got:
        i = int(np.argmin(np.abs(np.array(left) - z)))
        if abs(left[i] - z) > 1e-6 * max(1.0, abs(z)):
            return False
        left.pop(i)
    return True


def zero_suite(seed, count):
    """Square plants, m = p in 1..3 and n in 1..8, cycling through a regular
    D, D = 0, a rank-deficient D and an uncontrollable last mode."""
    gen = np.random.default_rng(seed)
    for i in range(count):
        m, n = int(gen.integers(1, 4)), int(gen.integers(1, 9))
        A = gen.standard_normal((n, n))
        B = gen.standard_normal((n, m))
        C = gen.standard_normal((m, n))
        kind = ("regular", "zero", "deficient", "uncontrollable")[i % 4]
        D = np.zeros((m, m))
        if kind == "regular" or (kind == "uncontrollable" and i % 8 == 3):
            D = gen.standard_normal((m, m))
        elif kind == "deficient" and m > 1:
            D = gen.standard_normal((m, m - 1)) @ gen.standard_normal((m - 1, m))
        if kind == "uncontrollable":
            A[-1, :-1] = 0.0
            B[-1] = 0.0
        yield kind, StateSpace(A, B, C, D)


def test_zeros_agree_with_qz():
    kinds = {}
    for kind, sys in zero_suite(1, 400):
        want = qz_zeros(sys)
        if want is None:
            with pytest.raises(DegeneratePencil):
                transmission_zeros(sys)
            kind = "degenerate"
        else:
            got = transmission_zeros(sys).transmission_zeros
            assert same_zeros(got, want), (kind, got, want)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) >= 20 and len(kinds) == 5


@pytest.mark.parametrize("s", [2.0 ** -20, 0.3, 7.0, 2.0 ** 30, 1e9])
def test_zeros_do_not_change_under_input_and_output_scaling(s):
    for _, sys in zero_suite(2, 40):
        try:
            ref = transmission_zeros(sys).transmission_zeros
        except DegeneratePencil:
            with pytest.raises(DegeneratePencil):
                transmission_zeros(StateSpace(sys.A, sys.B * s, s * sys.C,
                                              s * s * sys.D))
            continue
        got = transmission_zeros(StateSpace(sys.A, sys.B * s, s * sys.C,
                                            s * s * sys.D)).transmission_zeros
        if np.log2(s).is_integer():  # power-of-two scalings are exact
            assert got.tobytes() == ref.tobytes()
        else:
            assert same_zeros(got, ref)


# ---------------------------------------------------------------------------
# minimum-energy steering


def test_steer_integrator_constant_input():
    sys = state_space(np.zeros((1, 1)), np.ones((1, 1)))
    u, traj = minimum_energy_steer(sys, [1.0], [0.0], 0.0, 1.0)
    for t in (0.0, 0.3, 0.9):
        np.testing.assert_allclose(u(t), [-1.0], atol=1e-10)
    assert abs(traj.states[-1, 0]) <= 1e-6


def test_steer_two_state_reaches_target():
    sys = state_space(np.array([[-5.0, 1.0], [0.0, 4.0]]),
                      np.array([[1.0], [1.0]]))
    u, traj = minimum_energy_steer(sys, [1.0, 0.0], [0.0, 1.0], 0.0, 1.0,
                                   samples=801)
    np.testing.assert_allclose(traj.states[-1], [0.0, 1.0], atol=1e-4)


def test_steer_energy_matches_grammian_form():
    # cost of the constructed control equals the quadratic form it minimizes
    sys = state_space(np.array([[-5.0, 1.0], [0.0, 4.0]]),
                      np.array([[1.0], [1.0]]))
    x0 = np.array([1.0, 0.0])
    xf = np.array([0.0, 1.0])
    u, _ = minimum_energy_steer(sys, x0, xf, 0.0, 1.0)
    W = controllability_grammian(sys, 0.0, 1.0).matrix
    eta = np.linalg.solve(W, x0 - numkit.expm(sys.A, -1.0) @ xf)
    ts = np.linspace(0.0, 1.0, 2001)
    vals = np.array([float(u(t) @ u(t)) for t in ts])
    energy = np.trapezoid(vals, ts)
    np.testing.assert_allclose(energy, eta @ W @ eta, rtol=1e-5)


def test_steer_trajectory_is_exact_flow(expm_calls):
    sys = state_space(np.array([[-5.0, 1.0], [0.0, 4.0]]),
                      np.array([[1.0], [1.0]]))
    u, traj = minimum_energy_steer(sys, [1.0, 0.0], [0.0, 1.0], 0.0, 1.0,
                                   samples=201)
    assert len(expm_calls) <= 8
    np.testing.assert_allclose(traj.states[-1], [0.0, 1.0], atol=1e-10)
    for i in (0, 77, 200):
        np.testing.assert_allclose(traj.inputs[i], u(traj.times[i]), atol=1e-10)


@pytest.mark.parametrize("T", [1.0, 3.0])
def test_ltv_steer_reaches_the_target_with_its_control(T):
    xf = np.array([0.5, 2.0])
    u, traj = minimum_energy_steer(_integrator_ramp(), [1.0, -1.0], xf, 0.0, T,
                                   samples=21)
    np.testing.assert_allclose(traj.states[-1], xf, rtol=0, atol=1e-10)
    np.testing.assert_allclose(traj.inputs, [u(t) for t in traj.times],
                               rtol=0, atol=1e-10)


def test_ltv_steer_raises_when_the_costate_flow_overflows():
    # the grammian march decays like e^{-100 t}; the forward march of x
    # amplifies its rounding like e^{100 t}, past the float range by t = 10
    model = ltv_model(lambda t: [[100.0]], B=lambda t: [[1.0]])
    with pytest.raises(SingularFundamental, match="state-costate"):
        minimum_energy_steer(model, [1.0], [0.0], 0.0, 10.0)


def test_steering_flow_is_the_state_costate_matrix_with_unit_weights():
    # Q = 0 and R = I give the flow [[A, -B B'], [0, -A']] that steering
    # built by hand, on one matrix and on a stack; only the zero block's
    # sign differs, and the exact flow keeps its bytes
    g = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 21)
    for n, m in [(1, 1), (2, 1), (3, 2), (5, 3)]:
        A, B = g.standard_normal((n, n)), g.standard_normal((n, m))
        flow = numkit.hamiltonian(A, B, np.zeros((n, n)), np.eye(m))[0]
        inline = np.block([[A, -B @ B.T], [np.zeros((n, n)), -A.T]])
        assert np.array_equal(flow, inline)
        z0 = g.standard_normal(2 * n)
        assert (numkit.expm_flow(flow, z0, times).tobytes()
                == numkit.expm_flow(inline, z0, times).tobytes())
        As, Bs = g.standard_normal((4, n, n)), g.standard_normal((4, n, m))
        stack = numkit.hamiltonian(As, Bs, np.zeros_like(As), np.eye(m))[0]
        bt = -Bs.swapaxes(-1, -2)
        assert np.array_equal(stack, np.block(
            [[As, Bs @ bt], [np.zeros_like(As), -As.swapaxes(-1, -2)]]))


def test_steer_singular_grammian_raises():
    sys = state_space(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    with pytest.raises(SingularGrammian):
        minimum_energy_steer(sys, [0.0, 0.0], [1.0, 1.0], 0.0, 1.0)


# ---------------------------------------------------------------------------
# discrete-time reachability


def test_discrete_rank_growth():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = discrete_reachability(A, np.array([[0.0], [1.0]]), steps=4)
    assert rep.ranks == (1, 2, 2, 2)
    assert rep.reachable


def test_discrete_stalled_growth_not_reachable():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = discrete_reachability(A, np.array([[1.0], [0.0]]), steps=3)
    assert rep.ranks == (1, 1, 1)
    assert not rep.reachable


def test_discrete_matches_continuous_rank_at_n_steps():
    gen = rng(109)
    for _ in range(10):
        A = gen.normal(size=(3, 3))
        B = gen.normal(size=(3, 2))
        rep = discrete_reachability(A, B, steps=3)
        assert rep.ranks[-1] == numkit.rank(controllability_matrix(A, B))


# ---------------------------------------------------------------------------
# building-block matrices


def test_matrix_builders_shapes():
    gen = rng(113)
    A = gen.normal(size=(3, 3))
    B = gen.normal(size=(3, 2))
    C = gen.normal(size=(2, 3))
    assert controllability_matrix(A, B).shape == (3, 6)
    assert observability_matrix(A, C).shape == (6, 3)
