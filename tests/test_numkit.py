import numpy as np
import pytest

from conftest import golden_phi_2m3, random_stable_diagonalizable, rng
from statespace_kit import numkit
from statespace_kit.errors import (
    IllConditioned,
    NonSquare,
    NotSymmetric,
    SingularBasis,
    WorkBudgetExceeded,
)


# ---------------------------------------------------------------------------
# eigen


def test_eigen_two_by_two_spectrum_and_vectors():
    A = np.array([[0.0, 1.0], [8.0, -2.0]])
    eig = numkit.eigen(A)
    vals = sorted(eig.values.real)
    assert vals == pytest.approx([-4.0, 2.0], abs=1e-12)
    # eigenvectors up to scale: (1,-4) for -4 and (1,2) for 2
    for lam, direction in [(-4.0, np.array([1.0, -4.0])),
                           (2.0, np.array([1.0, 2.0]))]:
        i = int(np.argmin(np.abs(eig.values - lam)))
        v = eig.right_vectors[:, i]
        v = v / v[0]
        np.testing.assert_allclose(v.real, direction, atol=1e-10)


def test_eigen_identity_multiplicities():
    eig = numkit.eigen(np.eye(3))
    assert list(eig.values.real) == [1.0, 1.0, 1.0]
    assert eig.geometric_multiplicity[0] == 3
    assert eig.is_diagonalizable


def test_eigen_defective_case():
    A = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.0, 2.0]])
    eig = numkit.eigen(A)
    i = int(np.argmin(np.abs(eig.distinct_values - 1.0)))
    assert eig.algebraic_multiplicity[i] == 2
    assert eig.geometric_multiplicity[i] == 1
    assert not eig.is_diagonalizable


def test_eigen_multiplicities_wait_for_first_read(linalg_calls):
    eig = numkit.eigen(np.diag(np.arange(60.0)))
    assert linalg_calls == {"svd": 0, "eig": 1}
    assert list(eig.geometric_multiplicity) == [1] * 60
    assert linalg_calls["svd"] == 60
    assert eig.is_diagonalizable
    assert linalg_calls["svd"] == 60


def test_eigen_similar_scalar_matrix_is_diagonalizable():
    # A is -2I up to rounding, so A + 2I is all rounding and has no rank
    T = np.array([[3.0, 1.0, 0.0], [2.0, 3.0, -1.0], [1.0, 0.0, 4.0]])
    eig = numkit.eigen(T @ (-2.0 * np.eye(3)) @ np.linalg.inv(T))
    assert list(eig.algebraic_multiplicity) == [3]
    assert list(eig.geometric_multiplicity) == [3]


def test_eigen_rejects_rectangular():
    with pytest.raises(NonSquare):
        numkit.eigen(np.zeros((2, 3)))


def test_eigen_det_trace_consistency():
    gen = rng(11)
    for _ in range(6):
        A = gen.normal(size=(4, 4))
        eig = numkit.eigen(A)
        assert np.prod(eig.values) == pytest.approx(np.linalg.det(A), rel=1e-8)
        assert np.sum(eig.values).real == pytest.approx(np.trace(A), rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert numkit.rank(np.array([[1.0, -2.0], [1.0, -2.0]])) == 1
    assert numkit.rank(np.eye(4)) == 4
    M = np.array([[1.0, 3.0, 2.0, 1.0],
                  [2.0, 0.0, 1.0, -1.0],
                  [-1.0, 1.0, 0.0, 1.0]])
    assert numkit.rank(M) == 2
    assert numkit.rank(np.zeros((3, 3))) == 0


# ---------------------------------------------------------------------------
# root matching


def test_match_roots_takes_the_nearest_not_the_first_in_band():
    # both candidates lie in the band of -1; the second is the nearer
    assert numkit.match_roots([-1.0], [-2.0, -1.0 + 1e-12], 2.0) == [1]


def test_match_roots_leaves_taken_candidates_to_later_targets():
    assert numkit.match_roots([1.0, 1.1], [1.05, 2.0], 1.0) == [0, 1]
    # the second target's nearest is taken and the other is out of band
    assert numkit.match_roots([1.0, 1.1], [1.05, 2.0], 0.5) == [0, None]


def test_match_roots_band_per_target():
    targets = [1e-8, 1.0, 1e8 + 1j]
    candidates = [1e8 + 1j + 1.0, 1.0 + 1e-9, 2e-8]
    assert numkit.match_roots(targets, candidates,
                              [1e-7, 1e-6, 10.0]) == [2, 1, 0]
    # the first band is too narrow: its nearest candidate stays free
    assert numkit.match_roots(targets, candidates,
                              [1e-9, 1e-6, 10.0]) == [None, 1, 0]


def test_match_roots_none_and_empty_inputs():
    assert numkit.match_roots([1j, -1j], [1j], np.inf) == [0, None]
    assert numkit.match_roots([], [1.0, 2.0], 1.0) == []
    assert numkit.match_roots([1.0, 2.0], [], 1.0) == [None, None]
    assert numkit.match_roots(np.array([]), np.array([]), []) == []


def test_match_roots_ties_go_to_the_lower_index():
    assert numkit.match_roots([0.0], [1.0, -1.0, 1j], 1.0) == [0]


def test_group_roots_joins_the_nearest_first_root_not_the_first_in_band():
    # 1.4 lies in the bands of both first roots; 2.0 is the nearer
    assert numkit.group_roots([0.5, 2.0, 1.4], 1.0) == [[0], [1, 2]]
    # the nearest first root decides, even when its band is too narrow
    assert numkit.group_roots([0.5, 2.0, 1.4], [1.0, 0.1, 0.0]) == [
        [0], [1], [2]]


def test_group_roots_measures_from_the_first_root_of_a_group():
    # 1.8 is within 1 of the member 1.0 but not of the first root 0.0
    assert numkit.group_roots([0.0, 1.0, 1.8], 1.0) == [[0, 1], [2]]


def test_group_roots_band_per_root():
    roots = [1e-8, 1.0, 1e8 + 1j, 1.0 + 1e-9, 2e-8, 1e8 + 1j + 1.0]
    assert numkit.group_roots(roots, [1e-7, 1e-6, 10.0, 0.0, 0.0, 0.0]) == [
        [0, 4], [1, 3], [2, 5]]
    # a band belongs to the first root of its group
    assert numkit.group_roots(roots, [1e-9, 1e-6, 0.5, 1.0, 1.0, 1.0]) == [
        [0], [1, 3], [2], [4], [5]]


def test_group_roots_ties_go_to_the_earlier_group():
    assert numkit.group_roots([1.0, -1.0, 0.0], 1.0) == [[0, 2], [1]]
    assert numkit.group_roots([1j, -1j, 0.0], [1.0, 1.0, 0.0]) == [[0, 2], [1]]


def test_group_roots_empty_input():
    assert numkit.group_roots([], 1.0) == []
    assert numkit.group_roots(np.array([]), []) == []


# ---------------------------------------------------------------------------
# definiteness


def test_positive_definite_with_minors():
    M = np.array([[1.25, 0.25], [0.25, 0.375]])
    rep = numkit.is_positive_definite(M)
    assert rep.verdict == "PD"
    np.testing.assert_allclose(rep.leading_minors,
                               [1.25, 1.25 * 0.375 - 0.0625], rtol=1e-12)
    assert np.all(rep.leading_minors > 0)


def test_zero_matrix_is_psd():
    assert numkit.is_positive_definite(np.zeros((2, 2))).verdict == "PSD"


def test_indefinite_matrix():
    assert numkit.is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]])).verdict == "indefinite"


def test_definiteness_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        numkit.is_positive_definite(np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_pd_agrees_with_quadratic_form_sampling():
    gen = rng(7)
    for k in range(8):
        n = int(gen.integers(2, 7))
        F = gen.normal(size=(n, n))
        M = F @ F.T + (0.1 if k % 2 == 0 else -0.5) * np.eye(n)
        M = 0.5 * (M + M.T)
        rep = numkit.is_positive_definite(M)
        xs = gen.normal(size=(1000, n))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        vals = np.einsum("ij,jk,ik->i", xs, M, xs)
        if rep.verdict == "PD":
            assert np.all(vals > 0)
        elif rep.verdict == "indefinite":
            assert np.min(np.linalg.eigvalsh(M)) < 0


# ---------------------------------------------------------------------------
# expm


def test_expm_nilpotent():
    np.testing.assert_allclose(numkit.expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),
                               [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)


def test_expm_closed_form_two_modes():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    for t in (0.3, 1.0, 2.5):
        e1, e2 = np.exp(-t), np.exp(-2 * t)
        expected = np.array([[2 * e1 - e2, e1 - e2],
                             [-2 * e1 + 2 * e2, -e1 + 2 * e2]])
        np.testing.assert_allclose(numkit.expm(A, t), expected, atol=1e-12)


def test_expm_rotation_half_turn():
    A = np.array([[0.0, np.pi], [-np.pi, 0.0]])
    np.testing.assert_allclose(numkit.expm(A, 1.0), -np.eye(2), atol=1e-12)


def test_expm_flow_one_exponential_per_spacing(expm_calls):
    M = np.array([[0.0, 1.0], [-2.0, -3.0]])
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 1.2])
    z = numkit.expm_flow(M, [1.0, 0.0], times)
    assert len(expm_calls) == 2
    expected = [golden_phi_2m3(t)[:, 0] for t in times]
    np.testing.assert_allclose(z, expected, atol=1e-13)


def test_expm_flow_stops_at_overflow():
    z = numkit.expm_flow(np.array([[1.0]]), [1.0], [0.0, 1.0, 2.0, 900.0, 901.0])
    np.testing.assert_allclose(z[:, 0], np.exp([0.0, 1.0, 2.0]), rtol=1e-13)


def test_expm_flow_keeps_the_rows_a_step_by_step_loop_keeps():
    # the state overflows mid-march although the one exponential is finite
    M = np.array([[0.5, 1.0], [0.0, 0.7]])
    times = np.arange(0.0, 2000.0, 2.0)
    E = numkit.expm(M, 2.0)
    for z0 in ([1.0, -2.0], [1e300, 1e300], [1e308, 1e308]):
        rows = [np.array(z0)]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in times[1:]:
                z = E @ rows[-1]
                if not np.isfinite(z).all():
                    break
                rows.append(z)
        z = numkit.expm_flow(M, z0, times)
        assert 1 <= z.shape[0] < times.size
        assert np.array_equal(z, np.array(rows))
    # a first step that overflows keeps row 0 alone
    assert numkit.expm_flow(M, [1e308, 1e308], times).shape == (1, 2)


def reference_expm(A, t):
    # the scaled-and-squared series written with @ and np.linalg.norm
    n = A.shape[0]
    X = A * float(t)
    norm = float(np.linalg.norm(X, ord=np.inf))
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        X = X / (2.0**squarings)
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, 60):
        term = term @ X / k
        total = total + term
        if float(np.linalg.norm(term, ord=np.inf)) <= np.finfo(float).eps * float(
            np.linalg.norm(total, ord=np.inf)
        ):
            break
    for _ in range(squarings):
        total = total @ total
    return total, squarings


def reference_expm_flow(M, z0, times):
    # one exponential per 12-digit step, each state by E @ z
    rows, by_key = [np.asarray(z0, dtype=float)], {}
    for dt in np.diff(times).tolist():
        key = float(f"{dt:.11e}")
        if key not in by_key:
            by_key[key] = reference_expm(M, dt)[0]
        rows.append(by_key[key] @ rows[-1])
    return np.array(rows)


@pytest.mark.parametrize("n", range(1, 31))
def test_expm_and_its_flow_match_the_reference_loops_bitwise(n):
    gen = rng(300 + n)
    A = gen.standard_normal((n, n)) / np.sqrt(n) - 0.5 * np.eye(n)
    small = 0.4 / float(np.abs(A).sum(axis=1).max())
    counts = set()
    for t in (small, -small / 3, 0.9, 7.0, -2.5):
        ref, squarings = reference_expm(A, t)
        counts.add(squarings > 0)
        assert np.array_equal(numkit.expm(A, t), ref)
    assert counts == {False, True}
    # repeated spacings in the last bits, and a few distinct ones
    times = np.cumsum(np.concatenate([[0.0], gen.choice([0.1, 0.25, 1.5], 40)]))
    z0 = gen.standard_normal(n)
    assert np.array_equal(numkit.expm_flow(A, z0, times),
                          reference_expm_flow(A, z0, times))


def test_expm_flow_counts_its_exponentials_before_the_first(monkeypatch):
    def never(*args):
        raise AssertionError("an exponential ran")

    real = numkit.expm
    # five distinct floats, three 12-digit steps: 0.1, 0.15 and 0.05
    times = [0.0, 0.1, 0.2, 0.35, 0.5, 0.55, 0.6]
    assert len(set(np.diff(times).tolist())) == 5
    for M, budget in ((np.array([[0.0, 1.0], [-2.0, -3.0]]), 3),
                      (-np.eye(64), 3 * 8)):  # 64 rows count 8 times each
        z0 = np.ones(M.shape[0])
        monkeypatch.setattr(numkit, "expm", never)
        monkeypatch.setattr(numkit, "EXPM_FLOW_BUDGET", budget - 1)
        with pytest.raises(WorkBudgetExceeded, match="needs 3 matrix exponentials"):
            numkit.expm_flow(M, z0, times)
        monkeypatch.setattr(numkit, "expm", real)
        monkeypatch.setattr(numkit, "EXPM_FLOW_BUDGET", budget)
        assert numkit.expm_flow(M, z0, times).shape == (7, M.shape[0])
    # even grids of any length count a few steps
    monkeypatch.setattr(numkit, "EXPM_FLOW_BUDGET", 10)
    for times in (np.linspace(0.0, 7.3, 99_999), np.linspace(0.0, 1e3, 100_001)):
        assert numkit.expm_flow(-np.eye(1), [1.0], times).shape == (times.size, 1)


def test_expm_semigroup_and_inverse():
    gen = rng(3)
    for _ in range(5):
        A = random_stable_diagonalizable(gen, 3)
        t, s = gen.uniform(0, 5, size=2)
        lhs = numkit.expm(A, t) @ numkit.expm(A, s)
        target = numkit.expm(A, t + s)
        assert np.linalg.norm(lhs - target) <= 1e-8 * np.linalg.norm(target)
        assert np.linalg.norm(
            numkit.expm(A, t) @ numkit.expm(A, -t) - np.eye(3)) <= 1e-8


# ---------------------------------------------------------------------------
# sampled matrices


def reference_interp(ts, stack, t):
    t = float(np.clip(t, ts[0], ts[-1]))
    i = int(np.searchsorted(ts, t, side="right") - 1)
    i = min(max(i, 0), ts.size - 2)
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * stack[i] + w * stack[i + 1]


def test_sample_interpolant_matches_searchsorted_formula_bitwise():
    gen = np.random.default_rng(3)
    ts = np.array([0.0, 0.1, 0.35, 0.35000000000000003, 1.0, 2.5, 4.0])
    stack = gen.normal(size=(ts.size, 3, 2))
    at = numkit.sample_interpolant(ts, stack)
    between = (ts[:-1] + ts[1:]) / 2
    inside = gen.uniform(ts[0], ts[-1], size=50)
    breaks = [0.35, 0.7, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    points = [*ts, *between, *inside, *breaks, -1.0, ts[0] - 1e-12, 4.5,
              np.inf, -np.inf, 2, np.float64(2.5)]
    for t in points:
        assert np.array_equal(at(t), reference_interp(ts, stack, t)), t
    # the array form: one vectorized pass, the same bits per point
    values = at(np.array(points, dtype=float))
    assert values.shape == (len(points), 3, 2)
    for t, value in zip(points, values):
        assert np.array_equal(value, reference_interp(ts, stack, t)), t


# ---------------------------------------------------------------------------
# bases


def test_representation_examples():
    E = np.array([[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(numkit.representation(E, [2.0, 5.0]), [2.0, 3.0],
                               atol=1e-12)
    x = np.array([0.3, -1.2, 4.0])
    np.testing.assert_allclose(numkit.representation(np.eye(3), x), x, atol=1e-14)
    E3 = np.array([[1.0, 2.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
    np.testing.assert_allclose(numkit.representation(E3, [3.0, 2.0, 1.0]),
                               [2.0, 1.0, -1.0], atol=1e-12)


def test_representation_round_trip():
    gen = rng(5)
    E = gen.normal(size=(4, 4))
    x = gen.normal(size=4)
    np.testing.assert_allclose(E @ numkit.representation(E, x), x, atol=1e-10)


def test_representation_singular_basis():
    with pytest.raises(SingularBasis):
        numkit.representation(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 0.0])


def test_basis_grammian_and_reciprocal():
    G, R = numkit.basis_grammian_and_reciprocal(np.eye(2))
    np.testing.assert_allclose(G, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(R, np.eye(2), atol=1e-14)

    V = np.array([[1.0, 0.0], [1.0, 1.0]])  # columns (1,1) and (0,1)
    G, R = numkit.basis_grammian_and_reciprocal(V)
    np.testing.assert_allclose(G, [[2.0, 1.0], [1.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(R, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(R @ V, np.eye(2), atol=1e-12)


def test_grammian_orthonormal_columns():
    gen = rng(9)
    Q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
    G, _ = numkit.basis_grammian_and_reciprocal(Q)
    np.testing.assert_allclose(G, np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# jordan-like form


def test_jordan_like_mixed_blocks():
    A = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.0, 2.0]])
    jf = numkit.jordan_like(A)
    spec = sorted((complex(lam).real, size) for lam, size in jf.block_spec)
    assert spec == [(1.0, 2), (2.0, 1)]
    T = jf.transform
    np.testing.assert_allclose(T @ jf.form @ np.linalg.inv(T), A, atol=1e-6)


def test_jordan_like_diagonal_input():
    jf = numkit.jordan_like(np.diag([3.0, -1.0]))
    assert sorted(size for _, size in jf.block_spec) == [1, 1]
    np.testing.assert_allclose(np.sort(np.diag(jf.form).real), [-1.0, 3.0],
                               atol=1e-9)


def test_jordan_like_nilpotent_block():
    jf = numkit.jordan_like(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert len(jf.block_spec) == 1
    lam, size = jf.block_spec[0]
    assert abs(complex(lam)) <= 1e-9
    assert size == 2


JORDAN_STRUCTURES = [(2, 1), (2, 2), (2, 1, 1), (3, 1), (3, 3), (3, 2, 1),
                     (4, 2)]


def jordan_matrix(lam, sizes):
    n = sum(sizes)
    J = lam * np.eye(n)
    at = 0
    for size in sizes:
        J[at:at + size - 1, at + 1:at + size] += np.eye(size - 1)
        at += size
    return J


def block_sizes(jf):
    return sorted((size for _, size in jf.block_spec), reverse=True)


@pytest.mark.parametrize("lam", [0.0, 2.0])
@pytest.mark.parametrize("sizes", JORDAN_STRUCTURES, ids=str)
def test_jordan_like_finds_the_block_sizes(sizes, lam):
    J = jordan_matrix(lam, sizes)
    assert block_sizes(numkit.jordan_like(J)) == list(sizes)
    gen = rng(29)
    n = J.shape[0]
    for _ in range(4):
        T = gen.integers(-2, 3, size=(n, n)) + 3.0 * np.eye(n)
        if abs(np.linalg.det(T)) < 0.5:  # an integer matrix: singular
            continue
        A = T @ J @ np.linalg.inv(T)
        if max(sizes) <= 2:
            assert block_sizes(numkit.jordan_like(A)) == list(sizes)
            continue
        # a block of 3 or more splits its computed eigenvalues by about
        # eps^(1/3) ||A||, beyond the clustering band: the blocks are found
        # or the form is refused, never anything else
        try:
            jf = numkit.jordan_like(A)
        except IllConditioned:
            continue
        assert block_sizes(jf) == list(sizes)


# ---------------------------------------------------------------------------
# polynomials


def test_char_poly_matches_roots():
    gen = rng(13)
    A = gen.normal(size=(4, 4))
    p = numkit.char_poly(A)
    assert p[0] == pytest.approx(1.0)
    np.testing.assert_allclose(np.sort_complex(np.roots(p)),
                               np.sort_complex(np.linalg.eigvals(A)), atol=1e-8)


def test_char_poly_and_adjugate_resolvent_identity():
    # (sI - A)^-1 = N(s) / det(sI - A) with N from the same recursion
    A = np.array([[0.0, 1.0], [8.0, -2.0]])
    p, N = numkit.char_poly_and_adjugate(A)
    s = 1.7
    lhs = np.linalg.inv(s * np.eye(2) - A)
    num = sum(N[k] * s ** (len(N) - 1 - k) for k in range(len(N)))
    np.testing.assert_allclose(lhs, num / np.polyval(p, s), atol=1e-10)


def test_poly_divmod_matches_polydiv_bits_on_monic_divisors():
    gen = rng(409)
    for _ in range(1000):
        den = np.concatenate([[1.0], gen.normal(size=gen.integers(0, 8))])
        num = gen.normal(size=gen.integers(1, 12)) * 10.0 ** gen.integers(-6, 7)
        q, r = numkit.poly_divmod(num, den)
        q_np, r_np = np.polydiv(num, den)
        r_np = numkit.poly_trim(r_np)
        assert q.tobytes() == q_np.tobytes()
        # np.polydiv also drops true leading remainder coefficients up to 1e-8
        extra = r.size - r_np.size
        assert r[extra:].tobytes() == r_np.tobytes()
        assert np.all((r[:extra] != 0.0) & (np.abs(r[:extra]) <= 1e-8))


def test_poly_divmod_keeps_small_remainder_coefficients():
    # np.polydiv drops the 1e-9 s term as if it were rounding residue
    q, r = numkit.poly_divmod([1e-9, 5e-9], [1.0, 3.0, 2.0])
    assert q.tolist() == [0.0]
    assert r.tolist() == [1e-9, 5e-9]
    assert np.polydiv([1e-9, 5e-9], [1.0, 3.0, 2.0])[1].tolist() == [5e-9]
    q, r = numkit.poly_divmod([1.0, 2.0, 1e-9, 5e-9], [1.0, 0.0, 0.0])
    assert q.tolist() == [1.0, 2.0] and r.tolist() == [1e-9, 5e-9]
    # a constant divisor leaves the zero remainder
    q, r = numkit.poly_divmod([4.0, 2.0], [2.0])
    assert q.tolist() == [2.0, 1.0] and r.tolist() == [0.0]


def test_poly_helpers():
    assert numkit.poly_degree(numkit.poly_trim([0.0, 0.0, 0.0])) < 0 or \
        numkit.poly_trim([0.0, 0.0]).tolist() == [0.0]
    q, r = numkit.poly_divmod([1.0, 3.0, 2.0], [1.0, 1.0])
    np.testing.assert_allclose(q, [1.0, 2.0])
    assert numkit.poly_degree(numkit.poly_trim(r)) < 0
    np.testing.assert_allclose(numkit.poly_from_roots([-1.0, -2.0]),
                               [1.0, 3.0, 2.0])
    # reflection s -> -s flips odd coefficients
    np.testing.assert_allclose(numkit.poly_reflect([1.0, 3.0, 2.0]),
                               [1.0, -3.0, 2.0])


def _np_roots_or_none(row):
    """np.roots of a row of degree 1 or more, else the empty root array."""
    if numkit.poly_degree(row) < 1:
        return np.array([], dtype=complex)
    return np.roots(row)


def test_stacked_poly_roots_match_np_roots_bit_for_bit():
    gen = rng(421)
    for trial in range(240):
        width = int(gen.integers(2, 42))  # degree 1 to 40
        rows = gen.normal(size=(int(gen.integers(1, 41)), width))
        if trial % 4 == 1:  # leading and trailing exact zeros, row by row
            for row in rows:
                row[:gen.integers(0, width)] = 0.0
                row[width - gen.integers(0, width):] = 0.0
        elif trial % 4 == 2:  # every root real
            rows = np.array([np.poly(gen.normal(size=width - 1)) for _ in rows])
        elif trial % 4 == 3:  # small integers: many exact zeros and ties
            rows = np.round(2.0 * rows)
        found = numkit.poly_roots(rows)
        assert isinstance(found, list) and len(found) == len(rows)
        for row, roots in zip(rows, found):
            ref = _np_roots_or_none(row)
            assert roots.dtype == ref.dtype and roots.tobytes() == ref.tobytes()
        # one polynomial is a stack of one
        single = numkit.poly_roots(rows[0])
        assert single.tobytes() == _np_roots_or_none(rows[0]).tobytes()
    assert numkit.poly_roots([[1.0, -3.0, 2.0]])[0].dtype == float
    assert numkit.poly_roots([0.0, 0.0, 4.0]).size == 0
    assert numkit.poly_roots([[1.0, 0.0, 0.0]])[0].tolist() == [0.0, 0.0]
    # a complex polynomial keeps complex roots; negligible imaginary parts
    # are dropped first, as poly_trim drops them
    assert numkit.poly_roots([1.0, 2j]).tolist() == [-2j]
    assert numkit.poly_roots([1.0 + 1e-15j, -2.0]).dtype == float
