import numpy as np
import pytest

from conftest import rng, siso_system, sorted_complex
from statespace_kit import numkit
from statespace_kit.errors import (
    ImproperTransferFunction,
    RankAmbiguous,
    RepeatedPoles,
    RepeatedPoleUnsupported,
)
from statespace_kit.realization import (
    TransferMatrix,
    ccf,
    minimality,
    mimo_minimal_realization,
    modal_form,
    ocf,
    rational,
    residue_expansion,
    ss_to_tf,
)


def tf_values_match(g, h, tol=1e-8):
    for s in 0.7 + 1j * np.linspace(0.2, 4.0, 10):
        if abs(g(s) - h(s)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# rational function normal form


def test_rational_monic_normalization():
    g = rational([2.0, 10.0], [2.0, 6.0, 4.0])
    np.testing.assert_allclose(g.den.real, [1.0, 3.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(g.num.real, [1.0, 5.0], atol=1e-12)


def test_rational_cancellation_flagged():
    # (s+2)(s+1) / (s+1)(s+3): the shared root is divided out and recorded
    g = rational(np.convolve([1, 2], [1, 1]), np.convolve([1, 1], [1, 3]))
    assert g.cancelled
    assert len(g.cancelled_roots) == 1
    assert complex(g.cancelled_roots[0]) == pytest.approx(-1.0, abs=1e-9)
    assert g.degree() == 1


def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rational([1.0], [0.0])


def test_rational_evaluation():
    g = rational([1.0, 4.0], [1.0, 6.0, 11.0, 6.0])
    s = 2.0
    assert g(s) == pytest.approx((s + 4) / ((s + 1) * (s + 2) * (s + 3)))


# ---------------------------------------------------------------------------
# controllable canonical form


def test_ccf_structure_third_order():
    g = rational([1.0, 4.0], np.poly([-1.0, -2.0, -3.0]))
    sys = ccf(g)
    np.testing.assert_allclose(sys.A[:2], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                               atol=1e-14)
    np.testing.assert_allclose(sys.A[2], [-6.0, -11.0, -6.0], atol=1e-12)
    np.testing.assert_allclose(sys.B.ravel(), [0.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(sys.C.ravel(), [4.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(sys.D, 0.0, atol=1e-14)


def test_ccf_integrator():
    sys = ccf(rational([1.0], [1.0, 0.0]))
    np.testing.assert_allclose(sys.A, [[0.0]])
    np.testing.assert_allclose(sys.B, [[1.0]])
    np.testing.assert_allclose(sys.C, [[1.0]])


def test_ccf_biproper_extracts_feedthrough():
    # (2s + 3)/(s + 1) = 2 + 1/(s+1)
    sys = ccf(rational([2.0, 3.0], [1.0, 1.0]))
    assert sys.D[0, 0] == pytest.approx(2.0)
    g = ss_to_tf(sys).single()
    assert g(1.0j) == pytest.approx((2j + 3) / (1j + 1), abs=1e-10)


def test_ccf_rejects_improper():
    with pytest.raises(ImproperTransferFunction):
        ccf(rational([1.0, 0.0, 0.0], [1.0, 1.0]))


def test_ccf_always_controllable():
    gen = rng(31)
    for _ in range(10):
        n = int(gen.integers(2, 6))
        den = np.poly(-gen.uniform(0.5, 4.0, size=n))
        num = gen.normal(size=n)  # strictly proper
        sys = ccf(rational(num, den))
        cols = [sys.B]
        for _ in range(n - 1):
            cols.append(sys.A @ cols[-1])
        assert numkit.rank(np.hstack(cols)) == n


# ---------------------------------------------------------------------------
# observable canonical form


def test_ocf_structure_third_order():
    a2, a1, a0 = 6.0, 11.0, 6.0
    g = rational([1.0, 4.0], [1.0, a2, a1, a0])
    sys = ocf(g)
    np.testing.assert_allclose(sys.A, [[-a2, 1.0, 0.0],
                                       [-a1, 0.0, 1.0],
                                       [-a0, 0.0, 0.0]], atol=1e-12)
    # numerator s + 4 padded to (b2, b1, b0) = (0, 1, 4)
    np.testing.assert_allclose(sys.B.ravel(), [0.0, 1.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(sys.C.ravel(), [1.0, 0.0, 0.0], atol=1e-14)


def test_ocf_integrator_matches_ccf():
    g = rational([1.0], [1.0, 0.0])
    a, b = ccf(g), ocf(g)
    np.testing.assert_allclose(a.A, b.A)
    np.testing.assert_allclose(a.B, b.B)
    np.testing.assert_allclose(a.C, b.C)


def test_ocf_is_exchange_dual_of_ccf():
    gen = rng(33)
    for _ in range(8):
        n = int(gen.integers(2, 6))
        den = np.poly(-gen.uniform(0.5, 4.0, size=n))
        num = gen.normal(size=n)
        g = rational(num, den)
        c, o = ccf(g), ocf(g)
        J = np.fliplr(np.eye(n))
        np.testing.assert_allclose(J @ c.A.T @ J, o.A, atol=1e-10)
        np.testing.assert_allclose(J @ c.C.T, o.B, atol=1e-10)
        np.testing.assert_allclose(c.B.T @ J, o.C, atol=1e-10)


def test_ocf_always_observable():
    gen = rng(35)
    for _ in range(10):
        n = int(gen.integers(2, 6))
        den = np.poly(-gen.uniform(0.5, 4.0, size=n))
        sys = ocf(rational(gen.normal(size=n), den))
        rows = [sys.C]
        for _ in range(n - 1):
            rows.append(rows[-1] @ sys.A)
        assert numkit.rank(np.vstack(rows)) == n


# ---------------------------------------------------------------------------
# modal form


def test_modal_real_poles_diagonal():
    g = rational([1.0], [1.0, 1.0])
    sys = modal_form(g)
    np.testing.assert_allclose(sys.A, [[-1.0]])
    np.testing.assert_allclose(sys.B, [[1.0]])
    np.testing.assert_allclose(sys.C, [[1.0]])


def test_modal_complex_pair_block():
    sys = modal_form(rational([1.0, 6.0], [1.0, 2.0, 2.0]))
    np.testing.assert_allclose(sys.A, [[-1.0, 1.0], [-1.0, -1.0]], atol=1e-10)
    np.testing.assert_allclose(sys.C.ravel(), [1.0, 1.0], atol=1e-10)
    g = ss_to_tf(sys).single()
    ref = rational([1.0, 6.0], [1.0, 2.0, 2.0])
    assert tf_values_match(g, ref)


def test_modal_partial_fraction_is_diagonal_with_unit_output_row():
    g = rational([3.0, 5.0], np.poly([-1.0, -4.0]))
    sys = modal_form(g)
    assert np.allclose(sys.A, np.diag(np.diag(sys.A)))
    np.testing.assert_allclose(np.sort(np.diag(sys.A)), [-4.0, -1.0], atol=1e-9)
    np.testing.assert_allclose(sys.C.ravel(), [1.0, 1.0], atol=1e-12)
    # residues live in B
    exp = residue_expansion(g)
    np.testing.assert_allclose(np.sort(sys.B.ravel()),
                               np.sort(exp.residues.real.ravel()), atol=1e-9)


def test_modal_rejects_repeated_poles():
    with pytest.raises(RepeatedPoles):
        modal_form(rational([1.0], [1.0, 2.0, 1.0]))


# ---------------------------------------------------------------------------
# state space to transfer function


def test_ss_to_tf_scalar():
    g = ss_to_tf(siso_system([[-1.0]], [1.0], [1.0])).single()
    np.testing.assert_allclose(g.num.real, [1.0], atol=1e-12)
    np.testing.assert_allclose(g.den.real, [1.0, 1.0], atol=1e-12)


def test_ss_to_tf_round_trip_property():
    gen = rng(37)
    for _ in range(20):
        n = int(gen.integers(1, 5))
        den = np.poly(-gen.uniform(0.5, 4.0, size=n))
        num = gen.normal(size=n)
        g = rational(num, den)
        back = ss_to_tf(ccf(g)).single()
        np.testing.assert_allclose(back.den.real, g.den.real, atol=1e-8)
        # align lengths before comparing numerators
        nb = np.zeros(n + 1)
        nb[n + 1 - back.num.size:] = back.num.real
        ng = np.zeros(n + 1)
        ng[n + 1 - g.num.size:] = g.num.real
        np.testing.assert_allclose(nb, ng, atol=1e-8)


def test_ss_to_tf_pendubot_poles_and_zeros():
    A = np.array([[0.0, 1.0, 0.0, 0.0],
                  [51.9243, 0.0, -13.9700, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [-52.8376, 0.0, 68.4187, 0.0]])
    B = np.array([[0.0], [15.9549], [0.0], [-29.3596]])
    C = np.array([[1.0, 0.0, 0.0, 0.0]])
    g = ss_to_tf(siso_system(A, B, C)).single()
    assert g.num[0].real == pytest.approx(15.9549, abs=1e-2)
    np.testing.assert_allclose(np.sort(g.zeros().real), [-6.5354, 6.5354],
                               atol=1e-3)
    np.testing.assert_allclose(np.sort(np.abs(g.poles().real)),
                               [5.6372, 5.6372, 9.4109, 9.4109], atol=1e-3)


# ---------------------------------------------------------------------------
# MIMO minimal realization


def mimo_example():
    g11 = rational([1.0], [1.0, 1.0])
    g12 = rational([2.0], [1.0, 1.0])
    g21 = rational([-1.0], np.poly([-1.0, -2.0]))
    g22 = rational([1.0], [1.0, 2.0])
    return TransferMatrix(((g11, g12), (g21, g22)))


def test_mimo_minimal_degree_three():
    P = mimo_example()
    sys = mimo_minimal_realization(P)
    assert sys.n == 3
    np.testing.assert_allclose(sorted_complex(np.linalg.eigvals(sys.A)).real,
                               [-2.0, -1.0, -1.0], atol=1e-8)


def test_mimo_minimal_transfer_equivalence():
    P = mimo_example()
    sys = mimo_minimal_realization(P)
    G = ss_to_tf(sys)
    for s in 0.5 + 1j * np.linspace(0.1, 3.0, 10):
        np.testing.assert_allclose(G(s), P(s), atol=1e-8)


def test_mimo_expands_each_entry_once(monkeypatch):
    import statespace_kit.realization as realization_module

    calls = []
    real = realization_module.residue_expansion

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(realization_module, "residue_expansion", counted)
    P = mimo_example()
    mimo_minimal_realization(P)
    assert len(calls) == P.p * P.m


def test_mimo_scalar_reduces_to_modal():
    g = rational([3.0, 5.0], np.poly([-1.0, -4.0]))
    sys = mimo_minimal_realization(TransferMatrix(((g,),)))
    assert sys.n == 2
    back = ss_to_tf(sys).single()
    assert tf_values_match(back, g)


def test_mimo_repeated_pole_rejected():
    g = rational([1.0], [1.0, 2.0, 1.0])
    with pytest.raises(RepeatedPoleUnsupported):
        mimo_minimal_realization(TransferMatrix(((g,),)))


def test_mimo_rank_ambiguous_residue():
    # second singular value sits inside the ambiguity band around the rank cut
    g11 = rational([1.0], [1.0, 1.0])
    g12 = rational([0.0], [1.0])
    g21 = rational([0.0], [1.0])
    g22 = rational([3e-8], [1.0, 1.0])
    P = TransferMatrix(((g11, g12), (g21, g22)))
    with pytest.raises(RankAmbiguous):
        mimo_minimal_realization(P, rank_rtol=1e-8)


# ---------------------------------------------------------------------------
# residue expansion


def test_residue_expansion_values():
    g = rational([1.0, 4.0], np.poly([-1.0, -2.0, -3.0]))
    exp = residue_expansion(g)
    order = np.argsort(exp.poles.real)
    np.testing.assert_allclose(exp.poles[order].real, [-3.0, -2.0, -1.0],
                               atol=1e-9)
    # k_i = (p_i + 4) / prod(p_i - p_j)
    np.testing.assert_allclose(exp.residues[order].real.ravel(),
                               [0.5, -2.0, 1.5], atol=1e-9)


# ---------------------------------------------------------------------------
# minimality report


def test_hidden_mode_detected():
    # second-order realization of a plant with an exact pole-zero overlap
    sys = siso_system([[0.0, 1.0], [-5.0, -6.0]], [0.0, 1.0], [1.0, 1.0])
    rep = minimality(sys)
    assert not rep.is_minimal
    assert rep.minimal_degree == 1
    assert rep.degree_deficit == 1


def test_minimal_degree_counts_modes_both_reached_and_seen():
    # mode -2 is reached but unseen, mode -3 seen but unreached
    sys = siso_system(np.diag([-1.0, -2.0, -3.0]), [1.0, 1.0, 0.0],
                      [1.0, 0.0, 1.0])
    rep = minimality(sys)
    assert (rep.controllability_rank, rep.observability_rank) == (2, 2)
    assert rep.minimal_degree == 1


def test_coprime_ccf_is_minimal():
    sys = ccf(rational([1.0, 4.0], np.poly([-1.0, -2.0, -3.0])))
    rep = minimality(sys)
    assert rep.is_minimal
    assert rep.controllability_rank == 3
    assert rep.observability_rank == 3
    assert rep.degree_deficit == 0
