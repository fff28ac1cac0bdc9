"""Feedback synthesis: placement, observers, integral action, compensators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (
    CommonFactor,
    ConjugacyViolation,
    IllConditioned,
    ImproperTransferFunction,
    ProjectionFailed,
    RankDeficientC,
    SingularSylvester,
    SubpairUnobservable,
    Uncontrollable,
    Unobservable,
    ZeroAtOrigin,
)
from .model import StateSpace
from .realization import RationalFunction, TransferMatrix, ss_to_tf

# structural is imported inside the functions that call it, so the
# polynomial design loads only realization


@dataclass(frozen=True)
class GainSet:
    K: np.ndarray | None
    L: np.ndarray | None
    achieved_state_poles: np.ndarray | None
    achieved_observer_poles: np.ndarray | None


def _check_conjugate_closed(poles, tol=1e-9):
    """Each non-real pole must match the conjugate of another one."""
    poles = [complex(p) for p in poles]
    nonreal = [p for p in poles if abs(p.imag) > tol * (1.0 + abs(p))]
    mates = numkit.match_roots(nonreal, [p.conjugate() for p in nonreal],
                               [tol * (1.0 + abs(p)) for p in nonreal])
    for p, mate in zip(nonreal, mates):
        if mate is None:
            raise ConjugacyViolation(f"pole {p} lacks its conjugate")
    return np.asarray(poles, dtype=complex)


def _siso_place(A, b, desired):
    """Companion-form coefficient matching for a single-input pair."""
    n = A.shape[0]
    a = numkit.char_poly(A)  # monic, highest first
    alpha = np.real(numkit.poly_from_roots(desired))
    # gain in companion coordinates, constant-term difference first
    kbar = (alpha[1:] - a[1:])[::-1].reshape(1, n)
    from .structural import controllability_matrix

    # realization.ccf's pair: the negated coefficients in the last row
    Abar = np.eye(n, k=1)
    Abar[-1:] = -a[:0:-1]
    Cbar = controllability_matrix(Abar, np.eye(n)[:, -1:])
    Cmat = controllability_matrix(A, b)
    P = Cbar @ np.linalg.solve(Cmat, np.eye(n))
    return kbar @ P


_PROJECTION_SEEDS = 32


def _projection_candidates(m):
    """Fixed direction list: axes first, then a deterministic low-discrepancy fill."""
    cands = [np.eye(m)[:, i] for i in range(m)]
    for k in range(1, _PROJECTION_SEEDS + 1):
        v = np.array([numkit.radical_inverse(k, base) - 0.5
                      for base in (2, 3, 5, 7, 11, 13)[:m]])
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            cands.append(v / norm)
    return cands


def place_poles(sys: StateSpace, desired_poles, verify_tol: float = 1e-6) -> GainSet:
    """State-feedback gain moving the closed-loop spectrum to desired_poles.

    Single-input pairs go through companion coordinates; several inputs are
    funneled through one deterministic input direction, which keeps the
    gain rank-one. Achieved eigenvalues are re-checked and a mismatch is an
    error rather than a warning.
    """
    from .structural import staircase

    n = sys.n
    desired = _check_conjugate_closed(desired_poles)
    if desired.size != n:
        raise ValueError(f"need exactly {n} poles, got {desired.size}")
    if staircase(sys.A, sys.B).rank < n:
        raise Uncontrollable("the input cannot move every mode")
    if sys.m == 1:
        K = _siso_place(sys.A, sys.B, desired)
    else:
        K = None
        for w in _projection_candidates(sys.m):
            bw = sys.B @ w.reshape(-1, 1)
            if staircase(sys.A, bw).rank < n:
                continue
            kp = _siso_place(sys.A, bw, desired)
            K = w.reshape(-1, 1) @ kp
            break
        if K is None:
            raise ProjectionFailed(
                "no direction in the fixed candidate list keeps the pair controllable"
            )
    achieved = numkit.eigen(sys.A - sys.B @ K).values
    bands = [verify_tol * (1.0 + abs(y)) for y in desired]
    matched = numkit.match_roots(desired, achieved, bands)
    if None in matched:
        i = matched.index(None)
        gap = np.abs(np.delete(achieved, matched[:i]) - desired[i]).min()
        raise IllConditioned(
            "achieved spectrum deviates from the request beyond tolerance: "
            f"requested pole {desired[i]:.6g} is {gap:.3e} from the nearest "
            f"unclaimed achieved eigenvalue, beyond band {bands[i]:.3e}"
        )
    return GainSet(K=np.real(K), L=None,
                   achieved_state_poles=achieved, achieved_observer_poles=None)


def observer_gain(sys: StateSpace, desired_poles, verify_tol: float = 1e-6) -> GainSet:
    """Output-injection gain via placement on the transposed pair."""
    from .structural import staircase

    n = sys.n
    if staircase(sys.A.T, sys.C.T).rank < n:
        raise Unobservable("the output cannot see every mode")
    dual = StateSpace(sys.A.T, sys.C.T, np.zeros((1, n)), np.zeros((1, sys.p)))
    L = place_poles(dual, desired_poles, verify_tol).K.T
    achieved = numkit.eigen(sys.A - L @ sys.C).values
    return GainSet(K=None, L=L,
                   achieved_state_poles=None, achieved_observer_poles=achieved)


@dataclass(frozen=True)
class ObserverFeedbackAssembly:
    closed_loop: StateSpace
    compensator: TransferMatrix
    state_poles: np.ndarray
    observer_poles: np.ndarray


def assemble_observer_feedback(sys: StateSpace, K, L) -> ObserverFeedbackAssembly:
    """Closed loop in (state, estimation-error) coordinates plus the compensator.

    The spectrum splits into the state-feedback poles and the observer
    poles; the compensator from measured output to control is strictly
    proper by construction.
    """
    K = numkit.as_matrix(K)
    L = numkit.as_matrix(L)
    n = sys.n
    if K.shape != (sys.m, n) or L.shape != (n, sys.p):
        raise ValueError("gain dimensions do not match the model")
    A_cl = np.block([
        [sys.A - sys.B @ K, sys.B @ K],
        [np.zeros((n, n)), sys.A - L @ sys.C],
    ])
    B_cl = np.vstack([sys.B, np.zeros((n, sys.m))])
    C_cl = np.hstack([sys.C, np.zeros((sys.p, n))])
    closed = StateSpace(A_cl, B_cl, C_cl, sys.D)
    comp = ss_to_tf(StateSpace(sys.A - sys.B @ K - L @ sys.C, L, K,
                               np.zeros((sys.m, sys.p))))
    return ObserverFeedbackAssembly(
        closed_loop=closed,
        compensator=comp,
        state_poles=numkit.eigen(sys.A - sys.B @ K).values,
        observer_poles=numkit.eigen(sys.A - L @ sys.C).values,
    )


@dataclass(frozen=True)
class ReducedOrderObserver:
    gain: np.ndarray  # (n-p) x p
    estimator: StateSpace  # inputs stacked [y; u], outputs xhat (n)
    output_transform: np.ndarray  # T with xbar = T x, top block C


def reduced_order_observer(sys: StateSpace, observer_poles) -> ReducedOrderObserver:
    """Estimator for the unmeasured state directions, derivative-free form.

    The internal state is z = xhat_2 - L y, which removes the measurement
    derivative from the update; outputs reconstruct the full state estimate
    in the original coordinates.
    """
    from .structural import _pivoted_completion, staircase

    n, p, m = sys.n, sys.p, sys.m
    Tt, picked = _pivoted_completion(sys.C, n)
    if p == 0 or picked != p:
        raise RankDeficientC("measurement matrix must have full row rank")
    T = Tt.T  # rows: C first, then completion
    Tinv = np.linalg.solve(T, np.eye(n))
    Abar = T @ sys.A @ Tinv
    Bbar = T @ sys.B if m else np.zeros((n, 0))
    A11, A12 = Abar[:p, :p], Abar[:p, p:]
    A21, A22 = Abar[p:, :p], Abar[p:, p:]
    B1, B2 = Bbar[:p, :], Bbar[p:, :]
    q = n - p
    if q == 0:
        est = StateSpace(np.zeros((0, 0)), np.zeros((0, p + m)),
                         np.zeros((n, 0)), np.hstack([Tinv, np.zeros((n, m))]))
        return ReducedOrderObserver(gain=np.zeros((0, p)), estimator=est,
                                    output_transform=T)
    if staircase(A22.T, A12.T).rank < q:
        raise SubpairUnobservable(
            "the unmeasured block is not observable through the measured one"
        )
    sub = StateSpace(A22, np.zeros((q, 1)), A12, np.zeros((p, 1)))
    g = observer_gain(sub, observer_poles)
    L = g.L
    A_est = A22 - L @ A12
    G_y = (A21 - L @ A11) + A_est @ L
    G_u = B2 - L @ B1
    B_est = np.hstack([G_y, G_u]) if m else G_y
    # xhat = Tinv [y; z + L y]
    stack_y = np.vstack([np.eye(p), L])
    stack_z = np.vstack([np.zeros((p, q)), np.eye(q)])
    C_est = Tinv @ stack_z
    D_est = np.hstack([Tinv @ stack_y, np.zeros((n, m))]) if m else Tinv @ stack_y
    est = StateSpace(A_est, B_est, C_est, D_est)
    return ReducedOrderObserver(gain=L, estimator=est, output_transform=T)


@dataclass(frozen=True)
class AugmentedSystem:
    A_tilde: np.ndarray
    B_tilde: np.ndarray
    integrator_dim: int


@dataclass(frozen=True)
class IntegralControlDesign:
    gains: tuple  # (K1, K2)
    augmented: AugmentedSystem
    rank_check: int
    achieved_poles: np.ndarray


def integral_control(sys: StateSpace, desired_poles) -> IntegralControlDesign:
    """Integrator augmentation for offset-free constant tracking.

    Fails when the plant carries a transmission zero at the origin, which
    is exactly when the augmented pair cannot be made controllable.
    """
    n, m, p = sys.n, sys.m, sys.p
    test = np.block([[-sys.A, sys.B], [-sys.C, np.zeros((p, m))]])
    rank = numkit.rank(test)
    if rank < n + p:
        raise ZeroAtOrigin(
            "augmented rank test failed: the plant blocks constant rejection"
        )
    A_t = np.block([[sys.A, np.zeros((n, p))], [sys.C, np.zeros((p, p))]])
    B_t = np.vstack([sys.B, np.zeros((p, m))])
    aug = StateSpace(A_t, B_t, np.eye(n + p), np.zeros((n + p, m)))
    g = place_poles(aug, desired_poles)
    return IntegralControlDesign(
        gains=(g.K[:, :n], g.K[:, n:]),
        augmented=AugmentedSystem(A_tilde=A_t, B_tilde=B_t, integrator_dim=p),
        rank_check=rank,
        achieved_poles=g.achieved_state_poles,
    )


# ---------------------------------------------------------------------------
# polynomial compensator design


@dataclass(frozen=True)
class DiophantineProblem:
    a: np.ndarray
    b: np.ndarray
    alpha_c: np.ndarray
    alpha_o: np.ndarray
    d: np.ndarray
    n_poly: np.ndarray
    compensator: RationalFunction
    residual: float


def _sylvester_stack(a, b, n):
    """Columns: a(s)*s^k then b(s)*s^k for k = n-1..0, length-2n coefficients."""
    rows = 2 * n
    S = np.zeros((rows, 2 * n))
    for k in range(n):
        shift = n - 1 - k
        col = np.zeros(rows)
        col[rows - (len(a) + shift):rows - shift] = a
        S[:, k] = col
        colb = np.zeros(rows)
        colb[rows - (len(b) + shift):rows - shift] = b
        S[:, n + k] = colb
    return S


def diophantine_design(plant: RationalFunction, alpha_c, alpha_o) -> DiophantineProblem:
    """Solve a(s)d(s) + b(s)n(s) = alpha_c(s)alpha_o(s) for the compensator n/d.

    d is monic of the plant degree and n is strictly lower degree, so the
    compensator is proper. A shared plant root makes the left side drop
    rank and is rejected up front.
    """
    if plant.cancelled:
        raise CommonFactor(
            "plant numerator and denominator share a root; the identity is unsolvable"
        )
    if plant.relative_degree() < 0:
        raise ImproperTransferFunction(
            "numerator degree exceeds denominator degree")
    a = np.real(np.asarray(plant.den, dtype=complex)).astype(float)
    b = np.real(np.asarray(plant.num, dtype=complex)).astype(float)
    n = numkit.poly_degree(a)
    if n < 1:
        raise ValueError("plant must have at least first-order dynamics")
    alpha_c = np.asarray(alpha_c, dtype=float)
    alpha_o = np.asarray(alpha_o, dtype=float)
    if numkit.poly_degree(alpha_c) != n or numkit.poly_degree(alpha_o) != n:
        raise ValueError("target polynomials must match the plant degree")
    if abs(alpha_c[0] - 1.0) > 1e-12 or abs(alpha_o[0] - 1.0) > 1e-12:
        raise ValueError("target polynomials must be monic")
    S = _sylvester_stack(a, b, n)
    svals = np.linalg.svd(S, compute_uv=False)
    if svals[-1] <= 1e-10 * svals[0]:
        raise CommonFactor("resultant vanishes: plant polynomials share a factor")
    target = np.convolve(alpha_c, alpha_o)
    rhs = numkit.poly_trim(np.polysub(target, np.convolve(a, _monomial(n))),
                           tol=1e-12)
    rhs_full = np.zeros(2 * n)
    rhs_full[2 * n - rhs.size:] = np.real(rhs)
    try:
        theta = np.linalg.solve(S, rhs_full)
    except np.linalg.LinAlgError as exc:
        raise SingularSylvester(str(exc)) from exc
    d = np.concatenate([[1.0], theta[:n]])
    n_poly = numkit.poly_trim(theta[n:])
    recon = np.polyadd(np.convolve(a, d), np.convolve(b, n_poly))
    diff = np.polysub(recon, target)
    residual = float(np.max(np.abs(diff)) / max(1.0, np.max(np.abs(target))))
    if residual > 1e-8:
        raise SingularSylvester(
            f"identity residual {residual:.3e} after solve; system too ill-conditioned"
        )
    return DiophantineProblem(
        a=a, b=b, alpha_c=alpha_c, alpha_o=alpha_o, d=d, n_poly=n_poly,
        compensator=RationalFunction(n_poly, d), residual=residual,
    )


def _monomial(k):
    out = np.zeros(k + 1)
    out[0] = 1.0
    return out
