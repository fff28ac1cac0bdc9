"""Stability verdicts: eigenvalue tests, quadratic certificates, subspaces, BIBO."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import BackendFailure, SingularLyapunovOperator
from .model import Equilibrium, NonlinearModel, linearize_at_equilibrium

ASYMPTOTICALLY_STABLE = "asymptoticallyStable"
STABLE_ISL = "stableISL"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str
    eigenvalues: np.ndarray
    witnesses: tuple = ()
    multiplicity_deficits: tuple = ()


def lti_stability(A, tol: float = None) -> StabilityVerdict:
    """Eigenvalue trichotomy with a relative dead band around the axis.

    Axis eigenvalues must carry a full set of eigenvectors; a deficit is
    reported as a witness alongside any right-half-plane eigenvalue.
    """
    A = numkit.require_square(A)
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.linalg.norm(A, 2) if A.size else 0.0))
    eig = numkit.eigen(A)
    lam = eig.values
    witnesses = [complex(z) for z in lam if z.real > tol]
    deficits = []
    # multiplicities cost one rank test per distinct eigenvalue, so they are
    # read only when some eigenvalue sits in the axis band
    on_axis = np.abs(eig.distinct_values.real) <= tol
    if np.any(on_axis):
        for z, am, gm in zip(eig.distinct_values[on_axis],
                             eig.algebraic_multiplicity[on_axis],
                             eig.geometric_multiplicity[on_axis]):
            if gm < am:
                deficits.append((complex(z), am - gm))
    if witnesses:
        kind = UNSTABLE
    elif deficits:
        kind = UNSTABLE
    elif np.all(lam.real < -tol):
        kind = ASYMPTOTICALLY_STABLE
    else:
        kind = STABLE_ISL
    return StabilityVerdict(
        kind=kind,
        eigenvalues=lam,
        witnesses=tuple(witnesses),
        multiplicity_deficits=tuple(deficits),
    )


# ---------------------------------------------------------------------------
# Lyapunov equation


@dataclass(frozen=True)
class LyapunovCertificate:
    P: np.ndarray
    Q: np.ndarray
    residual: float
    pd_verdict: str


def solve_lyapunov(A, Q) -> np.ndarray:
    """Solve A'P + PA = -Q by the Bartels-Stewart method.

    Solvable exactly when no two eigenvalues of A are negatives of each
    other; such a pair raises SingularLyapunovOperator. Schur reduction
    keeps the cost O(n^3), so there is no size limit. The steps are those
    of scipy.linalg.solve_continuous_lyapunov(A.T, -Q), so P has its bits:
    the real Schur form A' = U T U', F = U'(-Q)U, the triangular Sylvester
    solve T'Y + YT = F by LAPACK dtrsyl, and P = U Y U'.
    """
    A = numkit.require_square(A)
    Q = numkit.require_square(Q)
    n = A.shape[0]
    if Q.shape[0] != n:
        raise ValueError("Q must match A in size")
    if n == 0:
        return np.empty((0, 0))
    T, U, _, lam = _real_schur(A.T)
    scale = 1.0 + float(np.max(np.abs(lam), initial=0.0))
    # pairs (i, j) with i <= j in Schur order, so the first hit is reported
    sums = np.abs(lam[:, None] + lam[None, :])
    hits = np.argwhere(np.triu(sums <= 1e-9 * scale))
    if hits.size:
        i, j = hits[0]
        raise SingularLyapunovOperator(
            f"eigenvalue pair sums to zero: {lam[i]:.6g}, {lam[j]:.6g}"
        )
    F = U.T.dot((-Q).dot(U))
    Y, factor, info = numkit.lapack().dtrsyl(T, T, F, tranb="T")
    if info < 0:
        raise ValueError(f"dtrsyl: illegal value in argument {-info}")
    if info == 1:
        # dtrsyl perturbed T to solve, which the pair test's band did not
        # foresee; scipy warns the same way
        warnings.warn("A has an eigenvalue pair whose sum is very close to or "
                      "exactly zero; the solution is obtained by perturbing "
                      "the coefficients", RuntimeWarning, stacklevel=2)
    Y *= factor
    P = U.dot(Y).dot(U.T)
    return 0.5 * (P + P.T)


def _real_schur(a, select=None):
    """Real Schur form a = Z T Z' by LAPACK dgees: (T, Z, sdim, eigenvalues).

    Called as scipy.linalg.schur(a, output="real", sort=select) calls it,
    a workspace query and then the factorization, so T and Z have its bits.
    select(re, im) moves the eigenvalues it accepts to the leading sdim
    places; without it nothing is reordered and sdim is 0. The eigenvalues
    are read off T, in its order.
    """
    gees = numkit.lapack().dgees
    lwork = int(gees(lambda x: None, a, lwork=-1)[-2][0])
    T, sdim, wr, wi, Z, _, info = gees(
        select or (lambda x: None), a, lwork=lwork, sort_t=int(bool(select)))
    if info < 0:
        raise ValueError(f"dgees: illegal value in argument {-info}")
    if info > 0:
        n = a.shape[0]
        reason = {n + 1: "eigenvalues could not be separated for reordering",
                  n + 2: "leading eigenvalues do not satisfy the sort condition"}
        raise BackendFailure(
            "real Schur form failed: "
            + reason.get(info, "QR iteration did not converge"))
    return T, Z, sdim, wr + 1j * wi


def lyapunov_stability_test(A, Q=None) -> tuple:
    """Quadratic certificate with unit forcing, checked against the spectrum.

    Returns (verdict, certificate). A disagreement between the certificate
    and the eigenvalue trichotomy is a hard internal failure, not a report.
    """
    A = numkit.require_square(A)
    n = A.shape[0]
    Q = np.eye(n) if Q is None else numkit.require_square(Q)
    P = solve_lyapunov(A, Q)
    residual = float(np.linalg.norm(A.T @ P + P @ A + Q))
    report = numkit.is_positive_definite(P)
    cert = LyapunovCertificate(P=P, Q=Q, residual=residual, pd_verdict=report.verdict)
    verdict = lti_stability(A)
    agrees = (report.verdict == "PD") == (verdict.kind == ASYMPTOTICALLY_STABLE)
    if not agrees:
        raise RuntimeError(
            "internal error: quadratic certificate contradicts the eigenvalue test"
        )
    return verdict, cert


# ---------------------------------------------------------------------------
# invariant subspaces


@dataclass(frozen=True)
class StabilitySubspaces:
    stable: np.ndarray
    center: np.ndarray
    unstable: np.ndarray


def stability_subspaces(A, tol: float = None) -> StabilitySubspaces:
    """Orthonormal real bases of the stable, center, and unstable subspaces.

    Each basis is the leading Schur vectors of a real Schur form ordered so
    that the eigenvalues of that part come first: real part below -tol,
    within tol, and above tol. Repeated and defective eigenvalues split like
    any other, a Jordan block contributing its generalized eigenvectors.
    """
    A = numkit.require_square(A)
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.linalg.norm(A, 2) if A.size else 0.0))

    def leading(part):
        if not A.size:
            return np.empty((0, 0))
        Z, dim = _real_schur(A, part)[1:3]
        return Z[:, :dim]

    return StabilitySubspaces(
        stable=leading(lambda re, im: re < -tol),
        center=leading(lambda re, im: abs(re) <= tol),
        unstable=leading(lambda re, im: re > tol),
    )


# ---------------------------------------------------------------------------
# quadratic certification on a sublevel set


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class ScanReport:
    certified: bool
    level: float
    samples: int
    worst_decay: float
    failing_point: np.ndarray | None = None


def quadratic_lyapunov_scan(
    f,
    P,
    level: float,
    samples: int = 10_000,
    margin: float = 1e-9,
) -> ScanReport:
    """Deterministic sampling check that V = x'Px decreases on {V <= level}.

    Points fill the sublevel ellipsoid through a low-discrepancy sequence
    (radius from the first coordinate, direction from inverse-normal
    transformed remaining coordinates). Certification requires the decay
    rate 2 x'P f(x) to clear -margin * |x|^2 at every sample.
    """
    # deferred: no command calls this
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    P = numkit.require_square(P)
    n = P.shape[0]
    if numkit.is_positive_definite(P).verdict != "PD":
        raise ValueError("P must be positive definite")
    if n + 1 > len(_PRIMES):
        raise ValueError("state dimension too large for the sampling bases")
    w, V = np.linalg.eigh(0.5 * (P + P.T))
    P_inv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    worst = -np.inf
    failing = None
    certified = True
    for k in range(1, samples + 1):
        u = numkit.radical_inverse(k, _PRIMES[0])
        radius = u ** (1.0 / n)
        g = np.array([inv_cdf(numkit.radical_inverse(k, _PRIMES[1 + d]))
                      for d in range(n)])
        norm = np.linalg.norm(g)
        if norm == 0.0:
            continue
        x = np.sqrt(level) * (P_inv_half @ (radius * g / norm))
        r2 = float(x @ x)
        if r2 == 0.0:
            continue
        decay = 2.0 * float(x @ (P @ np.asarray(f(x), dtype=float).reshape(n)))
        ratio = decay / r2
        worst = max(worst, ratio)
        if decay >= -margin * r2:
            certified = False
            if failing is None:
                failing = x.copy()
    return ScanReport(
        certified=certified,
        level=float(level),
        samples=samples,
        worst_decay=float(worst),
        failing_point=failing if not certified else None,
    )


# ---------------------------------------------------------------------------
# nonlinear verdict by first-order approximation


ASYMP_STABLE = "asympStable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LinearizationVerdict:
    kind: str
    eigenvalues: np.ndarray
    linear_model: object


def linearization_verdict(model: NonlinearModel, eq: Equilibrium,
                          tol: float = None) -> LinearizationVerdict:
    """Classify an equilibrium by the eigenvalues of the first-order model.

    Axis eigenvalues leave the nonlinear question open, so the verdict is
    inconclusive rather than forced.
    """
    lin = linearize_at_equilibrium(model, eq)
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.linalg.norm(lin.A, 2) if lin.A.size else 0.0))
    lam = numkit.eigen(lin.A).values
    if np.any(lam.real > tol):
        kind = UNSTABLE
    elif np.all(lam.real < -tol):
        kind = ASYMP_STABLE
    else:
        kind = INCONCLUSIVE
    return LinearizationVerdict(kind=kind, eigenvalues=lam, linear_model=lin)


# ---------------------------------------------------------------------------
# bounded-input bounded-output


@dataclass(frozen=True)
class BiboReport:
    bibo_stable: bool
    poles: np.ndarray
    cancelled_roots: tuple
    unstable_cancellation: bool


def bibo_stability(P, tol: float = 1e-9) -> BiboReport:
    """Pole test over every entry, after cancellation, with hidden-mode flags."""
    from .realization import RationalFunction, TransferMatrix

    if isinstance(P, RationalFunction):
        entries = [P]
    elif isinstance(P, TransferMatrix):
        entries = [P.entry(i, j) for i in range(P.p) for j in range(P.m)]
    else:
        raise TypeError("expected a rational function or transfer matrix")
    poles = []
    cancelled = []
    for e in entries:
        poles.extend(e.poles())
        cancelled.extend(e.cancelled_roots)
    poles = np.asarray(poles, dtype=complex)
    stable = bool(np.all(poles.real < -tol)) if poles.size else True
    bad_cancel = any(np.real(c) >= -tol for c in cancelled)
    return BiboReport(
        bibo_stable=stable,
        poles=poles,
        cancelled_roots=tuple(cancelled),
        unstable_cancellation=bad_cancel,
    )
