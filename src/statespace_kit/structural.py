"""Controllability and observability: ranks, grammians, decompositions, zeros."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import numkit
from .errors import (
    DegeneratePencil,
    IllConditioned,
    NonSquarePlant,
    RepeatedEigenvalues,
    SingularFundamental,
    SingularGrammian,
)
from .model import LtvModel, StateSpace

# response and stability are imported inside the functions that call them,
# so the rank, modal and zero tests load neither


def controllability_matrix(A, B) -> np.ndarray:
    A = numkit.require_square(A)
    B = numkit.as_matrix(B)
    n = A.shape[0]
    if B.shape[1] == 0:
        return np.zeros((n, 0))
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def observability_matrix(A, C) -> np.ndarray:
    """[C; CA; ...; CA^(n-1)], the controllability matrix of (A', C') transposed."""
    return controllability_matrix(numkit.require_square(A).T,
                                  numkit.as_matrix(C).T).T


@dataclass(frozen=True)
class Staircase:
    """Orthogonal controllability staircase of a pair (A, B).

    Z is orthogonal and A_bar = Z' A Z. The leading rank columns of Z span
    the controllable subspace; blocks are the sizes of the staircase steps,
    and their running sums are the ranks of [B, AB, ..., A^(k-1) B]. The
    trailing (n - rank) block of A_bar carries the uncontrollable modes.
    """

    rank: int
    Z: np.ndarray
    blocks: tuple
    A_bar: np.ndarray


def staircase(A, B, tol: float = None) -> Staircase:
    """Controllability staircase (Van Dooren 1981; Paige 1981).

    Each step compresses the current input block with one SVD, rotates the
    remaining coordinates by its left factor and recurses on the block
    below the step. A singular value counts when it exceeds tol; by default
    1e-10 ||B||_1 on the first step and 1e-10 ||A||_1 after it, so the
    verdict does not change when A or B is scaled or rotated.
    """
    A = numkit.require_square(A).astype(float)
    B = numkit.as_matrix(B)
    n = A.shape[0]
    Z = np.eye(n)
    blocks = []
    r = 0
    step = B
    if tol is None:
        cut = 1e-10 * float(np.abs(B).sum(axis=0).max(initial=0.0))
        later = 1e-10 * float(np.abs(A).sum(axis=0).max(initial=0.0))
    else:
        cut = later = tol
    while r < n and step.size:
        U, s, _ = np.linalg.svd(step)
        k = int(np.count_nonzero(s > cut))
        if k == 0:
            break
        Z[:, r:] = Z[:, r:] @ U
        A[r:, :] = U.T @ A[r:, :]
        A[:, r:] = A[:, r:] @ U
        blocks.append(k)
        step = A[r + k:, r:r + k]
        r += k
        cut = later
    return Staircase(rank=r, Z=Z, blocks=tuple(blocks), A_bar=A)


@dataclass(frozen=True)
class StructuralReport:
    ctrb_rank: int
    obsv_rank: int
    uncontrollable_modes: tuple
    unobservable_modes: tuple
    stabilizable: bool
    detectable: bool
    controllable_subspace_basis: np.ndarray
    unobservable_subspace_basis: np.ndarray


def structural_analysis(sys: StateSpace, tol: float = None) -> StructuralReport:
    """Ranks, subspaces and hidden modes from the staircases of (A, B) and (A', C').

    The uncontrollable modes are the eigenvalues of the trailing block of
    the controllability staircase, and dually for observability; the
    verdict flags require every such mode to sit strictly in the left half
    plane. tol is the staircase cutoff (see staircase).
    """
    A, B, C = sys.A, sys.B, sys.C
    ctrb = staircase(A, B, tol)
    obsv = staircase(A.T, C.T, tol)
    unc = _hidden_modes(ctrb)
    unob = _hidden_modes(obsv)
    rho = float(np.max(np.abs(numkit.eigen(A).values))) if unc or unob else 0.0
    band = 1e-9 * (1.0 + rho)
    stabilizable = all(z.real < -band for z in unc)
    detectable = all(z.real < -band for z in unob)
    return StructuralReport(
        ctrb_rank=ctrb.rank,
        obsv_rank=obsv.rank,
        uncontrollable_modes=unc,
        unobservable_modes=unob,
        stabilizable=stabilizable,
        detectable=detectable,
        controllable_subspace_basis=ctrb.Z[:, :ctrb.rank],
        unobservable_subspace_basis=obsv.Z[:, obsv.rank:],
    )


def _hidden_modes(stair: Staircase) -> tuple:
    tail = stair.A_bar[stair.rank:, stair.rank:]
    return tuple(complex(z) for z in numkit.eigen(tail).distinct_values) if tail.size else ()


# ---------------------------------------------------------------------------
# grammians


@dataclass(frozen=True)
class GrammianReport:
    matrix: np.ndarray
    kind: str
    horizon: tuple
    conditioning: float
    min_eig: float
    max_eig: float


def _grammian_report(W, kind, horizon):
    W = 0.5 * (W + W.T)
    vals = np.linalg.eigvalsh(W) if W.size else np.zeros(0)
    mx = float(vals[-1]) if vals.size else 0.0
    mn = float(vals[0]) if vals.size else 0.0
    cond = mx / mn if mn > 0 else np.inf
    return GrammianReport(matrix=W, kind=kind, horizon=horizon,
                          conditioning=cond, min_eig=mn, max_eig=mx)


def controllability_grammian(model, t0: float, tf: float) -> GrammianReport:
    """Energy grammian of the input-to-state map on [t0, tf].

    Constant coefficients are exact: the integral of e^{-A s} B B' e^{-A' s}
    over [0, tf - t0] by numkit.expm_gramian. tf = inf solves the Lyapunov
    equation (stability.solve_lyapunov) and requires every mode strictly
    stable. A time-varying model needs a finite horizon (_ltv_grammian).
    """
    return _grammian(model, t0, tf, "controllability")


def observability_grammian(model, t0: float, t1: float) -> GrammianReport:
    """Output-energy grammian on [t0, t1]: the controllability grammian of
    the dual data (-A', C'), so the constant-coefficient integrand is
    e^{A' s} C'C e^{A s}.
    """
    return _grammian(model, t0, t1, "observability")


def _grammian(model, t0, tf, kind):
    dual = kind == "observability"
    if isinstance(model, LtvModel):
        return _ltv_grammian(model.A, model.C if dual else model.B, t0, tf,
                             model.piecewise_continuity_breaks, kind)[1]
    if not isinstance(model, StateSpace):
        raise TypeError("expected a constant or time-varying linear model")
    A, G = model.A, (model.C.T if dual else model.B)
    if np.isinf(tf):
        from .stability import ASYMPTOTICALLY_STABLE, lti_stability, solve_lyapunov

        if lti_stability(A).kind != ASYMPTOTICALLY_STABLE:
            raise ValueError("infinite-horizon grammian needs a strictly stable A")
        W = solve_lyapunov(A if dual else A.T, G @ G.T)
    elif float(tf) <= float(t0):
        raise ValueError("need tf > t0")
    else:
        W = numkit.expm_gramian(A.T if dual else -A, G @ G.T, float(tf) - float(t0))
    return _grammian_report(W, kind, (float(t0), float(tf)))


def _ltv_grammian(A, G, t0, tf, breaks, kind):
    """(X(tf), GrammianReport of W(tf)) from one march (response.march_samples)
    of X' = -X F, W' = (X H)(X H)' from [X; W] = [I; 0] at t0, in steps of
    response._default_max_step split at the breaks. (F, H) = (A, G) for kind
    "controllability" gives X = phi(t0, t); the dual data (-A', G') for
    "observability" give X = phi(t, t0)'. A march that leaves the finite
    range raises SingularFundamental."""
    from .response import _default_max_step, march_samples

    t0, tf = float(t0), float(tf)
    if not t0 < tf < np.inf:
        raise ValueError("need a finite tf > t0: an infinite-horizon grammian "
                         "needs a constant-coefficient model")
    dual = kind == "observability"
    n = numkit.as_matrix(A(t0)).shape[0]

    def rate(z, c):
        F, H = (-c[0].T, c[1].T) if dual else c
        X = z[:n * n].reshape(n, n)
        XH = X.dot(H)
        return np.concatenate([-X.dot(F).ravel(), XH.dot(XH.T).ravel()])

    def block(ts):
        Fs, Hs = A(ts), G(ts)
        finite = np.isfinite(Fs).all() and np.isfinite(Hs).all()
        return list(zip(Fs, Hs)) if finite else None

    z = march_samples(rate, lambda t: (numkit.as_matrix(A(t)), numkit.as_matrix(G(t))),
                      np.eye(2 * n, n).ravel(), np.array([t0, tf]),
                      _default_max_step(A, t0, tf), breaks,
                      block if numkit.vectorized(A, G) else None)
    if len(z) < 2:
        raise SingularFundamental("the transition march left the finite range")
    X, W = z[1].reshape(2, n, n)
    return X, _grammian_report(W, kind, (t0, tf))


def grammians(model, t0: float, tf: float) -> tuple:
    """The controllability grammian on [t0, tf] and, when the model has an
    output, the observability grammian: one march each for a time-varying
    model."""
    reports = (controllability_grammian(model, t0, tf),)
    if model.p:
        reports += (observability_grammian(model, t0, tf),)
    return reports


# ---------------------------------------------------------------------------
# modal test


@dataclass(frozen=True)
class ModalControllabilityReport:
    eigenvalues: np.ndarray
    row_norms: np.ndarray
    controllable_flags: tuple


def modal_controllability_test(sys: StateSpace, tol: float = None
                               ) -> ModalControllabilityReport:
    """Zero-row test on the input matrix expressed in the eigenvector basis."""
    eig = numkit.eigen(sys.A)
    if len(eig.distinct_values) != sys.n:
        raise RepeatedEigenvalues("modal test requires simple eigenvalues")
    M = eig.right_vectors
    Bbar = np.linalg.solve(M, sys.B.astype(complex))
    norms = np.array([float(np.linalg.norm(Bbar[i])) for i in range(sys.n)])
    if tol is None:
        tol = 1e-8 * (1.0 + float(norms.max(initial=0.0)))
    flags = tuple(bool(nm > tol) for nm in norms)
    return ModalControllabilityReport(
        eigenvalues=eig.values, row_norms=norms,
        controllable_flags=flags,
    )


# ---------------------------------------------------------------------------
# Kalman canonical forms


@dataclass(frozen=True)
class KalmanDecomposition:
    kind: str
    transform: np.ndarray  # P with xbar = P x
    A_bar: np.ndarray
    B_bar: np.ndarray
    C_bar: np.ndarray
    n1: int

    @property
    def leading_block(self) -> np.ndarray:
        return self.A_bar[: self.n1, : self.n1]

    @property
    def trailing_block(self) -> np.ndarray:
        return self.A_bar[self.n1:, self.n1:]


def _pivoted_completion(columns, n, tol=1e-9):
    """Greedy selection of raw columns, then raw standard-basis fill-in.

    Orthogonal projections decide independence; the selected vectors are
    kept unmodified so structured entries survive into the transform.
    """
    chosen_raw = []
    chosen_orth = []

    def try_add(v):
        w = v.astype(float).copy()
        for q in chosen_orth:
            w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm > tol * np.linalg.norm(v):
            chosen_raw.append(v.astype(float))
            chosen_orth.append(w / norm)
            return True
        return False

    for v in columns:
        if len(chosen_raw) == n:
            break
        try_add(v)
    picked = len(chosen_raw)
    for i in range(n):
        if len(chosen_raw) == n:
            break
        try_add(np.eye(n)[:, i])
    return np.column_stack(chosen_raw), picked


def kalman_decompose(sys: StateSpace, kind: str = "KCCF") -> KalmanDecomposition:
    """Block-triangular form separating the reachable (or observable) part.

    The reachable dimension comes from the staircase. The inverse transform
    stacks independent reachability columns first and
    completes them with standard basis directions; the dual form reuses the
    same construction on the transposed data.
    """
    if kind == "KOCF":
        dual = StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T)
        d = kalman_decompose(dual, "KCCF")
        P = np.linalg.solve(d.transform, np.eye(sys.n)).T
        Pinv = np.linalg.solve(P, np.eye(sys.n))
        return KalmanDecomposition(
            kind="KOCF",
            transform=P,
            A_bar=P @ sys.A @ Pinv,
            B_bar=P @ sys.B,
            C_bar=sys.C @ Pinv,
            n1=d.n1,
        )
    if kind != "KCCF":
        raise ValueError("kind must be KCCF or KOCF")
    n = sys.n
    r = staircase(sys.A, sys.B).rank
    if r == n:
        return KalmanDecomposition(
            kind="KCCF", transform=np.eye(n), A_bar=sys.A.copy(),
            B_bar=sys.B.copy(), C_bar=sys.C.copy(), n1=n,
        )
    Ct = controllability_matrix(sys.A, sys.B)
    Pinv, picked = _pivoted_completion(Ct.T, n)
    if picked != r:
        raise IllConditioned(
            f"the reachability columns give {picked} independent directions "
            f"where the staircase finds {r}")
    P = np.linalg.solve(Pinv, np.eye(n))
    return KalmanDecomposition(
        kind="KCCF",
        transform=P,
        A_bar=P @ sys.A @ Pinv,
        B_bar=P @ sys.B,
        C_bar=sys.C @ Pinv,
        n1=r,
    )


# ---------------------------------------------------------------------------
# transmission zeros


@dataclass(frozen=True)
class ZeroSet:
    transmission_zeros: np.ndarray


def transmission_zeros(sys: StateSpace, tol: float = 1e-8) -> ZeroSet:
    """Finite zeros of the system pencil [[A - zI, B], [C, D]] of a square plant.

    The pencil is reduced as Emami-Naeini & Van Dooren (Automatica 18(4),
    1982) do, with orthogonal SVD compressions and no QZ step. Each pass
    rotates the outputs so that the rows of D beyond its rank vanish; the
    output rows C2 that are left without feedthrough then pin rank(C2)
    state directions to zero, and the pass removes them, which deflates one
    layer of infinite zeros. A pass keeps p = m, since any other outcome
    leaves vanishing rows; so when D reaches full row rank it is square and
    regular, the dual pass of the general method has nothing left to do,
    and the zeros are the eigenvalues of A_f - B_f D_f^{-1} C_f. A regular
    D needs no pass: the zeros are those of A - B D^{-1} C.

    Exact power-of-two input and output scalings first bring B and C to the
    scale of A, and no further when that would lift D above it. Every rank
    decision then counts a singular value when it exceeds tol times the
    1-norm of the scaled [[A, B], [C, D]], so the zeros scale with A and do
    not change under input and output scaling. Output rows with no
    feedthrough and no state rank to pin vanish from the pencil, which then
    loses rank at every z: DegeneratePencil. At each zero the scaled
    pencil's smallest singular value must also be at most 1e-6 times its
    largest. Zeros are sorted by (real, imag).
    """
    if sys.p != sys.m:
        raise NonSquarePlant(f"plant is {sys.p}x{sys.m}; zeros need p = m")
    A, B, C, D = _balanced_io(sys)
    S = np.block([[A, B], [C, D]])
    cut = tol * float(np.abs(S).sum(axis=0).max(initial=0.0))
    while True:
        U, s, Vt = np.linalg.svd(D)
        r = int(np.count_nonzero(s > cut))
        if r == D.shape[0]:
            break
        C = U.T @ C
        _, sc, Wt = np.linalg.svd(C[r:])
        rho = int(np.count_nonzero(sc > cut))
        if rho < D.shape[0] - r:
            raise DegeneratePencil(
                "system pencil is identically singular: "
                f"{D.shape[0] - r - rho} of its rows vanish")
        W = Wt[::-1].T  # the last rho state directions are the pinned ones
        k = A.shape[0] - rho
        A = W.T @ A @ W
        B = W.T @ B
        C = np.vstack([A[k:, :k], (C[:r] @ W)[:, :k]])
        D = np.vstack([B[k:], s[:r, None] * Vt[:r]])
        A, B = A[:k, :k], B[:k]
    zeros = (np.linalg.eigvals(A - B @ np.linalg.solve(D, C)) if A.size
             else np.zeros(0, dtype=complex))
    N = np.zeros_like(S)
    N[:sys.n, :sys.n] = np.eye(sys.n)
    sv = np.linalg.svd(S - zeros[:, None, None] * N, compute_uv=False)
    checked = sorted(map(complex, zeros[sv[:, -1] <= 1e-6 * sv[:, 0]]),
                     key=lambda c: (c.real, c.imag))
    return ZeroSet(transmission_zeros=np.asarray(checked, dtype=complex))


def _balanced_io(sys: StateSpace):
    """(A, B 2^i, 2^o C, 2^(i+o) D): B and C at the 1-norm of A, in powers
    of two, with both exponents lowered by halves when D would exceed it."""
    e = [int(np.frexp(np.abs(X).sum(axis=0).max(initial=0.0))[1])
         for X in (sys.A, sys.B, sys.C, sys.D)]
    i, o = e[0] - e[1], e[0] - e[2]
    excess = e[3] + i + o - e[0] if sys.D.any() else 0
    if excess > 0:
        i -= excess // 2
        o -= excess - excess // 2
    return (sys.A.astype(float), np.ldexp(sys.B, i), np.ldexp(sys.C, o),
            np.ldexp(sys.D, i + o))


# ---------------------------------------------------------------------------
# minimum-energy steering


def minimum_energy_steer(model, x0, xf, t0: float, tf: float,
                         samples: int = 201):
    """Open-loop control reaching xf at tf with least input energy.

    The control is u(t) = -B(t)' phi(t0, t)' eta, eta = W^{-1} (x0 -
    phi(t0, tf) xf): x and the costate lambda = phi(t0, t)' eta follow the
    flow of [[A, -B B'], [0, -A']] from [x0; eta], the state-costate matrix
    numkit.hamiltonian with Q = 0 and R = I, and u = -B' lambda. The
    flow is exact for constant coefficients. A time-varying model marches
    W and phi(t0, tf) (_ltv_grammian), then the flow (simulate), so the
    final state checks that march; its u(t) marches the transition on the
    first call. Returns (u, trajectory), with the GrammianReport of W as
    u.grammian.
    """
    from .response import (Trajectory, fundamental_matrix_ltv, lti_trajectory,
                           simulate, stm_series)

    x0 = numkit.as_vector(x0).astype(float)
    xf = numkit.as_vector(xf).astype(float)
    if isinstance(model, LtvModel):
        Xf, rep = _ltv_grammian(model.A, model.B, t0, tf,
                                model.piecewise_continuity_breaks, "controllability")
        phi, B_of = cache(lambda: fundamental_matrix_ltv(model, t0, tf)), model.B
    else:
        rep = controllability_grammian(model, t0, tf)
        phi, B_of = cache(lambda: stm_series(model.A)), (lambda t: model.B)
    W = rep.matrix
    if rep.min_eig <= 1e-9 * max(rep.max_eig, 1e-300):
        raise SingularGrammian("grammian is numerically singular on this horizon")
    if isinstance(model, StateSpace):
        Xf = numkit.expm(model.A, t0 - tf)
    eta = np.linalg.solve(W, x0 - Xf @ xf)

    def u(t, _eta=eta):
        return -(numkit.as_matrix(B_of(t)).T @ phi()(t0, t).T @ _eta)

    u.grammian = rep
    times = np.linspace(t0, tf, samples)
    if isinstance(model, StateSpace):
        A, B, n = model.A, model.B, model.n
        flow = numkit.hamiltonian(A, B, np.zeros((n, n)), np.eye(model.m))[0]
        z = numkit.expm_flow(flow, np.concatenate([x0, eta]), times)
        if len(z) < times.size:
            raise SingularFundamental("the state-costate flow left the finite range")
        return u, lti_trajectory(model, times, z[:, :n], -(z[:, n:] @ B))
    z = simulate(_costate_flow(model), np.concatenate([x0, eta]), times)
    if z.truncated:
        raise SingularFundamental("the state-costate march left the finite range")
    m = model.m
    return u, Trajectory(times, z.states[:, :model.n], z.outputs[:, :m],
                         z.outputs[:, m:])


def _costate_flow(model: LtvModel) -> LtvModel:
    """The unforced model z' = [[A, -B B'], [0, -A']] z of z = [x; lambda], with
    outputs [u; y] = [[0, -B'], [C, -D B']] z, vectorized where the model is."""
    n, m, p = model.n, model.m, model.p

    def A(t):
        a, b = numkit.as_matrix(model.A(t)), numkit.as_matrix(model.B(t))
        return numkit.hamiltonian(a, b, np.zeros_like(a), np.eye(m))[0]

    def C(t):
        b, c, d = (numkit.as_matrix(f(t)) for f in (model.B, model.C, model.D))
        bt = -b.swapaxes(-1, -2)
        return np.block([[np.zeros(b.shape[:-2] + (m, n)), bt], [c, d @ bt]])

    A.vectorized = numkit.vectorized(model.A, model.B)
    C.vectorized = numkit.vectorized(model.B, model.C, model.D)
    flow = LtvModel(A, lambda t: np.zeros(np.shape(t) + (2 * n, 0)), C,
                    lambda t: np.zeros(np.shape(t) + (m + p, 0)), 2 * n, 0, m + p,
                    model.piecewise_continuity_breaks)
    flow.B.vectorized = flow.D.vectorized = True  # no input: empty stacks
    return flow


# ---------------------------------------------------------------------------
# discrete-time reachability


@dataclass(frozen=True)
class DiscreteReachabilityReport:
    ranks: tuple
    reachable: bool


def discrete_reachability(A, B, steps: int) -> DiscreteReachabilityReport:
    """Rank growth of [B AB ... A^(k-1)B] for k = 1..steps.

    The ranks are the running sums of the staircase block sizes.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    stair = staircase(A, B)
    ranks = tuple(sum(stair.blocks[:k]) for k in range(1, steps + 1))
    return DiscreteReachabilityReport(ranks=ranks,
                                      reachable=(ranks[-1] == stair.Z.shape[0]))
