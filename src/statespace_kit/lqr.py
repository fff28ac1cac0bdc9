"""Quadratic regulators: Riccati flows, the algebraic equation, loop margins."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import numkit
from .errors import (
    ArgumentError,
    AxisEigenvalue,
    FiniteEscape,
    IllConditioned,
    NotDetectable,
    NotStabilizable,
    RepeatedHamiltonianEigenvalues,
    StableSpaceDefect,
    WorkBudgetExceeded,
)
from .model import StateSpace
from .structural import structural_analysis

if TYPE_CHECKING:
    from .realization import RationalFunction


# steps x n^3 one backward Riccati sweep may take: its 16 n x n products
# cost 0.8-1 ns a step per unit of n^3 at n = 60 to 200 and 2.3 ns at
# n = 30, so a sweep at the budget runs about 2-5 s (timed in process on a
# 2-vCPU x86 host, one BLAS thread). Below about n = 20 the steps limit of
# _default_rde_steps and of the CLI binds first.
RDE_BUDGET = 2_000_000_000


@dataclass(frozen=True)
class LqrProblem:
    """Quadratic cost data over a horizon; terminal weight only when finite."""

    sys: object
    Q: np.ndarray
    R: np.ndarray
    M: np.ndarray | None = None
    t0: float = 0.0
    t1: float | None = None  # None marks the infinite horizon

    def __post_init__(self):
        Q = numkit.require_square(self.Q)
        R = numkit.require_square(self.R)
        if numkit.is_positive_definite(Q).verdict == "indefinite":
            raise ArgumentError("state weight must be positive semidefinite", "Q")
        if numkit.is_positive_definite(R).verdict != "PD":
            raise ArgumentError("input weight must be positive definite", "R")
        M = self.M
        if M is not None:
            M = numkit.require_square(M)
            if numkit.is_positive_definite(M).verdict == "indefinite":
                raise ArgumentError(
                    "terminal weight must be positive semidefinite", "M")
        if self.t1 is not None and self.t1 <= self.t0:
            raise ArgumentError("t1 must exceed t0", "t1")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "M", M)

    @property
    def infinite(self) -> bool:
        return self.t1 is None

    def state_cost_factor(self) -> np.ndarray:
        """Symmetric square-root factor C with C'C = Q."""
        w, V = np.linalg.eigh(0.5 * (self.Q + self.Q.T))
        w = np.clip(w, 0.0, None)
        return np.diag(np.sqrt(w)) @ V.T


@dataclass(frozen=True)
class RiccatiSolution:
    kind: str  # "finite" | "infinite"
    problem: LqrProblem
    times: np.ndarray | None
    P_grid: np.ndarray | None
    P_bar: np.ndarray | None
    K_bar: np.ndarray | None
    closed_loop_poles: np.ndarray | None
    warnings: tuple = ()

    @cached_property
    def _P_of_t(self):
        return numkit.sample_interpolant(self.times, self.P_grid)

    def P_at(self, t: float) -> np.ndarray:
        """P(t); on the finite horizon also the stack of P at a 1-D array
        of times, interpolated as numkit.sample_interpolant does."""
        if self.kind == "infinite":
            return self.P_bar
        return self._P_of_t(t)

    def K_at(self, t: float) -> np.ndarray:
        if self.kind == "infinite":
            return self.K_bar
        prob = self.problem
        B = prob.sys.B if isinstance(prob.sys, StateSpace) else numkit.as_matrix(
            prob.sys.B(t))
        return np.linalg.solve(prob.R, B.T @ self.P_at(t))

    def value_at(self, x0) -> float:
        x0 = numkit.as_vector(x0)
        P0 = self.P_bar if self.kind == "infinite" else self.P_at(self.times[0])
        return float(x0 @ P0 @ x0)


def _coeff_matrices(prob: LqrProblem, t: float):
    if isinstance(prob.sys, StateSpace):
        return prob.sys.A, prob.sys.B
    return numkit.as_matrix(prob.sys.A(t)), numkit.as_matrix(prob.sys.B(t))


def _default_rde_steps(prob: LqrProblem) -> int:
    A, _ = _coeff_matrices(prob, prob.t1)
    anorm = float(np.linalg.norm(A, 2)) if A.size else 0.0
    span = prob.t1 - prob.t0
    return int(min(200_000, max(800, np.ceil(2000.0 * max(anorm, 1.0) * span))))


def solve_rde(prob: LqrProblem, steps: int = None) -> RiccatiSolution:
    """Backward sweep of the quadratic matrix flow from the terminal weight.

    Fixed-step fourth-order integration (numkit.rk4_march) on a uniform
    grid, resymmetrized every step; entries running away to infinity raise
    with the escape time instead of returning garbage. The weight
    B R^-1 B' is formed once for a constant-coefficient model. A sweep of
    more than RDE_BUDGET steps x n^3 raises WorkBudgetExceeded before the
    first step.
    """
    if prob.infinite:
        raise ValueError("finite horizon required")
    n = prob.Q.shape[0]
    M = prob.M if prob.M is not None else np.zeros((n, n))
    if steps is None:
        steps = _default_rde_steps(prob)
    if steps * n**3 > RDE_BUDGET:
        raise WorkBudgetExceeded(
            f"Riccati sweep of {steps} steps at n = {n} is "
            f"{steps * n**3} steps x n^3, over the budget of {RDE_BUDGET}")
    h = (prob.t1 - prob.t0) / steps
    Rinv = np.linalg.solve(prob.R, np.eye(prob.R.shape[0]))
    escape = 1e12 * (1.0 + float(np.linalg.norm(M) + np.linalg.norm(prob.Q)))

    def weights(t):
        A, B = _coeff_matrices(prob, t)
        return A, B @ Rinv @ B.T

    if isinstance(prob.sys, StateSpace):
        fixed = weights(prob.t1)
        coeffs = lambda t: fixed  # noqa: E731
    else:
        coeffs = weights

    Q = prob.Q

    def rate(P, c):  # dP/dt = -(Q + PA + A'P - PSP), negated exactly
        A, S = c
        return P.dot(S).dot(P) - (Q + P.dot(A) + A.T.dot(P))

    times = [prob.t1]
    grid = [M.astype(float)]
    for t, P, _ in numkit.rk4_march(rate, coeffs, prob.t1, grid[0], -h, steps,
                                    settle=lambda P: 0.5 * (P + P.T)):
        v = P.ravel(order="K")  # np.linalg.norm(P) is sqrt(v.v)
        if not math.sqrt(v.dot(v)) <= escape:  # escaped, or not finite
            raise FiniteEscape(f"solution escaped near t = {t:.6g}")
        times.append(t)
        grid.append(P)
    times = np.asarray(times[::-1])
    grid = np.asarray(grid[::-1])
    return RiccatiSolution(
        kind="finite", problem=prob, times=times, P_grid=grid,
        P_bar=None, K_bar=None, closed_loop_poles=None,
    )


# ---------------------------------------------------------------------------
# Hamiltonian routes


@dataclass(frozen=True)
class HamiltonianPencil:
    matrix: np.ndarray
    spectrum: np.ndarray
    vectors: np.ndarray  # right eigenvector columns, parallel to spectrum


def _hamiltonian(prob: LqrProblem):
    """The coupled state-costate flow matrix H, with R^-1 and S = B R^-1 B'."""
    if not isinstance(prob.sys, StateSpace):
        raise TypeError("constant-coefficient model required")
    return numkit.hamiltonian(prob.sys.A, prob.sys.B, prob.Q, prob.R)


def build_hamiltonian(prob: LqrProblem) -> HamiltonianPencil:
    H, _, _ = _hamiltonian(prob)
    eig = numkit.eigen(H)
    return HamiltonianPencil(matrix=H, spectrum=eig.values,
                             vectors=eig.right_vectors)


def _partition_by_stability(pencil: HamiltonianPencil, tol):
    n2 = pencil.matrix.shape[0]
    n = n2 // 2
    lam = pencil.spectrum
    if np.any(np.abs(lam.real) <= tol):
        raise AxisEigenvalue("spectrum touches the imaginary axis")
    if len(numkit.group_roots(lam, [tol * (1.0 + abs(z)) for z in lam])) < n2:
        raise RepeatedHamiltonianEigenvalues(
            "repeated eigenvalue in the coupled flow matrix"
        )
    stable = [i for i in range(n2) if lam[i].real < 0]
    unstable = [i for i in range(n2) if lam[i].real > 0]
    if len(stable) != n:
        raise StableSpaceDefect(
            f"expected {n} strictly stable directions, found {len(stable)}"
        )
    V = pencil.vectors
    U_s = V[:, stable]
    U_u = V[:, unstable]
    lam_s = lam[stable]
    lam_u = lam[unstable]
    return lam_s, lam_u, U_s, U_u


def solve_rde_by_hamiltonian(prob: LqrProblem, samples: int = 201) -> RiccatiSolution:
    """Closed-form finite-horizon solution through the coupled linear flow.

    Valid when the 2n x 2n flow matrix has simple, off-axis eigenvalues;
    evaluated on a uniform time grid.
    """
    if prob.infinite:
        raise ValueError("finite horizon required")
    if not isinstance(prob.sys, StateSpace):
        raise TypeError("constant-coefficient model required")
    n = prob.sys.n
    M = prob.M if prob.M is not None else np.zeros((n, n))
    pencil = build_hamiltonian(prob)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(pencil.spectrum))))
    lam_s, lam_u, U_s, U_u = _partition_by_stability(pencil, tol)
    U11, U21 = U_s[:n, :], U_s[n:, :]
    U12, U22 = U_u[:n, :], U_u[n:, :]
    Mc = M.astype(complex)
    G = -np.linalg.solve(U22 - Mc @ U12, U21 - Mc @ U11)
    times = np.linspace(prob.t0, prob.t1, samples)
    grid = []
    for t in times:
        # t <= t1, so both exponential factors stay bounded by one
        tau = t - prob.t1
        W = np.diag(np.exp(lam_u * tau)) @ G @ np.diag(np.exp(-lam_s * tau))
        num = U21 + U22 @ W
        den = U11 + U12 @ W
        P = num @ np.linalg.solve(den, np.eye(n))
        P = np.real(P)
        grid.append(0.5 * (P + P.T))
    return RiccatiSolution(
        kind="finite", problem=prob, times=times, P_grid=np.asarray(grid),
        P_bar=None, K_bar=None, closed_loop_poles=None,
    )


# Newton iteration for sign(H): step cap, and the relative change of a step
# that ends it. Convergence is quadratic near the end, so the iterate after
# a step of relative size 1e-8 is already at the rounding floor.
_SIGN_MAX_STEPS = 100
_SIGN_TOL = 1e-8


def _matrix_sign(H: np.ndarray) -> np.ndarray:
    """sign(H) by Newton's iteration Z <- (cZ + (cZ)^-1)/2 in real arithmetic.

    The determinant scale c = |det Z|^(-1/2n) (Roberts 1980; Byers 1987)
    makes the geometric mean of the eigenvalue moduli one, so the steps do
    not depend on the overall scale of H; slogdet keeps it finite at any
    size.
    """
    Z = H
    for step in range(1, _SIGN_MAX_STEPS + 1):
        c = np.exp(-np.linalg.slogdet(Z)[1] / Z.shape[0])
        Znext = 0.5 * (c * Z + np.linalg.inv(Z) / c)
        change = float(np.linalg.norm(Znext - Z, 1) / np.linalg.norm(Znext, 1))
        Z = Znext
        if change <= _SIGN_TOL:
            return Z
        if not np.isfinite(change):
            break
    raise StableSpaceDefect(
        f"sign iteration stopped after {step} steps with relative change "
        f"{change:.3e} above {_SIGN_TOL:.0e}"
    )


def solve_are(prob: LqrProblem) -> RiccatiSolution:
    """Stationary solution from the sign of the coupled-flow matrix H.

    Requires a stabilizable input and a detectable cost. W = sign(H) is
    computed in real arithmetic by a scaled Newton iteration; the stable
    invariant subspace of H is the null space of W + I, so the graph
    [I; P] of that subspace solves [W12; W22 + I] P = -[W11 + I; W21] in
    the least-squares sense. No eigenvectors of H are formed: its
    eigenvalues alone give the axis check and the closed-loop poles. The
    candidate is validated against the quadratic equation and the
    closed-loop spectrum before anything is returned.
    """
    if not prob.infinite:
        raise ValueError("infinite horizon required")
    if not isinstance(prob.sys, StateSpace):
        raise TypeError("constant-coefficient model required")
    sys = prob.sys
    n = sys.n
    warnings = []
    Cfac = prob.state_cost_factor()
    probe = StateSpace(sys.A, sys.B, Cfac, np.zeros((n, sys.m)))
    report = structural_analysis(probe)
    if not report.stabilizable:
        raise NotStabilizable("an unstable mode is outside the input's reach")
    if float(np.linalg.norm(Cfac)) <= 1e-14:
        warnings.append("zero state weight: detectability holds vacuously")
        if not report.detectable:
            raise NotDetectable("unstable dynamics carry no cost; value undefined")
    elif not report.detectable:
        raise NotDetectable("an unstable mode is invisible to the cost")
    H, Rinv, S = _hamiltonian(prob)
    lam = np.linalg.eigvals(H)
    # relative to the spectrum alone: H -> cH leaves the verdict unchanged
    tol = 1e-9 * float(np.max(np.abs(lam)))
    nearest = float(np.min(np.abs(lam.real)))
    if nearest <= tol:
        raise StableSpaceDefect(
            f"coupled-flow spectrum touches the imaginary axis: |Re| "
            f"{nearest:.3e} within band {tol:.3e}"
        )
    stable = lam[lam.real < -tol]
    if stable.size != n:
        raise StableSpaceDefect(
            f"expected {n} strictly stable directions, found {stable.size}"
        )
    W = _matrix_sign(H)
    eye = np.eye(n)
    block = np.vstack([W[:n, n:], W[n:, n:] + eye])
    P, _, _, sv = np.linalg.lstsq(
        block, -np.vstack([W[:n, :n] + eye, W[n:, :n]]), rcond=None)
    ratio = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if ratio > 1e12:
        raise StableSpaceDefect(
            f"stable-subspace block condition {ratio:.3e} exceeds 1e+12"
        )
    Pbar = 0.5 * (P + P.T)
    residual = float(np.linalg.norm(
        sys.A.T @ Pbar + Pbar @ sys.A - Pbar @ S @ Pbar + prob.Q))
    bound = 1e-8 * (float(np.linalg.norm(prob.Q))
                    + float(np.linalg.norm(Pbar)) ** 2 * float(np.linalg.norm(S))
                    + 1.0)
    if residual > bound:
        raise StableSpaceDefect(
            f"stationary residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    K = Rinv @ sys.B.T @ Pbar
    poles = np.asarray(sorted(stable, key=lambda z: (z.real, z.imag)),
                       dtype=complex)
    achieved = np.asarray(sorted(numkit.eigen(sys.A - sys.B @ K).values,
                                 key=lambda z: (z.real, z.imag)), dtype=complex)
    gaps = np.abs(poles - achieved)
    bounds = 1e-6 * (1.0 + np.abs(poles))
    worst = int(np.argmax(gaps / bounds))
    if gaps[worst] > bounds[worst]:
        raise StableSpaceDefect(
            f"closed-loop eigenvalue {achieved[worst]:.6g} is {gaps[worst]:.3e} "
            f"from the stable direction {poles[worst]:.6g}, above bound "
            f"{bounds[worst]:.3e}"
        )
    return RiccatiSolution(
        kind="infinite", problem=prob, times=None, P_grid=None,
        P_bar=Pbar, K_bar=K, closed_loop_poles=poles, warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# frequency-domain verification


@dataclass(frozen=True)
class FrequencyReport:
    omegas: np.ndarray
    return_difference: np.ndarray  # |1+L| (or smallest singular value of I+L)
    sensitivity: np.ndarray
    min_return_difference: float
    min_omega: float
    identity_residual: float


def return_difference_report(solution: RiccatiSolution,
                             omegas=None) -> FrequencyReport:
    """Evaluate the loop-gain identity and the unit-circle margin bound.

    The identity ties R plus the weighted plant power spectrum to the
    return difference; its residual certifies the gain. The margin value
    is |1+L| for one input, otherwise the smallest singular value of I+L.
    """
    prob = solution.problem
    sys = prob.sys
    if solution.kind != "infinite":
        raise ValueError("stationary solution required")
    if omegas is None:
        omegas = np.logspace(-2, 3, 400)
    omegas = np.asarray(omegas, dtype=float)
    K = solution.K_bar
    R = prob.R
    Cfac = prob.state_cost_factor()
    n, m = sys.n, sys.m
    # every frequency at once: resolvent[k] = (j omega_k I - A)^{-1} B
    shifted = 1j * omegas[:, None, None] * np.eye(n) - sys.A
    resolvent = np.linalg.solve(shifted, sys.B.astype(complex))
    L = K @ resolvent
    Pjw = Cfac @ resolvent
    lhs = R + Pjw.conj().transpose(0, 2, 1) @ Pjw
    IL = np.eye(m) + L
    rhs = IL.conj().transpose(0, 2, 1) @ R @ IL
    # relative to the local magnitude: near poles of the plant both
    # sides blow up together and an absolute gap means nothing
    rnorm = max(float(np.linalg.norm(R)), 1e-300)
    scale = np.maximum(np.linalg.norm(lhs, axis=(1, 2)), rnorm)
    gaps = np.linalg.norm(lhs - rhs, axis=(1, 2)) / scale
    worst_resid = float(np.max(gaps, initial=0.0))
    if m == 1:
        rd = np.abs(IL[:, 0, 0])
    else:
        rd = np.linalg.svd(IL, compute_uv=False)[:, -1]
    with np.errstate(divide="ignore"):
        sens = np.where(rd > 0, 1.0 / rd, np.inf)
    imin = int(np.argmin(rd))
    return FrequencyReport(
        omegas=omegas, return_difference=rd, sensitivity=sens,
        min_return_difference=float(rd[imin]), min_omega=float(omegas[imin]),
        identity_residual=worst_resid,
    )


# ---------------------------------------------------------------------------
# symmetric root locus


@dataclass(frozen=True)
class SrlPoint:
    r: float
    roots: np.ndarray
    stable_roots: np.ndarray


def symmetric_root_locus(plant: RationalFunction, r_values) -> tuple:
    """Roots of r a(s)a(-s) + b(s)b(-s) per weight, with the stable branch."""
    a = np.real(np.asarray(plant.den, dtype=complex)).astype(float)
    b = np.real(np.asarray(plant.num, dtype=complex)).astype(float)
    return _srl_core(a, [b], r_values)


def symmetric_root_locus_multi(a, numerators, r_values) -> tuple:
    """Vector generalization: the plant power term sums over output channels."""
    a = np.asarray(a, dtype=float)
    return _srl_core(a, [np.asarray(b, dtype=float) for b in numerators], r_values)


def _srl_core(a, numerators, r_values):
    """The weights go in blocks of 1, 2, 4, ... (at most about 1 MB of
    companion matrices each), one stacked root call per block, and are
    checked in order after it: a sweep that fails early stacks at most about
    twice the weights it needed, and errors come in weight order."""
    a_even = np.convolve(a, numkit.poly_reflect(a))
    b_even = np.array([0.0])
    for b in numerators:
        b_even = np.polyadd(b_even, np.convolve(b, numkit.poly_reflect(b)))
    width = max(a_even.size, b_even.size)

    def padded(c):  # zeros on the left, as np.polyadd pads
        return np.concatenate((np.zeros(c.shape[:-1] + (width - c.shape[-1],)), c),
                              axis=-1) if c.shape[-1] < width else c

    weights = np.atleast_1d(np.asarray(r_values, dtype=float))
    cap = max(1, (1 << 17) // ((width - 1) ** 2 + 1))
    out, size = [], 1
    while len(out) < weights.size:
        r = weights[len(out):len(out) + size]
        # row k is np.polyadd(a_even * r[k], b_even)
        rows = padded(np.multiply.outer(r, a_even)) + padded(b_even)
        try:
            found = numkit.poly_roots(rows)
        except np.linalg.LinAlgError:  # row by row: the first failing weight raises
            found = map(numkit.poly_roots, rows)
        for rk, roots in zip(r.tolist(), found):
            # each root must match the mirror image -z of a root
            band = 1e-8 * (1.0 + np.hypot(roots.real, roots.imag).max(initial=0.0))
            if None in numkit.match_roots(roots, -roots, band):
                raise IllConditioned("root locus lost its axis symmetry")
            stable = roots[roots.real < 0]
            stable = stable[np.lexsort((stable.imag, stable.real))].astype(complex)
            out.append(SrlPoint(r=rk, roots=roots, stable_roots=stable))
        size = min(2 * size, cap)
    return tuple(out)


def lqr_value(solution: RiccatiSolution, x0) -> float:
    """Optimal cost from the initial state through the quadratic form."""
    return solution.value_at(x0)
