"""Model records (LTI, LTV, nonlinear) and linearization.

All models are immutable containers.  User-supplied callables must be safe
for concurrent invocation or the caller must serialize access; the package
never mutates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numkit
from .errors import (
    NoConvergence,
    SingularJacobian,
    SingularTransform,
    StepTooSmall,
    TrajectoryResidualTooLarge,
)

_EPS = float(np.finfo(float).eps)
_FD_STEP = _EPS ** (1.0 / 3.0)  # central-difference default


@dataclass(frozen=True)
class StateSpace:
    """Constant-coefficient linear model dx/dt = A x + B u, y = C x + D u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = numkit.require_square(self.A)
        n = A.shape[0]
        # an empty B with n rows keeps its columns, and an empty C with n
        # columns its rows: a model without states keeps its inputs and outputs
        B = numkit.as_matrix(self.B) if np.size(self.B) else np.zeros(
            np.shape(self.B) if np.ndim(self.B) == 2 and len(self.B) == n
            else (n, 0))
        C = numkit.as_matrix(self.C) if np.size(self.C) else np.zeros(
            np.shape(self.C) if np.ndim(self.C) == 2 and np.shape(self.C)[1] == n
            else (0, n))
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape[0]}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape[1]}")
        D = (
            numkit.as_matrix(self.D)
            if np.size(self.D)
            else np.zeros((C.shape[0], B.shape[1]))
        )
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape[0]}x{D.shape[1]}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


def state_space(A, B=None, C=None, D=None) -> StateSpace:
    """Convenience constructor: a missing B is no input, a missing C the full
    state and a missing D no feedthrough. StateSpace fills empty blocks."""
    n = numkit.require_square(A).shape[0]
    return StateSpace(A, np.zeros((n, 0)) if B is None else B,
                      np.eye(n) if C is None else C,
                      np.zeros((0, 0)) if D is None else D)


@dataclass(frozen=True)
class LtvModel:
    """Time-varying linear model with matrix-valued callables of time."""

    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]
    C: Callable[[float], np.ndarray]
    D: Callable[[float], np.ndarray]
    n: int
    m: int
    p: int
    piecewise_continuity_breaks: tuple = ()


def ltv_model(A, B=None, C=None, D=None, n=None, m=None, p=None, breaks=()) -> LtvModel:
    """Time-varying model from matrix-valued callables of t.

    Missing B, C, D default to no input, the full state and no feedthrough;
    missing dimensions are read from the callables at t = 0. The callables
    must be pure functions of t (see numkit.rk4_march).
    """
    if n is None:
        n = numkit.require_square(A(0.0)).shape[0]
    if B is None:
        m = 0 if m is None else m
        B = lambda t, _n=n, _m=m: np.zeros((_n, _m))  # noqa: E731
    if m is None:
        m = numkit.as_matrix(B(0.0)).shape[1]
    if C is None:
        C = lambda t, _n=n: np.eye(_n)  # noqa: E731
    if p is None:
        p = numkit.as_matrix(C(0.0)).shape[0]
    if D is None:
        D = lambda t, _p=p, _m=m: np.zeros((_p, _m))  # noqa: E731
    return LtvModel(A=A, B=B, C=C, D=D, n=n, m=m, p=p,
                    piecewise_continuity_breaks=tuple(sorted(breaks)))


@dataclass(frozen=True)
class NonlinearModel:
    """dx/dt = f(x, u, t), y = h(x, u, t) with declared dimensions.

    f and h take x and u as arrays. A builtin f (registry) also takes them
    as lists of floats and returns a list; its attribute takes_lists lets
    simulate march it on Python floats.
    """

    f: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    n: int
    m: int
    p: int


@dataclass(frozen=True)
class Equilibrium:
    xe: np.ndarray
    ue: np.ndarray
    residual: float


# ---------------------------------------------------------------------------
# finite differences


def _fd_jacobian(fun, z0, step=None):
    """Central-difference Jacobian of fun at z0."""
    z0 = np.asarray(z0, dtype=float)
    f0 = np.asarray(fun(z0), dtype=float)
    J = np.zeros((f0.size, z0.size))
    for i in range(z0.size):
        h = step if step is not None else _FD_STEP * (1.0 + abs(z0[i]))
        zp = z0.copy()
        zm = z0.copy()
        zp[i] += h
        zm[i] -= h
        J[:, i] = (np.asarray(fun(zp), dtype=float) - np.asarray(fun(zm), dtype=float)) / (
            2.0 * h
        )
    return J


def _jacobians(model: NonlinearModel, x, u, t, step=None):
    """(A, B, C, D) at (x, u, t): one central-difference Jacobian of
    z = [x; u] -> [f; h], split at the state's rows and columns."""
    n = model.n

    def fh(z):
        x, u = z[:n], z[n:]
        return np.concatenate([np.asarray(model.f(x, u, t), dtype=float).reshape(-1),
                               np.asarray(model.h(x, u, t), dtype=float).reshape(-1)])

    J = _fd_jacobian(fh, np.concatenate([x, u]), step)
    return J[:n, :n], J[:n, n:], J[n:, :n], J[n:, n:]


# ---------------------------------------------------------------------------
# operations


def find_equilibrium(
    model: NonlinearModel,
    ue,
    x0_guess,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> Equilibrium:
    """Newton search for a state where the velocity field vanishes.

    Local only: convergence is expected from a physically informed guess.
    """
    ue = numkit.as_vector(ue) if np.size(ue) else np.zeros(model.m)
    x = numkit.as_vector(x0_guess).astype(float)

    def fx(z):
        return np.asarray(model.f(z, ue, 0.0), dtype=float).reshape(-1)

    for _ in range(max_iter):
        r = fx(x)
        if float(np.linalg.norm(r)) <= tol:
            return Equilibrium(xe=x.copy(), ue=ue.copy(), residual=float(np.linalg.norm(r)))
        J = _fd_jacobian(fx, x)
        if numkit.rank(J) < model.n:
            raise SingularJacobian("velocity-field Jacobian is singular at the iterate")
        try:
            dx = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        x = x + dx
    r = fx(x)
    if float(np.linalg.norm(r)) <= tol:
        return Equilibrium(xe=x, ue=ue.copy(), residual=float(np.linalg.norm(r)))
    raise NoConvergence(
        f"Newton iteration did not reach tolerance {tol} in {max_iter} steps "
        f"(residual {float(np.linalg.norm(r)):.3e})"
    )


def linearize_at_equilibrium(
    model: NonlinearModel, eq: Equilibrium, step: float | None = None
) -> StateSpace:
    """First-order model at a fixed point via central differences."""
    xe = numkit.as_vector(eq.xe)
    ue = numkit.as_vector(eq.ue) if np.size(eq.ue) else np.zeros(model.m)
    if step is not None and step <= 64.0 * _EPS * (1.0 + float(np.max(np.abs(xe), initial=0.0))):
        raise StepTooSmall(
            "difference step is below the noise floor for this state scale"
        )
    return StateSpace(*_jacobians(model, xe, ue, 0.0, step))


def linearize_along_trajectory(
    model: NonlinearModel,
    times: Sequence[float],
    x_nominal,
    u_nominal,
    residual_tol: float = 1e-3,
) -> LtvModel:
    """Jacobians along a nominal trajectory, linearly interpolated in time.

    The nominal must satisfy the state equation; a centred finite-difference
    check of dx/dt against f along the samples guards against stale inputs.
    """
    t = np.asarray(times, dtype=float)
    X = np.atleast_2d(np.asarray(x_nominal, dtype=float))
    U = np.atleast_2d(np.asarray(u_nominal, dtype=float)) if model.m else np.zeros((t.size, 0))
    if X.shape[0] != t.size or (model.m and U.shape[0] != t.size):
        raise ValueError("nominal samples must align with the time grid")
    if t.size < 3:
        raise ValueError("need at least three samples")
    scale = 1.0 + float(np.max(np.abs(X)))
    worst = 0.0
    for k in range(1, t.size - 1):
        dxdt = (X[k + 1] - X[k - 1]) / (t[k + 1] - t[k - 1])
        fk = np.asarray(model.f(X[k], U[k] if model.m else np.zeros(0), t[k]), dtype=float)
        worst = max(worst, float(np.linalg.norm(dxdt - fk)) / scale)
    if worst > residual_tol:
        raise TrajectoryResidualTooLarge(
            f"nominal trajectory residual {worst:.3e} exceeds {residual_tol:.3e}"
        )

    A_samp, B_samp, C_samp, D_samp = (np.array(s) for s in zip(*(
        _jacobians(model, X[k], U[k], t[k]) for k in range(t.size))))
    return LtvModel(
        A=numkit.sample_interpolant(t, A_samp),
        B=numkit.sample_interpolant(t, B_samp),
        C=numkit.sample_interpolant(t, C_samp),
        D=numkit.sample_interpolant(t, D_samp),
        n=model.n,
        m=model.m,
        p=model.p,
        piecewise_continuity_breaks=(),
    )


def similarity_transform(sys: StateSpace, P) -> StateSpace:
    """Change of state coordinates xbar = P x."""
    P = numkit.require_square(P)
    if P.shape[0] != sys.n:
        raise ValueError("transform dimension must match the state dimension")
    if numkit.rank(P) < sys.n:
        raise SingularTransform("coordinate transform is singular")
    Pinv = np.linalg.solve(P, np.eye(sys.n))
    return StateSpace(P @ sys.A @ Pinv, P @ sys.B, sys.C @ Pinv, sys.D)
