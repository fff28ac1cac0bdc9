"""Optimality-condition solvers: LQ endpoint problems and bang-bang examples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numkit
from .errors import InvalidHorizon, Overflow, SingularPsi12
from .model import StateSpace

if TYPE_CHECKING:
    from .response import Trajectory


@dataclass(frozen=True)
class TpbvpProblem:
    """Quadratic-cost steering with per-coordinate terminal constraints.

    endpoint_mask[j] True pins x_j(t1) to x1[j]; False leaves it free and
    subject to the terminal-weight gradient condition.
    """

    sys: StateSpace
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    t0: float
    t1: float
    endpoint_mask: tuple = None
    terminal_penalty: np.ndarray = None

    def __post_init__(self):
        n = self.sys.n
        Q = numkit.require_square(self.Q)
        R = numkit.require_square(self.R)
        if numkit.is_positive_definite(R).verdict != "PD":
            raise ValueError("input weight must be positive definite")
        mask = self.endpoint_mask
        mask = tuple(bool(b) for b in (mask if mask is not None else [True] * n))
        if len(mask) != n:
            raise ValueError("endpoint mask length must match the state dimension")
        M = self.terminal_penalty
        M = np.zeros((n, n)) if M is None else numkit.require_square(M)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "x0", numkit.as_vector(self.x0).astype(float))
        object.__setattr__(self, "x1", numkit.as_vector(self.x1).astype(float))
        object.__setattr__(self, "endpoint_mask", mask)
        object.__setattr__(self, "terminal_penalty", M)


@dataclass(frozen=True)
class TpbvpSolution:
    trajectory: Trajectory
    costate: np.ndarray
    control: np.ndarray
    initial_costate: np.ndarray
    endpoint_residual: float


def solve_lq_tpbvp(prob: TpbvpProblem, samples: int = 401) -> TpbvpSolution:
    """Shooting-free endpoint solve through the coupled state-costate flow.

    Constant coefficients make the flow map exact: one exponential over the
    horizon fixes the initial costate, and one per distinct sample spacing
    (numkit.expm_flow) carries [x; lambda] across the samples. The initial
    costate comes from an n x n linear system mixing pinned-coordinate rows
    with terminal-gradient rows.
    """
    from .response import lti_trajectory

    n = prob.sys.n
    H, Rinv, _ = numkit.hamiltonian(prob.sys.A, prob.sys.B, prob.Q, prob.R)
    span = prob.t1 - prob.t0
    if span <= 0:
        raise ValueError("need t1 > t0")
    psi = numkit.expm(H, span)
    psi11, psi12 = psi[:n, :n], psi[:n, n:]
    psi21, psi22 = psi[n:, :n], psi[n:, n:]
    M = prob.terminal_penalty
    rows = np.zeros((n, n))
    rhs = np.zeros(n)
    free_rows = psi22 - M @ psi12
    free_rhs = (M @ psi11 - psi21) @ prob.x0
    for j in range(n):
        if prob.endpoint_mask[j]:
            rows[j, :] = psi12[j, :]
            rhs[j] = prob.x1[j] - psi11[j, :] @ prob.x0
        else:
            rows[j, :] = free_rows[j, :]
            rhs[j] = free_rhs[j]
    svals = np.linalg.svd(rows, compute_uv=False)
    if svals[-1] <= 1e-12 * max(1.0, svals[0]):
        raise SingularPsi12("the requested endpoint is not reachable this way")
    lam0 = np.linalg.solve(rows, rhs)
    times = np.linspace(prob.t0, prob.t1, samples)
    z = numkit.expm_flow(H, np.concatenate([prob.x0, lam0]), times)
    states, costates = z[:, :n], z[:, n:]
    controls = -(costates @ (Rinv @ prob.sys.B.T).T)
    traj = lti_trajectory(prob.sys, times, states, controls)
    fixed = [j for j in range(n) if prob.endpoint_mask[j]]
    resid = 0.0
    if fixed:
        resid = float(np.linalg.norm(states[-1][fixed] - prob.x1[fixed]))
    return TpbvpSolution(
        trajectory=traj, costate=costates, control=controls,
        initial_costate=lam0, endpoint_residual=resid,
    )


# ---------------------------------------------------------------------------
# bang-bang example solvers


@dataclass(frozen=True)
class BangBangSolution:
    switching_times: tuple
    control_pieces: tuple  # (t_start, t_end, u) per piece
    terminal_time: float
    cost: float | None

    def control_at(self, t: float) -> float:
        return float(self.controls_at((t,))[0])

    def controls_at(self, times) -> np.ndarray:
        """The input at each of times: that of the first piece whose closed
        interval holds the time, where the end of a piece belongs to the
        next piece unless it is the last end; past every piece, the last."""
        t = np.asarray(times, dtype=float)
        last = self.control_pieces[-1]
        out = np.full(t.shape, last[2], dtype=float)
        for (a, b, u) in reversed(self.control_pieces):  # the first one wins
            out[(a <= t) & ((t <= b) if b == last[1] else (t < b))] = u
        return out


@dataclass(frozen=True)
class BilinearProblem:
    """Scalar growth process x' = u x, payoff integral of (u-1) x, 0 <= u <= 1."""

    x0: float
    t1: float


def solve_bilinear_bang_bang(x0: float, t1: float) -> BangBangSolution:
    """Closed-form optimizer: full input up to one unit before the end, then off.

    The costate crosses the switching level exactly one time unit before
    the horizon, which makes the plateau value x0 e^(t1-1). A plateau past
    the double range raises Overflow: every state, costate and Hamiltonian
    value of the solution is bounded by it.
    """
    if x0 <= 0:
        raise ValueError("initial state must be positive")
    if t1 < 1.0:
        raise InvalidHorizon("horizon shorter than one unit has no interior switch")
    ts = t1 - 1.0
    with np.errstate(over="ignore"):
        plateau = x0 * float(np.exp(ts))
    if not math.isfinite(plateau):
        raise Overflow("the plateau state x0 e^(t1-1) overflowed the "
                       "representable range")
    cost = -plateau  # only the final unit contributes, at weight (0-1)
    pieces = ((0.0, ts, 1.0), (ts, t1, 0.0))
    sol = BangBangSolution(
        switching_times=(ts,), control_pieces=pieces, terminal_time=t1, cost=cost,
    )
    return sol


def bilinear_state(sol: BangBangSolution, x0: float, t: float) -> float:
    return float(bilinear_states(sol, x0, (t,))[0])


def bilinear_states(sol: BangBangSolution, x0: float, times) -> np.ndarray:
    """x0 e^t at each of times up to the switch, the plateau x0 e^ts after."""
    ts = sol.switching_times[0]
    t = np.asarray(times, dtype=float)
    return x0 * np.exp(np.where(t <= ts, t, ts))


def bilinear_costate(sol: BangBangSolution, t: float) -> float:
    return float(bilinear_costates(sol, (t,))[0])


def bilinear_costates(sol: BangBangSolution, times) -> np.ndarray:
    """-e^(t1-1-t) at each of times before the switch, the ramp t - t1 from it."""
    ts = sol.switching_times[0]
    t1 = sol.terminal_time
    t = np.asarray(times, dtype=float)
    return np.where(t >= ts, t - t1, -np.exp(-t + t1 - 1.0))


def bilinear_piecewise_cost(x0: float, t_grid, u_values) -> float:
    """Exact cost of a piecewise-constant feasible control on a grid."""
    x = float(x0)
    total = 0.0
    for k in range(len(u_values)):
        dt = t_grid[k + 1] - t_grid[k]
        u = float(u_values[k])
        if abs(u) > 1e-14:
            total += (u - 1.0) * x * (np.exp(u * dt) - 1.0) / u
            x *= float(np.exp(u * dt))
        else:
            total += -x * dt
    return total


@dataclass(frozen=True)
class MinTimeProblem:
    """Double integrator to the origin, |u| <= 1."""

    x0: np.ndarray


def solve_double_integrator_min_time(x0) -> BangBangSolution:
    """Two-arc time-optimal steering of a double integrator to the origin.

    The deceleration curve x1 = -sign(x2) x2^2 / 2 splits the plane; states
    off the curve ride one extreme input to the curve, then the opposite
    one home. At most one switch ever occurs. A terminal time past the
    double range raises Overflow.
    """
    x1, x2 = (float(v) for v in np.asarray(x0, dtype=float).reshape(2))
    eps = 1e-12 * (1.0 + abs(x1) + abs(x2))
    curve = x1 + 0.5 * x2 * abs(x2)  # zero exactly on the switching curve
    if abs(x1) <= eps and abs(x2) <= eps:
        return BangBangSolution(
            switching_times=(), control_pieces=((0.0, 0.0, 0.0),),
            terminal_time=0.0, cost=0.0,
        )
    if abs(curve) <= eps:
        # single deceleration arc along the curve
        u = 1.0 if x2 < 0 else -1.0
        t1 = abs(x2)
        pieces = ((0.0, t1, u),)
        return BangBangSolution(
            switching_times=(), control_pieces=pieces, terminal_time=t1, cost=t1,
        )
    if curve > 0:
        u1, u2 = -1.0, 1.0
        ts = x2 + np.sqrt(0.5 * x2 * x2 + x1)
        x2s = -np.sqrt(0.5 * x2 * x2 + x1)
        t1 = ts - x2s
    else:
        u1, u2 = 1.0, -1.0
        ts = -x2 + np.sqrt(0.5 * x2 * x2 - x1)
        x2s = np.sqrt(0.5 * x2 * x2 - x1)
        t1 = ts + x2s
    if not math.isfinite(t1):
        raise Overflow("the terminal time overflowed the representable range")
    pieces = ((0.0, ts, u1), (ts, t1, u2))
    return BangBangSolution(
        switching_times=(float(ts),), control_pieces=pieces,
        terminal_time=float(t1), cost=float(t1),
    )


def min_time_state(sol: BangBangSolution, x0, t: float) -> np.ndarray:
    return min_time_states(sol, x0, (t,))[0]


def min_time_states(sol: BangBangSolution, x0, times) -> np.ndarray:
    """The state at each of times, one row per time.

    Each time rides the control pieces from x0 up to itself. The masks stop
    it where a piece-by-piece march would, and the arithmetic is that
    march's on floats, which overflows to inf without a warning.
    """
    t = np.asarray(times, dtype=float)
    start = np.asarray(x0, dtype=float).reshape(2)
    pos, vel = np.full(t.shape, start[0]), np.full(t.shape, start[1])
    now = np.zeros(t.shape)
    going = np.ones(t.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, b, u) in sol.control_pieces:
            dt = np.where(b < t, b, t) - now  # min(t, b) - now
            going &= ~(dt <= 0)
            pos = np.where(going, pos + (vel * dt + 0.5 * u * dt * dt), pos)
            vel = np.where(going, vel + u * dt, vel)
            now = np.where(going, now + dt, now)
            going &= ~(now >= t)
    return np.stack((pos, vel), axis=-1)


def min_time_costate(sol: BangBangSolution, t: float) -> np.ndarray:
    return min_time_costates(sol, (t,))[0]


def min_time_costates(sol: BangBangSolution, times) -> np.ndarray:
    """Normalized costate at each of times, one row per time: unit
    switching coordinate at the terminal time."""
    t = np.asarray(times, dtype=float)
    pieces = sol.control_pieces
    if not sol.switching_times:
        if not pieces or pieces[-1][2] == 0.0:
            return np.zeros((t.size, 2))
        return np.tile([0.0, -pieces[-1][2]], (t.size, 1))
    ts = sol.switching_times[0]
    slope = -pieces[-1][2] / (sol.terminal_time - ts)
    return np.stack((np.full(t.shape, -slope), slope * (t - ts)), axis=-1)


def min_time_terminal_residual(sol: BangBangSolution, x0) -> float:
    """Free-terminal-time condition 1 + p'Ax - |p'b| at the stopping time."""
    if sol.terminal_time == 0.0:
        return 0.0
    p = min_time_costate(sol, sol.terminal_time)
    x = min_time_state(sol, x0, sol.terminal_time)
    return float(1.0 + p[0] * x[1] - abs(p[1]))


# ---------------------------------------------------------------------------
# optimality residuals


@dataclass(frozen=True)
class HamiltonianResiduals:
    state_residual: float
    costate_residual: float
    stationarity_residual: float


@dataclass(frozen=True)
class ArgminReport:
    violations: tuple  # sample times where the argmin property failed
    samples: int
    max_gap_to_switch: float


def hamiltonian_residual(solution, prob, u_grid=None):
    """Check the two flow equations and the pointwise input optimality.

    Unconstrained LQ solutions are checked through centred differences and
    the input gradient; constrained bang-bang solutions are checked by
    grid-minimizing the Hamiltonian over the admissible input interval.
    """
    if isinstance(solution, TpbvpSolution) and isinstance(prob, TpbvpProblem):
        return _lq_residuals(solution, prob)
    if isinstance(solution, BangBangSolution) and isinstance(prob, BilinearProblem):
        return _bilinear_argmin(solution, prob, u_grid)
    if isinstance(solution, BangBangSolution) and isinstance(prob, MinTimeProblem):
        return _min_time_argmin(solution, prob, u_grid)
    raise TypeError("unsupported solution/problem pairing")


def _lq_residuals(sol: TpbvpSolution, prob: TpbvpProblem) -> HamiltonianResiduals:
    A, B = prob.sys.A, prob.sys.B
    t = sol.trajectory.times
    X = sol.trajectory.states
    Lam = sol.costate
    U = sol.control
    # centred differences at the inner samples; each product is one gemv and
    # each norm one ddot per sample, which keep the bits of M.dot(v) and
    # r.dot(r), where one gemm over all samples would not (numkit.matvecs)
    dt = (t[2:] - t[:-2])[:, None]
    dX = (X[2:] - X[:-2]) / dt
    dL = (Lam[2:] - Lam[:-2]) / dt
    Xk, Uk, Lk = X[1:-1], U[1:-1], Lam[1:-1]
    matvecs = numkit.matvecs
    return HamiltonianResiduals(
        state_residual=_largest_norm(dX - (matvecs(A, Xk) + matvecs(B, Uk))),
        costate_residual=_largest_norm(dL + matvecs(prob.Q, Xk)
                                       + matvecs(A.T, Lk)),
        stationarity_residual=_largest_norm(matvecs(prob.R, U)
                                            + matvecs(B.T, Lam)),
    )


def _largest_norm(rows) -> float:
    """The largest Euclidean norm of the rows, 0.0 for none, passing over a
    NaN norm as max(norm, ...) does. Each norm is sqrt(r.r), one ddot per
    row; (rows * rows).sum(1) would round differently."""
    squares = np.matmul(rows[:, None, :], rows[:, :, None]).ravel()
    return float(np.fmax.reduce(np.sqrt(squares), initial=0.0))


def _argmin_report(times, h_grid, h_star, switches) -> ArgminReport:
    """The samples where the solution's Hamiltonian h_star exceeds the least
    of its row of h_grid by more than 1e-9 relative, and their farthest
    distance to a switching time."""
    worse = h_star > h_grid.min(axis=1) + 1e-9 * (1.0 + np.abs(h_star))
    bad = times[worse].tolist()
    gap = max((abs(t - s) for t in bad for s in switches), default=0.0)
    return ArgminReport(violations=tuple(bad), samples=times.size,
                        max_gap_to_switch=gap)


def _bilinear_argmin(sol, prob, u_grid):
    if u_grid is None:
        u_grid = np.linspace(0.0, 1.0, 11)
    times = np.linspace(0.0, prob.t1, 201)
    x = bilinear_states(sol, prob.x0, times)[:, None]
    p = bilinear_costates(sol, times)[:, None]

    def h(u):  # (u - 1) x + p u x, one column per input value
        return (u - 1.0) * x + p * u * x

    return _argmin_report(times, h(np.asarray(u_grid, dtype=float)),
                          h(sol.controls_at(times)[:, None])[:, 0],
                          sol.switching_times[:1])


def _min_time_argmin(sol, prob, u_grid):
    if u_grid is None:
        u_grid = np.linspace(-1.0, 1.0, 21)
    if sol.terminal_time == 0.0:
        return ArgminReport(violations=(), samples=0, max_gap_to_switch=0.0)
    times = np.linspace(0.0, sol.terminal_time, 201)
    vel = min_time_states(sol, prob.x0, times)[:, 1:]
    p = min_time_costates(sol, times)
    base = 1.0 + p[:, :1] * vel

    def h(u):  # 1 + p1 x2 + p2 u, one column per input value
        return base + p[:, 1:] * u

    return _argmin_report(times, h(np.asarray(u_grid, dtype=float)),
                          h(sol.controls_at(times)[:, None])[:, 0],
                          sol.switching_times)
