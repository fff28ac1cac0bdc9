"""State-transition evaluators and time-domain simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numkit
from .errors import (
    IllConditionedVandermonde,
    NotDiagonalizable,
    RepeatedEigenvalues,
    SingularFundamental,
    WorkBudgetExceeded,
)
from .model import LtvModel, NonlinearModel, StateSpace

_EPS = float(np.finfo(float).eps)
_FLOAT = np.dtype(float)

# total Simpson substeps a callable-input LTI simulation, and total
# fourth-order steps a time-varying or nonlinear one, may take: about 2-5 s
# at the 11-21 us per substep and the 13-26 us per step of a sampled
# time-varying model, and about 1 s at the 4.5-4.9 us per step of the
# pendulum and vanderpol (min of 20 runs), measured for 2-state models on a
# shared 2-vCPU x86 host, one BLAS thread. A longer run raises
# WorkBudgetExceeded before it starts.
SUBSTEP_BUDGET = 200_000


@dataclass(frozen=True)
class StateTransition:
    """Two-argument propagator phi(t, tau) mapping state at tau to state at t."""

    evaluator: Callable[[float, float], np.ndarray]
    method: str
    n: int

    def __call__(self, t: float, tau: float) -> np.ndarray:
        return self.evaluator(float(t), float(tau))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    truncated: bool = False


# ---------------------------------------------------------------------------
# constant-coefficient propagators


def stm_series(A) -> StateTransition:
    """Propagator through the scaled-and-squared power series."""
    A = numkit.require_square(A)

    def ev(t, tau, _A=A):
        return numkit.expm(_A, t - tau)

    return StateTransition(evaluator=ev, method="series", n=A.shape[0])


def stm_cayley_hamilton(A, cond_limit: float = 1e12) -> StateTransition:
    """Propagator as a degree n-1 matrix polynomial.

    The coefficient functions come from a Vandermonde solve over the
    eigenvalues, so the eigenvalues must be simple; the conditioning of
    that solve does not depend on t and is checked once.
    """
    A = numkit.require_square(A)
    n = A.shape[0]
    eig = numkit.eigen(A)
    if len(eig.distinct_values) != n:
        raise RepeatedEigenvalues("coefficient system needs simple eigenvalues")
    lam = np.asarray(eig.values, dtype=complex)
    V = np.vander(lam, n, increasing=True)  # V[i, k] = lam_i**k
    if np.linalg.cond(V) > cond_limit:
        raise IllConditionedVandermonde(
            f"coefficient system condition exceeds {cond_limit:.1e}"
        )
    powers = [np.linalg.matrix_power(A, k) for k in range(n)]

    def beta(dt, _V=V, _lam=lam):
        return np.linalg.solve(_V, np.exp(_lam * dt))

    def ev(t, tau, _powers=powers, _beta=beta):
        b = _beta(t - tau)
        out = sum(bk * Pk for bk, Pk in zip(b, _powers))
        return np.real(out)

    ev.beta = beta  # exposed for coefficient checks
    return StateTransition(evaluator=ev, method="cayley-hamilton", n=n)


def stm_modal(A) -> StateTransition:
    """Propagator through the eigenvector basis; diagonalizable matrices only."""
    A = numkit.require_square(A)
    eig = numkit.eigen(A)
    if not eig.is_diagonalizable:
        raise NotDiagonalizable("matrix has a defective eigenvalue")
    M = eig.right_vectors
    lam = eig.values
    Minv = np.linalg.solve(M, np.eye(A.shape[0]))

    def ev(t, tau, _M=M, _lam=lam, _Mi=Minv):
        return np.real(_M @ np.diag(np.exp(_lam * (t - tau))) @ _Mi)

    return StateTransition(evaluator=ev, method="modal", n=A.shape[0])


# ---------------------------------------------------------------------------
# time-varying propagators


def _segments(t0, t1, breaks):
    """Split [t0, t1] at interior discontinuity points."""
    pts = [t0] + [b for b in breaks if t0 < b < t1] + [t1]
    return list(zip(pts[:-1], pts[1:]))


class _HermiteTable:
    """Dense output for a matrix ODE from nodal values and derivatives."""

    def __init__(self, ts, Us, dUs):
        self.ts = np.asarray(ts)
        self.Us = Us
        self.dUs = dUs

    def __call__(self, t):
        ts = self.ts
        if t <= ts[0]:
            return self.Us[0]
        if t >= ts[-1]:
            return self.Us[-1]
        i = int(np.searchsorted(ts, t, side="right") - 1)
        i = min(i, ts.size - 2)
        h = ts[i + 1] - ts[i]
        s = (t - ts[i]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * self.Us[i] + h10 * h * self.dUs[i]
                + h01 * self.Us[i + 1] + h11 * h * self.dUs[i + 1])


@np.errstate(over="ignore", invalid="ignore")
def fundamental_matrix_ltv(
    model: LtvModel, t0: float, t1: float, max_step: float = None
) -> StateTransition:
    """Fundamental solution of dx/dt = A(t) x on [t0, t1].

    Classical fourth-order stepping (numkit.rk4_march) in the steps of
    _plan, with nodes forced onto the declared discontinuity points, so a
    march over SUBSTEP_BUDGET steps raises WorkBudgetExceeded before the
    first one; evaluation between nodes uses cubic Hermite interpolation of
    the stored solution and its derivative.
    """
    n = model.n
    span = float(t1) - float(t0)
    if span <= 0:
        raise ValueError("need t1 > t0")
    if max_step is None:
        max_step = span / 800.0
    [pieces] = _plan([t0, t1], max_step, model.piecewise_continuity_breaks)

    def A(t):
        return numkit.as_matrix(model.A(t))

    start = A(t0)
    ts = [t0]
    Us = [np.eye(n)]
    dUs = [start @ Us[0]]
    for a, h, steps in pieces:
        for t, U, At in numkit.rk4_march(lambda U, At: At.dot(U), A, a, Us[-1],
                                         h, steps, start=start):
            ts.append(t)
            Us.append(U)
            dUs.append(At.dot(U))
        start = None
    table = _HermiteTable(ts, Us, dUs)

    def ev(t, tau, _tab=table):
        Ut = _tab(t)
        Utau = _tab(tau)
        try:
            sol = np.linalg.solve(Utau.T, Ut.T).T
        except np.linalg.LinAlgError as exc:
            raise SingularFundamental(str(exc)) from exc
        if not np.all(np.isfinite(sol)):
            raise SingularFundamental("fundamental solution lost invertibility")
        return sol

    return StateTransition(evaluator=ev, method="ltv-fundamental", n=n)


def peano_baker(A_of_t, t0: float, t1: float, iterations: int = 4,
                grid_points: int = 401) -> np.ndarray:
    """Truncated iterated-integral approximation of the propagator.

    Trapezoid quadrature on a uniform grid; iteration k adds the k-fold
    integral term, so constant coefficients reproduce the power series
    through order k exactly.  Accepts either a matrix-valued callable or
    a time-varying model carrying one in its ``A`` attribute.
    """
    if hasattr(A_of_t, "A"):
        A_of_t = A_of_t.A
    taus = np.linspace(float(t0), float(t1), int(grid_points))
    n = numkit.require_square(A_of_t(t0)).shape[0]
    Avals = [numkit.as_matrix(A_of_t(t)) for t in taus]
    phi = [np.eye(n) for _ in taus]
    for _ in range(int(iterations)):
        integrand = [Avals[j] @ phi[j] for j in range(len(taus))]
        new = [np.eye(n)]
        acc = np.zeros((n, n))
        for j in range(1, len(taus)):
            h = taus[j] - taus[j - 1]
            acc = acc + (h / 2.0) * (integrand[j] + integrand[j - 1])
            new.append(np.eye(n) + acc)
        phi = new
    return phi[-1]


# ---------------------------------------------------------------------------
# simulation


def _input_function(u, m):
    if callable(u):
        return lambda t: np.asarray(u(t), dtype=float).reshape(m)
    const = np.zeros(m) if u is None else np.asarray(u, dtype=float).reshape(m)
    return lambda t: const


def simulate(model, x0, times, u=None, max_step: float = None) -> Trajectory:
    """March the state across the sample grid and record inputs and outputs.

    A constant-coefficient model with no or a constant input is exact:
    [x; u] follows the flow of [[A, B], [0, 0]] and max_step is not used.
    With a callable input it uses the exact interval propagator and a
    Simpson rule for the forced term. Time-varying and nonlinear models use
    fixed-step fourth-order integration (numkit.rk4_march),
    ceil((b - a) / max_step) steps on each piece [a, b] between samples and
    breaks; that ceil is taken in floating point and can exceed the ideal
    count by one (3 steps for a 0.02 interval at max_step 0.01). Either way
    a run over SUBSTEP_BUDGET substeps or steps in all raises
    WorkBudgetExceeded before the first one, and max_step must be > 0. There a
    time-varying model's A(t) and B(t) and a callable input u(t) are
    evaluated once per distinct stage time, so they must be pure functions
    of t; sampled A and B (numkit.sample_interpolant) under a constant input
    are interpolated for a whole table of stage times in one call. A
    nonlinear model whose f has a true takes_lists attribute (the builtin
    pendulum and vanderpol, see registry) gets its state and input as lists
    of floats and is marched on them, with the bits of the array march. A
    non-finite state or exponential stops the run early and marks the
    result truncated.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing with at least two samples")
    if max_step is not None and not max_step > 0:
        raise ValueError("max_step must be positive")
    if isinstance(model, StateSpace):
        return _simulate_lti(model, x0, times, u, max_step)
    uf = _input_function(u, model.m)
    x0 = numkit.as_vector(x0).astype(float)
    if isinstance(model, LtvModel):
        def coeff(t):
            return (numkit.as_matrix(model.A(t)),
                    numkit.as_matrix(model.B(t)) @ uf(t))

        if (getattr(model.C, "vectorized", False)
                and getattr(model.D, "vectorized", False)):
            output = None  # rows by the block, in _sampled_outputs
        else:
            def output(x, v, t):
                return (numkit.as_matrix(model.C(t)) @ x
                        + numkit.as_matrix(model.D(t)) @ v)

        block = None
        if (getattr(model.A, "vectorized", False)
                and getattr(model.B, "vectorized", False) and not callable(u)):
            held = uf(times[0])

            def block(ts):
                As, Bs = model.A(ts), model.B(ts)
                if np.isfinite(As).all() and np.isfinite(Bs).all():
                    return list(zip(As, Bs @ held))
                return None

        states = march_samples(lambda x, c: c[0].dot(x) + c[1], coeff, x0, times,
                               max_step, model.piecewise_continuity_breaks,
                               block)
    elif isinstance(model, NonlinearModel):
        if getattr(model.f, "takes_lists", False):
            # march on Python floats (numkit.rk4_march)
            x0 = x0.tolist()
            held = None if callable(u) else uf(times[0]).tolist()

            def coeff(t):
                return (uf(t).tolist() if held is None else held), t

            def rate(x, c):
                return model.f(x, *c)
        else:
            shape = (model.n,)

            def coeff(t):
                return uf(t), t

            def rate(x, c):
                r = model.f(x, *c)
                if type(r) is np.ndarray and r.dtype is _FLOAT and r.shape == shape:
                    return r
                return np.asarray(r, dtype=float).reshape(shape)

        output = model.h
        states = march_samples(rate, coeff, x0, times, max_step, ())
    else:
        raise TypeError(f"cannot simulate {type(model).__name__}")
    kept = states.shape[0]
    tkeep = times[:kept]
    inputs = np.array([uf(t) for t in tkeep]).reshape(kept, model.m)
    if output is None:
        outputs = _sampled_outputs(model, states, inputs, tkeep)
    else:
        outputs = np.array([
            np.asarray(output(states[i], inputs[i], tkeep[i]), dtype=float)
            .reshape(model.p) for i in range(kept)]).reshape(kept, model.p)
    return Trajectory(times=tkeep, states=states, inputs=inputs, outputs=outputs,
                      truncated=kept < times.size)


def _sampled_outputs(model: LtvModel, states, inputs, times) -> np.ndarray:
    """Output rows C(t) x + D(t) v of a model whose C and D take arrays of
    times: each stack is interpolated and tested once per block of about
    1 MB, raising as numkit.as_matrix does. numkit.matvecs takes each row
    with one gemv, the bits of the per-time path's C @ x + D @ v."""
    rows = max(1, (1 << 17) // (model.p * (model.n + model.m) + 1))
    out = np.empty((len(times), model.p))
    for i in range(0, len(times), rows):
        block = slice(i, i + rows)
        ts = times[block]
        Cs, Ds = numkit.as_matrix(model.C(ts)), numkit.as_matrix(model.D(ts))
        out[block] = (numkit.matvecs(Cs, states[block])
                      + numkit.matvecs(Ds, inputs[block]))
    return out


def lti_trajectory(sys: StateSpace, times, states, inputs) -> Trajectory:
    """Trajectory with outputs C x + D u; fewer state rows than times marks
    a run that stopped early, and the times are cut to match."""
    kept = states.shape[0]
    inputs = np.asarray(inputs, dtype=float).reshape(kept, sys.m)
    return Trajectory(times=times[:kept], states=states, inputs=inputs,
                      outputs=states @ sys.C.T + inputs @ sys.D.T,
                      truncated=kept < len(times))


def _simulate_lti(sys: StateSpace, x0, times, u, max_step):
    n, m = sys.n, sys.m
    x = numkit.as_vector(x0).astype(float)
    if not callable(u):
        held = _input_function(u, m)(times[0])
        flow = np.block([[sys.A, sys.B], [np.zeros((m, n + m))]])
        z = numkit.expm_flow(flow, np.concatenate([x, held]), times)
        return lti_trajectory(sys, times, z[:, :n], np.tile(held, (z.shape[0], 1)))
    uf = _input_function(u, m)
    anorm = float(np.linalg.norm(sys.A, 1)) if n else 0.0
    states = [x.copy()]
    cache = {}

    def props(h):
        key = round(h, 15)
        if key not in cache:
            cache[key] = (numkit.expm(sys.A, h), numkit.expm(sys.A, h / 2.0))
        return cache[key]

    dts = np.diff(times)
    if max_step is not None:
        subs = np.maximum(1.0, np.ceil(dts / max_step))
    else:
        subs = np.maximum(4.0, np.ceil(dts * max(8.0, 16.0 * anorm)))
    total = float(np.sum(subs))
    if total > SUBSTEP_BUDGET:
        raise WorkBudgetExceeded(
            f"callable-input simulation needs {total:.3g} substeps, "
            f"over the budget of {SUBSTEP_BUDGET}"
        )
    for k, (dt, sub) in enumerate(zip(dts, subs.astype(int))):
        h = dt / sub
        Eh, Eh2 = props(h)
        t = times[k]
        for _ in range(sub):
            f0 = sys.B @ uf(t)
            f1 = sys.B @ uf(t + h / 2.0)
            f2 = sys.B @ uf(t + h)
            x = Eh @ x + (h / 6.0) * (Eh @ f0 + 4.0 * (Eh2 @ f1) + f2)
            t += h
        if not np.all(np.isfinite(x)):
            break
        states.append(x.copy())
    inputs = [uf(t) for t in times[:len(states)]]
    return lti_trajectory(sys, times, np.array(states), inputs)


@np.errstate(over="ignore", invalid="ignore")
def march_samples(rate, coeff, x, times, max_step, breaks,
                  block=None) -> np.ndarray:
    """States at the samples by fourth-order steps on each piece between
    samples and breaks; fewer rows than times when the state left the
    finite range.

    block, when given, maps a 1-D array of stage times to the list of coeff
    values at them, or to None when one is not finite. The march then reads
    its coefficients from one such table per block of stage times, and
    from coeff itself from a None block on, so that coeff raises where the
    march reaches a stage it cannot take.

    x is the start state: an ndarray, or a list of floats, which
    numkit.rk4_march then marches on Python floats.
    """
    floats = type(x) is list
    if max_step is None:
        max_step = (times[-1] - times[0]) / 2000.0
    pieces = _plan(times, max_step, breaks)
    if block is not None:
        coeff = _tabled(coeff, block, pieces, x.size)
    states = [x]
    for piece in pieces:
        for a, h, steps in piece:
            for _, x, _ in numkit.rk4_march(rate, coeff, a, x, h, steps):
                # x.x is finite only if x is; it also overflows for some
                # finite x, and then the entries decide
                if not (all(map(math.isfinite, x)) if floats else
                        (math.isfinite(x.dot(x)) or np.isfinite(x).all())):
                    return np.array(states)
        states.append(x)
    return np.array(states)


def _plan(times, max_step, breaks) -> list:
    """The fourth-order steps between consecutive times: per interval, the
    (a, h, steps) of each piece [a, b] between the interval's ends and the
    breaks, with steps = ceil((b - a) / max_step), at least 1, and
    h = (b - a) / steps. More than SUBSTEP_BUDGET steps in all raises
    WorkBudgetExceeded before any is taken."""
    pieces = [[(a, b, max(1.0, np.ceil((b - a) / max_step)))
               for a, b in _segments(times[k], times[k + 1], breaks)]
              for k in range(len(times) - 1)]
    total = sum(steps for piece in pieces for _, _, steps in piece)
    if total > SUBSTEP_BUDGET:
        raise WorkBudgetExceeded(
            f"fourth-order simulation needs {total:.3g} steps, "
            f"over the budget of {SUBSTEP_BUDGET}")
    return [[(a, (b - a) / int(steps), int(steps)) for a, b, steps in piece]
            for piece in pieces]


def _tabled(coeff, block, pieces, n):
    """coeff, read from tables that block builds for the stage times of the
    pieces, about 1 MB of n x n coefficients per table."""
    rows = max(1, (1 << 17) // (n * n + 1))
    stages = [t for piece in pieces for a, h, steps in piece
              for t in numkit.rk4_stage_times(a, h, steps)]

    def tables():
        for i in range(0, len(stages), rows):
            chunk = stages[i:i + rows]
            values = block(np.array(chunk))
            if values is None:
                break
            yield dict(zip(chunk, values))
        yield None

    pending = tables()
    table = {}

    def lookup(t):
        nonlocal table
        while table is not None and t not in table:
            table = next(pending)
        return coeff(t) if table is None else table[t]

    return lookup
