"""Dense matrix and polynomial kit used by every other module.

Conventions fixed here for the whole package:

* matrices are numpy arrays (real float64 unless stated otherwise),
* polynomial coefficient arrays are ordered highest degree first,
  with the zero polynomial represented as [0].
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    BackendFailure,
    IllConditioned,
    NonSquare,
    NotSymmetric,
    Overflow,
    SingularBasis,
    WorkBudgetExceeded,
)

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# validation helpers


def as_matrix(A, dtype=float) -> np.ndarray:
    M = np.atleast_2d(np.asarray(A, dtype=dtype))
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def require_square(A) -> np.ndarray:
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    return M


def as_vector(x, dtype=float) -> np.ndarray:
    v = np.asarray(x, dtype=dtype).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def matvecs(M, V) -> np.ndarray:
    """Row k is M[k] @ V[k], or M @ V[k] for one matrix M.

    Each row is one BLAS gemv (a ddot for a one-row M), the call M.dot(v)
    makes, so the rows keep its bits; one gemm over all rows (V @ M.T) or
    np.einsum sums in another order and does not."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# LAPACK beyond numpy


@cache
def lapack():
    """scipy's LAPACK extension module, for the routines numpy lacks (dgees).

    The module is loaded from its file, scipy/linalg/_flapack*.so, without
    running scipy/__init__ or scipy/linalg/__init__: importing the scipy.linalg
    package costs about 0.24 s and 20 MB per process, the extension alone a
    few ms. The extension registers itself as scipy.linalg._flapack, so a
    later import of scipy.linalg reuses it. When the file cannot be found or
    loaded, this returns scipy.linalg.lapack, which exposes the same routines.
    """
    import importlib.machinery
    import importlib.util
    import os

    spec = None
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.origin is not None:
        folder = os.path.join(os.path.dirname(scipy.origin), "linalg")
        paths = [os.path.join(folder, "_flapack" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        found = [path for path in paths if os.path.isfile(path)]
        if found:
            spec = importlib.util.spec_from_file_location(
                "scipy.linalg._flapack", found[0])
    if spec is not None:
        try:
            # module_from_spec loads the shared object and runs its init
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass
    from scipy.linalg import lapack as module

    return module


# ---------------------------------------------------------------------------
# eigenstructure


@dataclass(frozen=True)
class EigenStructure:
    """Eigenvalues with multiplicity bookkeeping and right eigenvectors.

    values lists every eigenvalue with its algebraic multiplicity;
    right_vectors holds the corresponding unit eigenvector columns.
    distinct_values / algebraic_multiplicity / geometric_multiplicity are
    parallel per-distinct-eigenvalue arrays. geometric_multiplicity and
    is_diagonalizable cost one SVD per distinct eigenvalue and are computed
    from the kept matrix on first read.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    distinct_values: np.ndarray
    algebraic_multiplicity: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def geometric_multiplicity(self) -> np.ndarray:
        geo = np.array([next(power_null_bases(self.matrix, lam)).shape[1]
                        for lam in self.distinct_values], dtype=int)
        return np.minimum(np.maximum(geo, 1), self.algebraic_multiplicity)

    @cached_property
    def is_diagonalizable(self) -> bool:
        return bool(np.all(self.geometric_multiplicity == self.algebraic_multiplicity))


def eigen(A, tol: float | None = None) -> EigenStructure:
    """Full eigenstructure of a square matrix.

    Conjugate pairing for real input is inherited from the backend solver.
    Eigenvalues within tol of a group's first one (group_roots) are one
    distinct value, the running mean of its members in order. Geometric
    multiplicities are the null-space dimensions of (A - lambda I) from
    power_null_bases; they are left undone until a caller reads them.
    """
    M = require_square(A)
    n = M.shape[0]
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise BackendFailure(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(values))) if n else 1.0)
    if tol is None:
        tol = n * _EPS * scale * 64
    groups = group_roots(values, tol)
    distinct = values.astype(complex)
    if len(groups) < n:
        # each group's value is the running mean of its members, as they
        # join in index order
        distinct = distinct[[members[0] for members in groups]]
        for g, members in enumerate(groups):
            rep = complex(distinct[g])
            for count, i in enumerate(members[1:], 1):
                rep = (rep * count + values[i]) / (count + 1)
            distinct[g] = rep
    return EigenStructure(
        values=values,
        right_vectors=vectors,
        distinct_values=distinct,
        algebraic_multiplicity=np.array(list(map(len, groups))),
        matrix=M,
    )


def rank(A, tol: float | None = None) -> int:
    """Numerical rank by singular values.

    Default cutoff is n * eps * sigma_max with n the larger dimension.
    """
    M = np.atleast_2d(np.asarray(A))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if tol is None:
        tol = max(M.shape) * _EPS * float(s[0])
    return int(np.count_nonzero(s > tol))


def power_null_bases(A, lam, tol: float = 1e-8):
    """Orthonormal bases of null(N^k) for k = 1, 2, ..., with N = A - lam I.

    A singular value of N^k counts toward its rank when it exceeds
    tol ||A||_1^k, so the ranks do not change when A is scaled. These ranks
    of powers fix the Jordan structure at lam (Golub & Wilkinson, SIAM
    Rev. 18(4), 1976). The cutoff follows A and not N: when A is lam I up
    to rounding, N is all rounding and has no rank. The generator is
    endless; each step costs one product and one SVD.
    """
    N = A - lam * np.eye(A.shape[0])
    norm = float(np.linalg.norm(A, 1))
    power, cutoff = N, tol * norm
    while True:
        _, s, vh = np.linalg.svd(power)
        yield vh[int(np.count_nonzero(s > cutoff)):].conj().T
        power, cutoff = power @ N, cutoff * norm


# ---------------------------------------------------------------------------
# root matching


def match_roots(targets, candidates, bands) -> list:
    """Candidate index per target, or None: which root is which.

    Each target in order takes the nearest candidate not yet taken, if that
    candidate lies within the target's absolute band; otherwise it gets None
    and the candidate stays free. bands is one distance for every target or
    one per target. Ties go to the lower index.
    """
    targets = [complex(t) for t in targets]
    free = {i: complex(c) for i, c in enumerate(candidates)}
    if np.ndim(bands) == 0:
        bands = [bands] * len(targets)
    out = []
    for t, band in zip(targets, bands):
        best, dist = None, float("inf")
        for i, c in free.items():
            d = abs(c - t)
            if d < dist:
                best, dist = i, d
        if best is not None and dist <= band:
            del free[best]
            out.append(best)
        else:
            out.append(None)
    return out


def group_roots(roots, bands) -> list:
    """Lists of root indices, one per group: which roots are one root.

    Each root in order joins the group whose first root is nearest to it, if
    it lies within that first root's absolute band; otherwise it starts a
    new group. bands is one distance for every root or one per root. Groups
    come in the order of their first roots, members in index order; ties go
    to the earlier group.
    """
    roots = np.asarray(roots, dtype=complex).tolist()
    if np.isscalar(bands):
        bands = [bands] * len(roots)
    firsts, reach, groups = [], [], []
    for i, r in enumerate(roots):
        if firsts:
            dists = [abs(r - first) for first in firsts]
            dist = min(dists)
            best = dists.index(dist)
            if dist <= reach[best]:
                groups[best].append(i)
                continue
        firsts.append(r)
        reach.append(bands[i])
        groups.append([i])
    return groups


# ---------------------------------------------------------------------------
# definiteness


@dataclass(frozen=True)
class DefinitenessReport:
    verdict: str  # "PD" | "PSD" | "indefinite"
    leading_minors: np.ndarray
    eigenvalues: np.ndarray


def is_positive_definite(M, sym_tol: float | None = None) -> DefinitenessReport:
    """Classify a symmetric matrix as PD, PSD or indefinite.

    PD is certified by strictly positive leading principal minors; the
    PSD / indefinite split uses the symmetric eigenvalues, since minors
    alone cannot certify semidefiniteness.
    """
    A = require_square(M)
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    if sym_tol is None:
        sym_tol = 1e-10 * scale
    if float(np.max(np.abs(A - A.T))) > sym_tol:
        raise NotSymmetric("definiteness test requires a symmetric matrix")
    S = 0.5 * (A + A.T)
    minors = np.array([np.linalg.det(S[: k + 1, : k + 1]) for k in range(n)])
    eigs = np.linalg.eigvalsh(S)
    eig_scale = max(1.0, float(np.max(np.abs(eigs))) if n else 1.0)
    if np.all(minors > 0.0) and eigs[0] > 0.0:
        verdict = "PD"
    elif eigs[0] >= -1e-10 * eig_scale:
        verdict = "PSD"
    else:
        verdict = "indefinite"
    return DefinitenessReport(verdict=verdict, leading_minors=minors, eigenvalues=eigs)


# ---------------------------------------------------------------------------
# matrix exponential

# distinct steps, so exponentials, one exact flow may take with a matrix of
# up to 32 rows, and fewer by (32 / rows)^3 beyond: an exponential costs
# 100-250 us up to 32 rows, where call overhead dominates, then grows as the
# cube, 0.47 ms at 64 rows and 6.7 ms at 200, so a flow at the budget takes
# about 0.5-5 s. Timed in process on a 2-vCPU x86 host, one BLAS thread.
EXPM_FLOW_BUDGET = 20_000


def expm(A, t: float = 1.0) -> np.ndarray:
    """e^{A t} by scaling-and-squaring of the truncated power series.

    The argument is scaled so its norm is at most 1/2, the series is summed
    to machine precision, and the result squared back.
    """
    M = require_square(A)
    n = M.shape[0]
    if t == 0.0:
        return np.eye(n)
    X = M * float(t)
    # the infinity norm as np.linalg.norm(ord=np.inf) computes it
    norm = float(abs(X).sum(axis=1).max())
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        X = X / (2.0**squarings)
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, 60):
        term = term.dot(X) / k
        total = total + term
        if abs(term).sum(axis=1).max() <= _EPS * abs(total).sum(axis=1).max():
            break
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            total = total.dot(total)
    if not np.all(np.isfinite(total)):
        raise Overflow("matrix exponential overflowed the representable range")
    return total


def expm_flow(M, z0, times) -> np.ndarray:
    """Samples of dz/dt = M z, z(times[0]) = z0, on an increasing grid.

    One exact step per interval; steps equal to 12 significant digits share
    one exponential. More such distinct steps than EXPM_FLOW_BUDGET allows
    for the size of M raise WorkBudgetExceeded before the first exponential.
    The march stops early, returning only the rows reached, when a step's
    exponential or the state leaves the finite range.
    """
    M = require_square(M)
    z = as_vector(z0)
    dts = np.diff(np.asarray(times, dtype=float)).tolist()
    key_of = {dt: float(f"{dt:.11e}") for dt in set(dts)}
    distinct = len(set(key_of.values()))
    budget = int(EXPM_FLOW_BUDGET * min(1.0, (32 / M.shape[0]) ** 3))
    if distinct > budget:
        raise WorkBudgetExceeded(
            f"exact flow of a {M.shape[0]}-row matrix needs {distinct} matrix "
            f"exponentials, one per distinct step, over the budget of {budget}")
    rows = [z]
    by_key: dict[float, np.ndarray] = {}
    by_dt: dict[float, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for dt in dts:
            E = by_dt.get(dt)
            if E is None:
                key = key_of[dt]
                if key not in by_key:
                    try:
                        by_key[key] = expm(M, dt)
                    except Overflow:
                        break
                E = by_dt[dt] = by_key[key]
            z = E.dot(z)
            rows.append(z)
    rows = np.array(rows)
    # z0 is finite, so a cut keeps row 0
    finite = np.isfinite(rows).all(axis=1)
    return rows if finite.all() else rows[:int(np.argmin(finite))]


def expm_gramian(A, Q, t: float) -> np.ndarray:
    """W(t) = integral over [0, t] of e^{A s} Q e^{A' s} ds, for t >= 0.

    Van Loan (IEEE TAC 23(3), 1978): e^{[[-A, Q], [0, A']] h} holds e^{A' h}
    and e^{-A h} W(h). That block grows like e^{||A|| h} and loses W to
    cancellation, so h = t / 2^k with ||A||_1 h <= 1, and the doubling
    W(2h) = W(h) + e^{A h} W(h) e^{A' h} carries W from h to t.
    """
    A = require_square(A)
    Q = as_matrix(Q)
    n = A.shape[0]
    reach = float(np.linalg.norm(A, 1)) * float(t)
    doublings = int(np.ceil(np.log2(reach))) if reach > 1.0 else 0
    h = float(t) / 2.0**doublings
    F = expm(np.block([[-A, Q], [np.zeros((n, n)), A.T]]), h)
    E = F[n:, n:].T
    W = E @ F[:n, n:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(doublings):
            W = W + E @ W @ E.T
            E = E @ E
    if not np.all(np.isfinite(W)):
        raise Overflow("grammian overflowed the representable range")
    return W


# ---------------------------------------------------------------------------
# time-varying flows


def rk4_march(rate, coeff, t, y, h, steps, *, start=None, settle=None):
    """Classical fourth-order steps of dy/dt = rate(y, coeff(t)) from y at t.

    Yields (t, y, coeff(t)) after each step; h may be negative. coeff is
    called at t, unless start already holds that value, and then twice per
    step: at the midpoint, whose value k2 and k3 share, and at the end,
    whose value the next step starts from. So coeff must be a pure function
    of t. settle, when given, maps each new y before it is yielded and
    stepped from.

    y is an ndarray, or a list of floats for which rate returns a list:
    then each stage runs the same formula element by element on Python
    floats, whose + and * round as numpy's elementwise ones do, so the
    steps have the same bits and skip numpy's per-call cost on small
    states.
    """
    floats = type(y) is list
    if floats:
        t, h = float(t), float(h)
    h2, h6 = h / 2, h / 6
    c = coeff(t) if start is None else start
    for _ in range(steps):
        mid, end = coeff(t + h2), coeff(t + h)
        k1 = rate(y, c)
        if floats:
            k2 = rate([a + h2 * b for a, b in zip(y, k1)], mid)
            k3 = rate([a + h2 * b for a, b in zip(y, k2)], mid)
            k4 = rate([a + h * b for a, b in zip(y, k3)], end)
            y = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        else:
            k2 = rate(y + h2 * k1, mid)
            k3 = rate(y + h2 * k2, mid)
            k4 = rate(y + h * k3, end)
            y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if settle is not None:
            y = settle(y)
        t, c = t + h, end
        yield t, y, c


def rk4_stage_times(t, h, steps) -> list:
    """The times rk4_march(rate, coeff, t, y, h, steps) calls coeff at, in
    order and formed by the same floating-point operations."""
    h2 = h / 2
    out = [t]
    for _ in range(steps):
        out.append(t + h2)
        t = t + h
        out.append(t)
    return out


def sample_interpolant(times, samples):
    """Piecewise-linear function of t through samples[k] at increasing times[k].

    t is clamped into [times[0], times[-1]] and then weighted as
    (1 - w) samples[i] + w samples[i + 1], the ends included. Given a 1-D
    array of times, the function returns the stack of its values at them,
    computed by the same operations on each element; its attribute
    vectorized tells it from callables that take one time only.
    """
    ts = np.asarray(times, dtype=float)
    samples = np.asarray(samples)
    tl = ts.tolist()
    last = len(tl) - 2
    trailing = (1,) * (samples.ndim - 1)

    def at(t):
        if isinstance(t, np.ndarray) and t.ndim == 1:
            t = np.minimum(np.maximum(t.astype(float), tl[0]), tl[-1])
            i = np.minimum(np.searchsorted(ts, t, side="right") - 1, last)
            w = ((t - ts[i]) / (ts[i + 1] - ts[i])).reshape(-1, *trailing)
            return (1.0 - w) * samples[i] + w * samples[i + 1]
        t = min(max(float(t), tl[0]), tl[-1])
        i = min(bisect.bisect_right(tl, t) - 1, last)
        w = (t - tl[i]) / (tl[i + 1] - tl[i])
        return (1.0 - w) * samples[i] + w * samples[i + 1]

    at.vectorized = True
    return at


def vectorized(*fs) -> bool:
    """Whether every callable takes a 1-D array of times and returns the
    stack of its values: its attribute vectorized, as sample_interpolant's."""
    return all(getattr(f, "vectorized", False) for f in fs)


def stack_at(f, ts) -> np.ndarray:
    """The stack of the matrices f(t) at a 1-D array of times ts, checked as
    as_matrix checks one: one call for a vectorized f, else one per time."""
    if vectorized(f):
        return as_matrix(f(ts))
    return np.array([as_matrix(f(t)) for t in ts])


# ---------------------------------------------------------------------------
# quadratic regulators


def hamiltonian(A, B, Q, R):
    """Coupled state-costate flow matrix H = [[A, -S], [-Q, -A']].

    Returns (H, R^-1, S) with S = B R^-1 B'. A, B and Q may be stacks of
    matrices (one H per leading index), with one R for all of them;
    Q = 0 and R = I give the minimum-energy steering flow.
    """
    Rinv = np.linalg.solve(R, np.eye(R.shape[0]))
    S = B @ Rinv @ B.swapaxes(-1, -2)
    return np.block([[A, -S], [-Q, -A.swapaxes(-1, -2)]]), Rinv, S


# ---------------------------------------------------------------------------
# low-discrepancy points


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput point: index in base b, digits mirrored about the radix point."""
    f, r, i = 1.0, 0.0, index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


# ---------------------------------------------------------------------------
# bases


def representation(E, x) -> np.ndarray:
    """Coefficients beta with E beta = x for basis columns E."""
    M = require_square(E)
    v = as_vector(x)
    if rank(M) < M.shape[0]:
        raise SingularBasis("basis columns are linearly dependent")
    return np.linalg.solve(M, v)


def basis_grammian_and_reciprocal(V):
    """Inner-product matrix of the basis columns and the reciprocal rows.

    Returns (G, R) with G[i][j] = <v_i, v_j> and R = V^{-1} (so R V = I).
    """
    M = require_square(V)
    if rank(M) < M.shape[0]:
        raise SingularBasis("basis columns are linearly dependent")
    G = M.T @ M
    R = np.linalg.solve(M, np.eye(M.shape[0]))
    return G, R


# ---------------------------------------------------------------------------
# small-scale Jordan-like form


@dataclass(frozen=True)
class JordanLikeForm:
    transform: np.ndarray
    block_spec: tuple  # ((eigenvalue, size), ...)
    form: np.ndarray


def jordan_like(A, tol: float = 1e-8) -> JordanLikeForm:
    """Eigenvector-chain canonical form for small (order <= 8) matrices.

    Chains satisfy (A - lambda I) x_{grade k} = x_{grade k-1}.  Intended for
    integer-like matrices only; ambiguous rank decisions raise IllConditioned.
    Chain tops are picked from the top grade down: at grade k, the leading
    singular directions of null(N^k) projected off null(N^(k-1)) and off
    the grade-k links of the longer chains, all of which lie in null(N^k).
    """
    M = require_square(A)
    n = M.shape[0]
    if n > 8:
        raise ValueError("chain construction is limited to order <= 8")
    es = eigen(M, tol=max(tol, 1e-7 * max(1.0, float(np.max(np.abs(M))))))

    columns: list[np.ndarray] = []
    spec: list[tuple[complex, int]] = []
    for lam, alg in zip(es.distinct_values, es.algebraic_multiplicity):
        N = M - lam * np.eye(n)
        nulls = [np.zeros((n, 0))]  # bases of null(N^k), k = 0, 1, ...
        for Z in power_null_bases(M, lam, tol):
            if Z.shape[1] <= nulls[-1].shape[1]:
                raise IllConditioned(
                    "generalized eigenspace dimensions stagnated before reaching "
                    "the algebraic multiplicity"
                )
            nulls.append(Z)
            if Z.shape[1] >= alg:
                break
        chains: list[list[np.ndarray]] = []  # each x, N x, ..., from its top
        for k in range(len(nulls) - 1, 0, -1):
            want = nulls[k].shape[1] - nulls[k - 1].shape[1] - len(chains)
            if want < 0:
                raise IllConditioned("null-space dimensions fit no chain structure")
            if want == 0:
                continue
            links = [chain[len(chain) - k] for chain in chains]
            Q = np.linalg.qr(np.column_stack([nulls[k - 1], *links]))[0]
            u, s, _ = np.linalg.svd(nulls[k] - Q @ (Q.conj().T @ nulls[k]))
            if s[want - 1] <= max(tol, 1e-6):
                raise IllConditioned(
                    "could not separate eigenvector chains at the given tolerance"
                )
            for j in range(want):
                chain = [u[:, j]]
                for _ in range(k - 1):
                    chain.append(N @ chain[-1])
                chains.append(chain)
        for chain in chains:
            foot = chain[-1]
            norm = np.linalg.norm(foot)
            if norm < tol:
                raise IllConditioned("degenerate chain foot")
            # scale so the grade-1 vector is unit with a positive leading entry
            lead = foot[np.argmax(np.abs(foot))]
            scale = norm * (lead / abs(lead))
            columns.extend(v / scale for v in reversed(chain))
            spec.append((complex(lam), len(chain)))

    if len(columns) != n:
        raise IllConditioned(
            f"eigenvector chains give {len(columns)} columns for order {n}")
    T = np.column_stack(columns)
    if rank(T, tol=None) < n:
        raise IllConditioned("chain vectors do not form a basis")
    form = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in spec:
        for i in range(size):
            form[pos + i, pos + i] = lam
            if i + 1 < size:
                form[pos + i, pos + i + 1] = 1.0
        pos += size
    # drop negligible imaginary parts for real-spectrum input
    if np.max(np.abs(T.imag)) < 1e-9 * max(1.0, np.max(np.abs(T.real))):
        T = T.real.copy()
        form = form.real.copy()
        spec = [(complex(lam).real if abs(complex(lam).imag) < 1e-9 else lam, s) for lam, s in spec]
    recon = T @ form @ np.linalg.inv(T)
    if float(np.max(np.abs(recon - M))) > 1e-6 * max(1.0, float(np.max(np.abs(M)))):
        raise IllConditioned("reconstruction residual exceeds the small-scale guard")
    return JordanLikeForm(transform=T, block_spec=tuple(spec), form=form)


# ---------------------------------------------------------------------------
# characteristic polynomial and resolvent tableau


def char_poly_and_adjugate(A):
    """Characteristic polynomial and the adjugate tableau of (sI - A).

    Returns (a, tableau) where a is the monic characteristic polynomial
    (highest first, length n+1) and tableau is the list T_0..T_{n-1} with
    adj(sI - A) = sum_k s^{n-1-k} T_k.  Classical trace recursion.
    """
    M = require_square(A)
    n = M.shape[0]
    coeffs = [1.0]
    T = np.eye(n)
    tableau = [T]
    for k in range(1, n + 1):
        W = M @ T
        c = -np.trace(W) / k
        coeffs.append(float(c))
        T = W + c * np.eye(n)
        if k < n:
            tableau.append(T)
    return np.array(coeffs), tableau


def char_poly(A) -> np.ndarray:
    return char_poly_and_adjugate(A)[0]


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients highest degree first)


def poly_trim(c, tol: float = 0.0) -> np.ndarray:
    a = np.atleast_1d(np.asarray(c, dtype=complex))
    if np.all(np.abs(a.imag) < 1e-12 * max(1.0, float(np.max(np.abs(a))))):
        a = a.real.astype(float)
    cutoff = tol if tol > 0 else 0.0
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    i = 0
    while i < a.size - 1 and abs(a[i]) <= cutoff * max(1.0, scale):
        i += 1
    out = a[i:]
    if out.size == 1 and out[0] == 0:
        return np.array([0.0])
    return out


def poly_degree(c) -> int:
    a = poly_trim(c)
    if a.size == 1 and a[0] == 0:
        return -1  # zero polynomial
    return a.size - 1


def poly_from_roots(roots) -> np.ndarray:
    return np.atleast_1d(np.poly(np.asarray(roots))) if len(roots) else np.array([1.0])


def poly_roots(a):
    """Roots of one polynomial, or one root array per row of a 2-D stack,
    with np.roots' bits and conventions.

    Each row is cast to real and trimmed of leading zeros as poly_trim does,
    once; a row of degree below 1 has no roots. The rows with the same
    counts of leading and trailing exact zeros share one eigvals call on
    their companion matrices diag(ones(N - 2), -1) with first row
    -p[1:] / p[0] (Edelman & Murakami, Math. Comp. 64(210), 1995). As
    np.roots does for each row: the roots are real when every imaginary part
    is 0, and each trailing zero adds a zero root.
    """
    p = np.asarray(a)
    rows = p if p.ndim == 2 else np.atleast_1d(p)[None]
    top = np.abs(rows).max(axis=1)  # nan if a row holds one
    if rows.dtype.kind == "c":
        real = (np.abs(rows.imag) < 1e-12 * np.fmax(1.0, top)[:, None]).all(axis=1)
        rows = np.where(real[:, None], rows.real, rows)
    else:
        real = np.ones(rows.shape[0], dtype=bool)
        rows = rows.astype(float, copy=False)
    width = rows.shape[1]
    nonzero = rows != 0
    lead = nonzero.argmax(axis=1)
    trail = nonzero[:, ::-1].argmax(axis=1)
    # poly_trim keeps every zero of a row whose largest magnitude is inf
    kept = np.where(top == np.inf, width, width - lead)
    roots, groups = [], {}
    for i, (lo, tz, re, has, k) in enumerate(zip(
            lead.tolist(), trail.tolist(), real.tolist(),
            nonzero.any(axis=1).tolist(), kept.tolist())):
        if not has or k < 2:
            roots.append(np.array([], dtype=complex))
        elif width - lo - tz < 2:
            roots.append(np.zeros(tz))
        else:
            groups.setdefault((lo, tz, re), []).append(i)
            roots.append(None)
    for (lo, tz, re), members in groups.items():
        c = rows[members, lo:width - tz]
        if re:
            c = c.real
        m = c.shape[1] - 1
        A = np.zeros((len(members), m, m), dtype=c.dtype)
        A[:, 0, :] = -c[:, 1:] / c[:, :1]
        A[:, np.arange(1, m), np.arange(m - 1)] = 1
        W = np.linalg.eigvals(A)
        W = np.concatenate((W, np.zeros((len(members), tz), W.dtype)), axis=1)
        # eigvals drops the imaginary parts only if the whole stack is real
        cast = re and W.dtype.kind == "c"
        for i, w in zip(members, W):
            roots[i] = w.real.copy() if cast and not w.imag.any() else w
    return roots if p.ndim == 2 else roots[0]


def poly_divmod(num, den):
    """Quotient and remainder of num / den by np.polydiv's long division.

    np.polydiv itself also trims leading remainder coefficients up to 1e-8
    in size, absolute, which loses a small numerator. Here the m - n + 1
    leading entries, which the division zeroes, are dropped, and after them
    only exactly-zero coefficients.
    """
    u = np.atleast_1d(num) + 0.0
    v = np.atleast_1d(den) + 0.0
    m, n = u.size - 1, v.size - 1
    scale = 1.0 / v[0]
    q = np.zeros(max(m - n + 1, 1), (u[0] + v[0]).dtype)
    r = u.astype(q.dtype)
    for k in range(m - n + 1):
        q[k] = scale * r[k]
        r[k:k + n + 1] -= q[k] * v
    r = r[max(m - n + 1, 0):]
    return q, poly_trim(r) if r.size else np.array([0.0])


def poly_reflect(a) -> np.ndarray:
    """Coefficients of p(-s) given those of p(s)."""
    c = np.array(np.atleast_1d(a), dtype=float, copy=True)
    deg = c.size - 1
    for i in range(c.size):
        power = deg - i
        if power % 2 == 1:
            c[i] = -c[i]
    return c
