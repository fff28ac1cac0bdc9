"""Transfer functions, canonical forms, and minimal realizations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import (
    ImproperTransferFunction,
    RankAmbiguous,
    RepeatedPoles,
    RepeatedPoleUnsupported,
)
from .model import StateSpace

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of polynomials, highest-degree-first, denominator monic.

    Common numerator/denominator roots are divided out at construction and
    recorded in ``cancelled_roots`` so downstream checks can flag hidden
    modes instead of silently losing them.
    """

    num: np.ndarray
    den: np.ndarray
    cancelled_roots: tuple = field(default=())

    def __post_init__(self):
        num = numkit.poly_trim(np.asarray(self.num, dtype=complex))
        den = numkit.poly_trim(np.asarray(self.den, dtype=complex))
        if numkit.poly_degree(den) < 0:
            raise ZeroDivisionError("zero denominator polynomial")
        num, den, cancelled = _cancel_common_roots(num, den)
        # monic denominator is the stored normal form
        lead = den[0]
        den = numkit.poly_trim(den / lead)
        num = numkit.poly_trim(num / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(
            self, "cancelled_roots", tuple(self.cancelled_roots) + tuple(cancelled)
        )

    @property
    def cancelled(self) -> bool:
        return len(self.cancelled_roots) > 0

    def degree(self) -> int:
        return numkit.poly_degree(self.den)

    def relative_degree(self) -> int:
        return numkit.poly_degree(self.den) - numkit.poly_degree(self.num)

    def poles(self) -> np.ndarray:
        return numkit.poly_roots(self.den)

    def zeros(self) -> np.ndarray:
        return numkit.poly_roots(self.num)

    def __call__(self, s: complex) -> complex:
        return complex(numkit.poly_eval(self.num, s) / numkit.poly_eval(self.den, s))


def _cancel_common_roots(num, den, rtol: float = 1e-7):
    """Each numerator root cancels its nearest denominator root in its band."""
    if numkit.poly_degree(num) < 1 or numkit.poly_degree(den) < 1:
        return num, den, ()
    nroots = numkit.poly_roots(num)
    droots = numkit.poly_roots(den)
    hits = numkit.match_roots(nroots, droots,
                              [rtol * (1.0 + abs(r)) for r in nroots])
    taken = [j for j in hits if j is not None]
    if not taken:
        return num, den, ()
    kept_n = [r for r, j in zip(nroots, hits) if j is None]
    kept_d = np.delete(droots, taken)
    new_num = numkit.poly_trim(num[0] * numkit.poly_from_roots(kept_n))
    new_den = numkit.poly_trim(den[0] * numkit.poly_from_roots(kept_d))
    cancelled = tuple(complex(c.real, 0.0) if abs(c.imag) < 1e-9 * (1 + abs(c)) else complex(c)
                      for c in droots[taken])
    return new_num, new_den, cancelled


def rational(num, den) -> RationalFunction:
    return RationalFunction(np.asarray(num, dtype=float), np.asarray(den, dtype=float))


@dataclass(frozen=True)
class TransferMatrix:
    """Rectangular array of rational entries, outputs by inputs."""

    entries: tuple  # tuple of tuples of RationalFunction

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("transfer matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged transfer matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def p(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> RationalFunction:
        return self.entries[i][j]

    def single(self) -> RationalFunction:
        if self.p != 1 or self.m != 1:
            raise ValueError("not a single-input single-output transfer matrix")
        return self.entries[0][0]

    def __call__(self, s: complex) -> np.ndarray:
        return np.array([[e(s) for e in row] for row in self.entries], dtype=complex)


@dataclass(frozen=True)
class ResidueExpansion:
    """Partial fractions over simple poles plus a polynomial direct part."""

    poles: np.ndarray
    residues: np.ndarray
    direct: np.ndarray  # polynomial, highest first


def residue_expansion(g: RationalFunction) -> ResidueExpansion:
    """Expansion k_i / (s - p_i); requires all denominator roots simple."""
    quot, rem = numkit.poly_divmod(g.num, g.den)
    poles = numkit.poly_roots(g.den)
    groups = numkit.group_roots(poles, [1e-7 * (1.0 + abs(p)) for p in poles])
    if len(groups) < poles.size:
        raise RepeatedPoles("denominator roots are not simple")
    dden = np.polyder(np.asarray(g.den, dtype=complex))
    residues = np.array(
        [numkit.poly_eval(rem, p) / numkit.poly_eval(dden, p) for p in poles],
        dtype=complex,
    )
    return ResidueExpansion(poles=poles, residues=residues, direct=quot)


# ---------------------------------------------------------------------------
# canonical single-input/single-output forms


def _proper_split(g: RationalFunction):
    """Return (a, b, d0): monic denominator, strictly proper numerator, feedthrough."""
    if numkit.poly_degree(g.num) > numkit.poly_degree(g.den):
        raise ImproperTransferFunction(
            "numerator degree exceeds denominator degree"
        )
    quot, rem = numkit.poly_divmod(g.num, g.den)
    if numkit.poly_degree(quot) > 0:
        raise ImproperTransferFunction("numerator degree exceeds denominator degree")
    d0 = float(np.real(quot[-1])) if numkit.poly_degree(quot) == 0 else 0.0
    a = np.real_if_close(np.asarray(g.den, dtype=complex), tol=1e6).astype(float)
    b = np.real_if_close(np.asarray(rem, dtype=complex), tol=1e6).astype(float)
    return a, b, d0


def ccf(g: RationalFunction) -> StateSpace:
    """Controllable companion realization.

    The last state row carries the negated denominator coefficients
    (constant term leftmost), the superdiagonal is ones, and the input
    enters through the last state.
    """
    a, b, d0 = _proper_split(g)
    n = numkit.poly_degree(a)
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                          np.array([[d0]]))
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -a[1:][::-1]  # lowest-order coefficient first
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    bpad = np.zeros(n)
    bl = numkit.poly_degree(b) + 1
    if bl > 0:
        bpad[:bl] = b[::-1]
    C[0, :] = bpad
    return StateSpace(A, B, C, np.array([[d0]]))


def ocf(g: RationalFunction) -> StateSpace:
    """Observable companion realization.

    First column carries the negated denominator coefficients (highest
    order at the top), the output reads the first state.
    """
    a, b, d0 = _proper_split(g)
    n = numkit.poly_degree(a)
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                          np.array([[d0]]))
    A = np.zeros((n, n))
    A[:, 0] = -a[1:]
    A[:-1, 1:] = np.eye(n - 1)
    B = np.zeros((n, 1))
    bpad = np.zeros(n)
    bl = numkit.poly_degree(b) + 1
    if bl > 0:
        bpad[n - bl:] = b
    B[:, 0] = bpad
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return StateSpace(A, B, C, np.array([[d0]]))


def _is_real_root(p, rtol=1e-9):
    return abs(p.imag) <= rtol * (1.0 + abs(p))


def modal_form(g: RationalFunction) -> StateSpace:
    """Block-diagonal realization over the simple poles.

    Real poles appear as scalar diagonal entries; each complex pair
    becomes a 2x2 rotation-like block with the pair's real part on the
    diagonal. Raises RepeatedPoles when the poles are not well separated.
    """
    a, b, d0 = _proper_split(g)
    exp = residue_expansion(RationalFunction(b, a))
    real_items = []
    pair_items = []
    for p, k in zip(exp.poles, exp.residues):
        if _is_real_root(p, rtol=1e-7):
            real_items.append((p.real, k.real))
        elif p.imag > 0:
            pair_items.append((p, k))
    real_items.sort(key=lambda t: t[0])
    pair_items.sort(key=lambda t: (t[0].real, t[0].imag))
    n = len(real_items) + 2 * len(pair_items)
    A = np.zeros((n, n))
    B = np.zeros((n, 1))
    C = np.zeros((1, n))
    i = 0
    for p, k in real_items:
        A[i, i] = p
        B[i, 0] = k
        C[0, i] = 1.0
        i += 1
    for p, k in pair_items:
        sig, om = p.real, p.imag
        A[i:i + 2, i:i + 2] = [[sig, om], [-om, sig]]
        B[i, 0] = k.real + k.imag
        B[i + 1, 0] = k.real - k.imag
        C[0, i] = 1.0
        C[0, i + 1] = 1.0
        i += 2
    return StateSpace(A, B, C, np.array([[d0]]))


# ---------------------------------------------------------------------------
# state space -> transfer matrix


def ss_to_tf(sys: StateSpace) -> TransferMatrix:
    """Resolvent numerators by the trace recursion, one shared denominator."""
    a, tableau = numkit.char_poly_and_adjugate(sys.A)
    n = sys.n
    rows = []
    for i in range(sys.p):
        row = []
        for j in range(sys.m):
            if n:
                coeffs = np.array(
                    [float(sys.C[i] @ T @ sys.B[:, j]) for T in tableau]
                )
            else:
                coeffs = np.zeros(0)
            num = numkit.poly_add(coeffs, numkit.poly_scale(a, float(sys.D[i, j])))
            row.append(RationalFunction(num, a))
        rows.append(tuple(row))
    return TransferMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# multivariable minimal realization


def mimo_minimal_realization(
    G: TransferMatrix, rank_rtol: float = 1e-8
) -> StateSpace:
    """Minimal realization from residue matrices of a strictly simple-pole plant.

    Each distinct pole contributes rank(residue matrix) states; complex
    pairs are folded into real 2x2 blocks. Entries must be proper and no
    entry may carry a repeated pole.
    """
    p_out, m_in = G.p, G.m
    # expand every entry once; group the poles of all entries
    poles, residues, where = [], [], []
    direct = np.zeros((p_out, m_in))
    for i in range(p_out):
        for j in range(m_in):
            exp = _entry_expansion(G.entry(i, j))
            if numkit.poly_degree(exp.direct) > 0:
                raise ImproperTransferFunction(f"entry ({i},{j}) is improper")
            if numkit.poly_degree(exp.direct) == 0:
                direct[i, j] = float(np.real(exp.direct[-1]))
            poles.extend(exp.poles)
            residues.extend(exp.residues)
            where.extend([(i, j)] * exp.poles.size)
    # each group's residue matrix sums its own members; its first is its pole
    groups = []
    for members in numkit.group_roots(
            poles, [1e-7 * (1.0 + abs(p)) for p in poles]):
        R = np.zeros((p_out, m_in), dtype=complex)
        for k in members:
            R[where[k]] += residues[k]
        groups.append((poles[members[0]], R))
    # deterministic order: real ascending first, then +imag pairs
    reals = sorted(((p.real, R) for p, R in groups if _is_real_root(p, 1e-7)),
                   key=lambda item: item[0])
    pairs = sorted(
        ((p, R) for p, R in groups if not _is_real_root(p, 1e-7) and p.imag > 0),
        key=lambda item: (item[0].real, item[0].imag),
    )

    def split(R):
        U, s, Vh = np.linalg.svd(R)
        if s.size == 0 or s[0] == 0.0:
            return np.zeros((p_out, 0)), np.zeros((0, m_in))
        rel = s / s[0]
        lo, hi = rank_rtol / 10.0, rank_rtol * 10.0
        if np.any((rel > lo) & (rel < hi)):
            raise RankAmbiguous(
                "residue matrix singular values sit inside the rank decision band"
            )
        r = int(np.sum(rel >= hi)) if np.any(rel < hi) else s.size
        root = np.sqrt(s[:r])
        return U[:, :r] * root, (Vh[:r, :].T * root).T

    blocks = []
    Bcols = []
    Crows = []
    for pr, R in reals:
        Ci, Bi = split(R.real)
        r = Ci.shape[1]
        for k in range(r):
            blocks.append(np.array([[pr]]))
            Bcols.append(Bi[k:k + 1, :])
            Crows.append(Ci[:, k:k + 1])
    for pz, R in pairs:
        Ci, Bi = split(R)
        r = Ci.shape[1]
        sig, om = pz.real, pz.imag
        for k in range(r):
            c = Ci[:, k]
            b = Bi[k, :]
            blocks.append(np.array([[sig, om], [-om, sig]]))
            Crows.append(np.column_stack([c.real, c.imag]))
            Bcols.append(np.vstack([2.0 * b.real, -2.0 * b.imag]))
    n = sum(blk.shape[0] for blk in blocks)
    A = np.zeros((n, n))
    B = np.zeros((n, m_in))
    C = np.zeros((p_out, n))
    at = 0
    for blk, brow, ccol in zip(blocks, Bcols, Crows):
        w = blk.shape[0]
        A[at:at + w, at:at + w] = blk
        B[at:at + w, :] = brow
        C[:, at:at + w] = ccol
        at += w
    return StateSpace(A, B, C, direct)


def _entry_expansion(e: RationalFunction) -> ResidueExpansion:
    try:
        return residue_expansion(e)
    except RepeatedPoles as exc:
        raise RepeatedPoleUnsupported(str(exc)) from exc


# ---------------------------------------------------------------------------
# minimality


@dataclass(frozen=True)
class MinimalityReport:
    is_minimal: bool
    controllability_rank: int
    observability_rank: int
    minimal_degree: int
    degree_deficit: int


def minimality(sys: StateSpace) -> MinimalityReport:
    """Staircase ranks of the reachable and observable parts.

    The minimal degree is the observable dimension of the controllable
    part, the leading block of the controllability staircase.
    """
    from .structural import staircase

    ctrb = staircase(sys.A, sys.B)
    rc, ro = ctrb.rank, staircase(sys.A.T, sys.C.T).rank
    lead = ctrb.A_bar[:rc, :rc]
    md = staircase(lead.T, (sys.C @ ctrb.Z[:, :rc]).T).rank
    return MinimalityReport(
        is_minimal=(rc == sys.n and ro == sys.n),
        controllability_rank=rc,
        observability_rank=ro,
        minimal_degree=md,
        degree_deficit=sys.n - md,
    )
