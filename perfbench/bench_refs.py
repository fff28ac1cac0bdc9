"""Independent checks of the program's outputs.

Nothing here imports statespace_kit: every expected value comes from scipy,
from a closed form, or from a property the method guarantees. A check
records how many decimal digits the output agrees to; the worst of them
over a run is the ``accuracy_digits`` metric.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

DIGITS_CAP = 16.0
TEST_POINTS = (0.1 + 0.5j, 0.5 + 2.0j, 1.0 + 0.0j, 0.2 + 5.0j)


class Checker:
    """Collects agreement digits and failures for one or more documents."""

    def __init__(self):
        self.digits: list = []
        self.failures: list = []
        self.record = True
        self.label = ""

    def fail(self, what: str):
        self.failures.append(f"{self.label}: {what}")

    def _agree(self, what, err, tol):
        if not math.isfinite(err) or err > tol:
            self.fail(f"{what}: relative error {err:.3e} > {tol:.0e}")
        if self.record:
            self.digits.append((min(DIGITS_CAP, -math.log10(max(err, 1e-300))),
                                f"{self.label}: {what}"))

    def close(self, what, got, want, tol, scale=None):
        """Norm-wise relative agreement of got with want, at most tol."""
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape} != {want.shape}")
            return
        ref = float(np.max(np.abs(want), initial=0.0))
        if scale is not None:
            ref = max(ref, float(scale))
        err = float(np.max(np.abs(got - want), initial=0.0)) / max(ref, 1e-300)
        self._agree(what, err, tol)

    def same_set(self, what, got, want, tol, scale=None):
        """Multisets of complex numbers, matched by least total distance."""
        got = np.asarray(got, dtype=complex).ravel()
        want = np.asarray(want, dtype=complex).ravel()
        if got.size != want.size:
            self.fail(f"{what}: {got.size} values, expected {want.size}")
            return
        cost = np.abs(got[:, None] - want[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        self.close(what, got[rows], want[cols], tol, scale)

    def spectrum(self, what, M, values, tol):
        """values are the eigenvalues of M.

        The agreement is the backward error: each value is an exact
        eigenvalue of a matrix within err * ||M|| of M. Unlike the distance
        to computed eigenvalues it does not grow with their conditioning.
        A loose match against scipy's eigenvalues guards the multiplicities.
        """
        M = np.asarray(M, dtype=complex)
        values = np.asarray(values, dtype=complex).ravel()
        n = M.shape[0]
        record, self.record = self.record, False
        self.same_set(f"{what} (matched)", values, scipy.linalg.eigvals(M), 1e-5)
        self.record = record
        if values.size != n:
            return
        norm = np.linalg.norm(M, 2)
        err = max(np.linalg.svd(M - lam * np.eye(n), compute_uv=False)[-1]
                  for lam in values) / norm
        self._agree(f"{what} (backward error)", err, tol)

    def holds(self, what, cond: bool):
        if not cond:
            self.fail(what)


# ---------------------------------------------------------------------------
# reading the program's outputs


def _cx(values) -> np.ndarray:
    return np.array([complex(v["re"], v["im"]) for v in values], dtype=complex)


def _csv(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(os.path.join(outdir, name), delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _columns(header, data, prefix):
    idx = [i for i, h in enumerate(header) if h[:1] == prefix and h[1:].isdigit()]
    return data[:, idx]


def _model(body):
    m = body["model"] if "model" in body else body
    A = np.array(m["A"], dtype=float)
    n = A.shape[0]
    B = np.array(m["B"], dtype=float) if m.get("B") else np.zeros((n, 0))
    C = np.array(m["C"], dtype=float) if m.get("C") else np.zeros((0, n))
    D = (np.array(m["D"], dtype=float) if m.get("D")
         else np.zeros((C.shape[0], B.shape[1])))
    return A, B, C, D


def _poles(values) -> np.ndarray:
    out = []
    for v in values:
        out.append(complex(v[0], v[1]) if isinstance(v, list) else complex(v))
    return np.array(out)


# ---------------------------------------------------------------------------
# references that the tests pin to textbook answers


def are(A, B, Q, R):
    return scipy.linalg.solve_continuous_are(A, B, Q, R)


def lyapunov(A, Q):
    """P with A'P + PA = -Q."""
    return scipy.linalg.solve_continuous_lyapunov(A.T, -Q)


def zoh(A, B, dt):
    """Exact discretization (Phi, Gamma) for an input held over dt."""
    n, m = B.shape
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A
    blk[:n, n:] = B
    E = scipy.linalg.expm(blk * dt)
    return E[:n, :n], E[:n, n:]


def van_loan_grammian(F, G, span):
    """Integral over [0, span] of e^{F s} G e^{F' s} ds (Van Loan, 1978)."""
    n = F.shape[0]
    blk = np.block([[-F, G], [np.zeros((n, n)), F.T]]) * span
    E = scipy.linalg.expm(blk)
    return E[n:, n:].T @ E[:n, n:]


def min_time(x1, x2):
    """Minimum time to the origin for x'' = u, |u| <= 1."""
    if x1 + 0.5 * x2 * abs(x2) > 0:
        return x2 + 2.0 * math.sqrt(0.5 * x2 * x2 + x1)
    return -x2 + 2.0 * math.sqrt(0.5 * x2 * x2 - x1)


def _transfer(A, B, C, D, s):
    n = A.shape[0]
    return C @ np.linalg.solve(s * np.eye(n) - A, B.astype(complex)) + D


def _rational(entries, points):
    """Values of {num, den} entries at the points, and the same evaluated with
    |coefficients| and |s|: the size of the error that relative coefficient
    errors of order one would cause, used as the scale of a comparison."""
    val = [[[np.polyval(e["num"], s) / np.polyval(e["den"], s) for e in row]
            for row in entries] for s in points]
    mag = max(np.polyval(np.abs(e["num"]), abs(s)) / abs(np.polyval(e["den"], s))
              for row in entries for e in row for s in points)
    return val, mag


def _ode(fun, t_grid, x0, breaks=()):
    """Tight-tolerance solution at t_grid, restarted at each break point."""
    x = np.asarray(x0, dtype=float)
    out = [x]
    edges = [t_grid[0]] + [b for b in breaks if t_grid[0] < b < t_grid[-1]] + [t_grid[-1]]
    for a, b in zip(edges[:-1], edges[1:]):
        pts = [t for t in t_grid if a < t <= b]
        sol = scipy.integrate.solve_ivp(fun, (a, b), x, method="DOP853",
                                        t_eval=pts, rtol=1e-12, atol=1e-13)
        out.extend(sol.y.T)
        x = sol.y[:, -1]
    return np.array(out)


def _interp(times, stack):
    stack = np.asarray(stack, dtype=float)

    def at(t):
        return np.array([[np.interp(t, times, stack[:, i, j])
                          for j in range(stack.shape[2])]
                         for i in range(stack.shape[1])])

    return at


# ---------------------------------------------------------------------------
# per-command checks


def _realize(ck, body, res, out):
    rz = res["realization"]
    A = np.array(rz["A"], dtype=float)
    B, C, D = (np.array(rz[k], dtype=float) for k in ("B", "C", "D"))
    tr = body["transfer"]
    entries = tr["entries"] if "entries" in tr else [[tr]]
    if "entries" in tr:
        order = sum(np.size(e["den"]) - 1 for row in entries for e in row)
        ck.holds("minimal order", rz["stateDimension"] == order)
    want, mag = _rational(entries, TEST_POINTS)
    ck.close("G(s) at test points", [_transfer(A, B, C, D, s) for s in TEST_POINTS],
             want, 1e-8, scale=mag)
    ck.spectrum("poles", A, _cx(res["poles"]), 1e-9)


def _pbh_full_rank(A, B):
    n = A.shape[0]
    scale = np.linalg.norm(np.hstack([A, B]))
    return all(np.linalg.svd(np.hstack([lam * np.eye(n) - A, B]), compute_uv=False)[-1]
               > 1e-6 * scale for lam in np.linalg.eigvals(A))


def _analyze(ck, body, res, out):
    A, B, C, _ = _model(body)
    n = A.shape[0]
    ck.holds("generated pair is PBH-controllable", _pbh_full_rank(A, B))
    ck.holds("generated pair is PBH-observable", _pbh_full_rank(A.T, C.T))
    ck.holds("ctrbRank", res["ctrbRank"] == n)
    ck.holds("obsvRank", res["obsvRank"] == n)
    modes = res["modes"]
    ck.spectrum("mode eigenvalues", A, _cx([m["eigenvalue"] for m in modes]), 1e-9)
    ck.holds("modes controllable and observable",
             all(m["controllable"] and m["observable"] for m in modes))


def _stability(ck, body, res, out):
    A, _, _, _ = _model(body)
    ck.spectrum("eigenvalues", A, _cx(res["eigenvalues"]), 1e-9)
    ck.holds("verdict", res["verdict"] == "asymptoticallyStable")
    ck.close("lyapunovP", np.array(res["lyapunovP"]), lyapunov(A, np.eye(A.shape[0])),
             1e-8)


def _grammian_check(ck, what, rep, W):
    w = np.linalg.eigvalsh(0.5 * (W + W.T))
    ck.close(f"{what} eigenvalues", [rep["minEig"], rep["maxEig"]], [w[0], w[-1]],
             1e-8)
    # the reciprocal keeps the check meaningful for badly conditioned W
    ck.close(f"{what} 1/conditioning", 1.0 / rep["conditioning"], w[0] / w[-1], 1e-8,
             scale=1.0)


def _structural(ck, body, res, out):
    A, B, C, D = _model(body)
    n = A.shape[0]
    if "horizon" in body:
        t0, tf = body["horizon"]
        _grammian_check(ck, "ctrbGrammian", res["ctrbGrammian"],
                        van_loan_grammian(-A, B @ B.T, tf - t0))
        _grammian_check(ck, "obsvGrammian", res["obsvGrammian"],
                        van_loan_grammian(A.T, C.T @ C, tf - t0))
    ck.holds("generated pair is PBH-controllable", _pbh_full_rank(A, B))
    ck.holds("generated pair is PBH-observable", _pbh_full_rank(A.T, C.T))
    ck.holds("ranks", res["ctrbRank"] == n and res["obsvRank"] == n)
    ck.holds("flags", res["controllable"] and res["observable"]
             and res["stabilizable"] and res["detectable"])
    ck.holds("no hidden modes", not res["uncontrollableModes"]
             and not res["unobservableModes"])
    if D.size and "transmissionZeros" in res:
        ck.spectrum("transmission zeros", A - B @ np.linalg.solve(D, C),
                    _cx(res["transmissionZeros"]), 1e-9)


def _place(ck, body, res, out):
    A, B, _, _ = _model(body)
    K = np.array(res["K"])
    want = _poles(body["poles"])
    ck.spectrum("requested poles of A - BK", A - B @ K, want, 1e-9)
    ck.spectrum("achievedPoles of A - BK", A - B @ K, _cx(res["achievedPoles"]), 1e-9)


def _observer(ck, body, res, out):
    A, B, C, _ = _model(body)
    want = _poles(body["observer_poles"])
    if body.get("reduced"):
        est = np.array(res["estimator"]["A"])
        ck.spectrum("requested poles of the estimator", est, want, 1e-9)
        return
    L = np.array(res["L"])
    ck.spectrum("requested poles of A - LC", A - L @ C, want, 1e-9)
    if body.get("state_poles") is None:
        return
    K = np.array(res["K"])
    sp = _poles(body["state_poles"])
    ck.spectrum("requested poles of A - BK", A - B @ K, sp, 1e-9)
    n = A.shape[0]
    closed = np.block([[A - B @ K, B @ K], [np.zeros((n, n)), A - L @ C]])
    ck.spectrum("closedLoopPoles", closed, _cx(res["closedLoopPoles"]), 1e-9)
    comp = res["compensator"]
    Ac = A - B @ K - L @ C
    got, mag = _rational(comp["entries"] if "entries" in comp else [[comp]], TEST_POINTS)
    want = [_transfer(Ac, L, K, np.zeros((K.shape[0], L.shape[1])), s)
            for s in TEST_POINTS]
    ck.close("compensator at test points", got, want, 1e-8, scale=mag)


def _integral(ck, body, res, out):
    A, B, C, _ = _model(body)
    n, p = A.shape[0], C.shape[0]
    At = np.block([[A, np.zeros((n, p))], [C, np.zeros((p, p))]])
    Bt = np.vstack([B, np.zeros((p, B.shape[1]))])
    ck.close("augmentedA", np.array(res["augmentedA"]), At, 1e-15)
    K = np.hstack([np.array(res["stateGain"]), np.array(res["integratorGain"])])
    ck.spectrum("requested poles of At - Bt K", At - Bt @ K, _poles(body["poles"]), 1e-9)


def _diophantine(ck, body, res, out):
    a, b = body["plant"]["den"], body["plant"]["num"]
    lhs = np.polyadd(np.polymul(a, res["denominator"]), np.polymul(b, res["numerator"]))
    target = np.polymul(body["alpha_c"], body["alpha_o"])
    ck.close("a d + b n", lhs, target, 1e-9)


def _lqr(ck, body, res, out):
    A, B, _, _ = _model(body)
    Q, R = np.array(body["Q"]), np.array(body["R"])
    if body.get("t1") is None:
        P = are(A, B, Q, R)
        ck.close("P", np.array(res["P"]), P, 1e-8)
        K = np.linalg.solve(R, B.T @ P)
        ck.close("K", np.array(res["K"]), K, 1e-8)
        ck.spectrum("closedLoopPoles", A - B @ K, _cx(res["closedLoopPoles"]), 1e-8)
        return
    n = A.shape[0]
    S = B @ np.linalg.solve(R, B.T)
    M = np.array(body.get("M") or np.zeros((n, n)))
    span = body["t1"] - body.get("t0", 0.0)

    def flow(_s, y):
        P = y.reshape(n, n)
        return (Q + P @ A + A.T @ P - P @ S @ P).ravel()

    sol = scipy.integrate.solve_ivp(flow, (0.0, span), M.ravel(), method="DOP853",
                                    rtol=1e-12, atol=1e-13)
    P0 = sol.y[:, -1].reshape(n, n)
    ck.close("P0", np.array(res["P0"]), P0, 1e-7)
    ck.close("K0", np.array(res["K0"]), np.linalg.solve(R, B.T @ P0), 1e-7)
    header, data = _csv(out, res["profile"])
    ck.close("profile at t0", data[0, 1:], P0.ravel(), 1e-7)
    ck.close("profile at t1", data[-1, 1:], M.ravel(), 1e-12, scale=1.0)


def _margins(ck, body, res, out):
    A, B, _, _ = _model(body)
    Q, R = np.array(body["Q"]), np.array(body["R"])
    K = np.linalg.solve(R, B.T @ are(A, B, Q, R))
    ck.holds("Kalman inequality min |1+L| >= 1",
             res["minReturnDifference"] >= 1.0 - 1e-9)
    ck.holds("return-difference identity", res["identityResidual"] <= 1e-8)
    _, data = _csv(out, res["csv"])
    n = A.shape[0]
    rd = [abs(1.0 + (K @ np.linalg.solve(1j * w * np.eye(n) - A, B))[0, 0])
          for w in data[:, 0]]
    ck.close("|1 + L(jw)|", data[:, 1], rd, 1e-8)


def _srl(ck, body, res, out):
    if body.get("plant") is not None:
        den = np.asarray(body["plant"]["den"], dtype=float)
        num = np.asarray(body["plant"]["num"], dtype=float)
    else:
        A, B, C, _ = _model(body)
        # SISO: det(sI - A + BC) = det(sI - A) + C adj(sI - A) B
        den = np.poly(A)
        num = np.trim_zeros(np.polysub(np.poly(A - B @ C), den), "f")
    num, den = num / den[0], den / den[0]
    n = den.size - 1
    # a realization of num/den for the Hamiltonian with Q = C'C, R = r
    Ac = np.diag(np.ones(n - 1), 1)
    Ac[-1, :] = -den[1:][::-1]
    Bc = np.zeros((n, 1))
    Bc[-1, 0] = 1.0
    Cc = np.zeros((1, n))
    Cc[0, :num.size] = num[::-1]
    mirror = np.array([(-1.0) ** k for k in range(n, -1, -1)])
    a_even = np.polymul(den, den * mirror)
    b_even = np.polymul(num, num * mirror[-num.size:])
    spec = body["r_range"]
    rs = np.logspace(np.log10(spec["min"]), np.log10(spec["max"]), spec["count"])
    _, data = _csv(out, res["csv"])
    for r in rs:
        rows = data[np.isclose(data[:, 0], r, rtol=1e-12, atol=0.0)]
        roots = rows[:, 1] + 1j * rows[:, 2]
        H = np.block([[Ac, -Bc @ Bc.T / r], [-Cc.T @ Cc, -Ac.T]])
        record, ck.record = ck.record, False
        ck.same_set(f"roots r={r:.3g} (matched)", roots, scipy.linalg.eigvals(H), 1e-5)
        ck.record = record
        # backward error of each root of r a(s)a(-s) + b(s)b(-s)
        p = np.polyadd(r * a_even, b_even)
        err = max(abs(np.polyval(p, z)) / np.polyval(np.abs(p), abs(z)) for z in roots)
        ck.close(f"roots r={r:.3g} (backward error)", err, 0.0, 1e-10, scale=1.0)
        ck.holds(f"stable flags r={r:.3g}",
                 np.array_equal(rows[:, 3] == 1.0, rows[:, 1] < 0))


def _simulate(ck, body, res, out):
    header, data = _csv(out, res["csv"])
    m = body["model"]
    times = np.linspace(body.get("t0", 0.0), body["t1"], body["samples"])
    ck.close("times", data[:, 0], times, 1e-14)
    x0 = np.asarray(body["x0"], dtype=float)
    uval = body.get("u", 0.0)
    X = _columns(header, data, "x")
    if m["type"] == "lti":
        A, B, C, D = _model(body)
        u = np.broadcast_to(np.asarray(uval, dtype=float), (B.shape[1],))
        Phi, Gam = zoh(A, B, times[1] - times[0])
        ref = [x0]
        for _ in range(times.size - 1):
            ref.append(Phi @ ref[-1] + Gam @ u)
        ref = np.array(ref)
        ck.close("states (exact ZOH)", X, ref, 1e-9)
        ck.close("outputs", _columns(header, data, "y"), ref @ C.T + D @ u, 1e-9)
        return
    if m["type"] == "ltv-samples":
        ts = np.asarray(m["times"], dtype=float)
        Aof, Bof = _interp(ts, m["A"]), _interp(ts, m["B"])
        u = np.atleast_1d(np.asarray(uval, dtype=float))
        ref = _ode(lambda t, x: Aof(t) @ x + Bof(t) @ u, times, x0, breaks=m["breaks"])
    elif m["name"] == "pendulum":
        g = m.get("params", {}).get("g", 1.0)
        u = float(uval)
        ref = _ode(lambda t, x: [x[1], -g * math.sin(x[0]) + u], times, x0)
    else:  # van der Pol
        ref = _ode(lambda t, x: [x[1], -(1.0 - x[0] ** 2) * x[1] - x[0]], times, x0)
    ck.close("states (solve_ivp)", X, ref, 1e-7)


def _steer(ck, body, res, out):
    A, B, _, _ = _model(body)
    x0, xf = np.asarray(body["x0"]), np.asarray(body["xf"])
    t0, tf = body["t0"], body["tf"]
    ck.close("terminalState", res["terminalState"], xf, 1e-6, scale=1.0)
    W = van_loan_grammian(-A, B @ B.T, tf - t0)
    w = np.linalg.eigvalsh(0.5 * (W + W.T))
    ck.close("1/grammianConditioning", 1.0 / res["grammianConditioning"], w[0] / w[-1],
             1e-8, scale=1.0)
    eta = np.linalg.solve(W, x0 - scipy.linalg.expm(A * (t0 - tf)) @ xf)
    header, data = _csv(out, res["controlCsv"])
    u = np.array([-(B.T @ scipy.linalg.expm(A.T * (t0 - t)) @ eta) for t in data[:, 0]])
    ck.close("control", _columns(header, data, "u"), u, 1e-7)
    header, data = _csv(out, res["trajectoryCsv"])
    X = _columns(header, data, "x")
    ck.close("trajectory ends", [X[0], X[-1]], [x0, xf], 1e-6, scale=1.0)


def _tpbvp(ck, body, res, out):
    header, data = _csv(out, "trajectory.csv")
    X = _columns(header, data, "x")
    if body.get("kind") == "bilinear":
        x0, t1 = body["x0"], body["t1"]
        ts = t1 - 1.0
        ck.close("switchingTimes", res["switchingTimes"], [ts], 1e-14)
        ck.close("terminalTime", res["terminalTime"], t1, 1e-14)
        ref = x0 * np.exp(np.minimum(data[:, 0], ts))
        ck.close("x(t)", X[:, 0], ref, 1e-12)
        return
    A, B, C, D = _model(body)
    n = A.shape[0]
    Q, R = np.array(body["Q"]), np.array(body["R"])
    x0, x1 = np.asarray(body["x0"]), np.asarray(body["x1"])
    mask = np.array(body.get("endpoint_mask") or [True] * n)
    M = np.array(body.get("terminal_penalty") or np.zeros((n, n)))
    ck.close("x(t0)", X[0], x0, 1e-12, scale=1.0)
    ck.close("pinned x(t1)", X[-1][mask], x1[mask], 1e-7, scale=1.0)
    hc, dc = _csv(out, "costate.csv")
    P = _columns(hc, dc, "p")
    if not mask.all():
        ck.close("free costate p(t1) = M x(t1)", P[-1][~mask], (M @ X[-1])[~mask],
                 1e-7, scale=1.0)
    U = _columns(header, data, "u")
    ck.close("stationarity u = -R^-1 B' p", U, -P @ np.linalg.solve(R, B.T).T, 1e-10,
             scale=1.0)
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    psi = scipy.linalg.expm(H * (body["t1"] - body["t0"]))
    rows = np.where(mask[:, None], psi[:n, n:], psi[n:, n:] - M @ psi[:n, n:])
    rhs = np.where(mask, x1 - psi[:n, :n] @ x0, (M @ psi[:n, :n] - psi[n:, :n]) @ x0)
    ck.close("initialCostate", res["initialCostate"], np.linalg.solve(rows, rhs), 1e-7)


def _mintime(ck, body, res, out):
    x1, x2 = body["x0"]
    ck.close("terminalTime", res["terminalTime"], min_time(x1, x2), 1e-12)
    header, data = _csv(out, "trajectory.csv")
    X = _columns(header, data, "x")
    ck.close("reaches the origin", X[-1], [0.0, 0.0], 1e-9,
             scale=1.0 + abs(x1) + abs(x2))


CHECKS = {
    "realize": _realize, "analyze": _analyze, "stability": _stability,
    "structural": _structural, "place": _place, "observer": _observer,
    "integral": _integral, "diophantine": _diophantine, "lqr": _lqr,
    "srl": _srl, "margins": _margins, "simulate": _simulate, "steer": _steer,
    "tpbvp": _tpbvp, "mintime": _mintime,
}


def check_document(ck: Checker, command: str, body: dict, outdir: str):
    """Check one successful run's outputs in outdir against the references."""
    ck.label = os.path.basename(outdir)
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        if report.get("error") is not None or report.get("command") != command:
            ck.fail(f"report error {report.get('error')}")
            return
        CHECKS[command](ck, body, report["results"], outdir)
    except (OSError, KeyError, ValueError, TypeError, IndexError,
            np.linalg.LinAlgError) as exc:
        ck.fail(f"unreadable output: {type(exc).__name__}: {exc}")
