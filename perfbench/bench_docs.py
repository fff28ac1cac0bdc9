"""Input documents for the two benchmark workloads.

Every generator takes a numpy Generator seeded from ``--seed`` and returns a
list of ``Doc`` records. The list's shape (commands, state sizes, sample
counts) is fixed; the seed only changes the numbers inside the documents.
Matrices are built with known spectra and, where the program's step rules
read a norm, a fixed norm, so the work per document does not move with the
seed. The kept-fault documents (non-empty ``fault``) come from a fixed internal
seed and fail the same way for every ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Seed of the kept-fault documents; independent of --seed by design.
FAULT_SEED = 20071367


@dataclass
class Doc:
    id: str
    command: str
    body: dict
    fault: str = ""  # name of the kept fault this document triggers


def _m(M) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(M)]


def _v(x) -> list:
    return [float(v) for v in np.ravel(x)]


def _pole_json(z: complex):
    return float(z.real) if z.imag == 0 else [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# spectra and models


def stable_spectrum(rng, n: int, lo: float = 0.4, hi: float = 3.0,
                    pairs: bool = True) -> list:
    """n stable eigenvalues on a jittered grid: distinct, conjugate-closed."""
    out = []
    slots = np.linspace(lo, hi, n)
    jitter = 0.35 * (hi - lo) / max(n, 2)
    i = 0
    while i < n:
        re = -(slots[i] + rng.uniform(-jitter, jitter))
        if pairs and n - i >= 2 and i % 3 == 0:
            im = rng.uniform(0.6, 2.0)
            out += [complex(re, im), complex(re, -im)]
            i += 2
        else:
            out.append(complex(re, 0.0))
            i += 1
    return out


def matrix_with_spectrum(rng, spectrum, coupling: float = 0.3) -> np.ndarray:
    """Q T Q' with T block upper triangular and the given eigenvalues."""
    n = len(spectrum)
    T = np.zeros((n, n))
    block = np.zeros(n, dtype=int)
    i = b = 0
    while i < n:
        z = spectrum[i]
        if z.imag != 0:
            T[i:i + 2, i:i + 2] = [[z.real, abs(z.imag)], [-abs(z.imag), z.real]]
            block[i:i + 2] = b
            i += 2
        else:
            T[i, i] = z.real
            block[i] = b
            i += 1
        b += 1
    upper = block[:, None] < block[None, :]
    T += coupling * upper * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ T @ Q.T


def lti(rng, n, m=1, p=1, d=False, spectrum=None, norm1=None) -> dict:
    spectrum = spectrum if spectrum is not None else stable_spectrum(rng, n)
    A = matrix_with_spectrum(rng, spectrum)
    if norm1 is not None:
        A *= norm1 / np.linalg.norm(A, 1)
    doc = {"type": "lti", "A": _m(A)}
    if m:
        doc["B"] = _m(rng.standard_normal((n, m)))
    if p:
        doc["C"] = _m(rng.standard_normal((p, n)))
    if d and m and p:
        D = rng.standard_normal((p, m)) + 2.0 * np.eye(p, m)
        doc["D"] = _m(D)
    return doc


def requested_poles(rng, n: int, lo: float = 1.0, hi: float = 4.0) -> list:
    return [_pole_json(z) for z in stable_spectrum(rng, n, lo, hi)]


def _poly_from(roots) -> list:
    return _v(np.real(np.poly(roots)))


def grammian_cond(A, B, span: float) -> float:
    """Condition number of the finite-horizon controllability grammian."""
    n = A.shape[0]
    blk = np.block([[A, B @ B.T], [np.zeros((n, n)), -A.T]]) * span
    E = scipy.linalg.expm(blk)
    W = E[n:, n:].T @ E[:n, n:]
    w = np.linalg.eigvalsh(0.5 * (W + W.T))
    return float(w[-1] / w[0]) if w[0] > 0 else np.inf


# ---------------------------------------------------------------------------
# dense-design


def dense_design(rng) -> list:
    docs = []

    def add(cmd, body, n):
        docs.append(Doc(f"{len(docs):03d}-{cmd}-n{n}", cmd, body))

    for n in (4, 8, 12, 16, 20, 24, 30):
        add("stability", {"model": lti(rng, n, m=0, p=0)}, n)
    # rank-reporting commands stay at n <= 16 (Krylov rank, see README)
    for n in (3, 6, 10, 16):
        add("analyze", {"model": lti(rng, n, m=2, p=2)}, n)
    for n in (4, 8, 12, 16):
        add("structural", {"model": lti(rng, n, m=2, p=2, d=True)}, n)
    for n, m in ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (6, 2)):
        add("place", {"model": lti(rng, n, m=m, p=0),
                      "poles": requested_poles(rng, n)}, n)
    add("observer", {"model": lti(rng, 3, m=1, p=1),
                     "observer_poles": requested_poles(rng, 3)}, 3)
    add("observer", {"model": lti(rng, 5, m=1, p=2),
                     "observer_poles": requested_poles(rng, 5, 2.0, 5.0),
                     "state_poles": requested_poles(rng, 5)}, 5)
    add("observer", {"model": lti(rng, 6, m=1, p=2),
                     "observer_poles": requested_poles(rng, 4), "reduced": True}, 6)
    for n in (2, 3, 4, 5):
        add("integral", {"model": lti(rng, n, m=1, p=1),
                         "poles": requested_poles(rng, n + 1)}, n)
    for n in (2, 4, 8, 12, 16, 20, 24, 30):
        G = rng.standard_normal((n, n))
        add("lqr", {"model": lti(rng, n, m=2, p=0),
                    "Q": _m(G @ G.T / n + 0.5 * np.eye(n)),
                    "R": _m(np.diag(rng.uniform(0.5, 2.0, 2)))}, n)
    for n in (2, 4, 6):
        G = rng.standard_normal((n, n))
        add("margins", {"model": lti(rng, n, m=1, p=0),
                        "Q": _m(G @ G.T / n + 0.5 * np.eye(n)),
                        "R": [[float(rng.uniform(0.5, 2.0))]],
                        "omega": {"min": 0.01, "max": 100.0, "count": 200}}, n)
    for form, deg in (("ccf", 3), ("ocf", 4), ("modal", 5), ("minimal", 4)):
        poles = stable_spectrum(rng, deg)
        zeros = [-float(rng.uniform(0.2, 5.0)) for _ in range(deg - 1)]
        num = _v(float(rng.uniform(0.5, 3.0)) * np.poly(zeros))
        add("realize", {"form": form,
                        "transfer": {"num": num, "den": _poly_from(poles)}}, deg)
    entries = []
    for _ in range(2):
        row = []
        for _ in range(2):
            p = stable_spectrum(rng, 2, pairs=False)
            row.append({"num": [float(rng.uniform(0.5, 2.0))],
                        "den": _poly_from(p)})
        entries.append(row)
    add("realize", {"form": "minimal", "transfer": {"entries": entries}}, 8)
    for deg in (2, 3, 4):
        a = _poly_from(stable_spectrum(rng, deg, pairs=False))
        zeros = [-float(rng.uniform(5.0, 8.0)) for _ in range(deg - 1)]
        b = _v(np.poly(zeros)) if zeros else [1.0]
        add("diophantine", {"plant": {"num": b, "den": a},
                            "alpha_c": _poly_from(stable_spectrum(rng, deg, 1.0, 3.0)),
                            "alpha_o": _poly_from(stable_spectrum(rng, deg, 3.0, 6.0))},
            deg)
    add("srl", {"plant": {"num": [1.0, float(rng.uniform(1.0, 3.0))],
                          "den": _poly_from(stable_spectrum(rng, 3))},
                "r_range": {"min": 0.01, "max": 100.0, "count": 25}}, 3)
    for n in (5, 8):
        add("srl", {"model": lti(rng, n, m=1, p=1),
                    "r_range": {"min": 0.01, "max": 100.0, "count": 25}}, n)
    docs += dense_design_faults(len(docs))
    return docs


def _gaussian_stable(rng, n: int, m: int, p: int) -> dict:
    """Dense Gaussian A shifted to be stable; unlike lti() its spectrum is
    not placed, so its controllability matrix is badly conditioned."""
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    return {"type": "lti", "A": _m(A), "B": _m(rng.standard_normal((n, m))),
            "C": _m(rng.standard_normal((p, n)))}


def dense_design_faults(start: int) -> list:
    """Documents that fail on every run of the current program (kept faults)."""
    rng = np.random.default_rng(FAULT_SEED)
    docs = []

    def add(cmd, body, n, fault):
        docs.append(Doc(f"{start + len(docs):03d}-{cmd}-n{n}-fault", cmd, body, fault))

    add("place", {"model": _gaussian_stable(rng, 10, 1, 1),
                  "poles": [-1.0 - 0.5 * k for k in range(10)]}, 10,
        "siso-place-char-poly")
    add("integral", {"model": _gaussian_stable(rng, 8, 1, 1),
                     "poles": [-1.0 - 0.5 * k for k in range(9)]}, 8,
        "siso-place-char-poly")
    add("srl", {"model": _gaussian_stable(rng, 16, 1, 1),
                "r_range": {"min": 0.01, "max": 100.0, "count": 25}}, 16,
        "srl-axis-symmetry")
    return docs


# ---------------------------------------------------------------------------
# time-response

_TR_NORM1 = 2.0  # fixes the LTI substep and quadrature counts across seeds


def _ltv_samples(rng, n: int, m: int, k: int, t1: float) -> dict:
    times = np.linspace(0.0, t1, k)
    As = [matrix_with_spectrum(rng, stable_spectrum(rng, n, 0.3, 1.5))
          for _ in range(k)]
    Bs = [rng.standard_normal((n, m)) for _ in range(k)]
    return {"type": "ltv-samples", "times": _v(times),
            "A": [_m(A) for A in As], "B": [_m(B) for B in Bs],
            "breaks": _v(times[1:-1])}


def _steerable(rng, n: int, m: int, span: float) -> dict:
    """A model whose grammian on the horizon is far from the program's
    SingularGrammian guard (min/max eigenvalue 1e-9)."""
    while True:
        model = lti(rng, n, m=m, p=1, norm1=_TR_NORM1)
        if grammian_cond(np.array(model["A"]), np.array(model["B"]), span) < 1e3:
            return model


def _tpbvp_rows_ok(A, B, Q, R, span, mask, M) -> bool:
    """Well-posed initial-costate system, far from the SingularPsi12 guard
    (smallest/largest singular value 1e-12)."""
    n = A.shape[0]
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    psi = scipy.linalg.expm(H * span)
    free = psi[n:, n:] - M @ psi[:n, n:]
    rows = np.where(np.array(mask)[:, None], psi[:n, n:], free)
    s = np.linalg.svd(rows, compute_uv=False)
    return s[-1] > 1e-8 * s[0]


def time_response(rng) -> list:
    docs = []

    def add(cmd, body, n):
        docs.append(Doc(f"{len(docs):03d}-{cmd}-n{n}", cmd, body))

    for n in (2, 5, 10, 20, 30):
        add("simulate", {"model": lti(rng, n, m=1, p=1, norm1=_TR_NORM1),
                         "x0": _v(rng.standard_normal(n)), "u": float(rng.uniform(-1, 1)),
                         "t0": 0.0, "t1": 10.0, "samples": 201}, n)
    # long sample grids: MB-sized trajectory CSVs
    add("simulate", {"model": lti(rng, 6, m=2, p=2, norm1=_TR_NORM1),
                     "x0": _v(rng.standard_normal(6)), "u": _v(rng.uniform(-1, 1, 2)),
                     "t0": 0.0, "t1": 30.0, "samples": 3001}, 6)
    add("simulate", {"model": lti(rng, 12, m=1, p=3, norm1=_TR_NORM1),
                     "x0": _v(rng.standard_normal(12)), "u": float(rng.uniform(-1, 1)),
                     "t0": 0.0, "t1": 40.0, "samples": 2001}, 12)
    for n in (2, 3):
        add("simulate", {"model": _ltv_samples(rng, n, 1, 5, 4.0),
                         "x0": _v(rng.standard_normal(n)), "u": float(rng.uniform(-1, 1)),
                         "t0": 0.0, "t1": 4.0, "samples": 201, "max_step": 0.01}, n)
    add("simulate", {"model": {"type": "nonlinear-builtin", "name": "pendulum",
                               "params": {"g": float(rng.uniform(0.5, 2.0))}},
                     "x0": _v(rng.uniform(-1, 1, 2)), "u": float(rng.uniform(-0.3, 0.3)),
                     "t0": 0.0, "t1": 8.0, "samples": 401}, 2)
    add("simulate", {"model": {"type": "nonlinear-builtin", "name": "vanderpol"},
                     "x0": _v(rng.uniform(-1, 1, 2)),
                     "t0": 0.0, "t1": 8.0, "samples": 401}, 2)
    for n, m in ((2, 1), (3, 1), (4, 2)):
        model = _steerable(rng, n, m, 2.0)
        add("steer", {"model": model, "x0": _v(rng.standard_normal(n)),
                      "xf": _v(rng.standard_normal(n)), "t0": 0.0, "tf": 2.0,
                      "samples": 51}, n)
    for n, m, partial in ((2, 1, False), (4, 2, False), (6, 3, True)):
        mask = [i % 2 == 0 for i in range(n)] if partial else [True] * n
        M = np.eye(n) if partial else np.zeros((n, n))
        while True:
            model = lti(rng, n, m=m, p=1, norm1=_TR_NORM1)
            A, B = np.array(model["A"]), np.array(model["B"])
            G = rng.standard_normal((n, n))
            Q = G @ G.T / n + 0.5 * np.eye(n)
            R = np.diag(rng.uniform(0.5, 2.0, m))
            if _tpbvp_rows_ok(A, B, Q, R, 2.0, mask, M):
                break
        body = {"model": model, "kind": "lq", "Q": _m(Q), "R": _m(R),
                "x0": _v(rng.standard_normal(n)), "x1": _v(rng.standard_normal(n)),
                "t0": 0.0, "t1": 2.0, "samples": 201}
        if partial:
            body["endpoint_mask"] = mask
            body["terminal_penalty"] = _m(M)
        add("tpbvp", body, n)
    add("tpbvp", {"kind": "bilinear", "x0": float(rng.uniform(0.5, 2.0)),
                  "t1": float(rng.uniform(2.0, 4.0))}, 1)
    for _ in range(2):
        add("mintime", {"x0": _v(rng.uniform(-3, 3, 2))}, 2)
    for n in (2, 4, 6):
        model = lti(rng, n, m=1, p=0, norm1=_TR_NORM1)
        G = rng.standard_normal((n, n))
        add("lqr", {"model": model, "Q": _m(G @ G.T / n + 0.5 * np.eye(n)),
                    "R": [[float(rng.uniform(0.5, 2.0))]], "M": _m(np.eye(n)),
                    "t0": 0.0, "t1": 1.0, "steps": 500, "samples": 201}, n)
    for n in (2, 4, 6):
        add("structural", {"model": lti(rng, n, m=1, p=1, d=True, norm1=_TR_NORM1),
                           "horizon": [0.0, 2.0]}, n)
    return docs


WORKLOADS = {
    "dense-design": dense_design,
    "time-response": time_response,
}


def generate(workload: str, seed: int) -> list:
    return WORKLOADS[workload](np.random.default_rng(seed))
