"""Shared fixture builders for the test suite.

Random matrices are always drawn from seeded generators so every run of
the suite sees the same inputs.
"""

import numpy as np
import pytest

from statespace_kit import numkit
from statespace_kit.model import StateSpace, state_space


def rng(seed):
    return np.random.default_rng(seed)


def random_stable_diagonalizable(gen, n):
    """Hurwitz A with distinct real eigenvalues and a well-conditioned basis."""
    while True:
        lam = -np.sort(gen.uniform(0.3, 3.0, size=n))
        if np.min(np.abs(np.diff(lam))) < 0.05:
            continue
        V = gen.normal(size=(n, n))
        if np.linalg.cond(V) > 50:
            continue
        return V @ np.diag(lam) @ np.linalg.inv(V)


def random_controllable_siso(gen, n):
    """Controllable (A, b) pair; drawn until the controllability stack is
    comfortably full rank."""
    while True:
        A = gen.normal(size=(n, n))
        b = gen.normal(size=(n, 1))
        cols = [b]
        for _ in range(n - 1):
            cols.append(A @ cols[-1])
        C = np.hstack(cols)
        s = np.linalg.svd(C, compute_uv=False)
        if s[-1] > 1e-4 * s[0]:
            return A, b


def random_observable_siso(gen, n):
    A, b = random_controllable_siso(gen, n)
    return A.T, b.T  # (A, c) with c a row


def siso_system(A, b, c, d=0.0) -> StateSpace:
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    c = np.asarray(c, dtype=float).reshape(1, -1)
    return state_space(np.asarray(A, dtype=float), b, c, np.array([[float(d)]]))


def golden_phi_8m2(t):
    """Closed form of the propagator for A=[[0,1],[8,-2]] (eigenvalues 2, -4)."""
    e2 = np.exp(2.0 * t)
    e4 = np.exp(-4.0 * t)
    return (e2 * np.array([[4.0, 1.0], [8.0, 2.0]])
            + e4 * np.array([[2.0, -1.0], [-8.0, 4.0]])) / 6.0


def golden_phi_2m3(t):
    """Closed form for A=[[0,1],[-2,-3]] (eigenvalues -1, -2)."""
    e1 = np.exp(-t)
    e2 = np.exp(-2.0 * t)
    return np.array([
        [2.0 * e1 - e2, e1 - e2],
        [-2.0 * e1 + 2.0 * e2, -e1 + 2.0 * e2],
    ])


def subspace_angle(U, V):
    """Largest principal angle between the column spans, in radians."""
    Qu, _ = np.linalg.qr(np.asarray(U, dtype=float))
    Qv, _ = np.linalg.qr(np.asarray(V, dtype=float))
    s = np.linalg.svd(Qu.T @ Qv, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    return float(np.arccos(np.min(s)))


def sorted_complex(values):
    v = np.asarray(values, dtype=complex)
    return v[np.lexsort((v.imag, v.real))]


@pytest.fixture
def expm_calls(monkeypatch):
    """List that records every numkit.expm call, those inside numkit included."""
    calls = []
    real = numkit.expm

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numkit, "expm", counted)
    return calls


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of np.linalg.svd and np.linalg.eig calls made through numpy's
    public names, which is how the package calls them."""
    calls = {"svd": 0, "eig": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
