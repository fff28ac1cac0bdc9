"""Tests of the benchmark itself: reference computations on textbook cases,
the tracer, the document generator, and a shortened run of each workload."""

import math
import os

import numpy as np
import pytest

import bench_docs
import bench_refs
import bench_trace
import run

REPO_SRC = os.path.join(os.path.dirname(run.HERE), "src")


def test_are_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    P = bench_refs.are(A, B, np.eye(2), np.eye(1))
    r3 = math.sqrt(3.0)
    np.testing.assert_allclose(P, [[r3, 1.0], [1.0, r3]], rtol=1e-12)


def test_lyapunov_scalar():
    # -2a p = -q  =>  p = q / (2a)
    P = bench_refs.lyapunov(np.array([[-0.5]]), np.array([[3.0]]))
    np.testing.assert_allclose(P, [[3.0]], rtol=1e-14)


def test_zoh_scalar():
    a, b, dt = 0.7, 2.0, 0.3
    Phi, Gam = bench_refs.zoh(np.array([[-a]]), np.array([[b]]), dt)
    np.testing.assert_allclose(Phi, [[math.exp(-a * dt)]], rtol=1e-14)
    np.testing.assert_allclose(Gam, [[b * (1 - math.exp(-a * dt)) / a]], rtol=1e-13)


def test_van_loan_grammian_scalar():
    a, g, T = 0.8, 1.5, 2.0
    W = bench_refs.van_loan_grammian(np.array([[-a]]), np.array([[g]]), T)
    np.testing.assert_allclose(W, [[g * (1 - math.exp(-2 * a * T)) / (2 * a)]],
                               rtol=1e-13)


@pytest.mark.parametrize("x2", [-2.0, -0.5, 0.5, 3.0])
def test_min_time_switching_curve(x2):
    # on the switching curve the single deceleration arc takes |x2|
    x1 = -0.5 * x2 * abs(x2)
    assert bench_refs.min_time(x1, x2) == pytest.approx(abs(x2), rel=1e-12)
    assert bench_refs.min_time(1.0, 0.0) == pytest.approx(2.0, rel=1e-15)


def test_checker_matches_sets_and_flags_mismatch():
    ck = bench_refs.Checker()
    ck.same_set("roots", [1 + 1j, 1 - 1j, -2], [-2, 1 - 1j, 1 + 1j], 1e-12)
    assert not ck.failures and ck.digits[0][0] == bench_refs.DIGITS_CAP
    ck.close("value", 1.001, 1.0, 1e-6)
    assert len(ck.failures) == 1


def test_documents_keep_their_shape_across_seeds():
    for workload in run.WORKLOADS:
        one = bench_docs.generate(workload, 1)
        two = bench_docs.generate(workload, 2)
        assert [(d.id, d.command) for d in one] == [(d.id, d.command) for d in two]
        assert bench_docs.generate(workload, 1)[0].body == one[0].body
        assert one[0].body != two[0].body
        # kept-fault documents do not depend on the seed
        assert [d.body for d in one if d.fault] == [d.body for d in two if d.fault]


def test_tracer_catches_calls_through_imported_names():
    import statespace_kit.lqr as lqr
    from statespace_kit.model import StateSpace

    original = lqr.structural_analysis
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        plant = StateSpace(np.array([[0.0, 1.0], [0.0, 0.0]]),
                           np.array([[0.0], [1.0]]), np.eye(2), np.zeros((2, 1)))
        lqr.solve_are(lqr.LqrProblem(plant, Q=np.eye(2), R=np.eye(1)))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["lqr.solve_are"]["calls"] == 1
    assert summary["structural.structural_analysis"]["calls"] == 1
    assert summary["numkit.eigen"]["calls"] >= 1
    assert lqr.structural_analysis is original


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", REPO_SRC)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("workload,limit", [("dense-design", 6),
                                            ("time-response", 4)])
def test_workload_smoke(sandbox, workload, limit):
    out = run.run(workload, seed=5, seconds=0, trace=False, limit=limit)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == limit
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_kept_faults_fail_and_are_counted(sandbox, monkeypatch):
    def first_and_faults(rng):
        docs = bench_docs.dense_design(rng)
        return docs[:1] + [d for d in docs if d.fault]

    monkeypatch.setitem(bench_docs.WORKLOADS, "dense-design", first_and_faults)
    out = run.run("dense-design", seed=5, seconds=0, trace=False, limit=4)
    assert out["correct"] and out["attempted"] == 4 and out["failed"] == 3


def test_traced_run_reports_every_layer_metric(sandbox):
    out = run.run("dense-design", seed=5, seconds=0, trace=True, limit=8)
    assert set(out["metrics"]) == {name for name, _ in run.LAYER_METRICS}
    assert out["metrics"]["numkit.eigen.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    with pytest.raises(run.Failure):
        run.run("dense-design", seed=1, seconds=0, trace=False)
