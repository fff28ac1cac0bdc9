"""End-to-end batch tool tests driven through subprocesses: exit codes,
report layout, output files, and byte-level determinism."""

import ast
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "statespace_kit.cli", *args],
        capture_output=True, text=True)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def lqr_doc():
    return {
        "model": {"type": "lti",
                  "A": [[0.0, -1.0], [0.0, 0.0]],
                  "B": [[1.0, 0.0], [0.0, 1.0]]},
        "Q": [[4.0, 2.0], [2.0, 1.0]],
        "R": [[1.0, 0.0], [0.0, 1.0]],
    }


def read_report(outdir):
    with open(os.path.join(str(outdir), "report.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# happy paths


def test_lqr_stationary_report(tmp_path):
    inp = write_json(tmp_path / "in.json", lqr_doc())
    out = tmp_path / "out"
    proc = run_cli("lqr", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = read_report(out)
    assert report["command"] == "lqr"
    assert report["error"] is None
    assert report["version"] == "0.1.0"
    assert report["inputsDigest"].startswith("sha256:")
    np.testing.assert_allclose(report["results"]["K"],
                               [[2.0, 0.0], [0.0, 1.0]], atol=1e-8)
    np.testing.assert_allclose(report["results"]["P"],
                               [[2.0, 0.0], [0.0, 1.0]], atol=1e-8)
    poles = sorted(z["re"] for z in report["results"]["closedLoopPoles"])
    np.testing.assert_allclose(poles, [-2.0, -1.0], atol=1e-8)
    assert report["results"]["horizon"] == "infinite"


def test_lqr_nearly_defective_hamiltonian(tmp_path):
    # a stable 4x4 Jordan block with a faint state weight: the coupled-flow
    # matrix is nearly defective, and the stationary solve still succeeds
    n = 4
    A = -np.eye(n) + np.diag(np.ones(n - 1), 1)
    doc = {"model": {"type": "lti", "A": A.tolist(),
                     "B": [[0.0]] * (n - 1) + [[1.0]]},
           "Q": (1e-8 * np.eye(n)).tolist(), "R": [[1.0]]}
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("lqr", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = read_report(out)
    assert report["error"] is None
    P = np.array(report["results"]["P"])
    assert P.shape == (n, n) and np.all(np.isfinite(P)) and P[0, 0] > 0


def test_lqr_finite_horizon_writes_profile(tmp_path):
    doc = lqr_doc()
    doc["t1"] = 2.0
    doc["M"] = [[1.0, 0.0], [0.0, 1.0]]
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("lqr", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = read_report(out)
    assert report["results"]["profile"] == "rde_profile.csv"
    lines = (out / "rde_profile.csv").read_text().splitlines()
    assert lines[0] == "t,p11,p12,p21,p22"
    assert len(lines) == 202


def test_lqr_profile_ends_on_signed_zero_terminal_weight(tmp_path):
    # the last row interpolates the terminal weight with weights 0 and 1,
    # which turns each -0.0 of M into 0
    doc = {"model": {"type": "lti", "A": [[0.0, 1.0], [0.0, -1.0]],
                     "B": [[0.0], [1.0]]},
           "Q": [[1.0, 0.0], [0.0, 0.0]], "R": [[1.0]],
           "M": [[0.0, -0.0], [-0.0, -0.0]], "t1": 2.0, "steps": 200,
           "samples": 41}
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("lqr", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "rde_profile.csv").read_text().splitlines()
    assert lines[-1] == "2,0,0,0,0"


def test_analyze_mode_table(tmp_path):
    doc = {"model": {"type": "lti",
                     "A": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                           [0.0, 0.0, -1.0]],
                     "B": [[1.0], [1.0], [0.0]],
                     "C": [[1.0, 0.0, 1.0]]}}
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("analyze", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_report(out)["results"]
    assert results["ctrbRank"] == 2
    assert results["obsvRank"] == 2
    # modes come back ordered by real part: -1, 1, 2
    modes = results["modes"]
    assert [m["eigenvalue"]["re"] for m in modes] == [-1.0, 1.0, 2.0]
    assert [m["controllable"] for m in modes] == [False, True, True]
    assert [m["observable"] for m in modes] == [True, True, False]


def analyze_modes(tmp_path, c, C):
    """Mode table of c times an upper-triangular chain, keyed by mode / c."""
    from statespace_kit import cli

    A = [[-c, 5.0 * c, 0.0], [0.0, -2.0 * c, 3.0 * c], [0.0, 0.0, -3.0 * c]]
    inp = write_json(tmp_path / f"in-{c}.json",
                     {"model": {"type": "lti", "A": A,
                                "B": [[0.0], [0.0], [1.0]], "C": [C]}})
    out = tmp_path / f"out-{c}"
    assert cli.main(["analyze", "--input", inp, "--out", str(out)]) == 0
    return {round(m["eigenvalue"]["re"] / c): m
            for m in read_report(out)["results"]["modes"]}


@pytest.mark.parametrize("C", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                         ids=["observable", "mode-1-unobservable"])
def test_analyze_mode_rows_do_not_change_with_scale(tmp_path, C):
    ref = analyze_modes(tmp_path, 1.0, C)
    assert sorted(ref) == [-3, -2, -1]
    assert [ref[k]["observable"] for k in (-1, -2, -3)] == [C[0] != 0.0,
                                                            True, True]
    for c in (1e-12, 1e8):
        modes = analyze_modes(tmp_path, c, C)
        # the same rows in the same order, by real part
        assert list(modes) == list(ref) == [-3, -2, -1]
        for k, row in modes.items():
            assert row["controllable"] == ref[k]["controllable"]
            assert row["observable"] == ref[k]["observable"]
            for key in ("inputCoupling", "outputCoupling"):
                assert row[key] == pytest.approx(ref[k][key], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_realize_minimal_cancels_the_matching_factor(tmp_path, c):
    from statespace_kit import cli

    # (s + c) / ((s + c)(s + 2c)) is 1 / (s + 2c)
    inp = write_json(tmp_path / "in.json",
                     {"form": "minimal",
                      "transfer": {"num": [1.0, c],
                                   "den": [1.0, 3.0 * c, 2.0 * c * c]}})
    out = tmp_path / "out"
    assert cli.main(["realize", "--input", inp, "--out", str(out)]) == 0
    poles = read_report(out)["results"]["poles"]
    assert len(poles) == 1
    assert poles[0]["re"] == pytest.approx(-2.0 * c, rel=1e-9)
    assert poles[0]["im"] == 0.0


def test_realize_minimal_counts_each_residue_once(tmp_path):
    from statespace_kit import cli

    # -1.00000012 lies in the bands of both -1 and -1.0000003, and belongs
    # to the group of the nearer, -1
    entries = [[{"num": [1.0], "den": [1.0, 1.0]},
                {"num": [1.0], "den": [1.0, 1.0000003]}],
               [{"num": [1.0], "den": [1.0, 1.00000012]},
                {"num": [0.0], "den": [1.0]}]]
    inp = write_json(tmp_path / "in.json",
                     {"form": "minimal", "transfer": {"entries": entries}})
    out = tmp_path / "out"
    assert cli.main(["realize", "--input", inp, "--out", str(out)]) == 0
    ss = read_report(out)["results"]["realization"]
    A, B, C, D = (np.array(ss[key]) for key in "ABCD")
    assert ss["stateDimension"] == 2
    s = 0.5j
    G = C @ np.linalg.solve(s * np.eye(len(A)) - A, B) + D
    plant = [[1 / (s + 1.0), 1 / (s + 1.0000003)], [1 / (s + 1.00000012), 0.0]]
    np.testing.assert_allclose(G, plant, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("form", ["ccf", "ocf", "modal", "minimal"])
def test_realize_static_gain_has_no_states(tmp_path, form):
    from statespace_kit import cli

    inp = write_json(tmp_path / "in.json",
                     {"form": form, "transfer": {"num": [2.0], "den": [1.0]}})
    out = tmp_path / "out"
    assert cli.main(["realize", "--input", inp, "--out", str(out)]) == 0
    ss = read_report(out)["results"]["realization"]
    assert ss == {"A": [], "B": [], "C": [[]], "D": [[2.0]],
                  "stateDimension": 0}


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("form", ["ccf", "ocf", "modal", "minimal"])
def test_realize_keeps_the_gain_at_every_scale(tmp_path, form, c):
    from statespace_kit import cli

    # a small numerator is realized as it is, not trimmed to its constant
    inp = write_json(tmp_path / "in.json",
                     {"form": form,
                      "transfer": {"num": [c, 5.0 * c], "den": [1.0, 3.0, 2.0]}})
    out = tmp_path / "out"
    assert cli.main(["realize", "--input", inp, "--out", str(out)]) == 0
    ss = read_report(out)["results"]["realization"]
    A, B, C, D = (np.array(ss[key]) for key in "ABCD")
    for s in (0.5j, 10j, 3.0):
        got = (C @ np.linalg.solve(s * np.eye(len(A)) - A, B) + D)[0, 0]
        want = c * (s + 5.0) / (s * s + 3.0 * s + 2.0)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_reduced_observer_of_full_state_outputs_is_static(tmp_path):
    from statespace_kit import cli

    # C measures every state, so the estimate is C^-1 y with no dynamics
    model = {"type": "lti", "A": [[0.0, 1.0], [-2.0, -3.0]],
             "B": [[0.0], [1.0]], "C": [[1.0, 1.0], [0.0, 2.0]]}
    inp = write_json(tmp_path / "in.json",
                     {"model": model, "observer_poles": [],
                      "reduced": True})
    out = tmp_path / "out"
    assert cli.main(["observer", "--input", inp, "--out", str(out)]) == 0
    results = read_report(out)["results"]
    est = results["estimator"]
    assert est["stateDimension"] == 0 and est["A"] == [] and results["L"] == []
    assert est["C"] == [[], []]
    # inputs stacked [y; u]
    np.testing.assert_allclose(np.array(est["D"]),
                               [[1.0, -0.5, 0.0], [0.0, 0.5, 0.0]], atol=1e-15)


def test_simulate_trajectory_csv(tmp_path):
    doc = {
        "model": {"type": "lti", "A": [[0.0, 1.0], [-2.0, -3.0]],
                  "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]},
        "x0": [1.0, 0.0], "t0": 0.0, "t1": 1.0, "samples": 11, "u": 0.0,
    }
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("simulate", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1,y1"
    assert len(lines) == 12
    report = read_report(out)
    # x1(t) = 2 e^{-t} - e^{-2t} for this start
    assert abs(report["results"]["finalState"][0]
               - (2 * np.exp(-1) - np.exp(-2))) <= 1e-6


# nonlinear builtins driven out of the finite range: (model, x0, u, t1)
BLOW_UPS = [
    ({"type": "nonlinear-builtin", "name": "pendulum"}, [0.1, 0.0], 1e300, 1e10),
    ({"type": "nonlinear-builtin", "name": "vanderpol"}, [3.0, 3.0], None, 8.0),
    ({"type": "nonlinear-builtin", "name": "magnetic_ball"}, [1e-150, 0.0],
     1e100, 1.0),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model,x0,u,t1", BLOW_UPS,
                         ids=[case[0]["name"] for case in BLOW_UPS])
def test_simulate_nonlinear_blow_up_is_truncated(tmp_path, capsys, model, x0,
                                                 u, t1):
    from statespace_kit import cli

    doc = {"model": model, "x0": x0, "t0": 0.0, "t1": t1, "samples": 101}
    if u is not None:
        doc["u"] = u
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--input", inp, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = read_report(out)
    assert report["error"] is None
    results = report["results"]
    assert results["truncated"] is True
    assert 1 <= results["samples"] < 101
    assert np.all(np.isfinite(results["finalState"]))
    assert report["warnings"] == [
        "integration stopped early: state left the finite range"]
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + results["samples"]


# a time-varying model driven out of the finite range: simulate stops early,
# and the grammian and steering marches refuse (command, document, exit code)
_LTV_OVERFLOW = {"type": "ltv-samples", "times": [0.0, 10.0],
                 "A": [[[400.0, 0.0], [0.0, 1.0]]] * 2,
                 "B": [[[1.0], [1.0]]] * 2, "C": [[[1.0, 0.0]]] * 2}
LTV_BLOW_UPS = [
    ("simulate", {"model": _LTV_OVERFLOW, "x0": [1.0, 0.0], "t0": 0.0,
                  "t1": 10.0, "samples": 101}, 0),
    ("structural", {"model": _LTV_OVERFLOW, "horizon": [0.0, 10.0]}, 1),
    ("steer", {"model": _LTV_OVERFLOW, "x0": [1.0, -1.0], "xf": [0.0, 0.0],
               "t0": 0.0, "tf": 10.0}, 1),
]


# the same system as a constant model: its state-costate flow overflows too
_LTI_STEER_OVERFLOW = (
    "steer", {"model": {"type": "lti", "A": [[400.0, 0.0], [0.0, 1.0]],
                        "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]},
              "x0": [1.0, -1.0], "xf": [0.0, 0.0], "t0": 0.0, "tf": 10.0}, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,doc,code", LTV_BLOW_UPS + [_LTI_STEER_OVERFLOW],
                         ids=[case[0] for case in LTV_BLOW_UPS] + ["lti-steer"])
def test_ltv_blow_up_prints_no_warning(tmp_path, capsys, command, doc, code):
    from statespace_kit import cli

    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    assert cli.main([command, "--input", inp, "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    report = read_report(out)
    if code:
        assert report["error"]["type"] == "SingularFundamental"
    else:
        assert report["results"]["truncated"] is True


def test_realize_and_place_round_trip(tmp_path):
    inp = write_json(tmp_path / "r.json",
                     {"transfer": {"num": [1.0], "den": [1.0, 3.0, 2.0]},
                      "form": "ccf"})
    out = tmp_path / "out_r"
    proc = run_cli("realize", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    realize = read_report(out)["results"]["realization"]
    assert realize["stateDimension"] == 2
    poles = sorted(z["re"] for z in read_report(out)["results"]["poles"])
    np.testing.assert_allclose(poles, [-2.0, -1.0], atol=1e-9)

    inp2 = write_json(tmp_path / "p.json",
                      {"model": {"type": "lti", "A": realize["A"],
                                 "B": realize["B"]},
                       "poles": [-4.0, -5.0]})
    out2 = tmp_path / "out_p"
    proc2 = run_cli("place", "--input", inp2, "--out", str(out2))
    assert proc2.returncode == 0, proc2.stderr
    achieved = sorted(z["re"]
                      for z in read_report(out2)["results"]["achievedPoles"])
    np.testing.assert_allclose(achieved, [-5.0, -4.0], atol=1e-6)


def test_diophantine_command(tmp_path):
    inp = write_json(tmp_path / "in.json", {
        "plant": {"num": [1.0], "den": [1.0, 0.0, -1.0]},
        "alpha_c": [1.0, 2.0, 2.0],
        "alpha_o": [1.0, 11.0, 30.0],
    })
    out = tmp_path / "out"
    proc = run_cli("diophantine", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_report(out)["results"]
    np.testing.assert_allclose(results["denominator"], [1.0, 13.0, 55.0],
                               atol=1e-8)
    np.testing.assert_allclose(results["numerator"], [95.0, 115.0],
                               atol=1e-8)
    assert results["residual"] <= 1e-10


def test_margins_command(tmp_path):
    doc = {
        "model": {"type": "lti", "A": [[0.0, 1.0], [0.0, -1.0]],
                  "B": [[0.0], [1.0]]},
        "Q": [[1.0, 0.0], [0.0, 0.0]],
        "R": [[1.0]],
    }
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("margins", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_report(out)["results"]
    assert results["minReturnDifference"] >= 1.0 - 1e-6
    assert results["identityResidual"] <= 1e-7
    header = (out / "margins.csv").read_text().splitlines()[0]
    assert header == "omega,return_difference,sensitivity"


def test_mintime_command(tmp_path):
    inp = write_json(tmp_path / "in.json", {"x0": [1.0, 0.0]})
    out = tmp_path / "out"
    proc = run_cli("mintime", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_report(out)["results"]
    np.testing.assert_allclose(results["switchingTimes"], [1.0], atol=1e-8)
    assert abs(results["terminalTime"] - 2.0) <= 1e-8
    assert abs(results["residuals"]["terminal"]) <= 1e-6
    assert results["residuals"]["argminViolations"] == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,u1,y1"


def test_tpbvp_bilinear_command(tmp_path):
    inp = write_json(tmp_path / "in.json",
                     {"kind": "bilinear", "x0": 0.5, "t1": 2.0})
    out = tmp_path / "out"
    proc = run_cli("tpbvp", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_report(out)["results"]
    np.testing.assert_allclose(results["switchingTimes"], [1.0], atol=1e-8)
    assert abs(results["cost"] - (-0.5 * np.e)) <= 1e-8


# optimal runs that leave the double range (command, document, the quantity
# the message names): the bilinear plateau, the terminal time of a far
# start, and the state of a start whose terminal time is finite
OPTIMAL_RUN_OVERFLOWS = [
    ("tpbvp", {"kind": "bilinear", "x0": 1e300, "t1": 800.0}, "plateau state"),
    ("mintime", {"x0": [-1e300, 1e200]}, "terminal time"),
    ("mintime", {"x0": [-5e307, 1.3e154]}, "state along the optimal run"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,doc,quantity", OPTIMAL_RUN_OVERFLOWS,
                         ids=["bilinear-plateau", "mintime-time", "mintime-state"])
def test_optimal_run_overflow_is_refused_without_a_warning(tmp_path, capsys,
                                                           command, doc, quantity):
    from statespace_kit import cli

    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    assert cli.main([command, "--input", inp, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    error = read_report(out)["error"]
    assert error["type"] == "Overflow"
    assert quantity in error["message"]
    assert os.listdir(out) == ["report.json"]


DIGEST_DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                           "digest_docs")


def refusal(tmp_path, command, name):
    """The document tools/digest_docs/<name>.json, its exit-1 report error."""
    from statespace_kit import cli

    inp = os.path.join(DIGEST_DOCS, name + ".json")
    out = tmp_path / "out"
    assert cli.main([command, "--input", inp, "--out", str(out)]) == 1
    with open(inp) as fh:
        return json.load(fh), read_report(out)["error"]


def test_placement_refusal_names_the_unmatched_pole_its_gap_and_band(tmp_path):
    doc, error = refusal(tmp_path, "place", "lti-place-n10-fault")
    assert error["type"] == "IllConditioned"
    found = re.fullmatch(
        r"achieved spectrum deviates from the request beyond tolerance: "
        r"requested pole (\S+) is (\S+) from the nearest unclaimed achieved "
        r"eigenvalue, beyond band (\S+)", error["message"])
    pole, gap, band = complex(found[1]), float(found[2]), float(found[3])
    assert pole in doc["poles"]
    # the band of the place command's verify_tol, 1e-6 (1 + |pole|), to 4 digits
    assert band == pytest.approx(1e-6 * (1.0 + abs(pole)), rel=1e-3)
    assert gap > band


def test_root_locus_refusal_names_the_weight_root_gap_and_band(tmp_path):
    doc, error = refusal(tmp_path, "srl", "lti-srl-n16-fault")
    assert error["type"] == "IllConditioned"
    found = re.fullmatch(
        r"root locus lost its axis symmetry: at r = (\S+) the root (\S+) is "
        r"(\S+) from the nearest unclaimed mirror image -z, beyond band (\S+)",
        error["message"])
    r, root = float(found[1]), complex(found[2])
    gap, band = float(found[3]), float(found[4])
    spec = doc["r_range"]
    weights = np.logspace(np.log10(spec["min"]), np.log10(spec["max"]),
                          spec["count"])
    assert np.min(np.abs(weights - r)) <= 1e-5 * r  # printed to 6 digits
    # the band is 1e-8 (1 + the largest root modulus), at least the root's own
    assert band >= 1e-8 * (1.0 + abs(root)) * (1.0 - 1e-3)
    assert gap > band


def test_steer_command(tmp_path):
    doc = {
        "model": {"type": "lti", "A": [[0.0, 1.0], [0.0, 0.0]],
                  "B": [[0.0], [1.0]]},
        "x0": [0.0, 0.0], "xf": [1.0, 0.0], "t0": 0.0, "tf": 1.0,
    }
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("steer", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_report(out)["results"]
    assert results["finalError"] <= 1e-4
    assert (out / "control.csv").exists()
    assert (out / "trajectory.csv").exists()


def test_steer_builds_the_grammian_once(tmp_path, monkeypatch):
    # in process, so the grammian builder can be counted
    from statespace_kit import cli, structural

    calls = []
    real = structural.controllability_grammian

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(structural, "controllability_grammian", counted)
    inp = write_json(tmp_path / "in.json", {
        "model": {"type": "lti", "A": [[0.0, 1.0], [0.0, 0.0]],
                  "B": [[0.0], [1.0]]},
        "x0": [0.0, 0.0], "xf": [1.0, 0.0], "t0": 0.0, "tf": 1.0,
    })
    out = tmp_path / "out"
    assert cli.main(["steer", "--input", inp, "--out", str(out)]) == 0
    assert len(calls) == 1
    # W = [[1/3, 1/2], [1/2, 1]] on [0, 1]
    cond = read_report(out)["results"]["grammianConditioning"]
    assert cond == pytest.approx(np.linalg.cond([[1 / 3, 0.5], [0.5, 1.0]]),
                                 rel=1e-9)


def _count_marches(monkeypatch):
    """Record (state size, samples) of each march through the march driver,
    and make any use of the interpolated transition table fail."""
    from statespace_kit import response

    marches = []
    real = response.march_samples

    def counted(rate, coeff, x, times, *args, **kwargs):
        marches.append((len(x), len(times)))
        return real(rate, coeff, x, times, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the transition table was built")

    monkeypatch.setattr(response, "march_samples", counted)
    monkeypatch.setattr(response, "fundamental_matrix_ltv", refused)
    return marches


def test_ltv_steer_marches_the_grammian_and_the_costate_flow(tmp_path,
                                                             monkeypatch):
    # in process: one march of [phi(t0, t); W] (2 n^2 entries, on the grid
    # [t0, tf]) and one of [x; lambda] (2 n entries, at the samples)
    from statespace_kit import cli

    marches = _count_marches(monkeypatch)
    inp = write_json(tmp_path / "in.json", {
        "model": _LTV, "x0": [0.0, 0.0], "xf": [1.0, 0.0], "t0": 0.0,
        "tf": 1.0, "samples": 11})
    out = tmp_path / "out"
    assert cli.main(["steer", "--input", inp, "--out", str(out)]) == 0
    assert marches == [(8, 2), (4, 11)]
    assert read_report(out)["results"]["finalError"] <= 1e-9


def test_ltv_structural_marches_once_per_grammian(tmp_path, monkeypatch):
    # in process: one march of [X; W] for each grammian
    from statespace_kit import cli

    marches = _count_marches(monkeypatch)
    inp = write_json(tmp_path / "in.json", {"model": _LTV, "horizon": [0.0, 1.0]})
    out = tmp_path / "out"
    assert cli.main(["structural", "--input", inp, "--out", str(out)]) == 0
    assert marches == [(8, 2), (8, 2)]
    results = read_report(out)["results"]
    assert results["ctrbGrammian"]["minEig"] > 0
    assert results["obsvGrammian"]["minEig"] > 0


def test_outputs_are_renamed_into_place_with_the_report_last(tmp_path, monkeypatch):
    from statespace_kit import cli

    placed = []
    real = os.replace

    def recorded(src, dst):
        assert os.path.dirname(src) == os.path.dirname(dst)
        placed.append(os.path.basename(dst))
        real(src, dst)

    monkeypatch.setattr(os, "replace", recorded)
    inp = write_json(tmp_path / "in.json", {
        "model": _LTV, "x0": [0.0, 0.0], "xf": [1.0, 0.0], "t0": 0.0,
        "tf": 1.0, "samples": 11})
    out = tmp_path / "out"
    assert cli.main(["steer", "--input", inp, "--out", str(out)]) == 0
    assert placed == ["control.csv", "trajectory.csv", "report.json"]
    assert sorted(os.listdir(out)) == sorted(placed)


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    from statespace_kit import cli

    real = os.replace

    def fail_on_report(src, dst):
        if dst.endswith("report.json"):
            raise OSError("disk full")
        real(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_report)
    inp = write_json(tmp_path / "in.json", {"model": _SS, "x0": [1.0, 0.0],
                                            "t1": 1.0, "samples": 5})
    out = tmp_path / "out"
    with pytest.raises(OSError, match="disk full"):
        cli.main(["simulate", "--input", inp, "--out", str(out)])
    assert os.listdir(out) == ["trajectory.csv"]


def test_a_write_failing_between_blocks_leaves_the_last_run_whole(tmp_path,
                                                                   monkeypatch):
    from statespace_kit import cli

    out = tmp_path / "out"
    doc = {"model": _SS, "x0": [1.0, 0.0], "t1": 1.0, "samples": 5}
    argv = ["simulate", "--input", write_json(tmp_path / "in.json", doc),
            "--out", str(out)]
    assert cli.main(argv) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}

    real_open = open
    blocks = []

    def failing_open(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        if "w" in mode:
            real_write = fh.write

            def write(text):
                if blocks:  # the header went through; the rows do not
                    raise OSError("disk full")
                blocks.append(text)
                return real_write(text)

            fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    write_json(tmp_path / "in.json", dict(doc, samples=5000))
    with pytest.raises(OSError, match="disk full"):
        cli.main(argv)
    assert blocks == ["t,x1,x2,u1,y1\n"]
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def test_csv_writes_hold_one_block_of_text_at_a_time(tmp_path):
    import tracemalloc

    from statespace_kit import cli
    from statespace_kit._cliops import _columns_csv

    def columns(rows):
        ts = np.linspace(0.0, 1.0, rows)
        return {"t": ts, "x": np.stack([np.sin(ts), np.cos(ts)], axis=1)}

    block_text = max(len(b) for b in _columns_csv(**columns(80_000)))
    peaks = []
    for rows in (20_000, 80_000):
        data = columns(rows)
        tracemalloc.start()
        try:
            cli._write_outputs(str(tmp_path / str(rows)), {"rows": rows},
                               {"trajectory.csv": _columns_csv(**data)})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / str(rows) / "trajectory.csv").stat().st_size > 40 * rows
    assert abs(peaks[1] - peaks[0]) < block_text


def test_stability_reports_lyapunov_beyond_thirty_states(tmp_path):
    n = 40
    A = np.random.default_rng(43).normal(size=(n, n)) / np.sqrt(n) \
        - 2.0 * np.eye(n)
    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "lti", "A": A.tolist()}})
    out = tmp_path / "out"
    proc = run_cli("stability", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    results = read_report(out)["results"]
    assert results["verdict"] == "asymptoticallyStable"
    P = np.array(results["lyapunovP"])
    assert P.shape == (n, n)
    assert np.linalg.norm(A.T @ P + P @ A + np.eye(n)) <= 1e-10 * np.sqrt(n)


def test_structural_null_horizon_end_is_infinite(tmp_path):
    from statespace_kit import structural
    from statespace_kit.model import state_space

    A, B = [[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]]
    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "lti", "A": A, "B": B},
                      "horizon": [0.0, None]})
    out = tmp_path / "out"
    proc = run_cli("structural", "--input", inp, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rep = structural.controllability_grammian(
        state_space(np.array(A), np.array(B)), 0.0, np.inf)
    assert read_report(out)["results"]["ctrbGrammian"] == {
        "conditioning": rep.conditioning, "maxEig": rep.max_eig,
        "minEig": rep.min_eig}


def test_structural_nonlinear_builtin_rejected(tmp_path):
    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "nonlinear-builtin",
                                "name": "pendulum"}})
    out = tmp_path / "out"
    proc = run_cli("structural", "--input", inp, "--out", str(out))
    assert proc.returncode == 2
    assert not (out / "report.json").exists()


def test_tolerance_override_recorded(tmp_path):
    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "lti",
                                "A": [[0.0, 1.0], [-2.0, -3.0]]}})
    out = tmp_path / "out"
    proc = run_cli("stability", "--input", inp, "--out", str(out),
                   "--tol", "axis_tol=1e-6")
    assert proc.returncode == 0, proc.stderr
    report = read_report(out)
    assert report["config"]["toleranceOverrides"] == {"axis_tol": 1e-6}
    assert report["results"]["verdict"] == "asymptoticallyStable"


def test_rank_tol_is_an_absolute_staircase_cutoff(tmp_path):
    from statespace_kit import cli, structural
    from statespace_kit.model import state_space

    A, B = [[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1e-6]]
    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "lti", "A": A, "B": B}})
    default, cut = tmp_path / "default", tmp_path / "cut"
    assert cli.main(["structural", "--input", inp, "--out", str(default)]) == 0
    assert cli.main(["structural", "--input", inp, "--out", str(cut),
                     "--tol", "rank_tol=1e-3"]) == 0
    assert read_report(default)["results"]["ctrbRank"] == 2
    report = read_report(cut)
    assert report["config"]["toleranceOverrides"] == {"rank_tol": 1e-3}
    lib = structural.structural_analysis(
        state_space(np.array(A), np.array(B)), tol=1e-3)
    assert report["results"]["ctrbRank"] == lib.ctrb_rank == 1
    assert not report["results"]["controllable"]
    assert report["results"]["uncontrollableModes"] == [
        {"im": z.imag, "re": z.real} for z in lib.uncontrollable_modes]


def test_command_table_handlers_and_readme_agree():
    from statespace_kit import _cliops, cli

    assert {name: fn.__name__ for name, fn in _cliops.HANDLERS.items()} == {
        name: "_h_" + name for name in cli.COMMANDS}
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")).read()
    section = readme.split("### Tolerance overrides", 1)[1].split("###", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("- `") and ": `" in line:
            names, tols = line[2:].split(": ", 1)
            for name in names.split(", "):
                listed[name.strip("`")] = tuple(
                    t.strip("`") for t in tols.split(", "))
    assert listed == {name: tols for name, tols in cli.COMMANDS.items() if tols}


# ---------------------------------------------------------------------------
# failure modes


def test_missing_input_exits_2(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("analyze", "--input", str(tmp_path / "nope.json"),
                   "--out", str(out))
    assert proc.returncode == 2
    assert "cannot read input" in proc.stderr
    assert not out.exists()


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    proc = run_cli("analyze", "--input", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert "not valid JSON" in proc.stderr
    assert not out.exists()


def test_unknown_tolerance_exits_2(tmp_path):
    inp = write_json(tmp_path / "in.json", lqr_doc())
    proc = run_cli("lqr", "--input", inp, "--out", str(tmp_path / "out"),
                   "--tol", "bogus=1e-3")
    assert proc.returncode == 2
    assert "does not honor tolerance" in proc.stderr


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_negative_or_non_finite_tolerance_exits_2(tmp_path, capsys, value):
    from statespace_kit import cli

    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "lti", "A": [[0.0, 1.0], [-2.0, -3.0]],
                                "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}})
    out = tmp_path / "out"
    assert cli.main(["structural", "--input", inp, "--out", str(out),
                     "--tol", f"zero_tol={value}"]) == 2
    assert f"--tol 'zero_tol={value}'" in capsys.readouterr().err
    assert not out.exists()


def test_schema_error_reports_pointer(tmp_path):
    doc = lqr_doc()
    doc["model"]["B"] = [[1.0], [0.0], [0.0]]  # three rows against n = 2
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("lqr", "--input", inp, "--out", str(out))
    assert proc.returncode == 2
    assert "/model/B" in proc.stderr
    assert not out.exists()


def test_domain_error_lands_in_report(tmp_path):
    doc = {
        "model": {"type": "lti",
                  "A": [[-2.0, 0.0], [-1.0, -1.0]],
                  "B": [[1.0], [1.0]]},
        "poles": [-4.0, -5.0],
    }
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    proc = run_cli("place", "--input", inp, "--out", str(out))
    assert proc.returncode == 1
    report = read_report(out)
    assert report["results"] is None
    assert report["error"]["type"] == "Uncontrollable"
    assert report["error"]["message"]


def test_srl_lost_symmetry_lands_in_report(tmp_path, monkeypatch):
    # in process, so the stacked eigenvalue call can be replaced by one
    # whose roots are not mirrored across the imaginary axis
    from statespace_kit import cli

    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.broadcast_to(
        np.array([-1.0, -2.0], dtype=complex), a.shape[:-1]))
    inp = write_json(tmp_path / "in.json",
                     {"plant": {"num": [1.0], "den": [1.0, 1.0]}})
    out = tmp_path / "out"
    assert cli.main(["srl", "--input", inp, "--out", str(out)]) == 1
    report = read_report(out)
    assert report["results"] is None
    assert report["error"]["type"] == "IllConditioned"


@pytest.mark.parametrize("command", ["lqr", "margins"])
def test_stationary_design_of_a_time_varying_model_exits_2(tmp_path, capsys,
                                                           command):
    from statespace_kit import cli

    model = {"type": "ltv-samples", "times": [0.0, 1.0],
             "A": [[[0.0, 1.0], [-1.0, -0.5]], [[0.0, 1.0], [-2.0, -0.5]]],
             "B": [[[0.0], [1.0]], [[0.0], [1.0]]]}
    inp = write_json(tmp_path / "in.json", {"model": model, "Q": np.eye(2).tolist(),
                                            "R": [[1.0]]})
    out = tmp_path / "out"
    assert cli.main([command, "--input", inp, "--out", str(out)]) == 2
    assert "/model/type: the stationary design needs a constant-coefficient" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_unknown_builtin_name_pointer(tmp_path):
    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "nonlinear-builtin", "name": "nope"},
                      "x0": [0.0, 0.0], "t0": 0.0, "t1": 1.0})
    proc = run_cli("simulate", "--input", inp,
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "/model/name" in proc.stderr


@pytest.mark.parametrize("literal,pointer", [
    ("NaN", "/model/A/0/0"),
    ("Infinity", "/model/B/1/0"),
    ("-Infinity", "/poles/1"),
])
def test_non_finite_constant_exits_2_with_pointer(tmp_path, literal, pointer):
    text = {
        "/model/A/0/0": '{"model": {"type": "lti", "A": [[%s, 1.0], [0.0, 0.0]],'
                        ' "B": [[0.0], [1.0]]}, "poles": [-1.0, -2.0]}',
        "/model/B/1/0": '{"model": {"type": "lti", "A": [[0.0, 1.0], [0.0, 0.0]],'
                        ' "B": [[0.0], [%s]]}, "poles": [-1.0, -2.0]}',
        "/poles/1": '{"model": {"type": "lti", "A": [[0.0, 1.0], [0.0, 0.0]],'
                    ' "B": [[0.0], [1.0]]}, "poles": [-1.0, %s]}',
    }[pointer] % literal
    inp = tmp_path / "in.json"
    inp.write_text(text)
    out = tmp_path / "out"
    proc = run_cli("place", "--input", str(inp), "--out", str(out))
    assert proc.returncode == 2
    assert f"{pointer}: non-finite number {literal}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command,text,pointer", [
    ("place", '{"model": {"type": "lti", "A": [[1e999, 1.0], [0.0, 0.0]],'
              ' "B": [[0.0], [1.0]]}, "poles": [-1.0, -2.0]}', "/model/A/0/0"),
    ("place", '{"model": {"type": "lti", "A": [[0.0, 1.0], [0.0, 0.0]],'
              ' "B": [[0.0], [1.0]]}, "poles": [-1.0, -1%s]}' % ("0" * 400),
     "/poles/1"),
    ("structural", '{"model": {"type": "lti", "A": [[0.0, 1.0], [-2.0, -3.0]],'
                   ' "B": [[0.0], [1.0]]}, "horizon": [0, 1e999]}', "/horizon/1"),
])
def test_overflowing_literal_exits_2_with_pointer(tmp_path, capsys, command,
                                                  text, pointer):
    from statespace_kit import cli

    inp = tmp_path / "in.json"
    inp.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--input", str(inp), "--out", str(out)]) == 2
    assert f"{pointer}: number outside the finite double range" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_integer_past_the_parser_limit_exits_2(tmp_path, capsys):
    from statespace_kit import cli

    inp = tmp_path / "in.json"
    inp.write_text('{"model": {"type": "lti", "A": [[1%s]]}}' % ("0" * 5000))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(inp), "--out", str(out)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_pointer_escapes_keys():
    from statespace_kit import cli
    from statespace_kit.errors import SchemaError

    with pytest.raises(SchemaError) as info:
        cli._load_document('{"a": 1, "b/c~": {"d": [0, NaN]}}')
    assert info.value.location == "/b~1c~0/d/1"
    # a later duplicate key drops the constant from the parsed document
    with pytest.raises(SchemaError) as info:
        cli._load_document('{"a": NaN, "a": 1.0}')
    assert info.value.location == "/"


# ---------------------------------------------------------------------------
# determinism and environment handling


def test_repeat_runs_are_byte_identical(tmp_path):
    doc = lqr_doc()
    doc["t1"] = 1.0
    doc["M"] = [[1.0, 0.0], [0.0, 1.0]]
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    first = run_cli("lqr", "--input", inp, "--out", str(out), "--seed", "7")
    assert first.returncode == 0, first.stderr
    snapshot = {
        name: (out / name).read_bytes()
        for name in sorted(os.listdir(out))
    }
    second = run_cli("lqr", "--input", inp, "--out", str(out), "--seed", "7")
    assert second.returncode == 0, second.stderr
    for name, blob in snapshot.items():
        assert (out / name).read_bytes() == blob, name


def test_parser_defaults_do_not_leak_between_calls(tmp_path):
    # one process, one parser: the second run must not see the first --tol
    from statespace_kit import cli

    inp = write_json(tmp_path / "in.json",
                     {"model": {"type": "lti",
                                "A": [[0.0, 1.0], [-2.0, -3.0]]}})
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["stability", "--input", inp, "--out", str(first),
                     "--tol", "axis_tol=1e-6"]) == 0
    assert cli.main(["stability", "--input", inp, "--out", str(second)]) == 0
    assert cli._parser() is cli._parser()
    assert (read_report(first)["config"]["toleranceOverrides"]
            == {"axis_tol": 1e-6})
    assert read_report(second)["config"]["toleranceOverrides"] == {}


def test_report_json_is_canonical(tmp_path):
    inp = write_json(tmp_path / "in.json", lqr_doc())
    out = tmp_path / "out"
    run_cli("lqr", "--input", inp, "--out", str(out))
    text = (out / "report.json").read_text()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=2,
                              ensure_ascii=True) + "\n"



_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                   1e308, -1e308, 1.5]
_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.floats(), st.sampled_from(_SPECIAL_FLOATS),
    st.text(alphabet=st.characters(codec="utf-8")),  # controls and non-ASCII
    st.floats().map(np.float64))
_FLOAT_LISTS = st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                                  st.floats(allow_nan=False)), max_size=8)


def _json_values(children):
    return st.one_of(st.lists(children, max_size=5),
                     st.lists(children, max_size=5).map(tuple),
                     st.dictionaries(st.text(max_size=6), children, max_size=5),
                     _FLOAT_LISTS, _FLOAT_LISTS.map(tuple))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(max_size=8),
                       st.recursive(_LEAVES, _json_values, max_leaves=20)))
def test_report_writer_matches_json_dumps(report):
    from statespace_kit import cli

    assert cli._report_text(report) == json.dumps(
        report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def test_report_writer_hands_other_values_to_json():
    from statespace_kit import cli

    for report in ({"a": {2: [1.0, np.float64(2.5)], 1: ()}},
                   {"b": [np.float64(1.0), 0.5], "c": {"d": {True: None}}}):
        assert cli._report_text(report) == json.dumps(
            report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    for report in ({"a": [np.int64(1)]}, {"a": {"b": [1.0, np.int64(1)]}},
                   {"a": {1: 2, "b": 3}}):
        with pytest.raises(TypeError):
            json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)
        with pytest.raises(TypeError):
            cli._report_text(report)

def test_thread_cap_seeds_blas_env():
    from statespace_kit.cli import _BLAS_ENV_VARS

    code = (
        "import os\n"
        "os.environ['STATESPACE_KIT_THREADS'] = '3'\n"
        "from statespace_kit.cli import _configure_threads\n"
        "_configure_threads()\n"
        "print(os.environ['OMP_NUM_THREADS'],"
        " os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    # an earlier in-process cli.main may have set these in os.environ
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_ENV_VARS}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "3"]


def test_cli_module_imports_without_numpy():
    code = (
        "import sys\n"
        "import statespace_kit.cli\n"
        "assert 'numpy' not in sys.modules, 'numeric stack loaded eagerly'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _scipy_loaded(code):
    """Run code in a fresh interpreter; it prints a JSON value."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_handler_import_loads_no_scipy():
    code = (
        "import json, sys\n"
        "import statespace_kit._cliops\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')))\n"
    )
    assert _scipy_loaded(code) == []


def test_only_stability_and_infinite_horizon_grammians_reach_scipy(tmp_path):
    ss = {"type": "lti", "A": [[0.0, 1.0], [-2.0, -3.0]],
          "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
    square_d = {"type": "lti", "A": [[-1.0, 2.0], [0.0, -3.0]],
                "B": [[1.0, 0.0], [1.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
                "D": [[1.0, 0.0], [1.0, 0.0]]}
    finite_lqr = dict(lqr_doc(), t1=1.0, M=[[1.0, 0.0], [0.0, 1.0]])
    docs = [
        ("simulate", {"model": ss, "x0": [1.0, 0.0], "t1": 1.0,
                      "samples": 11}),
        ("place", {"model": ss, "poles": [-4.0, -5.0]}),
        ("observer", {"model": ss, "observer_poles": [-6.0, -7.0]}),
        ("integral", {"model": ss, "poles": [-2.0, -3.0, -4.0]}),
        ("realize", {"transfer": {"num": [1.0], "den": [1.0, 3.0, 2.0]},
                     "form": "ccf"}),
        ("diophantine", {"plant": {"num": [1.0], "den": [1.0, 0.0, -1.0]},
                         "alpha_c": [1.0, 2.0, 2.0],
                         "alpha_o": [1.0, 11.0, 30.0]}),
        ("lqr", lqr_doc()),
        ("lqr", finite_lqr),
        ("srl", {"model": ss, "r_range": {"count": 5}}),
        ("margins", {"model": ss, "Q": [[1.0, 0.0], [0.0, 0.0]],
                     "R": [[1.0]], "omega": {"count": 20}}),
        ("steer", {"model": ss, "x0": [0.0, 0.0], "xf": [1.0, 0.0],
                   "t0": 0.0, "tf": 1.0, "samples": 11}),
        ("tpbvp", {"kind": "bilinear", "x0": 0.5, "t1": 2.0}),
        ("mintime", {"x0": [1.0, 0.0]}),
        ("analyze", {"model": ss}),
        # transmission zeros of a square plant, by pencil deflation
        ("structural", {"model": ss}),
        ("structural", {"model": square_d, "horizon": [0.0, 2.0]}),
    ]
    runs = []
    for i, (command, doc) in enumerate(docs):
        runs.append([command, write_json(tmp_path / f"{i}.json", doc),
                     str(tmp_path / f"out{i}")])
    stable = write_json(tmp_path / "stable.json", {"model": ss})
    scipy = ("def scipy():\n"
             "    return sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy')\n")
    code = (
        "import json, sys\n"
        "from statespace_kit import cli\n"
        + scipy +
        f"runs = {runs!r}\n"
        "codes = [cli.main([c, '--input', i, '--out', o]) for c, i, o in runs]\n"
        "before = scipy()\n"
        f"rc = cli.main(['stability', '--input', {stable!r},"
        f" '--out', {str(tmp_path / 'stab')!r}])\n"
        "print(json.dumps([codes, before, rc, scipy()]))\n"
    )
    codes, before, rc, after = _scipy_loaded(code)
    assert codes == [0] * len(docs)
    assert before == []
    # the Lyapunov solve loads scipy's LAPACK extension, not the package
    assert rc == 0 and after == ["scipy.linalg._flapack"]
    assert "lyapunovP" in read_report(tmp_path / "stab")["results"]
    infinite = write_json(tmp_path / "infinite.json",
                          {"model": ss, "horizon": [0.0, None]})
    code = (
        "import json, sys\n"
        "from statespace_kit import cli\n"
        + scipy +
        f"rc = cli.main(['structural', '--input', {infinite!r},"
        f" '--out', {str(tmp_path / 'infinite')!r}])\n"
        "print(json.dumps([rc, scipy()]))\n"
    )
    assert _scipy_loaded(code) == [0, ["scipy.linalg._flapack"]]


def _module_level_imports(tree):
    """Import nodes that run when the module loads (not inside a def)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _names(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_no_module_level_scipy_and_no_scipy_signal():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "statespace_kit")
    paths = sorted(os.path.join(src, f) for f in os.listdir(src)
                   if f.endswith(".py"))
    assert paths
    eager, signal = [], []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in _module_level_imports(tree):
            if any(n.split(".")[0] == "scipy" for n in _names(node)):
                eager.append(f"{os.path.basename(path)}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                hit = any(n.startswith("scipy.signal") for n in _names(node))
            else:
                hit = (isinstance(node, ast.Attribute) and node.attr == "signal"
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "scipy")
            if hit:
                signal.append(f"{os.path.basename(path)}:{node.lineno}")
    assert eager == [], "module-level scipy import"
    assert signal == [], "scipy.signal is never used"


# ---------------------------------------------------------------------------
# import budgets: a cold run loads only the library modules its command calls

_FRONT_END = {"statespace_kit", "statespace_kit.cli", "statespace_kit.errors",
              "statespace_kit._cliops"}

# every library module a command may load, beyond the front end
COMMAND_MODULES = {
    "realize": {"numkit", "model", "realization"},
    "analyze": {"numkit", "model", "structural"},
    "stability": {"numkit", "model", "stability"},
    "structural": {"numkit", "model", "structural", "stability", "response"},
    "place": {"numkit", "model", "realization", "structural", "synthesis"},
    "observer": {"numkit", "model", "realization", "structural", "synthesis"},
    "integral": {"numkit", "model", "realization", "structural", "synthesis"},
    "diophantine": {"numkit", "model", "realization", "synthesis"},
    "lqr": {"numkit", "model", "structural", "lqr"},
    "srl": {"numkit", "model", "realization", "structural", "lqr"},
    "margins": {"numkit", "model", "structural", "lqr"},
    "simulate": {"numkit", "model", "response", "registry"},
    "steer": {"numkit", "model", "structural", "response"},
    "tpbvp": {"numkit", "model", "minprin", "response"},
    "mintime": {"numkit", "model", "minprin"},
}

_SS = {"type": "lti", "A": [[0.0, 1.0], [-2.0, -3.0]],
       "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
_LTV = {"type": "ltv-samples", "times": [0.0, 1.0],
        "A": [[[0.0, 1.0], [-2.0, -3.0]], [[0.0, 1.0], [-3.0, -3.0]]],
        "B": [[[0.0], [1.0]], [[0.0], [1.0]]]}
_TF = {"num": [1.0], "den": [1.0, 3.0, 2.0]}

# one document per command, plus the paths that reach further modules
COLD_RUNS = [
    ("realize", {"transfer": _TF, "form": "ccf"}),
    ("realize", {"transfer": {"entries": [[_TF, _TF]]}, "form": "minimal"}),
    ("analyze", {"model": _SS}),
    ("stability", {"model": _SS}),
    ("structural", {"model": _SS}),
    ("structural", {"model": _SS, "horizon": [0.0, None]}),
    ("structural", {"model": _LTV, "horizon": [0.0, 1.0]}),
    ("place", {"model": _SS, "poles": [-4.0, -5.0]}),
    ("observer", {"model": _SS, "observer_poles": [-6.0, -7.0],
                  "state_poles": [-4.0, -5.0]}),
    ("integral", {"model": _SS, "poles": [-2.0, -3.0, -4.0]}),
    ("diophantine", {"plant": {"num": [1.0], "den": [1.0, 0.0, -1.0]},
                     "alpha_c": [1.0, 2.0, 2.0],
                     "alpha_o": [1.0, 11.0, 30.0]}),
    ("lqr", lqr_doc()),
    ("lqr", dict(lqr_doc(), t1=1.0)),
    ("srl", {"plant": _TF, "r_range": {"count": 5}}),
    ("margins", {"model": _SS, "Q": [[1.0, 0.0], [0.0, 0.0]], "R": [[1.0]],
                 "omega": {"count": 20}}),
    ("simulate", {"model": _SS, "x0": [1.0, 0.0], "t1": 1.0, "samples": 11}),
    ("simulate", {"model": {"type": "nonlinear-builtin", "name": "pendulum"},
                  "x0": [0.1, 0.0], "t1": 1.0, "samples": 11}),
    ("steer", {"model": _SS, "x0": [0.0, 0.0], "xf": [1.0, 0.0], "t0": 0.0,
               "tf": 1.0, "samples": 11}),
    ("tpbvp", {"kind": "bilinear", "x0": 0.5, "t1": 2.0}),
    ("tpbvp", {"model": _SS, "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
               "x0": [1.0, 0.0], "x1": [0.0, 0.0], "t0": 0.0, "t1": 1.0,
               "samples": 11}),
    ("mintime", {"x0": [1.0, 0.0]}),
]


def _package_modules(code):
    """Run code in a fresh interpreter; the statespace_kit modules it loaded."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'statespace_kit')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_handler_import_loads_only_the_front_end():
    assert _package_modules("import statespace_kit._cliops") == _FRONT_END


def test_every_command_has_an_import_budget_and_a_cold_run():
    from statespace_kit.cli import COMMANDS

    assert set(COMMAND_MODULES) == set(COMMANDS)
    assert {command for command, _ in COLD_RUNS} == set(COMMANDS)


@pytest.mark.parametrize("command,doc", COLD_RUNS,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(COLD_RUNS)])
def test_cold_command_loads_only_its_modules(tmp_path, command, doc):
    inp = write_json(tmp_path / "in.json", doc)
    out = str(tmp_path / "out")
    loaded = _package_modules(
        "from statespace_kit import cli\n"
        f"assert cli.main([{command!r}, '--input', {inp!r},"
        f" '--out', {out!r}]) == 0\n")
    library = {m.split(".", 1)[1] for m in loaded - _FRONT_END}
    assert _FRONT_END <= loaded
    assert library <= COMMAND_MODULES[command]


_TPBVP = {"model": _SS, "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
          "x0": [1.0, 0.0], "x1": [0.0, 0.0], "t0": 0.0, "t1": 1.0}
_MARGINS = {"model": _SS, "Q": [[1.0, 0.0], [0.0, 0.0]], "R": [[1.0]]}

# documents refused by one field: (command, document, JSON pointer, limit).
# With a limit, LIMITS[limit] is set to 3 and the run exits 1 with
# WorkBudgetExceeded in report.json; without one it exits 2.
_PENDULUM = {"type": "nonlinear-builtin", "name": "pendulum"}
FIELD_CASES = [
    ("simulate", {"model": _SS, "x0": [1.0, 0.0], "t1": 1.0, "samples": 2.5},
     "/samples", None),
    ("srl", {"plant": _TF, "r_range": {"count": 1}}, "/r_range/count", None),
    ("simulate", {"model": _PENDULUM, "x0": [0.1, 0.0], "t1": 1.0,
                  "max_step": 0}, "/max_step", None),
    ("simulate", {"model": _LTV, "x0": [1.0, 0.0], "t1": 1.0,
                  "max_step": -1}, "/max_step", None),
    ("observer", {"model": _SS, "observer_poles": [-6.0, -7.0],
                  "reduced": "false"}, "/reduced", None),
    ("structural", {"model": _LTV, "horizon": [0.0, None]}, "/horizon/1",
     None),
    ("analyze", {"model": {"type": "lti", "A": np.eye(4).tolist()}},
     "/model/A", "n"),
    ("srl", {"plant": {"num": [1.0], "den": [1.0, 4.0, 6.0, 4.0, 1.0]}},
     "/plant/den", "n"),
    ("steer", {"model": _SS, "x0": [0.0, 0.0], "xf": [1.0, 0.0], "t0": 0.0,
               "tf": 1.0, "samples": 4}, "/samples", "samples"),
    ("simulate", {"model": _SS, "x0": [1.0, 0.0], "times": [0, 1, 2, 3]},
     "/times", "times"),
    ("lqr", dict(lqr_doc(), t1=1.0, steps=4), "/steps", "steps"),
    ("lqr", {"model": {"type": "lti", "A": [[-1.0]], "B": [[1.0]]},
             "Q": [[1.0]], "R": [[1.0]], "t1": 1.0, "samples": 4},
     "/samples", "profile"),
    ("margins", {"model": _SS, "Q": [[1.0, 0.0], [0.0, 0.0]], "R": [[1.0]],
                 "omega": {"count": 4}}, "/omega/count", "count"),
    # empty and reversed horizons
    ("lqr", dict(lqr_doc(), t0=1.0, t1=1.0), "/t1", None),
    ("lqr", dict(lqr_doc(), t0=2.0, t1=1.0), "/t1", None),
    ("tpbvp", dict(_TPBVP, t1=0.0), "/t1", None),
    ("tpbvp", dict(_TPBVP, t0=2.0), "/t1", None),
    # each weight refusal at its own field
    ("lqr", dict(lqr_doc(), Q=[[1.0, 0.0], [0.0, -1.0]]), "/Q", None),
    ("lqr", dict(lqr_doc(), R=[[1.0, 0.0], [0.0, 0.0]]), "/R", None),
    ("lqr", dict(lqr_doc(), t1=1.0, M=[[1.0, 0.0], [0.0, -1.0]]), "/M", None),
    ("margins", dict(_MARGINS, Q=[[1.0, 0.0], [0.0, -1.0]]), "/Q", None),
    ("margins", dict(_MARGINS, R=[[-1.0]]), "/R", None),
    ("margins", dict(_MARGINS, M=[[-1.0, 0.0], [0.0, 1.0]]), "/M", None),
    # pole counts other than the design's order
    ("place", {"model": _SS, "poles": [-1.0]}, "/poles", None),
    ("integral", {"model": _SS, "poles": [-1.0, -2.0]}, "/poles", None),
    ("observer", {"model": _SS, "observer_poles": [-6.0]}, "/observer_poles",
     None),
    ("observer", {"model": _SS, "observer_poles": [-6.0, -7.0],
                  "reduced": True}, "/observer_poles", None),
    ("observer", {"model": _SS, "observer_poles": [-6.0, -7.0],
                  "state_poles": [-1.0, -2.0, -3.0]}, "/state_poles", None),
    # outputs that measure every state leave a reduced observer no poles
    ("observer", {"model": dict(_SS, C=[[1.0, 0.0], [0.0, 1.0]]),
                  "observer_poles": [7.0, 8.0, 9.0], "reduced": True},
     "/observer_poles", None),
    # diophantine targets and plants
    ("diophantine", {"plant": _TF, "alpha_c": [1.0, 2.0],
                     "alpha_o": [1.0, 11.0, 30.0]}, "/alpha_c", None),
    ("diophantine", {"plant": _TF, "alpha_c": [1.0, 2.0, 2.0],
                     "alpha_o": [2.0, 11.0, 30.0]}, "/alpha_o", None),
    ("diophantine", {"plant": {"entries": [[_TF], [_TF]]},
                     "alpha_c": [1.0, 2.0, 2.0], "alpha_o": [1.0, 11.0, 30.0]},
     "/plant", None),
    ("diophantine", {"plant": {"num": [1.0], "den": [2.0]}, "alpha_c": [1.0],
                     "alpha_o": [1.0]}, "/plant", None),
    ("diophantine", {"plant": {"num": [1.0, 0.0, 0.0], "den": [1.0, 1.0]},
                     "alpha_c": [1.0, 2.0], "alpha_o": [1.0, 3.0]}, "/plant",
     None),
    ("srl", {"model": {"type": "lti", "A": [[-1.0]], "B": [[1.0, 1.0]],
                       "C": [[1.0]]}}, "/model", None),
    ("tpbvp", {"kind": "bilinear", "x0": 0.0, "t1": 2.0}, "/x0", None),
]


@pytest.mark.parametrize("command,doc,pointer,limit", FIELD_CASES,
                         ids=[f"{c}-{p}" for c, _, p, _ in FIELD_CASES])
def test_refused_field_names_its_pointer(tmp_path, capsys, monkeypatch,
                                         command, doc, pointer, limit):
    from statespace_kit import _cliops, cli

    if limit is not None:
        monkeypatch.setitem(_cliops.LIMITS, limit, 3)
    inp = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "out"
    code = cli.main([command, "--input", inp, "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if limit is None:
        assert code == 2
        assert f"error: {pointer}: " in err
        assert not out.exists()
    else:
        assert code == 1
        assert os.listdir(out) == ["report.json"]
        error = read_report(out)["error"]
        assert error["type"] == "WorkBudgetExceeded"
        assert error["message"] == f"{pointer}: 4 is over the {limit} limit of 3"


def test_every_work_limit_has_a_refusal_case():
    from statespace_kit import _cliops

    assert {case[3] for case in FIELD_CASES} - {None} == set(_cliops.LIMITS)


# budgets on products of fields: (command, document, module, budget, value,
# message); value is the budget that lets the document through
PRODUCT_CASES = [
    ("lqr", dict(lqr_doc(), t1=1.0, steps=50, samples=11), "lqr",
     "RDE_BUDGET", 50 * 2**3,
     "Riccati sweep of 50 steps at n = 2 is 400 steps x n^3, over the budget "
     "of 399"),
    ("lqr", dict(lqr_doc(), t1=1.0, steps=50, samples=11), "_cliops",
     "profile", 11 * 2**2, "/samples: 44 is over the profile limit of 43"),
    ("simulate", {"model": _SS, "x0": [1.0, 0.0], "times": [0, 0.1, 0.3, 0.6]},
     "numkit", "EXPM_FLOW_BUDGET", 3,
     "exact flow of a 3-row matrix needs 3 matrix exponentials, one per "
     "distinct step, over the budget of 2"),
]


@pytest.mark.parametrize("command,doc,module,budget,value,message",
                         PRODUCT_CASES, ids=[c[3] for c in PRODUCT_CASES])
def test_product_budgets_refuse_before_the_work(tmp_path, monkeypatch, command,
                                                doc, module, budget, value,
                                                message):
    import importlib

    from statespace_kit import cli, numkit

    def never(*args, **kwargs):
        raise AssertionError("the work started")

    def run_with(allowed):
        if module == "_cliops":
            monkeypatch.setitem(owner.LIMITS, budget, allowed)
        else:
            monkeypatch.setattr(owner, budget, allowed)
        out = tmp_path / f"out{allowed}"
        return cli.main([command, "--input", inp, "--out", str(out)]), out

    inp = write_json(tmp_path / "in.json", doc)
    owner = importlib.import_module(f"statespace_kit.{module}")
    assert run_with(value)[0] == 0
    # one below, the document is refused before any step or exponential
    monkeypatch.setattr(numkit, "rk4_march", never)
    monkeypatch.setattr(numkit, "expm", never)
    code, out = run_with(value - 1)
    assert code == 1
    error = read_report(out)["error"]
    assert error["type"] == "WorkBudgetExceeded"
    assert error["message"] == message


# what importing each library module loads of the package, itself aside
LIBRARY_IMPORTS = {
    "errors": set(),
    "numkit": {"errors"},
    "model": {"errors", "numkit"},
    "realization": {"errors", "numkit", "model"},
    "response": {"errors", "numkit", "model"},
    "stability": {"errors", "numkit", "model"},
    "structural": {"errors", "numkit", "model"},
    "synthesis": {"errors", "numkit", "model", "realization"},
    "lqr": {"errors", "numkit", "model", "structural"},
    "minprin": {"errors", "numkit", "model"},
    "registry": {"errors", "numkit", "model"},
}


@pytest.mark.parametrize("module", sorted(LIBRARY_IMPORTS))
def test_library_module_imports_only_what_it_needs_at_load(module):
    loaded = _package_modules(f"import statespace_kit.{module}")
    expected = {"statespace_kit", f"statespace_kit.{module}"}
    expected |= {f"statespace_kit.{m}" for m in LIBRARY_IMPORTS[module]}
    assert loaded == expected


def _type_checking_imports(tree):
    """Import nodes under a module-level ``if TYPE_CHECKING:``."""
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    yield child


def _package_imports(node):
    """Short names of the statespace_kit modules an import node loads."""
    if isinstance(node, ast.Import):
        full = [alias.name for alias in node.names]
    else:
        base = "statespace_kit" if node.level else node.module or ""
        if node.level and node.module:
            base += "." + node.module
        full = ([f"{base}.{alias.name}" for alias in node.names]
                if base == "statespace_kit" else [base])
    return [m.split(".")[1] for m in full if m.startswith("statespace_kit.")]


def test_cliops_imports_no_library_module_at_load():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "statespace_kit", "_cliops.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    typing_only = set(_type_checking_imports(tree))
    eager = [f"{name}:{node.lineno}"
             for node in _module_level_imports(tree) if node not in typing_only
             for name in _package_imports(node) if name not in ("cli", "errors")]
    assert eager == [], "module-level library import in _cliops"


def test_digest_documents_list_the_same_lines_twice(tmp_path):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    docs = os.path.join(root, "tools", "digest_docs")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, os.path.join(root, "tools", "output_digests.py"),
            docs, str(tmp_path / "out")]
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True,
                           check=True).stdout.splitlines() for _ in range(2)]
    assert runs[0] == runs[1]
    names = {os.path.splitext(f)[0] for f in os.listdir(docs)
             if f.endswith(".json")}
    assert sorted(line.split()[0] for line in runs[0]) == sorted(names)
    # every document runs a command and ends in a tool exit code
    assert all(line.split()[1] in ("0", "1", "2") for line in runs[0])
