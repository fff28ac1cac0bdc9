"""In-process checks of the batch tool's CSV writers against the per-value
formulas they replace, and of its typed readers."""

import json

import numpy as np
import pytest

from statespace_kit import registry
from statespace_kit._cliops import (
    CSV_BLOCK_VALUES,
    _columns_csv,
    _csv,
    _matrix,
    _trajectory_csv,
    _vector,
)
from statespace_kit.errors import SchemaError
from statespace_kit.model import NonlinearModel
from statespace_kit.response import Trajectory, simulate


def reference_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(traj):
    n, m, p = (traj.states.shape[1], traj.inputs.shape[1],
               traj.outputs.shape[1])
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"u{j + 1}" for j in range(m)]
              + [f"y{j + 1}" for j in range(p)])
    rows = [[traj.times[i], *traj.states[i], *traj.inputs[i], *traj.outputs[i]]
            for i in range(traj.times.size)]
    return reference_csv(header, rows)


# ---------------------------------------------------------------------------
# CSV writers


def test_csv_matches_per_value_formatting_on_edge_values():
    header = ["a", "b", "c", "d", "e", "f"]
    rows = [
        [-0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 1e300],
        [3, -7, True, False, np.bool_(True), np.bool_(False)],
        [np.float64(0.1), np.float64(-2.5e-310), 1 / 3, 2**60 + 1,
         np.float32(0.1), np.int64(-12)],
        np.array([1e-300, -1e16, 123456789.123456789, 0.0, -1.0, 2.0]),
    ]
    assert "".join(_csv(header, [rows])) == reference_csv(header, rows)
    assert "".join(_csv(header, [])) == reference_csv(header, [])


def test_columns_csv_names_blocks_by_their_trailing_indices():
    ts = np.linspace(0.0, 1.0, 4)
    P = np.arange(16.0).reshape(4, 2, 2) - 7.5
    header = ["t", "p11", "p12", "p21", "p22", "s", "x1"]
    rows = [[ts[k], *P[k].ravel(), -ts[k], 2 * ts[k]] for k in range(4)]
    assert "".join(_columns_csv(t=ts, p=P, s=-ts, x=2 * ts[:, None],
                                u=np.zeros((4, 0)))) == reference_csv(header, rows)


def test_trajectory_csv_matches_per_value_formatting():
    sys_times = np.linspace(0.0, 2.0, 41)
    pendulum = registry.builtin_model("pendulum", None)
    forced = simulate(pendulum, [0.3, -0.1], sys_times, u=[0.2])
    vanderpol = simulate(registry.builtin_model("vanderpol", None),
                         [0.7, 0.2], sys_times)
    assert vanderpol.inputs.shape == (41, 0)
    blow_up = NonlinearModel(f=lambda x, u, t: x * x, h=lambda x, u, t: x,
                             n=1, m=0, p=1)
    with np.errstate(over="ignore"):
        truncated = simulate(blow_up, [1.0], np.linspace(0.0, 2.0, 201))
    assert truncated.truncated
    for traj in (forced, vanderpol, truncated):
        assert "".join(_trajectory_csv(traj)) == reference_trajectory_csv(traj)


def test_trajectory_csv_keeps_signed_zero_and_non_finite_values():
    traj = Trajectory(times=np.array([0.0, 0.5]),
                      states=np.array([[-0.0, np.inf], [np.nan, 5e-324]]),
                      inputs=np.zeros((2, 0)),
                      outputs=np.array([[-np.inf], [1e300]]))
    text = "".join(_trajectory_csv(traj))
    assert text == reference_trajectory_csv(traj)
    assert text.splitlines()[1:] == ["0,-0,inf,-inf",
                                     "0.5,nan,4.9406564584124654e-324,1.0000000000000001e+300"]


# rows that fill one block of t, x1, x2 (the zero-width u adds no values)
_B = CSV_BLOCK_VALUES // 3


@pytest.mark.parametrize("rows", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 2])
def test_columns_csv_blocks_join_to_the_per_value_text(rows):
    ts = np.arange(rows) * 0.1
    x = np.random.default_rng(rows).standard_normal((rows, 2))
    for k, v in ((_B - 1, -0.0), (_B, np.inf), (_B + 1, np.nan)):
        if k < rows:
            x[k] = v
    blocks = list(_columns_csv(t=ts, x=x, u=np.zeros((rows, 0))))
    assert "".join(blocks) == reference_csv(
        ["t", "x1", "x2"], [[ts[k], *x[k]] for k in range(rows)])
    assert blocks[0] == "t,x1,x2\n"
    assert [b.count("\n") for b in blocks[1:]] == [
        min(_B, rows - i) for i in range(0, rows, _B)]


def test_columns_csv_checks_shapes_when_called():
    with pytest.raises(ValueError, match="unequal length"):
        _columns_csv(t=np.zeros(3), x=np.zeros((2, 2)))
    with pytest.raises(TypeError):  # a 0-d block has no rows
        _columns_csv(t=1.0)


# ---------------------------------------------------------------------------
# typed readers


def test_float_rows_read_the_same_arrays_and_pointers_as_per_element():
    rng = np.random.default_rng(3)
    A = json.loads(json.dumps(rng.standard_normal((7, 5)).tolist()))
    M = _matrix(A, "/A", 7, 5)
    assert M.dtype == np.float64 and M.tolist() == A
    mixed = [[1, 2.5], [3, -0.0]]
    assert _matrix(mixed, "/M").tolist() == [[1.0, 2.5], [3.0, -0.0]]
    assert np.signbit(_vector([-0.0, 1.0], "/v")[0])
    # a row of finite floats whose sum overflows still reads
    big = [1e308, 1e308]
    assert _vector(big, "/v").tolist() == big
    assert _matrix([big, [0.0, 1.0]], "/M")[0].tolist() == big
    for bad, pointer in [(float("inf"), "/M/1/0"), (float("nan"), "/M/1/0"),
                         (True, "/M/1/0"), ("1", "/M/1/0")]:
        with pytest.raises(SchemaError) as exc:
            _matrix([[1.0, 2.0], [bad, 3.0]], "/M")
        assert exc.value.location == pointer
        with pytest.raises(SchemaError) as exc:
            _vector([1.0, 2.0, bad], "/v")
        assert exc.value.location == "/v/2"
