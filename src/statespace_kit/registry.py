"""Named example models available to the CLI and tests.

Each entry is a factory taking a parameter map and returning a fully
constructed model. Nonlinear entries return NonlinearModel, linear ones
StateSpace. Unknown parameter names are rejected so typos surface early.

The rate f of the pendulum and the van der Pol oscillator takes its state
and input as lists of floats or as arrays and returns a list; its
attribute takes_lists tells simulate to march it on Python floats
(numkit.rk4_march). The magnetic ball's rate stays on arrays: its
division and power give inf or nan in numpy where floats raise.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from .model import NonlinearModel, StateSpace
from .errors import SchemaError

ModelLike = Union[StateSpace, NonlinearModel]
Vector = Union[np.ndarray, List[float]]


def _params(given: Optional[Mapping[str, float]], defaults: Dict[str, float],
            name: str) -> Dict[str, float]:
    merged = dict(defaults)
    if given:
        for key, value in given.items():
            if key not in defaults:
                raise SchemaError(
                    f"unknown parameter {key!r} for builtin {name!r}",
                    location=f"/params/{key}")
            merged[key] = float(value)
    return merged


def _magnetic_ball(params: Optional[Mapping[str, float]]) -> NonlinearModel:
    p = _params(params, {"m": 1.0, "g": 9.8, "c": 1.0}, "magnetic_ball")
    m, g, c = p["m"], p["g"], p["c"]

    def f(x: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
        # vertical force balance for a ball under an electromagnet;
        # x[0] is the air gap, so f blows up as the gap closes, and the
        # march reports the blow-up itself
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.array([x[1], g - (c / m) * u[0] ** 2 / x[0] ** 2])

    def h(x: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
        return np.array([x[0]])

    return NonlinearModel(f=f, h=h, n=2, m=1, p=1)


def _pendulum(params: Optional[Mapping[str, float]]) -> NonlinearModel:
    p = _params(params, {"m": 1.0, "g": 1.0, "l": 1.0}, "pendulum")
    m, g, l = p["m"], p["g"], p["l"]

    def f(x: Vector, u: Vector, t: float) -> list:
        angle, rate = x
        # sin(inf) would raise; nan stops the march as a truncated run
        sine = math.sin(angle) if math.isfinite(angle) else math.nan
        return [rate, -(g / (m * l)) * sine + u[0]]

    f.takes_lists = True

    def h(x: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
        return np.array([x[0]])

    return NonlinearModel(f=f, h=h, n=2, m=1, p=1)


def _vanderpol(params: Optional[Mapping[str, float]]) -> NonlinearModel:
    _params(params, {}, "vanderpol")

    def f(x: Vector, u: Vector, t: float) -> list:
        # a product, not a power: x1 * x1 overflows to inf, as the numpy
        # power does, where the float power raises OverflowError
        x1, x2 = x
        return [x2, -(1.0 - x1 * x1) * x2 - x1]

    f.takes_lists = True

    def h(x: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
        return np.array([x[0]])

    return NonlinearModel(f=f, h=h, n=2, m=0, p=1)


# Two-link underactuated pendulum linearized at the upright position,
# torque on the lower joint, measured angle of the lower link. Entries
# kept verbatim so round trips through the transfer function reproduce
# gain 15.9549 and zeros at +-6.5354.
_PENDUBOT_A = (
    (0.0, 1.0, 0.0, 0.0),
    (51.9243, 0.0, -13.9700, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (-52.8376, 0.0, 68.4187, 0.0),
)
_PENDUBOT_B = ((0.0,), (15.9549,), (0.0,), (-29.3596,))
_PENDUBOT_C = ((1.0, 0.0, 0.0, 0.0),)


def _pendubot(params: Optional[Mapping[str, float]]) -> StateSpace:
    _params(params, {}, "pendubot")
    return StateSpace(
        A=np.array(_PENDUBOT_A),
        B=np.array(_PENDUBOT_B),
        C=np.array(_PENDUBOT_C),
        D=np.zeros((1, 1)),
    )


def _rlc(params: Optional[Mapping[str, float]]) -> StateSpace:
    p = _params(params, {"r": 1.0, "l": 1.0, "c": 1.0}, "rlc")
    r, l, c = p["r"], p["l"], p["c"]
    if r == 0.0 or l == 0.0 or c == 0.0:
        raise SchemaError("rlc parameters must be nonzero", location="/params")
    # x1 capacitor voltage, x2 inductor current, u source voltage
    A = np.array([[-1.0 / (r * c), 1.0 / c], [-1.0 / l, 0.0]])
    B = np.array([[0.0], [1.0 / l]])
    C = np.array([[1.0, 0.0]])
    return StateSpace(A=A, B=B, C=C, D=np.zeros((1, 1)))


_REGISTRY: Dict[str, Callable[[Optional[Mapping[str, float]]], ModelLike]] = {
    "magnetic_ball": _magnetic_ball,
    "pendulum": _pendulum,
    "vanderpol": _vanderpol,
    "pendubot": _pendubot,
    "rlc": _rlc,
}


def builtin_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def builtin_model(name: str,
                  params: Optional[Mapping[str, float]] = None) -> ModelLike:
    """Construct a registry model by name.

    Raises SchemaError for unknown names or parameters so the CLI can
    surface the JSON-pointer location directly.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SchemaError(f"unknown builtin model {name!r}",
                          location="/name") from None
    return factory(params)
