"""Command handlers behind the CLI front end.

This module owns every numpy-touching piece of the batch tool: input
schema validation with JSON-pointer locations, model construction, and
one handler per subcommand. Handlers return (results, files, warnings)
where files maps output names to their text as an iterator of blocks,
which the front end writes one block at a time. The front end in
cli.py stays import-light so thread caps land before the numeric stack
loads.

At load time this module imports only the standard library, numpy, cli
and errors. Each handler and schema helper imports the library modules it
calls where it calls them, so a cold run loads only its own command's
modules.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional

import numpy as np

from .cli import COMMANDS
from .errors import (
    ArgumentError,
    DegeneratePencil,
    NonSquarePlant,
    SchemaError,
    WorkBudgetExceeded,
)

if TYPE_CHECKING:
    from .lqr import LqrProblem
    from .model import StateSpace
    from .realization import RationalFunction
    from .response import Trajectory

_NUMBER = (int, float)

# values per CSV text block, about 100 kB of "%.17g" text: large enough that
# the per-block numpy calls cost nothing, small enough that a run's memory
# follows its arrays and not its output text
CSV_BLOCK_VALUES = 4096

# Work limits on document fields, by field name; a larger value raises
# WorkBudgetExceeded before the work starts. The per-unit costs they are
# sized from were timed in process on a 2-vCPU x86 host, one BLAS thread.
LIMITS = {
    # state dimension or polynomial degree: structural 0.16 s at n = 100,
    # growing as n^3
    "n": 200,
    "samples": 100_000,  # output rows: 5-9 us each at n = 2 to 6
    # entries of times in a 6-state simulate: 6-8 us each on an even grid,
    # 78-115 us when every spacing differs (one exponential each, which
    # numkit.EXPM_FLOW_BUDGET bounds)
    "times": 100_000,
    "steps": 200_000,  # RDE steps, as lqr._default_rde_steps caps them: 21-42 us
    # values of rde_profile.csv, samples x n^2: 0.6-0.85 us each at n = 6 to 30
    "profile": 4_000_000,
    # r_range and omega points: 220-290 us a weight (srl, degree 8), 11-15 us
    # a frequency (margins, n = 16)
    "count": 10_000,
}


# ---------------------------------------------------------------------------
# schema primitives


def _fail(message: str, loc: str):
    raise SchemaError(message, location=loc or "/")


def _require(doc: dict, key: str, loc: str):
    if not isinstance(doc, dict):
        _fail("object expected", loc)
    if key not in doc:
        _fail(f"missing required field {key!r}", loc or "/")
    return doc[key]


def _number(value, loc: str) -> float:
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        _fail("number expected", loc)
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the double range
        number = math.inf
    if not math.isfinite(number):  # or a float literal such as 1e999
        _fail("number outside the finite double range", loc)
    return number


def _finite_floats(row: list) -> bool:
    """True when every element is a finite float, which _number would return
    as it is; any other row goes through _number element by element, which
    builds the JSON pointer of the element it refuses."""
    # a sum of floats is finite only if every term is
    return all(type(v) is float for v in row) and math.isfinite(sum(row))


def _optional_number(doc: dict, key: str, loc: str, default=None):
    if key not in doc or doc[key] is None:
        return default
    return _number(doc[key], f"{loc}/{key}")


def _positive_number(doc: dict, key: str):
    value = _optional_number(doc, key, "")
    if value is not None and value <= 0:
        _fail("positive number expected", f"/{key}")
    return value


def _boolean(value, loc: str) -> bool:
    if not isinstance(value, bool):
        _fail("boolean expected", loc)
    return value


def _bounded(name: str, value: int, loc: str) -> int:
    if value > LIMITS[name]:
        raise WorkBudgetExceeded(
            f"{loc}: {value} is over the {name} limit of {LIMITS[name]}")
    return value


def _count(doc: dict, key: str, default, minimum: int, loc: str = ""):
    """Integer doc[key] in [minimum, LIMITS[key]]; default if absent or null."""
    value = doc.get(key)
    if value is None:
        return default
    loc = f"{loc}/{key}"
    if isinstance(value, bool) or not isinstance(value, int):
        _fail("integer expected", loc)
    if value < minimum:
        _fail(f"value must be >= {minimum}", loc)
    return _bounded(key, value, loc)


def _vector(value, loc: str, length: Optional[int] = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail("non-empty array of numbers expected", loc)
    out = value if _finite_floats(value) else [
        _number(v, f"{loc}/{i}") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        _fail(f"expected length {length}, got {len(out)}", loc)
    return np.array(out)


def _matrix(value, loc: str, rows: Optional[int] = None,
            cols: Optional[int] = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail("non-empty array of rows expected", loc)
    grid = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            _fail("non-empty array of numbers expected", f"{loc}/{i}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail("ragged matrix", f"{loc}/{i}")
        if not _finite_floats(row):
            row = [_number(v, f"{loc}/{i}/{j}") for j, v in enumerate(row)]
        grid.append(row)
    M = np.array(grid)
    if rows is not None and M.shape[0] != rows:
        _fail(f"expected {rows} rows, got {M.shape[0]}", loc)
    if cols is not None and M.shape[1] != cols:
        _fail(f"expected {cols} columns, got {M.shape[1]}", loc)
    return M


def _scalar_or_pair(value, loc: str) -> complex:
    """Accept a real number, an [re, im] pair, or {"re": .., "im": ..}."""
    if isinstance(value, _NUMBER) and not isinstance(value, bool):
        return complex(_number(value, loc), 0.0)
    if isinstance(value, list):
        if len(value) != 2:
            _fail("expected [re, im]", loc)
        return complex(_number(value[0], f"{loc}/0"), _number(value[1], f"{loc}/1"))
    if isinstance(value, dict):
        re = _number(_require(value, "re", loc), f"{loc}/re")
        im = _number(_require(value, "im", loc), f"{loc}/im")
        return complex(re, im)
    _fail("expected a number, [re, im], or {re, im}", loc)


def _pole_list(value, loc: str, count: int) -> List[complex]:
    if not isinstance(value, list):
        _fail("array of poles expected", loc)
    if len(value) != count:
        _fail(f"expected {count} poles, got {len(value)}", loc)
    return [_scalar_or_pair(v, f"{loc}/{i}") for i, v in enumerate(value)]


def _poly(value, loc: str) -> np.ndarray:
    coeffs = _vector(value, loc)
    _bounded("n", coeffs.size - 1, loc)
    return coeffs


def _times(value, loc: str) -> np.ndarray:
    times = _vector(value, loc)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        _fail("at least two strictly increasing times expected", loc)
    _bounded("times", times.size, loc)
    return times


def _log_grid(spec, loc: str, lo: float, hi: float, count: int) -> np.ndarray:
    """np.logspace over a {min, max, count} object with these defaults."""
    if not isinstance(spec, dict):
        _fail("object {min, max, count} expected", loc)
    lo = _optional_number(spec, "min", loc, default=lo)
    hi = _optional_number(spec, "max", loc, default=hi)
    count = _count(spec, "count", count, 2, loc)
    if lo <= 0 or hi <= lo:
        _fail("need 0 < min < max", loc)
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _tf_entry(value, loc: str) -> RationalFunction:
    from .realization import rational

    if not isinstance(value, dict):
        _fail("transfer function object {num, den} expected", loc)
    num = _poly(_require(value, "num", loc), f"{loc}/num")
    den = _poly(_require(value, "den", loc), f"{loc}/den")
    if not np.any(den != 0.0):
        _fail("denominator must not be identically zero", f"{loc}/den")
    return rational(num, den)


def _tf_doc(value, loc: str):
    """A single {num, den} object or a nested grid under "entries"."""
    from .realization import TransferMatrix

    if isinstance(value, dict) and "entries" in value:
        rows = value["entries"]
        if not isinstance(rows, list) or not rows:
            _fail("non-empty array of rows expected", f"{loc}/entries")
        grid = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or not row:
                _fail("non-empty array expected", f"{loc}/entries/{i}")
            grid.append(tuple(
                _tf_entry(e, f"{loc}/entries/{i}/{j}") for j, e in enumerate(row)
            ))
        try:
            return TransferMatrix(entries=tuple(grid))
        except ValueError as exc:
            _fail(str(exc), f"{loc}/entries")
    return _tf_entry(value, loc)


def _siso_plant(doc) -> RationalFunction:
    from .realization import TransferMatrix

    plant = _tf_doc(_require(doc, "plant", "/"), "/plant")
    if isinstance(plant, TransferMatrix):
        if plant.p != 1 or plant.m != 1:
            _fail("single-input single-output plant expected", "/plant")
        plant = plant.single()
    return plant


# ---------------------------------------------------------------------------
# serialization helpers (numbers out)


def _c(z) -> dict:
    z = complex(z)
    return {"im": float(z.imag), "re": float(z.real)}


def _clist(values) -> list:
    return [_c(z) for z in values]


def _mat_out(M) -> list:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    return [[float(v) for v in row] for row in M]


def _vec_out(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def _poly_out(p) -> list:
    arr = np.asarray(p)
    if np.iscomplexobj(arr):
        arr = np.real(arr)
    return [float(x) for x in arr]


def _tf_out(obj) -> dict:
    from .realization import TransferMatrix

    if isinstance(obj, TransferMatrix):
        if obj.p == 1 and obj.m == 1:
            obj = obj.single()
        else:
            return {"entries": [[_tf_out(e) for e in row] for row in obj.entries]}
    return {"den": _poly_out(obj.den), "num": _poly_out(obj.num)}


def _ss_out(sys: StateSpace) -> dict:
    return {
        "A": _mat_out(sys.A),
        "B": _mat_out(sys.B) if sys.m else [],
        "C": _mat_out(sys.C) if sys.p else [],
        "D": _mat_out(sys.D) if sys.p and sys.m else [],
        "stateDimension": sys.n,
    }


def _csv(header: List[str], blocks: Iterable) -> Iterator[str]:
    """CSV text as the header line, then one text block per block of rows."""
    # 17 significant digits round-trip every double; "%.17g" converts each
    # value with float() as an f-string would, one format call per row
    line = ",".join(["%.17g"] * len(header)) + "\n"
    yield ",".join(header) + "\n"
    for rows in blocks:
        yield "".join([line % tuple(row) for row in rows])


def _columns_csv(**blocks) -> Iterator[str]:
    """CSV of equally long blocks in argument order: a 1-D block is one
    column under its name, a wider one a column per trailing index,
    numbered from 1 (x1, x2; p11, p12).

    The text comes as blocks of about CSV_BLOCK_VALUES values, each stacked
    and formatted only when it is read, so no whole-table copy or text is
    held. Every shape and dtype check runs here, in the caller."""
    header, columns = [], []
    for name, block in blocks.items():
        block = np.asarray(block, dtype=float)
        header.extend(name + "".join(str(i + 1) for i in index)
                      for index in np.ndindex(block.shape[1:]))
        columns.append(block.reshape(len(block), math.prod(block.shape[1:])))
    length = len(columns[0])
    if any(len(column) != length for column in columns):
        raise ValueError("CSV blocks of unequal length: "
                         f"{[len(column) for column in columns]}")
    step = max(1, CSV_BLOCK_VALUES // len(header))
    return _csv(header, (np.hstack([c[i:i + step] for c in columns]).tolist()
                         for i in range(0, length, step)))


def _trajectory_csv(traj: Trajectory) -> Iterator[str]:
    return _columns_csv(t=traj.times, x=traj.states, u=traj.inputs,
                        y=traj.outputs)


# ---------------------------------------------------------------------------
# model loading (shared JSON schema)


def _matrix_samples(value, loc: str, count: int, rows: Optional[int],
                    cols: Optional[int]) -> np.ndarray:
    if not isinstance(value, list) or len(value) != count:
        _fail(f"expected {count} matrix samples", loc)
    mats = []
    for i, entry in enumerate(value):
        mats.append(_matrix(entry, f"{loc}/{i}", rows=rows, cols=cols))
        if rows is None:
            rows = mats[-1].shape[0]
        if cols is None:
            cols = mats[-1].shape[1]
    return np.array(mats)


def model_from_doc(doc, loc: str = ""):
    """Build a model from the shared JSON schema rooted at `loc`."""
    from .model import StateSpace, ltv_model
    from .numkit import sample_interpolant

    if not isinstance(doc, dict):
        _fail("model object expected", loc)
    mtype = _require(doc, "type", loc)
    if mtype == "lti":
        A = _matrix(_require(doc, "A", loc), f"{loc}/A")
        n = _bounded("n", A.shape[0], f"{loc}/A")
        if A.shape[1] != n:
            _fail("A must be square", f"{loc}/A")
        B = (_matrix(doc["B"], f"{loc}/B", rows=n)
             if doc.get("B") else np.zeros((n, 0)))
        C = (_matrix(doc["C"], f"{loc}/C", cols=n)
             if doc.get("C") else np.zeros((0, n)))
        p, m = C.shape[0], B.shape[1]
        D = (_matrix(doc["D"], f"{loc}/D", rows=p, cols=m)
             if doc.get("D") else np.zeros((p, m)))
        return StateSpace(A=A, B=B, C=C, D=D)
    if mtype == "ltv-samples":
        times = _times(_require(doc, "times", loc), f"{loc}/times")
        k = times.size
        A = _matrix_samples(_require(doc, "A", loc), f"{loc}/A", k, None, None)
        n = _bounded("n", A.shape[1], f"{loc}/A")
        if A.shape[2] != n:
            _fail("A samples must be square", f"{loc}/A")
        Bs = (_matrix_samples(doc["B"], f"{loc}/B", k, n, None)
              if doc.get("B") else np.zeros((k, n, 0)))
        m = Bs.shape[2]
        Cs = (_matrix_samples(doc["C"], f"{loc}/C", k, None, n)
              if doc.get("C") else np.tile(np.eye(n), (k, 1, 1)))
        p = Cs.shape[1]
        Ds = (_matrix_samples(doc["D"], f"{loc}/D", k, p, m)
              if doc.get("D") else np.zeros((k, p, m)))
        breaks = ()
        if doc.get("breaks"):
            breaks = tuple(_vector(doc["breaks"], f"{loc}/breaks"))
        return ltv_model(*(sample_interpolant(times, S) for S in (A, Bs, Cs, Ds)),
                         n=n, m=m, p=p, breaks=breaks)
    if mtype == "nonlinear-builtin":
        name = _require(doc, "name", loc)
        if not isinstance(name, str):
            _fail("builtin name must be a string", f"{loc}/name")
        params = doc.get("params")
        if params is not None:
            if not isinstance(params, dict):
                _fail("params must be an object", f"{loc}/params")
            for key, value in params.items():
                _number(value, f"{loc}/params/{key}")
        from . import registry

        try:
            return registry.builtin_model(name, params)
        except SchemaError as exc:
            # re-anchor the registry's local pointer under this document
            message = str(exc)
            prefix = f"{exc.location}: "
            if message.startswith(prefix):
                message = message[len(prefix):]
            _fail(message, f"{loc}{exc.location}")
    _fail("type must be one of lti, ltv-samples, nonlinear-builtin",
          f"{loc}/type")


def _extract_model(doc: dict):
    """Commands accept either {"model": {...}, ...} or a bare model file."""
    if isinstance(doc, dict) and "model" in doc:
        return model_from_doc(doc["model"], loc="/model")
    if isinstance(doc, dict) and "type" in doc:
        return model_from_doc(doc, loc="")
    _fail("missing required field 'model'", "/")


def _linear_model(doc: dict):
    from .model import NonlinearModel

    model = _extract_model(doc)
    if isinstance(model, NonlinearModel):
        _fail("this command requires a linear (lti or ltv-samples) model",
              "/model/type")
    return model


def _weights(doc: dict, model):
    """The state weight Q (n x n) and the input weight R (m x m)."""
    Q = _matrix(_require(doc, "Q", "/"), "/Q", rows=model.n, cols=model.n)
    R = _matrix(_require(doc, "R", "/"), "/R", rows=model.m, cols=model.m)
    return Q, R


def _lti_model(doc: dict) -> StateSpace:
    from .model import StateSpace

    model = _extract_model(doc)
    if not isinstance(model, StateSpace):
        _fail("this command requires a constant-coefficient (lti) model",
              "/model/type")
    return model


# ---------------------------------------------------------------------------
# command handlers: (doc, tol) -> (results, files, warnings)


def _h_realize(doc, tol):
    from . import realization

    form = doc.get("form", "ccf")
    if form not in ("ccf", "ocf", "modal", "minimal"):
        _fail("form must be one of ccf, ocf, modal, minimal", "/form")
    G = _tf_doc(_require(doc, "transfer", "/"), "/transfer")
    if form == "minimal":
        if not isinstance(G, realization.TransferMatrix):
            G = realization.TransferMatrix(entries=((G,),))
        sys = realization.mimo_minimal_realization(
            G, rank_rtol=tol.get("rank_rtol", 1e-8))
    elif isinstance(G, realization.TransferMatrix):
        _fail("matrix transfer input requires form 'minimal'", "/form")
    else:
        builder = {"ccf": realization.ccf, "ocf": realization.ocf,
                   "modal": realization.modal_form}[form]
        sys = builder(G)
    results = {"form": form, "realization": _ss_out(sys)}
    if sys.n:
        results["poles"] = _clist(sorted(
            np.linalg.eigvals(sys.A), key=lambda z: (z.real, z.imag)))
    return results, {}, []


def _mode_table(sys: StateSpace, mode_tol):
    from . import structural
    from .model import StateSpace
    from .numkit import match_roots

    fwd = structural.modal_controllability_test(sys, tol=mode_tol)
    dual = structural.modal_controllability_test(
        StateSpace(A=sys.A.T, B=sys.C.T, C=sys.B.T, D=sys.D.T), tol=mode_tol)

    lam = fwd.eigenvalues
    # rows by (re, im) relative to the largest |eigenvalue|, so that their
    # order does not change when A is scaled
    rho = float(np.max(np.abs(lam), initial=0.0)) or 1.0
    rows = sorted(range(len(lam)), key=lambda i: (round(lam[i].real / rho, 9),
                                                  round(lam[i].imag / rho, 9)))
    # each row reads the dual mode nearest its eigenvalue
    mates = match_roots(lam[rows], dual.eigenvalues, float("inf"))
    return [{
        "controllable": bool(fwd.controllable_flags[i]),
        "eigenvalue": _c(lam[i]),
        "inputCoupling": float(fwd.row_norms[i]),
        "observable": bool(dual.controllable_flags[j]),
        "outputCoupling": float(dual.row_norms[j]),
    } for i, j in zip(rows, mates)]


def _h_analyze(doc, tol):
    from . import structural

    sys = _lti_model(doc)
    modes = _mode_table(sys, tol.get("mode_tol"))
    report = structural.structural_analysis(sys)
    results = {
        "ctrbRank": int(report.ctrb_rank),
        "modes": modes,
        "obsvRank": int(report.obsv_rank),
    }
    return results, {}, []


def _h_stability(doc, tol):
    from . import stability

    sys = _lti_model(doc)
    verdict = stability.lti_stability(sys.A, tol=tol.get("axis_tol"))
    results = {
        "eigenvalues": _clist(verdict.eigenvalues),
        "flags": {
            "multiplicityDeficits": [
                {"deficit": int(d), "eigenvalue": _c(lam)}
                for (lam, d) in verdict.multiplicity_deficits
            ],
            "witnesses": _clist(verdict.witnesses),
        },
        "verdict": verdict.kind,
    }
    if verdict.kind == stability.ASYMPTOTICALLY_STABLE:
        P = stability.solve_lyapunov(sys.A, np.eye(sys.n))
        results["lyapunovP"] = _mat_out(P)
    return results, {}, []


def _h_structural(doc, tol):
    from . import structural
    from .model import StateSpace

    model = _linear_model(doc)
    horizon = None
    if doc.get("horizon") is not None:
        pair = doc["horizon"]
        if isinstance(pair, list) and len(pair) == 2 and pair[1] is None:
            # a null end is the infinite horizon
            horizon = (_number(pair[0], "/horizon/0"), np.inf)
        else:
            pair = _vector(pair, "/horizon", length=2)
            if pair[1] <= pair[0]:
                _fail("horizon must satisfy t0 < tf", "/horizon")
            horizon = (float(pair[0]), float(pair[1]))
    warnings: List[str] = []
    results: Dict[str, object] = {}
    if isinstance(model, StateSpace):
        report = structural.structural_analysis(model, tol=tol.get("rank_tol"))
        results.update({
            "controllable": bool(report.ctrb_rank == model.n),
            "ctrbRank": int(report.ctrb_rank),
            "detectable": bool(report.detectable),
            "observable": bool(report.obsv_rank == model.n),
            "obsvRank": int(report.obsv_rank),
            "stabilizable": bool(report.stabilizable),
            "uncontrollableModes": _clist(report.uncontrollable_modes),
            "unobservableModes": _clist(report.unobservable_modes),
        })
        if model.p and model.m:
            try:
                zeros = structural.transmission_zeros(
                    model, tol=tol.get("zero_tol", 1e-8))
                results["transmissionZeros"] = _clist(zeros.transmission_zeros)
            except NonSquarePlant:
                warnings.append("transmission zeros skipped: plant is not square")
            except DegeneratePencil:
                warnings.append("transmission zeros skipped: degenerate pencil")
    elif horizon is None:
        _fail("time-varying structural analysis requires a horizon", "/horizon")
    elif np.isinf(horizon[1]):
        _fail("an infinite horizon requires an lti model", "/horizon/1")
    if horizon is not None:
        for key, rep in zip(("ctrbGrammian", "obsvGrammian"),
                            structural.grammians(model, *horizon)):
            results[key] = {"conditioning": float(rep.conditioning),
                            "maxEig": float(rep.max_eig),
                            "minEig": float(rep.min_eig)}
    return results, {}, warnings


def _h_place(doc, tol):
    from . import synthesis

    sys = _lti_model(doc)
    poles = _pole_list(_require(doc, "poles", "/"), "/poles", sys.n)
    gains = synthesis.place_poles(sys, poles,
                                  verify_tol=tol.get("verify_tol", 1e-6))
    results = {
        "K": _mat_out(gains.K),
        "achievedPoles": _clist(gains.achieved_state_poles),
    }
    return results, {}, []


def _h_observer(doc, tol):
    from . import synthesis

    sys = _lti_model(doc)
    reduced = doc.get("reduced")
    reduced = reduced is not None and _boolean(reduced, "/reduced")
    # a reduced observer places the n - p unmeasured directions, if any
    count = max(sys.n - sys.p, 0) if reduced else sys.n
    op = _pole_list(_require(doc, "observer_poles", "/"), "/observer_poles",
                    count)
    verify_tol = tol.get("verify_tol", 1e-6)
    if reduced:
        design = synthesis.reduced_order_observer(sys, op)
        results = {
            "L": _mat_out(design.gain),
            "estimator": _ss_out(design.estimator),
            "outputTransform": _mat_out(design.output_transform),
            "reduced": True,
        }
        return results, {}, []
    gains = synthesis.observer_gain(sys, op, verify_tol=verify_tol)
    results = {
        "L": _mat_out(gains.L),
        "achievedObserverPoles": _clist(gains.achieved_observer_poles),
        "reduced": False,
    }
    if doc.get("state_poles") is not None:
        sp = _pole_list(doc["state_poles"], "/state_poles", sys.n)
        kgains = synthesis.place_poles(sys, sp, verify_tol=verify_tol)
        assembly = synthesis.assemble_observer_feedback(sys, kgains.K, gains.L)
        results["K"] = _mat_out(kgains.K)
        results["closedLoopPoles"] = _clist(sorted(
            np.linalg.eigvals(assembly.closed_loop.A),
            key=lambda z: (z.real, z.imag)))
        results["compensator"] = _tf_out(assembly.compensator)
    return results, {}, []


def _h_integral(doc, tol):
    from . import synthesis

    sys = _lti_model(doc)
    # the plant and one integrator per output
    poles = _pole_list(_require(doc, "poles", "/"), "/poles", sys.n + sys.p)
    design = synthesis.integral_control(sys, poles)
    K1, K2 = design.gains
    results = {
        "achievedPoles": _clist(design.achieved_poles),
        "augmentedA": _mat_out(design.augmented.A_tilde),
        "augmentedB": _mat_out(design.augmented.B_tilde),
        "integratorGain": _mat_out(K2),
        "stateGain": _mat_out(K1),
    }
    return results, {}, []


def _h_diophantine(doc, tol):
    from . import synthesis
    from .numkit import poly_degree

    plant = _siso_plant(doc)
    # the degree of the denominator as given, before any cancellation
    n = plant.degree() + len(plant.cancelled_roots)
    if n < 1:
        _fail("plant must have at least first-order dynamics", "/plant")
    if plant.relative_degree() < 0:
        _fail("improper plant: numerator degree exceeds denominator degree",
              "/plant")
    targets = []
    for key in ("alpha_c", "alpha_o"):
        alpha = _poly(_require(doc, key, "/"), f"/{key}")
        if poly_degree(alpha) != n:
            _fail(f"expected degree {n}, the plant's, got {poly_degree(alpha)}",
                  f"/{key}")
        if abs(alpha[0] - 1.0) > 1e-12:
            _fail("monic polynomial expected", f"/{key}")
        targets.append(alpha)
    design = synthesis.diophantine_design(plant, *targets)
    results = {
        "compensator": _tf_out(design.compensator),
        "denominator": _poly_out(design.d),
        "numerator": _poly_out(design.n_poly),
        "residual": float(design.residual),
    }
    return results, {}, []


def _lqr_problem(doc) -> LqrProblem:
    from .lqr import LqrProblem
    from .model import StateSpace

    model = _linear_model(doc)
    Q, R = _weights(doc, model)
    M = None
    if doc.get("M") is not None:
        M = _matrix(doc["M"], "/M", rows=model.n, cols=model.n)
    t0 = _optional_number(doc, "t0", "", default=0.0)
    t1 = _optional_number(doc, "t1", "", default=None)
    if t1 is None and not isinstance(model, StateSpace):
        _fail("the stationary design needs a constant-coefficient (lti) model; "
              "a time-varying model needs a finite horizon t1", "/model/type")
    try:
        return LqrProblem(sys=model, Q=Q, R=R, M=M, t0=t0, t1=t1)
    except ArgumentError as exc:
        _fail(str(exc), f"/{exc.name}")


def _h_lqr(doc, tol):
    from . import lqr

    prob = _lqr_problem(doc)
    files: Dict[str, Iterator[str]] = {}
    if prob.infinite:
        sol = lqr.solve_are(prob)
        results = {
            "K": _mat_out(sol.K_bar),
            "P": _mat_out(sol.P_bar),
            "closedLoopPoles": _clist(sol.closed_loop_poles),
            "horizon": "infinite",
        }
        return results, files, list(sol.warnings)
    steps = _count(doc, "steps", None, 1)
    samples = _count(doc, "samples", 201, 2)
    _bounded("profile", samples * prob.sys.n ** 2, "/samples")
    ts = np.linspace(prob.t0, prob.t1, samples)
    sol = lqr.solve_rde(prob, steps=steps)
    files["rde_profile.csv"] = _columns_csv(t=ts, p=sol.P_at(ts))
    results = {
        "K0": _mat_out(sol.K_at(prob.t0)),
        "P0": _mat_out(sol.P_at(prob.t0)),
        "horizon": [float(prob.t0), float(prob.t1)],
        "profile": "rde_profile.csv",
    }
    return results, files, list(sol.warnings)


def _r_values(doc) -> np.ndarray:
    if doc.get("r_values") is not None:
        vals = _vector(doc["r_values"], "/r_values")
        if np.any(vals <= 0):
            _fail("weights must be positive", "/r_values")
        return vals
    return _log_grid(doc.get("r_range", {}), "/r_range", 1e-2, 1e2, 25)


def _h_srl(doc, tol):
    from . import lqr, realization

    if doc.get("plant") is not None:
        plant = _siso_plant(doc)
    else:
        sys = _lti_model(doc)
        if sys.m != 1 or sys.p != 1:
            _fail(f"single-input single-output model expected, got {sys.m} "
                  f"inputs and {sys.p} outputs", "/model")
        plant = realization.ss_to_tf(sys).single()
    rv = _r_values(doc)
    points = lqr.symmetric_root_locus(plant, rv)
    roots = np.concatenate([pt.roots for pt in points])
    files = {"srl.csv": _columns_csv(
        r=np.repeat([pt.r for pt in points], [pt.roots.size for pt in points]),
        root_re=roots.real, root_im=roots.imag, stable=roots.real < 0)}
    results = {
        "csv": "srl.csv",
        "rCount": int(rv.size),
        "rootsPerWeight": int(points[0].roots.size) if points else 0,
    }
    return results, files, []


def _h_margins(doc, tol):
    from . import lqr

    prob = _lqr_problem(doc)
    if not prob.infinite:
        _fail("margins are defined for the stationary design; omit t1", "/t1")
    omegas = None
    if doc.get("omega") is not None:
        omegas = _log_grid(doc["omega"], "/omega", 1e-2, 1e3, 400)
    sol = lqr.solve_are(prob)
    report = lqr.return_difference_report(sol, omegas=omegas)
    files = {"margins.csv": _columns_csv(
        omega=report.omegas, return_difference=report.return_difference,
        sensitivity=report.sensitivity)}
    results = {
        "csv": "margins.csv",
        "identityResidual": float(report.identity_residual),
        "minOmega": float(report.min_omega),
        "minReturnDifference": float(report.min_return_difference),
    }
    return results, files, list(sol.warnings)


def _times_from_doc(doc) -> np.ndarray:
    if doc.get("times") is not None:
        return _times(doc["times"], "/times")
    t0 = _optional_number(doc, "t0", "", default=0.0)
    t1 = _optional_number(doc, "t1", "", default=None)
    if t1 is None:
        _fail("provide either times or t0/t1", "/t1")
    if t1 <= t0:
        _fail("t1 must exceed t0", "/t1")
    return np.linspace(t0, t1, _count(doc, "samples", 201, 2))


def _h_simulate(doc, tol):
    from . import response

    model = _extract_model(doc)
    x0 = _vector(_require(doc, "x0", "/"), "/x0", length=model.n)
    times = _times_from_doc(doc)
    u = None
    if doc.get("u") is not None:
        uval = doc["u"]
        if isinstance(uval, list):
            u = _vector(uval, "/u", length=model.m)
        else:
            u = np.array([_number(uval, "/u")])
            if model.m != 1:
                _fail(f"scalar input requires a single-input model (m={model.m})",
                      "/u")
    max_step = _positive_number(doc, "max_step")
    traj = response.simulate(model, x0, times, u=u, max_step=max_step)
    files = {"trajectory.csv": _trajectory_csv(traj)}
    results = {
        "csv": "trajectory.csv",
        "finalState": _vec_out(traj.states[-1]) if traj.states.size else [],
        "samples": int(traj.times.size),
        "truncated": bool(traj.truncated),
    }
    warnings = ["integration stopped early: state left the finite range"] \
        if traj.truncated else []
    return results, files, warnings


def _h_steer(doc, tol):
    from . import structural

    model = _linear_model(doc)
    x0 = _vector(_require(doc, "x0", "/"), "/x0", length=model.n)
    xf = _vector(_require(doc, "xf", "/"), "/xf", length=model.n)
    t0 = _number(_require(doc, "t0", "/"), "/t0")
    tf = _number(_require(doc, "tf", "/"), "/tf")
    if tf <= t0:
        _fail("tf must exceed t0", "/tf")
    u, traj = structural.minimum_energy_steer(
        model, x0, xf, t0, tf, samples=_count(doc, "samples", 201, 2))
    files = {
        "control.csv": _columns_csv(t=traj.times, u=traj.inputs),
        "trajectory.csv": _trajectory_csv(traj),
    }
    err = float(np.linalg.norm(traj.states[-1] - xf))
    results = {
        "controlCsv": "control.csv",
        "finalError": err,
        "grammianConditioning": float(u.grammian.conditioning),
        "terminalState": _vec_out(traj.states[-1]),
        "trajectoryCsv": "trajectory.csv",
    }
    return results, files, []


def _h_tpbvp(doc, tol):
    from . import minprin

    kind = doc.get("kind", "lq")
    if kind == "bilinear":
        x0 = _number(_require(doc, "x0", "/"), "/x0")
        if x0 <= 0:
            _fail("positive initial state expected", "/x0")
        t1 = _number(_require(doc, "t1", "/"), "/t1")
        sol = minprin.solve_bilinear_bang_bang(x0, t1)
        prob = minprin.BilinearProblem(x0=x0, t1=t1)
        argmin = minprin.hamiltonian_residual(sol, prob)
        ts = np.linspace(0.0, t1, 401)
        x = [[minprin.bilinear_state(sol, x0, t)] for t in ts]
        u = [[sol.control_at(t)] for t in ts]
        files = {"trajectory.csv": _columns_csv(t=ts, x=x, u=u, y=x)}
        results = {
            "cost": float(sol.cost),
            "residuals": {
                "argminViolations": len(argmin.violations),
                "maxGapToSwitch": float(argmin.max_gap_to_switch),
            },
            "switchingTimes": [float(t) for t in sol.switching_times],
            "terminalTime": float(sol.terminal_time),
        }
        return results, files, []
    if kind != "lq":
        _fail("kind must be 'lq' or 'bilinear'", "/kind")
    model = _lti_model(doc)
    n = model.n
    Q, R = _weights(doc, model)
    x0 = _vector(_require(doc, "x0", "/"), "/x0", length=n)
    x1 = _vector(_require(doc, "x1", "/"), "/x1", length=n)
    t0 = _number(_require(doc, "t0", "/"), "/t0")
    t1 = _number(_require(doc, "t1", "/"), "/t1")
    if t1 <= t0:
        _fail("t1 must exceed t0", "/t1")
    mask = None
    if doc.get("endpoint_mask") is not None:
        raw = doc["endpoint_mask"]
        if not isinstance(raw, list) or len(raw) != n:
            _fail(f"endpoint_mask must list {n} booleans", "/endpoint_mask")
        mask = tuple(_boolean(b, f"/endpoint_mask/{i}")
                     for i, b in enumerate(raw))
    M = None
    if doc.get("terminal_penalty") is not None:
        M = _matrix(doc["terminal_penalty"], "/terminal_penalty",
                    rows=n, cols=n)
    samples = _count(doc, "samples", 401, 2)
    try:
        prob = minprin.TpbvpProblem(sys=model, Q=Q, R=R, x0=x0, x1=x1,
                                    t0=t0, t1=t1, endpoint_mask=mask,
                                    terminal_penalty=M)
    except ValueError as exc:
        _fail(str(exc), "/R")
    sol = minprin.solve_lq_tpbvp(prob, samples=samples)
    res = minprin.hamiltonian_residual(sol, prob)
    files = {
        "costate.csv": _columns_csv(t=sol.trajectory.times, p=sol.costate),
        "trajectory.csv": _trajectory_csv(sol.trajectory),
    }
    results = {
        "initialCostate": _vec_out(sol.initial_costate),
        "residuals": {
            "costate": float(res.costate_residual),
            "endpoint": float(sol.endpoint_residual),
            "state": float(res.state_residual),
            "stationarity": float(res.stationarity_residual),
        },
        "switchingTimes": [],
        "terminalTime": float(t1),
    }
    return results, files, []


def _h_mintime(doc, tol):
    from . import minprin

    x0 = _vector(_require(doc, "x0", "/"), "/x0", length=2)
    sol = minprin.solve_double_integrator_min_time(x0)
    prob = minprin.MinTimeProblem(x0=tuple(float(v) for v in x0))
    argmin = minprin.hamiltonian_residual(sol, prob)
    terminal = minprin.min_time_terminal_residual(sol, x0)
    t1 = sol.terminal_time
    ts = np.linspace(0.0, t1, 401) if t1 > 0 else np.array([0.0])
    x = minprin.min_time_states(sol, x0, ts)
    u = [[sol.control_at(t)] for t in ts]
    files = {"trajectory.csv": _columns_csv(t=ts, x=x, u=u, y=x[:, :1])}
    results = {
        "residuals": {
            "argminViolations": len(argmin.violations),
            "maxGapToSwitch": float(argmin.max_gap_to_switch),
            "terminal": float(terminal),
        },
        "switchingTimes": [float(t) for t in sol.switching_times],
        "terminalTime": float(t1),
    }
    return results, files, []


HANDLERS = {name: globals()["_h_" + name] for name in COMMANDS}
