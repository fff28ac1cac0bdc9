"""Command handlers behind the CLI front end.

This module owns every numpy-touching piece of the batch tool: input
schema validation with JSON-pointer locations, model construction, and
one handler per subcommand. Handlers return (results, files, warnings)
where files maps output names to ready-to-write text. The front end in
cli.py stays import-light so thread caps land before the numeric stack
loads.

At load time this module imports only the standard library, numpy, cli
and errors. Each handler and schema helper imports the library modules it
calls where it calls them, so a cold run loads only its own command's
modules.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .cli import COMMANDS
from .errors import (
    DegeneratePencil,
    NonSquarePlant,
    SchemaError,
)

if TYPE_CHECKING:
    from .lqr import LqrProblem
    from .model import StateSpace
    from .realization import RationalFunction
    from .response import Trajectory

_NUMBER = (int, float)


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


def _optional_number(doc: dict, key: str, loc: str, default=None):
    if key not in doc or doc[key] is None:
        return default
    return _number(doc[key], f"{loc}/{key}")


def _integer(value, loc: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail("integer expected", loc)
    if value < minimum:
        _fail(f"value must be >= {minimum}", loc)
    return value


def _vector(value, loc: str, length: Optional[int] = None) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail("non-empty array of numbers expected", loc)
    out = []
    for i, v in enumerate(value):
        out.append(_number(v, f"{loc}/{i}"))
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
        grid.append([_number(v, f"{loc}/{i}/{j}") for j, v in enumerate(row)])
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


def _pole_list(value, loc: str) -> List[complex]:
    if not isinstance(value, list) or not value:
        _fail("non-empty array of poles expected", loc)
    return [_scalar_or_pair(v, f"{loc}/{i}") for i, v in enumerate(value)]


def _poly(value, loc: str) -> np.ndarray:
    return _vector(value, loc)


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


def _csv(header: List[str], rows) -> str:
    # 17 significant digits round-trip every double; "%.17g" converts each
    # value with float() as an f-string would, one format call per row
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj: Trajectory) -> str:
    n = traj.states.shape[1] if traj.states.ndim == 2 else 0
    m = traj.inputs.shape[1] if traj.inputs.ndim == 2 else 0
    p = traj.outputs.shape[1] if traj.outputs.ndim == 2 else 0
    header = (["t"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"u{j + 1}" for j in range(m)]
              + [f"y{j + 1}" for j in range(p)])
    table = np.hstack([traj.times.reshape(-1, 1), traj.states, traj.inputs,
                       traj.outputs])
    return _csv(header, table.tolist())


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
        n = A.shape[0]
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
        times = _vector(_require(doc, "times", loc), f"{loc}/times")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            _fail("times must be strictly increasing with at least two samples",
                  f"{loc}/times")
        k = times.size
        A = _matrix_samples(_require(doc, "A", loc), f"{loc}/A", k, None, None)
        n = A.shape[1]
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


def _lti_model(doc: dict) -> StateSpace:
    from .model import StateSpace

    model = _extract_model(doc)
    if not isinstance(model, StateSpace):
        _fail("this command requires a constant-coefficient (lti) model",
              "/model/type")
    return model


# ---------------------------------------------------------------------------
# command handlers: (doc, tol, seed) -> (results, files, warnings)


def _h_realize(doc, tol, seed):
    from . import realization

    form = doc.get("form", "ccf")
    if form not in ("ccf", "ocf", "modal", "minimal"):
        _fail("form must be one of ccf, ocf, modal, minimal", "/form")
    G = _tf_doc(_require(doc, "transfer", "/"), "/transfer")
    if isinstance(G, realization.TransferMatrix):
        if form != "minimal":
            _fail("matrix transfer input requires form 'minimal'", "/form")
        sys = realization.mimo_minimal_realization(
            G, rank_rtol=tol.get("rank_rtol", 1e-8))
    elif form == "minimal":
        sys = realization.mimo_minimal_realization(
            realization.TransferMatrix(entries=((G,),)),
            rank_rtol=tol.get("rank_rtol", 1e-8))
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

    fwd = structural.modal_controllability_test(sys, tol=mode_tol)
    dual = structural.modal_controllability_test(
        StateSpace(A=sys.A.T, B=sys.C.T, C=sys.B.T, D=sys.D.T), tol=mode_tol)

    def keyed(report):
        order = sorted(
            range(len(report.eigenvalues)),
            key=lambda i: (round(report.eigenvalues[i].real, 9),
                           round(report.eigenvalues[i].imag, 9)))
        return order

    fo, do = keyed(fwd), keyed(dual)
    modes = []
    for i, j in zip(fo, do):
        modes.append({
            "controllable": bool(fwd.controllable_flags[i]),
            "eigenvalue": _c(fwd.eigenvalues[i]),
            "inputCoupling": float(fwd.row_norms[i]),
            "observable": bool(dual.controllable_flags[j]),
            "outputCoupling": float(dual.row_norms[j]),
        })
    return modes


def _h_analyze(doc, tol, seed):
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


def _h_stability(doc, tol, seed):
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
    warnings = []
    if verdict.kind == stability.ASYMPTOTICALLY_STABLE:
        P = stability.solve_lyapunov(sys.A, np.eye(sys.n))
        results["lyapunovP"] = _mat_out(P)
    return results, {}, warnings


def _h_structural(doc, tol, seed):
    from . import structural
    from .model import LtvModel, StateSpace

    model = _extract_model(doc)
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
    elif isinstance(model, LtvModel):
        if horizon is None:
            _fail("time-varying structural analysis requires a horizon", "/horizon")
    else:
        _fail("structural analysis requires a linear model", "/model/type")
    if horizon is not None:
        t0, tf = horizon
        wrep = structural.controllability_grammian(model, t0, tf)
        results["ctrbGrammian"] = {
            "conditioning": float(wrep.conditioning),
            "maxEig": float(wrep.max_eig),
            "minEig": float(wrep.min_eig),
        }
        if model.p:
            hrep = structural.observability_grammian(model, t0, tf)
            results["obsvGrammian"] = {
                "conditioning": float(hrep.conditioning),
                "maxEig": float(hrep.max_eig),
                "minEig": float(hrep.min_eig),
            }
    return results, {}, warnings


def _h_place(doc, tol, seed):
    from . import synthesis

    sys = _lti_model(doc)
    poles = _pole_list(_require(doc, "poles", "/"), "/poles")
    gains = synthesis.place_poles(sys, poles,
                                  verify_tol=tol.get("verify_tol", 1e-6))
    results = {
        "K": _mat_out(gains.K),
        "achievedPoles": _clist(gains.achieved_state_poles),
    }
    return results, {}, []


def _h_observer(doc, tol, seed):
    from . import synthesis

    sys = _lti_model(doc)
    op = _pole_list(_require(doc, "observer_poles", "/"), "/observer_poles")
    verify_tol = tol.get("verify_tol", 1e-6)
    if doc.get("reduced"):
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
        sp = _pole_list(doc["state_poles"], "/state_poles")
        kgains = synthesis.place_poles(sys, sp, verify_tol=verify_tol)
        assembly = synthesis.assemble_observer_feedback(sys, kgains.K, gains.L)
        results["K"] = _mat_out(kgains.K)
        results["closedLoopPoles"] = _clist(sorted(
            np.linalg.eigvals(assembly.closed_loop.A),
            key=lambda z: (z.real, z.imag)))
        results["compensator"] = _tf_out(assembly.compensator)
    return results, {}, []


def _h_integral(doc, tol, seed):
    from . import synthesis

    sys = _lti_model(doc)
    poles = _pole_list(_require(doc, "poles", "/"), "/poles")
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


def _h_diophantine(doc, tol, seed):
    from . import synthesis
    from .realization import TransferMatrix

    plant = _tf_doc(_require(doc, "plant", "/"), "/plant")
    if isinstance(plant, TransferMatrix):
        plant = plant.single()
    alpha_c = _poly(_require(doc, "alpha_c", "/"), "/alpha_c")
    alpha_o = _poly(_require(doc, "alpha_o", "/"), "/alpha_o")
    design = synthesis.diophantine_design(plant, alpha_c, alpha_o)
    results = {
        "compensator": _tf_out(design.compensator),
        "denominator": _poly_out(design.d),
        "numerator": _poly_out(design.n_poly),
        "residual": float(design.residual),
    }
    return results, {}, []


def _lqr_problem(doc) -> LqrProblem:
    from .lqr import LqrProblem
    from .model import NonlinearModel

    model = _extract_model(doc)
    if isinstance(model, NonlinearModel):
        _fail("quadratic regulation requires a linear model", "/model/type")
    n = model.n
    Q = _matrix(_require(doc, "Q", "/"), "/Q", rows=n, cols=n)
    R = _matrix(_require(doc, "R", "/"), "/R", rows=model.m, cols=model.m)
    M = None
    if doc.get("M") is not None:
        M = _matrix(doc["M"], "/M", rows=n, cols=n)
    t0 = _optional_number(doc, "t0", "", default=0.0)
    t1 = _optional_number(doc, "t1", "", default=None)
    try:
        return LqrProblem(sys=model, Q=Q, R=R, M=M, t0=t0, t1=t1)
    except ValueError as exc:
        _fail(str(exc), "/Q")


def _h_lqr(doc, tol, seed):
    from . import lqr

    prob = _lqr_problem(doc)
    files: Dict[str, str] = {}
    if prob.infinite:
        sol = lqr.solve_are(prob)
        results = {
            "K": _mat_out(sol.K_bar),
            "P": _mat_out(sol.P_bar),
            "closedLoopPoles": _clist(sol.closed_loop_poles),
            "horizon": "infinite",
        }
        return results, files, list(sol.warnings)
    steps = None
    if doc.get("steps") is not None:
        steps = _integer(doc["steps"], "/steps", minimum=1)
    sol = lqr.solve_rde(prob, steps=steps)
    n = sol.P_grid.shape[1]
    samples = 201
    if doc.get("samples") is not None:
        samples = _integer(doc["samples"], "/samples", minimum=2)
    ts = np.linspace(prob.t0, prob.t1, samples)
    header = ["t"] + [f"p{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    rows = []
    for t in ts:
        P = sol.P_at(t)
        rows.append([t] + [P[i, j] for i in range(n) for j in range(n)])
    files["rde_profile.csv"] = _csv(header, rows)
    K0 = sol.K_at(prob.t0)
    results = {
        "K0": _mat_out(K0),
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
    spec = doc.get("r_range", {})
    if not isinstance(spec, dict):
        _fail("r_range must be an object", "/r_range")
    lo = _optional_number(spec, "min", "/r_range", default=1e-2)
    hi = _optional_number(spec, "max", "/r_range", default=1e2)
    count = spec.get("count", 25)
    count = _integer(count, "/r_range/count", minimum=2)
    if lo <= 0 or hi <= lo:
        _fail("need 0 < min < max", "/r_range")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _h_srl(doc, tol, seed):
    from . import lqr, realization

    if doc.get("plant") is not None:
        plant = _tf_doc(doc["plant"], "/plant")
        if isinstance(plant, realization.TransferMatrix):
            plant = plant.single()
    else:
        sys = _lti_model(doc)
        plant = realization.ss_to_tf(sys).single()
    rv = _r_values(doc)
    points = lqr.symmetric_root_locus(plant, rv)
    rows = []
    for pt in points:
        for z in pt.roots:
            rows.append([pt.r, z.real, z.imag, 1.0 if z.real < 0 else 0.0])
    files = {"srl.csv": _csv(["r", "root_re", "root_im", "stable"], rows)}
    results = {
        "csv": "srl.csv",
        "rCount": int(rv.size),
        "rootsPerWeight": int(points[0].roots.size) if points else 0,
    }
    return results, files, []


def _omegas(doc) -> Optional[np.ndarray]:
    spec = doc.get("omega")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        _fail("omega must be an object {min, max, count}", "/omega")
    lo = _optional_number(spec, "min", "/omega", default=1e-2)
    hi = _optional_number(spec, "max", "/omega", default=1e3)
    count = _integer(spec.get("count", 400), "/omega/count", minimum=2)
    if lo <= 0 or hi <= lo:
        _fail("need 0 < min < max", "/omega")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _h_margins(doc, tol, seed):
    from . import lqr

    prob = _lqr_problem(doc)
    if not prob.infinite:
        _fail("margins are defined for the stationary design; omit t1", "/t1")
    sol = lqr.solve_are(prob)
    report = lqr.return_difference_report(sol, omegas=_omegas(doc))
    rows = [
        [w, rd, sv]
        for w, rd, sv in zip(report.omegas, report.return_difference,
                             report.sensitivity)
    ]
    files = {"margins.csv": _csv(
        ["omega", "return_difference", "sensitivity"], rows)}
    results = {
        "csv": "margins.csv",
        "identityResidual": float(report.identity_residual),
        "minOmega": float(report.min_omega),
        "minReturnDifference": float(report.min_return_difference),
    }
    return results, files, list(sol.warnings)


def _times_from_doc(doc, default_samples: int = 201) -> np.ndarray:
    if doc.get("times") is not None:
        times = _vector(doc["times"], "/times")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            _fail("times must be strictly increasing with at least two entries",
                  "/times")
        return times
    t0 = _optional_number(doc, "t0", "", default=0.0)
    t1 = _optional_number(doc, "t1", "", default=None)
    if t1 is None:
        _fail("provide either times or t0/t1", "/t1")
    if t1 <= t0:
        _fail("t1 must exceed t0", "/t1")
    samples = default_samples
    if doc.get("samples") is not None:
        samples = _integer(doc["samples"], "/samples", minimum=2)
    return np.linspace(t0, t1, samples)


def _h_simulate(doc, tol, seed):
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
    max_step = _optional_number(doc, "max_step", "", default=None)
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


def _h_steer(doc, tol, seed):
    from . import structural
    from .model import NonlinearModel

    model = _extract_model(doc)
    if isinstance(model, NonlinearModel):
        _fail("steering requires a linear model", "/model/type")
    x0 = _vector(_require(doc, "x0", "/"), "/x0", length=model.n)
    xf = _vector(_require(doc, "xf", "/"), "/xf", length=model.n)
    t0 = _number(_require(doc, "t0", "/"), "/t0")
    tf = _number(_require(doc, "tf", "/"), "/tf")
    if tf <= t0:
        _fail("tf must exceed t0", "/tf")
    samples = 201
    if doc.get("samples") is not None:
        samples = _integer(doc["samples"], "/samples", minimum=2)
    u, traj = structural.minimum_energy_steer(model, x0, xf, t0, tf,
                                              samples=samples)
    m = traj.inputs.shape[1]
    control_rows = [[traj.times[i]] + list(traj.inputs[i])
                    for i in range(traj.times.size)]
    files = {
        "control.csv": _csv(["t"] + [f"u{j + 1}" for j in range(m)],
                            control_rows),
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


def _h_tpbvp(doc, tol, seed):
    from . import minprin

    kind = doc.get("kind", "lq")
    if kind == "bilinear":
        x0 = _number(_require(doc, "x0", "/"), "/x0")
        t1 = _number(_require(doc, "t1", "/"), "/t1")
        sol = minprin.solve_bilinear_bang_bang(x0, t1)
        prob = minprin.BilinearProblem(x0=x0, t1=t1)
        argmin = minprin.hamiltonian_residual(sol, prob)
        ts = np.linspace(0.0, t1, 401)
        rows = []
        for t in ts:
            x = minprin.bilinear_state(sol, x0, t)
            rows.append([t, x, sol.control_at(t), x])
        files = {"trajectory.csv": _csv(["t", "x1", "u1", "y1"], rows)}
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
    Q = _matrix(_require(doc, "Q", "/"), "/Q", rows=n, cols=n)
    R = _matrix(_require(doc, "R", "/"), "/R", rows=model.m, cols=model.m)
    x0 = _vector(_require(doc, "x0", "/"), "/x0", length=n)
    x1 = _vector(_require(doc, "x1", "/"), "/x1", length=n)
    t0 = _number(_require(doc, "t0", "/"), "/t0")
    t1 = _number(_require(doc, "t1", "/"), "/t1")
    mask = None
    if doc.get("endpoint_mask") is not None:
        raw = doc["endpoint_mask"]
        if not isinstance(raw, list) or len(raw) != n:
            _fail(f"endpoint_mask must list {n} booleans", "/endpoint_mask")
        for i, b in enumerate(raw):
            if not isinstance(b, bool):
                _fail("boolean expected", f"/endpoint_mask/{i}")
        mask = tuple(raw)
    M = None
    if doc.get("terminal_penalty") is not None:
        M = _matrix(doc["terminal_penalty"], "/terminal_penalty",
                    rows=n, cols=n)
    samples = 401
    if doc.get("samples") is not None:
        samples = _integer(doc["samples"], "/samples", minimum=2)
    try:
        prob = minprin.TpbvpProblem(sys=model, Q=Q, R=R, x0=x0, x1=x1,
                                    t0=t0, t1=t1, endpoint_mask=mask,
                                    terminal_penalty=M)
    except ValueError as exc:
        _fail(str(exc), "/R")
    sol = minprin.solve_lq_tpbvp(prob, samples=samples)
    res = minprin.hamiltonian_residual(sol, prob)
    costate_rows = [[sol.trajectory.times[i]] + list(sol.costate[i])
                    for i in range(sol.trajectory.times.size)]
    files = {
        "costate.csv": _csv(["t"] + [f"p{i + 1}" for i in range(n)],
                            costate_rows),
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


def _h_mintime(doc, tol, seed):
    from . import minprin

    x0 = _vector(_require(doc, "x0", "/"), "/x0", length=2)
    sol = minprin.solve_double_integrator_min_time(x0)
    prob = minprin.MinTimeProblem(x0=tuple(float(v) for v in x0))
    argmin = minprin.hamiltonian_residual(sol, prob)
    terminal = minprin.min_time_terminal_residual(sol, x0)
    t1 = sol.terminal_time
    ts = np.linspace(0.0, t1, 401) if t1 > 0 else np.array([0.0])
    rows = []
    for t in ts:
        x = minprin.min_time_state(sol, x0, t)
        rows.append([t, x[0], x[1], sol.control_at(t), x[0]])
    files = {"trajectory.csv": _csv(["t", "x1", "x2", "u1", "y1"], rows)}
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
