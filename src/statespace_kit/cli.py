"""Batch command-line front end.

JSON in, JSON and CSV out, no interactive mode. This module imports only
the standard library at load time so that STATESPACE_KIT_THREADS can cap
the numeric backend's thread pool before numpy first loads; everything
numeric lives in _cliops and is imported inside main().

Exit codes: 0 success, 1 domain error (serialized into report.json),
2 usage or input errors (nothing is written).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from typing import Dict, Iterable, Optional

from . import __version__
from .errors import SchemaError, ToolkitError

# every command and the --tol names it honors; _cliops.HANDLERS maps the
# same names to their handlers
COMMANDS = {
    "realize": ("rank_rtol",),
    "analyze": ("mode_tol",),
    "stability": ("axis_tol",),
    "structural": ("rank_tol", "zero_tol"),
    "place": ("verify_tol",),
    "observer": ("verify_tol",),
    "integral": (),
    "diophantine": (),
    "lqr": (),
    "srl": (),
    "margins": (),
    "simulate": (),
    "steer": (),
    "tpbvp": (),
    "mintime": (),
}

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _configure_threads() -> None:
    cap = os.environ.get("STATESPACE_KIT_THREADS")
    if not cap:
        return
    for var in _BLAS_ENV_VARS:
        os.environ.setdefault(var, cap)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves it unchanged, and the
    # append action copies the --tol default list before adding to it
    parser = argparse.ArgumentParser(
        prog="statespace-kit",
        description="Linear-systems analysis and control synthesis, batch mode.",
    )
    parser.add_argument("command", choices=COMMANDS, help="subcommand to run")
    parser.add_argument("--input", required=True,
                        help="path to the JSON input document")
    parser.add_argument("--out", required=True,
                        help="directory for report.json and data files")
    parser.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="tolerance override, repeatable")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed echoed into the report; no command "
                             "reads it")
    return parser


class _Constant:
    """Stand-in for a NaN or Infinity literal while locating it."""

    def __init__(self, name: str):
        self.name = name


def _reject_constant(name: str):
    raise SchemaError(f"non-finite number {name} is not allowed")


# json.loads(text) with the same settings, plus the non-finite hook
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _load_document(text: str):
    """Parse an input document, refusing NaN, Infinity and -Infinity.

    Valid documents are parsed once. A refused one is parsed a second time
    with stand-ins, to give the SchemaError the JSON pointer of the first
    non-finite constant.
    """
    try:
        return _DECODER.decode(text)
    except SchemaError:
        found = _first_constant(json.loads(text, parse_constant=_Constant))
        if found is None:  # a duplicate key dropped it from the document
            raise
    path, constant = found
    raise SchemaError(f"non-finite number {constant.name} is not allowed",
                      location=path or "/")


def _first_constant(doc):
    """(JSON pointer, stand-in) of the first _Constant in document order."""
    stack = [("", doc)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, _Constant):
            return path, value
        if isinstance(value, dict):
            items = value.items()
        elif isinstance(value, list):
            items = enumerate(value)
        else:
            continue
        stack.extend(reversed([
            (f"{path}/{str(key).replace('~', '~0').replace('/', '~1')}", item)
            for key, item in items]))
    return None


def _parse_tolerances(pairs, command: str,
                      allowed) -> Optional[Dict[str, float]]:
    overrides: Dict[str, float] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            print(f"error: --tol expects NAME=VALUE, got {pair!r}",
                  file=sys.stderr)
            return None
        if name not in allowed:
            known = ", ".join(allowed) if allowed else "none"
            print(f"error: command {command!r} does not honor tolerance "
                  f"{name!r} (recognized: {known})", file=sys.stderr)
            return None
        try:
            overrides[name] = float(raw)
        except ValueError:
            print(f"error: tolerance {name!r} needs a numeric value, "
                  f"got {raw!r}", file=sys.stderr)
            return None
        if not 0.0 <= overrides[name] < float("inf"):  # false for nan too
            print(f"error: --tol {pair!r}: a tolerance must be finite "
                  f"and >= 0", file=sys.stderr)
            return None
    return overrides


def _report_text(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\\n",
    written here because json skips its C encoder when indent is set."""
    out = []
    _encode(report, "\n", out)
    out.append("\n")
    return "".join(out)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def _encode(value, newline: str, out: list) -> None:
    """Append value's json text at the indent that newline ends with.

    Exact str, int, float, list, tuple and str-keyed dict values are
    written as json writes them; a list of floats whose sum is finite (so
    every float is) is one join. Any other value, such as a float subclass
    or a dict with other keys, goes to json.dumps with the same settings
    and is re-indented: ensure_ascii text holds no raw newline in a string.
    """
    kind = type(value)
    if kind is str:
        out.append(json.encoder.encode_basestring_ascii(value))
    elif kind is float:
        out.append(_float_text(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append(_CONSTANTS[value])
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is float for v in value) and math.isfinite(sum(value)):
            out.append("[" + inner + ("," + inner).join(map(float.__repr__, value))
                       + newline + "]")
            return
        out.append("[")
        for i, v in enumerate(value):
            out.append("," + inner if i else inner)
            _encode(v, inner, out)
        out.append(newline + "]")
    elif kind is dict and all(type(k) is str for k in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append(("," + inner if i else inner)
                       + json.encoder.encode_basestring_ascii(key) + ": ")
            _encode(value[key], inner, out)
        out.append(newline + "}")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2,
                              ensure_ascii=True).replace("\n", newline))


def _write_outputs(outdir: str, report: dict,
                   files: Dict[str, Iterable[str]]) -> None:
    """Write each file to a temporary name in outdir and rename it into
    place, report.json last: a reader sees whole files only, and a run that
    stops part-way leaves no report.json of its own.

    Each file's text arrives as an iterable of blocks and is written one
    block at a time, so a large CSV is never held whole.

    Renaming over an existing file costs more than renaming to a free name,
    and more the larger the file. On one ext4 disk, a bare loop (median of
    200) took 54 us for 5 kB and 148 us for 200 kB, against 14 us and 21 us
    when the old file was unlinked first; the 60 renames of an in-process
    dense-design pass took 1.0 ms onto free names and 21 ms over the files
    of the pass before. That is ext4's auto_da_alloc, on by default: a
    rename that replaces a file allocates the new file's delayed blocks and
    starts their writeback, which is what leaves the old or the new file,
    never an empty one, after a crash. Unlinking first would drop that
    guarantee and leave a moment with no file at all, so it is ruled out."""
    os.makedirs(outdir, exist_ok=True)
    texts = [(name, files[name]) for name in sorted(files)]
    texts.append(("report.json", (_report_text(report),)))
    for name, blocks in texts:
        temp = os.path.join(outdir, f".{name}.{os.getpid()}.tmp")
        try:
            with open(temp, "w", newline="") as fh:
                fh.writelines(blocks)
            os.replace(temp, os.path.join(outdir, name))
        finally:
            if os.path.lexists(temp):
                os.remove(temp)


def main(argv=None) -> int:
    _configure_threads()
    args = _parser().parse_args(argv)

    overrides = _parse_tolerances(args.tol, args.command,
                                  COMMANDS[args.command])
    if overrides is None:
        return 2

    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        doc = _load_document(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON or an over-long integer
        print(f"error: input is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "config": {
            "command": args.command,
            "inputPath": args.input,
            "outputDir": args.out,
            "seed": args.seed,
            "toleranceOverrides": overrides,
        },
        "error": None,
        "inputsDigest": "sha256:" + hashlib.sha256(raw).hexdigest(),
        "results": None,
        "version": __version__,
        "warnings": [],
    }

    from . import _cliops

    # looked up per call: the benchmark tracer replaces the entries
    handler = _cliops.HANDLERS[args.command]
    try:
        results, files, warnings = handler(doc, overrides)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, ValueError) as exc:
        report["error"] = {
            "message": str(exc),
            "type": type(exc).__name__,
        }
        _write_outputs(args.out, report, {})
        return 1

    report["results"] = results
    report["warnings"] = list(warnings)
    _write_outputs(args.out, report, files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
