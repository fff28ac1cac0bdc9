"""Span tracer installed from outside the program.

``Tracer.install`` replaces every public function of the statespace_kit
modules (and ``__post_init__`` plus public methods of their classes) with a
timing wrapper. It patches every module-level binding of the function, so
calls through names bound by ``from ... import`` (``lqr.structural_analysis``,
``structural.simulate``, ``synthesis.ss_to_tf``) are caught as well. The CLI
handlers in ``_cliops.HANDLERS`` and the numpy boundary (``numpy.linalg.svd``
and ``numpy.linalg.eig``) are wrapped too.

Spans live in memory as integer columns and are written once, at the end of
the run. Standard library only, so the worker can import it before numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

MODULES = ("numkit", "model", "realization", "response", "stability",
           "structural", "synthesis", "lqr", "minprin", "registry",
           "_cliops", "cli")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.incl_ns: list = []  # outermost calls of each name only
        self.self_ns: list = []
        self._depth: list = []
        self._stack: list = []  # [span id, ns covered by child spans]
        self._next = 0
        self.doc = -1
        self.cols = {k: array("q") for k in ("id", "parent", "doc", "name",
                                             "start", "end")}
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.incl_ns, self.self_ns, self._depth):
                col.append(0)
        return nid

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        return traced

    def _call(self, nid, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = self._next
        self._next = sid + 1
        frame = [sid, 0]
        stack.append(frame)
        self._depth[nid] += 1
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            self._depth[nid] -= 1
            self.calls[nid] += 1
            self.self_ns[nid] += dur - frame[1]
            if self._depth[nid] == 0:
                self.incl_ns[nid] += dur
            if stack:
                stack[-1][1] += dur
            c = self.cols
            c["id"].append(sid)
            c["parent"].append(parent)
            c["doc"].append(self.doc)
            c["name"].append(nid)
            c["start"].append(t0)
            c["end"].append(t1)

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the program's functions; uninstall() puts them back."""
        mods = {}
        for short in MODULES:
            mods[short] = importlib.import_module("statespace_kit." + short)
        wrapped = {}

        def wrapper_for(fn):
            if fn not in wrapped:
                owner = fn.__module__.rsplit(".", 1)[-1]
                wrapped[fn] = self.wrap(fn, f"{owner}.{fn.__qualname__}")
            return wrapped[fn]

        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                        and obj.__module__.startswith("statespace_kit.")):
                    self._set(mod, attr, wrapper_for(obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for key, val in list(vars(obj).items()):
                        if inspect.isfunction(val) and (
                                not key.startswith("_") or key == "__post_init__"):
                            self._set(obj, key, wrapper_for(val))
        handlers = getattr(mods["_cliops"], "HANDLERS", {})
        for cmd, fn in list(handlers.items()):
            self._patched.append((handlers, cmd, fn))
            handlers[cmd] = wrapper_for(fn)
        import numpy.linalg as la

        for attr in ("svd", "eig"):
            self._set(la, attr, self.wrap(getattr(la, attr), f"numpy.{attr}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns (outermost), self ns."""
        return {name: {"calls": self.calls[i], "incl_ns": self.incl_ns[i],
                       "self_ns": self.self_ns[i]}
                for i, name in enumerate(self.names) if self.calls[i]}

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": {k: v.tolist() for k, v in self.cols.items()}},
                      fh, separators=(",", ":"))
