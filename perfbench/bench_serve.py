"""Benchmark client; standard library only until the program loads.

``bench_serve.py PLAN RESULT`` is the client: one closed loop that hands
each document of the plan to ``statespace_kit.cli.main`` and waits for it.
It runs one untimed warm-up pass, then whole timed passes until the time
budget is used. The first ``cli.main`` call applies STATESPACE_KIT_THREADS
before numpy loads, as a command-line run does. With tracing on, the budget
is split: untraced passes first, then the tracer is installed for the rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time


def output_digest(outdir: str):
    """sha256 over the names and bytes of every output file, and their size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


def peak_rss_kb() -> int:
    """This process's own peak resident set (VmHWM). Unlike ru_maxrss it
    does not inherit the resident set of the parent that spawned it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def start_cli():
    """Import the CLI and run its start-up, which caps the BLAS threads."""
    from statespace_kit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
    return cli


def call_main(cli, argv):
    """Exit code of one CLI run, or the name of the exception it raised."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback exit of the command-line tool
        return "exception:" + type(exc).__name__


def _one_pass(cli, docs, tracer):
    rows = []
    for i, doc in enumerate(docs):
        if tracer is not None:
            tracer.doc = i
        c0 = time.process_time()
        w0 = time.perf_counter()
        rc = call_main(cli, doc["argv"])
        w1 = time.perf_counter()
        c1 = time.process_time()
        digest, size = output_digest(doc["out"]) if os.path.isdir(doc["out"]) else ("", 0)
        rows.append([w1 - w0, c1 - c0, rc, digest, size])
    return rows


def serve(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    docs = plan["docs"]
    from statespace_kit import cli

    passes = [{"traced": False, "warmup": True, "rows": _one_pass(cli, docs, None)}]
    budget = float(plan["seconds"])
    tracer = None
    phases = [(False, budget / 2), (True, budget / 2)] if plan["trace"] else [(False, budget)]
    for traced, seconds in phases:
        if traced:
            import bench_trace

            tracer = bench_trace.Tracer()
            tracer.install()
        t_end = time.perf_counter() + seconds
        while True:
            rows = _one_pass(cli, docs, tracer)
            passes.append({"traced": traced, "warmup": False, "rows": rows})
            if time.perf_counter() >= t_end:
                break
    result = {"passes": passes, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["spans"] = len(tracer.cols["id"])
        tracer.write_spans(plan["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1], sys.argv[2]))
