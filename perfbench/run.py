"""statespace-kit benchmark.

    python3 perfbench/run.py --workload dense-design --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The program is taken from ./src;
nothing of an installed copy is used. Outputs go under ./.perfbench_out.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import bench_docs
import bench_refs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = tuple(bench_docs.WORKLOADS)
SETUP_SAMPLES = 7
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Imports everything a cold invocation loads before it reads its input.
_SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, {here!r}); "
    "import bench_serve; bench_serve.start_cli(); import statespace_kit._cliops; "
    "print(time.perf_counter() - t0)"
)
# Per-layer metrics (name, unit). README.md maps each to the end-to-end
# metric and workload it should move.
LAYER_METRICS = (
    ("import.ms", "ms"), ("import.scipy_share_pct", "%"),
    ("cli.self_ms", "ms"), ("cli.bytes_out", "bytes"), ("cliops.self_ms", "ms"),
    ("numkit.self_ms", "ms"), ("numkit.eigen.calls", "count"),
    ("numkit.eigen.ms", "ms"), ("numkit.rank.calls", "count"),
    ("numkit.char_poly.calls", "count"), ("numkit.expm.calls", "count"),
    ("numkit.expm.ms", "ms"), ("numpy.svd.calls", "count"),
    ("numpy.eig.calls", "count"), ("stability.self_ms", "ms"),
    ("stability.solve_lyapunov.ms", "ms"), ("lqr.self_ms", "ms"),
    ("lqr.solve_are.ms", "ms"), ("lqr.solve_rde.ms", "ms"),
    ("lqr.return_difference_report.ms", "ms"),
    ("lqr.symmetric_root_locus.ms", "ms"), ("structural.self_ms", "ms"),
    ("structural.structural_analysis.calls", "count"),
    ("structural.grammian.ms", "ms"), ("structural.minimum_energy_steer.ms", "ms"),
    ("response.self_ms", "ms"), ("response.simulate.ms", "ms"),
    ("synthesis.self_ms", "ms"), ("synthesis.place_poles.ms", "ms"),
    ("minprin.self_ms", "ms"), ("minprin.solve_lq_tpbvp.ms", "ms"),
    ("realization.self_ms", "ms"), ("model.self_ms", "ms"),
    ("trace.peak_rss_mb", "MB"), ("trace.docs_per_s", "1/s"),
    ("trace.untraced_docs_per_s", "1/s"), ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)
# Span names summed into one per-layer metric (inclusive time or calls).
_SPAN_GROUPS = {
    "structural.grammian": ("structural.controllability_grammian",
                            "structural.observability_grammian"),
}


class Failure(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["STATESPACE_KIT_THREADS"] = "1"
    env["PYTHONPATH"] = SRC
    return env


def write_docs(workload: str, seed: int, root: str):
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(os.path.join(root, "docs"))
    docs = bench_docs.generate(workload, seed)
    plan = []
    for d in docs:
        path = os.path.join(root, "docs", d.id + ".json")
        with open(path, "w") as fh:
            json.dump(d.body, fh)
        out = os.path.join(root, "out", d.id)
        plan.append({"id": d.id, "out": out,
                     "argv": [d.command, "--input", path, "--out", out]})
    return docs, plan


def measure_setup(samples: int) -> list:
    """Seconds to import the CLI and its handlers, one fresh interpreter each."""
    code = _SETUP_CODE.format(here=HERE)
    times = []
    for i in range(samples + 1):  # the first one also compiles bytecode
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise Failure("set-up import failed:\n" + proc.stderr[-2000:])
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def scipy_import_share() -> float:
    """Percent of the set-up imports' self time spent in scipy (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           _SETUP_CODE.format(here=HERE)], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    total = scipy = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (p.strip() for p in line[len("import time:"):].split("|"))
        total += int(self_us)
        if name.split(".")[0] == "scipy":
            scipy += int(self_us)
    return 100.0 * scipy / max(total, 1)


# ---------------------------------------------------------------------------
# running the documents


def serve_documents(plan, seconds, trace, root):
    plan_path = os.path.join(root, "plan.json")
    result_path = os.path.join(root, "result.json")
    with open(plan_path, "w") as fh:
        json.dump({"docs": plan, "seconds": seconds, "trace": bool(trace),
                   "spans_path": os.path.join(root, "spans.json")}, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "bench_serve.py"),
                           plan_path, result_path], env=child_env(),
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise Failure("serving process failed:\n" + proc.stderr[-2000:])
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checking and metrics


def check_outputs(docs, plan, result):
    """Checker holding the failures and agreement digits of the last pass.

    Every document must give the same exit code and outputs in every pass."""
    ck = bench_refs.Checker()
    passes = result["passes"]
    for i, (doc, entry) in enumerate(zip(docs, plan)):
        rcs = {p["rows"][i][2] for p in passes}
        digests = {p["rows"][i][3] for p in passes}
        ck.label = doc.id
        if len(rcs) != 1 or len(digests) != 1:
            ck.fail(f"passes differ: exit codes {sorted(map(str, rcs))}, "
                    f"{len(digests)} distinct output digests")
            continue
        if passes[-1]["rows"][i][2] != 0:
            continue  # a failed operation: counted, not checked
        ck.record = not doc.fault
        bench_refs.check_document(ck, doc.command, doc.body, entry["out"])
    return ck


def _per_doc(result, column, traced=False) -> list:
    """Each document's median of a row column over the timed passes.

    The metrics are taken over these per-document figures, so each document
    of a workload's mix counts once, whatever the number of passes."""
    timed = [p["rows"] for p in result["passes"]
             if not p["warmup"] and p["traced"] == traced]
    return [statistics.median(rows[i][column] for rows in timed)
            for i in range(len(timed[0]))]


def end_to_end(result, setup, ck):
    if not ck.digits:
        raise Failure("no successful output to check")
    wall, cpu = _per_doc(result, 0), _per_doc(result, 1)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "doc_p50_ms": (1000.0 * statistics.median(wall), "ms"),
        "doc_p90_ms": (1000.0 * statistics.quantiles(wall, n=10, method="inclusive")[8],
                       "ms"),
        "docs_per_s": (len(wall) / sum(wall), "1/s"),
        "cpu_ms_per_doc": (1000.0 * sum(cpu) / len(cpu), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "accuracy_digits": (min(ck.digits)[0], "digits"),
    }


def per_layer(result, setup, scipy_share):
    summary = result["trace"]
    traced = [p for p in result["passes"] if p["traced"]]
    npass = len(traced)
    layers: dict = {}
    for name, rec in summary.items():
        layer = name.split(".", 1)[0].lstrip("_")
        layers[layer] = layers.get(layer, 0) + rec["self_ns"]

    def span_total(name, key):
        names = _SPAN_GROUPS.get(name, (name,))
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    traced_wall, wall = _per_doc(result, 0, traced=True), _per_doc(result, 0)
    rate = len(traced_wall) / sum(traced_wall)
    base = len(wall) / sum(wall)
    values = {
        "import.ms": 1000.0 * statistics.median(setup),
        "import.scipy_share_pct": scipy_share,
        "cli.bytes_out": sum(r[4] for r in traced[0]["rows"]),
        "trace.peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "trace.docs_per_s": rate,
        "trace.untraced_docs_per_s": base,
        "trace.overhead_pct": 100.0 * (base / rate - 1.0),
        "trace.spans": result["spans"] / npass,
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            val = values[name]
        elif name.endswith(".self_ms"):
            val = layers.get(name[:-len(".self_ms")], 0) / 1e6 / npass
        elif name.endswith(".calls"):
            val = span_total(name[:-len(".calls")], "calls") / npass
        else:  # inclusive ms of a function (outermost calls)
            val = span_total(name[:-len(".ms")], "incl_ns") / 1e6 / npass
        out[name] = {"value": val, "unit": unit}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, limit=None) -> dict:
    if not os.path.isfile(os.path.join(SRC, "statespace_kit", "cli.py")):
        raise Failure(f"no program source under {SRC}; run from a checkout root")
    root = os.path.join(OUT, workload)
    docs, plan = write_docs(workload, seed, root)
    if limit is not None:
        docs, plan = docs[:limit], plan[:limit]
    setup = measure_setup(SETUP_SAMPLES if limit is None else 1)
    result = serve_documents(plan, seconds, trace, root)
    ck = check_outputs(docs, plan, result)
    for msg in ck.failures:
        print("check failed:", msg)
    for digits, what in sorted(ck.digits)[:3]:
        print(f"least agreement: {digits:.2f} digits, {what}")
    timed = [r for p in result["passes"] if not p["warmup"] for r in p["rows"]]
    if trace:
        metrics = per_layer(result, setup, scipy_import_share())
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(result, setup, ck).items()}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise Failure(f"a metric is not finite: {metrics}")
    return {"correct": not ck.failures, "attempted": len(timed),
            "failed": sum(1 for r in timed if r[2] != 0), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (Failure, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
