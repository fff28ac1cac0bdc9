"""Cold-start wall time and peak memory of each CLI command, for two trees.

    python3 tools/cold_start.py PARENT_TREE CHANGE_TREE [-k 7] [--out FILE]

Each of the 15 commands gets one small inline document. A timed run is one
fresh interpreter with PYTHONPATH=<tree>/src that calls
``statespace_kit.cli.main`` on that document and prints its exit code,
whether the ``scipy`` package got loaded (scipy's LAPACK extension alone,
loaded by file, does not count), which ``statespace_kit.*`` modules did,
and its own peak resident set (VmHWM of /proc/self/status, which unlike
ru_maxrss does not inherit the parent's); its wall time, spawn to exit, is
what a user of the batch tool waits for. The children run without
PYTHONDONTWRITEBYTECODE and with PYTHONPYCACHEPREFIX in the tool's temporary
directory, so the one untimed run per command and tree writes the package's
bytecode and the timed runs load it, as from an installed package. Then
each command runs k times per tree, the two trees alternating and swapping
which goes first every round.

The JSON written to FILE (default BENCH_cold_start.json) holds, per command
and tree, the median and quartiles of the wall time and of the peak
resident set in MB, the exit codes and the scipy-loaded flags seen, and the
sorted package modules loaded with their count (a deterministic figure
beside the wall time; a run that loads a different set stops the tool),
plus the host, the Python, numpy and scipy versions, STATESPACE_KIT_THREADS
(1 unless set), the two bytecode settings and k. A markdown table of the medians (wall time and peak
MB) and module counts goes to stdout. Standard library only.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

_SS = {"type": "lti", "A": [[0.0, 1.0], [-2.0, -3.0]],
       "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
_LQR = {"model": {"type": "lti", "A": [[0.0, -1.0], [0.0, 0.0]],
                  "B": [[1.0, 0.0], [0.0, 1.0]]},
        "Q": [[4.0, 2.0], [2.0, 1.0]], "R": [[1.0, 0.0], [0.0, 1.0]]}

# one document per command; stability's model is asymptotically stable, so
# it reaches its Lyapunov solve; structural's square plant gets its
# transmission zeros from numpy alone
DOCUMENTS = {
    "realize": {"transfer": {"num": [1.0], "den": [1.0, 3.0, 2.0]},
                "form": "ccf"},
    "analyze": {"model": _SS},
    "stability": {"model": _SS},
    "structural": {"model": _SS},
    "place": {"model": _SS, "poles": [-4.0, -5.0]},
    "observer": {"model": _SS, "observer_poles": [-6.0, -7.0]},
    "integral": {"model": _SS, "poles": [-2.0, -3.0, -4.0]},
    "diophantine": {"plant": {"num": [1.0], "den": [1.0, 0.0, -1.0]},
                    "alpha_c": [1.0, 2.0, 2.0], "alpha_o": [1.0, 11.0, 30.0]},
    "lqr": _LQR,
    "srl": {"model": _SS, "r_range": {"count": 5}},
    "margins": {"model": _SS, "Q": [[1.0, 0.0], [0.0, 0.0]], "R": [[1.0]],
                "omega": {"count": 20}},
    "simulate": {"model": _SS, "x0": [1.0, 0.0], "t1": 1.0, "samples": 11},
    "steer": {"model": _SS, "x0": [0.0, 0.0], "xf": [1.0, 0.0], "t0": 0.0,
              "tf": 1.0, "samples": 11},
    "tpbvp": {"kind": "bilinear", "x0": 0.5, "t1": 2.0},
    "mintime": {"x0": [1.0, 0.0]},
}

_CHILD = (
    "import json, sys\n"
    "from statespace_kit import cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
    "print(json.dumps([rc, 'scipy' in sys.modules,"
    " sorted(m for m in sys.modules if m.startswith('statespace_kit.')),"
    " int(hwm[0].split()[1])]))\n"
)


def run_once(tree, command, inp, out, env):
    env = dict(env, PYTHONPATH=os.path.join(tree, "src"))
    argv = [sys.executable, "-c", _CHILD, command, "--input", inp, "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{command} in {tree} failed:\n{proc.stderr[-2000:]}")
    rc, scipy, modules, peak_kb = json.loads(proc.stdout.splitlines()[-1])
    return wall, rc, scipy, tuple(modules), peak_kb / 1024


def quartiles(values):
    return statistics.quantiles(sorted(values), n=4, method="inclusive")


def summary(samples):
    q1, median, q3 = quartiles(s[0] for s in samples)
    peak_q1, peak_median, peak_q3 = quartiles(s[4] for s in samples)
    module_sets = {s[3] for s in samples}
    if len(module_sets) != 1:
        sys.exit(f"runs loaded different module sets: {sorted(module_sets)}")
    modules = module_sets.pop()
    return {
        "median_s": round(median, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "peak_median_mb": round(peak_median, 2),
        "peak_q1_mb": round(peak_q1, 2),
        "peak_q3_mb": round(peak_q3, 2),
        "exit_codes": sorted({s[1] for s in samples}),
        "scipy_loaded": sorted({s[2] for s in samples}),
        "modules": list(modules),
        "module_count": len(modules),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("-k", type=int, default=7,
                    help="timed processes per command and tree")
    ap.add_argument("--out", default="BENCH_cold_start.json")
    args = ap.parse_args(argv)
    if args.k < 2:
        ap.error("-k must be at least 2")
    trees = {"parent": args.parent, "change": args.change}
    threads = os.environ.get("STATESPACE_KIT_THREADS", "1")
    samples = {c: {side: [] for side in trees} for c in DOCUMENTS}
    with tempfile.TemporaryDirectory() as tmp:
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(STATESPACE_KIT_THREADS=threads,
                   PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))
        inputs = {}
        for command, doc in DOCUMENTS.items():
            inputs[command] = os.path.join(tmp, command + ".json")
            with open(inputs[command], "w") as fh:
                json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        for rnd in range(args.k + 1):  # round 0 is the untimed one
            order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
            for command in DOCUMENTS:
                for side in order:
                    result = run_once(trees[side], command, inputs[command],
                                      out, env)
                    if rnd:
                        samples[command][side].append(result)
    report = {
        "host": {"machine": platform.machine(), "system": platform.system(),
                 "release": platform.release(), "cpus": os.cpu_count()},
        "software": {"python": platform.python_version(),
                     "numpy": importlib.metadata.version("numpy"),
                     "scipy": importlib.metadata.version("scipy")},
        "settings": {"STATESPACE_KIT_THREADS": threads, "k": args.k,
                     "PYTHONDONTWRITEBYTECODE": "unset",
                     "PYTHONPYCACHEPREFIX": "<temporary directory>/pycache"},
        "commands": {},
    }
    print("| command | parent (s) | change (s) | peak MB (parent / change) "
          "| modules (parent / change) | scipy loaded (parent / change) |")
    print("| --- | --- | --- | --- | --- | --- |")
    for command, by_side in samples.items():
        row = {side: summary(s) for side, s in by_side.items()}
        report["commands"][command] = row
        print(f"| `{command}` | {row['parent']['median_s']:.3f} | "
              f"{row['change']['median_s']:.3f} | "
              f"{row['parent']['peak_median_mb']:.1f} / "
              f"{row['change']['peak_median_mb']:.1f} | "
              f"{row['parent']['module_count']} / {row['change']['module_count']} | "
              f"{row['parent']['scipy_loaded']} / {row['change']['scipy_loaded']} |")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
