"""Throughput of two source trees on one benchmark workload, as a BENCH file.

    python3 tools/bench_record.py PARENT_TREE CHANGE_TREE \
        --workload dense-design --seed 59 -k 10 --label are_sign

Each tree runs ``perfbench/run.py --trace 0`` from its own root, k times,
for the ``run_seconds`` of this checkout's BENCHMARK.json. The runs go in
pairs, one per tree, and the tree that runs first swaps every pair, so a
drift of the host over time falls on both sides alike.

BENCH_<label>.json (in the current directory) gets one entry per workload;
a workload run again replaces its entry, the others stay. An entry holds
every run's end-to-end metrics with its correct, failed and attempted
counts; per tree, the median and quartiles of each metric and the summed
counts; and per metric, the pairs the change won, lost and tied, scored
with the metric's ``better`` field. As in tools/cold_start.py, the runs go
without PYTHONDONTWRITEBYTECODE and with PYTHONPYCACHEPREFIX in a
temporary directory, into which ``compileall`` writes the bytecode of both
trees' ``src`` and ``perfbench`` before the first pair: every run then
loads bytecode, as from an installed package, and none compiles. The host,
the Python, numpy and scipy versions and the settings are laid out as in
BENCH_cold_start.json: the settings are STATESPACE_KIT_THREADS, the run
length and those two bytecode settings. Each entry also names the commit
of each tree when it is a git checkout. A markdown table of the medians and wins
goes to stdout. Standard library only.
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

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds, env):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          text=True, timeout=10 * seconds + 300)
    if proc.returncode != 0:
        sys.exit(f"{workload} in {tree} failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def commit(tree):
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(runs, better):
    per_side = {}
    for side in SIDES:
        mine = [r for r in runs if r["tree"] == side]
        metrics = {}
        for name in better:
            q1, median, q3 = statistics.quantiles(
                [r["metrics"][name] for r in mine], n=4, method="inclusive")
            metrics[name] = {"median": median, "q1": q1, "q3": q3}
        per_side[side] = {
            "metrics": metrics,
            "correct_runs": sum(r["correct"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "attempted": sum(r["attempted"] for r in mine),
        }
    wins = {name: {"change": 0, "parent": 0, "tie": 0} for name in better}
    for pair in sorted({r["pair"] for r in runs}):
        value = {r["tree"]: r["metrics"] for r in runs if r["pair"] == pair}
        for name, sense in better.items():
            a, b = value["change"][name], value["parent"][name]
            if a == b:
                wins[name]["tie"] += 1
            elif (a > b) == (sense == "higher"):
                wins[name]["change"] += 1
            else:
                wins[name]["parent"] += 1
    return per_side, wins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("-k", type=int, default=10, help="pairs of runs")
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    if args.k < 2:
        ap.error("-k must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    threads = os.environ.get("STATESPACE_KIT_THREADS", "1")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(STATESPACE_KIT_THREADS=threads,
                   PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            os.path.join(tree, "src"),
                            os.path.join(tree, "perfbench")],
                           env=env, check=True, capture_output=True)
        for pair in range(args.k):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(trees[side], args.workload, args.seed,
                                  seconds, env)
                runs.append(dict(result, pair=pair, tree=side,
                                 position=position))
                print(f"pair {pair} {side}: docs_per_s "
                      f"{result['metrics']['docs_per_s']:.1f}", file=sys.stderr)
    per_side, wins = summarize(runs, better)
    path = f"BENCH_{args.label}.json"
    report = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
    report["host"] = {"machine": platform.machine(), "system": platform.system(),
                      "release": platform.release(), "cpus": os.cpu_count()}
    report["software"] = {"python": platform.python_version(),
                          "numpy": importlib.metadata.version("numpy"),
                          "scipy": importlib.metadata.version("scipy")}
    # the bytecode settings of the runs, which move setup_s and peak_rss_mb
    report["settings"] = {"STATESPACE_KIT_THREADS": threads,
                          "run_seconds": seconds,
                          "PYTHONDONTWRITEBYTECODE": "unset",
                          "PYTHONPYCACHEPREFIX": "<temporary directory>/pycache"}
    report["workloads"][args.workload] = {
        "seed": args.seed, "k": args.k,
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "runs": runs, "trees": per_side, "pair_wins": wins,
    }
    print(f"{args.workload}, seed {args.seed}, {args.k} pairs\n")
    print("| metric | parent median | change median | change wins / pairs |")
    print("| --- | --- | --- | --- |")
    for name in better:
        print(f"| `{name}` | {per_side['parent']['metrics'][name]['median']:.4g} | "
              f"{per_side['change']['metrics'][name]['median']:.4g} | "
              f"{wins[name]['change']} / {args.k} |")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
