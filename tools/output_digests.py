"""Print one digest line per input document: ``name exit-code sha256 stderr``.

    PYTHONPATH=<tree>/src python3 tools/output_digests.py DOCS_DIR OUT_DIR
    PYTHONPATH=<tree>/src python3 tools/output_digests.py \
        --workload dense-design --seed 7 DOCS_DIR OUT_DIR
    PYTHONPATH=<tree>/src python3 tools/output_digests.py \
        --against OTHER_TREE DOCS_DIR OUT_DIR

With --workload and --seed, DOCS_DIR is emptied first and filled with the
benchmark documents ``perfbench/bench_docs.generate(WORKLOAD, SEED)`` of the
checkout this script sits in, one ``<id>.json`` each. Every ``*.json`` in
DOCS_DIR runs through ``statespace_kit.cli.main`` into
OUT_DIR/<name>, which is emptied first. The command is the first
dash-separated part of the file name that names one (``007-simulate-n2``
runs ``simulate``). The digest covers the name and bytes of every output
file. The last field is the sha256 of what the command wrote to stderr, or
``-`` when it wrote nothing; each document runs under its own
``warnings.catch_warnings()`` with the default filter, so a warning shows
every time, as it would in a fresh process. ``report.json`` records the input and output paths, so two trees give
comparable lines only with the same DOCS_DIR and OUT_DIR; run it once per
tree and diff the two listings.

With --against, the same DOCS_DIR and OUT_DIR are listed first for
OTHER_TREE, in a subprocess with PYTHONPATH=OTHER_TREE/src, and then for the
tree on this PYTHONPATH. Only the lines that differ are printed, ``-`` for
OTHER_TREE and ``+`` for this tree, and any difference exits 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


def digest(outdir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []:
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run(cli, argv):
    """(exit code, stderr text) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")  # a new filter list: nothing seen yet
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback exit of the command-line tool
            rc = "exception:" + type(exc).__name__
    return rc, err.getvalue()


def write_documents(workload, seed, docs_dir):
    sys.path.insert(0, PERFBENCH)
    import bench_docs

    shutil.rmtree(docs_dir, ignore_errors=True)
    os.makedirs(docs_dir)
    for doc in bench_docs.generate(workload, seed):
        with open(os.path.join(docs_dir, doc.id + ".json"), "w") as fh:
            json.dump(doc.body, fh)


def listing(docs_dir, out_dir):
    from statespace_kit import cli

    for fname in sorted(os.listdir(docs_dir)):
        name, ext = os.path.splitext(fname)
        if ext != ".json":
            continue
        command = next((part for part in name.split("-") if part in cli.COMMANDS), None)
        if command is None:
            yield f"{name} no-command -"
            continue
        out = os.path.join(out_dir, name)
        shutil.rmtree(out, ignore_errors=True)
        rc, err = run(cli, [command, "--input", os.path.join(docs_dir, fname),
                            "--out", out])
        err = hashlib.sha256(err.encode()).hexdigest() if err else "-"
        yield f"{name} {rc} {digest(out)} {err}"


def against(other_tree, docs_dir, out_dir):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(other_tree), "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), docs_dir,
                           out_dir], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"listing {other_tree} failed:\n{proc.stderr[-2000:]}")
    theirs, mine = set(proc.stdout.splitlines()), set(listing(docs_dir, out_dir))
    differ = sorted(theirs ^ mine, key=lambda line: (line.split()[0], line in mine))
    for line in differ:
        print(("+ " if line in mine else "- ") + line)
    return 1 if differ else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="benchmark workload to write into DOCS_DIR")
    ap.add_argument("--seed", type=int, help="seed of those documents")
    ap.add_argument("--against", metavar="OTHER_TREE",
                    help="print only the lines that differ from OTHER_TREE's listing")
    ap.add_argument("docs_dir")
    ap.add_argument("out_dir")
    args = ap.parse_args()
    if (args.workload is None) != (args.seed is None):
        ap.error("--workload and --seed go together")
    docs_dir, out_dir = os.path.abspath(args.docs_dir), os.path.abspath(args.out_dir)
    if args.workload is not None:
        write_documents(args.workload, args.seed, docs_dir)
    if args.against is not None:
        sys.exit(against(args.against, docs_dir, out_dir))
    for line in listing(docs_dir, out_dir):
        print(line)
