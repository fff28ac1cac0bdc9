"""Print one digest line per input document: ``name exit-code sha256``.

    PYTHONPATH=<tree>/src python3 tools/output_digests.py DOCS_DIR OUT_DIR
    PYTHONPATH=<tree>/src python3 tools/output_digests.py \
        --workload dense-design --seed 7 DOCS_DIR OUT_DIR

With --workload and --seed, DOCS_DIR is emptied first and filled with the
benchmark documents ``perfbench/bench_docs.generate(WORKLOAD, SEED)`` of the
checkout this script sits in, one ``<id>.json`` each. Every ``*.json`` in
DOCS_DIR runs through ``statespace_kit.cli.main`` into
OUT_DIR/<name>, which is emptied first. The command is the first
dash-separated part of the file name that names one (``007-simulate-n2``
runs ``simulate``). The digest covers the name and bytes of every output
file. ``report.json`` records the input and output paths, so two trees give
comparable lines only with the same DOCS_DIR and OUT_DIR; run it once per
tree and diff the two listings.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


def digest(outdir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []:
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run(cli, argv):
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a traceback exit of the command-line tool
        return "exception:" + type(exc).__name__


def write_documents(workload, seed, docs_dir):
    sys.path.insert(0, PERFBENCH)
    import bench_docs

    shutil.rmtree(docs_dir, ignore_errors=True)
    os.makedirs(docs_dir)
    for doc in bench_docs.generate(workload, seed):
        with open(os.path.join(docs_dir, doc.id + ".json"), "w") as fh:
            json.dump(doc.body, fh)


def main(docs_dir, out_dir):
    from statespace_kit import cli

    for fname in sorted(os.listdir(docs_dir)):
        name, ext = os.path.splitext(fname)
        if ext != ".json":
            continue
        command = next((part for part in name.split("-") if part in cli.COMMANDS), None)
        if command is None:
            print(f"{name} no-command -")
            continue
        out = os.path.join(out_dir, name)
        shutil.rmtree(out, ignore_errors=True)
        rc = run(cli, [command, "--input", os.path.join(docs_dir, fname), "--out", out])
        print(name, rc, digest(out))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="benchmark workload to write into DOCS_DIR")
    ap.add_argument("--seed", type=int, help="seed of those documents")
    ap.add_argument("docs_dir")
    ap.add_argument("out_dir")
    args = ap.parse_args()
    if (args.workload is None) != (args.seed is None):
        ap.error("--workload and --seed go together")
    if args.workload is not None:
        write_documents(args.workload, args.seed, os.path.abspath(args.docs_dir))
    main(os.path.abspath(args.docs_dir), os.path.abspath(args.out_dir))
