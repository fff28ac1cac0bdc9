"""Print one digest line per input document: ``name exit-code sha256``.

    PYTHONPATH=<tree>/src python3 tools/output_digests.py DOCS_DIR OUT_DIR

Every ``*.json`` in DOCS_DIR runs through ``statespace_kit.cli.main`` into
OUT_DIR/<name>, which is emptied first. The command is the first
dash-separated part of the file name that names one (``007-simulate-n2``
runs ``simulate``). The digest covers the name and bytes of every output
file. ``report.json`` records the input and output paths, so two trees give
comparable lines only with the same DOCS_DIR and OUT_DIR; run it once per
tree and diff the two listings.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys


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
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(os.path.abspath(sys.argv[1]), os.path.abspath(sys.argv[2]))
