"""Record ``exclusive`` for the real search corpus, at the current commit.

    python3 perfbench/record_exclusive.py

writes ``perfbench/search_real_exclusive.json``: for every corpus frame,
its digest, the ``exclusive`` flag ``fpl grassmannian`` prints, and the
verdict of the benchmark's own LP uniqueness certificate.  The search-real
workload checks ``exclusive`` against the recorded flag, so that a change
of the printed value shows as a failure.  Rerun it only on purpose, with
a commit whose output is meant to become the new reference.
"""
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run
import workloads
from reference import real_search


def main() -> int:
    cli = run.import_cli()
    workdir = tempfile.mkdtemp(dir=run._mkdir(run.OUT / "tmp"))
    os.chdir(workdir)
    table = {"corpus_seed": workloads.CORPUS_SEED, "frames": {}}
    try:
        for n, _ in workloads.REAL_SHAPES:
            rows = table["frames"][str(n)] = []
            for i in range(workloads.CORPUS_SIZE):
                f = workloads.corpus_frame(n, i)
                workloads.write_frame("frame.json", f)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    cli.run(["grassmannian", "--frame", "frame.json",
                             "--format", "structured"])
                rec = workloads.parse_records(out.getvalue())[0]
                rows.append({"digest": workloads.frame_digest(f),
                             "exclusive": rec["exclusive"] == "true",
                             "certificate_unique": real_search(f, True)[1]})
                print(n, i, rows[-1], file=sys.stderr)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EXCLUSIVE_TABLE.write_text(json.dumps(table, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
