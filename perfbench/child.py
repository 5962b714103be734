"""Run one ``isolect`` command in a fresh interpreter and report its timing.

Usage: ``python child.py OUT.json TRACE -- <isolect arguments>``.  Writes
the exit code and the in-process duration of ``isolect.cli.main`` to
OUT.json; with TRACE = 1 the spans and counts of that call are added.  The
command's own stdout and stderr pass through unchanged.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    out, traced, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py OUT.json TRACE -- <isolect arguments>")
    recorder = None
    if traced == "1":
        import spans

        recorder = spans.Recorder()
        recorder.op = 0
        spans.install(recorder)
    from isolect import cli

    start = time.perf_counter()
    rc = cli.main(argv)
    doc = {"rc": rc, "main_s": time.perf_counter() - start}
    if recorder is not None:
        doc["spans"] = list(recorder.records())
        doc["counts"] = {key: value for (_, key), value in recorder.counts.items()}
    sys.stdout.flush()
    Path(out).write_text(json.dumps(doc), encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
