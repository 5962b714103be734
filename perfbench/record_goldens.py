"""Record the golden artifact digests that the benchmark checks outputs against.

    python3 perfbench/record_goldens.py

Run from the root of a git checkout of the reference commit.  Covers every
op of ``cli-bundled`` and of ``iterate-paper`` at the default seed, and
writes ``perfbench/goldens.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    goldens: dict = {"recorded_at_commit": commit}
    for name in ("cli-bundled", "iterate-paper"):
        work = run.HERE / ".work" / f"goldens-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            workload = workloads.WORKLOADS[name](run.ROOT, work, workloads.DEFAULT_SEED)
            workload.prepare()
            runner = run.Runner(workload)
            ops = {}
            for op in workload.cycle():
                _, rc, stdout = runner(op)
                if rc != 0:
                    raise SystemExit(f"{name} {op.label}: exit code {rc}")
                ops[op.label] = {a: workloads.digest(work, a, stdout) for a in op.artifacts}
            goldens[name] = ops
        finally:
            shutil.rmtree(work, ignore_errors=True)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
