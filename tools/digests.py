"""Byte identity of the benchmark's outputs between the checkout and another commit.

Usage, from the root of a source checkout::

    python3 tools/digests.py --against REV [--seeds N]

Every workload of ``perfbench/workloads.py`` runs at seeds 0 to N - 1
(default 4) in this process, twice: once on the checkout's ``src/isolect``
and once on ``git archive REV src/isolect`` imported as a second package,
as ``tools/layers.py --against`` does.  ``perfbench/`` is only imported.
Each side writes the workload's seeded inputs into the same fresh work
directory and runs its set-up commands and one cycle of its ops through
``cli.main``, ``SVODESH_MODE`` unset.  Each command leaves the SHA-256 of
the raw bytes of its exit code, of its stdout with the work directory
masked, and of every file it wrote (new or changed under the work
directory), each under a key naming the workload, seed, command and
artifact.

Prints how many keys were compared.  Exits 1 after listing every key whose
digest differs between the sides or that one side lacks, and 0 when there
is none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from layers import BASE, ROOT, SRC, import_tree, unpack

import workloads  # perfbench's, on the path that importing layers sets


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(work: Path) -> dict[str, str]:
    """The digest of every file under ``work``, by path relative to it."""
    return {str(f.relative_to(work)): sha(f.read_bytes())
            for f in work.rglob("*") if f.is_file()}


def run(cli, argv: list[str]) -> tuple[object, str]:
    """``cli.main(argv)``'s exit code and stdout; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def digests(package, name: str, seed: int, work: Path) -> dict[str, str]:
    """Each command's artifact digests for workload ``name`` at ``seed``,
    run on ``package`` in a fresh ``work``."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    workload = workloads.WORKLOADS[name](ROOT, work, seed)
    workload.prepare()
    commands = [(f"setup{i}", argv) for i, argv in enumerate(workload.setup_argvs())]
    commands += [(op.label, op.argv) for op in workload.cycle()]
    found = {}
    for label, argv in commands:
        before = file_digests(work)
        code, stdout = run(cli, argv)
        key = f"{name} seed {seed} {label}"
        found[f"{key} exit"] = sha(str(code).encode())
        found[f"{key} stdout"] = sha(stdout.replace(str(work), "<work>").encode())
        found.update((f"{key} {path}", digest) for path, digest in file_digests(work).items()
                     if before.get(path) != digest)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the commit whose src/isolect the checkout is compared with")
    parser.add_argument("--seeds", type=int, default=4, metavar="N",
                        help="run each workload at seeds 0 to N - 1")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    os.environ.pop("SVODESH_MODE", None)
    with tempfile.TemporaryDirectory() as tmp:
        base, path = unpack(args.against, Path(tmp))
        packages = [import_tree(SRC / "isolect", "isolect"), import_tree(path, BASE)]
        sides: list[dict[str, str]] = [{}, {}]
        for name in workloads.WORKLOADS:
            for seed in range(args.seeds):
                for side, package in zip(sides, packages):
                    side.update(digests(package, name, seed, Path(tmp) / "work"))
    head, other = sides
    differ = sorted(key for key in head.keys() | other.keys()
                    if head.get(key) != other.get(key))
    print(f"{len(head.keys() | other.keys())} keys compared against {base}, "
          f"{len(differ)} differ")
    for key in differ:
        print(f"  {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
