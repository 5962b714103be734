"""Benchmark for isolect: one user-visible command per op, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``isolect`` is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
run is split into an untraced and a traced half and reports the per-layer
metrics instead, writing its spans to ``perfbench/.work/traces``.

Gated times are seconds at reference speed (see ``kernel.py``); the raw wall
times are printed on the lines before the JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Callable

from kernel import REF_S, STARTUP_REF_S, reference_kernel, startup_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REPEATS = 7  # set-ups and probes per run; medians are reported
CHILD_TIMEOUT_S = 120
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import isolect; "
    "print(time.perf_counter() - t, isolect.__file__)"
)
STARTUP_PROBE = ["time", "--coincidence", "74", "--t1", "20", "--mode", "paper"]


@dataclass
class Phase:
    """Timed steps of one phase, with a reference kernel timed around them.

    ``refs`` holds the kernel time before each step plus one after the last,
    so step i is scaled by ``nominal`` over the mean of the kernel times on
    either side of it.
    """

    kernel: Callable[[], float]
    nominal: float
    times: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def reference(self) -> None:
        self.refs.append(self.kernel())

    def at_reference_speed(self) -> list[float]:
        around = [(a + b) / 2 for a, b in zip(self.refs, self.refs[1:])]
        return [t * self.nominal / ref for t, ref in zip(self.times, around)]


def new_phase(in_process: bool) -> Phase:
    """A phase scaled by the kernel that matches where its steps run."""
    if in_process:
        return Phase(reference_kernel, REF_S)
    return Phase(lambda: startup_kernel(child_env()), STARTUP_REF_S)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SVODESH_MODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def in_process(argv: list[str]) -> tuple[int | None, str]:
    from isolect import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


class Runner:
    """Runs one op of a workload, in-process or as a fresh interpreter."""

    def __init__(self, workload, recorder=None):
        self.workload = workload
        self.recorder = recorder

    def __call__(self, op) -> tuple[float, int | None, str]:
        if self.workload.in_process:
            start = time.perf_counter()
            try:
                rc, stdout = in_process(op.argv)
            except Exception as exc:  # a traceback is a failed op, not a failed bench
                print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                rc, stdout = None, ""
            return time.perf_counter() - start, rc, stdout
        if self.recorder is None:
            seconds, proc = run_child(["-m", "isolect", *op.argv], self.workload.work)
            return seconds, proc.returncode, proc.stdout
        report = self.workload.work / "child.json"
        report.unlink(missing_ok=True)
        seconds, proc = run_child([str(HERE / "child.py"), str(report), "1", "--", *op.argv],
                                  self.workload.work)
        if report.exists():
            doc = json.loads(report.read_text(encoding="utf-8"))
            self.recorder.extend(doc["spans"], doc["counts"])
        return seconds, proc.returncode, proc.stdout


def run_op(workload, run, op, phase: Phase) -> None:
    phase.reference()
    seconds, rc, stdout = run(op)
    phase.times.append(seconds)
    try:
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        workload.verify(op, stdout)
    except Exception as exc:  # any failed check fails the op; the loop goes on
        print(f"{workload.name} {op.label}: FAILED: {exc}", file=sys.stderr)
        phase.failed += 1


def closed_loop(workload, run, seconds: float, recorder=None) -> Phase:
    """Whole cycles, one op at a time, until another cycle would pass ``seconds``."""
    cycle = workload.cycle()
    phase = new_phase(workload.in_process)
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in cycle:
            if recorder is not None:
                recorder.op = phase.attempted
            run_op(workload, run, op, phase)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            phase.reference()
            return phase


def set_up(workload) -> tuple[float, float]:
    """Median over REPEATS set-ups: (seconds at reference speed, raw seconds).

    A set-up is a fresh interpreter that imports isolect.  ``cli-bundled``
    pays all of its wall time per op; the in-process workloads pay the import
    once, plus their set-up commands.
    """
    if workload.in_process:
        import isolect  # noqa: F401  (so set-up commands do not pay the import)
    probes, commands = new_phase(in_process=False), new_phase(in_process=True)
    for _ in range(REPEATS):
        probes.reference()
        wall, proc = run_child(["-c", IMPORT_PROBE], workload.work)
        if proc.returncode != 0:
            raise SystemExit(f"import isolect failed:\n{proc.stderr}")
        import_s, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise SystemExit(f"isolect was imported from {where}, not from {SRC}")
        probes.times.append(float(import_s) if workload.in_process else wall)
        commands.reference()
        start = time.perf_counter()
        for argv in workload.setup_argvs():
            rc, _ = in_process(argv)
            if rc != 0:
                raise SystemExit(f"set-up command failed: isolect {' '.join(argv)}")
        commands.times.append(time.perf_counter() - start)
    probes.reference()
    commands.reference()
    at_ref = map(sum, zip(probes.at_reference_speed(), commands.at_reference_speed()))
    raw = map(sum, zip(probes.times, commands.times))
    return statistics.median(at_ref), statistics.median(raw)


def op_p50(times: list[float], cycle: int) -> float:
    """Mean over the cycle's commands of each command's median op time.

    A cycle mixes commands of different cost: a plain median would pick
    whichever command sits in the middle for this seed.  Taking each
    command's median first keeps the mix fixed and drops outliers.  For a
    one-command cycle this is the plain median.
    """
    return statistics.fmean(statistics.median(times[p::cycle]) for p in range(cycle))


def tail_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n = {n})"
    pct = 100 * (n - 10) // n
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return f"op_s.p{pct} = {value:.6g} s (n = {n})"


def import_breakdown(work: Path) -> dict[str, float]:
    """cli.import.* from ``python -X importtime -c 'import isolect'``, medians."""
    samples: dict[str, list[float]] = {"isolect": [], "numpy": [], "networkx": []}
    for _ in range(REPEATS):
        _, proc = run_child(["-X", "importtime", "-c", "import isolect"], work)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        for name in samples:
            samples[name].append(cumulative[name])
    own = [i - n - x for i, n, x in zip(*samples.values())]
    return {
        "cli.import.total_s": statistics.median(samples["isolect"]),
        "cli.import.numpy_s": statistics.median(samples["numpy"]),
        "cli.import.networkx_s": statistics.median(samples["networkx"]),
        "cli.import.isolect_s": statistics.median(own),
    }


def startup_seconds(work: Path) -> float:
    """Fresh-process wall time minus in-process ``cli.main`` time, same command."""
    report = work / "probe.json"
    gaps = []
    for _ in range(REPEATS):
        wall, proc = run_child([str(HERE / "child.py"), str(report), "0", "--", *STARTUP_PROBE],
                               work)
        if proc.returncode != 0:
            raise SystemExit(f"start-up probe failed:\n{proc.stderr}")
        gaps.append(wall - json.loads(report.read_text(encoding="utf-8"))["main_s"])
    return statistics.median(gaps)


def traced_run(workload, seconds: float) -> tuple[dict[str, float], list[Phase], list[str]]:
    """Untraced half, then traced half; per-layer metrics from the traced one."""
    import spans

    values = import_breakdown(workload.work)
    values["cli.startup_s"] = startup_seconds(workload.work)
    plain = closed_loop(workload, Runner(workload), seconds / 2)
    recorder = spans.Recorder()
    if workload.in_process:
        spans.install(recorder)
    traced = closed_loop(workload, Runner(workload, recorder), seconds / 2, recorder)
    values.update(spans.per_layer(recorder, list(range(traced.attempted))))
    size = len(workload.cycle())
    values["trace.overhead_ratio"] = (
        op_p50(traced.at_reference_speed(), size) / op_p50(plain.at_reference_speed(), size)
    )
    fired = spans.fired(recorder)
    silent = sorted(name for name in workload.expected if name not in fired)
    out = HERE / ".work" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(out / f"{workload.name}-seed{workload.seed}.jsonl")
    return values, [plain, traced], silent


def end_to_end(workload, phase: Phase, setup_s: float, raw_setup_s: float) -> dict[str, float]:
    at_ref = phase.at_reference_speed()
    n, done = phase.attempted, phase.attempted - phase.failed
    size = len(workload.cycle())
    op_s, raw_op_s = op_p50(at_ref, size), op_p50(phase.times, size)
    # For cli-bundled this is the largest child's peak, which also counts
    # the pages of this process at spawn; workloads.py keeps it small.
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    print(f"workload size: {workload.size}; closed loop, 1 client; "
          f"n = {n} ops in {n // size} cycles")
    print(f"per op at reference speed: {tail_percentile(at_ref)}; not gated")
    print(f"raw wall time: setup_s = {raw_setup_s:.6g} s, "
          f"op_s.p50 = {raw_op_s:.6g} s, ops_per_s = {done / n / raw_op_s:.6g} 1/s, "
          f"completed ops over summed op time = {done / sum(phase.times):.6g} 1/s")
    print(f"reference kernel: median {statistics.median(phase.refs):.6g} s, "
          f"nominal {phase.nominal} s")
    print(f"failed_ratio = {phase.failed / n:.6g} ({phase.failed} of {n})")
    return {
        "setup_s": setup_s,
        "op_s.p50": op_s,
        "ops_per_s": done / n / op_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def environment() -> str:
    parts = [f"python {platform.python_version()}"]
    for name in ("numpy", "networkx"):
        try:
            parts.append(f"{name} {version(name)}")
        except PackageNotFoundError:
            parts.append(f"{name} missing")
    return ", ".join(parts) + f", nproc {os.cpu_count()}"


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isolect" / "__init__.py").is_file():
        print(f"error: no isolect sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, str(SRC))
    print(f"environment: {environment()}")

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        workload.prepare()
        setup_s, raw_setup_s = set_up(workload)
        run = Runner(workload)
        warm_up = new_phase(workload.in_process)
        run_op(workload, run, workload.cycle()[0], warm_up)
        if args.trace:
            values, phases, silent = traced_run(workload, args.seconds)
            declared = bench["per_layer"]
            for name in silent:
                print(f"error: expected span {name} recorded no calls", file=sys.stderr)
        else:
            phase = closed_loop(workload, run, args.seconds)
            values, silent = end_to_end(workload, phase, setup_s, raw_setup_s), []
            phases = [phase]
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases.append(warm_up)
    failed = sum(p.failed for p in phases)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0 and not silent,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if silent else 0


if __name__ == "__main__":
    sys.exit(main())
