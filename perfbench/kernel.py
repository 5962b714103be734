"""The reference kernels that gated times are scaled by.

Other tenants of a shared host can slow every process on it by 2x for
minutes at a time.  Timing a fixed job next to each measured step, and
scaling the step by ``nominal time / kernel time``, cancels most of that.
Each kernel does the kind of work that dominates the steps it scales:

- ``reference_kernel`` scales steps run inside the benchmark process.  It is
  the pure-Python work that dominates ``isolect``: a dict keyed by frozenset
  pairs with sorted-tuple keys (the builder) and a recursive collection of
  leaf sets (the tree queries).
- ``startup_kernel`` scales steps that start a fresh interpreter.  It starts
  one that imports a fixed set of standard-library modules.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

# Each kernel's time on an idle machine; scaled times are "seconds at reference speed".
REF_S = 0.02
STARTUP_REF_S = 0.1
STARTUP_CODE = "import argparse, csv, decimal, email.parser, json, unittest"


def _members(children, node):
    if node not in children:
        return (node,)
    near, far = children[node]
    return tuple(sorted(set(_members(children, near)) | set(_members(children, far))))


def reference_kernel() -> float:
    """Wall time of the fixed job, with the garbage collector off.

    With the collector off, the time does not depend on how many objects the
    calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {frozenset((i, i + 1)): float(i) for i in range(10000)}
        total = 0.0
        for key, value in table.items():
            total += value + len(tuple(sorted(key)))
        # an 80-leaf caterpillar: node 80 + j joins leaf j + 1 to the previous cluster
        children = {80 + j: (j + 1, 80 + j - 1 if j else 0) for j in range(79)}
        for node in children:
            total += len(_members(children, node))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def startup_kernel(env: dict) -> float:
    """Wall time of a fresh interpreter that imports STARTUP_CODE's modules."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], env=env, check=True)
    return time.perf_counter() - start
