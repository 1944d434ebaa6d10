"""A fixed CPU reference kernel that measures how fast the machine is now.

On a 2-vCPU Linux VM shared with other tenants, CPU speed drifted by up to
1.9x between runs minutes apart and by 1.5x in bursts of a few seconds, and
an op's wall time carries that drift.
The benchmark therefore times this kernel next to every op and reports
times at *reference speed*: wall time scaled by NOMINAL_S / (kernel time).
On a machine where the kernel takes NOMINAL_S the two are the same.

The kernel does the kinds of work the library does (string tuples scanned
by ``in``, tuple-keyed dicts, sorting, small-integer arithmetic) in pure
Python, and never touches the library, so a change to the library cannot
move it.  Standard library only.
"""

from __future__ import annotations

import time

# Kernel time in a quiet phase of that 2-vCPU VM (Python 3.11.7); it only
# fixes the unit of the reported times.
NOMINAL_S = 0.011

_WORDS = tuple(f"row{k:04d}.{k * 7919 % 10007:05d}" for k in range(400))


def kernel() -> int:
    found = 0
    for k in range(0, 400, 2):
        if _WORDS[k] in _WORDS:
            found += 1
    table = {}
    for k in range(12000):
        key = (_WORDS[k % 400], k % 13)
        table[key] = table.get(key, 0) + k % 7
    found += len(sorted(table, key=lambda t: (t[1], t[0])))
    acc = 0
    for k in range(60000):
        acc = (acc + k * k) % 10007
    return found + acc


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
