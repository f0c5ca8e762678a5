"""A fixed reference computation that measures how fast the host runs now.

The benchmark's hosts share their cores with other tenants, and the same
workload run took from 1.2 to 2.7 s within four minutes on one of them.
Timing this computation right before and after each solve gives a scale
that follows the host rather than the program.  It is interpreter work
on tuples, dicts, sets and lists, like most of ``thbox``; on a 2-vCPU VM
the times of the Python-bound workloads moved with it one to one.  It
uses nothing of ``thbox``, so a change to the package leaves it alone.
"""

import gc
import time


def reference_work():
    """The computation itself; returns a checksum so nothing is skipped."""
    total = 0
    for i in range(300000):
        total += i * i % 7
    table = {}
    for i in range(30000):
        table[(i % 300, i // 300, i % 7)] = [i]
    keys = set(table)
    shifted = {(a + 1, b, c) for a, b, c in keys}
    total += len(sorted(keys | shifted)) + len(keys - shifted)
    return total


def reference_s():
    """Wall time of one :func:`reference_work`, in seconds.

    The cyclic garbage collector is off meanwhile: a collection would walk
    every object the workload left alive, so the time would depend on the
    program's heap.  The computation makes no cycles.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_work()
        return (time.perf_counter_ns() - t0) * 1e-9
    finally:
        if was_enabled:
            gc.enable()
