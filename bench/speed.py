"""Speed references that put timings on a fixed scale on a shared host.

The cores this benchmark runs on are shared with other tenants, and their
speed swings by up to 1.6x within seconds.  Raw times then spread more than
any useful bound.  Each timed child is therefore measured against a
reference run on the same core at the same moment, and its time is reported
at the reference's nominal speed:

    reported = measured * nominal / reference

Two references, because the two kinds of work slow down differently:

* `Probe`: a low-priority thread of the benchmark pinned to the children's
  CPU.  It runs fixed units of pure-Python work (integers, tuple-keyed
  dicts, Fractions) and records the CPU time each unit takes, in the slices
  the scheduler gives it while a child computes (about a tenth of the CPU
  at nice 10; the child's share, and so its slowdown, stays fixed).  It
  samples the core's speed during long compute jobs.
* `reference_start`: a fresh interpreter that imports the standard modules
  the program imports, run right after each short job.  Interpreter start,
  imports and page faults track each other, but not the probe.

Neither reference imports `sullivan`, so a change to the program cannot
move its own yardstick.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from fractions import Fraction

# CPU seconds of one probe unit, and wall seconds of one reference start, at
# the speed a calm core of the host the benchmark was defined on has
# (2-vCPU KVM guest, Intel Xeon, Python 3.11.7).  Any fixed value would do:
# they only turn ratios back into seconds.
PROBE_NOMINAL_S = 0.000150
START_NOMINAL_S = 0.0650

PROBE_NICE = 10  # at nice 19 too few samples; at nice 0 the probe takes half the CPU

REFERENCE_SCRIPT = "import argparse, dataclasses, fractions, hashlib, json, math"


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _probe_unit() -> int:
    total = 0
    for i in range(320):
        total += i * i % 7
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(48):
        key = (i % 11, i % 5)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, 7)
    return total + len(table)


class Probe(threading.Thread):
    """Low-priority thread that measures the speed of the CPU it shares."""

    def __init__(self) -> None:
        super().__init__(name="speed-probe", daemon=True)
        self._stop_flag = threading.Event()
        self.units = 0
        self.cpu_s = 0.0

    def run(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), PROBE_NICE)
        while not self._stop_flag.is_set():
            start = time.thread_time()
            _probe_unit()
            self.cpu_s += time.thread_time() - start
            self.units += 1

    def snapshot(self) -> tuple[int, float]:
        return self.units, self.cpu_s

    def stop(self) -> None:
        self._stop_flag.set()
        self.join()


def probe_factor(before: tuple[int, float], after: tuple[int, float]) -> float | None:
    """Slowness of the core between two snapshots, relative to nominal."""
    units = after[0] - before[0]
    if units == 0:
        return None
    return (after[1] - before[1]) / units / PROBE_NOMINAL_S


def reference_start(env: dict[str, str], cwd: str) -> float:
    """Wall seconds of one reference interpreter start."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_SCRIPT], env=env, cwd=cwd, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start
