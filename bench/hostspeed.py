"""Host-speed reference: scales measured CPU time to a fixed host speed.

On a shared host the same code runs up to ~1.8x slower while other
tenants load the cores, for seconds to minutes at a time, and CPU time
does not remove that.  A fixed reference computation slows down with
it.  The ``Pacer`` runs the reference in the benchmark's own thread at
the entry of a hooked public ``mccrcnn`` function, once per
``INTERVAL_S`` of CPU time, so its samples are spread evenly over the
program's CPU time; a set-up is also sampled ``BRACKET`` times on
either side.  A timed call, or a set of them, then reads

    scaled seconds = own CPU seconds * REF_S / mean reference seconds

where own CPU seconds leave out the reference runs themselves and the
mean is over the samples taken during the call or calls.  The reference has
to run in line with the program: run from a timer signal handler
instead, its samples did not follow the program's speed, and a
memory-bound reference (gathers over 4 MB) did not either.  The
reference is benchmark code and never changes with the program, so a
change to the program moves the scaled time and a change in host load,
mostly, does not.
"""

from __future__ import annotations

import functools
import re
import statistics
import time

import numpy as np

from tracer import Hooks

#: the reference time that scaled seconds assume; on 2 vCPUs of a shared
#: x86-64 host the reference took about 0.7 ms quiet and 1.1..1.6 ms busy
REF_S = 1.0e-3
#: CPU seconds of program between two reference runs (~5% overhead)
INTERVAL_S = 0.02
#: reference runs right before and right after a timed set-up, which may
#: have no hooked call inside (corpus generation is one call)
BRACKET = 5

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((96, 192))
_TEXT = "\n".join(f"  mov eax, [ebp+{i:x}h] ; c{i}" for i in range(300))
_LINE = re.compile(r"^\s*(\w+)\s+([^;]*)(;.*)?$", re.M)


def reference() -> int:
    """~1 ms of the program's kinds of work: small NumPy steps, regex, dicts."""
    h = np.zeros(96)
    for _ in range(48):
        z = np.tanh(_W.T @ h)
        h = 0.5 * h + 0.1 * z[:96]
    n = sum(len(m.group(2)) for m in _LINE.finditer(_TEXT))
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return n + len(counts)


def scaled(cpu: float, samples: list[float]) -> float:
    """CPU seconds at the host speed at which the reference takes REF_S."""
    return cpu * REF_S / statistics.mean(samples)


class Pacer(Hooks):
    """Runs ``reference()`` between the program's public calls.

    ``timed(fn)`` returns the wall and own CPU seconds of one call,
    leaving out the reference runs inside it.  ``timed_setup(fn)`` also
    brackets the call with ``BRACKET`` reference runs on each side and
    adds the call's scaled seconds, by the samples from the first of
    those runs to the last.
    CPU seconds are those of the calling thread: the benchmark runs one
    OpenBLAS thread, so that is all of its work.
    """

    def __init__(self, interval: float = INTERVAL_S):
        super().__init__()
        self.interval = interval
        self.due = 0.0
        self.samples: list[float] = []
        self.spent_cpu = 0.0
        self.spent_wall = 0.0

    def sample(self) -> None:
        t, c = time.perf_counter(), time.thread_time()
        reference()
        now = time.thread_time()
        self.samples.append(now - c)
        self.spent_cpu += now - c
        self.spent_wall += time.perf_counter() - t
        self.due = now + self.interval

    def burst(self, times: int) -> list[float]:
        """Run the reference ``times`` times; return those samples."""
        start = len(self.samples)
        for _ in range(times):
            self.sample()
        return self.samples[start:]

    def timed(self, fn) -> tuple[float, float]:
        cpu0, wall0 = self.spent_cpu, self.spent_wall
        t, c = time.perf_counter(), time.thread_time()
        fn()
        wall = time.perf_counter() - t - (self.spent_wall - wall0)
        cpu = time.thread_time() - c - (self.spent_cpu - cpu0)
        return wall, cpu

    def timed_setup(self, fn) -> tuple[float, float, float]:
        first = len(self.samples)
        self.burst(BRACKET)
        wall, cpu = self.timed(fn)
        self.burst(BRACKET)
        return wall, cpu, scaled(cpu, self.samples[first:])

    # hook interface of tracer.Hooks

    def wrap(self, _name, fn, _counter=None):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            if time.thread_time() >= self.due:
                self.sample()
            return fn(*args, **kwargs)

        return paced

    def inside(self, _name: str) -> bool:
        return False

    def traced_matrix_fn(self, orig):
        return orig
