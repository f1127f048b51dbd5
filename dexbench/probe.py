"""Machine-speed probes, run by the benchmark as a child process.

    python3 dexbench/probe.py    # reads a probe name per line, prints its seconds

`run.Speed` scales each timed segment by how fast a probe runs just before
and after it: DAPG segments by `blas_probe` and set-up by `loop_probe`.
`run.Sampler` runs `tick_probe` every few hundred milliseconds while the
translate phase runs and scales each translate call by the samples taken
during it. The probes run here, in a process of their own that is started
with one BLAS thread, so their time depends on the host alone: nothing the
measured program does to its BLAS threads, its memory or its caches changes
it. The "threads" command reports this process's BLAS thread count.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import sys
import time

import numpy as np

clock = time.perf_counter


@functools.cache
def _blas_arrays():
    rng = np.random.default_rng(0)
    return (rng.normal(size=(20000, 9)), rng.normal(size=(9, 32)) / 3, rng.normal(size=(32, 32)) / 6,
            np.empty((20000, 32)), np.empty((20000, 32)), np.empty((32, 32)))


def blas_probe() -> float:
    """Seconds for one pass of matrix work shaped like a DAPG iteration.

    The faster of two repeats. Results go to preallocated arrays, so the time
    does not depend on the state of the memory allocator.
    """
    states, w1, w2, h1, h2, gram = _blas_arrays()
    best = math.inf
    for _ in range(2):
        t0 = clock()
        np.tanh(np.matmul(states, w1, out=h1), out=h1)
        np.tanh(np.matmul(h1, w2, out=h2), out=h2)
        np.matmul(h2.T, h2, out=gram)
        best = min(best, clock() - t0)
    return best


LOOP_POOL = 40000  # 3x3 arrays and small dicts, about 16 MB: more than a core's own caches


@functools.cache
def _loop_pool():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(3, 3)) for _ in range(LOOP_POOL)]
    records = [{"index": i, "value": float(i)} for i in range(LOOP_POOL)]
    return mats, records, rng.permutation(LOOP_POOL).tolist()


_cursor = [0]


def _loop(iterations: int) -> float:
    """Seconds for an interpreter loop over 3x3 numpy work on objects scattered in memory.

    Like the translate pipeline, it mixes interpreter work, small numpy calls
    and reads of Python objects that are not in the core's own caches, so a
    neighbour on the host that competes for the shared cache or memory slows
    it down as it slows the program. Each call goes on where the last one
    stopped in a fixed random order over the pool.
    """
    mats, records, order = _loop_pool()
    k = _cursor[0]
    acc = 0.0
    t0 = clock()
    for _ in range(iterations):
        i, j, m = order[k % LOOP_POOL], order[(k + 1) % LOOP_POOL], order[(k + 2) % LOOP_POOL]
        k += 3
        a = mats[i] @ mats[j]
        b = np.cross(a[0], mats[m][1])
        acc += float(b.sum()) + records[i]["value"]
    seconds = clock() - t0
    _cursor[0] = k
    return seconds


def loop_probe() -> float:
    """`_loop` three times over; the median, so that one interrupt does not count."""
    return sorted(_loop(300) for _ in range(3))[1]


def tick_probe() -> float:
    """One short pass of `loop_probe`'s work, for sampling the speed every few hundred ms."""
    return _loop(100)


def openblas_function(name: str):
    """`name` ("get_num_threads", "set_num_threads") of numpy's bundled OpenBLAS, or None."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int if name.startswith("get") else None
                return fn
    return None


def blas_threads() -> int | None:
    """The effective thread count of numpy's bundled OpenBLAS (None if not found)."""
    fn = openblas_function("get_num_threads")
    return int(fn()) if fn is not None else None


COMMANDS = {"blas": blas_probe, "loop": loop_probe, "tick": tick_probe, "threads": blas_threads}


def main() -> int:
    for line in sys.stdin:
        print(repr(COMMANDS[line.strip()]()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
