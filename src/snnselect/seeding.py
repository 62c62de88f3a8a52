"""Hash-derived seeds, the counter-based (Philox) generator they key, and the
process pool that runs seeded tasks.

Every random stream (simulated draws, bootstrap resamples) is keyed by a seed
hashed from its coordinates, so no stream depends on scheduling or on another.
That is what lets ``run_tasks`` spread tasks over processes in any order and
still return what one process would.

The process pool is imported by ``run_tasks`` when it forks, so importing
this module does not load it, and a run on one process never loads
``concurrent.futures.process`` or ``multiprocessing``.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

from .numerics import _special

__all__ = ["derive_seed", "generator", "rekey", "processes", "run_tasks"]

_KEY_MASK = 0xFFFFFFFFFFFFFFFF


def derive_seed(base_seed: int, label: str, rep: int) -> int:
    """64-bit replication seed from a SHA-256 mix; never sequential reuse."""
    digest = hashlib.sha256(f"{base_seed}|{label}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & _KEY_MASK)))


def rekey(g: np.random.Generator, seed: int) -> None:
    """Restart ``g`` (a ``generator``) as ``generator(seed)``: from here on it
    draws that stream bit for bit, whatever it drew before.

    It sets the Philox state a fresh ``generator(seed)`` starts from: the
    key, a zero counter and an empty buffer.  Building a new Philox instead
    seeds it from OS entropy first, only to replace that with the key.
    """
    g.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _KEY_MASK, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def processes(workers: int) -> int:
    """The processes ``workers`` can use: at most the CPUs this process may
    run on (``os.sched_getaffinity``, else ``os.cpu_count``).  Callers size
    their chunks by it."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)


def run_tasks(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, on ``min(workers, len(tasks),
    usable CPUs)`` processes, the calling process being one of them.

    With one process nothing is forked.  Otherwise every task goes to a pool
    of one process fewer, and the caller walks the tasks from the end,
    taking back (``Future.cancel``) and running each one no worker holds yet,
    until it meets one a worker holds; the pool then has the rest.  So
    unequal tasks balance themselves.  ``fn`` and the tasks must pickle.  An
    exception from any task propagates after the pool has stopped.  The pool
    uses the platform's default start method; where that is fork (Linux),
    workers start without importing numpy and scipy again: ``scipy.special``
    is loaded here just before the fork, so no worker imports its own copy on
    a first probit.  The pool class is imported there too, and only there.
    """
    tasks = list(tasks)
    procs = min(processes(workers), len(tasks))
    if procs <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    results = [None] * len(tasks)
    _special()
    pool = ProcessPoolExecutor(max_workers=procs - 1)
    try:
        futures = [pool.submit(fn, task) for task in tasks]
        held = len(tasks)
        while held and futures[held - 1].cancel():
            held -= 1
            results[held] = fn(tasks[held])
        results[:held] = [future.result() for future in futures[:held]]
    finally:
        pool.shutdown(cancel_futures=True)
    return results
