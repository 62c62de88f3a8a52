import concurrent.futures
import multiprocessing
import os
import time

import numpy as np
import pytest

from snnselect.seeding import derive_seed, generator, rekey, run_tasks


def _square_and_pid(x):
    return x * x, os.getpid()


def _fail_in(task):
    """Sleeps, then raises in the process whose pid is ``task[0]``."""
    pid, delay = task
    time.sleep(delay)
    if os.getpid() == pid:
        raise RuntimeError("task failed in the caller")


def _fail_outside(pid):
    """Sleeps, then raises in any process but ``pid``."""
    time.sleep(0.02)
    if os.getpid() != pid:
        raise RuntimeError("task failed in a worker")


@pytest.fixture
def three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


class TestRunTasks:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_task_order(self, three_cpus, workers):
        out = run_tasks(_square_and_pid, range(20), workers)
        assert [value for value, _ in out] == [x * x for x in range(20)]
        pids = {pid for _, pid in out}
        # the caller is one of at most min(workers, 3 CPUs) processes
        assert os.getpid() in pids and len(pids) <= min(workers, 3)
        assert multiprocessing.active_children() == []

    def test_one_process_forks_nothing(self, three_cpus, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        # run_tasks imports the pool class from concurrent.futures when it forks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run_tasks(abs, [-1, 2, -3], 1) == [1, 2, 3]
        assert run_tasks(abs, [-4], 3) == [4]  # one task needs one process
        assert run_tasks(abs, [], 3) == []

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_tasks(abs, [1], workers)

    def test_caller_exception_propagates_and_pool_stops(self, three_cpus):
        # the caller runs the last task, which fails; the worker's pass
        tasks = [(os.getpid(), 0.01)] * 6
        with pytest.raises(RuntimeError, match="in the caller"):
            run_tasks(_fail_in, tasks, 2)
        assert multiprocessing.active_children() == []

    def test_worker_exception_propagates_and_pool_stops(self, three_cpus):
        # the worker holds the first task, which fails; the caller's pass
        with pytest.raises(RuntimeError, match="in a worker"):
            run_tasks(_fail_outside, [os.getpid()] * 6, 2)
        assert multiprocessing.active_children() == []


class TestRekey:
    SEEDS = [0, 1, 2**63, 2**64 - 1, -1] + [derive_seed(7, "rekey", i) for i in range(95)]

    @staticmethod
    def _state(g):
        """The Philox state as plain values, arrays as lists."""
        state = g.bit_generator.state
        return {**{k: np.asarray(v).tolist() for k, v in state.items() if k != "state"},
                **{k: v.tolist() for k, v in state["state"].items()}}

    def test_rekeyed_stream_is_generators(self):
        g = generator(12345)
        for i, seed in enumerate(self.SEEDS):
            # a partial draw first: part of a Philox buffer, half a 64-bit word
            g.random(i % 7)
            g.integers(0, 2**32, size=i % 3, dtype=np.uint32)
            rekey(g, seed)
            fresh = generator(seed)
            assert self._state(g) == self._state(fresh)
            for size in (1, 3, 8, 101):
                assert g.random(size).tobytes() == fresh.random(size).tobytes()
            assert (g.integers(0, 2**32, size=5, dtype=np.uint32).tobytes()
                    == fresh.integers(0, 2**32, size=5, dtype=np.uint32).tobytes())


_FORKED_WORKERS = """
import json, os, sys, time
from snnselect.seeding import processes, run_tasks

def task(i):
    time.sleep(0.02)
    return os.getpid(), "scipy.special" in sys.modules

loaded = "scipy.special" in sys.modules
print(json.dumps({"caller": os.getpid(), "loaded before": loaded, "processes": processes(2),
                  "tasks": run_tasks(task, range(8), 2)}))
"""


def test_forked_workers_inherit_scipy_special(fresh_python):
    # on the host's own CPUs
    out = fresh_python(_FORKED_WORKERS)
    assert out["loaded before"] is False
    in_workers = [loaded for pid, loaded in out["tasks"] if pid != out["caller"]]
    if out["processes"] == 1:
        assert in_workers == []  # nothing forked
    else:
        # the worker holds the first task before the caller reaches it
        assert in_workers and all(in_workers)
