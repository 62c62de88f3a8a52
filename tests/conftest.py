import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import snnselect


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def fresh_python():
    """``run(script, *args)``: the JSON on the last line a fresh interpreter
    prints running ``script``, with this checkout's snnselect importable.
    A test that reads which modules a path loads needs one, since this
    interpreter has imported scipy already."""
    src = str(Path(snnselect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(script, *args):
        res = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1])

    return run


@pytest.fixture(scope="session")
def traced_peak():
    """``peak(fn, *args)``: the most bytes that ``fn(*args)`` held at once
    beyond what was allocated before the call, as ``tracemalloc`` counts
    them (numpy's array buffers included).  Deterministic, unlike RSS."""
    def peak(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
