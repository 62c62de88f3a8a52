import json
import os
import subprocess
import sys
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
