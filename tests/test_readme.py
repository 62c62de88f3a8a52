"""README's library examples run as written."""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


def test_quick_start_then_real_data_block(capsys):
    # the real-data block reuses the quick start's ``data``
    quick_start, real_data = _python_blocks()[:2]
    assert "snn_intercept" in quick_start and "klein_spady_gamma" in real_data
    namespace = {}
    exec(compile(quick_start, f"{README}:quick start", "exec"), namespace)
    assert all(math.isfinite(est.theta) for est in
               (namespace["est"], namespace["est_fixed"], namespace["est_k4"]))
    printed = capsys.readouterr().out.split()
    assert len(printed) == 7 and all(math.isfinite(float(value)) for value in printed)
    exec(compile(real_data, f"{README}:real data", "exec"), namespace)
    assert math.isfinite(namespace["est"].theta)
