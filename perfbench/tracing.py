"""Per-layer spans for the traced benchmark passes.

Every public function of the snnselect layers is replaced, in every module
namespace that binds it, by a wrapper that records a span: inclusive time,
self time (inclusive minus the time of the spans it opened) and a call count
per layer.  An ``EstimationError`` that leaves a wrapper is counted by reason
together with the span it returned to, so failures that ``montecarlo`` and
``decompose.bootstrap_se`` swallow are still seen.  The wrappers are
installed only for a traced pass and removed after it; nothing under ``src/``
is modified.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import re
import types
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import snnselect
from snnselect.data import Dataset
from snnselect.estimator import BANDWIDTH_CLAMP
from snnselect.exceptions import EstimationError

LAYER_MODULES = (
    "dgp", "ranks", "estimator", "baselines", "nuisance",
    "montecarlo", "decompose", "data", "io_csv", "cli",
)
# Plumbing whose time belongs to the span that calls it: the Monte Carlo
# harness (so montecarlo.run_table's self time is all harness time outside the
# estimators and the simulator) and CLI argument parsing (part of cli_main).
UNTRACED = {
    "montecarlo.run_cell", "montecarlo.derive_seed", "montecarlo.make_estimator",
    "cli.build_parser", "cli.main",
}
HARNESS = "harness"
# Self time of all layers plus the harness must equal the traced wall time
# of the pass to within this share; it can only differ by float rounding or
# by a span left open.
SPAN_SUM_TOLERANCE = 1e-3


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0      # io_csv: rows read or written
    clamped: int = 0   # plug_in_bandwidth: results equal to the upper clamp


def _rows(result) -> int:
    if isinstance(result, tuple):
        return sum(part.n for part in result)
    return result.n


def _observe_clamp(stats: LayerStats, args, kwargs, result) -> None:
    stats.clamped += result == BANDWIDTH_CLAMP[1]


def _observe_load(stats: LayerStats, args, kwargs, result) -> None:
    stats.rows += _rows(result)


def _observe_save(stats: LayerStats, args, kwargs, result) -> None:
    data = args[1] if len(args) > 1 else kwargs["data"]
    stats.rows += data.n


_OBSERVERS = {
    "estimator.plug_in_bandwidth": _observe_clamp,
    "io_csv.load_csv": _observe_load,
    "io_csv.save_dataset_csv": _observe_save,
}


def reason_slug(message: str) -> str:
    """An error message as a metric-name fragment: letters, digits, _ . -"""
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", message.strip()).strip("-").lower()
    return slug[:48] or "unknown"


def _layer_targets():
    """(layer name, function, binding sites) for every traced function."""
    modules = {name: importlib.import_module(f"snnselect.{name}") for name in LAYER_MODULES}
    namespaces = [snnselect, *modules.values()]
    for short, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not isinstance(fn, types.FunctionType) or f"{short}.{attr}" in UNTRACED:
                continue
            sites = [(ns, key) for ns in namespaces for key, value in vars(ns).items() if value is fn]
            yield f"{short}.{attr}", fn, sites
    yield "data.Dataset.take", Dataset.take, [(Dataset, "take")]


class Tracer:
    """Span statistics of one traced pass."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.failures: Counter = Counter()  # (layer, parent layer, reason) -> count
        self.wall_s = 0.0
        self.harness_self_s = 0.0
        self._stack: list[list] = []  # open spans: [name, time covered by child spans]

    def stat(self, layer: str) -> LayerStats:
        return self.layers.get(layer) or LayerStats()

    def _wrap(self, name: str, fn):
        stats = self.layers.setdefault(name, LayerStats())
        observe = _OBSERVERS.get(name)
        stack = self._stack
        failures = self.failures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except EstimationError as exc:
                failures[(name, stack[-2][0], reason_slug(str(exc)))] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers in every snnselect namespace; restore on exit."""
        restore = []
        try:
            for name, fn, sites in list(_layer_targets()):
                wrapped = self._wrap(name, fn)
                for namespace, key in sites:
                    setattr(namespace, key, wrapped)
                    restore.append((namespace, key, fn))
            yield self
        finally:
            for namespace, key, fn in reversed(restore):
                setattr(namespace, key, fn)

    def run(self, job):
        """Run ``job()`` as the root span; returns its result."""
        frame = [HARNESS, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return job()
        finally:
            self.wall_s = perf_counter() - start
            self._stack.pop()
            self.harness_self_s = self.wall_s - frame[1]

    def span_sum_ok(self) -> bool:
        total = self.harness_self_s + sum(s.self_s for s in self.layers.values())
        return not self._stack and abs(total - self.wall_s) <= SPAN_SUM_TOLERANCE * self.wall_s

    def boundary_failures(self) -> dict[str, int]:
        """Failures by reason at the two places the program swallows them."""
        out: Counter = Counter()
        for (layer, parent, reason), count in self.failures.items():
            if parent.startswith("montecarlo."):
                out[f"montecarlo.failed.{reason}"] += count
            elif layer == "decompose.decompose" and parent == "decompose.bootstrap_se":
                out[f"decompose.bootstrap_se.failed.{reason}"] += count
        return dict(out)


# Counts that must repeat exactly between passes on the same inputs.
EXACT_COUNTS = (
    "dgp.simulate.calls",
    "ranks.eta_hat.calls",
    "nuisance.klein_spady_objective.calls",
    "data.Dataset.take.calls",
)


def _calls(layer):
    return lambda t: t.stat(layer).calls


def _self_s(layer):
    return lambda t: t.stat(layer).self_s


def _us_per_call(layer):
    def value(t):
        s = t.stat(layer)
        return 1e6 * s.total_s / s.calls if s.calls else 0.0
    return value


def _rows_per_s(layer):
    def value(t):
        s = t.stat(layer)
        return s.rows / s.total_s if s.total_s > 0.0 else 0.0
    return value


def _clamp_share(t):
    s = t.stat("estimator.plug_in_bandwidth")
    return s.clamped / s.calls if s.calls else 0.0


def _failed_total(prefix):
    return lambda t: sum(v for k, v in t.boundary_failures().items() if k.startswith(prefix))


def _ks_failed(t):
    return sum(v for (layer, _, _), v in t.failures.items() if layer == "nuisance.klein_spady_gamma")


# Per-layer metric (units in BENCHMARK.json) -> its value for one traced pass.
# Layers a workload never calls read 0.
PER_PASS = {
    "dgp.simulate.calls": _calls("dgp.simulate"),
    "dgp.simulate.self_s": _self_s("dgp.simulate"),
    "ranks.eta_hat.calls": _calls("ranks.eta_hat"),
    "ranks.eta_hat.self_s": _self_s("ranks.eta_hat"),
    "estimator.plug_in_bandwidth.calls": _calls("estimator.plug_in_bandwidth"),
    "estimator.plug_in_bandwidth.self_s": _self_s("estimator.plug_in_bandwidth"),
    "estimator.plug_in_bandwidth.clamp_share": _clamp_share,
    "estimator.snn_intercept.self_s": _self_s("estimator.snn_intercept"),
    "baselines.probit_mle.calls": _calls("baselines.probit_mle"),
    "baselines.probit_mle.self_s": _self_s("baselines.probit_mle"),
    "baselines.ols_selected.self_s": _self_s("baselines.ols_selected"),
    "baselines.heckman_two_step.self_s": _self_s("baselines.heckman_two_step"),
    "baselines.h90_intercept.self_s": _self_s("baselines.h90_intercept"),
    "baselines.as98_intercept.self_s": _self_s("baselines.as98_intercept"),
    "nuisance.klein_spady_gamma.calls": _calls("nuisance.klein_spady_gamma"),
    "nuisance.klein_spady_gamma.self_s": _self_s("nuisance.klein_spady_gamma"),
    "nuisance.klein_spady_gamma.failed": _ks_failed,
    "nuisance.klein_spady_objective.calls": _calls("nuisance.klein_spady_objective"),
    "nuisance.klein_spady_objective.us_per_call": _us_per_call("nuisance.klein_spady_objective"),
    "nuisance.probit_gamma.self_s": _self_s("nuisance.probit_gamma"),
    "nuisance.robinson_beta.self_s": _self_s("nuisance.robinson_beta"),
    "montecarlo.run_table.self_s": _self_s("montecarlo.run_table"),
    "montecarlo.failed": _failed_total("montecarlo.failed."),
    "decompose.decompose.self_s": _self_s("decompose.decompose"),
    "decompose.bootstrap_se.self_s": _self_s("decompose.bootstrap_se"),
    "decompose.bootstrap_se.failed": _failed_total("decompose.bootstrap_se.failed."),
    "data.Dataset.take.calls": _calls("data.Dataset.take"),
    "data.Dataset.take.self_s": _self_s("data.Dataset.take"),
    "io_csv.load_csv.self_s": _self_s("io_csv.load_csv"),
    "io_csv.load_csv.rows_per_s": _rows_per_s("io_csv.load_csv"),
    "io_csv.save_dataset_csv.self_s": _self_s("io_csv.save_dataset_csv"),
    "io_csv.save_dataset_csv.rows_per_s": _rows_per_s("io_csv.save_dataset_csv"),
    "cli.cli_main.self_s": _self_s("cli.cli_main"),
    "harness.self_s": lambda t: t.harness_self_s,
    "traced_wall_s": lambda t: t.wall_s,
}
