"""The benchmark workloads: inputs made from the seed, one timed pass, checks.

Each workload runs the program in process.  ``run_pass`` is the timed job;
``account`` and ``checks`` run outside the timed region.  The program is
reached through module attributes (``montecarlo.run_table``,
``cli.cli_main``) so that a traced pass sees the wrapped layers.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from snnselect import (
    DgpSpec,
    EstimatorConfig,
    TablePlan,
    as98_intercept,
    cli,
    default_schema,
    derive_seed,
    fit_nuisance,
    h90_intercept,
    heckman_two_step,
    load_csv,
    montecarlo,
    ols_selected,
    save_dataset_csv,
    simulate,
    snn_intercept,
)
from snnselect.exceptions import EstimationError

SCHEMA = default_schema(4, 7)  # DgpSpec defaults k=4, l=7
COLUMN_ARGS = [
    "--outcome-col", SCHEMA.outcome_column,
    "--selection-col", SCHEMA.selection_column,
    "--x-cols", ",".join(SCHEMA.x_columns),
    "--z-cols", ",".join(SCHEMA.z_columns),
]
# n=200, not the n=100 of the paper's DGP2 table: at n=100 OLS and the two-step
# refuse 0 to 8 of the 5000 draws per seed (at most 5 selected observations),
# and every workload must run without failed operations.  Per-draw cost is
# dominated by call overhead, so it is the same at both sizes.
MC_N = 200
MC_REPS = 50
KS_N = 4000
# The Klein-Spady sample is one fixed draw whose rows the run seed permutes.
# Nelder-Mead needs 484 to 1231 objective evaluations on ten different n=4000
# samples, so a fresh sample per seed would spread wall_s by about half from
# run to run; on one sample the count varies by about 1% across row orders.
KS_DESIGN_SEED = derive_seed(0, "estimate-ks-4000", 0)
DECOMPOSE_N = 4000
BOOTSTRAP = 200
CSV_N = 100_000
# Relative tolerance for recomputed Monte Carlo statistics; a batched engine
# may reorder sums, the estimates themselves must agree to 1e-12.
CELL_RTOL = 1e-9


@dataclass(frozen=True)
class Counts:
    items: int      # units of work, for items_per_s
    attempted: int  # operations attempted
    failed: int     # operations failed


class Workload:
    name = ""  # as in BENCHMARK.json

    def __init__(self, seed: int, work_dir: Path, nproc: int, trace: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.nproc = nproc
        self.trace = trace

    def prepare(self) -> None:
        """Make the inputs (part of set-up)."""

    def run_pass(self):
        raise NotImplementedError

    def account(self, output) -> Counts:
        raise NotImplementedError

    def checks(self, output) -> list[tuple[str, bool]]:
        raise NotImplementedError


def _cli(*argv) -> int:
    return cli.cli_main([str(a) for a in argv])


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _stats_match(a, b) -> bool:
    if (a.reps_ok, a.reps_failed) != (b.reps_ok, b.reps_failed):
        return False
    return all(
        math.isclose(x, y, rel_tol=CELL_RTOL, abs_tol=1e-15) or (math.isnan(x) and math.isnan(y))
        for x, y in ((a.sq_bias, b.sq_bias), (a.sd, b.sd), (a.rmse_scaled, b.rmse_scaled))
    )


_DIRECT = {
    "snn": lambda draw: snn_intercept(draw.dataset, draw.beta0, draw.gamma0).theta,
    "ols": lambda draw: ols_selected(draw.dataset).theta,
    "heckman": lambda draw: heckman_two_step(draw.dataset).theta,
    "h90": lambda draw: h90_intercept(draw.dataset, draw.beta0, draw.gamma0).theta,
    "as98": lambda draw: as98_intercept(draw.dataset, draw.beta0, draw.gamma0).theta,
}


class McTable(Workload):
    name = "mc-dgp2-table"

    def prepare(self) -> None:
        self.plan = TablePlan(
            "dgp2", MC_N, [EstimatorConfig(method=m) for m in _DIRECT], reps=MC_REPS
        )

    def run_pass(self):
        # A traced run uses one process, for its untraced passes too, so that
        # spans add up to the traced wall time and the overhead compares like
        # with like.
        workers = 1 if self.trace else self.nproc
        return workers, montecarlo.run_table(self.plan, base_seed=self.seed, workers=workers)

    def account(self, output) -> Counts:
        _, report = output
        cells = [st for panel in report.panels.values() for st in panel.values()]
        attempted = sum(st.reps_ok + st.reps_failed for st in cells)
        return Counts(attempted, attempted, sum(st.reps_failed for st in cells))

    def _direct_cell(self, method: str, rho: float, alpha: float):
        """One cell from direct simulate + public estimator calls."""
        spec = DgpSpec(self.plan.family, self.plan.n, rho=rho, alpha=alpha)
        label = f"{spec.family}:n={spec.n}:rho={spec.rho:.6g}:alpha={spec.alpha:.6g}"
        vals, failed = [], 0
        for rep in range(self.plan.reps):
            draw = simulate(spec.with_seed(derive_seed(self.seed, label, rep)))
            try:
                vals.append(float(_DIRECT[method](draw)))
            except EstimationError:
                failed += 1
        v = np.array(vals)
        mean = float(v.mean())
        sq_bias = (mean - spec.theta0) ** 2
        sd = float(np.sqrt(np.mean((v - mean) ** 2)))
        return montecarlo.CellStats(
            sq_bias, sd, math.sqrt(spec.n) * math.sqrt(sq_bias + sd * sd), v.size, failed
        )

    def checks(self, output) -> list[tuple[str, bool]]:
        workers, report = output
        plan = self.plan
        out = [(
            "reps_ok + reps_failed == reps in every cell",
            all(st.reps_ok + st.reps_failed == plan.reps
                for panel in report.panels.values() for st in panel.values()),
        )]
        for i, config in enumerate(plan.estimators):
            rho, alpha = plan.rhos[i % len(plan.rhos)], plan.alphas[i % len(plan.alphas)]
            direct = self._direct_cell(config.method, rho, alpha)
            out.append((
                f"{config.method} cell rho={rho:g} alpha={alpha:g} matches direct calls",
                _stats_match(report.panels[config.label][(rho, alpha)], direct),
            ))
        other = self.nproc if workers == 1 else 1
        again = montecarlo.run_table(plan, base_seed=self.seed, workers=other)
        out.append((
            f"table bitwise identical at workers={workers} and workers={other}",
            repr(again.panels) == repr(report.panels),
        ))
        return out


class EstimateKs(Workload):
    name = "estimate-ks-4000"

    def prepare(self) -> None:
        base = simulate(DgpSpec("dgp1", KS_N, rho=0.5, alpha=2.0, seed=KS_DESIGN_SEED)).dataset
        rows = np.random.default_rng(self.seed).permutation(base.n)
        self.csv_path = self.work_dir / "ks.csv"
        self.out_path = self.work_dir / "ks.json"
        save_dataset_csv(self.csv_path, base.take(rows), SCHEMA)

    def run_pass(self):
        return _cli("estimate", self.csv_path, *COLUMN_ARGS, "--nuisance", "klein-spady",
                    "--format", "json", "--out", self.out_path)

    def account(self, rc) -> Counts:
        return Counts(1, 1, int(rc != 0))

    def checks(self, rc) -> list[tuple[str, bool]]:
        if rc != 0:
            return [("estimate exits 0", False)]
        theta = _read_json(self.out_path)["theta"]
        data = load_csv(self.csv_path, SCHEMA)
        nuis = fit_nuisance(data, "klein_spady")
        direct = snn_intercept(data, nuis.beta, nuis.gamma).theta
        return [("CLI theta == load_csv -> fit_nuisance -> snn_intercept", theta == direct)]


class DecomposeBoot(Workload):
    name = "decompose-probit-boot"

    def prepare(self) -> None:
        designs = (("g0", 1.0, 0.5, 2.0), ("g1", 1.4, 0.25, 1.5))
        self.csv_path = self.work_dir / "groups.csv"
        self.out_path = self.work_dir / "decompose.json"
        with self.csv_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SCHEMA.required_columns() + ("group",))
            for group, theta0, rho, alpha in designs:
                spec = DgpSpec("dgp1", DECOMPOSE_N, rho=rho, alpha=alpha, theta0=theta0,
                               seed=derive_seed(self.seed, f"decompose:{group}", 0))
                data = simulate(spec).dataset
                for i in range(data.n):
                    fields = (data.d[i], data.y[i], *data.X[i], *data.Z[i])
                    writer.writerow([format(float(v), ".17g") for v in fields] + [group])

    def run_pass(self):
        return _cli("decompose", self.csv_path, *COLUMN_ARGS, "--group-col", "group",
                    "--nuisance", "probit", "--bootstrap", BOOTSTRAP, "--seed", self.seed,
                    "--format", "json", "--out", self.out_path)

    def account(self, rc) -> Counts:
        if rc != 0:
            return Counts(BOOTSTRAP, BOOTSTRAP + 1, BOOTSTRAP + 1)
        return Counts(BOOTSTRAP, BOOTSTRAP + 1, _read_json(self.out_path)["boot_failed"])

    def checks(self, rc) -> list[tuple[str, bool]]:
        if rc != 0:
            return [("decompose exits 0", False)]
        rep = _read_json(self.out_path)
        gap = rep["gap_overall"]
        parts = rep["component_A"] + rep["component_B"] + rep["component_C"]
        ses = rep["bootstrap_se"].values()
        return [
            ("A + B + C == gap", abs(parts - gap) <= 1e-12 * max(1.0, abs(gap))),
            ("bootstrap SEs finite and positive", bool(ses) and all(math.isfinite(s) and s > 0 for s in ses)),
            (f"n_boot == {BOOTSTRAP}", rep["n_boot"] == BOOTSTRAP),
        ]


class CsvProbit(Workload):
    name = "csv-1e5-probit"

    def prepare(self) -> None:
        self.spec = DgpSpec("dgp1", CSV_N, rho=0.5, alpha=2.0,
                            seed=derive_seed(self.seed, "csv-1e5-probit", 0))
        self.csv_path = self.work_dir / "big.csv"
        self.out_path = self.work_dir / "big.json"

    def run_pass(self):
        s = self.spec
        rc_sim = _cli("simulate", "--dgp", s.family, "--n", s.n, "--rho", s.rho,
                      "--alpha", s.alpha, "--seed", s.seed, "--out", self.csv_path)
        if rc_sim != 0:
            return rc_sim, None
        rc_est = _cli("estimate", self.csv_path, *COLUMN_ARGS, "--nuisance", "probit",
                      "--format", "json", "--out", self.out_path)
        return rc_sim, rc_est

    def account(self, output) -> Counts:
        return Counts(CSV_N, 2, sum(rc != 0 for rc in output))

    def checks(self, output) -> list[tuple[str, bool]]:
        if output != (0, 0):
            return [("simulate and estimate exit 0", False)]
        loaded = load_csv(self.csv_path, SCHEMA)
        drawn = simulate(self.spec).dataset
        same = all(
            getattr(loaded, f).tobytes() == getattr(drawn, f).tobytes() for f in ("d", "y", "X", "Z")
        )
        theta = _read_json(self.out_path)["theta"]
        return [
            ("CSV round trip bitwise exact", same),
            ("estimate theta finite", math.isfinite(theta)),
        ]


WORKLOADS = {w.name: w for w in (McTable, EstimateKs, DecomposeBoot, CsvProbit)}
