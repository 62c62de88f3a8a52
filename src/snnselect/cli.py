"""Command-line surface tying the library together.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .baselines import TailRule
from .decompose import WEIGHTINGS, DecompositionConfig, bootstrap_se, decompose
from .dgp import FAMILIES, DgpSpec, identification_ratio, simulate
from .estimator import BandwidthRule
from .exceptions import DataError, EstimationError
from .io_csv import CsvSchema, default_schema, load_csv, save_dataset_csv
from .montecarlo import DEFAULT_ALPHAS, DEFAULT_RHOS, TablePlan, rate_check, run_table
from .numerics import KERNEL_ORDERS, _special, kernel_l2, kernel_moment
from .nuisance import GAMMA_METHODS
from .registry import METHODS, EstimatorConfig, fit

__all__ = ["cli_main", "main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors raise ValueError, so that they
    exit 1 (not 2) through cli_main."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _parse_bandwidth(text: str) -> BandwidthRule:
    try:
        if text == "plugin":
            return BandwidthRule.plug_in()
        if text.startswith("plugin:"):
            return BandwidthRule.plug_in(float(text.split(":", 1)[1]))
        if text.startswith("fixed:"):
            return BandwidthRule.fixed(float(text.split(":", 1)[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"bad value {text!r}; use fixed:H or plugin[:SCALE]")


def _int_at_least(least: int, name: str = ""):
    """An argparse type: a decimal integer >= ``least``; ``name`` labels the
    bound in the message."""
    bound = f"{name} >= {least}" if name else f">= {least}"

    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"{text!r}: need an integer {bound}")
        return int(text)

    return parse


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: need comma-separated numbers") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: need comma-separated integers") from None


def _tail_rule(args) -> TailRule:
    return TailRule(args.tail_quantile, args.tau_quantile)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="snnselect", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp, formats=("csv", "json"), seed=False):
        """--out, --format over ``formats`` (none when empty) and, for the
        commands that draw random numbers, --seed."""
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
        if formats:
            sp.add_argument("--format", choices=formats, default="csv")

    def add_kernel_tail(sp):
        """The kernel and tail options of mc-table, estimate and decompose."""
        sp.add_argument("--kernel-order", type=int, choices=KERNEL_ORDERS, default=2)
        sp.add_argument("--tail-quantile", type=float, default=0.95)
        sp.add_argument("--tau-quantile", type=float, default=0.5)

    sp = sub.add_parser("simulate", help="draw one simulated sample to CSV")
    sp.add_argument("--dgp", choices=FAMILIES, default="dgp1")
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--rho", type=float, default=0.0)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--theta0", type=float, default=1.0)
    add_output(sp, formats=(), seed=True)

    sp = sub.add_parser("mc-table", help="Monte Carlo grid over (rho, alpha)")
    sp.add_argument("--dgp", choices=FAMILIES, default="dgp1")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--rho", type=_float_list, default=list(DEFAULT_RHOS), metavar="R1,R2,...")
    sp.add_argument("--alpha", type=_float_list, default=list(DEFAULT_ALPHAS), metavar="A1,A2,...")
    sp.add_argument("--estimator", action="append", choices=METHODS, default=None,
                    help="repeatable; default snn")
    sp.add_argument("--bandwidth", type=_parse_bandwidth, action="append", default=None,
                    help="for snn panels; repeatable; fixed:H or plugin[:SCALE]")
    add_kernel_tail(sp)
    sp.add_argument("--workers", type=_int_at_least(1), default=1)
    add_output(sp, ("csv", "json", "markdown"), seed=True)

    sp = sub.add_parser("rate-check", help="log-log RMSE slope under the rate-optimal schedule")
    sp.add_argument("--dgp", choices=FAMILIES, default="dgp1")
    sp.add_argument("--ns", type=_int_list, default=[200, 400, 800, 1600], metavar="N1,N2,...")
    sp.add_argument("--rho", type=float, default=0.5)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--reps", type=int, default=400)
    sp.add_argument("--c", type=float, default=0.5, help="bandwidth constant c*n^(-1/(2p+1))")
    sp.add_argument("--estimator", choices=METHODS, default="snn")
    sp.add_argument("--kernel-order", type=int, choices=KERNEL_ORDERS, default=2)
    sp.add_argument("--workers", type=_int_at_least(1), default=1)
    add_output(sp, seed=True)

    def add_data_fit(sp, group: bool = False):
        """The CSV, its columns and the fit options of estimate and decompose."""
        sp.add_argument("data", type=Path)
        sp.add_argument("--outcome-col", required=True)
        sp.add_argument("--selection-col", required=True)
        sp.add_argument("--x-cols", required=True, help="comma-separated")
        sp.add_argument("--z-cols", required=True, help="comma-separated")
        if group:
            sp.add_argument("--group-col", required=True)
        sp.add_argument("--estimator", choices=METHODS, default="snn")
        sp.add_argument("--bandwidth", type=_parse_bandwidth, default="plugin")
        add_kernel_tail(sp)
        sp.add_argument("--nuisance", choices=[m.replace("_", "-") for m in GAMMA_METHODS],
                        default="klein-spady")

    sp = sub.add_parser("estimate", help="intercept estimate on a CSV dataset")
    add_data_fit(sp)
    add_output(sp)

    sp = sub.add_parser("decompose", help="two-group decomposition with bootstrap SEs")
    add_data_fit(sp, group=True)
    sp.add_argument("--weighting", choices=WEIGHTINGS, default="group0")
    sp.add_argument("--bootstrap", type=_int_at_least(2, "B"), default=200, metavar="B")
    sp.add_argument("--workers", type=_int_at_least(1), default=1)
    add_output(sp, seed=True)

    sp = sub.add_parser("kernel-check", help="kernel moment diagnostics")
    sp.add_argument("--kernel-order", type=int, choices=KERNEL_ORDERS, default=2)
    add_output(sp)

    sp = sub.add_parser("ident-check", help="identification-ratio profile over q")
    sp.add_argument("--dgp", choices=FAMILIES, default="dgp1")
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--q-min", type=float, default=0.01)
    sp.add_argument("--q-max", type=float, default=0.999)
    sp.add_argument("--points", type=_int_at_least(1), default=50)
    add_output(sp)

    return p


def _render(args, payload, lines) -> str:
    """The text of a csv|json command: ``payload`` as JSON or the CSV ``lines``."""
    if args.format == "json":
        return json.dumps(payload, indent=2)
    return "\n".join(lines)


def _schema_from_args(args) -> CsvSchema:
    return CsvSchema(
        outcome_column=args.outcome_col,
        selection_column=args.selection_col,
        x_columns=tuple(args.x_cols.split(",")),
        z_columns=tuple(args.z_cols.split(",")),
        group_column=getattr(args, "group_col", None),
    )


def _fit_config(args) -> EstimatorConfig:
    """The fit options of estimate and decompose."""
    return EstimatorConfig(
        method=args.estimator,
        kernel_order=args.kernel_order,
        bandwidth=args.bandwidth,
        tail=_tail_rule(args),
        nuisance=args.nuisance.replace("-", "_"),
    )


def _cmd_simulate(args) -> None:
    if args.out is None:
        raise ValueError("simulate requires --out")
    spec = DgpSpec(args.dgp, args.n, rho=args.rho, alpha=args.alpha,
                   theta0=args.theta0, seed=args.seed)
    draw = simulate(spec)
    save_dataset_csv(args.out, draw.dataset, default_schema(spec.k, spec.l))


def _estimator_configs(args) -> list[EstimatorConfig]:
    methods = args.estimator or ["snn"]
    tail = _tail_rule(args)
    configs = []
    for method in methods:
        if method == "snn":
            for bw in args.bandwidth or [BandwidthRule.plug_in()]:
                configs.append(EstimatorConfig(
                    method="snn",
                    kernel_order=args.kernel_order,
                    bandwidth=bw,
                    tail=tail,
                ))
        else:
            configs.append(EstimatorConfig(method=method, tail=tail))
    return configs


def _cmd_mc_table(args) -> str:
    plan = TablePlan(
        family=args.dgp,
        n=args.n,
        estimators=_estimator_configs(args),
        rhos=tuple(args.rho),
        alphas=tuple(args.alpha),
        reps=args.reps,
    )
    report = run_table(plan, base_seed=args.seed, workers=args.workers)
    writers = {"csv": report.to_csv, "json": report.to_json, "markdown": report.to_markdown}
    return writers[args.format]()


def _cmd_rate_check(args) -> str:
    config = EstimatorConfig(method=args.estimator, kernel_order=args.kernel_order)
    spec = DgpSpec(args.dgp, max(args.ns), rho=args.rho, alpha=args.alpha)
    result = rate_check(args.ns, spec, config, c=args.c, reps=args.reps,
                        base_seed=args.seed, workers=args.workers)
    payload = {
        "slope": result.slope,
        "ns": list(result.ns),
        "rmse": list(result.rmse),
    }
    lines = ["n,rmse"] + [f"{n},{r:.6g}" for n, r in zip(result.ns, result.rmse)]
    lines.append(f"# slope of log RMSE on log n: {result.slope:.4f}")
    return _render(args, payload, lines)


def _cmd_estimate(args) -> str:
    _special()  # loaded before the CSV, so its arrays do not sit below it in the heap
    data = load_csv(args.data, _schema_from_args(args))
    result, _ = fit(data, _fit_config(args))
    payload = {**METHODS[args.estimator].report(result), "method": args.estimator}
    return _render(args, payload, [f"{k},{v}" for k, v in payload.items()])


def _cmd_decompose(args) -> str:
    _special()  # as in _cmd_estimate
    data0, data1 = load_csv(args.data, _schema_from_args(args))
    config = DecompositionConfig(_fit_config(args), args.weighting)
    quantities = decompose(data0, data1, config).quantities()
    boot = bootstrap_se(data0, data1, config, n_boot=args.bootstrap, seed=args.seed,
                        workers=args.workers)
    payload = {**quantities, "bootstrap_se": dict(boot.ses),
               "n_boot": args.bootstrap, "boot_failed": boot.n_failed}
    lines = ["quantity,estimate,bootstrap_se"] + [
        f"{k},{float(v)!r},{boot.ses[k]!r}" for k, v in quantities.items()
    ]
    lines.append(f"# bootstrap: B={args.bootstrap}, failed={boot.n_failed}")
    return _render(args, payload, lines)


def _cmd_kernel_check(args) -> str:
    p = args.kernel_order
    moments = {f"moment_{j}": kernel_moment(p, j) for j in range(2 * p + 1)}
    payload = {"family": f"epanechnikov{p}", "order": p, "l2": kernel_l2(p), **moments}
    lines = [f"{k},{v:.12g}" if isinstance(v, float) else f"{k},{v}" for k, v in payload.items()]
    return _render(args, payload, lines)


def _cmd_ident_check(args) -> str:
    if args.q_min > args.q_max:
        raise ValueError("--q-min must not exceed --q-max")
    qs = np.linspace(args.q_min, args.q_max, args.points)
    vals = [identification_ratio(args.dgp, args.alpha, float(q)) for q in qs]
    lines = ["q,ratio"] + [f"{q:.6g},{v:.6g}" for q, v in zip(qs, vals)]
    return _render(args, {"q": qs.tolist(), "ratio": vals}, lines)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "mc-table": _cmd_mc_table,
    "rate-check": _cmd_rate_check,
    "estimate": _cmd_estimate,
    "decompose": _cmd_decompose,
    "kernel-check": _cmd_kernel_check,
    "ident-check": _cmd_ident_check,
}


def cli_main(argv=None) -> int:
    """Run one command and write the text it returns, once, to stdout or --out.
    A file that cannot be read or written (OSError) is an input error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = _COMMANDS[args.command](args)
        if text is not None:  # None: the command wrote its own file
            text = text if text.endswith("\n") else text + "\n"
            if args.out is None:
                sys.stdout.write(text)
            else:
                args.out.write_text(text, encoding="utf-8")
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
