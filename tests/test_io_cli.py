import importlib
import json

import numpy as np
import pytest

from snnselect import cli
from snnselect.cli import cli_main
from snnselect.data import Dataset
from snnselect.dgp import DgpSpec, simulate
from snnselect.exceptions import DataError
from snnselect.io_csv import CsvSchema, default_schema, load_csv, save_dataset_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")


SCHEMA = CsvSchema("y", "d", ("x1",), ("z1", "z2"))
_SIM_COLUMNS = [
    "--outcome-col", "y", "--selection-col", "d",
    "--x-cols", "x1,x2,x3,x4", "--z-cols", "z1,z2,z3,z4,z5,z6,z7",
]


class TestSchema:
    def test_duplicate_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            CsvSchema("y", "d", ("a", "a"), ("z",))

    def test_needs_columns(self):
        with pytest.raises(DataError):
            CsvSchema("y", "d", (), ("z",))


class TestLoadCsv:
    def test_small_file_exact_values(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1,z2\n1,2.5,0.25,1,2\n0,0,1.5,3,4\n1,-1,2.5,5,6\n")
        data = load_csv(p, SCHEMA)
        assert data.n == 3
        assert data.y.tolist() == [2.5, 0.0, -1.0]
        assert data.X[:, 0].tolist() == [0.25, 1.5, 2.5]
        assert data.Z.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1\n1,2,3,4\n")
        with pytest.raises(DataError, match="missing column: z2"):
            load_csv(p, SCHEMA)

    def test_non_binary_selection_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = ["1,1,1,1,1"] * 6 + ["2,1,1,1,1"] + ["0,1,1,1,1"]
        write(p, "d,y,x1,z1,z2\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 7"):
            load_csv(p, SCHEMA)

    def test_unparseable_value_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1,z2\n1,2,3,4,5\n1,abc,3,4,5\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, SCHEMA)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "")
        with pytest.raises(DataError, match="empty file"):
            load_csv(p, SCHEMA)
        write(p, "d,y,x1,z1,z2\n")
        with pytest.raises(DataError, match="empty file"):
            load_csv(p, SCHEMA)

    def test_group_split(self, tmp_path):
        p = tmp_path / "d.csv"
        write(
            p,
            "d,y,x1,z1,z2,g\n"
            "1,1,1,1,1,m\n1,2,2,2,2,f\n0,0,3,3,3,m\n1,3,4,4,4,f\n",
        )
        schema = CsvSchema("y", "d", ("x1",), ("z1", "z2"), group_column="g")
        d_f, d_m = load_csv(p, schema)  # sorted labels: f before m
        assert d_f.n == 2 and d_m.n == 2
        assert d_f.y.tolist() == [2.0, 3.0]

    def test_group_needs_two_levels(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1,z2,g\n1,1,1,1,1,m\n1,2,2,2,2,m\n")
        schema = CsvSchema("y", "d", ("x1",), ("z1", "z2"), group_column="g")
        with pytest.raises(DataError, match="exactly 2"):
            load_csv(p, schema)


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        draw = simulate(DgpSpec("dgp2", 150, rho=0.35, alpha=1.25, seed=99))
        p = tmp_path / "sim.csv"
        schema = default_schema(draw.dataset.k, draw.dataset.l)
        save_dataset_csv(p, draw.dataset, schema)
        back = load_csv(p, schema)
        assert np.array_equal(back.d, draw.dataset.d)
        assert np.array_equal(back.y, draw.dataset.y)
        assert np.array_equal(back.X, draw.dataset.X)
        assert np.array_equal(back.Z, draw.dataset.Z)


class TestCli:
    def test_simulate_and_reload(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = cli_main([
            "simulate", "--dgp", "dgp1", "--n", "120", "--rho", "0.5",
            "--alpha", "2.0", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        data = load_csv(out, default_schema(4, 7))
        assert data.n == 120

    def test_estimate_constant_outcome_h90(self, tmp_path):
        # constant observed outcome: slope residualization is exactly zero,
        # so the tail mean reproduces the constant
        rng = np.random.default_rng(101)
        n = 400
        Z = rng.normal(size=(n, 3))
        v = rng.normal(size=n)
        d = (Z @ np.array([1.0, 0.5, 0.25]) >= v).astype(float)
        X = Z[:, :2] + rng.normal(size=(n, 2))  # avoid X identical to Z cols
        y = d * 5.0
        data = Dataset(d=d, y=y, X=X, Z=Z)
        p = tmp_path / "const.csv"
        schema = default_schema(2, 3)
        save_dataset_csv(p, data, schema)
        out = tmp_path / "est.json"
        rc = cli_main([
            "estimate", str(p),
            "--outcome-col", "y", "--selection-col", "d",
            "--x-cols", "x1,x2", "--z-cols", "z1,z2,z3",
            "--estimator", "h90", "--nuisance", "probit",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["theta"] == pytest.approx(5.0, abs=1e-10)

    @pytest.mark.parametrize("method, keys", [
        ("snn", ["theta", "std_error", "bandwidth", "effective_n", "method"]),
        ("ols", ["theta", "std_error", "method"]),
        ("heckman", ["theta", "lambda_coef", "method"]),
        ("h90", ["theta", "std_error", "effective_n", "method"]),
        ("as98", ["theta", "std_error", "effective_n", "method"]),
    ])
    def test_estimate_json_keys(self, tmp_path, method, keys):
        p = tmp_path / "sim.csv"
        save_dataset_csv(p, simulate(DgpSpec("dgp1", 300, rho=0.5, seed=13)).dataset,
                         default_schema(4, 7))
        out = tmp_path / "est.json"
        assert cli_main(["estimate", str(p), *_SIM_COLUMNS, "--estimator", method,
                         "--nuisance", "probit", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == keys
        assert payload["method"] == method

    @pytest.mark.parametrize("method", ["ols", "heckman"])
    def test_estimate_skips_nuisance_for_slope_estimating_methods(self, tmp_path, method):
        # 80 rows is below the Klein-Spady minimum: the default nuisance
        # would fail if these methods fitted it
        p = tmp_path / "small.csv"
        save_dataset_csv(p, simulate(DgpSpec("dgp1", 80, rho=0.5, seed=11)).dataset,
                         default_schema(4, 7))
        thetas = []
        for nuisance in ([], ["--nuisance", "probit"]):
            out = tmp_path / "est.json"
            assert cli_main(["estimate", str(p), *_SIM_COLUMNS, "--estimator", method,
                             *nuisance, "--format", "json", "--out", str(out)]) == 0
            thetas.append(json.loads(out.read_text())["theta"])
        assert thetas[0] == thetas[1]

    def test_mc_table_deterministic_across_workers(self, tmp_path):
        args = [
            "mc-table", "--dgp", "dgp1", "--n", "60", "--reps", "12",
            "--rho", "0,0.5", "--alpha", "2.0", "--estimator", "snn",
            "--seed", "77", "--format", "csv",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert cli_main(args + ["--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mc_table_json(self, tmp_path):
        out = tmp_path / "r.json"
        rc = cli_main([
            "mc-table", "--n", "50", "--reps", "6", "--rho", "0",
            "--alpha", "2", "--estimator", "ols", "--seed", "3",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["reps"] == 6

    def test_mc_table_reproduces_table_cell(self, tmp_path):
        # the reference (rho=0, alpha=2) cell through the CLI surface; the
        # full-replication version is acceptance criterion 1
        out = tmp_path / "t1.json"
        rc = cli_main([
            "mc-table", "--dgp", "dgp1", "--n", "100", "--reps", "400",
            "--rho", "0", "--alpha", "2", "--estimator", "snn",
            "--bandwidth", "plugin", "--seed", "42", "--workers", "2",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        (panel,) = payload["panels"].values()
        cell = panel[0]
        assert abs(cell["rmse_scaled"] - 2.0645) <= 0.15 * 2.0645

    def test_rate_check_smoke(self, tmp_path):
        out = tmp_path / "rate.json"
        rc = cli_main([
            "rate-check", "--ns", "50,100,200", "--reps", "8", "--rho", "0",
            "--seed", "5", "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["rmse"]) == 3

    def test_kernel_check(self, capsys):
        rc = cli_main(["kernel-check", "--kernel-order", "2", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l2"] == pytest.approx(0.6, abs=1e-8)
        assert payload["moment_2"] == pytest.approx(0.2, abs=1e-8)

    def test_kernel_check_fourth_order_exact(self, capsys):
        assert cli_main(["kernel-check", "--kernel-order", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload[f"moment_{j}"] == 0.0 for j in (1, 2, 3, 5, 7))
        assert payload["l2"] == 1.25

    def test_ident_check(self, capsys):
        rc = cli_main(["ident-check", "--dgp", "dgp1", "--alpha", "1.0", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(abs(v - 1.0) < 1e-9 for v in payload["ratio"])

    def test_decompose_cli(self, tmp_path):
        rng = np.random.default_rng(103)
        rows = ["d,y,x1,z1,z2,g"]
        for i in range(700):
            g = "a" if i % 2 == 0 else "b"
            z1, z2 = rng.normal(), rng.normal()
            d = 1.0 if z1 + 0.5 * z2 >= rng.normal() else 0.0
            theta = 1.0 if g == "a" else 1.5
            y = d * (theta + 0.8 * z1 + rng.normal())
            rows.append(f"{int(d)},{y!r},{z1!r},{z1!r},{z2!r},{g}")
        p = tmp_path / "two.csv"
        write(p, "\n".join(rows) + "\n")
        out = tmp_path / "dec.json"
        rc = cli_main([
            "decompose", str(p),
            "--outcome-col", "y", "--selection-col", "d",
            "--x-cols", "x1", "--z-cols", "z1,z2", "--group-col", "g",
            "--nuisance", "probit", "--bootstrap", "12",
            "--seed", "9", "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        identity = payload["component_A"] + payload["component_B"] + payload["component_C"]
        assert payload["gap_overall"] == pytest.approx(identity, abs=1e-12)
        assert payload["n_boot"] == 12

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["mc-table", "--estimator", "magic"]) == 1
        err = capsys.readouterr().err
        assert "snn" in err  # valid set listed
        assert cli_main(["kernel-check", "--nodes", "401"]) == 1

    @pytest.mark.parametrize("command", [
        ["mc-table", "--n", "50", "--reps", "4"],
        ["estimate", "{csv}", *_SIM_COLUMNS],
        ["decompose", "{csv}", *_SIM_COLUMNS, "--group-col", "g"],
    ], ids=lambda argv: argv[0])
    def test_bad_bandwidth_text(self, tmp_path, monkeypatch, command):
        # a usage error, reported before any nuisance fit; on 80 rows a fit
        # would fail as a numerical error (exit 2) instead
        def never(*args, **kwargs):
            raise AssertionError("nuisance fitted before --bandwidth was parsed")

        monkeypatch.setattr(cli, "fit_nuisance", never)
        # the package's ``decompose`` attribute is the function, not the module
        monkeypatch.setattr(importlib.import_module("snnselect.decompose"), "fit_nuisance", never)
        p = tmp_path / "small.csv"
        save_dataset_csv(p, simulate(DgpSpec("dgp1", 80, rho=0.5, seed=11)).dataset,
                         default_schema(4, 7))
        header, *rows = p.read_text().splitlines()
        write(p, "\n".join([header + ",g"] + [f"{r},{i % 2}" for i, r in enumerate(rows)]) + "\n")
        argv = [str(p) if a == "{csv}" else a for a in command]
        assert cli_main(argv + ["--bandwidth", "auto"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        rc = cli_main([
            "estimate", str(tmp_path / "absent.csv"),
            "--outcome-col", "y", "--selection-col", "d",
            "--x-cols", "x1", "--z-cols", "z1",
        ])
        assert rc == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # all-selected sample: the probit step cannot converge -> exit 2
        p = tmp_path / "d.csv"
        rows = ["d,y,x1,z1"] + [f"1,{i}.0,{i}.5,{i}.25" for i in range(40)]
        write(p, "\n".join(rows) + "\n")
        rc = cli_main([
            "estimate", str(p),
            "--outcome-col", "y", "--selection-col", "d",
            "--x-cols", "x1", "--z-cols", "z1",
            "--estimator", "h90", "--nuisance", "probit",
        ])
        assert rc == 2
