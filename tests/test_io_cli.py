import csv
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import save_csv_cellwise

from snnselect import cli, io_csv, nuisance
from snnselect.cli import build_parser, cli_main
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


def grouped_sim_csv(path, n):
    """A simulated dgp1 sample with an alternating 0/1 group column ``g``."""
    save_dataset_csv(path, simulate(DgpSpec("dgp1", n, rho=0.5, seed=11)).dataset,
                     default_schema(4, 7))
    header, *rows = path.read_text().splitlines()
    write(path, "\n".join([header + ",g"] + [f"{r},{i % 2}" for i, r in enumerate(rows)]) + "\n")
    return path


def format_choices():
    """{subcommand: its --format choices, () without --format}, read from the parser."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return {
        name: tuple(next((a.choices for a in sp._actions if a.dest == "format"), ()))
        for name, sp in subparsers.choices.items()
    }


# Cheap arguments for every subcommand that has --format; "{csv}" is
# replaced by grouped_sim_csv's file.
_FORMAT_RUNS = {
    "mc-table": ["--n", "50", "--reps", "4", "--rho", "0", "--alpha", "2", "--estimator", "ols"],
    "rate-check": ["--ns", "50,100,200", "--reps", "4", "--estimator", "ols"],
    "estimate": ["{csv}", *_SIM_COLUMNS, "--estimator", "ols"],
    "decompose": ["{csv}", *_SIM_COLUMNS, "--group-col", "g", "--estimator", "ols",
                  "--bootstrap", "4"],
    "kernel-check": [],
    "ident-check": ["--points", "5"],
}


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

    def test_non_finite_outcome_of_unselected_row(self, tmp_path):
        # d = 0 masks y in every estimator, but 0 * nan is still nan
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1,z2\n1,2,3,4,5\n0,nan,1,2,3\n1,1,2,3,4\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, SCHEMA)
        assert str(exc.value) == "non-finite value in column y at row 2"
        assert cli_main(["estimate", str(p), "--outcome-col", "y", "--selection-col", "d",
                         "--x-cols", "x1", "--z-cols", "z1,z2"]) == 1

    def test_non_finite_selection_covariate(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1,z2\n1,2,3,4,-Infinity\n0,0,1,2,3\n1,1,2,3,inf\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, SCHEMA)
        assert str(exc.value) == "non-finite value in column z2 at row 1, 3"

    def test_non_finite_rows_capped(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1,z2\n" + "1,NaN,3,4,5\n" * 12 + "0,0,nan,2,3\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, SCHEMA)
        rows = ", ".join(str(i) for i in range(1, 11))
        assert str(exc.value) == (f"non-finite value in column y at row {rows}, ... and 2 more rows; "
                                  "non-finite value in column x1 at row 13")

    def test_non_finite_in_group_file_names_file_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write(p, "d,y,x1,z1,z2,g\n1,1,1,1,1,m\n1,2,2,2,2,f\n0,0,3,3,3,m\n1,3,inf,4,4,f\n")
        schema = CsvSchema("y", "d", ("x1",), ("z1", "z2"), group_column="g")
        with pytest.raises(DataError) as exc:
            load_csv(p, schema)
        assert str(exc.value) == "non-finite value in column x1 at row 4"


_GROUP_SCHEMA = CsvSchema("y", "d", ("x1",), ("z1", "z2"), group_column="g")
_HEAD = "d,y,x1,z1,z2\n"
# every required cell present, the group cell missing
_SHORT_GROUP_ROW = "d,y,x1,z1,z2,g\n1,1,1,1,1,m\n1,2,2,2,2\n0,0,3,3,3,f\n"
# (file text, schema, whether the row walk has to read it)
_PARSE_CASES = [
    pytest.param(_HEAD + "1,2,3,4,5\n\n0,0,1,2,3\n", SCHEMA, False, id="blank-line"),
    pytest.param(_HEAD + "1,2,3,4,5\n   \n0,0,1,2,3\n", SCHEMA, True, id="whitespace-line"),
    pytest.param(_HEAD + '1,"2.5",3,4,5\n0,0,1,2,3\n', SCHEMA, True, id="quoted-number"),
    # split at every comma, the cells of these rows would shift into d, y, ... and still parse
    pytest.param('q,e,d,y,x1,z1,z2\n"a,b",0,1,2,3,4,5\n"c,d",1,0,0,1,2,3\n', SCHEMA, True,
                 id="quoted-comma"),
    pytest.param(_HEAD + "1,1_0,3,4,5\n0,0,1,2,3\n", SCHEMA, True, id="underscore"),
    pytest.param(_HEAD + "1,,3,4,5\n0,0,1,2,3\n", SCHEMA, True, id="empty-cell"),
    # read as a comment, this row would vanish instead of being rejected
    pytest.param(_HEAD + "1,2,3,4,5\n#5,0,1,2,3\n0,0,1,2,3\n", SCHEMA, True, id="hash-cell"),
    pytest.param(_HEAD + "1,0x10,3,4,5\n0,0,1,2,3\n", SCHEMA, True, id="hex"),
    pytest.param(_HEAD + "1,2,3,4,5\n0,0,1,2\n", SCHEMA, True, id="short-row"),
    pytest.param(_HEAD + "1,2,3,4,5\n0,0,1,2,3,9\n", SCHEMA, False, id="long-row"),
    pytest.param(_HEAD.replace("\n", "\r\n") + "1,2,3,4,5\r\n0,0,1,2,3\r\n", SCHEMA, False, id="crlf"),
    pytest.param(_HEAD + "1,2,3,4,5\r0,0,1,2,3\r", SCHEMA, False, id="cr"),
    pytest.param(_HEAD + "1,2,3,4,5\n0,0,1,2,3", SCHEMA, False, id="no-final-newline"),
    pytest.param("z2,x1,d,z1,y\n5,3,1,4,2\n3,1,0,2,0\n", SCHEMA, False, id="reordered"),
    pytest.param("d,name,y,x1,z1,z2\n1,ann,2,3,4,5\n0,bo,0,1,2,3\n", SCHEMA, False, id="string-column"),
    pytest.param("d,y,x1,z1,z2,y\n1,9,3,4,5,2\n0,9,1,2,3,0\n", SCHEMA, False, id="repeated-name"),
    pytest.param(_HEAD + "1,2,3,4,5\n\n2,0,1,2,3\n", SCHEMA, False, id="non-binary-after-blank"),
    pytest.param(_HEAD + '1,nan,3,4,5\n0,"0",1,2,3\n', SCHEMA, True, id="non-finite-walked"),
    pytest.param(_HEAD + "\n\n", SCHEMA, True, id="blank-body"),
    pytest.param("d,y,x1,z1,z2,g\n1,1,1,1,1, m\n1,2,2,2,2,f\n0,0,3,3,3, m\n1,4,4,4,4,f\n", _GROUP_SCHEMA,
                 False, id="two-groups"),
    pytest.param(_SHORT_GROUP_ROW, _GROUP_SCHEMA, True, id="short-group-row"),
]


def _load_outcome(path, schema):
    """The arrays load_csv returns (dtype, shape, bytes), or its DataError text."""
    try:
        result = load_csv(path, schema)
    except DataError as exc:
        return str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return [(a.dtype.str, a.shape, a.tobytes()) for part in parts for a in (part.d, part.y, part.X, part.Z)]


class TestParsePaths:
    """The C parse must agree with the row walk wherever it accepts a file."""

    @pytest.mark.parametrize("text, schema, walks", _PARSE_CASES)
    def test_c_parse_matches_row_walk(self, tmp_path, monkeypatch, text, schema, walks):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        walked = []
        walk = io_csv._walk_rows
        monkeypatch.setattr(io_csv, "_walk_rows", lambda *args: walked.append(1) or walk(*args))
        outcome = _load_outcome(p, schema)
        assert bool(walked) == walks

        def no_c_parse(*args):
            raise ValueError("C parse disabled")

        monkeypatch.setattr(io_csv, "_parse_columns", no_c_parse)
        assert _load_outcome(p, schema) == outcome

    @pytest.mark.parametrize("text, schema, message", [
        (_HEAD + "1,2,3,4,5\n   \n0,0,1,2,3\n", SCHEMA, "unparseable selection value at row 2"),
        (_HEAD + "1,2,3,4,5\n#5,0,1,2,3\n0,0,1,2,3\n", SCHEMA, "unparseable selection value at row 2"),
        (_HEAD + "1,2,3,4,5\n\n2,0,1,2,3\n", SCHEMA, "non-binary selection value at row 2"),
        (_HEAD + "\n\n", SCHEMA, "empty file"),
        (_SHORT_GROUP_ROW, _GROUP_SCHEMA, "missing group value at row 2"),
    ], ids=["whitespace-line", "hash-cell", "non-binary-after-blank", "blank-body", "short-group-row"])
    def test_row_numbered_messages(self, tmp_path, text, schema, message):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataError) as exc:
            load_csv(p, schema)
        assert str(exc.value) == message

    def test_saved_file_never_walks_rows(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("row walk used for a file save_dataset_csv wrote")

        monkeypatch.setattr(io_csv, "_walk_rows", refuse)
        data = simulate(DgpSpec("dgp1", 300, rho=0.5, seed=5)).dataset
        p = tmp_path / "sim.csv"
        save_dataset_csv(p, data)
        back = load_csv(p, default_schema(data.k, data.l))
        assert all(np.array_equal(getattr(back, a), getattr(data, a)) for a in "dyXZ")


# finite doubles, with the signed zero, the subnormal and normal extremes
_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


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

    @given(data=st.data(), n=st.integers(2, 12), k=st.integers(1, 3), l=st.integers(1, 3),
           block=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_writer_bytes_match_cellwise_writer(self, data, n, k, l, block):
        d = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
        cells = data.draw(hnp.arrays(float, (n, 1 + k + l), elements=_FINITE))
        ds = Dataset(d=d, y=cells[:, 0], X=cells[:, 1:1 + k], Z=cells[:, 1 + k:])
        schema = default_schema(k, l)
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = Path(tmp) / "fast.csv", Path(tmp) / "slow.csv"
            # a small block size puts block boundaries inside these few rows
            with mock.patch.object(io_csv, "_WRITE_ROWS", block):
                save_dataset_csv(fast, ds, schema)
            save_csv_cellwise(slow, ds, schema)
            assert fast.read_bytes() == slow.read_bytes()
            back = load_csv(fast, schema)
        for a in "dyXZ":
            assert getattr(back, a).tobytes() == getattr(ds, a).tobytes()


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

    def test_simulate_checks_out_before_drawing(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("sample drawn before --out was checked")

        monkeypatch.setattr(cli, "simulate", never)
        assert cli_main(["simulate", "--n", "300000"]) == 1
        assert "simulate requires --out" in capsys.readouterr().err

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

    def test_estimate_non_finite_standard_error_exits_2(self, tmp_path, capsys):
        # outcomes near 1e200 overflow the squared residuals of the OLS SEs;
        # the fit raises rather than print std_error inf
        data = simulate(DgpSpec("dgp1", 200, rho=0.5, seed=3)).dataset
        p = tmp_path / "huge.csv"
        save_dataset_csv(p, Dataset(d=data.d, y=data.y * 1e200, X=data.X, Z=data.Z),
                         default_schema(4, 7))
        out = tmp_path / "est.csv"
        assert cli_main(["estimate", str(p), *_SIM_COLUMNS, "--estimator", "ols",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numerical failure: non-finite std_errors\n"
        assert not out.exists()

    def test_estimate_on_a_directory_exits_1(self, tmp_path, capsys):
        assert cli_main(["estimate", str(tmp_path), *_SIM_COLUMNS, "--estimator", "ols"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["kernel-check"], ["simulate", "--n", "50"]])
    def test_out_in_a_missing_directory_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out.csv"
        assert cli_main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == "" and not out.parent.exists()

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

    def test_mc_table_json_is_strict_where_every_rep_failed(self, tmp_path):
        # the plug-in rule refuses every sample below n = 30
        out = tmp_path / "r.json"
        assert cli_main(["mc-table", "--dgp", "dgp2", "--n", "25", "--reps", "30", "--rho", "0.5",
                         "--alpha", "2,1", "--estimator", "snn", "--format", "json",
                         "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        (cells,) = json.loads(out.read_text(), parse_constant=reject)["panels"].values()
        assert [cell["reps_failed"] for cell in cells] == [30, 30]
        for cell in cells:
            assert cell["sq_bias"] is cell["sd"] is cell["rmse_scaled"] is None

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

    def test_rate_check_repeated_sizes_exit_1(self, capsys):
        argv = ["rate-check", "--ns", "200,200,200", "--estimator", "ols", "--reps", "3"]
        assert cli_main(argv) == 1
        assert "3 distinct sample sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["rate-check", "--ns", "100,100,200,400", "--reps", "3"], "repeated sample size: 100"),
        (["mc-table", "--dgp", "dgp1", "--n", "60", "--reps", "2", "--rho", "0,0", "--alpha", "2,2",
          "--estimator", "h90"], "repeated rho: 0"),
    ])
    def test_repeated_grid_value_exit_1(self, argv, message, capsys):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("argv", [
        ["mc-table", "--dgp", "dgp1", "--n", "60", "--reps", "2", "--rho", "0", "--alpha", "2",
         "--estimator", "ols"],
        ["rate-check", "--ns", "50,100,200", "--reps", "2", "--estimator", "ols"],
        ["decompose", "data.csv", *_SIM_COLUMNS, "--group-col", "g", "--estimator", "ols"],
    ], ids=["mc-table", "rate-check", "decompose"])
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exit_1(self, capsys, argv, workers):
        assert cli_main([*argv, "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers" in captured.err

    def test_ident_check_non_finite_q_exit_1(self, capsys):
        assert cli_main(["ident-check", "--q-min", "nan"]) == 1
        assert "error: q must be finite" in capsys.readouterr().err

    def test_ident_check_no_points_exit_1(self, capsys):
        assert cli_main(["ident-check", "--points", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--points" in captured.err

    def test_ident_check_descending_grid_exit_1(self, capsys):
        assert cli_main(["ident-check", "--q-min", "0.9", "--q-max", "0.1", "--points", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--q-min must not exceed --q-max" in captured.err

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

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_ident_check_non_finite_alpha(self, capsys, alpha):
        # a usage error naming alpha, not a numerical failure (exit 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["ident-check", "--alpha", alpha]) == 1
        assert "error: alpha must be finite" in capsys.readouterr().err

    def test_rate_check_non_finite_c(self, capsys):
        assert cli_main(["rate-check", "--ns", "50,100,200", "--reps", "2", "--c", "nan"]) == 1
        assert "error: c must be finite" in capsys.readouterr().err

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

    def test_decompose_json_same_bytes_at_any_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        p = grouped_sim_csv(tmp_path / "sim.csv", 400)
        argv = ["decompose", str(p), *_SIM_COLUMNS, "--group-col", "g", "--nuisance", "probit",
                "--bootstrap", "10", "--seed", "4", "--format", "json"]
        outs = [tmp_path / f"w{w}.json" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert cli_main(argv + ["--workers", str(w), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_decompose_csv_is_csv_of_the_json_values(self, tmp_path):
        p = grouped_sim_csv(tmp_path / "sim.csv", 400)
        argv = ["decompose", str(p), *_SIM_COLUMNS, "--group-col", "g", "--estimator", "ols",
                "--bootstrap", "5", "--seed", "2"]
        assert cli_main(argv + ["--format", "json", "--out", str(tmp_path / "d.json")]) == 0
        assert cli_main(argv + ["--format", "csv", "--out", str(tmp_path / "d.csv")]) == 0
        payload = json.loads((tmp_path / "d.json").read_text())
        *table, tail = (tmp_path / "d.csv").read_text().splitlines()
        header, *rows = list(csv.reader(table))
        assert header == ["quantity", "estimate", "bootstrap_se"]
        assert [r[0] for r in rows] == list(payload["bootstrap_se"])
        for name, estimate, se in rows:
            assert float(estimate) == payload[name]
            assert float(se) == payload["bootstrap_se"][name]
        assert tail == f"# bootstrap: B={payload['n_boot']}, failed={payload['boot_failed']}"

    @pytest.mark.parametrize("argv, flag", [
        (["mc-table", "--rho", "0,abc"], "--rho"),
        (["mc-table", "--alpha", "2;1"], "--alpha"),
        (["rate-check", "--ns", "100,2e2,400"], "--ns"),
    ])
    def test_bad_list_value_is_readable_usage_error(self, capsys, argv, flag):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and "comma-separated" in err
        assert "_list" not in err

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

        # every fit reaches the nuisance through its module
        monkeypatch.setattr(nuisance, "fit_nuisance", never)
        p = grouped_sim_csv(tmp_path / "small.csv", 80)
        argv = [str(p) if a == "{csv}" else a for a in command]
        assert cli_main(argv + ["--bandwidth", "auto"]) == 1

    def test_bandwidth_rules_name_their_panels(self, capsys):
        argv = ["mc-table", "--dgp", "dgp1", "--n", "100", "--reps", "2", "--rho", "0",
                "--alpha", "2", "--bandwidth", "fixed:0.3", "--bandwidth", "plugin:0.667",
                "--format", "json"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["panels"]) == ["snn (h=0.3)", "snn (plugin x0.667)"]

    @pytest.mark.parametrize("text, message", [
        ("fixed:3", "fixed bandwidth outside supported range"),
        ("plugin:-1", "must be positive"),
        ("wide", "use fixed:H or plugin[:SCALE]"),
        ("fixed:nan", "must be finite"),
        ("plugin:inf", "must be finite"),
    ])
    def test_bad_bandwidth_value_names_the_problem(self, capsys, text, message):
        assert cli_main(["mc-table", "--n", "50", "--reps", "2", "--bandwidth", text]) == 1
        err = capsys.readouterr().err
        assert "argument --bandwidth: " in err and message in err

    @pytest.mark.parametrize("boot", ["0", "1"])
    def test_bootstrap_below_two_is_usage_error(self, tmp_path, monkeypatch, capsys, boot):
        # rejected by the parser, before any CSV is read
        def never(*args, **kwargs):
            raise AssertionError("CSV read before --bootstrap was parsed")

        monkeypatch.setattr(cli, "load_csv", never)
        argv = ["decompose", str(tmp_path / "two.csv"), *_SIM_COLUMNS, "--group-col", "g",
                "--bootstrap", boot]
        assert cli_main(argv) == 1
        assert "--bootstrap" in capsys.readouterr().err

    def test_format_runs_cover_every_format_option(self):
        choices = format_choices()
        assert {name for name, fmts in choices.items() if fmts} == set(_FORMAT_RUNS)
        assert choices["mc-table"] == ("csv", "json", "markdown")
        assert all(choices[name] == ("csv", "json") for name in _FORMAT_RUNS if name != "mc-table")

    @pytest.mark.parametrize("command", sorted(_FORMAT_RUNS))
    def test_every_format_writes_its_own_bytes(self, tmp_path, command):
        p = grouped_sim_csv(tmp_path / "sim.csv", 400)
        args = [str(p) if a == "{csv}" else a for a in _FORMAT_RUNS[command]]
        written = {}
        for fmt in format_choices()[command]:
            out = tmp_path / f"out.{fmt}"
            assert cli_main([command, *args, "--format", fmt, "--out", str(out)]) == 0
            written[fmt] = out.read_bytes()
        assert len(set(written.values())) == len(written) >= 2

    @pytest.mark.parametrize("command, fmt", [
        (command, fmt) for command in sorted(_FORMAT_RUNS) for fmt in format_choices()[command]
    ])
    def test_stdout_and_out_file_hold_the_same_bytes(self, tmp_path, capsysbinary, command, fmt):
        p = grouped_sim_csv(tmp_path / "sim.csv", 400)
        argv = [command, *[str(p) if a == "{csv}" else a for a in _FORMAT_RUNS[command]],
                "--format", fmt]
        assert cli_main(argv) == 0
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "out.txt"
        assert cli_main([*argv, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == stdout
        assert stdout.endswith(b"\n") and not stdout.endswith(b"\n\n")

    def test_shared_panel_labels_exit_1_and_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        argv = ["mc-table", "--dgp", "dgp1", "--n", "60", "--reps", "3", "--estimator", "ols",
                "--estimator", "ols", "--estimator", "snn", "--estimator", "snn"]
        assert cli_main([*argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "share a panel label: 'ols', 'snn (plugin x1)'" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["estimate", "{csv}", *_SIM_COLUMNS, "--seed", "1"], "--seed",
                     id="estimate-seed"),
        pytest.param(["kernel-check", "--seed", "1"], "--seed", id="kernel-check-seed"),
        pytest.param(["ident-check", "--seed", "1"], "--seed", id="ident-check-seed"),
        pytest.param(["simulate", "--n", "50", "--format", "csv", "--out", "{out}"], "--format",
                     id="simulate-format-csv"),
        pytest.param(["simulate", "--n", "50", "--format", "json", "--out", "{out}"], "--format",
                     id="simulate-format-json"),
        pytest.param(["rate-check", *_FORMAT_RUNS["rate-check"], "--format", "markdown"],
                     "markdown", id="rate-check-markdown"),
        pytest.param(["estimate", "{csv}", *_SIM_COLUMNS, "--format", "markdown"], "markdown",
                     id="estimate-markdown"),
        pytest.param(["decompose", "{csv}", *_SIM_COLUMNS, "--group-col", "g",
                      "--format", "markdown"], "markdown", id="decompose-markdown"),
        pytest.param(["kernel-check", "--format", "markdown"], "markdown",
                     id="kernel-check-markdown"),
        pytest.param(["ident-check", "--format", "markdown"], "markdown",
                     id="ident-check-markdown"),
    ])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        # the file is never read: the parser rejects the flag first
        subs = {"{csv}": str(tmp_path / "absent.csv"), "{out}": str(tmp_path / "sim.csv")}
        assert cli_main([subs.get(a, a) for a in argv]) == 1
        assert flag in capsys.readouterr().err

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
