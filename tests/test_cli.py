import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

import qeswell
from qeswell.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--geometry", "hyp", "--family", "tf1", "--gamma", "2", "--eta", "2"]


def test_import_leaves_scipy_unloaded():
    # only the finite-difference kernels kept for the benchmark's tracer
    # import scipy; neither the import nor the paper's tables load it
    src = str(Path(qeswell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, qeswell.cli; sys.exit(int(any(m.split('.')[0] == 'scipy' for m in sys.modules)))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
    code = ("import sys; from qeswell import report; [report.reproduce_table(i) for i in (1, 2, 3)]; "
            "sys.exit(int('scipy.linalg' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestSpectrum:
    def test_all_methods_table(self, capsys):
        code, out, _ = run(capsys, "spectrum", *BASE, "--order", "1")
        assert code == 0
        assert "bethe" in out and "heun" in out and "lie" in out
        assert "-42.000000" in out

    def test_all_methods_table_uneven_counts(self, capsys, monkeypatch):
        from qeswell import cli

        lie = cli.liealg.qes_energies_via_recurrence
        monkeypatch.setattr(cli.liealg, "qes_energies_via_recurrence", lambda p: lie(p)[:-1])
        code, out, _ = run(capsys, "spectrum", *BASE, "--order", "2")
        assert code == 0
        assert "note: the routes return different level counts: bethe 3, heun 3, lie 2" in out
        last = out.splitlines()[3]
        assert last.split() == ["2", "-35.875485", "-35.875485"]

    def test_bethe_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", *BASE, "--order", "2",
                           "--method", "bethe", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["params"]["family"] == "TF1"
        assert_allclose(data["energies"], [-68.124, -54.0, -35.875], atol=1e-3)
        assert len(data["roots"]) == 3

    def test_lie_energies(self, capsys):
        code, out, _ = run(capsys, "spectrum", *BASE, "--order", "0", "--method", "lie")
        assert code == 0
        assert "-22.000000" in out

    def test_numeric_method(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--geometry", "hyp", "--family", "tf4",
                           "--gamma", "2", "--eta", "2", "--order", "0",
                           "--method", "numeric", "--levels", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert_allclose(data["energies"], [-3.826, 6.000], atol=5e-3)
        assert data["parities"] == ["even", "odd"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", *BASE, "--order", "1",
                           "--method", "bethe", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0][:2] == ["geometry", "family"]
        assert len(rows) == 3

    def test_csv_format_energies_only(self, capsys):
        code, out, _ = run(capsys, "spectrum", *BASE, "--order", "1",
                           "--method", "heun", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0] == ["level", "energy"]
        assert len(rows) == 3


class TestCheck:
    # order 5 at the paper's point puts a tunnelling doublet at the ground
    # state of the hyperbolic well; orders 10 and 20 need the numeric levels
    # accurate far up the spectrum; at eta = -0.5 the anti-isospectral
    # check is omitted, as hyperbolic TF1 has no partner there
    @pytest.mark.parametrize("geometry, family, eta, order", (
        ("hyp", "tf1", "2", "1"),
        ("trig", "tf1", "0.5", "0"),
        ("hyp", "tf1", "-0.5", "4"),
        *((geometry, family, "2", order)
          for order in ("5", "10", "20")
          for geometry, family in (("hyp", "tf1"), ("hyp", "tf2"), ("hyp", "tf3"),
                                   ("hyp", "tf4"), ("trig", "tf1"), ("trig", "tf2"))),
    ))
    def test_pass_exit_zero(self, capsys, geometry, family, eta, order):
        code, out, _ = run(capsys, "check", "--geometry", geometry, "--family", family,
                           "--gamma", "2", "--eta", eta, "--order", order)
        assert code == 0
        assert "overall: PASS" in out

    def test_fail_exit_one(self, capsys):
        # discretization bias keeps the numeric embedding above 1e-15
        code, out, _ = run(capsys, "check", *BASE, "--order", "1", "--tol-numeric", "1e-15")
        assert code == 1
        assert "overall: FAIL" in out

    def test_invalid_model_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "--geometry", "trig", "--family", "tf3",
                           "--gamma", "2", "--eta", "2", "--order", "0")
        assert code == 2
        assert "error" in err


class TestWavefunction:
    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "wf.csv"
        code, out, _ = run(capsys, "wavefunction", *BASE, "--order", "1",
                           "--indices", "0,1", "--out", str(out_file))
        assert code == 0
        assert out_file.exists()

    def test_trig_range_clipped(self, capsys, tmp_path):
        out_file = tmp_path / "wf.csv"
        code, _, _ = run(capsys, "wavefunction", "--geometry", "trig", "--family", "tf1",
                         "--gamma", "2", "--eta", "2", "--order", "0",
                         "--xmin", "-5", "--xmax", "5", "--out", str(out_file))
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert abs(float(rows[1][0])) < 1.5708


class TestTable:
    def test_wiring_and_formats(self, capsys, monkeypatch):
        from qeswell import cli, report
        from qeswell.core import Family, Geometry

        stub = report.TableReport(
            table_id=1,
            geometry=Geometry.HYPERBOLIC,
            gamma=2.0,
            eta=2.0,
            columns=[report.TableColumn(
                family=Family.TF1,
                order=0,
                entries=[report.TableEntry(-22.0, -22.0004, True, -22.0, 4e-4, "even")],
            )],
        )
        seen = {}

        def fake(table_id, gamma, eta, levels):
            seen.update(table_id=table_id, gamma=gamma, eta=eta, levels=levels)
            return stub

        monkeypatch.setattr(cli.report, "reproduce_table", fake)
        code, out, _ = run(capsys, "table", "--id", "1", "--levels", "4")
        assert code == 0
        assert seen == {"table_id": 1, "gamma": 2.0, "eta": 2.0, "levels": 4}
        assert "-22.000*" in out
        code, out, _ = run(capsys, "table", "--id", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["table_id"] == 1


@pytest.mark.parametrize("argv", (
    ["spectrum", *BASE, "--order", "0", "--method", "numeric", "--levels", "0"],
    ["table", "--id", "1", "--levels", "0"],
    ["table", "--id", "1", "--levels", "5"],
))
def test_unusable_level_count_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "error" in err


class TestHelp:
    def test_defaults_printed(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "--help"])
        out = capsys.readouterr().out
        assert "default" in out
