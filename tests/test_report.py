import csv
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qeswell import (
    Family,
    Geometry,
    ModelParams,
    Tolerances,
    cross_validate,
    emit_wavefunctions,
    solve_polynomial_system,
)
from qeswell import report
from reference_values import BOLD, COLUMNS, qes_set

HYP, TRIG = Geometry.HYPERBOLIC, Geometry.TRIGONOMETRIC


def params(geometry=HYP, family=Family.TF1, gamma=2.0, eta=2.0, order=0):
    return ModelParams(geometry, family, gamma, eta, order)


class TestCrossValidate:
    def test_hyperbolic_pass(self):
        result = cross_validate(params(order=2))
        assert result.passed
        by_name = {c.name: c for c in result.checks}
        assert by_name["methods_agree"].deviation < 1e-9
        assert by_name["numeric_embedding"].passed
        assert by_name["parity_match"].passed
        assert result.matched_parities == ["even", "even", "even"]

    # the numeric cross-check holds up to MAX_ORDER; methods_agree does not
    # yet at these orders, so only the numeric checks are asserted
    @pytest.mark.parametrize("order", (35, 50))
    @pytest.mark.parametrize("geometry, family", (
        *((HYP, f) for f in Family), (TRIG, Family.TF1), (TRIG, Family.TF2),
    ), ids=lambda v: v.value)
    def test_numeric_embedding_high_order(self, geometry, family, order):
        result = cross_validate(params(geometry, family, order=order))
        by_name = {c.name: c for c in result.checks}
        assert by_name["numeric_embedding"].passed, by_name["numeric_embedding"].deviation
        assert by_name["parity_match"].passed
        assert len(result.matched_indices) == order + 1

    def test_anti_isospectral_check(self):
        result = cross_validate(params(family=Family.TF2, order=1))
        by_name = {c.name: c for c in result.checks}
        assert by_name["anti_isospectral"].passed
        assert by_name["anti_isospectral"].deviation < 1e-9

    def test_tf3_embedding_even_parity(self):
        result = cross_validate(params(family=Family.TF3, order=0))
        assert result.passed
        assert result.matched_indices == [0]
        assert result.matched_parities == ["even"]

    def test_tf4_embedding_odd_parity(self):
        result = cross_validate(params(family=Family.TF4, order=0))
        assert result.passed
        assert result.matched_indices == [1]
        assert result.matched_parities == ["odd"]

    def test_impossible_tolerance_fails(self):
        result = cross_validate(params(order=1), tolerances=Tolerances(numeric=1e-15))
        assert not result.passed

    def test_no_anti_check_for_tf3(self):
        result = cross_validate(params(family=Family.TF3, order=0))
        assert "anti_isospectral" not in {c.name for c in result.checks}

    def test_solver_error_recorded_not_raised(self, monkeypatch):
        from qeswell import report as report_mod

        def boom(_):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(report_mod.liealg, "qes_energies_via_recurrence", boom)
        result = cross_validate(params(order=1))
        assert not result.passed
        names = {c.name for c in result.checks}
        assert "lie_solver" in names

    def test_duplicate_level_match_fails(self, monkeypatch):
        from qeswell import report as report_mod

        ground = report_mod.heun.qes_energies_via_determinant(params(order=1))[0]
        monkeypatch.setattr(
            report_mod.heun, "qes_energies_via_determinant", lambda _: np.array([ground, ground])
        )
        result = cross_validate(params(order=1))
        by_name = {c.name: c for c in result.checks}
        assert result.matched_indices[0] == result.matched_indices[1]
        assert by_name["numeric_embedding"].deviation < 1e-3
        assert not by_name["numeric_embedding"].passed


class TestTables:
    def test_columns_match_reference(self, table_battery):
        tables, _ = table_battery
        for (table_id, family, order), expected in COLUMNS.items():
            col = next(
                c for c in tables[table_id].columns
                if c.family is family and c.order == order
            )
            tol = 5e-3 if tables[table_id].geometry is HYP else 1e-2
            got = [e.numeric for e in col.entries]
            assert_allclose(got, expected, atol=tol)

    def test_starred_positions_and_values(self, table_battery):
        tables, _ = table_battery
        for (table_id, family, order), bold in BOLD.items():
            col = next(
                c for c in tables[table_id].columns
                if c.family is family and c.order == order
            )
            starred = tuple(i for i, e in enumerate(col.entries) if e.qes_exact)
            assert starred == bold
            for i in bold:
                assert col.entries[i].deviation is not None
            assert_allclose(
                [col.entries[i].value for i in bold],
                qes_set(table_id, family, order),
                atol=1e-3,
            )

    def test_starred_parities_match_family(self, table_battery):
        tables, _ = table_battery
        for table in tables.values():
            for col in table.columns:
                want = "odd" if col.family in (Family.TF2, Family.TF4) else "even"
                for e in col.entries:
                    if e.qes_exact and e.parity is not None:
                        assert e.parity == want

    # a tunnelling doublet puts the level of the other parity nearer to the
    # exact energy than the level of the family's own parity
    @pytest.mark.parametrize("table_id, gamma, eta, family, starred", (
        (1, 0.5, 3.0, Family.TF1, (0, 2, 4)),
        (3, 4.0, 0.5, Family.TF2, (1, 3, 5)),
    ))
    def test_doublet_starred_within_sector(self, table_id, gamma, eta, family, starred):
        table = report.reproduce_table(table_id, gamma=gamma, eta=eta)
        col = next(c for c in table.columns if c.family is family and c.order == 2)
        assert tuple(i for i, e in enumerate(col.entries) if e.qes_exact) == starred
        want = "odd" if family is Family.TF2 else "even"
        assert all(col.entries[i].parity == want for i in starred)
        assert all(col.entries[i].deviation < 1e-4 for i in starred)

    def test_spectra_not_globally_anti_isospectral(self, table_battery):
        # only the solvable subsets map to sign-flipped partners; the full
        # numeric spectra do not (guards against over-claiming)
        tables, _ = table_battery
        hyp = next(c for c in tables[1].columns if c.family is Family.TF1 and c.order == 0)
        trig = next(c for c in tables[3].columns if c.family is Family.TF1 and c.order == 0)
        assert abs(trig.entries[1].numeric - (-hyp.entries[1].numeric)) > 1.0

    def test_text_rendering(self, table_battery):
        tables, _ = table_battery
        text = report.render_table_text(tables[1])
        assert "-22.000*" in text
        assert "TF1 N=0" in text

    # fewer levels of the family's parity than its N+1 solvable levels: the
    # nearest-level match would put two energies on one level
    @pytest.mark.parametrize("levels, family", ((1, "TF1 N=1"), (5, "TF2 N=2")))
    def test_too_few_levels_rejected(self, levels, family):
        with pytest.raises(ValueError, match=family):
            report.reproduce_table(1, levels=levels)

    def test_six_levels_star_every_solvable_level(self):
        for table_id in (1, 2, 3):
            for col in report.reproduce_table(table_id, levels=6).columns:
                assert sum(e.qes_exact for e in col.entries) == col.order + 1

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            report.reproduce_table(4)


class TestSerialization:
    def test_spectrum_json_round_trip(self):
        spec = solve_polynomial_system(params(order=2))
        data = json.loads(json.dumps(report.spectrum_to_dict(spec)))
        back = report.spectrum_from_dict(data)
        assert back.params == spec.params
        assert_allclose(back.energies, spec.energies, rtol=0, atol=0)
        for a, b in zip(back.levels, spec.levels):
            assert_allclose(a.bethe_roots, b.bethe_roots, rtol=0, atol=0)
            assert_allclose(a.monic_coeffs, b.monic_coeffs, rtol=0, atol=0)

    def test_report_json_round_trip(self):
        result = cross_validate(params(order=1))
        data = json.loads(json.dumps(report.report_to_dict(result)))
        back = report.report_from_dict(data)
        assert back.params == result.params
        assert back.passed == result.passed
        assert back.energies == result.energies
        assert back.matched_indices == result.matched_indices

    def test_csv_rows(self):
        spec = solve_polynomial_system(params(order=2))
        rows = report.spectrum_to_csv_rows(spec)
        assert rows[0][:2] == ["geometry", "family"]
        assert len(rows) == 4  # header + three levels

    def test_table_dict_schema(self, table_battery):
        tables, _ = table_battery
        data = report.table_to_dict(tables[2])
        assert data["table_id"] == 2
        entry = data["columns"][0]["entries"][0]
        assert set(entry) == {"value", "numeric", "qes_exact", "qes_value", "deviation", "parity"}


class TestEmission:
    def test_even_family_file(self, tmp_path):
        path = tmp_path / "wf.csv"
        emit_wavefunctions(params(order=0), [0], -2.5, 2.5, 501, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "potential", "psi_0"]
        psi = np.array([float(r[2]) for r in rows[1:]])
        assert_allclose(np.max(np.abs(psi)), 1.0, rtol=1e-9)
        signs = np.sign(psi[np.abs(psi) > 1e-9])
        assert np.all(signs == signs[0])  # nodeless ground state

    def test_odd_family_vanishes_at_origin(self, tmp_path):
        path = tmp_path / "wf.csv"
        emit_wavefunctions(params(family=Family.TF2, order=1), [0, 1], -2.5, 2.5, 501, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        mid = rows[1 + 250]
        assert float(mid[0]) == 0.0
        assert float(mid[2]) == 0.0 and float(mid[3]) == 0.0

    def test_trig_three_states(self, tmp_path):
        path = tmp_path / "wf.csv"
        edge = math.pi / 2 - 0.01
        emit_wavefunctions(params(TRIG, order=2), [0, 1, 2], -edge, edge, 401, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "potential", "psi_0", "psi_1", "psi_2"]
        assert len(rows) == 402

    def test_bad_index(self, tmp_path):
        with pytest.raises(IndexError):
            emit_wavefunctions(params(order=0), [5], -2, 2, 100, tmp_path / "x.csv")

    def test_io_error_has_path_context(self, tmp_path):
        target = tmp_path / "missing_dir" / "wf.csv"
        with pytest.raises(OSError, match="missing_dir"):
            emit_wavefunctions(params(order=0), [0], -2, 2, 100, target)
