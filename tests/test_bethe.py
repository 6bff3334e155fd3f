import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qeswell import (
    DomainError,
    Family,
    Geometry,
    ModelParams,
    Normalization,
    assemble_wavefunction,
    closed_form_levels,
    match_che,
    qes_energies_via_determinant,
    qes_energies_via_recurrence,
    series_coefficients,
    solve_polynomial_system,
)
from qeswell import bethe
from qeswell.core import trapezoid
from reference_values import ROOT_PAIRS, qes_set

HYP, TRIG = Geometry.HYPERBOLIC, Geometry.TRIGONOMETRIC
PAIRS = [(HYP, f) for f in Family] + [(TRIG, Family.TF1), (TRIG, Family.TF2)]


def params(geometry=HYP, family=Family.TF1, gamma=2.0, eta=2.0, order=1):
    return ModelParams(geometry, family, gamma, eta, order)


class TestLocalForm:
    def test_tf1_brackets(self):
        che = match_che(params(order=0))
        g, e = 2.0, 2.0
        assert_allclose(che.alpha, -2 * g)
        assert_allclose(1.0 + che.beta, e + 0.5)
        assert_allclose(1.0 + che.gamma_star, 0.5)
        assert_allclose(che.mu_of_e.slope, -0.25)
        assert_allclose(che.mu_of_e(0.0), -(e + 2 * g * (2 * e + 1)) / 4)

    def test_tf2_tf3_drifts(self):
        c2 = match_che(params(family=Family.TF2))
        assert_allclose(1.0 + c2.gamma_star, 1.5)
        assert_allclose(c2.mu_of_e(0.0), -(3 * 2.0 + 2 * 2.0 * 5 + 1) / 4)
        c3 = match_che(params(family=Family.TF3))
        assert_allclose(1.0 + c3.beta, 1.5 - 2.0)

    def test_trig_source_sign(self):
        che = match_che(params(TRIG, order=0))
        g, e = 2.0, 2.0
        assert_allclose(che.mu_of_e.slope, 0.25)
        assert_allclose(che.mu_of_e(0.0), (-e - 2 * g * (2 * e + 1)) / 4)


class TestClosedForms:
    def test_printed_values(self):
        assert_allclose(closed_form_levels(params(order=0)), [-22.0])
        assert_allclose(closed_form_levels(params(order=1)), [-42.0, -30.0])
        assert_allclose(closed_form_levels(params(family=Family.TF2, order=0)), [-27.0])
        assert_allclose(closed_form_levels(params(TRIG, order=0)), [22.0])
        assert_allclose(closed_form_levels(params(TRIG, order=1)), [30.0, 42.0])
        assert_allclose(closed_form_levels(params(TRIG, Family.TF2, order=0)), [27.0])

    def test_absent_cases(self):
        assert closed_form_levels(params(order=2)) is None
        assert closed_form_levels(params(family=Family.TF3, order=0)) is None


class TestSpectrum:
    def test_level_structure(self):
        spec = solve_polynomial_system(params(order=2))
        assert len(spec.levels) == 3
        energies = spec.energies
        assert np.all(np.diff(energies) > 0)
        for lvl in spec.levels:
            assert lvl.monic_coeffs[-1] == 1.0
            assert lvl.bethe_roots.size == 2

    def test_roots_order_one(self):
        spec = solve_polynomial_system(params(order=1))
        assert_allclose(spec.levels[0].bethe_roots, [0.5], atol=1e-9)
        assert_allclose(spec.levels[1].bethe_roots, [1.25], atol=1e-9)

    @pytest.mark.parametrize(
        "geometry,family,order",
        [(HYP, Family.TF1, 1), (HYP, Family.TF1, 2), (HYP, Family.TF2, 1),
         (TRIG, Family.TF1, 2), (TRIG, Family.TF2, 2)],
    )
    def test_printed_root_pairs(self, geometry, family, order):
        key = ("hyp" if geometry is HYP else "trig", family, order)
        spec = solve_polynomial_system(ModelParams(geometry, family, 2.0, 2.0, order))
        for lvl, expected in zip(spec.levels, ROOT_PAIRS[key]):
            assert_allclose(lvl.bethe_roots, expected, atol=1e-3)

    def test_printed_energies_tf2(self):
        spec = solve_polynomial_system(params(family=Family.TF2, order=2))
        assert_allclose(spec.energies, qes_set(1, Family.TF2, 2), atol=1e-3)
        trig = solve_polynomial_system(params(TRIG, Family.TF2, order=2))
        assert_allclose(trig.energies, (38.449, 61.916, 84.635), atol=1e-3)

    def test_closed_form_consistency(self, rng):
        for family in (Family.TF1, Family.TF2):
            for geometry in (HYP, TRIG):
                for _ in range(4):
                    g, e = rng.uniform(0.3, 3.5), rng.uniform(0.3, 3.5)
                    for n in (0, 1):
                        p = ModelParams(geometry, family, g, e, n)
                        assert_allclose(
                            solve_polynomial_system(p).energies,
                            closed_form_levels(p),
                            atol=1e-12 * max(1.0, 2 * abs(closed_form_levels(p)[0])),
                        )

    def test_energy_set_equality(self):
        for family in Family:
            for n in (0, 1, 2, 3):
                p = ModelParams(HYP, family, 2.0, 2.0, n)
                a = solve_polynomial_system(p).energies
                assert_allclose(a, qes_energies_via_determinant(p), atol=1e-9)
                assert_allclose(a, qes_energies_via_recurrence(p), atol=1e-9)

    def test_local_form_residuals(self, rng):
        zs = rng.uniform(0.05, 3.0, 50)
        for family in Family:
            for n in (1, 2, 3):
                p = ModelParams(HYP, family, 2.0, 2.0, n)
                che = match_che(p)
                for lvl in solve_polynomial_system(p).levels:
                    resid = bethe.local_form_residual(che, lvl.monic_coeffs, lvl.energy, zs)
                    assert resid < 1e-8

    @pytest.mark.parametrize("geometry,family", PAIRS, ids=lambda v: v.value)
    def test_local_form_residuals_order_fifteen(self, geometry, family):
        p = ModelParams(geometry, family, 2.0, 2.0, 15)
        che = match_che(p)
        zs = np.linspace(0.05, 3.0, 60)
        for lvl in solve_polynomial_system(p).levels:
            assert bethe.local_form_residual(che, lvl.monic_coeffs, lvl.energy, zs) < 1e-7

    @pytest.mark.parametrize("geometry,family", PAIRS, ids=lambda v: v.value)
    def test_order_zero_residual_at_rounding(self, geometry, family):
        # f = 1 leaves only the source term, which cancels to rounding
        p = ModelParams(geometry, family, 1.1365, 2.5961, 0)
        (lvl,) = solve_polynomial_system(p).levels
        zs = np.linspace(0.05, 3.0, 60)
        assert bethe.local_form_residual(match_che(p), lvl.monic_coeffs, lvl.energy, zs) < 1e-12

    @pytest.mark.parametrize("order", [20, 35])
    def test_every_level_monic_without_diagnostics(self, order):
        spec = solve_polynomial_system(params(order=order))
        assert len(spec.levels) == order + 1
        assert all(lvl.monic_coeffs[-1] == 1.0 for lvl in spec.levels)
        assert spec.diagnostics == []

    def test_no_two_levels_share_a_polynomial(self):
        # eig returns a complex conjugate pair where two real levels sit
        p = ModelParams(HYP, Family.TF1, 3.997683191142988, 2.8881659828151456, 50)
        spec = solve_polynomial_system(p)
        assert len(spec.levels) == 51
        assert len({lvl.monic_coeffs.tobytes() for lvl in spec.levels}) == 51

    def test_root_coefficient_duality(self):
        for order in (1, 2, 3, 4):
            spec = solve_polynomial_system(params(order=order))
            for lvl in spec.levels:
                rebuilt = np.poly(np.concatenate([lvl.bethe_roots, lvl.complex_roots]))[::-1].real
                assert_allclose(rebuilt, lvl.monic_coeffs, atol=1e-9)

    def test_polynomial_vanishes_at_roots(self):
        spec = solve_polynomial_system(params(order=3))
        for lvl in spec.levels:
            vals = np.polyval(lvl.monic_coeffs[::-1], lvl.bethe_roots)
            assert np.max(np.abs(vals)) < 1e-9 * max(1.0, np.max(np.abs(lvl.monic_coeffs)))

    def test_series_coefficients_match_kernel_polynomials(self):
        for family in (Family.TF1, Family.TF2):
            for n in (1, 2, 3):
                p = ModelParams(HYP, family, 2.0, 2.0, n)
                che = match_che(p)
                for lvl in solve_polynomial_system(p).levels:
                    v = series_coefficients(che, lvl.energy).values
                    assert_allclose(v / v[-1], lvl.monic_coeffs, atol=1e-8)

    def test_degenerate_recurrence_still_solved(self):
        # beta = -1 breaks the forward series recurrence but not the kernel
        p = ModelParams(HYP, Family.TF3, 2.0, 1.5, 2)
        spec = solve_polynomial_system(p)
        assert len(spec.levels) == 3
        assert_allclose(spec.energies, qes_energies_via_recurrence(p), atol=1e-9)

    @pytest.mark.parametrize("real", [[-42.0], []], ids=["one-real", "no-real"])
    def test_complex_energy_reporting(self, monkeypatch, real):
        def refuse(_):
            raise AssertionError("stacked eigen-solve called")

        p = params(order=1)
        monkeypatch.setattr(bethe.heun, "energy_roots", lambda _: (np.array(real), [(-30 + 1j)]))
        # order 1 has one root per level, which needs no eigen-solve
        monkeypatch.setattr(bethe.rootfind.np.linalg, "eigvals", refuse)
        spec = solve_polynomial_system(p)
        assert len(spec.levels) == len(real)
        assert spec.complex_energies == [(-30 + 1j)]
        assert any("non-real" in d for d in spec.diagnostics)


class TestWavefunctions:
    def test_ground_state_nodeless(self):
        p = params(order=0)
        spec = solve_polynomial_system(p)
        xs = np.linspace(-2.5, 2.5, 2001)
        wf = assemble_wavefunction(p, spec.levels[0], xs)
        assert np.all(wf.psi > 0) or np.all(wf.psi < 0)
        assert_allclose(np.max(np.abs(wf.psi)), 1.0)

    def test_odd_family_vanishes_at_origin(self):
        p = params(family=Family.TF2, order=1)
        spec = solve_polynomial_system(p)
        xs = np.linspace(-2.0, 2.0, 2001)  # includes x = 0
        for lvl in spec.levels:
            wf = assemble_wavefunction(p, lvl, xs)
            assert wf.psi[1000] == 0.0

    def test_node_counts_order_one(self):
        # lower level's root sits below z = 1, outside the reachable range,
        # so the state is nodeless; the upper level crosses twice
        p = params(order=1)
        spec = solve_polynomial_system(p)
        xs = np.linspace(-2.5, 2.5, 2000)

        def sign_changes(values):
            signs = np.sign(values[np.abs(values) > 1e-9])
            return int(np.sum(signs[1:] != signs[:-1]))

        low = assemble_wavefunction(p, spec.levels[0], xs)
        high = assemble_wavefunction(p, spec.levels[1], xs)
        assert sign_changes(low.psi) == 0
        assert sign_changes(high.psi) == 2

    def test_l2_normalization(self):
        p = params(order=0)
        spec = solve_polynomial_system(p)
        xs = np.linspace(-3.0, 3.0, 4001)
        wf = assemble_wavefunction(p, spec.levels[0], xs, Normalization.L2_ONE)
        assert_allclose(trapezoid(wf.psi**2, xs), 1.0, rtol=1e-10)

    def test_trig_domain_enforced(self):
        p = params(TRIG, order=0)
        spec = solve_polynomial_system(p)
        with pytest.raises(DomainError):
            assemble_wavefunction(p, spec.levels[0], np.linspace(-2.0, 2.0, 50))
