import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qeswell import (
    DegenerateParameterError,
    Family,
    Geometry,
    ModelParams,
    closed_form_levels,
    delta_determinant,
    match_che,
    qes_energies_via_determinant,
    series_coefficients,
    termination_identity_check,
)
from qeswell import heun
from reference_values import qes_set

HYP, TRIG = Geometry.HYPERBOLIC, Geometry.TRIGONOMETRIC


def params(geometry=HYP, family=Family.TF1, gamma=2.0, eta=2.0, order=1):
    return ModelParams(geometry, family, gamma, eta, order)


def sweep(rng, count=10):
    for _ in range(count):
        yield rng.uniform(0.3, 3.5), rng.uniform(0.3, 3.5), int(rng.integers(0, 5))


class TestMatching:
    def test_tf1_constants(self, rng):
        for g, e, n in sweep(rng):
            che = match_che(ModelParams(HYP, Family.TF1, g, e, n))
            assert_allclose(che.alpha, -2 * g)
            assert_allclose(che.beta, e - 0.5)
            assert_allclose(che.gamma_star, -0.5)
            assert_allclose(che.delta, g * (2 * n + e + 1), rtol=1e-12)
            assert_allclose(che.eta_star_of_e(5.0), (2 * 5.0 + 3) / 8, rtol=1e-12)
            assert_allclose(che.mu_of_e.slope, -0.25)

    def test_tf2_constants(self, rng):
        for g, e, n in sweep(rng):
            che = match_che(ModelParams(HYP, Family.TF2, g, e, n))
            assert_allclose(che.gamma_star, 0.5)
            assert_allclose(che.delta, g * (e + 2 + 2 * n), rtol=1e-12)

    def test_tf3_tf4_constants(self, rng):
        # delta follows the universal g * (M + eta) pattern (hand-derived
        # from the accessory-parameter relation with the family's V1)
        for g, e, n in sweep(rng):
            che3 = match_che(ModelParams(HYP, Family.TF3, g, e, n))
            assert_allclose(che3.beta, 0.5 - e)
            assert_allclose(che3.delta, g * (2 * n + 2 - e), rtol=1e-11)
            che4 = match_che(ModelParams(HYP, Family.TF4, g, e, n))
            assert_allclose(che4.gamma_star, 0.5)
            assert_allclose(che4.delta, g * (2 * n + 3 - e), rtol=1e-11)

    def test_trig_mirror(self, rng):
        for g, e, n in sweep(rng):
            che = match_che(ModelParams(TRIG, Family.TF1, g, e, n))
            assert_allclose(che.mu_of_e.slope, 0.25)
            assert_allclose(che.delta, g * (e + 1 + 2 * n), rtol=1e-12)
            assert_allclose(che.eta_star_of_e(5.0), (-2 * 5.0 + 3) / 8, rtol=1e-12)

    @pytest.mark.parametrize("geometry", [HYP, TRIG])
    @pytest.mark.parametrize("family", list(Family))
    def test_termination_identity(self, geometry, family, rng):
        if geometry is TRIG and family in (Family.TF3, Family.TF4):
            pytest.skip("no trigonometric states")
        for g, e, n in sweep(rng, 5):
            che = match_che(ModelParams(geometry, family, g, e, n))
            assert termination_identity_check(che)

    def test_termination_identity_broken_by_coupling_shift(self):
        che = match_che(params())
        # shifting V1 by +1 moves the nu intercept by -1/4
        bad = dataclasses.replace(
            che, nu_of_e=heun.AffineMap(che.nu_of_e.slope, che.nu_of_e.intercept - 0.25)
        )
        assert not termination_identity_check(bad)


class TestDeterminant:
    def test_q_values(self):
        che = match_che(params(order=2))
        assert heun.q_value(che, 1) == 0.0
        assert_allclose(heun.q_value(che, 2), 3.0)  # eta + 1
        assert_allclose(heun.q_value(che, 3), 8.0)  # 2 eta + 4

    def test_order_zero_is_identity_in_mu(self, rng):
        for family in Family:
            che = match_che(ModelParams(HYP, family, 1.7, 1.1, 0))
            for mu in rng.uniform(-20, 20, 5):
                assert_allclose(delta_determinant(che, mu), mu, rtol=1e-14)

    def test_order_one_quadratic(self, rng):
        for g, e, _ in sweep(rng, 6):
            che = match_che(ModelParams(HYP, Family.TF1, g, e, 1))
            for mu in rng.uniform(-10, 10, 4):
                expected = mu**2 - (e + 1 + 2 * g) * mu + 2 * g * (e + 0.5)
                assert_allclose(delta_determinant(che, mu), expected, rtol=1e-12)

    def test_order_two_constant_term(self, rng):
        for g, e, _ in sweep(rng, 6):
            che = match_che(ModelParams(HYP, Family.TF1, g, e, 2))
            expected = -4 * g * (2 * e + 1) * (2 * g + e + 2)
            assert_allclose(delta_determinant(che, 0.0), expected, rtol=1e-12)

    @pytest.mark.parametrize("family", list(Family))
    def test_against_dense_determinant(self, family, rng):
        for n in range(7):
            g, e = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            che = match_che(ModelParams(HYP, family, g, e, n))
            for mu in rng.uniform(-30, 30, 3):
                dense = np.linalg.det(mu * np.eye(n + 1) - heun.companion_matrix(che))
                rec = delta_determinant(che, mu)
                assert_allclose(rec, dense, rtol=1e-10, atol=1e-10 * max(1.0, abs(dense)))


class TestEnergies:
    def test_order_zero_closed_form(self):
        e = qes_energies_via_determinant(params(order=0))
        assert_allclose(e, [-22.0], atol=1e-12)

    def test_matches_closed_forms(self, rng):
        for family in (Family.TF1, Family.TF2):
            for geometry in (HYP, TRIG):
                for g, e, _ in sweep(rng, 4):
                    for n in (0, 1):
                        p = ModelParams(geometry, family, g, e, n)
                        assert_allclose(
                            qes_energies_via_determinant(p),
                            closed_form_levels(p),
                            atol=1e-11,
                            rtol=1e-12,
                        )

    def test_order_one_printed_formula_tf2(self, rng):
        for g, e, _ in sweep(rng, 6):
            p = ModelParams(HYP, Family.TF2, g, e, 1)
            mean = -(5 + 5 * e + 6 * g + 4 * g * e)
            half = 2 * math.sqrt((e + 2) ** 2 + 4 * g * (g - e + 1))
            assert_allclose(
                qes_energies_via_determinant(p), [mean - half, mean + half], atol=1e-10
            )

    @pytest.mark.parametrize(
        "family,order", [(f, n) for f in (Family.TF1, Family.TF2) for n in (0, 1, 2)]
    )
    def test_reference_sets_hyperbolic(self, family, order):
        got = qes_energies_via_determinant(params(family=family, order=order))
        assert_allclose(got, qes_set(1, family, order), atol=1e-3)

    def test_reference_set_trigonometric(self):
        got = qes_energies_via_determinant(params(TRIG, Family.TF1, order=2))
        assert_allclose(got, (35.875, 54.000, 68.124), atol=1e-3)

    def test_large_order_against_companion_eigenvalues(self):
        p = params(order=20)
        che = match_che(p)
        mu = np.sort(np.linalg.eigvals(heun.companion_matrix(che)).real)
        expected = np.sort([che.mu_of_e.invert(m) for m in mu])
        got = qes_energies_via_determinant(p)
        assert got.size == 21
        assert_allclose(got, expected, atol=1e-6 * np.max(np.abs(expected)))


class TestSeries:
    def test_v1_closed_form_tf1(self, rng):
        for g, e, n in sweep(rng, 6):
            p = ModelParams(HYP, Family.TF1, g, e, max(n, 1))
            for energy in qes_energies_via_determinant(p):
                v = series_coefficients(match_che(p), energy).values
                assert_allclose(v[1], g + (energy + e) / (2 * (2 * e + 1)), rtol=1e-9)

    def test_v1_is_negative_reciprocal_root(self):
        p = params(order=1)
        v = series_coefficients(match_che(p), -42.0).values
        assert_allclose(v[1], -2.0, atol=1e-12)  # root z = 0.5
        assert_allclose(v[1], -1.0 / 0.5, atol=1e-12)

    def test_v2_closed_form_tf1(self, rng):
        for g, e, _ in sweep(rng, 5):
            p = ModelParams(HYP, Family.TF1, g, e, 2)
            for energy in qes_energies_via_determinant(p):
                v = series_coefficients(match_che(p), energy).values
                v2 = 4 * g / (2 * e + 3) + (energy + 4 * g * e + 10 * g + 5 * e + 4) / (
                    4 * (2 * e + 3)
                ) * v[1]
                assert_allclose(v[2], v2, rtol=1e-8, atol=1e-10)

    def test_v1_closed_form_trig_tf2(self):
        p = ModelParams(TRIG, Family.TF2, 2.0, 2.0, 1)
        for energy in qes_energies_via_determinant(p):
            v = series_coefficients(match_che(p), energy).values
            expected = (-energy + 2 * 2 + 3 * 2 + 4 * 2 * 2 + 1) / (2 * (2 * 2 + 1))
            assert_allclose(v[1], expected, rtol=1e-10)

    def test_recurrence_terms_pinned(self):
        # hand-expanded slope/intercept at gamma = eta = 2:
        # B_1(E) = (E + 22)/4, B_2(E) = (E + 50)/16
        che = match_che(params(order=2))
        for energy in (-10.0, 3.0, 40.0):
            _, b1, _ = heun.recurrence_terms(che, 1, energy)
            _, b2, _ = heun.recurrence_terms(che, 2, energy)
            assert_allclose(b1, (energy + 22.0) / 4.0, rtol=1e-13)
            assert_allclose(b2, (energy + 50.0) / 16.0, rtol=1e-13)

    def test_recurrence_residual(self, rng):
        p = params(order=4)
        che = match_che(p)
        for energy in qes_energies_via_determinant(p):
            v = series_coefficients(che, energy).values
            for k in range(1, 5):
                a_k, b_k, c_k = heun.recurrence_terms(che, k, energy)
                v_km2 = v[k - 2] if k >= 2 else 0.0
                resid = a_k * v[k] - b_k * v[k - 1] - c_k * v_km2
                assert abs(resid) < 1e-10 * max(1.0, np.max(np.abs(v)))

    def test_tail_vanishes_at_solvable_energies(self):
        for family in Family:
            for n in (0, 1, 2, 3):
                p = ModelParams(HYP, family, 2.0, 2.0, n)
                che = match_che(p)
                for energy in qes_energies_via_determinant(p):
                    coeffs = series_coefficients(che, energy)
                    scale = np.max(np.abs(coeffs.values))
                    assert coeffs.tail is not None
                    assert abs(coeffs.tail) < 1e-8 * scale

    def test_tail_nonzero_off_spectrum(self):
        p = params(order=1)
        coeffs = series_coefficients(match_che(p), -40.0)  # between the levels
        assert abs(coeffs.tail) > 1e-3

    def test_degenerate_beta_raises(self):
        # TF3 with eta = 1.5 gives beta = -1, so A_1 = 0
        p = ModelParams(HYP, Family.TF3, 2.0, 1.5, 1)
        che = match_che(p)
        with pytest.raises(DegenerateParameterError):
            series_coefficients(che, qes_energies_via_determinant(p)[0])
