import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qeswell import (
    Family,
    Geometry,
    GridConfig,
    ModelParams,
    Parity,
    eigen_lowest,
    fd_hamiltonian,
    numeric_spectrum,
    qes_energies_via_determinant,
)
from qeswell import numeric

HYP, TRIG = Geometry.HYPERBOLIC, Geometry.TRIGONOMETRIC


def params(geometry=HYP, family=Family.TF1, gamma=2.0, eta=2.0, order=0):
    return ModelParams(geometry, family, gamma, eta, order)


class TestOperators:
    def test_two_by_two(self):
        op = numeric.SymTridiagonal([2.0, 2.0], [-1.0])
        assert_allclose(eigen_lowest(op, 2), [1.0, 3.0], atol=1e-10)

    def test_diagonal_matrix(self):
        op = numeric.SymTridiagonal(np.arange(1.0, 9.0), np.zeros(7))
        assert_allclose(eigen_lowest(op, 8), np.arange(1.0, 9.0), atol=1e-10)

    def test_eigen_lowest_matches_dense(self, rng):
        diag = rng.uniform(-1, 3, 120)
        off = rng.uniform(-1, 1, 119)
        op = numeric.SymTridiagonal(diag, off)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = np.sort(np.linalg.eigvalsh(dense))[:6]
        assert_allclose(eigen_lowest(op, 6), expected, atol=1e-9)

    def test_batch_matches_individual(self, rng):
        ops = [
            numeric.SymTridiagonal(rng.uniform(0, 4, 150), rng.uniform(-1, 1, 149))
            for _ in range(3)
        ]
        batch = numeric.eigen_lowest_batch(ops, 4)
        for row, op in zip(batch, ops):
            assert_allclose(row, eigen_lowest(op, 4), atol=1e-10)

    def test_eigenvector_residual(self, rng):
        diag = rng.uniform(0, 4, 200)
        off = rng.uniform(-1, 1, 199)
        op = numeric.SymTridiagonal(diag, off)
        lam = eigen_lowest(op, 1)[0]
        vec = numeric.eigenvector(op, lam)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(dense @ vec - lam * vec)) < 1e-6 * max(1.0, abs(lam))

    def test_mirror_parity(self):
        xs = np.linspace(-1, 1, 101)
        assert numeric.mirror_parity(np.exp(-(xs**2))) is Parity.EVEN
        assert numeric.mirror_parity(xs * np.exp(-(xs**2))) is Parity.ODD
        assert numeric.mirror_parity(np.exp(-((xs - 0.8) ** 2) * 20)) is None

    @pytest.mark.parametrize("n", (9, 10))
    def test_sector_blocks_hold_the_full_spectrum(self, rng, n):
        half = rng.uniform(-1, 3, (n + 1) // 2)
        diag = np.concatenate([half, half[: n // 2][::-1]])
        half_off = -rng.uniform(0.1, 1, n // 2)
        off = np.concatenate([half_off, half_off[: (n - 1) // 2][::-1]])
        even, odd = numeric.sector_operators(numeric.SymTridiagonal(diag, off))
        assert even.size == (n + 1) // 2 and odd.size == n // 2
        sectors = np.concatenate([eigen_lowest(even, even.size), eigen_lowest(odd, odd.size)])
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert_allclose(np.sort(sectors), np.linalg.eigvalsh(dense), atol=1e-12)

    def test_request_too_many(self):
        op = numeric.SymTridiagonal([1.0, 2.0], [0.1])
        with pytest.raises(ValueError):
            eigen_lowest(op, 3)


class TestBoxAndOscillator:
    def test_infinite_well_ground_state(self):
        # V = 0 on [0, pi]: ground state energy 1
        n = 2000
        h = math.pi / n
        op = numeric.fd_operator(np.zeros(n - 1), h)
        assert_allclose(eigen_lowest(op, 1)[0], 1.0, atol=1e-4)

    def test_harmonic_levels(self, harmonic_levels):
        levels, _ = harmonic_levels
        assert_allclose(levels, [1.0, 3.0, 5.0], atol=1e-4)


class TestModelSpectra:
    def test_ground_state_reference(self):
        grid = GridConfig(half_width=3.0, points=6000)
        op = fd_hamiltonian(params(), grid)
        assert_allclose(eigen_lowest(op, 1)[0], -22.0, atol=5e-3)

    def test_column_with_parities(self):
        spec = numeric_spectrum(params(), m=8)
        expected = (-22.000, -15.489, -5.186, 7.489, 22.215, 38.772, 57.008, 76.809)
        assert_allclose(spec.energies, expected, atol=5e-3)
        want = [Parity.EVEN, Parity.ODD] * 4
        assert spec.parities == want

    # 6000 points leave an odd count of unknowns (a centre node), 6001 an even one
    @pytest.mark.parametrize("m", (1, 2, 7, 8))
    @pytest.mark.parametrize("points", (6000, 6001))
    @pytest.mark.parametrize("geometry", (HYP, TRIG))
    def test_sector_split_matches_full_solve(self, geometry, points, m):
        p = params(geometry)
        grid = replace(numeric.default_grid(p), points=points)
        spec = numeric_spectrum(p, m=m, grid=grid)
        assert_allclose(spec.energies, eigen_lowest(fd_hamiltonian(p, grid), m), rtol=1e-8)
        assert spec.parities == ([Parity.EVEN, Parity.ODD] * m)[:m]

    def test_degenerate_doublets_accepted(self):
        # the deep N = 10 well has tunnelling doublets that tie in float64
        spec = numeric_spectrum(params(order=10), m=24)
        assert spec.energies.size == 24
        assert spec.parities[:2] == [Parity.EVEN, Parity.ODD]

    def test_trig_column_small_grid(self):
        grid = GridConfig(half_width=math.pi / 2, points=3000)
        spec = numeric_spectrum(params(TRIG), m=4, grid=grid)
        assert_allclose(spec.energies, (22.000, 23.394, 30.368, 38.656), atol=1e-2)

    # eta < 1: the tan^2 term is attractive at the walls; large eta: the
    # factored power must stay capped, or the matrix norm swamps bisection
    @pytest.mark.parametrize("order", (0, 2))
    @pytest.mark.parametrize("eta", (0.25, 0.5, 0.75, 20.0, 60.0))
    @pytest.mark.parametrize("gamma", (0.5, 4.0))
    @pytest.mark.parametrize("family", (Family.TF1, Family.TF2))
    def test_trig_solvable_levels_embedded(self, family, gamma, eta, order):
        p = params(TRIG, family, gamma, eta, order)
        spec = numeric_spectrum(p, m=2 * order + 4)
        for e_qes in qes_energies_via_determinant(p):
            assert np.min(np.abs(spec.energies - e_qes)) < 1e-3

    def test_automatic_widening(self):
        # half_width 1.0 leaves the wall below the spectrum; must widen
        grid = GridConfig(half_width=1.0, points=2000)
        spec = numeric_spectrum(params(), m=4, grid=grid)
        assert_allclose(spec.energies, (-22.000, -15.489, -5.186, 7.489), atol=5e-2)

    def test_grid_convergence_order_two(self):
        # halving h must shrink the ground-state error by at least 3.5x
        errors = []
        for n in (1000, 2000):
            grid = GridConfig(half_width=3.0, points=n)
            op = fd_hamiltonian(params(), grid)
            errors.append(abs(eigen_lowest(op, 1)[0] - (-22.0)))
        assert errors[0] / errors[1] >= 3.5

    @pytest.mark.parametrize("m", (0, -1))
    def test_no_levels_requested(self, m):
        with pytest.raises(ValueError, match="at least one level"):
            numeric_spectrum(params(), m=m)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridConfig(half_width=3.0, points=50)
        with pytest.raises(ValueError):
            GridConfig(half_width=-1.0, points=500)
