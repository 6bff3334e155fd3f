import math

import mpmath
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
    potential_coefficients,
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

    @pytest.mark.parametrize("n", (1, 9, 40))
    def test_sinc_sectors_hold_the_full_spectrum(self, rng, n):
        # the full-line DVR on nodes -n..n with a mirror-symmetric potential
        h = 0.3
        half = rng.uniform(-1, 3, n + 1)
        v = np.concatenate([half[:0:-1], half])
        k = np.arange(-n, n + 1)
        diff = np.abs(k[:, None] - k)
        with np.errstate(divide="ignore"):
            full = np.where(diff == 0, math.pi**2 / 3, 2.0 * (-1.0) ** diff / diff.astype(float) ** 2)
        full = full / h**2 + np.diag(v)
        even, odd = numeric.sinc_sectors(half, h)
        assert even.shape == (n + 1, n + 1) and odd.shape == (n, n)
        sectors = np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)])
        assert_allclose(np.sort(sectors), np.linalg.eigvalsh(full), atol=1e-10)

    def test_request_too_many(self):
        op = numeric.SymTridiagonal([1.0, 2.0], [0.1])
        with pytest.raises(ValueError):
            eigen_lowest(op, 3)


class TestGegenbauerBasis:
    """The cell matrices against quadrature in the functions
    u_k = cos^eta(x) C_k^(eta)(sin x) / sqrt(h_k), built from mpmath's
    Gegenbauer polynomials and their textbook norms h_k."""

    @staticmethod
    def u(k, eta, x):
        norm = (mpmath.pi * 2 ** (1 - 2 * eta) * mpmath.gamma(k + 2 * eta)
                / (mpmath.factorial(k) * (k + eta) * mpmath.gamma(eta) ** 2))
        return mpmath.cos(x) ** eta * mpmath.gegenbauer(k, eta, mpmath.sin(x)) / mpmath.sqrt(norm)

    @pytest.mark.parametrize("eta", (0.25, 2.0))
    def test_sectors_match_quadrature(self, eta):
        # the kinetic and eta (eta - 1) / cos^2 terms give (k + eta)^2; the
        # rest of U is smooth on the cell
        p = params(TRIG, gamma=1.5, eta=eta, order=1)
        coef = potential_coefficients(p)
        size = 6
        sectors = numeric.gegenbauer_sectors(p, size)

        def rest(x):
            c2 = mpmath.cos(x) ** 2
            return coef.quartic * c2 * c2 + coef.quadratic * c2 - coef.centrifugal

        for parity, block in enumerate(sectors):
            ks = range(parity, size, 2)
            expected = [[float(mpmath.quad(lambda x: self.u(j, eta, x) * self.u(k, eta, x) * rest(x),
                                           [-mpmath.pi / 2, 0, mpmath.pi / 2]))
                         + (k + eta) ** 2 * (j == k) for k in ks] for j in ks]
            assert_allclose(block, expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("eta", (0.25, 2.0))
    @pytest.mark.parametrize("k", (0, 3))
    def test_poschl_teller_eigenfunctions(self, eta, k):
        for x in (-1.2, 0.3, 1.5):
            lhs = (-mpmath.diff(lambda t: self.u(k, eta, t), x, 2)
                   + eta * (eta - 1) / mpmath.cos(x) ** 2 * self.u(k, eta, x))
            assert abs(lhs - (k + eta) ** 2 * self.u(k, eta, x)) < 1e-8


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

    # a larger request raises E_top, so the grid is finer and the box wider
    @pytest.mark.parametrize("m", (1, 2, 7, 8))
    @pytest.mark.parametrize("geometry", (HYP, TRIG))
    def test_levels_independent_of_request(self, geometry, m):
        p = params(geometry)
        spec = numeric_spectrum(p, m=m)
        assert_allclose(spec.energies, numeric_spectrum(p, m=m + 30).energies[:m], rtol=1e-10, atol=1e-10)
        assert spec.parities == ([Parity.EVEN, Parity.ODD] * m)[:m]

    def test_degenerate_doublets_accepted(self):
        # the deep N = 10 well has tunnelling doublets that tie in float64
        spec = numeric_spectrum(params(order=10), m=24)
        assert spec.energies.size == 24
        assert spec.parities[:2] == [Parity.EVEN, Parity.ODD]

    def test_trig_column(self):
        spec = numeric_spectrum(params(TRIG), m=4)
        assert_allclose(spec.energies, (22.000, 23.394, 30.368, 38.656), atol=1e-2)

    # eta < 1: the tan^2 term is attractive at the walls; large eta: a
    # steep repulsive wall
    @pytest.mark.parametrize("order", (0, 2))
    @pytest.mark.parametrize("eta", (0.25, 0.5, 0.75, 20.0, 60.0))
    @pytest.mark.parametrize("gamma", (0.5, 4.0))
    @pytest.mark.parametrize("family", (Family.TF1, Family.TF2))
    def test_trig_solvable_levels_embedded(self, family, gamma, eta, order):
        p = params(TRIG, family, gamma, eta, order)
        spec = numeric_spectrum(p, m=2 * order + 4)
        for e_qes in qes_energies_via_determinant(p):
            assert np.min(np.abs(spec.energies - e_qes)) < 1e-3

    def test_automatic_widening(self, monkeypatch):
        # the deep N = 10 well with a WKB margin of -4 levels: the first E_top
        # lies below the top requested levels, so the box must widen
        p = params(order=10)
        expected = numeric_spectrum(p, m=24).energies
        edges = []
        box_edge = numeric._box_edge

        def spy(p, coef, e_top):
            edges.append(e_top)
            return box_edge(p, coef, e_top)

        monkeypatch.setattr(numeric, "WKB_MARGIN", -4)
        monkeypatch.setattr(numeric, "_box_edge", spy)
        spec = numeric_spectrum(p, m=24)
        assert len(edges) == 2 and edges[0] < expected[-1] < edges[1]
        assert_allclose(spec.energies, expected, rtol=1e-10, atol=1e-10)

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
