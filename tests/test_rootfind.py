import numpy as np
import pytest
from numpy.testing import assert_allclose

from qeswell import rootfind


def poly_from_roots(roots):
    return np.poly(roots)[::-1]  # ascending


class TestAberth:
    def test_degree_zero_and_one(self):
        assert rootfind.aberth_roots([3.0]).size == 0
        assert_allclose(rootfind.aberth_roots([6.0, -2.0]), [3.0])

    def test_quadratic_cancellation(self):
        # roots 1e8 and 1e-8; the naive formula loses the small root
        coeffs = [1.0, -(1e8 + 1e-8), 1.0]
        roots = np.sort(rootfind.aberth_roots(coeffs).real)
        assert_allclose(roots[0], 1e-8, rtol=1e-12)
        assert_allclose(roots[1], 1e8, rtol=1e-12)

    def test_known_cubic(self):
        roots, rest = rootfind.split_real(rootfind.companion_roots([poly_from_roots([1.0, 2.0, 3.0])])[0])
        assert not rest
        assert_allclose(roots, [1.0, 2.0, 3.0], rtol=1e-12)

    def test_complex_pair(self):
        real, rest = rootfind.split_real(rootfind.companion_roots([[1.0, 0.0, 1.0]])[0])  # z^2 + 1
        assert real.size == 0
        assert len(rest) == 2
        assert_allclose(sorted(r.imag for r in rest), [-1.0, 1.0], atol=1e-12)

    def test_scaling_invariance(self):
        coeffs = poly_from_roots([-2.0, 0.5, 4.0])
        a = np.sort(rootfind.aberth_roots(coeffs).real)
        b = np.sort(rootfind.aberth_roots(1e8 * coeffs).real)
        assert_allclose(a, b, rtol=1e-12)

    def test_against_dense_oracle(self, rng):
        # conjugate pairs make lexicographic complex sorting brittle, so
        # match each oracle root to its nearest computed one instead
        for _ in range(20):
            deg = int(rng.integers(3, 13))
            n_complex = int(rng.integers(0, deg // 2 + 1))
            roots = list(rng.uniform(-5, 5, deg - 2 * n_complex))
            for _ in range(n_complex):
                c = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
                roots += [c, c.conjugate()]
            coeffs = np.poly(np.array(roots, dtype=complex))[::-1]
            mine = list(rootfind.aberth_roots(coeffs.real))
            oracle = np.roots(coeffs.real[::-1])
            for want in oracle:
                dist = [abs(z - want) for z in mine]
                nearest = int(np.argmin(dist))
                assert dist[nearest] < 1e-6
                mine.pop(nearest)

    def test_large_coefficient_spread(self):
        # clustered large roots with coefficients spanning ten decades
        roots = [-205.2, -178.8, -156.6, -118.8, -70.7]
        got = np.sort(rootfind.aberth_roots(poly_from_roots(roots)).real)
        assert_allclose(got, sorted(roots), rtol=1e-8)

    def test_real_classification_threshold(self):
        real, rest = rootfind.split_real(np.array([1.0 + 1e-12j, 2.0 + 1.0j]))
        assert_allclose(real, [1.0])
        assert rest == [2.0 + 1.0j]


class TestCompanionRoots:
    def test_matches_per_row_eigvals(self, rng):
        for n in range(2, 11):
            rows = rng.normal(size=(4, n + 1))
            got = rootfind.companion_roots(rows)
            assert got.shape == (4, n)
            for c, roots in zip(rows, got):
                mat = np.eye(n, k=1)
                mat[:, 0] = -c[n - 1 :: -1] / c[n]
                assert_allclose(roots, np.linalg.eigvals(mat), rtol=1e-12, atol=1e-12)

    def test_degree_zero_and_one_need_no_eigen_solve(self, monkeypatch):
        def refuse(_):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(rootfind.np.linalg, "eigvals", refuse)
        assert rootfind.companion_roots([[3.0], [5.0]]).shape == (2, 0)
        assert rootfind.companion_roots([]).shape == (0, 0)
        got = rootfind.companion_roots([[6.0, -2.0], [0.1, 0.3]])
        assert got.tolist() == [[3.0], [-0.1 / 0.3]]
