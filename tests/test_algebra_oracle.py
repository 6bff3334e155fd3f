"""High-precision oracle for the algebraic energies up to high order.

Every energy a route returns must sit in its own narrow bracket in which
the termination determinant P_{N+1}(E) of the sl(2) recurrence changes
sign, with P_{N+1} evaluated in mpmath, so the N+1 brackets hold the N+1
roots.
"""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qeswell import (
    Family,
    Geometry,
    ModelParams,
    qes_energies_via_determinant,
    qes_energies_via_recurrence,
    rootfind,
    solve_polynomial_system,
)
from qeswell.liealg import recurrence_coeffs

HYP, TRIG = Geometry.HYPERBOLIC, Geometry.TRIGONOMETRIC
PAIRS = [(HYP, f) for f in Family] + [(TRIG, Family.TF1), (TRIG, Family.TF2)]
#: relative half-width of the bracket around each energy
BRACKET = 1e-6
DIGITS = 50

ROUTES = {
    "bethe": lambda p: solve_polynomial_system(p).energies,
    "heun": qes_energies_via_determinant,
    "lie": qes_energies_via_recurrence,
}


def uncertified(params, energies):
    """Description of the first energy the oracle rejects, or None."""
    with mpmath.workdps(DIGITS):
        coeffs = [
            (mpmath.mpf(a), mpmath.mpf(b))
            for a, b in (recurrence_coeffs(params, k) for k in range(params.order + 1))
        ]

        def p_top(e):
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for a, b in coeffs:
                prev, cur = cur, (e - b) * cur - a * prev
            return cur

        last_hi = None
        for energy in np.sort(energies):
            half = BRACKET * max(1.0, abs(float(energy)))
            lo, hi = mpmath.mpf(float(energy)) - half, mpmath.mpf(float(energy)) + half
            if last_hi is not None and lo <= last_hi:
                return f"E={energy:.12g} shares a bracket with its neighbour"
            if mpmath.sign(p_top(lo)) * mpmath.sign(p_top(hi)) > 0:
                return f"no sign change of P_N+1 around E={energy:.12g}"
            last_hi = hi
    return None


@pytest.mark.parametrize("eta", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("order", [20, 50])
@pytest.mark.parametrize("geometry,family", PAIRS, ids=lambda v: getattr(v, "value", v))
def test_oracle_sweep(geometry, family, order, gamma, eta):
    params = ModelParams(geometry, family, gamma, eta, order)
    certified = {}
    for name, solve in ROUTES.items():
        energies = np.asarray(solve(params), dtype=float)
        assert energies.size == order + 1, f"{name}: {energies.size} real energies"
        key = energies.tobytes()
        if key not in certified:
            certified[key] = uncertified(params, energies)
        assert certified[key] is None, f"{name}: {certified[key]}"


# high gamma at round eta: the recurrence coefficients are exact in float64,
# so a miss here is the solver's, and a float64 polish misses most of these
@pytest.mark.parametrize("eta", [1.0, 2.5])
@pytest.mark.parametrize("order", [45, 50])
@pytest.mark.parametrize("geometry,family", PAIRS, ids=lambda v: getattr(v, "value", v))
def test_oracle_high_gamma(geometry, family, order, eta):
    test_oracle_sweep(geometry, family, order, 3.5, eta)


# the steepest inputs: three extended-precision Newton steps leave one
# energy of each outside its bracket, four do not
@pytest.mark.parametrize("eta", [2.0, 2.5])
@pytest.mark.parametrize("geometry", [HYP, TRIG], ids=lambda v: v.value)
def test_oracle_steepest(geometry, eta):
    test_oracle_sweep(geometry, Family.TF1, 50, 4.0, eta)


def test_bethe_levels_at_max_order_with_zero_coupling():
    # eta = 3/2 makes one coupling of the TF3 recurrence vanish exactly
    spec = solve_polynomial_system(ModelParams(HYP, Family.TF3, 1.0, 1.5, 50))
    assert len(spec.levels) == 51
    assert not spec.complex_energies


def reference_roots(diag, coupling):
    """np.roots of the determinant polynomial built by the same recurrence."""
    prev, cur = np.zeros(1), np.ones(1)
    for i, d in enumerate(diag):
        c = coupling[i - 1] if i > 0 else 0.0
        prev, cur = cur, np.polysub(np.polymul([1.0, -d], cur), c * prev)
    return np.roots(cur)


def sorted_complex(roots):
    return np.array(sorted(np.asarray(roots, dtype=complex), key=lambda z: (round(z.real, 6), z.imag)))


@pytest.mark.parametrize(
    "coupling",
    [
        [2.0, 0.0, 3.0, 1.5, 0.5],
        [-1.0, -2.5, 4.0, -0.5, 1.0],
        [-3.0, -3.0, -3.0, -3.0, -3.0],
    ],
    ids=["zero", "mixed-sign", "negative"],
)
def test_three_term_roots_match_np_roots(coupling):
    diag = np.array([-4.0, -1.0, 0.5, 2.0, 3.5, 7.0])
    got = rootfind.three_term_roots(diag, coupling)
    assert_allclose(sorted_complex(got), sorted_complex(reference_roots(diag, coupling)), atol=1e-10)

