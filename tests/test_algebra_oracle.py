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
    heun,
    family_parity,
    match_che,
    numeric_spectrum,
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


def exact_input_energies(params, approx):
    """Roots of the termination determinant formed in mpmath from (gamma, eta).

    Each energy in ``approx`` is refined by Newton's method on the
    determinant recurrence, so the references are roots of the exact-input
    polynomial, not of one rounded to float64.
    """
    che = match_che(params)
    n = params.order
    with mpmath.workdps(DIGITS):
        alpha = -2 * mpmath.mpf(params.gamma)
        beta = mpmath.mpf(params.eta) - mpmath.mpf(0.5)
        if params.family in (Family.TF3, Family.TF4):
            beta = -beta
        gamma_star = mpmath.mpf(-0.5 if params.family in (Family.TF1, Family.TF3) else 0.5)
        diag = [i * (i + 1 + beta + gamma_star) - i * alpha for i in range(n + 1)]
        coupling = [i * (i + beta) * (n - i + 1) * alpha for i in range(1, n + 1)]

        def delta_and_derivative(mu):
            d_prev, d, dd_prev, dd = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            for i, x in enumerate(diag):
                c = coupling[i - 1] if i else 0
                d_prev, d, dd_prev, dd = d, (mu - x) * d - c * d_prev, dd, d + (mu - x) * dd - c * dd_prev
            return d, dd

        refined = []
        for energy in approx:
            mu = mpmath.mpf(che.mu_of_e(float(energy)))
            for _ in range(50):
                d, dd = delta_and_derivative(mu)
                mu -= d / dd
                if abs(d / dd) < mpmath.mpf(10) ** (10 - DIGITS) * (1 + abs(mu)):
                    break
            refined.append(che.mu_of_e.invert(mu))
    return refined


# non-round (gamma, eta), so the determinant's coefficients round in float64;
# a polish on the float64-rounded coefficients misses these by 2e-6 to 1e-5
@pytest.mark.parametrize(
    "geometry,family,gamma,eta,order",
    [
        (HYP, Family.TF2, 3.23, 1.6, 49),
        (HYP, Family.TF3, 3.2, 1.74, 47),
        (HYP, Family.TF4, 3.62, 2.98, 49),
        (TRIG, Family.TF1, 3.1431, 1.3047, 45),
    ],
    ids=lambda v: getattr(v, "value", v),
)
def test_heun_matches_exact_input_roots(geometry, family, gamma, eta, order):
    params = ModelParams(geometry, family, gamma, eta, order)
    got = qes_energies_via_determinant(params)
    ref = exact_input_energies(params, got)
    assert len({mpmath.nstr(r, 30) for r in ref}) == order + 1, "refined roots coincide"
    rel = max(abs(mpmath.mpf(float(g)) - r) / abs(r) for g, r in zip(got, ref))
    assert rel <= 1e-8


# the numeric cross-check at MAX_ORDER, where |E| reaches 1.1e4; the
# finite-difference solver it replaced was 3.5e-4 and 4.3e-2 off here
@pytest.mark.parametrize(
    "geometry,family,gamma,eta",
    [(HYP, Family.TF1, 2.0, 2.0), (TRIG, Family.TF2, 4.0, 0.25)],
    ids=lambda v: getattr(v, "value", v),
)
def test_numeric_matches_exact_input_roots(geometry, family, gamma, eta):
    params = ModelParams(geometry, family, gamma, eta, 50)
    ref = exact_input_energies(params, qes_energies_via_determinant(params))
    spectrum = numeric_spectrum(params, m=2 * params.order + 4)
    sector = [e for e, p in zip(spectrum.energies, spectrum.parities) if p is family_parity(family)]
    got = [min(sector, key=lambda e: abs(e - float(r))) for r in ref]
    assert len(set(got)) == len(ref)
    assert max(abs(mpmath.mpf(float(g)) - r) for g, r in zip(got, ref)) <= 1e-9


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


ROOT_DIGITS = 120


def reference_bethe_roots(params, energies):
    """Bethe roots of the level at each energy, from K formed at ROOT_DIGITS.

    K's entries are taken exactly from ``heun._companion_arrays``; mu(E) is
    refined by ``findroot`` on det(mu I - K), the kernel vector of K - mu I
    is found by back-substitution from its last entry, and its roots by
    ``mpmath.polyroots``.
    """
    che = match_che(params)
    n = params.order
    out = []
    with mpmath.workdps(ROOT_DIGITS):
        diag, sup, sub = (
            [mpmath.mpf(p) / q for p, q in (x.as_integer_ratio() for x in arr)]
            for arr in heun._companion_arrays(che)
        )

        def det(mu):
            prev, cur = mpmath.mpf(1), mu - diag[0]
            for i in range(1, n + 1):
                prev, cur = cur, (mu - diag[i]) * cur - sup[i - 1] * sub[i - 1] * prev
            return cur

        for energy in energies:
            mu = mpmath.findroot(det, mpmath.mpf(che.mu_of_e(float(energy))))
            v = [mpmath.mpf(0)] * n + [mpmath.mpf(1)]
            for i in range(n, 0, -1):
                row = (diag[i] - mu) * v[i] + (sup[i] * v[i + 1] if i < n else 0)
                v[i - 1] = -row / sub[i - 1]
            out.append([complex(r) for r in mpmath.polyroots(v[::-1], maxsteps=500, extraprec=400)])
    return out


# float64 polyroots on the unrotated companion matrix misses these bounds
# (3.8e-6 and 1.4e-3); the rotated companion meets them
@pytest.mark.parametrize(
    "geometry,family,order,bound",
    [(HYP, Family.TF1, 15, 1e-6), (TRIG, Family.TF2, 20, 1e-4)],
    ids=lambda v: getattr(v, "value", v),
)
def test_bethe_roots_match_high_precision(geometry, family, order, bound):
    params = ModelParams(geometry, family, 2.0, 2.0, order)
    spec = solve_polynomial_system(params)
    assert len(spec.levels) == order + 1
    worst = 0.0
    for level, ref in zip(spec.levels, reference_bethe_roots(params, spec.energies)):
        got = list(level.bethe_roots.astype(complex)) + list(level.complex_roots)
        assert len(got) == order
        for r in ref:  # each reference root claims its nearest computed root
            k = int(np.argmin([abs(g - r) for g in got]))
            worst = max(worst, abs(got.pop(k) - r) / abs(r))
    assert worst <= bound
