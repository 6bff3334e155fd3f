"""Hidden sl(2, R) route: gauge Hamiltonian and critical polynomials.

In the variable z = cosh 2x (hyperbolic) or z = cos 2x (trigonometric) the
gauged Schroedinger operator acts on polynomials of degree <= N through the
generators J- = d/dz, J0 = z d/dz - N/2, J+ = z^2 d/dz - N z.  Its action
is encoded either as a dense matrix on the monomial basis or as a
three-term recurrence

    P_{k+1} = (E - b_k) P_k - a_k P_{k-1},   P_0 = 1,

whose critical polynomial P_{N+1} vanishes exactly at the solvable
energies; they are found as the eigenvalues of the recurrence's tridiagonal
matrix by :func:`qeswell.rootfind.three_term_roots`.  Each family selects a
sector constant sigma; the ratio eta(eta-1)/(sigma-eta-1) appearing
throughout is replaced by per-family closed forms so the exceptional eta
values stay regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rootfind
from .core import (
    Family,
    Geometry,
    ModelParams,
    Normalization,
    WavefunctionSamples,
    normalize_samples,
)
from .errors import DegenerateParameterError, DomainError


@dataclass(frozen=True)
class LieSector:
    """Sector data: sigma, the regularized ratio, and the additive constant."""

    sigma: float
    kappa_const: float
    cstar: float


@dataclass(frozen=True)
class ReferenceFormCoefficients:
    """Couplings of the quadratic-plus-singular reference potential."""

    a: float
    b: float
    c: float
    d: float
    kappa: float


_SIGMA = {Family.TF1: lambda e: 2 * e, Family.TF2: lambda e: 2 * e + 1,
          Family.TF3: lambda e: 1.0, Family.TF4: lambda e: 2.0}
#: closed forms of eta(eta-1)/(sigma-eta-1); removable 0/0 points are healed
_KAPPA = {Family.TF1: lambda e: e, Family.TF2: lambda e: e - 1.0,
          Family.TF3: lambda e: 1.0 - e, Family.TF4: lambda e: -e}
#: weight parameter rho = sigma/2 + eta(2 eta - sigma)/(2 (sigma - eta - 1))
_RHO = {Family.TF1: lambda e: e, Family.TF2: lambda e: e,
        Family.TF3: lambda e: 1.0 - e, Family.TF4: lambda e: 1.0 - e}


def lie_sector(params: ModelParams) -> LieSector:
    e, g, n = params.eta, params.gamma, params.order
    sigma = _SIGMA[params.family](e)
    kappa = _KAPPA[params.family](e)
    cstar = (
        -((n + sigma - e) ** 2)
        - 2 * g * (2 * n + sigma - e + 1)
        + e * (e - 1)
        - 2 * g * kappa
    )
    if params.geometry is Geometry.TRIGONOMETRIC:
        cstar = -cstar
    return LieSector(sigma=sigma, kappa_const=kappa, cstar=cstar)


def recurrence_coeffs(params: ModelParams, k: int):
    """Recurrence pair (a_k, b_k); a_{N+1} = 0 closes the solvable sector."""
    if k < 0 or k > params.order + 1:
        raise ValueError(f"k must lie in [0, order+1], got {k}")
    e, g, n = params.eta, params.gamma, params.order
    sec = lie_sector(params)
    s_minus_e = sec.sigma - e
    a_k = 16.0 * g * k * (k - n - 1) * (2 * k - 1 + s_minus_e + sec.kappa_const)
    b_k = (
        -4.0 * k * (s_minus_e + k + 2 * g)
        - 2 * g * (s_minus_e + 1)
        + e * (e - 1)
        - 2 * g * sec.kappa_const
        - s_minus_e**2
    )
    if params.geometry is Geometry.TRIGONOMETRIC:
        b_k = -b_k
    return a_k, b_k


def critical_values(params: ModelParams, energy: float) -> np.ndarray:
    """Values P_0(E) .. P_{N+1}(E) of the critical polynomial sequence."""
    n = params.order
    out = np.empty(n + 2)
    out[0] = 1.0
    prev = 0.0
    for k in range(n + 1):
        a_k, b_k = recurrence_coeffs(params, k)
        out[k + 1] = (energy - b_k) * out[k] - a_k * prev
        prev = out[k]
    return out


def critical_polynomial(params: ModelParams) -> np.ndarray:
    """Ascending coefficients of P_{N+1}(E); monic by construction."""
    cur = np.array([1.0])
    prev = np.array([0.0])
    for k in range(params.order + 1):
        a_k, b_k = recurrence_coeffs(params, k)
        nxt = np.zeros(cur.size + 1)
        nxt[1:] += cur
        nxt[: cur.size] -= b_k * cur
        nxt[: prev.size] -= a_k * prev
        prev, cur = cur, nxt
    return cur


def energy_roots_via_recurrence(params: ModelParams):
    """(sorted real roots, leftover complex pairs) of the critical polynomial.

    The roots are the eigenvalues of the recurrence's tridiagonal matrix
    (diagonal b_0..b_N, couplings a_1..a_N), polished on the recurrence.
    """
    a, b = np.array([recurrence_coeffs(params, k) for k in range(params.order + 1)]).T
    return rootfind.split_real(rootfind.three_term_roots(b, a[1:]))


def qes_energies_via_recurrence(params: ModelParams) -> np.ndarray:
    """Real roots of the critical polynomial, sorted ascending."""
    real, _ = energy_roots_via_recurrence(params)
    return real


def gauge_hamiltonian_matrix(params: ModelParams) -> np.ndarray:
    """Gauged operator on the monomial basis {1, z, ..., z^N}.

    Its eigenvalue set equals the solvable energies.  The matrix is lower
    Hessenberg with one extra superdiagonal coming from the J-^2 term.
    """
    e, g, n = params.eta, params.gamma, params.order
    sec = lie_sector(params)
    sign = 1.0 if params.geometry is Geometry.HYPERBOLIC else -1.0
    h = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        h[j, j] = sign * (
            -4.0 * (j - n / 2.0) ** 2 - 4.0 * (sec.sigma - e + n) * (j - n / 2.0)
        ) + sec.cstar
        if j >= 2:
            h[j - 2, j] += sign * 4.0 * j * (j - 1)
        if j >= 1:
            h[j - 1, j] += 4.0 * (sec.kappa_const - g) * j
        if j < n:
            h[j + 1, j] += 4.0 * g * (j - n)
    return h


def lie_variable(params: ModelParams, x):
    """Map x to the Lie variable: cosh 2x (hyperbolic) or cos 2x (trigonometric)."""
    xs = np.asarray(x, dtype=float)
    if params.geometry is Geometry.HYPERBOLIC:
        return np.cosh(2.0 * xs)
    if np.any(np.abs(xs) >= math.pi / 2):
        raise DomainError("trigonometric geometry requires |x| < pi/2")
    return np.cos(2.0 * xs)


def gauge_factor(params: ModelParams, z):
    """Gauge function in the Lie variable.

    Hyperbolic (z >= 1): (z+1)^A (z-1)^B exp(-g z / 2); trigonometric
    (|z| <= 1): (1+z)^A (1-z)^B exp(-g z / 2), with
    A = (sigma - eta + kappa)/4 and B = (sigma - eta - kappa)/4.  The
    exponent placement follows the per-family eigenfunction prefactors
    (A sits on the factor proportional to cosh^2/cos^2).
    """
    sec = lie_sector(params)
    e = params.eta
    a_exp = 0.25 * (sec.sigma - e + sec.kappa_const)
    b_exp = 0.25 * (sec.sigma - e - sec.kappa_const)
    zs = np.asarray(z, dtype=float)
    if params.geometry is Geometry.HYPERBOLIC:
        if np.any(zs < 1.0 - 1e-12):
            raise DomainError("hyperbolic gauge factor requires z >= 1")
        plus, minus = zs + 1.0, np.maximum(zs - 1.0, 0.0)
    else:
        if np.any(np.abs(zs) > 1.0 + 1e-12):
            raise DomainError("trigonometric gauge factor requires |z| <= 1")
        plus, minus = 1.0 + zs, np.maximum(1.0 - zs, 0.0)
    out = plus**a_exp * minus**b_exp * np.exp(-0.5 * params.gamma * zs)
    if np.ndim(z) == 0:
        return float(out)
    return out


def expansion_weights(params: ModelParams) -> np.ndarray:
    """Relative weights W_0..W_N of the orthogonal-polynomial expansion.

    Computed from the exact ratio W_{k+1}/W_k = 1 / (4 (k+1) (2 rho + 2k + 1)),
    which stays finite at the removable factorial poles; a genuine pole
    (2 rho + 2k + 1 = 0) raises :class:`DegenerateParameterError`.
    """
    rho = _RHO[params.family](params.eta)
    weights = np.empty(params.order + 1)
    weights[0] = 1.0
    for k in range(params.order):
        denom = 2.0 * rho + 2.0 * k + 1.0
        if abs(denom) < 1e-12:
            raise DegenerateParameterError(
                f"expansion weight pole at k={k + 1} (rho = {rho})"
            )
        weights[k + 1] = weights[k] / (4.0 * (k + 1) * denom)
    return weights


def lie_wavefunction(
    params: ModelParams,
    energy: float,
    xs,
    normalization: Normalization = Normalization.MAX_ABS_ONE,
) -> WavefunctionSamples:
    """Eigenfunction assembled from the gauge factor and the P_k sequence.

    The expansion truncates at k = N: at a solvable energy every higher
    term carries a vanishing coefficient.  Odd families acquire their sign
    through an explicit sign(x) factor (the gauge factor itself is even).
    """
    xs = np.asarray(xs, dtype=float)
    z = lie_variable(params, xs)
    weights = expansion_weights(params)
    p_values = critical_values(params, energy)[: params.order + 1]
    sign = 1.0 if params.geometry is Geometry.HYPERBOLIC else -1.0
    chi = np.zeros_like(z)
    for k in range(params.order, -1, -1):
        chi = chi * (1.0 + z) + (sign**k) * weights[k] * p_values[k]
    psi = gauge_factor(params, z) * chi
    if params.family.is_odd:
        psi = psi * np.sign(xs)
    psi = normalize_samples(xs, psi, normalization)
    return WavefunctionSamples(xs=xs, psi=psi, normalization=normalization)


def match_reference_form(params: ModelParams) -> ReferenceFormCoefficients:
    """Couplings matching the quadratic-plus-singular reference potential.

    With kappa = 4: hyperbolic A = g^2, B = -2 g (e + M), D = -C = 2 e (2 e - 1);
    trigonometric A = -g^2, same B, C = D = 2 e (e - 1).
    """
    from .core import coupling_m

    g, e = params.gamma, params.eta
    m = coupling_m(params.family, params.order, e)
    b = -2.0 * g * (e + m)
    if params.geometry is Geometry.HYPERBOLIC:
        d = 2.0 * e * (2.0 * e - 1.0)
        return ReferenceFormCoefficients(a=g * g, b=b, c=-d, d=d, kappa=4.0)
    d = 2.0 * e * (e - 1.0)
    return ReferenceFormCoefficients(a=-g * g, b=b, c=d, d=d, kappa=4.0)
