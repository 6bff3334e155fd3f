"""Confluent-Heun standard-form matching and the polynomial termination route.

After the substitution z = cosh^2 x (or cos^2 x), each trial family turns the
Schroedinger problem into a confluent Heun equation

    H'' + (alpha + (1+beta)/z + (1+gamma*)/(z-1)) H' + (mu/z + nu/(z-1)) H = 0

whose series coefficients obey a three-term recurrence.  Truncation to a
degree-N polynomial requires two conditions: the coupling identity
mu + nu + N alpha = 0 (enforced by the family's V1) and the vanishing of a
tridiagonal determinant Delta_{N+1}(mu) = det(mu I - K), whose roots give the
solvable energies through the affine map mu(E).  The roots are the
eigenvalues of the companion matrix K, taken by
:func:`qeswell.rootfind.three_term_roots` and Newton-polished on the
determinant recurrence.  K's entries are formed in ``np.longdouble`` from the
float inputs, so the polish converges to the roots of the exact-input
determinant rather than of a float64-rounded one; where ``longdouble`` is
float64 this is plain float64.  The eigenvector of K at a root is the
level's series coefficient vector (v_0, ..., v_N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rootfind
from .core import Family, Geometry, ModelParams, coupling_v1
from .errors import DegenerateParameterError

DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class AffineMap:
    """One-dimensional affine map ``E -> slope * E + intercept``."""

    slope: float
    intercept: float

    def __call__(self, energy: float) -> float:
        return self.slope * energy + self.intercept

    def invert(self, value: float) -> float:
        return (value - self.intercept) / self.slope


@dataclass(frozen=True)
class CheParams:
    """Standard-form constants for one (geometry, family, order) triple.

    ``delta`` and ``eta_star_of_e`` are derived from mu, nu through the
    accessory-parameter relations; ``mu_of_e + nu_of_e`` is constant in E
    and equals ``-order * alpha`` (the first termination condition).
    """

    alpha: float
    beta: float
    gamma_star: float
    delta: float
    eta_star_of_e: AffineMap
    mu_of_e: AffineMap
    nu_of_e: AffineMap
    order: int


@dataclass(frozen=True)
class SeriesCoefficients:
    """Power-series coefficients v_0..v_N at a given energy (v_0 = 1).

    ``tail`` is the would-be coefficient v_{N+1}; it vanishes (to rounding)
    exactly at solvable energies.  ``tail`` is None when its recurrence
    denominator is zero.
    """

    values: np.ndarray
    energy: float
    tail: float | None


def match_che(params: ModelParams) -> CheParams:
    """Standard-form constants for the given model parameters."""
    g, e, n = params.gamma, params.eta, params.order
    v1 = coupling_v1(params)
    alpha = -2.0 * g
    beta = e - 0.5 if params.family in (Family.TF1, Family.TF2) else 0.5 - e
    gamma_star = -0.5 if params.family in (Family.TF1, Family.TF3) else 0.5

    if params.geometry is Geometry.HYPERBOLIC:
        if params.family is Family.TF1:
            mu = AffineMap(-0.25, -(e + 2 * g * (2 * e + 1)) / 4)
            nu = AffineMap(0.25, (e - v1 - 2 * g * (2 * g + 1)) / 4)
        elif params.family is Family.TF2:
            mu = AffineMap(-0.25, -(3 * e + 1 + 2 * g * (2 * e + 1)) / 4)
            nu = AffineMap(0.25, (3 * e + 1 - v1 - 2 * g * (2 * g + 3)) / 4)
        elif params.family is Family.TF3:
            mu = AffineMap(-0.25, -(-e + 2 * g * (3 - 2 * e) + 1) / 4)
            nu = AffineMap(0.25, (-e - v1 - 2 * g * (2 * g + 1) + 1) / 4)
        else:
            mu = AffineMap(-0.25, -(-3 * e + 2 * g * (3 - 2 * e) + 4) / 4)
            nu = AffineMap(0.25, (-3 * e - v1 - 2 * g * (2 * g + 3) + 4) / 4)
    else:
        if params.family is Family.TF1:
            mu = AffineMap(0.25, (-e - 2 * g * (2 * e + 1)) / 4)
            nu = AffineMap(-0.25, -(-e - v1 + 2 * g * (2 * g + 1)) / 4)
        else:
            mu = AffineMap(0.25, (-3 * e - 2 * g * (2 * e + 1) - 1) / 4)
            nu = AffineMap(-0.25, -(-3 * e - v1 + 2 * g * (2 * g + 3) - 1) / 4)

    # mu + nu is E-independent, so delta is a plain number
    mu_plus_nu = mu.intercept + nu.intercept
    delta = mu_plus_nu - 0.5 * alpha * (beta + gamma_star + 2.0)
    eta_star = AffineMap(
        -mu.slope,
        -mu.intercept
        + 0.5 * alpha * (beta + 1.0)
        - 0.5 * (beta + gamma_star + beta * gamma_star),
    )
    return CheParams(alpha, beta, gamma_star, delta, eta_star, mu, nu, params.order)


def termination_identity_check(che: CheParams, samples: int = 10, seed: int = 0) -> bool:
    """True iff mu(E) + nu(E) + N alpha vanishes at ``samples`` random energies."""
    rng = np.random.default_rng(seed)
    scale = 1.0 + abs(che.order * che.alpha)
    for energy in rng.uniform(-100.0, 100.0, samples):
        r = che.mu_of_e(energy) + che.nu_of_e(energy) + che.order * che.alpha
        if abs(r) > 1e-12 * scale:
            return False
    return True


def q_value(che: CheParams, n: int) -> float:
    """Diagonal shift q_n = (n-1)(n + beta + gamma*)."""
    return (n - 1) * (n + che.beta + che.gamma_star)


def _companion_arrays(che: CheParams):
    """Diagonal, super- and subdiagonal of K, in ``np.longdouble``."""
    n_t = che.order
    idx = np.arange(1, n_t + 2, dtype=np.longdouble)
    diag = (idx - 1) * (idx + che.beta + che.gamma_star) - (idx - 1) * che.alpha
    sup = -idx[:-1] * (idx[:-1] + che.beta)
    sub = -(n_t - idx[:-1] + 1) * che.alpha
    return diag, sup, sub


def companion_matrix(che: CheParams) -> np.ndarray:
    """Dense float64 K with Delta_{N+1}(mu) = det(mu I - K)."""
    diag, sup, sub = (a.astype(float) for a in _companion_arrays(che))
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


def delta_determinant(che: CheParams, mu: float) -> float:
    """Delta_{N+1}(mu) by the tridiagonal three-term determinant recurrence."""
    diag, sup, sub = _companion_arrays(che)
    d_prev, d = 1.0, mu - diag[0]
    for i in range(1, diag.size):
        d_prev, d = d, (mu - diag[i]) * d - sup[i - 1] * sub[i - 1] * d_prev
    return float(d)


def energy_roots(params: ModelParams):
    """(sorted real solvable energies, leftover complex pairs)."""
    che = match_che(params)
    diag, sup, sub = _companion_arrays(che)
    return rootfind.split_real(che.mu_of_e.invert(rootfind.three_term_roots(diag, sup * sub)))


def qes_energies_via_determinant(params: ModelParams) -> np.ndarray:
    """Solvable energies from the determinant condition, sorted ascending."""
    real, _ = energy_roots(params)
    return real


def recurrence_terms(che: CheParams, k: int, energy: float):
    """(A_k, B_k, C_k) of the series recurrence A_k v_k = B_k v_{k-1} + C_k v_{k-2}."""
    a, b, gs = che.alpha, che.beta, che.gamma_star
    eta_star = che.eta_star_of_e(energy)
    a_k = 1.0 + b / k
    b_k = 1.0 + (b + gs - a - 1.0) / k - ((b + gs - a) - 2.0 * eta_star - b * (gs - a)) / (
        2.0 * k * k
    )
    c_k = a / (k * k) * (0.5 * (b + gs) + che.delta / a + k - 1.0)
    return a_k, b_k, c_k


def series_coefficients(che: CheParams, energy: float) -> SeriesCoefficients:
    """Forward series recurrence v_0..v_N at ``energy``.

    Raises :class:`DegenerateParameterError` when some A_k vanishes for
    k <= N (beta a negative integer), which makes the forward recurrence
    ill-posed.
    """
    values = np.empty(che.order + 1)
    values[0] = 1.0
    for k in range(1, che.order + 1):
        a_k, b_k, c_k = recurrence_terms(che, k, energy)
        if abs(a_k) < DEGENERACY_TOL:
            raise DegenerateParameterError(
                f"series recurrence breaks down: A_{k} = 0 (beta = {che.beta})"
            )
        v_km2 = values[k - 2] if k >= 2 else 0.0
        values[k] = (b_k * values[k - 1] + c_k * v_km2) / a_k

    k = che.order + 1
    a_k, b_k, c_k = recurrence_terms(che, k, energy)
    v_km2 = values[che.order - 1] if che.order >= 1 else 0.0
    tail = None
    if abs(a_k) >= DEGENERACY_TOL:
        tail = (b_k * values[che.order] + c_k * v_km2) / a_k
    return SeriesCoefficients(values=values, energy=energy, tail=tail)
