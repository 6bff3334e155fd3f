"""Direct polynomial-expansion solver.

The eigenfunction ansatz ``psi = prefactor(x) * f(z)`` with ``z = cosh^2 x``
(or ``cos^2 x``) reduces the problem to a local second-order equation for
``f`` with regular singular points at z = 0, 1.  Requiring ``f`` to be a
degree-N polynomial quantizes the energy; the roots of the monic ``f`` play
the role of Bethe roots of the level.

Rather than iterating on the coupled root equations, the solver uses the
termination system of the equivalent confluent-Heun form (see
:mod:`qeswell.heun`): energies come from the determinant condition
det(mu(E) I - K) = 0, and the N+1 level polynomials are the eigenvectors of
that one matrix K, taken from a single eigen-decomposition.  An eigenvector
stays well defined even when the forward series recurrence hits a zero
pivot.  The Bethe roots of a level are the eigenvalues of its polynomial's
rotated companion matrix; the matrices of all levels of one order are
stacked and solved by one eigenvalue call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import heun, rootfind
from .core import (
    Family,
    Geometry,
    ModelParams,
    Normalization,
    WavefunctionSamples,
    normalize_samples,
)
from .errors import DomainError

@dataclass(frozen=True)
class QesLevel:
    """One solvable level: energy, real Bethe roots, and monic coefficients."""

    energy: float
    bethe_roots: np.ndarray
    monic_coeffs: np.ndarray
    complex_roots: list = field(default_factory=list)


@dataclass(frozen=True)
class QesSpectrum:
    """Solvable part of the spectrum, levels sorted by ascending energy."""

    params: ModelParams
    levels: list
    complex_energies: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def energies(self) -> np.ndarray:
        return np.array([lvl.energy for lvl in self.levels])


def local_form_residual(che: heun.CheParams, monic_coeffs, energy: float, z) -> float:
    """Scaled residual of the local equation multiplied through by z(z-1).

    Zero (to rounding) when ``monic_coeffs`` is a genuine polynomial
    solution at ``energy``; used as an independent solution check.  The
    source term is scaled by its uncancelled parts |slope E| + |intercept|,
    so a level whose source term cancels to rounding (N = 0) scores near 0.
    """
    c = np.asarray(monic_coeffs, dtype=float)
    dc = np.polyder(c[::-1])[::-1] if c.size > 1 else np.zeros(1)
    ddc = np.polyder(c[::-1], 2)[::-1] if c.size > 2 else np.zeros(1)
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    f = np.polyval(c[::-1], zs)
    fp = np.polyval(dc[::-1], zs)
    fpp = np.polyval(ddc[::-1], zs)
    mu, nu = che.mu_of_e, che.nu_of_e
    t1 = zs * (zs - 1.0) * fpp
    t2 = (
        che.alpha * zs * (zs - 1.0) + (1.0 + che.beta) * (zs - 1.0) + (1.0 + che.gamma_star) * zs
    ) * fp
    t3 = (mu(energy) * (zs - 1.0) + nu(energy) * zs) * f
    t3_parts = (
        (abs(mu.slope * energy) + abs(mu.intercept)) * np.abs(zs - 1.0)
        + (abs(nu.slope * energy) + abs(nu.intercept)) * np.abs(zs)
    ) * np.abs(f)
    scale = np.max(np.abs(t1) + np.abs(t2) + t3_parts)
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(t1 + t2 + t3)) / scale)


def closed_form_levels(params: ModelParams) -> list | None:
    """Printed closed forms, available for TF1/TF2 with N <= 1 only."""
    if params.family not in (Family.TF1, Family.TF2) or params.order > 1:
        return None
    g, e = params.gamma, params.eta
    if params.family is Family.TF1:
        if params.order == 0:
            levels = [-e - 2 * g * (2 * e + 1)]
        else:
            mean = -(3 * e + 6 * g + 2 + 4 * g * e)
            disc = (e + 1) ** 2 + 4 * g * (g - e)
            if disc < 0:
                return []
            levels = [mean - 2 * math.sqrt(disc), mean + 2 * math.sqrt(disc)]
    else:
        if params.order == 0:
            levels = [-e - (2 * g + 1) * (2 * e + 1)]
        else:
            mean = -(6 * g + 5 * e + 4 * g * e + 5)
            disc = (e + 2) ** 2 + 4 * g * (g - e + 1)
            if disc < 0:
                return []
            levels = [mean - 2 * math.sqrt(disc), mean + 2 * math.sqrt(disc)]
    if params.geometry is Geometry.TRIGONOMETRIC:
        levels = sorted(-v for v in levels)
    return levels


def _level_polynomials(che: heun.CheParams, energies) -> list:
    """Monic series polynomial of each level, in the order of ``energies``.

    The polynomial of the level at E is the eigenvector of K at mu(E),
    divided by its last entry.  One eigen-decomposition of K serves every
    level: each energy is paired with an eigenvalue of K, nearest pairs
    first and each eigenvalue used once.  Every subdiagonal entry of K is
    2 gamma (N - i + 1) > 0, so an eigenvector with last entry 0 would
    vanish by back-substitution from the last row: the degree never drops
    below N.  At high order two real levels can be paired with a complex
    conjugate pair of computed eigenvalues, whose vectors have the same
    real part; one inverse-iteration step at each level's polished mu(E)
    separates them and sharpens every vector.
    """
    mus = che.mu_of_e(np.asarray(energies))
    k_mat = heun.companion_matrix(che)
    eigenvalues, vectors = np.linalg.eig(k_mat)
    dist = np.abs(mus[:, None] - eigenvalues[None, :])
    picks = np.empty(mus.size, dtype=int)
    for _ in range(mus.size):
        k, j = np.unravel_index(np.argmin(dist), dist.shape)
        picks[k] = j
        dist[k, :] = dist[:, j] = np.inf
    starts = (vectors[:, picks] / vectors[-1, picks]).real.T
    eye = np.eye(k_mat.shape[0])
    polys = []
    for mu, start in zip(mus, starts):
        try:
            vec = np.linalg.solve(k_mat - mu * eye, start)
        except np.linalg.LinAlgError:  # mu is exactly an eigenvalue of K
            vec = start
        polys.append(vec / vec[-1])
    return polys


def solve_polynomial_system(params: ModelParams) -> QesSpectrum:
    """Solvable energies with the Bethe roots of each level.

    Produces N+1 levels when the termination condition has only real
    roots; complex pairs (possible for exotic parameter choices) are
    reported in ``complex_energies`` instead of raising.
    """
    che = heun.match_che(params)
    real_energies, complex_energies = heun.energy_roots(params)
    polys = _level_polynomials(che, real_energies)
    levels = []
    for energy, monic, roots in zip(real_energies, polys, rootfind.companion_roots(polys)):
        roots_real, roots_complex = rootfind.split_real(roots)
        levels.append(
            QesLevel(
                energy=float(energy),
                bethe_roots=roots_real,
                monic_coeffs=monic,
                complex_roots=roots_complex,
            )
        )
    diagnostics = []
    if complex_energies:
        diagnostics.append(
            f"{len(complex_energies)} non-real energy roots: "
            + ", ".join(f"{c:.6g}" for c in complex_energies)
        )
    return QesSpectrum(
        params=params,
        levels=levels,
        complex_energies=complex_energies,
        diagnostics=diagnostics,
    )


def prefactor(params: ModelParams, xs):
    """Family prefactor multiplying the polynomial part of the ansatz."""
    g, e = params.gamma, params.eta
    xs = np.asarray(xs, dtype=float)
    if params.geometry is Geometry.HYPERBOLIC:
        base = np.exp(-g * np.cosh(xs) ** 2)
        power = e if params.family in (Family.TF1, Family.TF2) else 1.0 - e
        out = base * np.cosh(xs) ** power
        if params.family.is_odd:
            out = out * np.sinh(xs)
    else:
        if np.any(np.abs(xs) >= math.pi / 2):
            raise DomainError("trigonometric wavefunction requires |x| < pi/2")
        out = np.exp(-g * np.cos(xs) ** 2) * np.cos(xs) ** e
        if params.family.is_odd:
            out = out * np.sin(xs)
    return out


def assemble_wavefunction(
    params: ModelParams,
    level: QesLevel,
    xs,
    normalization: Normalization = Normalization.MAX_ABS_ONE,
) -> WavefunctionSamples:
    """Sample ``prefactor * f(z)`` on ``xs`` and normalize."""
    xs = np.asarray(xs, dtype=float)
    if params.geometry is Geometry.HYPERBOLIC:
        z = np.cosh(xs) ** 2
    else:
        z = np.cos(xs) ** 2
    psi = prefactor(params, xs) * np.polyval(level.monic_coeffs[::-1], z)
    psi = normalize_samples(xs, psi, normalization)
    return WavefunctionSamples(xs=xs, psi=psi, normalization=normalization)
