"""Direct polynomial-expansion solver.

The eigenfunction ansatz ``psi = prefactor(x) * f(z)`` with ``z = cosh^2 x``
(or ``cos^2 x``) reduces the problem to a local second-order equation for
``f`` with regular singular points at z = 0, 1.  Requiring ``f`` to be a
degree-N polynomial quantizes the energy; the roots of the monic ``f`` play
the role of Bethe roots of the level.

Rather than iterating on the coupled root equations, the solver builds the
termination system of the equivalent confluent-Heun form (see
:mod:`qeswell.heun`): energies come from the determinant condition and each
level's polynomial is the kernel vector of the termination matrix, which
stays well defined even when the forward series recurrence hits a zero
pivot.  The Bethe roots of a level are the eigenvalues of its polynomial's
companion matrix.
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

#: kernel vectors with |v_N| below this fraction of the vector norm are
#: flagged as degenerate (f would drop below degree N)
_LEADING_TOL = 1e-9


@dataclass(frozen=True)
class CheLocalForm:
    """Local-form coefficients of f'' + [...] f' + [...] f = 0.

    The first-derivative bracket is
    ``drift_constant + pole0_drift/z + pole1_drift/(z-1)`` and the
    zeroth-order bracket ``pole0_source(E)/z + pole1_source(E)/(z-1)``,
    both source maps affine in the energy with slope -+1/4.
    """

    drift_constant: float
    pole0_drift: float
    pole1_drift: float
    pole0_source: heun.AffineMap
    pole1_source: heun.AffineMap


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


def che_local_coeffs(params: ModelParams) -> CheLocalForm:
    """Local-form coefficients for the family's f-equation, read off :func:`heun.match_che`."""
    che = heun.match_che(params)
    return CheLocalForm(
        drift_constant=che.alpha,
        pole0_drift=1.0 + che.beta,
        pole1_drift=1.0 + che.gamma_star,
        pole0_source=che.mu_of_e,
        pole1_source=che.nu_of_e,
    )


def local_form_residual(form: CheLocalForm, monic_coeffs, energy: float, z) -> float:
    """Scaled residual of the local equation multiplied through by z(z-1).

    Zero (to rounding) when ``monic_coeffs`` is a genuine polynomial
    solution at ``energy``; used as an independent solution check.
    """
    c = np.asarray(monic_coeffs, dtype=float)
    dc = np.polyder(c[::-1])[::-1] if c.size > 1 else np.zeros(1)
    ddc = np.polyder(c[::-1], 2)[::-1] if c.size > 2 else np.zeros(1)
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    f = np.polyval(c[::-1], zs)
    fp = np.polyval(dc[::-1], zs)
    fpp = np.polyval(ddc[::-1], zs)
    s0 = form.pole0_source(energy)
    s1 = form.pole1_source(energy)
    t1 = zs * (zs - 1.0) * fpp
    t2 = (
        form.drift_constant * zs * (zs - 1.0)
        + form.pole0_drift * (zs - 1.0)
        + form.pole1_drift * zs
    ) * fp
    t3 = (s0 * (zs - 1.0) + s1 * zs) * f
    scale = np.max(np.abs(t1) + np.abs(t2) + np.abs(t3))
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


def _monic_from_kernel(che: heun.CheParams, energy: float):
    """Series vector from the kernel of the termination matrix, made monic."""
    mat = heun.termination_matrix(che, che.mu_of_e(energy))
    _, _, vt = np.linalg.svd(mat)
    vec = vt[-1]
    lead = vec[-1]
    if abs(lead) < _LEADING_TOL * np.linalg.norm(vec):
        return vec / np.max(np.abs(vec)), False
    return vec / lead, True


def solve_polynomial_system(params: ModelParams) -> QesSpectrum:
    """Solvable energies with the Bethe roots of each level.

    Produces N+1 levels when the termination condition has only real
    roots; complex pairs (possible for exotic parameter choices) are
    reported in ``complex_energies`` instead of raising.
    """
    che = heun.match_che(params)
    real_energies, complex_energies = heun.energy_roots(params)
    levels = []
    diagnostics = []
    for energy in real_energies:
        monic, ok = _monic_from_kernel(che, energy)
        if not ok:
            diagnostics.append(
                f"level E={energy:.6g}: leading coefficient numerically zero, "
                "polynomial degree drops below the order"
            )
        roots_real, roots_complex = rootfind.real_roots(monic)
        levels.append(
            QesLevel(
                energy=float(energy),
                bethe_roots=roots_real,
                monic_coeffs=np.asarray(monic, dtype=float),
                complex_roots=roots_complex,
            )
        )
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
