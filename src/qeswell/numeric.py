"""Independent finite-difference eigensolver used to cross-check the algebra.

The 1-D operator -d^2/dx^2 + V(x) is discretized by central second
differences on an interior grid, giving a symmetric tridiagonal matrix
whose lowest eigenvalues come from LAPACK bisection
(``scipy.linalg.eigh_tridiagonal``; scipy is imported on the first solve,
so the algebraic routes never load it).

Both potentials are even and the grid is mirror-symmetric, so the matrix
splits exactly into an even and an odd block on the right half of the grid
(``sector_operators``); each block is solved for its own share of the
levels.  Every off-diagonal is negative, so by the discrete oscillation
theorem the k-th level of the full matrix has k sign changes and parity
(-1)^k: the levels alternate even, odd, even, ... from the ground state.
The merged spectrum therefore carries its parities as sector labels, with
no eigenvectors on the default path, and the two levels of a tunnelling
doublet stay apart even where they tie in float64.  ``eigen_lowest_batch``,
``eigenvector`` (inverse iteration), ``mirror_parity`` (a parity measured
from an eigenvector), ``SymTridiagonal.shifted_banded`` and
``PARITY_THRESHOLD`` have no caller in the package; they are kept only
because the benchmark's tracer wraps the first three by name, and the last
two serve them.

Central differences are accurate to O(h^2) with an error that grows with
the energy, so ``numeric_spectrum`` solves the sectors on P and on 2P
points in the same box and returns the Richardson extrapolation
(4 E_2P - E_P) / 3 per level (Richardson, Phil. Trans. R. Soc. A 210, 307,
1911).  Without an explicit grid, P grows with the number of levels
requested: max(floor, k m), with the floors ``DEFAULT_POINTS_*`` and the
slopes ``POINTS_PER_LEVEL_*``.

The hyperbolic geometry uses a truncated interval [-L, L] with Dirichlet
walls; the exp(-g cosh^2 x) decay makes truncation error negligible for
modest L.  The trigonometric geometry uses the open cell (-pi/2, pi/2) and
factors psi = cos^s(x) phi with s = min(eta, 1) out of the wavefunction,
which removes the attractive part of the eta (eta - 1) tan^2 x term for
eta < 1 and leaves the repulsive part for eta > 1.  The factored operator
-(w phi')'/w + W phi with w = cos^2s(x) is symmetrised on the grid, so its
eigenvectors are psi at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Geometry, ModelParams, Parity, eval_potential, potential_coefficients
from .errors import ConvergenceError

#: fewest coarse-grid points of each geometry; the fine grid has twice as many
DEFAULT_POINTS_HYPERBOLIC = 1000
DEFAULT_POINTS_TRIGONOMETRIC = 2000
#: coarse-grid points per requested level, once that exceeds the floor
POINTS_PER_LEVEL_HYPERBOLIC = 60
POINTS_PER_LEVEL_TRIGONOMETRIC = 80
DEFAULT_HALF_WIDTH = 3.0
#: accept a mirror overlap as decisive parity evidence beyond this magnitude
PARITY_THRESHOLD = 0.9


@dataclass(frozen=True)
class GridConfig:
    """Discretization request; ``points`` counts subintervals, the interior
    grid carries ``points - 1`` unknowns."""

    half_width: float
    points: int

    def __post_init__(self):
        if self.points < 100:
            raise ValueError("grid needs at least 100 points")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")


@dataclass(frozen=True)
class NumericSpectrum:
    """Lowest levels with their mirror parities, ascending up to float64 ties
    within a tunnelling doublet."""

    energies: np.ndarray
    parities: list


class SymTridiagonal:
    """Symmetric tridiagonal operator."""

    def __init__(self, diag, off):
        self.diag = np.asarray(diag, dtype=float)
        self.off = np.asarray(off, dtype=float)
        if self.off.size != self.diag.size - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")

    @property
    def size(self) -> int:
        return self.diag.size

    def shifted_banded(self, lam: float) -> np.ndarray:
        n = self.size
        ab = np.zeros((3, n))
        ab[0, 1:] = self.off
        ab[1, :] = self.diag - lam
        ab[2, :-1] = self.off
        return ab


def eigen_lowest(op: SymTridiagonal, m: int) -> np.ndarray:
    """The ``m`` smallest eigenvalues, ascending."""
    from scipy.linalg import eigh_tridiagonal

    if m > op.size:
        raise ValueError(f"requested {m} eigenvalues from an operator of size {op.size}")
    return eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i", select_range=(0, m - 1))


def eigen_lowest_batch(ops, m: int) -> np.ndarray:
    """``eigen_lowest`` of each operator, stacked into rows."""
    return np.stack([eigen_lowest(op, m) for op in ops])


def eigenvector(op: SymTridiagonal, lam: float, iterations: int = 3, seed: int = 7) -> np.ndarray:
    """Inverse iteration at the converged shift ``lam``."""
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(op.size)
    vec /= np.linalg.norm(vec)
    shift = lam
    for _ in range(iterations):
        try:
            vec = solve_banded((1, 1), op.shifted_banded(shift), vec)
        except np.linalg.LinAlgError:
            shift = lam + 1e-10 * (1.0 + abs(lam))
            vec = solve_banded((1, 1), op.shifted_banded(shift), vec)
        vec /= np.linalg.norm(vec)
    return vec


def mirror_parity(vec: np.ndarray) -> Parity | None:
    """Parity from the overlap of an eigenvector with its mirror image."""
    overlap = float(np.dot(vec, vec[::-1]))
    if overlap > PARITY_THRESHOLD:
        return Parity.EVEN
    if overlap < -PARITY_THRESHOLD:
        return Parity.ODD
    return None


def sector_operators(op: SymTridiagonal) -> tuple[SymTridiagonal, SymTridiagonal]:
    """The even and odd blocks of a mirror-symmetric operator, read off its
    right half.  Their spectra together are the spectrum of ``op``.

    With a centre node k, the even block couples it with sqrt(2) times the
    off-diagonal (the symmetrised form of the mirrored neighbour), and the
    odd block drops it.  Without one, the mirrored neighbour of the first
    right-half node is that node itself (even) or its negative (odd).
    """
    n = op.size
    k = n // 2
    if n % 2:
        even_off = op.off[k:].copy()
        even_off[0] *= math.sqrt(2.0)
        return (SymTridiagonal(op.diag[k:], even_off),
                SymTridiagonal(op.diag[k + 1:], op.off[k + 1:]))
    even_diag = op.diag[k:].copy()
    odd_diag = op.diag[k:].copy()
    even_diag[0] += op.off[k - 1]
    odd_diag[0] -= op.off[k - 1]
    return SymTridiagonal(even_diag, op.off[k:]), SymTridiagonal(odd_diag, op.off[k:])


def interior_grid(half_width: float, points: int):
    """Interior abscissae and spacing for walls at +-half_width."""
    h = 2.0 * half_width / points
    xs = -half_width + h * np.arange(1, points)
    return xs, h


def fd_operator(v_values, h: float) -> SymTridiagonal:
    """Discrete Hamiltonian from sampled potential values (Dirichlet ends)."""
    v_values = np.asarray(v_values, dtype=float)
    inv_h2 = 1.0 / (h * h)
    return SymTridiagonal(2.0 * inv_h2 + v_values, np.full(v_values.size - 1, -inv_h2))


def _trig_operator(params: ModelParams, points: int) -> SymTridiagonal:
    """The cell operator after factoring psi = cos^s(x) phi, s = min(eta, 1).

    The wall fluxes are zero: for eta < 1 the factored phi stays finite at
    the walls, so a Dirichlet condition on it would be wrong.  s is capped
    at 1 because the weight ratios grow like 1.5^2s next to the walls, and
    LAPACK bisection is only accurate to eps times the largest entry.
    """
    coef = potential_coefficients(params)
    s = min(params.eta, 1.0)
    xs, h = interior_grid(math.pi / 2, points)
    c = np.cos(xs)
    c_half = np.cos(xs[:-1] + 0.5 * h)
    inv_h2 = 1.0 / (h * h)
    # flux weight w_{i+1/2} over w_i and w_{i+1}; the walls carry none
    left = np.append(0.0, (c_half / c[1:]) ** (2 * s))
    right = np.append((c_half / c[:-1]) ** (2 * s), 0.0)
    c2 = c * c
    w_pot = (coef.quartic * c2 * c2 + coef.quadratic * c2
             + max(coef.centrifugal, 0.0) * np.tan(xs) ** 2 + s)
    off = -inv_h2 * (c_half / np.sqrt(c[:-1] * c[1:])) ** (2 * s)
    return SymTridiagonal(inv_h2 * (left + right) + w_pot, off)


def fd_hamiltonian(params: ModelParams, grid: GridConfig) -> SymTridiagonal:
    """Discretized Schroedinger operator for the model potential."""
    if params.geometry is Geometry.TRIGONOMETRIC:
        return _trig_operator(params, grid.points)
    xs, h = interior_grid(grid.half_width, grid.points)
    return fd_operator(eval_potential(params, xs), h)


def default_grid(params: ModelParams, m: int) -> GridConfig:
    """The coarse grid of each geometry for ``m`` levels when the caller gives none."""
    if params.geometry is Geometry.HYPERBOLIC:
        points = max(DEFAULT_POINTS_HYPERBOLIC, POINTS_PER_LEVEL_HYPERBOLIC * m)
        return GridConfig(half_width=DEFAULT_HALF_WIDTH, points=points)
    points = max(DEFAULT_POINTS_TRIGONOMETRIC, POINTS_PER_LEVEL_TRIGONOMETRIC * m)
    return GridConfig(half_width=math.pi / 2, points=points)


def _sector_levels(params: ModelParams, grid: GridConfig, m: int) -> np.ndarray:
    """Lowest ``m`` levels on ``grid``, alternating even and odd sector levels."""
    even, odd = sector_operators(fd_hamiltonian(params, grid))
    energies = np.empty(m)
    energies[0::2] = eigen_lowest(even, (m + 1) // 2)
    if m > 1:
        energies[1::2] = eigen_lowest(odd, m // 2)
    return energies


def numeric_spectrum(params: ModelParams, m: int = 8, grid: GridConfig | None = None) -> NumericSpectrum:
    """Lowest ``m`` levels with parities, merged from the two sector spectra
    and Richardson-extrapolated from ``grid`` and its doubled twin.

    The hyperbolic half-width is widened on the coarse grid until the wall
    value of the potential clears ten times the largest requested level;
    the doubled grid reuses that half-width, so its spacing is exactly half
    the coarse one, as the extrapolation requires.
    """
    if m < 1:
        raise ValueError(f"need at least one level, got m={m}")
    if grid is None:
        grid = default_grid(params, m)
    for _ in range(8):
        coarse = _sector_levels(params, grid, m)
        if params.geometry is Geometry.TRIGONOMETRIC:
            break
        wall = eval_potential(params, grid.half_width)
        if wall > 10.0 * max(abs(coarse[-1]), 1.0):
            break
        grid = replace(grid, half_width=grid.half_width + 0.5)
    else:
        raise ConvergenceError("could not find a wide-enough hyperbolic box")
    fine = _sector_levels(params, replace(grid, points=2 * grid.points), m)

    parities = [Parity.ODD if i % 2 else Parity.EVEN for i in range(m)]
    return NumericSpectrum(energies=(4.0 * fine - coarse) / 3.0, parities=parities)
