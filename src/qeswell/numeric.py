"""Independent spectral eigensolver used to cross-check the algebra.

Both potentials are even, so -d^2/dx^2 + V(x) splits exactly into an even
and an odd parity sector.  ``numeric_spectrum`` builds each sector as a
small dense symmetric matrix and takes its lowest eigenvalues from
``numpy.linalg.eigvalsh``.  By the oscillation theorem the k-th level of
the full problem has parity (-1)^k, so the merged spectrum alternates even,
odd, even, ... from the ground state: parities are sector labels, and the
two levels of a tunnelling doublet stay apart even where they tie in
float64.

The hyperbolic line uses the sinc discrete variable representation of
Colbert and Miller (J. Chem. Phys. 96, 1982, 1992) on the half line
x_i = i h, i = 0..n (``sinc_sectors``).  Its error falls exponentially with
the ratio of the grid momentum pi / h to the largest classical momentum, so
the grid is sized from a top energy E_top: the half-line WKB count
int sqrt(max(E - V, 0)) dx / pi reaches the even sector's share of the
levels plus ``WKB_MARGIN`` there.  The box edge L carries ``BOX_ACTION`` of
tunnelling decay beyond E_top, and n = max(40, ceil(2.2 L k / pi) + 10)
with k = sqrt(E_top - min V).  A top level above E_top raises E_top and
widens the box.

The trigonometric cell uses a Galerkin in the Poschl-Teller functions
cos^eta(x) C_k^(eta)(sin x) (``gegenbauer_sectors``), in which the kinetic
and eta (eta - 1) / cos^2 x terms are diagonal and the rest of U is a
polynomial in the Gegenbauer Jacobi matrix, so each matrix element is
exact.  The basis takes the regular cos^eta wall branch for every eta > 0.

Neither basis uses the QES gauge factor, the truncation or the mu/nu maps;
they share only ``potential_coefficients`` with the algebraic routes.

The finite-difference names ``GridConfig``, ``SymTridiagonal``,
``fd_hamiltonian``, ``eigen_lowest``, ``eigen_lowest_batch``,
``eigenvector`` and ``mirror_parity``, with the helpers they call, have no
caller in ``numeric_spectrum``.  They stay callable and unchanged only
because the benchmark's tracer (``perfbench/tracing.py``) wraps them by
name, until the benchmark drops them.  ``eigen_lowest`` and ``eigenvector``
import scipy on first use; nothing else in the package loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Geometry, ModelParams, Parity, eval_potential, potential_coefficients, trapezoid
from .errors import ConvergenceError

#: WKB levels beyond the even sector's share that the hyperbolic grid holds
WKB_MARGIN = 2
#: samples per WKB action integral
WKB_SAMPLES = 64
#: tunnelling action from the outer turning point of E_top to the box edge
BOX_ACTION = 40.0
#: grid momentum pi / h over the largest classical momentum
SINC_OVERSAMPLING = 2.2
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

    def sector(self, parity: Parity) -> np.ndarray:
        """The ``parity`` levels, ascending."""
        return self.energies[sector_indices(parity, self.energies.size)]


def sector_indices(parity: Parity, m: int) -> range:
    """Positions of the ``parity`` levels among the lowest ``m``: the merged
    spectrum alternates even, odd, even, ... from the ground state."""
    return range(int(parity is Parity.ODD), m, 2)


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


def _merged_levels(even: np.ndarray, odd: np.ndarray, m: int) -> np.ndarray:
    """Lowest ``m`` levels of the two sector matrices, alternating even and odd."""
    energies = np.empty(m)
    energies[0::2] = np.linalg.eigvalsh(even)[: (m + 1) // 2]
    energies[1::2] = np.linalg.eigvalsh(odd)[: m // 2]
    return energies


def _turning_bound(coef, energy):
    """A half-width beyond which the hyperbolic potential exceeds ``energy``.

    With c = cosh^2 x >= 1 and 0 <= tanh^2 x < 1, V >= A c^2 - |B| c - |C|,
    which exceeds ``energy`` once c passes its larger root.
    """
    a, b, c = coef.quartic, abs(coef.quadratic), abs(coef.centrifugal)
    root = (b + np.sqrt(np.maximum(b * b + 4.0 * a * (energy + c), 0.0))) / (2.0 * a)
    return np.arccosh(np.sqrt(np.maximum(root, 1.0)))


def _wkb_count(params: ModelParams, coef, energies: np.ndarray) -> np.ndarray:
    """WKB level count int sqrt(max(E - V, 0)) dx / pi on the half line, per energy."""
    xs = _turning_bound(coef, energies)[:, None] * np.linspace(0.0, 1.0, WKB_SAMPLES)
    momentum = np.sqrt(np.maximum(energies[:, None] - eval_potential(params, xs), 0.0))
    return trapezoid(momentum, xs, axis=1) / math.pi


def _wkb_top(params: ModelParams, coef, levels: float) -> tuple[float, float]:
    """An energy whose half-line WKB count reaches ``levels``, and min V.

    The minimum lies where V <= V(0) = A + B.  The count is bracketed on a
    ladder of energies doubling above min V, then resolved to a sixteenth
    of the bracket.
    """
    xs = np.linspace(0.0, _turning_bound(coef, coef.quartic + coef.quadratic), WKB_SAMPLES)
    v_min = float(np.min(eval_potential(params, xs)))
    scale = coef.quartic + abs(coef.quadratic) + abs(coef.centrifugal)
    ladder = v_min + scale * 2.0 ** np.arange(-30.0, 31.0)
    k = int(np.searchsorted(_wkb_count(params, coef, ladder), levels))
    if k == ladder.size:
        raise ConvergenceError(f"no energy below {ladder[-1]:.3g} holds {levels} WKB levels")
    fine = np.linspace(ladder[k - 1] if k else v_min, ladder[k], 17)[1:]
    k = int(np.searchsorted(_wkb_count(params, coef, fine), levels))
    return float(fine[min(k, fine.size - 1)]), v_min


def _box_edge(params: ModelParams, coef, e_top: float) -> float:
    """Smallest L at which the action int sqrt(V - E_top) dx, taken outwards
    from the outer turning point of E_top, reaches ``BOX_ACTION``."""
    reach = float(_turning_bound(coef, e_top)) + 4.0
    for _ in range(4):
        xs = np.linspace(0.0, reach, 2048)
        excess = eval_potential(params, xs) - e_top
        outer = np.flatnonzero(excess <= 0.0)
        momentum = np.sqrt(np.maximum(excess, 0.0))
        momentum[: outer[-1] if outer.size else 0] = 0.0
        action = np.cumsum(0.5 * (momentum[1:] + momentum[:-1])) * (xs[1] - xs[0])
        if action[-1] >= BOX_ACTION:
            return float(xs[1 + np.searchsorted(action, BOX_ACTION)])
        reach *= 2.0
    raise ConvergenceError(f"the hyperbolic well does not confine E = {e_top:.6g}")


def sinc_sectors(v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd sinc-DVR blocks of -d^2/dx^2 + V on nodes x_i = i h.

    ``v`` holds V(x_i) for i = 0..n.  The kinetic matrix of Colbert and
    Miller, T(0) = pi^2 / (3 h^2) and T(k) = 2 (-1)^k / (k^2 h^2), folds onto
    the half line as T(i - j) + T(i + j) for the even sector, whose node 0 is
    its own mirror image (row and column 0 divided by sqrt 2), and as
    T(i - j) - T(i + j) on i, j >= 1 for the odd sector.
    """
    n = v.size - 1
    k = np.arange(1, 2 * n + 1)
    kinetic = np.concatenate(([math.pi**2 / 3.0], 2.0 * (-1.0) ** k / (k * k))) / (h * h)
    i = np.arange(n + 1)
    near, far = kinetic[np.abs(i[:, None] - i)], kinetic[i[:, None] + i]
    even = near + far
    even[0] /= math.sqrt(2.0)
    even[:, 0] /= math.sqrt(2.0)
    odd = (near - far)[1:, 1:]
    even[i, i] += v
    odd[i[:-1], i[:-1]] += v[1:]
    return even, odd


def _line_levels(params: ModelParams, m: int) -> np.ndarray:
    """Lowest ``m`` hyperbolic levels from the sinc DVR on [0, L].

    E_top is where the WKB count reaches the even sector's share of the
    levels plus ``WKB_MARGIN``.  The box holds ``BOX_ACTION`` of decay beyond
    E_top, and the spacing resolves ``SINC_OVERSAMPLING`` times the largest
    classical momentum sqrt(E_top - min V).  While the top computed level
    lies above E_top, E_top is raised and the box widened.
    """
    coef = potential_coefficients(params)
    e_top, v_min = _wkb_top(params, coef, (m + 1) // 2 + WKB_MARGIN)
    for _ in range(8):
        edge = _box_edge(params, coef, e_top)
        n = max(40, math.ceil(SINC_OVERSAMPLING * edge * math.sqrt(e_top - v_min) / math.pi) + 10)
        h = edge / n
        energies = _merged_levels(*sinc_sectors(eval_potential(params, h * np.arange(n + 1)), h), m)
        if energies.max() <= e_top:
            return energies
        e_top = v_min + 2.0 * (energies.max() - v_min)
    raise ConvergenceError("could not find a wide-enough hyperbolic box")


def gegenbauer_sectors(params: ModelParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of the cell operator on the first ``size``
    Poschl-Teller functions u_k = cos^eta(x) C_k^(eta)(sin x).

    The C_k^(eta) are orthonormal Gegenbauer polynomials, so the u_k are
    orthonormal on (-pi/2, pi/2) and -d^2/dx^2 + eta (eta - 1) / cos^2 x is
    diag((k + eta)^2) (Poschl and Teller, Z. Phys. 83, 143, 1933).  Since
    tan^2 = sec^2 - 1, the rest of U is quartic (I - J^2)^2 + quadratic
    (I - J^2) - eta (eta - 1) I, with J the Jacobi matrix of t = sin x.  J is
    built on size + 4 rows, so the cut to size x size is exact.  u_k has
    parity (-1)^k.
    """
    coef = potential_coefficients(params)
    eta = params.eta
    n = np.arange(1.0, size + 4)
    b = np.sqrt(n * (n + 2.0 * eta - 1.0) / (4.0 * (n + eta) * (n + eta - 1.0)))
    jacobi = np.diag(b, 1) + np.diag(b, -1)
    cos2 = np.eye(size + 4) - jacobi @ jacobi
    h = (coef.quartic * cos2 @ cos2 + coef.quadratic * cos2)[:size, :size]
    k = np.arange(size)
    h[k, k] += (k + eta) ** 2 - coef.centrifugal
    return h[0::2, 0::2], h[1::2, 1::2]


def numeric_spectrum(params: ModelParams, m: int = 8) -> NumericSpectrum:
    """Lowest ``m`` levels with parities, merged from the two sector spectra:
    the sinc DVR on the hyperbolic line, the Gegenbauer Galerkin on the
    trigonometric cell with 2 m + 2 floor(8 sqrt(gamma) + 20) functions."""
    if m < 1:
        raise ValueError(f"need at least one level, got m={m}")
    if params.geometry is Geometry.HYPERBOLIC:
        energies = _line_levels(params, m)
    else:
        size = 2 * m + 2 * math.floor(8.0 * math.sqrt(params.gamma) + 20.0)
        energies = _merged_levels(*gegenbauer_sectors(params, size), m)
    parities = [Parity.ODD if i % 2 else Parity.EVEN for i in range(m)]
    return NumericSpectrum(energies=energies, parities=parities)
