"""Model parameters, coupling tables, and potential evaluation.

The package solves the 1-D Schroedinger problem (units with hbar^2/2m = 1)
for a quartic-hyperbolic well

    V(x) = 4 g^2 cosh^4 x + V1 cosh^2 x + e (e - 1) tanh^2 x

and its trigonometric partner obtained from x -> ix,

    U(x) = -4 g^2 cos^4 x + 4 g (e + g + M) cos^2 x + e (e - 1) tan^2 x,

where g, e are the well parameters (``gamma``, ``eta``) and the coupling
V1 = -4 g (e + g + M) is locked to the polynomial order N through the
family-dependent integer combination M.  Four trial-function families are
supported; two of them survive the map to the trigonometric cell.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, UnsupportedFamilyError

#: Fixed cap on the polynomial order; recurrences and polynomial root
#: extraction degrade in double precision beyond this.  The benchmark
#: (``perfbench/workloads.py``) builds its blocks from orders 0..MAX_ORDER.
MAX_ORDER = 50

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 spelling


class Geometry(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    TRIGONOMETRIC = "trigonometric"

    @classmethod
    def parse(cls, text: str) -> "Geometry":
        key = text.strip().lower()
        if key in ("hyp", "hyperbolic", "h"):
            return cls.HYPERBOLIC
        if key in ("trig", "trigonometric", "t"):
            return cls.TRIGONOMETRIC
        raise ValueError(f"unknown geometry {text!r}")


class Family(enum.Enum):
    TF1 = "TF1"
    TF2 = "TF2"
    TF3 = "TF3"
    TF4 = "TF4"

    @classmethod
    def parse(cls, text: str) -> "Family":
        key = text.strip().upper()
        if key in cls.__members__:
            return cls[key]
        raise ValueError(f"unknown family {text!r}")

    @property
    def is_odd(self) -> bool:
        """Odd families carry a sinh/sin prefactor and vanish at x = 0."""
        return self in (Family.TF2, Family.TF4)


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def family_parity(family: Family) -> Parity:
    return Parity.ODD if family.is_odd else Parity.EVEN


class Normalization(enum.Enum):
    MAX_ABS_ONE = "max_abs_one"
    L2_ONE = "l2_one"


@dataclass(frozen=True)
class ModelParams:
    """Immutable problem definition.

    Constraints enforced at construction:

    * ``gamma > 0`` (the exp(-gamma cosh^2 x) factor must decay),
    * trigonometric geometry admits only TF1/TF2 with ``eta > 0``
      (the other families are not square integrable on the cell),
    * ``0 <= order <= MAX_ORDER``.

    ``eta`` is otherwise a free real; hyperbolic TF3/TF4 accept any real
    eta even though normalizability away from eta > 0 is not separately
    validated.
    """

    geometry: Geometry
    family: Family
    gamma: float
    eta: float
    order: int

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.order < 0 or int(self.order) != self.order:
            raise ValueError(f"order must be a non-negative integer, got {self.order}")
        if self.order > MAX_ORDER:
            raise ValueError(f"order {self.order} exceeds the working cap {MAX_ORDER}")
        if self.geometry is Geometry.TRIGONOMETRIC:
            if self.family not in (Family.TF1, Family.TF2):
                raise UnsupportedFamilyError(
                    f"{self.family.value} has no square-integrable trigonometric states"
                )
            if not self.eta > 0:
                raise ValueError("trigonometric geometry requires eta > 0")


@dataclass(frozen=True)
class PotentialCoefficients:
    """Derived couplings of the length-gauge potential.

    ``quartic``/``quadratic``/``centrifugal`` multiply cosh^4/cosh^2/tanh^2
    (hyperbolic) or cos^4/cos^2/tan^2 (trigonometric).  ``quadratic`` always
    equals the geometry-signed V1.
    """

    m_coupling: float
    v1: float
    quartic: float
    quadratic: float
    centrifugal: float


def coupling_m(family: Family, order: int, eta: float) -> float:
    """Family coupling M: TF1 -> 2N+1, TF2 -> 2N+2, TF3 -> 2N+2-2eta, TF4 -> 2N+3-2eta."""
    if order < 0:
        raise ValueError("order must be non-negative")
    n = order
    if family is Family.TF1:
        return 2 * n + 1
    if family is Family.TF2:
        return 2 * n + 2
    if family is Family.TF3:
        return 2 * n + 2 - 2 * eta
    return 2 * n + 3 - 2 * eta


def coupling_v1(params: ModelParams) -> float:
    """Quadratic-term coupling, -4 g (e + g + M) hyperbolic, +4 g (e + g + M) trigonometric."""
    m = coupling_m(params.family, params.order, params.eta)
    v1 = -4.0 * params.gamma * (params.eta + params.gamma + m)
    if params.geometry is Geometry.TRIGONOMETRIC:
        v1 = -v1
    return v1


def potential_coefficients(params: ModelParams) -> PotentialCoefficients:
    g, e = params.gamma, params.eta
    m = coupling_m(params.family, params.order, e)
    v1 = coupling_v1(params)
    sign = 1.0 if params.geometry is Geometry.HYPERBOLIC else -1.0
    return PotentialCoefficients(
        m_coupling=m,
        v1=v1,
        quartic=sign * 4.0 * g * g,
        quadratic=v1,
        centrifugal=e * (e - 1.0),
    )


def eval_potential(params: ModelParams, x):
    """Evaluate the potential at ``x`` (scalar or array).

    Raises :class:`DomainError` for trigonometric evaluation outside the
    open cell (-pi/2, pi/2).
    """
    coef = potential_coefficients(params)
    xs = np.asarray(x, dtype=float)
    if params.geometry is Geometry.HYPERBOLIC:
        c2 = np.cosh(xs) ** 2
        out = coef.quartic * c2 * c2 + coef.quadratic * c2 + coef.centrifugal * np.tanh(xs) ** 2
    else:
        if np.any(np.abs(xs) >= math.pi / 2):
            raise DomainError("trigonometric potential requires |x| < pi/2")
        c2 = np.cos(xs) ** 2
        out = coef.quartic * c2 * c2 + coef.quadratic * c2 + coef.centrifugal * np.tan(xs) ** 2
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def anti_isospectral_map(params: ModelParams) -> ModelParams:
    """Swap geometry under x -> ix; an involution on TF1/TF2.

    The solvable part of the partner spectrum is the sign-flipped image of
    the original one.  TF3/TF4 are rejected: their partner trial functions
    are not square integrable.
    """
    if params.family not in (Family.TF1, Family.TF2):
        raise UnsupportedFamilyError(
            f"{params.family.value} has no square-integrable anti-isospectral partner"
        )
    if not params.eta > 0:
        raise ValueError("anti-isospectral map requires eta > 0")
    other = (
        Geometry.TRIGONOMETRIC
        if params.geometry is Geometry.HYPERBOLIC
        else Geometry.HYPERBOLIC
    )
    return replace(params, geometry=other)


@dataclass(frozen=True)
class WavefunctionSamples:
    """Sampled eigenfunction on a grid, normalized per ``normalization``."""

    xs: np.ndarray
    psi: np.ndarray
    normalization: Normalization

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if xs.shape != psi.shape:
            raise ValueError("xs and psi must have matching shapes")
        if xs.size > 1 and not np.all(np.diff(xs) > 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if not np.all(np.isfinite(psi)):
            raise ValueError("wavefunction samples must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "psi", psi)

    @property
    def points(self):
        return list(zip(self.xs.tolist(), self.psi.tolist()))


def normalize_samples(xs: np.ndarray, psi: np.ndarray, normalization: Normalization) -> np.ndarray:
    if normalization is Normalization.MAX_ABS_ONE:
        peak = np.max(np.abs(psi))
        if peak == 0:
            raise ValueError("cannot normalize an identically zero function")
        return psi / peak
    norm = math.sqrt(trapezoid(psi * psi, xs))
    if norm == 0:
        raise ValueError("cannot normalize an identically zero function")
    return psi / norm
