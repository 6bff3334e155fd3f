"""Root extraction: the three-term eigen-kernel and companion-matrix roots.

:func:`three_term_roots` returns every zero of a three-term determinant
recurrence as the eigenvalues of a diagonally scaled tridiagonal matrix,
Newton-polished on the recurrence itself in ``np.longdouble``; the
algebraic energy routes end in such a determinant.  :func:`real_roots`
takes the roots of a polynomial with ascending coefficients
(``p(z) = c[0] + c[1] z + ...``) from its companion matrix.  The Aberth-Ehrlich iteration :func:`aberth_roots` has no
caller in the package; it is kept for the benchmark's tracer, which wraps
it by name.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

ABERTH_TOL = 1e-13
ABERTH_MAX_ITER = 200
#: roots with |Im z| <= REAL_TOL * (1 + |Re z|) are reported as real
REAL_TOL = 1e-8
#: Newton corrections applied to each eigenvalue of the three-term kernel
POLISH_STEPS = 4


def _quadratic_roots(c0, c1, c2):
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(complex(disc))
    q = -0.5 * (c1 + sq) if c1.real >= 0 else -0.5 * (c1 - sq)
    if q == 0:
        return np.array([0.0j, 0.0j])
    return np.array([q / c2, c0 / q])


def _initial_guesses(coeffs):
    deg = coeffs.size - 1
    lead = coeffs[-1]
    center = -coeffs[-2] / (deg * lead)
    # Fujiwara bound on root magnitudes, taken about the origin
    mags = np.abs(coeffs[:-1] / lead)
    with np.errstate(divide="ignore"):
        radius = 2.0 * np.max(mags ** (1.0 / np.arange(deg, 0, -1)))
    radius = max(radius, 1e-3) + abs(center)
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    return center + radius * np.exp(1j * angles)


def _horner_pair(coeffs, z):
    """Evaluate p, p', and a running roundoff bound for |p| at points ``z``."""
    p = np.full_like(z, coeffs[-1])
    dp = np.zeros_like(z)
    err = np.abs(p)
    absz = np.abs(z)
    for c in coeffs[-2::-1]:
        dp = dp * z + p
        p = p * z + c
        err = err * absz + np.abs(p)
    return p, dp, np.finfo(float).eps * err


def aberth_roots(coeffs, tol: float = ABERTH_TOL, max_iter: int = ABERTH_MAX_ITER) -> np.ndarray:
    """All complex roots of the polynomial with ascending ``coeffs``.

    A root is accepted once its correction is below ``tol`` (relative) or
    the polynomial value falls under the attainable roundoff floor of the
    Horner evaluation, whichever comes first.
    """
    c = np.asarray(coeffs, dtype=complex)
    while c.size > 1 and c[-1] == 0:
        c = c[:-1]
    deg = c.size - 1
    if deg <= 0:
        return np.array([], dtype=complex)
    if deg == 1:
        return np.array([-c[0] / c[1]])
    if deg == 2:
        return _quadratic_roots(*c)

    z = _initial_guesses(c)
    for _ in range(max_iter):
        p, dp, floor = _horner_pair(c, z)
        dp = np.where(dp == 0, 1e-300, dp)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        recip = 1.0 / diff
        np.fill_diagonal(recip, 0.0)
        denom = 1.0 - newton * recip.sum(axis=1)
        denom = np.where(denom == 0, 1e-300, denom)
        step = newton / denom
        at_floor = np.abs(p) <= 4.0 * floor
        step = np.where(at_floor, 0.0, step)
        z = z - step
        if np.all(at_floor | (np.abs(step) <= tol * (1.0 + np.abs(z)))):
            return z
    raise ConvergenceError(f"Aberth iteration did not converge in {max_iter} steps")


def split_real(roots, tol: float = REAL_TOL):
    """Partition ``roots`` into (sorted real parts, remaining complex values)."""
    roots = np.asarray(roots, dtype=complex)
    mask = np.abs(roots.imag) <= tol * (1.0 + np.abs(roots.real))
    real = np.sort(roots.real[mask])
    complex_rest = [complex(r) for r in roots[~mask]]
    return real, complex_rest


def real_roots(coeffs, tol: float = REAL_TOL):
    """Sorted real roots plus leftover complex ones, from the companion matrix."""
    return split_real(np.polynomial.polynomial.polyroots(coeffs), tol=tol)


def _three_term_with_derivative(diag, coupling, x):
    """Final determinant d_n and its derivative at every point of ``x``.

    The shifts x - diag[i] and the couplings are broadcast to rows up front,
    so the loop multiplies arrays only (an array-by-scalar product costs
    nearly twice as much at these sizes).
    """
    shifted = x - diag[:, None]
    couplings = coupling[:, None] * np.ones_like(x)
    d_prev, d = np.ones_like(x), shifted[0]
    dp_prev, dp = np.zeros_like(x), np.ones_like(x)
    for xa, c in zip(shifted[1:], couplings):
        d_prev, d, dp_prev, dp = d, xa * d - c * d_prev, dp, d + xa * dp - c * dp_prev
    return d, dp


def three_term_roots(diag, coupling) -> np.ndarray:
    """All zeros of d_n for d_{i+1} = (x - diag[i]) d_i - coupling[i-1] d_{i-1}, d_0 = 1.

    The zeros are the eigenvalues of the tridiagonal matrix with ``diag``
    on the diagonal and off-diagonals of magnitude sqrt|coupling|, the sign
    of each coupling kept on the superdiagonal.  This scaling keeps the
    matrix balanced; the plain (1, coupling) Jacobi form loses levels once
    a coupling is exactly 0.  Each eigenvalue then gets at most
    ``POLISH_STEPS`` Newton corrections on the recurrence, all roots at once,
    evaluated in ``np.longdouble``/``np.clongdouble`` and cast back to
    complex128.  At high order the recurrence loses digits to cancellation,
    which the wider mantissa (64 bits on x87) absorbs.  Where ``longdouble``
    is float64, the polish reduces to a plain float64 Newton polish.
    """
    diag = np.asarray(diag, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    off = np.sqrt(np.abs(coupling))
    mat = np.diag(diag) + np.diag(np.copysign(off, coupling), 1) + np.diag(off, -1)
    x = np.linalg.eigvals(mat)
    # eigvals returns a real array when every eigenvalue is real; the polish
    # then stays in real arithmetic, nearly twice as fast as complex
    x = x.astype(np.clongdouble if np.iscomplexobj(x) else np.longdouble)
    diag, coupling = diag.astype(np.longdouble), coupling.astype(np.longdouble)
    active = np.arange(x.size)
    for _ in range(POLISH_STEPS):
        val, der = _three_term_with_derivative(diag, coupling, x[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = val / der
        step[~np.isfinite(step)] = 0.0  # a zero or overflowed derivative stops that root
        x[active] -= step
        active = active[np.abs(step) > 1e-15 * (1.0 + np.abs(x[active]))]
        if active.size == 0:
            break
    return x.astype(complex)
