"""Seeded inputs, operations and correctness checks of the workloads.

Every workload is a stream of blocks drawn from ``--seed``.  A block is the
smallest set of operations whose mix matches the workload's distribution,
so a run that measures whole blocks sees the same mix on every seed:

* ``tables``: one operation reproduces tables 1, 2 and 3 at the default
  grids and 8 levels.  Seed 0 uses the paper's point gamma = eta = 2; other
  seeds draw (gamma, eta) from the acceptance sweep grid.
* ``algebra``: one operation solves one point by the three algebraic
  routes, as ``qeswell spectrum --method all`` does, at gamma ~ U(0.5, 4),
  eta ~ U(0.5, 3).  A block holds every order 0..MAX_ORDER twice, so N is
  uniform and the 90th percentile of a block has ten samples beyond it; the
  six (geometry, family) pairs are dealt over the orders in a seeded
  rotation, shifted by three for the second pass, so every pair meets low
  and high orders.

Operations return an output fingerprint (compared bitwise between the
traced and the untraced run) and a failure description or ``None``.  The
checks run outside the timed region.  No input is dropped or redrawn when
it fails: the known high-order defects count in ``fail_frac``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

from qeswell import bethe, heun, liealg, report
from qeswell.core import MAX_ORDER, Family, Geometry, ModelParams

HYP, TRIG = Geometry.HYPERBOLIC, Geometry.TRIGONOMETRIC
PAIRS = tuple((HYP, f) for f in Family) + ((TRIG, Family.TF1), (TRIG, Family.TF2))
SWEEP_GAMMAS = (0.5, 1.0, 2.0, 4.0)
SWEEP_ETAS = (0.5, 1.0, 1.5, 2.0, 3.0)
TABLE_IDS = (1, 2, 3)
TABLE_LEVELS = 8
#: relative half-width of the bracket in which the termination determinant
#: must change sign around each algebraic energy
ORACLE_BRACKET = 1e-6
ORACLE_DIGITS = 50


@dataclass(frozen=True)
class Op:
    """One operation's input; ``params`` is None for a tables operation."""

    workload: str
    gamma: float
    eta: float
    params: ModelParams | None = None

    def describe(self) -> str:
        if self.params is None:
            return f"tables gamma={self.gamma:g} eta={self.eta:g}"
        p = self.params
        return f"{p.geometry.value} {p.family.value} gamma={p.gamma:.6g} eta={p.eta:.6g} N={p.order}"


def _algebra_point(rng: random.Random, pair, order: int) -> Op:
    gamma, eta = rng.uniform(0.5, 4.0), rng.uniform(0.5, 3.0)
    return Op("algebra", gamma, eta, ModelParams(pair[0], pair[1], gamma, eta, order))


def blocks(workload: str, seed: int):
    """Endless stream of operation blocks for ``workload``, fixed by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "tables":
            if seed == 0:
                yield [Op("tables", 2.0, 2.0)]
            else:
                yield [Op("tables", rng.choice(SWEEP_GAMMAS), rng.choice(SWEEP_ETAS))]
        elif workload == "algebra":
            pairs = list(PAIRS)
            rng.shuffle(pairs)
            block = [_algebra_point(rng, pairs[(n + shift) % len(pairs)], n)
                     for shift in (0, len(pairs) // 2) for n in range(MAX_ORDER + 1)]
            rng.shuffle(block)
            yield block
        else:
            raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations: the timed call, and the output it hands to the check
# ---------------------------------------------------------------------------

def _algebra_routes(params):
    out = {}
    for name, solve in (
        ("bethe", lambda: bethe.solve_polynomial_system(params).energies),
        ("heun", lambda: heun.qes_energies_via_determinant(params)),
        ("lie", lambda: liealg.qes_energies_via_recurrence(params)),
    ):
        try:
            out[name] = np.asarray(solve(), dtype=float)
        except Exception as exc:  # a failing route is recorded, the run goes on
            out[name] = exc
    return out


def timed_call(op: Op):
    """The program call of one operation; its result goes to the checker."""
    if op.workload == "tables":
        return [report.reproduce_table(t, op.gamma, op.eta, TABLE_LEVELS) for t in TABLE_IDS]
    return _algebra_routes(op.params)


def fingerprint(op: Op, output) -> str:
    """Digest of every output bit that the check looks at."""
    if op.workload == "tables":
        payload = [report.table_to_dict(t) for t in output]
    else:
        payload = {k: (v.tobytes().hex() if isinstance(v, np.ndarray) else repr(v)) for k, v in output.items()}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# correctness checks (outside the timed region)
# ---------------------------------------------------------------------------

def _reference_columns(root: Path) -> dict:
    spec = importlib.util.spec_from_file_location("reference_values", root / "tests" / "reference_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COLUMNS


class Checker:
    """Correctness check of one operation's output; returns a failure or None."""

    def __init__(self, root: Path):
        self._columns = _reference_columns(root)

    def __call__(self, op: Op, output) -> str | None:
        if isinstance(output, Exception):
            return f"raised {output!r}"
        if op.workload == "tables":
            return self._tables(op, output)
        return self._algebra(op, output)

    def _tables(self, op, tables):
        paper_point = op.gamma == 2.0 and op.eta == 2.0
        for table in tables:
            tol = 5e-3 if table.geometry is HYP else 1e-2
            for col in table.columns:
                where = f"table {table.table_id} {col.family.value} N={col.order}"
                numeric = np.array([e.numeric for e in col.entries])
                if numeric.size != TABLE_LEVELS or not np.all(np.isfinite(numeric)):
                    return f"{where}: {numeric.size} finite levels expected {TABLE_LEVELS}"
                if paper_point:
                    ref = np.array(self._columns[(table.table_id, col.family, col.order)])
                    dev = float(np.max(np.abs(numeric - ref)))
                    if dev > tol:
                        return f"{where}: deviation {dev:.3g} from the reference column"
                exact = [e for e in col.entries if e.qes_exact]
                if len(exact) != col.order + 1:
                    return f"{where}: {len(exact)} exact entries, expected {col.order + 1}"
                worst = max(e.deviation for e in exact)
                if worst > tol:
                    return f"{where}: qes_exact deviation {worst:.3g} exceeds {tol:g}"
        return None

    def _algebra(self, op, routes):
        params = op.params
        coeffs = [liealg.recurrence_coeffs(params, k) for k in range(params.order + 1)]
        certified = {}
        for name, energies in routes.items():
            if isinstance(energies, Exception):
                return f"{name} raised {energies!r}"
            if energies.size != params.order + 1:
                return f"{name} returned {energies.size} real energies, expected {params.order + 1}"
            key = energies.tobytes()
            if key not in certified:
                certified[key] = _certify(coeffs, energies)
            if certified[key] is not None:
                return f"{name}: {certified[key]}"
        return None


def _certify(coeffs, energies) -> str | None:
    """Every energy must sit in its own bracket where the degree-(N+1)
    termination determinant P_{N+1}(E) changes sign (evaluated in mpmath),
    so the N+1 brackets hold the N+1 roots."""
    with mpmath.workdps(ORACLE_DIGITS):
        cs = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in coeffs]

        def value(e):
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for a, b in cs:
                prev, cur = cur, (e - b) * cur - a * prev
            return cur

        last_hi = None
        for energy in np.sort(energies):
            if not np.isfinite(energy):
                return "non-finite energy"
            half = ORACLE_BRACKET * max(1.0, abs(float(energy)))
            lo, hi = mpmath.mpf(float(energy)) - half, mpmath.mpf(float(energy)) + half
            if last_hi is not None and lo <= last_hi:
                return f"energy {float(energy):.12g} and its neighbour share a bracket"
            if mpmath.sign(value(lo)) * mpmath.sign(value(hi)) > 0:
                return f"no sign change of the termination determinant around {float(energy):.12g}"
            last_hi = hi
    return None
