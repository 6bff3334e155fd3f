"""Cross-validation, comparison tables, and flat-file emission.

Output schemas (frozen; golden tests depend on the field names):

* spectrum JSON: ``{"params", "method", "energies", "roots",
  "coefficients", "complex_energies", "diagnostics"}``
* spectrum CSV: one row per level with columns ``geometry, family, gamma,
  eta, order, method, level, energy, roots, coefficients`` (the last two
  semicolon-joined)
* validation JSON: ``{"params", "tolerances", "energies", "matched_indices",
  "matched_parities", "checks", "passed"}``
* table JSON: ``{"table_id", "geometry", "gamma", "eta", "columns"}`` with
  per-entry ``{"value", "numeric", "qes_exact", "qes_value", "deviation",
  "parity"}``
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import bethe, heun, liealg, numeric
from .core import (
    Family,
    Geometry,
    ModelParams,
    Normalization,
    Parity,
    anti_isospectral_map,
    eval_potential,
    family_parity,
)

TABLE_LAYOUTS = {
    1: (Geometry.HYPERBOLIC, (Family.TF1, Family.TF2)),
    2: (Geometry.HYPERBOLIC, (Family.TF3, Family.TF4)),
    3: (Geometry.TRIGONOMETRIC, (Family.TF1, Family.TF2)),
}
TABLE_ORDERS = (0, 1, 2)


@dataclass(frozen=True)
class Tolerances:
    """Check tolerances; ``numeric`` defaults per geometry when None."""

    method: float = 1e-9
    numeric: float | None = None
    anti_isospectral: float = 1e-9

    def numeric_for(self, geometry: Geometry) -> float:
        if self.numeric is not None:
            return self.numeric
        return 5e-3 if geometry is Geometry.HYPERBOLIC else 1e-2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    params: ModelParams
    tolerances: Tolerances
    energies: dict
    matched_indices: list
    matched_parities: list
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class TableEntry:
    value: float
    numeric: float
    qes_exact: bool
    qes_value: float | None
    deviation: float | None
    parity: str | None


@dataclass(frozen=True)
class TableColumn:
    family: Family
    order: int
    entries: list


@dataclass(frozen=True)
class TableReport:
    table_id: int
    geometry: Geometry
    gamma: float
    eta: float
    columns: list


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------

def _pairwise_deviation(sets):
    present = [np.asarray(s) for s in sets if s is not None]
    dev = 0.0
    for i in range(len(present)):
        for j in range(i + 1, len(present)):
            if present[i].size != present[j].size:
                return math.inf
            dev = max(dev, float(np.max(np.abs(present[i] - present[j]))) if present[i].size else 0.0)
    return dev


def _sector_matches(spectrum: numeric.NumericSpectrum, qes, parity: Parity) -> tuple[list, list, bool]:
    """Embed the solvable energies ``qes`` in the ``parity`` levels of ``spectrum``.

    Returns the index of each energy's nearest level of ``parity``, each
    energy's distance to that level, and whether ascending energies land on
    strictly ascending levels.  A family's solvable levels all lie in its
    parity sector, so a level of the other sector is never a candidate, even
    when a tunnelling doublet puts it closer.  A sector with fewer levels
    than there are energies matches none of them.
    """
    sector = np.flatnonzero([p is parity for p in spectrum.parities])
    if sector.size < len(qes):
        return [], [], False
    indices = [int(sector[np.argmin(np.abs(spectrum.energies[sector] - e))]) for e in qes]
    deviations = [abs(float(spectrum.energies[i]) - float(e)) for i, e in zip(indices, qes)]
    return indices, deviations, all(i < j for i, j in zip(indices, indices[1:]))


def cross_validate(params: ModelParams, tolerances: Tolerances | None = None) -> ValidationReport:
    """Run every solver on ``params`` and compare the results.

    Checks: agreement of the three algebraic routes, sign-flipped equality
    with the anti-isospectral partner (TF1/TF2 only), one-to-one embedding
    of the solvable energies in the independent numeric spectrum, and parity of
    the matched numeric levels.  Solver failures are recorded as failed
    checks rather than raised.
    """
    tol = tolerances or Tolerances()
    energies: dict = {}
    checks: list = []
    matched_indices: list = []
    matched_parities: list = []

    algebraic = {}
    for name, solve in (
        ("bethe", lambda: bethe.solve_polynomial_system(params).energies),
        ("heun", lambda: heun.qes_energies_via_determinant(params)),
        ("lie", lambda: liealg.qes_energies_via_recurrence(params)),
    ):
        try:
            algebraic[name] = np.asarray(solve(), dtype=float)
            energies[name] = algebraic[name].tolist()
        except Exception as exc:  # recorded, not raised
            algebraic[name] = None
            checks.append(CheckResult(f"{name}_solver", False, detail=repr(exc)))

    dev = _pairwise_deviation(list(algebraic.values()))
    checks.append(
        CheckResult(
            "methods_agree",
            dev <= tol.method,
            deviation=None if math.isinf(dev) else dev,
            detail="pairwise max deviation of the algebraic routes",
        )
    )

    if params.family in (Family.TF1, Family.TF2):
        try:
            partner = anti_isospectral_map(params)
            partner_energies = heun.qes_energies_via_determinant(partner)
            mine = algebraic.get("heun")
            if mine is None or partner_energies.size != mine.size:
                raise ValueError("partner level count differs")
            anti_dev = float(np.max(np.abs(np.sort(partner_energies) + np.sort(mine)[::-1])))
            checks.append(
                CheckResult(
                    "anti_isospectral",
                    anti_dev <= tol.anti_isospectral,
                    deviation=anti_dev,
                    detail="partner energies versus sign-flipped own energies",
                )
            )
        except Exception as exc:
            checks.append(CheckResult("anti_isospectral", False, detail=repr(exc)))

    qes = algebraic.get("heun")
    try:
        spectrum = numeric.numeric_spectrum(params, m=2 * params.order + 4)
        energies["numeric"] = spectrum.energies.tolist()
        if qes is None:
            raise ValueError("no algebraic energies to embed")
        want_parity = family_parity(params.family)
        indices, devs, one_to_one = _sector_matches(spectrum, qes, want_parity)
        matched_indices.extend(indices)
        matched_parities.extend(spectrum.parities[i].value for i in indices)
        max_dev = max(devs, default=0.0)
        checks.append(
            CheckResult(
                "numeric_embedding",
                max_dev <= tol.numeric_for(params.geometry) and one_to_one,
                deviation=max_dev,
                detail="distance of each solvable energy to its nearest numeric level "
                "of the family's parity; ascending energies must match strictly ascending levels",
            )
        )
        checks.append(
            CheckResult(
                "parity_match",
                all(p == want_parity.value for p in matched_parities),
                detail=f"matched numeric levels must be {want_parity.value}",
            )
        )
    except Exception as exc:
        checks.append(CheckResult("numeric_embedding", False, detail=repr(exc)))

    return ValidationReport(
        params=params,
        tolerances=tol,
        energies=energies,
        matched_indices=matched_indices,
        matched_parities=matched_parities,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# comparison tables
# ---------------------------------------------------------------------------

def reproduce_table(
    table_id: int,
    gamma: float = 2.0,
    eta: float = 2.0,
    levels: int = 8,
) -> TableReport:
    """Numeric-versus-algebraic comparison for one of the reference layouts.

    id 1: hyperbolic TF1/TF2; id 2: hyperbolic TF3/TF4; id 3: trigonometric
    TF1/TF2; orders 0..2 per family.  Entries matched to a solvable energy
    display the exact algebraic value and are marked ``qes_exact``.  Raises
    ``ValueError`` when ``levels`` cannot hold a column's solvable levels on
    distinct levels of the family's parity.
    """
    if table_id not in TABLE_LAYOUTS:
        raise ValueError(f"table id must be one of {sorted(TABLE_LAYOUTS)}")
    geometry, families = TABLE_LAYOUTS[table_id]
    params_list = [
        ModelParams(geometry, family, gamma, eta, order)
        for family in families
        for order in TABLE_ORDERS
    ]
    columns = []
    for params in params_list:
        spectrum = numeric.numeric_spectrum(params, m=levels)
        qes = heun.qes_energies_via_determinant(params)
        indices, devs, one_to_one = _sector_matches(spectrum, qes, family_parity(params.family))
        if not one_to_one:
            raise ValueError(
                f"{levels} levels cannot hold the {len(qes)} solvable levels of "
                f"{params.family.value} N={params.order} one to one"
            )
        exact = {i: (float(e), dev) for i, e, dev in zip(indices, qes, devs)}
        entries = []
        for i, (e_num, parity) in enumerate(zip(spectrum.energies, spectrum.parities)):
            qes_value, deviation = exact.get(i, (None, None))
            entries.append(
                TableEntry(
                    value=float(e_num) if qes_value is None else qes_value,
                    numeric=float(e_num),
                    qes_exact=qes_value is not None,
                    qes_value=qes_value,
                    deviation=deviation,
                    parity=parity.value,
                )
            )
        columns.append(TableColumn(family=params.family, order=params.order, entries=entries))
    return TableReport(
        table_id=table_id, geometry=geometry, gamma=gamma, eta=eta, columns=columns
    )


def render_table_text(report: TableReport) -> str:
    """Plain-text rendering; exact entries carry a trailing asterisk."""
    heads = [f"{col.family.value} N={col.order}" for col in report.columns]
    width = max(12, max(len(h) for h in heads) + 2)
    lines = [
        f"geometry={report.geometry.value} gamma={report.gamma:g} eta={report.eta:g}",
        "level" + "".join(h.rjust(width) for h in heads),
    ]
    n_rows = max(len(col.entries) for col in report.columns)
    for i in range(n_rows):
        cells = []
        for col in report.columns:
            if i < len(col.entries):
                e = col.entries[i]
                cells.append(f"{e.value:.3f}{'*' if e.qes_exact else ' '}".rjust(width))
            else:
                cells.append(" ".rjust(width))
        lines.append(f"E_{i}".ljust(5) + "".join(cells))
    lines.append("max |exact - numeric| per column: " + "  ".join(
        f"{max((e.deviation for e in col.entries if e.deviation is not None), default=0.0):.2e}"
        for col in report.columns
    ))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# wavefunction emission
# ---------------------------------------------------------------------------

def emit_wavefunctions(
    params: ModelParams,
    indices,
    xmin: float,
    xmax: float,
    samples: int,
    destination,
) -> str:
    """Write CSV columns x, potential, psi_<i>... for the selected levels."""
    spectrum = bethe.solve_polynomial_system(params)
    for idx in indices:
        if idx < 0 or idx >= len(spectrum.levels):
            raise IndexError(
                f"level index {idx} outside the {len(spectrum.levels)} solvable levels"
            )
    xs = np.linspace(xmin, xmax, samples)
    columns = [
        bethe.assemble_wavefunction(params, spectrum.levels[idx], xs, Normalization.MAX_ABS_ONE).psi
        for idx in indices
    ]
    v = np.asarray(eval_potential(params, xs))
    path = str(destination)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "potential"] + [f"psi_{idx}" for idx in indices])
            for row in zip(xs, v, *columns):
                writer.writerow([f"{val:.12g}" for val in row])
    except OSError as exc:
        raise OSError(f"cannot write wavefunction samples to {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def params_to_dict(params: ModelParams) -> dict:
    return {
        "geometry": params.geometry.value,
        "family": params.family.value,
        "gamma": params.gamma,
        "eta": params.eta,
        "order": params.order,
    }


def params_from_dict(data: dict) -> ModelParams:
    return ModelParams(
        geometry=Geometry(data["geometry"]),
        family=Family(data["family"]),
        gamma=float(data["gamma"]),
        eta=float(data["eta"]),
        order=int(data["order"]),
    )


def spectrum_to_dict(spectrum: bethe.QesSpectrum, method: str = "bethe") -> dict:
    return {
        "params": params_to_dict(spectrum.params),
        "method": method,
        "energies": [lvl.energy for lvl in spectrum.levels],
        "roots": [lvl.bethe_roots.tolist() for lvl in spectrum.levels],
        "coefficients": [lvl.monic_coeffs.tolist() for lvl in spectrum.levels],
        "complex_energies": [[c.real, c.imag] for c in spectrum.complex_energies],
        "diagnostics": list(spectrum.diagnostics),
    }


def spectrum_from_dict(data: dict) -> bethe.QesSpectrum:
    levels = [
        bethe.QesLevel(
            energy=float(e),
            bethe_roots=np.asarray(r, dtype=float),
            monic_coeffs=np.asarray(c, dtype=float),
        )
        for e, r, c in zip(data["energies"], data["roots"], data["coefficients"])
    ]
    return bethe.QesSpectrum(
        params=params_from_dict(data["params"]),
        levels=levels,
        complex_energies=[complex(re, im) for re, im in data.get("complex_energies", [])],
        diagnostics=list(data.get("diagnostics", [])),
    )


def spectrum_to_csv_rows(spectrum: bethe.QesSpectrum, method: str = "bethe") -> list:
    p = spectrum.params
    rows = [[
        "geometry", "family", "gamma", "eta", "order", "method",
        "level", "energy", "roots", "coefficients",
    ]]
    for i, lvl in enumerate(spectrum.levels):
        rows.append([
            p.geometry.value, p.family.value, p.gamma, p.eta, p.order, method,
            i, lvl.energy,
            ";".join(f"{r:.12g}" for r in lvl.bethe_roots),
            ";".join(f"{c:.12g}" for c in lvl.monic_coeffs),
        ])
    return rows


def report_to_dict(report: ValidationReport) -> dict:
    return {
        "params": params_to_dict(report.params),
        "tolerances": {
            "method": report.tolerances.method,
            "numeric": report.tolerances.numeric,
            "anti_isospectral": report.tolerances.anti_isospectral,
        },
        "energies": report.energies,
        "matched_indices": list(report.matched_indices),
        "matched_parities": list(report.matched_parities),
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "deviation": c.deviation,
                "detail": c.detail,
            }
            for c in report.checks
        ],
        "passed": report.passed,
    }


def report_from_dict(data: dict) -> ValidationReport:
    tol = data["tolerances"]
    return ValidationReport(
        params=params_from_dict(data["params"]),
        tolerances=Tolerances(
            method=tol["method"],
            numeric=tol["numeric"],
            anti_isospectral=tol["anti_isospectral"],
        ),
        energies=data["energies"],
        matched_indices=list(data["matched_indices"]),
        matched_parities=list(data["matched_parities"]),
        checks=[
            CheckResult(
                name=c["name"],
                passed=c["passed"],
                deviation=c["deviation"],
                detail=c["detail"],
            )
            for c in data["checks"]
        ],
    )


def table_to_dict(report: TableReport) -> dict:
    return {
        "table_id": report.table_id,
        "geometry": report.geometry.value,
        "gamma": report.gamma,
        "eta": report.eta,
        "columns": [
            {
                "family": col.family.value,
                "order": col.order,
                "entries": [
                    {
                        "value": e.value,
                        "numeric": e.numeric,
                        "qes_exact": e.qes_exact,
                        "qes_value": e.qes_value,
                        "deviation": e.deviation,
                        "parity": e.parity,
                    }
                    for e in col.entries
                ],
            }
            for col in report.columns
        ],
    }


def render_report_text(report: ValidationReport) -> str:
    lines = [f"validation for {json.dumps(params_to_dict(report.params))}"]
    for name, values in report.energies.items():
        lines.append(f"  {name:>8}: " + ", ".join(f"{v:.6f}" for v in values))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        dev = "" if check.deviation is None else f" (deviation {check.deviation:.3e})"
        lines.append(f"  [{status}] {check.name}{dev} - {check.detail}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
