"""Command-line interface.

Subcommands: ``spectrum`` (solvable/numeric levels), ``table`` (reference
comparison tables), ``check`` (cross-validation; exit code reflects the
outcome), ``wavefunction`` (CSV sample emission).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bethe, heun, liealg, numeric, report
from .core import Family, Geometry, ModelParams


def _add_model_args(parser):
    parser.add_argument("--geometry", required=True, choices=["hyp", "trig"],
                        help="hyperbolic line or trigonometric cell")
    parser.add_argument("--family", required=True, choices=["tf1", "tf2", "tf3", "tf4"])
    parser.add_argument("--gamma", type=float, required=True, help="well parameter gamma > 0")
    parser.add_argument("--eta", type=float, required=True, help="well parameter eta")
    parser.add_argument("--order", type=int, required=True, help="polynomial order N >= 0")


def _params(args) -> ModelParams:
    return ModelParams(
        geometry=Geometry.parse(args.geometry),
        family=Family.parse(args.family),
        gamma=args.gamma,
        eta=args.eta,
        order=args.order,
    )


def _cmd_spectrum(args) -> int:
    params = _params(args)
    if args.method == "numeric":
        spec = numeric.numeric_spectrum(params, m=args.levels)
        payload = {
            "params": report.params_to_dict(params),
            "method": "numeric",
            "energies": spec.energies.tolist(),
            "parities": [p.value for p in spec.parities],
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        elif args.format == "csv":
            rows = [["level", "energy", "parity"]] + [
                [i, e, p.value]
                for i, (e, p) in enumerate(zip(spec.energies, spec.parities))
            ]
            _print_csv(rows)
        else:
            for i, (e, p) in enumerate(zip(spec.energies, spec.parities)):
                print(f"E_{i} = {e:.6f}  [{p.value}]")
        return 0

    if args.method == "all":
        spectrum = bethe.solve_polynomial_system(params)
        methods = {
            "bethe": spectrum.energies.tolist(),
            "heun": heun.qes_energies_via_determinant(params).tolist(),
            "lie": liealg.qes_energies_via_recurrence(params).tolist(),
        }
        if args.format == "json":
            payload = report.spectrum_to_dict(spectrum, method="all")
            payload["methods"] = methods
            print(json.dumps(payload, indent=2))
        elif args.format == "csv":
            _print_csv(report.spectrum_to_csv_rows(spectrum, method="all"))
        else:
            print(f"{'level':>5} {'bethe':>14} {'heun':>14} {'lie':>14}")
            for i in range(len(methods["bethe"])):
                print(f"{i:>5} {methods['bethe'][i]:>14.6f} "
                      f"{methods['heun'][i]:>14.6f} {methods['lie'][i]:>14.6f}")
            for note in spectrum.diagnostics:
                print(f"note: {note}")
        return 0

    if args.method == "heun":
        energies = heun.qes_energies_via_determinant(params)
    elif args.method == "lie":
        energies = liealg.qes_energies_via_recurrence(params)
    else:
        spectrum = bethe.solve_polynomial_system(params)
        if args.format == "json":
            print(json.dumps(report.spectrum_to_dict(spectrum), indent=2))
        elif args.format == "csv":
            _print_csv(report.spectrum_to_csv_rows(spectrum))
        else:
            for i, lvl in enumerate(spectrum.levels):
                roots = ", ".join(f"{r:.6f}" for r in lvl.bethe_roots)
                print(f"E_{i} = {lvl.energy:.6f}  roots: [{roots}]")
            for note in spectrum.diagnostics:
                print(f"note: {note}")
        return 0

    if args.format == "json":
        print(json.dumps({
            "params": report.params_to_dict(params),
            "method": args.method,
            "energies": energies.tolist(),
        }, indent=2))
    elif args.format == "csv":
        _print_csv([["level", "energy"]] + [[i, e] for i, e in enumerate(energies)])
    else:
        for i, e in enumerate(energies):
            print(f"E_{i} = {e:.6f}")
    return 0


def _print_csv(rows):
    import csv as _csv

    writer = _csv.writer(sys.stdout)
    writer.writerows(rows)


def _cmd_table(args) -> int:
    tab = report.reproduce_table(args.id, gamma=args.gamma, eta=args.eta, levels=args.levels)
    if args.format == "json":
        print(json.dumps(report.table_to_dict(tab), indent=2))
    else:
        print(report.render_table_text(tab))
    return 0


def _cmd_check(args) -> int:
    params = _params(args)
    tol = report.Tolerances(method=args.tol_method, numeric=args.tol_numeric)
    result = report.cross_validate(params, tolerances=tol)
    print(report.render_report_text(result))
    return 0 if result.passed else 1


def _cmd_wavefunction(args) -> int:
    params = _params(args)
    indices = [int(tok) for tok in args.indices.split(",") if tok.strip()]
    xmin, xmax = args.xmin, args.xmax
    if params.geometry is Geometry.TRIGONOMETRIC:
        edge = math.pi / 2 - 1e-3
        xmin = max(xmin, -edge)
        xmax = min(xmax, edge)
    path = report.emit_wavefunctions(params, indices, xmin, xmax, args.samples, args.out)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeswell",
        description="Solvable spectra of the cosh^4 well and its cos^4 partner.",
        epilog="Environment: QES_GRID_POINTS overrides the numeric grid point count.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="solvable or numeric levels",
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_model_args(p_spec)
    p_spec.add_argument("--method", default="all",
                        choices=["bethe", "heun", "lie", "numeric", "all"])
    p_spec.add_argument("--format", default="table", choices=["table", "json", "csv"])
    p_spec.add_argument("--levels", type=int, default=8,
                        help="levels for the numeric method")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_table = sub.add_parser("table", help="reference comparison table",
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_table.add_argument("--id", type=int, required=True, choices=[1, 2, 3],
                         help="1: hyp TF1/TF2, 2: hyp TF3/TF4, 3: trig TF1/TF2")
    p_table.add_argument("--gamma", type=float, default=2.0)
    p_table.add_argument("--eta", type=float, default=2.0)
    p_table.add_argument("--levels", type=int, default=8)
    p_table.add_argument("--format", default="table", choices=["table", "json"])
    p_table.set_defaults(func=_cmd_table)

    p_check = sub.add_parser("check", help="cross-validate all methods (exit 1 on failure)",
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_model_args(p_check)
    p_check.add_argument("--tol-method", type=float, default=1e-9,
                         help="tolerance for method agreement")
    p_check.add_argument("--tol-numeric", type=float, default=None,
                         help="tolerance for numeric embedding (geometry default when unset)")
    p_check.set_defaults(func=_cmd_check)

    p_wf = sub.add_parser("wavefunction", help="emit sampled eigenfunctions as CSV",
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_model_args(p_wf)
    p_wf.add_argument("--indices", default="0", help="comma-separated level indices")
    p_wf.add_argument("--xmin", type=float, default=-2.5)
    p_wf.add_argument("--xmax", type=float, default=2.5)
    p_wf.add_argument("--samples", type=int, default=801)
    p_wf.add_argument("--out", required=True, help="output CSV path")
    p_wf.set_defaults(func=_cmd_wavefunction)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
