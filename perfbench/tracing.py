"""Timing spans around qeswell's public functions, installed from outside.

A traced run replaces the functions named in ``TRACED`` by wrappers that
record a span (name, start, end, parent span, operation id) per call and
restores the originals afterwards.  Nothing under ``src/`` is changed.
Spans stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute) pairs that a traced run wraps.  ``numeric`` and
# ``report`` import ``eval_potential`` by name, so their copies are wrapped
# as well; every other call between modules goes through a module attribute.
TRACED = (
    ("core", "eval_potential"),
    ("numeric", "eval_potential"),
    ("report", "eval_potential"),
    ("numeric", "fd_hamiltonian"),
    ("numeric", "eigen_lowest"),
    ("numeric", "eigen_lowest_batch"),
    ("numeric", "eigenvector"),
    ("numeric", "mirror_parity"),
    ("numeric", "numeric_spectrum"),
    ("report", "reproduce_table"),
    ("heun", "energy_roots"),
    ("heun", "qes_energies_via_determinant"),
    ("liealg", "qes_energies_via_recurrence"),
    ("bethe", "solve_polynomial_system"),
    ("rootfind", "aberth_roots"),
)

LAYERS = ("core", "numeric", "report", "heun", "liealg", "bethe", "rootfind")
EIGENSOLVES = ("numeric.eigen_lowest", "numeric.eigen_lowest_batch")
# a spectrum owns the eigensolves below it; a later, larger solve under the
# same owner is the doubled Richardson grid
SPECTRUM_OWNERS = ("numeric.numeric_spectrum", "report.reproduce_table")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _describe(name, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "numeric.eigen_lowest":
        op, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
        return {"size": op.size, "work": m * op.size}
    if name == "numeric.eigen_lowest_batch":
        ops, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
        size = ops[0].size if ops else 0
        return {"size": size, "work": m * size * len(ops)}
    if name == "numeric.mirror_parity":
        return {"decided": result is not None}
    if name == "rootfind.aberth_roots":
        return {"degree": max(len(args[0]) - 1, 0)}
    if name == "liealg.qes_energies_via_recurrence":
        return {"real": len(result), "expected": args[0].order + 1}
    if name == "bethe.solve_polynomial_system":
        full = sum(1 for lvl in result.levels if lvl.monic_coeffs[-1] == 1.0)
        return {"levels": len(result.levels), "full_degree": full}
    return {}


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr in TRACED:
            module = importlib.import_module(f"qeswell.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original))

    def remove(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, func):
        layer = func.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{func.__name__}"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _describe(name, args, kwargs, result)
            return result

        traced.__qeswell_traced__ = True
        return traced


def installed_wrappers() -> list[str]:
    """The ``TRACED`` attributes that currently hold a tracing wrapper."""
    return [
        f"{m}.{a}" for m, a in TRACED
        if getattr(getattr(importlib.import_module(f"qeswell.{m}"), a), "__qeswell_traced__", False)
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _owner(spans, index):
    parent = spans[index].parent
    while parent is not None and spans[parent].name not in SPECTRUM_OWNERS:
        parent = spans[parent].parent
    return parent


def layer_metrics(spans: list[Span], ops: int) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` (times and counts per
    operation, plus ratios) and the self time of each layer."""
    own = self_times(spans)
    per_name_s = defaultdict(float)
    per_name_n = defaultdict(int)
    layer_s = defaultdict(float)
    for span, t in zip(spans, own):
        per_name_s[span.name] += t
        per_name_n[span.name] += 1
        layer_s[span.name.split(".")[0]] += t

    richardson_s = 0.0
    work = 0
    smallest = {}
    solves_in_spectra = 0
    for i, span in enumerate(spans):
        if span.name not in EIGENSOLVES:
            continue
        work += span.info.get("work", 0)
        owner = _owner(spans, i)
        if owner is not None and spans[owner].name == "numeric.numeric_spectrum":
            solves_in_spectra += 1
        size = span.info.get("size", 0)
        if owner is not None and size > smallest.setdefault(owner, size):
            richardson_s += own[i]

    def total(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    heun_top = sum(
        1 for s in spans
        if s.name.startswith("heun.") and not (s.parent is not None and spans[s.parent].name.startswith("heun."))
    )
    fallback = sum(
        1 for s in spans
        if s.name == "numeric.numeric_spectrum" and s.parent is not None
        and spans[s.parent].name == "report.reproduce_table"
    )
    per_op = 1.0 / ops
    metrics = {
        "numeric.eigensolve_s": (sum(per_name_s[n] for n in EIGENSOLVES) * per_op, "s/op"),
        "numeric.eigensolve_calls": (sum(per_name_n[n] for n in EIGENSOLVES) * per_op, "count/op"),
        "numeric.eigenvalues_x_unknowns": (work * per_op, "count/op"),
        "numeric.richardson_s": (richardson_s * per_op, "s/op"),
        "numeric.eigenvector_s": (per_name_s["numeric.eigenvector"] * per_op, "s/op"),
        "numeric.eigenvector_calls": (per_name_n["numeric.eigenvector"] * per_op, "count/op"),
        "numeric.assemble_s": (per_name_s["numeric.fd_hamiltonian"] * per_op, "s/op"),
        "numeric.parity_decided_ratio": (
            ratio(total("numeric.mirror_parity", "decided"), per_name_n["numeric.mirror_parity"]), "ratio"),
        "numeric.solves_per_spectrum": (
            ratio(solves_in_spectra, per_name_n["numeric.numeric_spectrum"]), "ratio"),
        "report.table_fallback_solves": (fallback * per_op, "count/op"),
        "report.reproduce_table_self_s": (per_name_s["report.reproduce_table"] * per_op, "s/op"),
        "core.eval_potential_s": (per_name_s["core.eval_potential"] * per_op, "s/op"),
        "core.eval_potential_calls": (per_name_n["core.eval_potential"] * per_op, "count/op"),
        "heun.energies_s": (layer_s["heun"] * per_op, "s/op"),
        "heun.calls": (heun_top * per_op, "count/op"),
        "liealg.energies_s": (layer_s["liealg"] * per_op, "s/op"),
        "liealg.real_ratio": (
            ratio(total("liealg.qes_energies_via_recurrence", "real"),
                  total("liealg.qes_energies_via_recurrence", "expected")), "ratio"),
        "bethe.solve_self_s": (per_name_s["bethe.solve_polynomial_system"] * per_op, "s/op"),
        "bethe.full_degree_ratio": (
            ratio(total("bethe.solve_polynomial_system", "full_degree"),
                  total("bethe.solve_polynomial_system", "levels")), "ratio"),
        "bethe.errors": (
            sum(1 for s in spans if s.name == "bethe.solve_polynomial_system" and s.error) * per_op,
            "count/op"),
        "rootfind.aberth_s": (per_name_s["rootfind.aberth_roots"] * per_op, "s/op"),
        "rootfind.aberth_calls": (per_name_n["rootfind.aberth_roots"] * per_op, "count/op"),
        "rootfind.aberth_degree_sum": (total("rootfind.aberth_roots", "degree") * per_op, "count/op"),
    }
    return metrics, {layer: layer_s[layer] for layer in LAYERS}
