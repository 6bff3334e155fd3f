"""Self-test of the benchmark harness (not a measurement).

Runs every workload once untraced and once traced, on coarse numeric grids,
orders up to 10 and the shortest time budget (one block per run), and
checks that:

* the result line carries every end-to-end (``--trace 0``) or per-layer
  (``--trace 1``) metric of ``BENCHMARK.json`` with its unit;
* the detailed report names each end-to-end metric of the workload with its
  unit and sample count;
* the traced run removes every wrapper it installed.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXPECTED_NAMES = {
    "tables": {"tables_s", "setup_s", "fail_frac", "peak_rss_mb"},
    "algebra": {"spectrum_ms_p50", "spectrum_ms_p90", "spectra_per_s", "setup_s", "fail_frac",
                "peak_rss_mb"},
}
COARSE_POINTS = 400
LOW_MAX_ORDER = 10


def _run(workload: str, trace: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    lines = buf.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads("\n".join(lines[:-1]))
    return result, detail


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run._import_program()
    import tracing
    import workloads
    from qeswell import numeric

    numeric.DEFAULT_POINTS_HYPERBOLIC = COARSE_POINTS
    numeric.DEFAULT_POINTS_TRIGONOMETRIC = COARSE_POINTS
    workloads.MAX_ORDER = LOW_MAX_ORDER
    originals = {(m, a): getattr(sys.modules[f"qeswell.{m}"], a) for m, a in tracing.TRACED}

    workloads = [w["name"] for w in spec["workloads"]]
    assert set(workloads) == set(run.WORKLOAD_METRICS), workloads
    for workload in workloads:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, detail = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            emitted = result["metrics"]
            assert set(emitted) == {m["name"] for m in listed}, sorted(set(emitted) ^ {m["name"] for m in listed})
            for m in listed:
                assert emitted[m["name"]]["unit"] == m["unit"], (m, emitted[m["name"]])
                assert isinstance(emitted[m["name"]]["value"], float), m["name"]
            if trace == 0:
                named = detail["metrics_by_workload_name"]
                missing = EXPECTED_NAMES[workload] - set(named)
                assert not missing, (workload, missing)
                for name, entry in named.items():
                    assert entry["unit"] and entry["samples"] >= 1, (name, entry)
                for name, entry in detail["end_to_end"].items():
                    assert entry["unit"] and entry["samples"] >= 1, (name, entry)
            else:
                assert detail["outputs_bitwise_identical"] is True, workload
                assert not tracing.installed_wrappers()
                for (m, a), original in originals.items():
                    assert getattr(sys.modules[f"qeswell.{m}"], a) is original, f"{m}.{a} still wrapped"
            print(f"selftest: {workload} trace {trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} operations", file=sys.stderr)
    print("selftest: PASS", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
