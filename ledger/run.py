"""Run one ledger workload and print its metrics.

Usage, from the root of a checkout::

    python3 ledger/run.py --workload row64-serial --seed 1 --seconds 20 --trace 0

Prints a table of every metric with its unit, a provenance line, and as
the last line a JSON verdict with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics.  Exits 1 when a correctness check failed and 2
when the checkout holds no library to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ledger import common  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, import_s: float = 0.0) -> common.Report:
    """Dispatch to a workload; the library must already be importable."""
    if name == "plan-service":
        from ledger import service_load

        return service_load.run(service_load.PLAN_SERVICE, seed, seconds, trace, work)
    from ledger import sweeps

    shape = sweeps.ROW64 if name == "row64-serial" else sweeps.GRID16
    return sweeps.run(shape, seed, seconds, trace, import_s=import_s)


def print_report(report: common.Report, cleared_knobs) -> None:
    verdict = report.verdict()
    print(f"ledger {report.workload} seed={report.seed} trace={int(report.trace)} "
          f"attempted={report.attempted} failed={report.failed}")
    shown = dict(verdict["metrics"])
    if not report.trace:
        shown.update({name: {"value": value, "unit": common.PER_LAYER.get(name, "")}
                      for name, value in report.quality.items()})
    for name, metric in shown.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for why in report.failures:
        print(f"  FAILED: {why}")
    why = next(w["why"] for w in common.BENCHMARK["workloads"]
               if w["name"] == report.workload)
    provenance = {
        "workload": report.workload,
        "why": why,
        "seed": report.seed,
        "trace": report.trace,
        "host": common.host_fingerprint(),
        "cleared_knobs": cleared_knobs,
        **report.notes,
    }
    if report.trace:
        provenance["obs_overhead_pct"] = report.per_layer.get("obs.overhead_pct")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(verdict), flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    cleared, work = common.prepare_environment()
    common.adopt_orphans()
    try:
        try:
            import_s = common.import_repro()
        except common.MissingProgram as exc:
            print(f"ledger: {exc}", file=sys.stderr)
            return 2
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work, import_s)
    finally:
        common.stop_children()
        common.remove_work_dir(work)
    print_report(report, cleared)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
