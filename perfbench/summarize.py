"""Summarize the result files that run.py left in .perfbench_runs/.

    python3 perfbench/summarize.py > summary.json

For each workload: every metric of the untraced runs (and the table-only
ones such as density_s.p50 and fail_ratio) with the median, quartiles and
spread (interquartile distance over median) across seeds; the per-layer
metrics of the traced runs as medians across seeds; the error kinds
seen in the rounds and in the known-defect probes; and the machine facts, which must match for a before/after pair.
"""

import json
import statistics
import sys
from pathlib import Path

RUNS = Path(__file__).resolve().parent.parent / ".perfbench_runs"


def spread_of(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    results = [json.loads(p.read_text()) for p in sorted(RUNS.glob("*-trace[01].json"))]
    if not results:
        sys.exit(f"error: no results in {RUNS}")
    summary = {"machine": results[-1]["machine"], "workloads": {}}
    for workload in sorted({r["workload"] for r in results}):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [r for r in results if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            names = runs[0]["table"].keys()
            entry[key] = {name: dict(spread_of([r["table"][name]["value"] for r in runs]),
                                     unit=runs[0]["table"][name]["unit"]) for name in names}
            entry[f"{key}_seeds"] = sorted(r["seed"] for r in runs)
            errors = {}
            for r in runs:
                for kind, count in r["errors"].items():
                    errors[kind] = errors.get(kind, 0) + count
            probe_errors = {}
            for r in runs:
                for kind, count in r["probe_errors"].items():
                    probe_errors[kind] = probe_errors.get(kind, 0) + count
            entry[f"{key}_errors"] = {"attempted": sum(r["attempted"] for r in runs),
                                      "failed": sum(r["failed"] for r in runs), **errors}
            entry[f"{key}_probes"] = {"attempted": sum(r["probes"] for r in runs), **probe_errors}
        summary["workloads"][workload] = entry
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
