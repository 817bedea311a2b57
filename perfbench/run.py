"""orbitgap benchmark: seeded workloads through the public library API.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from ./src.
Workloads (closed loop, one client, one process, one BLAS thread) are
defined in workloads.py:

  readme   README pipeline at L2 on builder vectors (N=1024, K=16)
  nonl2    non-Euclidean routes: LP and descent, plus known-defect probes

--trace 0 measures for --seconds, running whole rounds of ops, then runs
the workload's known-defect probes once, and prints the end-to-end
metrics.  --trace 1 runs a fixed, seeded op list (rounds, then probes),
each op once untraced and once with spans around every public function,
and prints the per-layer metrics; its counts repeat exactly for a seed.
attempted and failed count the ops of the rounds; probe failures are
reported apart, as known defects.

Stdout carries a table (each metric with its unit and sample count, and
the machine facts), then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when
any op's output failed its check, 2 when the checkout has no library.
Full results, and the spans of a traced run, go to .perfbench_runs/.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads BLAS.  On a shared 2-core host
# two BLAS threads made every op slower (a 1024x64 QR about 2x) and the
# run-to-run spread two to three times wider: a neighbour on one core
# stalls the other thread.  Set-up subprocesses inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# a fixed op list per traced run: enough ops for every layer to show,
# few enough that two passes stay well inside a run's time limit
TRACE_ROUNDS = {"readme": 100, "nonl2": 8}
# p90 is reported only where at least ten samples lie beyond it
P90_MIN_SAMPLES = 100

# a fresh interpreter: import orbitgap, then the first call on a tiny instance
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import orbitgap as og
targets = og.default_target_set(64, count=3, epsilon=1e-3)
x = og.build_supercyclic_vector(2.0, targets, 64).x
T = og.RolewiczMultiple(2.0)
cert = og.extract_subsequence(T, x, og.ExtractionConfig(horizon=16, max_steps=4, theta=1.01))
sys.exit(0 if og.verify_certificate(cert, T, x).ok else 1)
"""


def load_library():
    """Import orbitgap from this checkout's src/, or exit 2."""
    if not (SRC / "orbitgap" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'orbitgap'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import orbitgap
    from orbitgap import records

    if SRC not in Path(orbitgap.__file__).resolve().parents:
        print(f"error: orbitgap was imported from {orbitgap.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return orbitgap, records


def measure_setup():
    """Median wall time of fresh interpreters running SETUP_SNIPPET."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit("error: the set-up instance did not verify")
        if i > 0:  # the first start may still be writing bytecode caches
            times.append(elapsed)
    return statistics.median(times), len(times)


def machine_facts(og):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "orbitgap": og.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the BLAS numpy loaded, or None if it cannot be read."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libdir.glob("*openblas*"):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _rng(seed, workload):
    return np.random.default_rng([seed, workloads.WORKLOADS.index(workload)])


def warm_up(og, records, workload, seed):
    """One untimed round (nonl2: one small op per route), on unseen inputs.

    BLAS start-up, lazy scipy imports and first large allocations land
    here instead of in the first timed op.
    """
    for case in workloads.WARMUPS[workload](og, np.random.default_rng([seed, 99])):
        workloads.run_case(og, records, case)


def round_samples(rounds, kind, value):
    """One latency sample per round: the mean of `value` over its ops of `kind`.

    Every round holds the same mix of op kinds and shapes, so these samples
    are alike where single ops of different shapes are not.  A round in
    which an op of `kind` failed gives a failed sample (None).
    """
    samples = []
    for ops in rounds:
        mine = [op for op in ops if op.kind == kind]
        if mine:
            failed = any(op.failed for op in mine)
            samples.append(None if failed else statistics.fmean(value(op) for op in mine))
    return samples


def percentile(samples, q, charge):
    """Nearest-rank percentile; a failed sample ranks above every other.

    When the rank lands on a failed sample the result is `charge`, the
    run's wall time, which no op of the run can exceed.
    """
    ranked = sorted(samples, key=lambda s: (s is None, s or 0.0))
    pick = ranked[max(math.ceil(q * len(ranked)) - 1, 0)]
    return charge if pick is None else pick


def end_to_end(rounds, probes, wall, setup):
    ops = [op for round_ops in rounds for op in round_ops]
    failed = sum(op.failed for op in ops)
    table = {}

    def put(name, value, unit, samples):
        table[name] = (value, unit, samples)

    def latency(name, kind, value, q=0.5):
        samples = round_samples(rounds, kind, value)
        if samples:
            put(name, percentile(samples, q, wall), "s", len(samples))
        return samples

    put("setup_s", setup[0], "s", setup[1])
    cert = latency("cert_s.p50", "cert", lambda op: op.seconds)
    if len(cert) >= P90_MIN_SAMPLES:
        latency("cert_s.p90", "cert", lambda op: op.seconds, 0.9)
    for step in ("extract", "verify", "density"):
        if any(step in op.steps for op in ops):
            latency(f"{step}_s.p50", "cert", lambda op: op.steps[step])
    latency("dist_s.p50", "dist", lambda op: op.seconds)
    put("ok_ratio", (len(ops) - failed) / len(ops), "1", len(ops))
    put("fail_ratio", failed / len(ops), "1", len(ops))
    if probes:
        put("probe.fail_ratio", sum(op.failed for op in probes) / len(probes), "1", len(probes))
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return table


def probe_cases(og, workload, seed):
    """The workload's known-defect probes: a fixed, seeded list of cases."""
    make = workloads.PROBES.get(workload)
    rng = np.random.default_rng([seed, workloads.WORKLOADS.index(workload), 7])
    return make(og, rng) if make else []


def run_timed(og, records, workload, seed, seconds):
    rng = _rng(seed, workload)
    rounds = []
    t_start = time.perf_counter()
    # whole rounds only, so every run holds the same mix of op kinds
    while time.perf_counter() - t_start < seconds:
        cases = workloads.ROUNDS[workload](og, rng)
        rounds.append([workloads.run_case(og, records, case) for case in cases])
    return rounds, time.perf_counter() - t_start


def run_traced(og, records, workload, seed):
    rng = _rng(seed, workload)
    make_round = workloads.ROUNDS[workload]
    cases = [case for _ in range(TRACE_ROUNDS[workload]) for case in make_round(og, rng)]
    cases += probe_cases(og, workload, seed)
    tracer = tracing.Tracer()
    plain, traced = [], []
    # each op runs untraced and traced back to back, alternating which goes
    # first, so machine drift and warm caches fall on both passes alike
    for op_id, case in enumerate(cases):
        tracer.op = op_id
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                traced.append(workloads.run_case(og, records, case))
                tracer.uninstall()
            else:
                plain.append(workloads.run_case(og, records, case))
    metrics = tracing.layer_metrics(tracer.spans, traced)
    untraced_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    metrics["trace.overhead"] = {"value": traced_s / untraced_s - 1.0, "unit": "1"}
    return traced, metrics, tracer


def _count_errors(failed):
    counts = {}
    for op in failed:
        counts[op.error] = counts.get(op.error, 0) + 1
    return counts


def _declared(group):
    """Metric names BENCHMARK.json declares for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[group]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    og, records = load_library()
    facts = machine_facts(og)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        warm_up(og, records, args.workload, args.seed)
        traced, metrics, tracer = run_traced(og, records, args.workload, args.seed)
        tracer.write(f"{stem}.spans.jsonl")
        rows = {k: (v["value"], v["unit"], len(traced)) for k, v in metrics.items()}
        metrics = {k: metrics[k] for k in _declared("per_layer")}
        ops = [op for op in traced if not op.probe]
        probes = [op for op in traced if op.probe]
    else:
        setup = measure_setup()
        warm_up(og, records, args.workload, args.seed)
        rounds, wall = run_timed(og, records, args.workload, args.seed, args.seconds)
        probes = [workloads.run_case(og, records, case)
                  for case in probe_cases(og, args.workload, args.seed)]
        rows = end_to_end(rounds, probes, wall, setup)
        metrics = {k: {"value": rows[k][0], "unit": rows[k][1]} for k in _declared("end_to_end")}
        ops = [op for round_ops in rounds for op in round_ops]

    failed = [op for op in ops if op.failed]
    incorrect = [op for op in ops + probes if op.incorrect]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {len(failed)}  probes {len(probes)}  "
          f"incorrect {len(incorrect)}")
    print("machine " + json.dumps(facts))
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:44s} {value:>14.6g} {unit:12s} n={samples}")
    for op in incorrect:
        print(f"  INCORRECT {op.label}: {op.message}")
    errors = _count_errors(failed)
    probe_errors = _count_errors(op for op in probes if op.failed)
    print("errors " + json.dumps(errors, sort_keys=True))
    print("known defects (probes) " + json.dumps(probe_errors, sort_keys=True))

    # attempted and failed count the ops of the rounds; a probe's failure
    # is a known defect, reported above and in the per-layer error counts
    result = {"correct": not incorrect, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds,
                  machine=facts, errors=errors, probes=len(probes), probe_errors=probe_errors,
                  failures=[{"label": op.label, "error": op.error, "message": op.message,
                             "probe": op.probe}
                            for op in (failed + probes) if op.failed][:50],
                  table={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in rows.items()})
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
