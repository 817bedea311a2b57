"""Seeded inputs and the two operation kinds the benchmark times.

A workload is a generator of rounds.  A round is a fixed list of cases
(the same kinds and shapes in the same order every round); the seed only
draws the inputs inside each case, so every round holds the same mix of
operation kinds and a per-round latency compares like with like.

A *certificate op* turns inputs into a verified, encoded certificate:
build and density (readme only), extract_subsequence, verify_certificate,
then encode -> decode -> encode.  A *distance op* is what `orbitgap dist`
does: distance, distance_batch_oracle and, for p != 2,
distance_convex_descent on one instance.

An op either completes, raises (a failed op, counted by exception kind),
or completes with output that fails its check (a failed op that also
makes the whole run incorrect).  Routes of one distance that disagree
where a descent route takes part are a failed op of kind
RouteDisagreement, like a SolverFailure: descent is accurate only to its
tolerance, and the library raises SolverFailure itself when descent
detects that it missed.  Exact routes (projection, lstsq, LP) that
disagree make the run incorrect.

The rounds hold only op families that completed on every input drawn so
far.  Families with a known defect run as *probes*: a fixed, seeded list
once per run, outside the rounds, so the defect is counted the same way
in every run of a seed however many rounds fit in it.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("readme", "nonl2")

# criterion 2 tolerances: exact routes agree to 1e-9, descent to 1e-6
ORACLE_RTOL = 1e-9
DESCENT_RTOL = 1e-6
# verify_certificate's own acceptance bound on prefix distances
MAX_REL_DEVIATION = 1e-8
THETA = 1.01


class CheckFailed(Exception):
    """An operation completed but its output did not check out."""

    def __init__(self, check, message):
        self.check = check
        super().__init__(f"{check}: {message}")


class RouteDisagreement(Exception):
    """Distance routes disagree beyond tolerance, a descent route among them."""


@dataclass(frozen=True, eq=False)
class CertCase:
    label: str
    lam: float
    p: float
    N: int
    steps: int
    horizon: int
    x: np.ndarray | None = None
    targets: object = None  # TargetSet: build and density run inside the op
    probe: bool = False


@dataclass(frozen=True, eq=False)
class DistCase:
    label: str
    p: float
    e: np.ndarray
    gens: tuple
    probe: bool = False


@dataclass
class OpResult:
    kind: str  # "cert" or "dist"
    label: str
    start: float
    end: float
    steps: dict  # step name -> seconds, plus "bytes" for certificates
    error: str | None = None  # exception kind, or "check:<name>"
    message: str = ""
    probe: bool = False

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def failed(self):
        return self.error is not None

    @property
    def incorrect(self):
        return self.error is not None and self.error.startswith("check:")


def _draw_builder(rng):
    lam = float(rng.choice([1.5, 2.0, 3.0]))
    count = int(rng.integers(6, 11))
    eps = float(rng.choice([1e-3, 1e-4]))
    return lam, count, eps


def _dist_case(rng, label, p, dim, rank, field="real", probe=False):
    """Criterion-2-shaped instance: standard-normal point and generators."""
    if field == "complex":
        def draw():
            return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        def draw():
            return rng.standard_normal(dim)
    gens = tuple(draw() for _ in range(rank))
    return DistCase(label=label, p=p, e=draw(), gens=gens, probe=probe)


# (dim, rank) ladders across criterion 2's range (dim 4-64, rank 1-16);
# fixed shapes keep the mix of instance sizes the same in every round
REAL_SHAPES = ((8, 2), (16, 4), (32, 8), (64, 16))
COMPLEX_SHAPES = ((8, 2), (16, 4))


def readme_round(og, rng):
    """README pipeline at L2 on builder vectors, plus one L2 `dist` op per shape."""
    lam, count, eps = _draw_builder(rng)
    targets = og.default_target_set(1024, count=count, epsilon=eps)
    cert = CertCase(label="readme", lam=lam, p=2.0, N=1024, steps=16, horizon=96,
                    targets=targets)
    return [cert] + [_dist_case(rng, "dist-l2", 2.0, dim, rank) for dim, rank in REAL_SHAPES]


def nonl2_round(og, rng):
    """The non-Euclidean families that complete today: LP, smooth and L-inf descent."""
    lam, count, eps = _draw_builder(rng)
    targets = og.default_target_set(256, count=count, epsilon=eps)
    x = og.build_supercyclic_vector(lam, targets, 256, og.NormSpec(3.0)).x
    cases = [CertCase(label="builder-p3", lam=lam, p=3.0, N=256, steps=16, horizon=96, x=x)]
    # L-inf runs at N=32, K=4: at N=64, K=8 one op takes 2-3.5 s, too few
    # samples for a steady median in one run
    for p, label, N in ((1.0, "random-l1", 64), (math.inf, "random-linf", 32)):
        cases.append(CertCase(label=label, lam=2.0, p=p, N=N, steps=N // 8, horizon=32,
                              x=rng.standard_normal(N)))
    for dim, rank in REAL_SHAPES[:3] * 2:
        cases.append(_dist_case(rng, "dist-linf", math.inf, dim, rank))
    return cases


def nonl2_probes(og, rng):
    """The nonl2 families with a known defect, run once per run.

    Builder vectors at p in {1, inf} (N=256, K=16) fail with SolverFailure
    on most draws.  Real L1 distance ops fail with SolverFailure on about
    one instance in 2000: the descent cross-check does not converge.
    Complex-field distance ops at p in {1, inf} go through descent; at L1,
    dim 16, its routes disagree beyond 1e-6 on about one instance in 60
    (RouteDisagreement).
    """
    cases = []
    for p, label in ((1.0, "builder-l1"), (math.inf, "builder-linf")):
        lam, count, eps = _draw_builder(rng)
        targets = og.default_target_set(256, count=count, epsilon=eps)
        x = og.build_supercyclic_vector(lam, targets, 256, og.NormSpec(p)).x
        cases.append(CertCase(label=label, lam=lam, p=p, N=256, steps=16, horizon=96, x=x,
                              probe=True))
    for dim, rank in REAL_SHAPES[:3] * 2:
        cases.append(_dist_case(rng, "dist-l1", 1.0, dim, rank, probe=True))
    for p, name in ((1.0, "l1"), (math.inf, "linf")):
        for _ in range(2):
            for dim, rank in COMPLEX_SHAPES:
                cases.append(_dist_case(rng, f"dist-{name}-complex", p, dim, rank, "complex",
                                        probe=True))
    return cases


def nonl2_warmup(og, rng):
    """One small op per route: loads the solvers without a full round."""
    cases = [CertCase(label=f"warm-{p}", lam=2.0, p=p, N=32, steps=4, horizon=16,
                      x=rng.standard_normal(32)) for p in (1.0, math.inf, 3.0)]
    cases += [_dist_case(rng, "warm-dist", p, 8, 2, "complex") for p in (1.0, math.inf)]
    return cases


ROUNDS = {"readme": readme_round, "nonl2": nonl2_round}
WARMUPS = dict(ROUNDS, nonl2=nonl2_warmup)
PROBES = {"nonl2": nonl2_probes}


def _cert_op(og, records, case):
    spec = og.NormSpec(case.p)
    T = og.RolewiczMultiple(case.lam)
    steps = {}
    t0 = time.perf_counter()
    density = None
    if case.targets is not None:
        built = og.build_supercyclic_vector(case.lam, case.targets, case.N, spec)
        x = built.x
        t_build = time.perf_counter()
        # criterion 3: the density horizon is the last block offset + 24
        horizon = max(entry.offset for entry in built.plan) + 24
        density = og.density_check(T, x, case.targets, horizon, spec)
        steps["density"] = time.perf_counter() - t_build
    else:
        x = case.x
    t1 = time.perf_counter()
    cfg = og.ExtractionConfig(horizon=case.horizon, max_steps=case.steps, theta=THETA,
                              norm_spec=spec)
    cert = og.extract_subsequence(T, x, cfg)
    t2 = time.perf_counter()
    report = og.verify_certificate(cert, T, x)
    t3 = time.perf_counter()
    enc = records.dumps_record(records.encode_certificate(cert))
    back = records.decode_certificate(json.loads(enc.decode("ascii")))
    enc2 = records.dumps_record(records.encode_certificate(back))
    t4 = time.perf_counter()
    steps.update(extract=t2 - t1, verify=t3 - t2, codec=t4 - t3, bytes=len(enc))

    if density is not None:
        for rec, eps in zip(density.records, case.targets.epsilons):
            if not rec.error <= eps:
                raise CheckFailed("density", f"target {rec.target_index} error {rec.error} > {eps}")
    if not report.ok:
        raise CheckFailed("verify", f"{report.failed_check}: {report.message}")
    if not report.max_rel_deviation <= MAX_REL_DEVIATION:
        raise CheckFailed("deviation", f"max_rel_deviation {report.max_rel_deviation}")
    if enc2 != enc:
        raise CheckFailed("reencode", "encode -> decode -> encode is not byte-identical")
    return t0, t4, steps


def _dist_op(og, case):
    spec = og.NormSpec(case.p)
    t0 = time.perf_counter()
    d_inc = og.distance(case.e, og.SpanBasis.from_vectors(case.gens), spec)
    d_oracle = og.distance_batch_oracle(case.e, case.gens, spec)
    d_desc = og.distance_convex_descent(case.e, case.gens, spec) if case.p != 2.0 else None
    t1 = time.perf_counter()
    if not abs(d_inc - d_oracle) <= ORACLE_RTOL * max(1e-12, abs(d_oracle)):
        message = f"distance {d_inc!r} vs batch oracle {d_oracle!r}"
        complex_field = any(np.iscomplexobj(v) for v in (case.e, *case.gens))
        exact = case.p == 2.0 or (case.p in (1.0, math.inf) and not complex_field)
        if exact:
            raise CheckFailed("oracle", message)
        raise RouteDisagreement(message)
    if d_desc is not None and not abs(d_inc - d_desc) <= DESCENT_RTOL * max(1e-12, abs(d_desc)):
        raise RouteDisagreement(f"distance {d_inc!r} vs convex descent {d_desc!r}")
    return t0, t1, {}


def run_case(og, records, case):
    """Run one op; every exception or failed check becomes a failed OpResult."""
    kind = "cert" if isinstance(case, CertCase) else "dist"
    start = time.perf_counter()
    try:
        if kind == "cert":
            t0, t1, steps = _cert_op(og, records, case)
        else:
            t0, t1, steps = _dist_op(og, case)
    except CheckFailed as exc:
        return OpResult(kind, case.label, start, time.perf_counter(), {},
                        f"check:{exc.check}", str(exc), case.probe)
    except Exception as exc:  # any other exception is a failed op, counted by kind
        return OpResult(kind, case.label, start, time.perf_counter(), {},
                        type(exc).__name__, str(exc), case.probe)
    return OpResult(kind, case.label, t0, t1, steps, probe=case.probe)
