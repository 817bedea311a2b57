"""Index-sequence extraction and independent certificate verification.

The extraction loop mirrors the inductive construction it implements:
rescale x so that both its norm and its distance to span{Tx} sit above 1,
then, from the empty span, repeatedly pick the smallest power past the
last whose orbit direction keeps x' at distance > theta from the grown
span.  Candidates are unit directions only; span extension is
scalar-invariant, so nothing is lost by dropping the scalar there.  The
recorded distances certify dist(x', span{T^(n_k) x' : k <= K}) > theta.

extract_subsequence is the only search: one run reads one orbit stream,
each step scores the powers after n_(k-1) one at a time and the first that
qualifies wins, so no power past n_K is generated or scored.  n_1 = 1 is
the scan's first candidate, scored by the same test; n_1 is fixed, so a
miss at step 1 is a configuration error.  Scoring a candidate extends the
span once, and the winner's extended span is kept.  Each recorded
distance is capped by its predecessor: the spans are nested, so the true
ledger is non-increasing and a higher solver value is tolerance noise.

verify_certificate reruns everything from scratch against the batch
oracle and reports the first violated check instead of raising.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HorizonExhausted, LinearDependence, TruncationTooSmall, ZeroOrbit
from .operators import OperatorSpec, apply, invariant_prefix, orbit_stream, ZeroOrbitMarker
from .space import NormSpec, L2, norm
from .subspace import SpanBasis, distance, extend, prefix_distances


@dataclass(frozen=True)
class ExtractionConfig:
    horizon: int
    max_steps: int
    theta: float = 1.0
    margin: float = 0.5
    norm_spec: NormSpec = L2
    strict_tol: float = 1e-9

    def __post_init__(self):
        if not (self.theta >= 1.0 and math.isfinite(self.theta)):
            raise ConfigError(f"theta must be at least 1, got {self.theta}")
        if not (self.margin > 0.0 and math.isfinite(self.margin)):
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if self.max_steps < 1:
            raise ConfigError(f"maxSteps must be at least 1, got {self.max_steps}")
        if self.horizon <= self.max_steps:
            raise ConfigError(
                f"horizon must exceed maxSteps, got {self.horizon} <= {self.max_steps}"
            )
        if not (self.strict_tol > 0.0):
            raise ConfigError(f"strictTol must be positive, got {self.strict_tol}")


@dataclass(frozen=True, eq=False)
class Certificate:
    """Immutable record of one extraction run.

    Invariants (checked by verify_certificate, not the constructor, so
    that tampered instances can be built and fed to the verifier):
    indices strictly increasing with n_1 = 1; every distance > theta;
    distances non-increasing.
    """

    scaled_x: np.ndarray
    lambda_scale: float
    operator: OperatorSpec
    indices: tuple
    distances: tuple
    theta: float
    norm_spec: NormSpec


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failed_check: str | None
    message: str
    max_rel_deviation: float
    recomputed_distances: tuple


def rescale_for_extraction(
    x: np.ndarray, T: OperatorSpec, spec: NormSpec = L2, margin: float = 0.5
):
    """lam, x' = lam x with norm(x') and dist(x', span{Tx'}) both >= 1 + margin.

    Raises LinearDependence when x is (numerically) in span{Tx}; such an x
    cannot head the construction, and for an honest supercyclic vector the
    independence always holds.
    """
    if not (margin > 0.0):
        raise ConfigError(f"margin must be positive, got {margin}")
    if not np.any(x):
        raise LinearDependence("x is the zero vector")
    span_tx = SpanBasis.from_vectors([apply(T, x)])
    if span_tx.rank == 0:
        raise LinearDependence("Tx is the zero vector")
    if extend(span_tx, x) is span_tx:
        raise LinearDependence("x and Tx are numerically dependent")
    d = distance(x, span_tx, spec)
    lam = (1.0 + margin) / min(norm(x, spec), d)
    x_prime = lam * x
    x_prime.flags.writeable = False
    return lam, x_prime


def extract_subsequence(T: OperatorSpec, x, cfg: ExtractionConfig) -> Certificate:
    """Run the full construction and return its certificate.

    Rescale, then grow the empty span by the smallest qualifying powers,
    n_1 = 1 first, until maxSteps indices are recorded.
    Every recorded distance is the distance of x' to the span at that step,
    capped by the one before, so the last one certifies the final
    proper-span gap.  The run takes place on the prefix that holds x and
    that T maps into itself (invariant_prefix); only scaledX is padded back.
    """
    m, Tm, spec = invariant_prefix(T, x, cfg.norm_spec)
    lam, xp = rescale_for_extraction(x[:m], Tm, spec, cfg.margin)

    stream = orbit_stream(Tm, xp, 1, cfg.horizon, spec)
    Y = SpanBasis(np.zeros((0, m)))
    indices, distances = [], []
    bar = cfg.theta + cfg.strict_tol
    while len(indices) < cfg.max_steps:
        step = len(indices) + 1
        best = (-math.inf, None)  # the step's closest miss: (distance, n)
        for elem in stream:
            if isinstance(elem, ZeroOrbitMarker):
                raise ZeroOrbit(
                    elem.n,
                    f"orbit died at power n={elem.n} before any candidate qualified "
                    f"at step {step}" + _missed(best, bar),
                    step=step,
                )
            Z = extend(Y, elem.direction)
            d = distance(xp, Z, spec)
            if d > bar:
                break
            if step == 1:  # n_1 = 1 is fixed: no later power may stand in
                raise ConfigError(
                    f"step 1 distance {d} does not clear theta = {cfg.theta}; "
                    "the rescale margin guarantees only 1 + margin"
                )
            if d > best[0]:
                best = (d, elem.n)
        else:
            raise HorizonExhausted(indices[-1], cfg.horizon, step=step, detail=_missed(best, bar))
        Y = Z
        indices.append(elem.n)
        # nested spans: a value above its predecessor is solver noise
        distances.append(min(d, distances[-1]) if distances else d)
    scaled_x = lam * x
    scaled_x.flags.writeable = False
    return Certificate(
        scaled_x=scaled_x,
        lambda_scale=lam,
        operator=T,
        indices=tuple(indices),
        distances=tuple(distances),
        theta=cfg.theta,
        norm_spec=cfg.norm_spec,
    )


def _missed(best, bar):
    d, n = best
    return "" if n is None else f"; best candidate n={n} at distance {d!r} <= theta + strictTol = {bar!r}"


def _fail(check, message, devs=(), recomputed=()):
    return VerificationReport(
        ok=False,
        failed_check=check,
        message=message,
        max_rel_deviation=float(np.max(devs, initial=0.0)),  # NaN anywhere reads NaN
        recomputed_distances=tuple(recomputed),
    )


def verify_certificate(cert: Certificate, T: OperatorSpec, x_original) -> VerificationReport:
    """Recompute everything about a certificate from scratch.

    Checks, in order: index shape (strictly increasing, n_1 = 1), the scaled
    vector against lambdaScale times the original (which must be finite),
    orbit regeneration at the certified indices inside the truncation
    ("truncation"), then the ledger one step k at a time: d_k against the
    batch oracle (1e-8 relative, every prefix off one QR by
    prefix_distances), d_k > theta, and d_k <= d_(k-1) + 1e-12.  A
    certificate failing several checks reports its first failing step.
    Every test is written so that a NaN fails it.  The orbit and the
    distances run on the prefix that invariant_prefix keeps.  Never raises.
    """
    try:
        idx = list(cert.indices)
        if len(idx) == 0 or len(cert.distances) != len(idx):
            return _fail("indices", "empty certificate or length mismatch")
        if idx[0] != 1:
            return _fail("indices", f"first index is {idx[0]}, must be 1")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            return _fail("indices", "indices are not strictly increasing")

        with np.errstate(over="ignore", invalid="ignore"):
            xp = cert.lambda_scale * np.asarray(x_original)
        ref = np.asarray(cert.scaled_x)
        if xp.shape != ref.shape:
            return _fail("scaled-vector", "scaled vector has wrong dimension")
        if not np.isfinite(xp).all():  # an infinite scale would pass any scaledX
            return _fail("scaled-vector", "lambdaScale times the original x is not finite")
        scale = max(1.0, float(np.abs(xp).max()))
        if not float(np.abs(xp - ref).max()) <= 1e-12 * scale:
            return _fail(
                "scaled-vector", "scaledX does not equal lambdaScale times the original x"
            )

        m, Tm, spec = invariant_prefix(T, xp, cert.norm_spec)
        xp = xp[:m]
        wanted = set(idx)
        directions = {}
        for elem in orbit_stream(Tm, xp, 1, idx[-1], spec):
            if isinstance(elem, ZeroOrbitMarker):
                break
            if elem.n in wanted:
                directions[elem.n] = elem.direction
        missing = [n for n in idx if n not in directions]
        if missing:
            return _fail("orbit", f"orbit dies before certified index {missing[0]}")

        recomputed = prefix_distances(xp, [directions[n] for n in idx], spec)
        devs = [abs(d - c) / max(abs(c), 1e-300) for d, c in zip(recomputed, cert.distances)]
        for k, (d, dev) in enumerate(zip(cert.distances, devs)):
            if not dev <= 1e-8:
                check, why = "distance-deviation", f"distance {k + 1} deviates by {dev:.3e} relative"
            elif not d > cert.theta:
                check, why = "threshold", f"distance {k + 1} = {d} is not above theta = {cert.theta}"
            elif k and not d <= cert.distances[k - 1] + 1e-12:
                check, why = "monotonicity", f"distance increases from step {k} to {k + 1}"
            else:
                continue
            return _fail(check, why, devs, recomputed)
        return VerificationReport(
            ok=True,
            failed_check=None,
            message=(
                f"scaled x stays at distance > {cert.theta} from the span of all "
                f"{len(idx)} selected orbit elements"
            ),
            max_rel_deviation=float(np.max(devs)),
            recomputed_distances=tuple(recomputed),
        )
    except TruncationTooSmall as exc:
        return _fail("truncation", str(exc))
    except Exception as exc:  # a malformed certificate must report, not raise
        return _fail("internal", f"{type(exc).__name__}: {exc}")
