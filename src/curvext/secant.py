"""Secant-variety membership and the off-secant sampling experiment.

A class e, viewed projectively in P(H^1(C, N^{-1})), lies on the secant
variety Sigma_d of the curve embedded by |N+K| exactly when e lies in
the span of some effective divisor of degree <= d; dually, when e
annihilates H^0(C, N+K-D) for such a D.  Membership at index
d = n/2 - 1 is the obstruction to semi-stability of the extension.

The experiment samples random subspaces V of class space and records
whether V escapes Sigma_d, cross-checking the determinant test on each
distinct member of Sigma_d it touches, once per experiment.  Trials run
one after another on one generator, re-seeded per trial from SHA-256 of
"seed:trial", so each trial's draws depend on nothing but the seed and
its index.

The draw stream is curvext's own: every entry is drawn by rejection on
getrandbits(n.bit_length()) below n (one digit below p per coefficient
over F_{p^k}; -HEIGHT + below(2*HEIGHT + 1) over Q).  Seeded frames and
reports rest only on the Mersenne Twister's seeding and getrandbits,
not on randrange or randint, whose internals Python does not promise
to keep.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import product as _iproduct

from .curves import enumerate_effective_divisors
from .errors import InputError
from .extensions import (ExtensionClass, ExtensionDatum, ScanResult,
                         _witness_scan)
from .linalg import Matrix, linear_combination, rank

HEIGHT = 9      # frames over Q draw their entries from [-HEIGHT, HEIGHT]
MAX_TRIALS = 10_000   # an experiment keeps and reports every trial


def secant_member(e: ExtensionClass, d: int | None = None,
                  points=None) -> ScanResult:
    """Decide e in Sigma_d, returning the smallest witness divisor.

    d defaults to the datum's own index n/2 - 1 when n >= 2.  Witnesses
    are scanned in divisor enumeration order (degree, then point order)
    and a hit is re-verified against a fresh coordinate computation
    before being returned.
    """
    datum = e.datum
    if d is None:
        if datum.n < 2:
            raise InputError("n = 0 datum has no default secant index")
        d = datum.n // 2 - 1
    if d < 0:
        raise InputError("secant index must be nonnegative")
    return _witness_scan(e, d, datum.N + datum.curve.canonical_divisor(),
                         points=points)


def secant_table(datum: ExtensionDatum, d: int) -> frozenset:
    """All member coordinate tuples of Sigma_d, as a frozenset.

    Enumerates, for each effective divisor D of degree <= d, the
    annihilator of L(N+K-D) in class space, every combination of the
    rows R_D as built, and takes the union.  Exhaustive sweeps and the
    experiment use this instead of per-class divisor scans.
    """
    F = datum.curve.field
    if F.order() is None:
        raise InputError("secant tables need a finite base field")
    width = datum.class_dim
    members = set()
    for D in enumerate_effective_divisors(datum.curve, d):
        span = datum.span_rows(D)
        coeffs = F.list_payloads() if span else []   # D = 0 has no rows
        for cs in _iproduct(coeffs, repeat=len(span)):
            members.add(tuple(linear_combination(F, cs, span, width)))
    return frozenset(members)


# ---------------------------------------------------------------------------
# Off-secant experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    success: bool
    examined: int
    witness: tuple | None        # payload coordinates of an off-secant class


@dataclass(frozen=True)
class OffsecantReport:
    q: int
    n: int
    g: int
    m: int
    s: int
    d: int
    trials: int
    seed: int
    hypothesis_met: bool         # s >= n - m + g
    successes: int
    failures: int
    examined_total: int
    violations: int              # det_test true yet secant member; expect 0
    outcomes: tuple


def _trial_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}".encode("ascii")).digest()
    return int.from_bytes(digest, "big")


def _sample_frame(F, rng, s: int, width: int):
    """Full-rank s x width payload rows, drawn row by row.

    Every draw is ``below(n)``: getrandbits(n.bit_length()), redrawn
    until it is below n.  An F_p entry is below(p); an F_{p^k} entry is
    k digits below(p), constant coefficient first; a rational entry is
    -HEIGHT + below(2*HEIGHT + 1), from the integer box [-HEIGHT,
    HEIGHT].  Rank-deficient frames are rejected and redrawn."""
    getrandbits = rng.getrandbits

    def below(n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    q = F.order()
    if q is None:
        def draw():
            return F.coerce(below(2 * HEIGHT + 1) - HEIGHT)
    else:
        p = F.characteristic()
        k = 1
        while p ** k < q:
            k += 1
        if k == 1:
            def draw():
                return below(p)
        else:
            def draw():
                return F.coerce([below(p) for _ in range(k)])
    # rejection sampling keeps the distribution uniform over full-rank frames
    while True:
        rows = [[draw() for _ in range(width)] for _ in range(s)]
        if rank(Matrix._trusted(F, rows, width)) == s:
            return rows


def sample_subspace(datum: ExtensionDatum, s: int, seed: int):
    """Seeded full-rank s-frame in class space, as ExtensionClass list.

    The frame of the experiment's trial 0 with the same seed: a generator
    seeded from SHA-256 of "seed:0", entries drawn as in _sample_frame
    (uniform over finite fields, from the integer box [-HEIGHT, HEIGHT]
    over the rationals).  Rank-deficient draws are rejected and redrawn,
    so the frame is always independent.
    """
    if s < 1 or s > datum.class_dim:
        raise InputError(
            f"subspace dimension {s} outside 1..{datum.class_dim}")
    rng = random.Random(_trial_seed(seed, 0))
    rows = _sample_frame(datum.curve.field, rng, s, datum.class_dim)
    return [ExtensionClass(datum, row) for row in rows]


def offsecant_experiment(datum: ExtensionDatum, s: int, trials: int,
                         seed: int = 0) -> OffsecantReport:
    """Sample s-dimensional subspaces V and look for off-secant classes.

    Each trial draws a uniform full-rank s-frame over the field, then
    scans V in coefficient-lexicographic order for a class outside
    Sigma_d, d = n/2 - 1.  Each distinct member of Sigma_d scanned is
    determinant tested once per experiment; a certified member would be
    a soundness violation, counted at every scan (the count must stay
    0).

    With s below n - m + g the existence hypothesis is not met and
    failed trials are legitimate; the report records the gate rather
    than refusing to run.
    """
    curve = datum.curve
    F = curve.field
    if F.order() is None:
        raise InputError("experiment needs a finite base field")
    if datum.n < 2:
        raise InputError("n = 0 datum has no secant index")
    if s < 1 or s > datum.class_dim:
        raise InputError(
            f"subspace dimension {s} outside 1..{datum.class_dim}")
    if trials < 1:
        raise InputError("need at least one trial")
    if trials > MAX_TRIALS:
        raise InputError(
            f"{trials} trials is more than the limit of {MAX_TRIALS}")
    d = datum.n // 2 - 1
    table = secant_table(datum, d)
    payloads = F.list_payloads()
    width = datum.class_dim
    outcomes = []
    violations = 0
    det_nonzero = {}     # member coords -> det is nonzero, for this call only
    rng = random.Random()
    for trial in range(trials):
        rng.seed(_trial_seed(seed, trial))     # same state as Random(x)
        columns = list(zip(*_sample_frame(F, rng, s, width)))
        witness = None
        for examined, cs in enumerate(_iproduct(payloads, repeat=s), 1):
            coords = tuple([F.dot(cs, c) for c in columns])
            if coords not in table:
                witness = coords
                break
            # a violation needs membership: only members are det tested,
            # each once per experiment
            if coords not in det_nonzero:
                det_nonzero[coords] = not F.is_zero(datum.det_payload(coords))
            violations += det_nonzero[coords]
        outcomes.append(TrialOutcome(trial, witness is not None, examined,
                                     witness))
    successes = sum(1 for out in outcomes if out.success)
    return OffsecantReport(
        q=F.order(), n=datum.n, g=curve.genus, m=datum.m, s=s, d=d,
        trials=trials, seed=seed,
        hypothesis_met=s >= datum.n - datum.m + curve.genus,
        successes=successes, failures=trials - successes,
        examined_total=sum(out.examined for out in outcomes),
        violations=violations, outcomes=tuple(outcomes))
