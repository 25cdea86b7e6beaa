"""The four benchmark workloads.

Each workload has ``prepare(cx, seed, work_dir)``, the untimed set-up
that turns the seed into inputs, and ``run_pass(cx, ctx, mark, clock)``,
one pass of timed work that checks every answer.  ``cx`` holds the
freshly imported curvext modules; workloads call the library through
those module objects, so a tracer that rebinds names sees every call.
``mark.op`` is set to the number of the op in progress, which the
tracer stamps on its spans.

The inputs depend on the seed only, so every pass of a run repeats the
same ops in the same order, and a run can take each op's median over
its repetitions.  Every pass builds fresh curve objects, so no Riemann-Roch
or point cache carries over from one pass to the next.  Checks that are
not part of an op run outside the timed work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from array import array
from dataclasses import dataclass, field
from itertools import product

import oracles

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    latencies: array = field(default_factory=lambda: array("d"))  # s per op
    kinds: list = field(default_factory=list)  # op kind per latency (cli-mix)
    # timed work outside the ops (curve, datum and table construction,
    # point-enum steps that yield no point):
    # segment -> seconds
    other: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def add_other(self, segment, seconds):
        self.other[segment] = self.other.get(segment, 0.0) + seconds

    def fail(self, what, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)


def load_goldens():
    with open(GOLDENS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# rr-cold: the Riemann-Roch duality identity on seeded random divisors
# ---------------------------------------------------------------------------

RR_CURVES = [
    # criterion 1's five fixtures; over Q the pool is a fixed list of places
    ("g1_q", {"field": "Q", "f": [1, 0, 0, 1]},
     ["infinity", {"x": 0, "y": 1}, {"x": 0, "y": -1}, {"x": 2, "y": 3},
      {"x": 2, "y": -3}, {"x": -1, "y": 0}, {"x": 1, "y": None},
      {"x": 3, "y": None}]),
    ("g1_f5", {"field": {"Fp": 5}, "f": [1, 0, 0, 1]}, None),
    ("g2_q", {"field": "Q", "f": [1, 1, 0, 0, 0, 1]},
     ["infinity", {"x": 0, "y": 1}, {"x": 0, "y": -1}, {"x": 1, "y": None},
      {"x": 2, "y": None}, {"x": -1, "y": None}, {"x": 3, "y": None}]),
    ("g2_f7", {"field": {"Fp": 7}, "f": [1, 2, 0, 0, 0, 1]}, None),
    ("g3_f5", {"field": {"Fp": 5}, "f": [1, 1, 0, 0, 0, 0, 0, 1]}, None),
]
RR_PER_CURVE = 150           # identities per curve per pass


def rr_prepare(cx, seed, work_dir):
    curves = []
    for name, spec, pool in RR_CURVES:
        if pool is None:
            # finite fields: every closed point of degree <= 2, as in
            # criterion 1, serialized so each pass rebuilds them afresh
            c = cx.curves.curve_from_json(spec)
            pool = [cx.curves.point_to_json(pt)
                    for pt in cx.curves.enumerate_closed_points(c, 2)]
        c = cx.curves.curve_from_json(spec)
        pts = [cx.curves.point_from_json(c, pj) for pj in pool]
        classes = [(pt.degree, pt.kind) for pt in pts]
        shapes = _rng("rr-cold shapes", name)
        rng = _rng("rr-cold", seed, name)
        divisors = [_stratified_divisor(shapes, rng, classes, 4 * c.genus + 6)
                    for _ in range(RR_PER_CURVE)]
        curves.append((name, spec, pool, divisors))
    return {"curves": curves}


def _stratified_divisor(shapes, rng, classes, max_abs_degree):
    """Sparse random divisor with |degree| <= max_abs_degree, as
    (pool index, multiplicity) pairs.

    The shape (how many points, each one's degree and kind, and the
    multiplicities) comes from `shapes`, the same stream for every seed,
    as in criterion 1's random divisors; `rng`, the seeded stream, picks
    which points of each degree and kind fill it.  One identity's cost
    is heavy-tailed in the shape, so a shared shape sequence keeps the
    total work of a pass nearly the same from seed to seed.
    """
    items = []
    budget = max_abs_degree
    for i in shapes.sample(range(len(classes)), k=min(len(classes), 4)):
        if budget <= 0:
            break
        deg = classes[i][0]
        top = max(1, budget // deg)
        mult = shapes.randint(-top, top)
        if mult:
            items.append((i, mult))
            budget -= abs(mult) * deg
    used = set()
    out = []
    for i, mult in items:
        same = [j for j, cls in enumerate(classes)
                if cls == classes[i] and j not in used]
        j = rng.choice(same)
        used.add(j)
        out.append((j, mult))
    return out


def rr_run_pass(cx, ctx, mark, clock):
    res = PassResult()
    rr = cx.riemann_roch
    op = 0
    for name, spec, pool, divisors in ctx["curves"]:
        t0 = clock()
        curve = pts = None
        try:
            curve = cx.curves.curve_from_json(spec)
            pts = [cx.curves.point_from_json(curve, pj) for pj in pool]
        except Exception as exc:
            res.fail(f"rr-cold {name} set-up: {type(exc).__name__}: {exc}",
                     len(divisors))
        res.add_other(name, clock() - t0)
        if pts is None:
            res.attempted += len(divisors)
            continue
        g = curve.genus
        K = curve.canonical_divisor()
        for items in divisors:
            mark.op = op
            op += 1
            res.attempted += 1
            t0 = clock()
            why = "duality identity fails"
            try:
                D = cx.curves.Divisor(curve, [(pts[i], m) for i, m in items])
                ok = (rr.h0(curve, D) - rr.h0(curve, K - D)
                      == D.degree - g + 1)
            except Exception as exc:
                ok = False
                why = f"{type(exc).__name__}: {exc}"
            res.latencies.append(clock() - t0)
            if not ok:
                res.fail(f"rr-cold {name}: {why} on {items}")
    return res


# ---------------------------------------------------------------------------
# class-sweep: every extension class of each fixture decided
# ---------------------------------------------------------------------------

SWEEP_FIXTURES = [
    # criterion 4's eight fixtures, then three beyond it: n = 8 over F3
    # (m = 4, so the determinant leaves the closed-form path) and
    # g = 1, n = 6 over F7 (117 649 classes)
    ("g1w_f3", 3, [0, 1, 0, 1], 2), ("g1w_f3", 3, [0, 1, 0, 1], 4),
    ("g2_f3", 3, [1, 2, 0, 0, 0, 1], 4), ("g2_f3", 3, [1, 2, 0, 0, 0, 1], 6),
    ("g1_f5", 5, [1, 0, 0, 1], 2), ("g1_f5", 5, [1, 0, 0, 1], 4),
    ("g2_f5", 5, [1, 1, 0, 0, 0, 1], 4), ("g2_f5", 5, [1, 1, 0, 0, 0, 1], 6),
    ("g1w_f3", 3, [0, 1, 0, 1], 8), ("g2_f3", 3, [1, 2, 0, 0, 0, 1], 8),
    ("g1_f7", 7, [1, 0, 0, 1], 6),
]
SWEEP_SAMPLE = 16            # classes per fixture re-ranked by the oracle


def sweep_key(name, n):
    return f"{name}/n{n}"


def sweep_prepare(cx, seed, work_dir):
    order = list(range(len(SWEEP_FIXTURES)))
    _rng("class-sweep", seed).shuffle(order)
    return {"seed": seed, "order": order,
            "pinned": load_goldens()["class-sweep"]}


def _sweep_fixture(cx, fx, mark, op, res, clock):
    """Timed part of one fixture; returns (datum, table, flags, next op)
    for the checks.  flags[i] has bit 0 set when class i has a nonzero
    determinant and bit 1 when it lies in the secant table."""
    name, p, f, n = fx
    t0 = clock()
    F = cx.fields.PrimeField(p)
    curve = cx.curves.make_curve(F, f)
    g = curve.genus
    datum = cx.extensions.make_datum(
        curve, curve.infinity_divisor(n),
        curve.infinity_divisor(n // 2 + g - 1))
    table = cx.secant.secant_table(datum, n // 2 - 1)
    res.add_other(sweep_key(name, n), clock() - t0)
    det_payload = datum.det_payload
    is_zero = F.is_zero
    lat = res.latencies
    flags = bytearray()
    violations = 0
    t = clock()
    for coords in product(range(p), repeat=datum.class_dim):
        mark.op = op
        op += 1
        nonzero = not is_zero(det_payload(coords))
        member = coords in table
        t2 = clock()
        lat.append(t2 - t)
        t = t2
        flags.append(nonzero | (member << 1))
        if nonzero and member:
            violations += 1
    res.attempted += len(flags)
    if violations:
        res.fail(f"class-sweep {name} n={n}: {violations} certified classes "
                 f"on the secant locus", violations)
    return datum, table, flags, op


def sweep_run_pass(cx, ctx, mark, clock):
    res = PassResult()
    op = 0
    for k in ctx["order"]:
        fx = SWEEP_FIXTURES[k]
        name, p, f, n = fx
        pinned = ctx["pinned"][sweep_key(name, n)]
        try:
            datum, table, flags, op = _sweep_fixture(cx, fx, mark, op, res,
                                                     clock)
        except Exception as exc:
            res.attempted += pinned["classes"]
            res.fail(f"class-sweep {name} n={n}: {type(exc).__name__}: {exc}",
                     pinned["classes"])
            continue
        g = datum.curve.genus
        want = {"classes": p ** (n + g - 1), "nonzero": pinned["nonzero"],
                "table": pinned["table"]}
        got = {"classes": len(flags),
               "nonzero": sum(v & 1 for v in flags), "table": len(table)}
        for key in want:
            if got[key] != want[key]:
                res.fail(f"class-sweep {name} n={n}: {key} = {got[key]}, "
                         f"pinned {want[key]}")
        # the boundary determinant vanishes exactly when the boundary
        # matrix drops rank; re-rank a seeded sample independently
        rng = _rng("class-sweep", ctx["seed"], name, n)
        dim = datum.class_dim
        for i in rng.sample(range(len(flags)), k=min(SWEEP_SAMPLE, len(flags))):
            coords = tuple((i // p ** (dim - 1 - j)) % p for j in range(dim))
            try:
                rows = datum.boundary_payload_rows(coords)
            except Exception as exc:   # the benchmark must keep running
                res.fail(f"class-sweep {name} n={n}: boundary rows of "
                         f"{coords}: {type(exc).__name__}: {exc}")
                continue
            full = oracles.modp_rank(rows, p) == datum.m
            if full != bool(flags[i] & 1) or (flags[i] >> 1) != (coords in table):
                res.fail(f"class-sweep {name} n={n}: class {coords} "
                         f"disagrees with the mod-{p} re-rank")
    return res


# ---------------------------------------------------------------------------
# point-enum: closed points of fresh genus-2 curves
# ---------------------------------------------------------------------------

ENUM_CURVES = [
    ("g2_f37", {"field": {"Fp": 37}, "f": [1, 1, 0, 0, 0, 1]}, 2),
    ("g2_f25", {"field": {"Fpk": {"p": 5, "minpoly": [3, 0, 1]}},
                "f": [1, 1, 0, 0, 0, 1]}, 2),
    ("g2_f7", {"field": {"Fp": 7}, "f": [1, 2, 0, 0, 0, 1]}, 3),
]
ENUM_SAMPLE = 24             # points per curve re-checked from scratch


def _small_field(spec):
    fld = spec["field"]
    if "Fp" in fld:
        return oracles.SmallField(fld["Fp"])
    return oracles.SmallField(fld["Fpk"]["p"], fld["Fpk"]["minpoly"])


def enum_prepare(cx, seed, work_dir):
    brute = {}
    for name, spec, _ in ENUM_CURVES:
        F = _small_field(spec)
        brute[name] = oracles.brute_rational_points(
            F, [F.elem(c) for c in spec["f"]])
    order = list(range(len(ENUM_CURVES)))
    _rng("point-enum", seed).shuffle(order)
    return {"seed": seed, "order": order, "brute_degree1": brute,
            "pinned": load_goldens()["point-enum"]}


def _enumerate_in_steps(cx, spec, max_deg, clock):
    """Build the curve and enumerate its closed points, timed in steps.

    A call takes 1-3 s.  The clock can only correct for the host's speed
    when it is read, and a point is the op, so the call is timed in
    steps: a step ends each time the curve
    module draws its next place polynomial from iter_monic_irreducible.
    Step k is the work on polynomial k plus the draw of the next one;
    the head step is curve construction, the point at infinity and the
    first draw.  Returns the points, each point's share of
    the step that produced it, and {step: seconds} for the steps that
    produced no point (the tail, after the last draw, is one of them).
    Should the curve module stop drawing from iter_monic_irreducible,
    every point falls in the head step, which is then the whole call.
    """
    marks = []
    draw = cx.curves.iter_monic_irreducible

    def marked(field, max_degree):
        for p in draw(field, max_degree):
            marks.append((clock(), p))
            yield p
        marks.append((clock(), None))

    cx.curves.iter_monic_irreducible = marked
    try:
        t0 = clock()
        curve = cx.curves.curve_from_json(spec)
        pts = cx.curves.enumerate_closed_points(curve, max_deg)
        t1 = clock()
    finally:
        cx.curves.iter_monic_irreducible = draw
    F = curve.field
    bounds = [t0] + [t for t, _ in marks] + [t1]
    seconds = [b - a for a, b in zip(bounds, bounds[1:])]
    step_of = {tuple(F.payload_key(c) for c in p.coeffs): k + 1
               for k, (_, p) in enumerate(marks) if p is not None}
    steps = [0 if pt.xminpoly is None else
             step_of.get(tuple(F.payload_key(c) for c in pt.xminpoly.coeffs), 0)
             for pt in pts]
    counts = {}
    for s in steps:
        counts[s] = counts.get(s, 0) + 1
    shares = [seconds[s] / counts[s] for s in steps]
    idle = {k: dt for k, dt in enumerate(seconds) if k not in counts}
    return pts, shares, idle


def enum_run_pass(cx, ctx, mark, clock):
    res = PassResult()
    rng = _rng("point-enum", ctx["seed"])
    op = 0
    for k in ctx["order"]:
        name, spec, max_deg = ENUM_CURVES[k]
        pinned = ctx["pinned"][name]
        mark.op = op
        t0 = clock()
        try:
            pts, shares, idle = _enumerate_in_steps(cx, spec, max_deg, clock)
        except Exception as exc:
            res.add_other(name, clock() - t0)
            total = sum(pinned.values())
            res.attempted += total
            res.fail(f"point-enum {name}: {type(exc).__name__}: {exc}", total)
            continue
        # the op is one returned point, and its latency is its share of
        # the step that produced it; steps without a point are timed
        # work outside the ops
        res.latencies.extend(shares)
        for step, dt in idle.items():
            res.add_other(f"{name}:{step}", dt)
        res.attempted += len(pts)
        op += len(pts)
        counts = {}
        for pt in pts:
            counts[str(pt.degree)] = counts.get(str(pt.degree), 0) + 1
        if counts != pinned:
            res.fail(f"point-enum {name}: counts {counts}, pinned {pinned}")
        if counts.get("1", 0) != ctx["brute_degree1"][name]:
            res.fail(f"point-enum {name}: {counts.get('1', 0)} degree-1 points,"
                     f" brute force finds {ctx['brute_degree1'][name]}")
        if len({pt.key() for pt in pts}) != len(pts):
            res.fail(f"point-enum {name}: repeated points")
        F = _small_field(spec)
        f = [F.elem(c) for c in spec["f"]]
        for pt in rng.sample(pts, k=min(ENUM_SAMPLE, len(pts))):
            xm = [] if pt.xminpoly is None else [F.elem(c) for c in pt.xminpoly.coeffs]
            yb = [] if pt.ybranch is None else [F.elem(c) for c in pt.ybranch.coeffs]
            if not oracles.place_is_valid(F, f, pt.kind, xm, yb):
                res.fail(f"point-enum {name}: {pt!r} is not a valid place")
    return res


# ---------------------------------------------------------------------------
# cli-mix: in-process CLI calls, one client in a closed loop
# ---------------------------------------------------------------------------

def cli_prepare(cx, seed, work_dir):
    catalog = load_goldens()["cli-mix"]
    os.makedirs(work_dir, exist_ok=True)
    for fname, obj in catalog["files"].items():
        with open(os.path.join(work_dir, fname), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return {"work_dir": work_dir,
            "sequence": cli_sequence(catalog["entries"], seed)}


def cli_sequence(entries, seed):
    """The seeded op sequence of a pass: every catalog entry once, in an
    order drawn from the seed.  Every seed therefore does the same work,
    so the spread between seeds shows the host, not the inputs."""
    seq = list(entries)
    _rng("cli-mix", seed).shuffle(seq)
    return seq


def report_digest(report):
    """SHA-256 of a report's result and witnesses in canonical JSON.  The
    timings field is left out on purpose: it is meant to grow counters."""
    core = json.dumps({"result": report["result"],
                       "witnesses": report["witnesses"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(core.encode("utf-8")).hexdigest()


def cli_argv(entry, work_dir):
    return [a.replace("{work}", work_dir) for a in entry["argv"]]


def cli_run_pass(cx, ctx, mark, clock):
    res = PassResult()
    main = cx.cli.main
    for op, entry in enumerate(ctx["sequence"]):
        mark.op = op
        argv = cli_argv(entry, ctx["work_dir"])
        out = io.StringIO()
        res.attempted += 1
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        res.latencies.append(clock() - t0)
        res.kinds.append(entry["kind"])
        try:
            digest = report_digest(json.loads(out.getvalue()))
        except (ValueError, KeyError, TypeError) as exc:
            digest = f"unreadable report: {exc}"
        if (code, digest) != (entry["code"], entry["digest"]):
            res.fail(f"cli-mix {' '.join(entry['argv'][:2])}: exit {code}, "
                     f"report differs from the golden")
    return res


WORKLOADS = {
    "rr-cold": (rr_prepare, rr_run_pass),
    "class-sweep": (sweep_prepare, sweep_run_pass),
    "point-enum": (enum_prepare, enum_run_pass),
    "cli-mix": (cli_prepare, cli_run_pass),
}
