"""Record the answers the benchmark checks against, from the current code.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json: the pinned class-sweep counts (nonzero
determinants, secant-table sizes), the pinned point counts of
point-enum, and the cli-mix catalog with each command's expected exit
code and a digest of its ``result`` and ``witnesses``.  Run it only to
re-pin answers after a change that is meant to alter them; a speed
change must leave the file as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import product

import program
import workloads

CURVES = {
    "c_g1_q.json": {"field": "Q", "f": [1, 0, 0, 1], "label": "g1/Q"},
    "c_g2_q.json": {"field": "Q", "f": [1, 1, 0, 0, 0, 1], "label": "g2/Q"},
    "c_g1_f5.json": {"field": {"Fp": 5}, "f": [1, 0, 0, 1], "label": "g1/F5"},
    "c_g2_f3.json": {"field": {"Fp": 3}, "f": [1, 2, 0, 0, 0, 1],
                     "label": "g2/F3"},
    "c_g2_f5.json": {"field": {"Fp": 5}, "f": [1, 1, 0, 0, 0, 1],
                     "label": "g2/F5"},
    "c_g2_f7.json": {"field": {"Fp": 7}, "f": [1, 2, 0, 0, 0, 1],
                     "label": "g2/F7"},
    "c_g3_f5.json": {"field": {"Fp": 5}, "f": [1, 1, 0, 0, 0, 0, 0, 1],
                     "label": "g3/F5"},
    "c_g2_f25.json": {"field": {"Fpk": {"p": 5, "minpoly": [3, 0, 1]}},
                      "f": [1, 1, 0, 0, 0, 1], "label": "g2/F25"},
}


def _inf(mult):
    return [{"point": "infinity", "mult": mult}]


def _datum_json(curve_file, genus, n):
    return {"curve": curve_file, "N": _inf(n), "M": _inf(n // 2 + genus - 1)}


def _classes(cx, curve_file, n, rng, count, certified):
    """Seeded classes on the infinity datum of a curve file; with
    certified=True only classes whose boundary determinant is nonzero,
    which lie off the secant locus, so a scan over them never stops
    early and every one costs the same."""
    curve = cx.curves.curve_from_json(CURVES[curve_file])
    g = curve.genus
    datum = cx.extensions.make_datum(curve, curve.infinity_divisor(n),
                                     curve.infinity_divisor(n // 2 + g - 1))
    p = curve.field.order()
    out = []
    while len(out) < count:
        coords = [rng.randrange(p) for _ in range(datum.class_dim)]
        nonzero = not curve.field.is_zero(datum.det_payload(coords))
        if nonzero or not certified:
            out.append({"datum": _datum_json(curve_file, g, n), "e": coords})
    return out


def cli_catalog(cx):
    rng = random.Random("cli-mix catalog")
    files = dict(CURVES)
    entries = []

    def add(kind, argv, **extra_files):
        files.update(extra_files)
        entries.append({"kind": kind, "argv": argv})

    for name in CURVES:
        add("curve_validate", ["curve", "validate", "{work}/" + name])
    for name in ("c_g1_f5.json", "c_g2_f7.json", "c_g3_f5.json",
                 "c_g2_f25.json"):
        curve = cx.curves.curve_from_json(CURVES[name])
        g = curve.genus
        pts = [cx.curves.point_to_json(pt)
               for pt in cx.curves.enumerate_closed_points(curve, 1)][1:]
        for dv in (_inf(2 * g + 2),
                   _inf(g + 1) + [{"point": rng.choice(pts), "mult": 1}]):
            add("rr_basis",
                ["rr", "basis", "{work}/" + name, "--divisor", json.dumps(dv)])
    for i, cls in enumerate(_classes(cx, "c_g1_f5.json", 4, rng, 4, False)
                            + _classes(cx, "c_g2_f5.json", 4, rng, 4, False)):
        fname = f"cls_small_{i}.json"
        add("ext_det", ["ext", "det", "{work}/" + fname], **{fname: cls})
        add("ext_prop1", ["ext", "prop1", "{work}/" + fname])
    # over Q, subspaces of dimension s = n - m + g in class space of
    # dimension n + g - 1
    for curve_file, g, n, s in (("c_g1_q.json", 1, 2, 2),
                                ("c_g2_q.json", 2, 4, 4)):
        for i in range(3):
            fname = f"sub_{curve_file[2:6]}_{i}.json"
            V = [[rng.randint(-3, 3) for _ in range(n + g - 1)]
                 for _ in range(s)]
            add("ext_search", ["ext", "search", "{work}/" + fname],
                **{fname: {"datum": _datum_json(curve_file, g, n), "V": V}})
    for i, cls in enumerate(_classes(cx, "c_g1_f5.json", 4, rng, 3, True)
                            + _classes(cx, "c_g2_f3.json", 4, rng, 3, True)):
        fname = f"cls_destab_{i}.json"
        add("ext_destab", ["ext", "destab", "{work}/" + fname],
            **{fname: cls})
    for tag, curve_file, n, count in (("f5", "c_g2_f5.json", 6, 6),
                                      ("f3", "c_g2_f3.json", 8, 4)):
        for i, cls in enumerate(_classes(cx, curve_file, n, rng, count, True)):
            fname = f"cls_secant_member_{tag}_{i}.json"
            add("secant_member", ["secant", "member", "{work}/" + fname],
                **{fname: cls})
    for seed in range(4):
        for threads in (1, 2):
            add(f"secant_experiment_t{threads}",
                ["secant", "experiment", "{work}/c_g1_f5.json", "--n", "4",
                 "--dim", "2", "--trials", "1000", "--seed", str(seed),
                 "--threads", str(threads)])
    for name, mult in (("c_g1_f5.json", 3), ("c_g2_f7.json", 4),
                       ("c_g3_f5.json", 5), ("c_g2_f5.json", 3)):
        add("bounds_m",
            ["bounds", "m", "{work}/" + name, "--divisor", json.dumps(_inf(mult))])
    for n, g, m in ((6, 2, 3), (8, 1, 4), (4, 2, 2), (10, 3, 5), (12, 2, 6),
                    (6, 3, 4)):
        add("bounds_delta0",
            ["bounds", "delta0", "--n", str(n), "--g", str(g), "--m", str(m)])
    # the last one asks below the gate n-m+g and must exit 2
    for n, g, m, degF, c1sq, k in ((4, 2, 2, 1, "0", 4), (4, 2, 2, 1, "3/7", 5),
                                   (6, 2, 3, 2, "-2", 5), (8, 1, 4, 1, "41/6", 5),
                                   (6, 1, 3, 3, "1/2", 4), (4, 2, 2, 1, "0", 3)):
        add("bounds_theorem2",
            ["bounds", "theorem2", "--n", str(n), "--g", str(g), "--m", str(m),
             "--degF", str(degF), "--c1sq", c1sq, "--k", str(k)])
    return files, entries


def record_cli(cx):
    files, entries = cli_catalog(cx)
    with tempfile.TemporaryDirectory(dir=program.ROOT) as work:
        for fname, obj in files.items():
            with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        for entry in entries:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cx.cli.main(workloads.cli_argv(entry, work))
            entry.update(code=code, digest=workloads.report_digest(
                json.loads(out.getvalue())))
            if code not in (0, 2):
                raise SystemExit(f"catalog entry fails: {entry}")
    return {"files": files, "entries": entries}


def record_sweep(cx):
    out = {}
    for name, p, f, n in workloads.SWEEP_FIXTURES:
        F = cx.fields.PrimeField(p)
        curve = cx.curves.make_curve(F, f)
        g = curve.genus
        datum = cx.extensions.make_datum(curve, curve.infinity_divisor(n),
                                         curve.infinity_divisor(n // 2 + g - 1))
        table = cx.secant.secant_table(datum, n // 2 - 1)
        nonzero = sum(1 for c in product(range(p), repeat=datum.class_dim)
                      if not F.is_zero(datum.det_payload(c)))
        out[workloads.sweep_key(name, n)] = {
            "classes": p ** datum.class_dim, "nonzero": nonzero,
            "table": len(table)}
    return out


def record_enum(cx):
    out = {}
    for name, spec, max_deg in workloads.ENUM_CURVES:
        curve = cx.curves.curve_from_json(spec)
        counts = {}
        for pt in cx.curves.enumerate_closed_points(curve, max_deg):
            counts[str(pt.degree)] = counts.get(str(pt.degree), 0) + 1
        out[name] = counts
    return out


def main():
    cx = program.load_program()
    goldens = {"class-sweep": record_sweep(cx), "point-enum": record_enum(cx),
               "cli-mix": record_cli(cx)}
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDENS_PATH}: "
          f"{len(goldens['cli-mix']['entries'])} cli entries", file=sys.stderr)


if __name__ == "__main__":
    main()
