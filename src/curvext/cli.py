"""Command line front end.

Every command writes one JSON report object to stdout with the fixed
top-level fields {command, inputs, result, witnesses, timings} in sorted
key order, and a short human-readable table to stderr.  Exit codes:
0 success, 1 malformed input, 2 mathematically not applicable (gate
violations, exhausted searches), 3 a witness that failed its own
re-verification (an internal error).

Reports are deterministic: the timings field carries work counters, not
wall-clock times (those go to stderr only), and thread count never
appears in the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import bounds as _bounds
from .curves import (curve_from_json, divisor_from_json, divisor_to_json,
                     point_from_json)
from .errors import CurvextError, InputError
from .extensions import (brute_force_destabilizer, class_from_json,
                         load_json, make_datum, prop1_certificate,
                         search_semistable, subspace_from_json)
from .fields import rational_text, too_many_digits
from .riemann_roch import function_to_json, rr_basis
from .secant import offsecant_experiment, secant_member


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means not-applicable here,
    # so route usage problems through the input-error path instead
    def error(self, message):
        raise InputError(message)


def _inline_divisor(curve, text: str, what: str, inputs: dict, key: str):
    """The divisor in inline JSON text, echoed to inputs[key] as parsed."""
    try:
        inputs[key] = dv = json.loads(text)
    except ValueError as exc:       # a JSONDecodeError, or an overlong int
        raise InputError(f"bad {what} JSON: {exc}") from exc
    return divisor_from_json(curve, dv)


def _load_curve(path: str):
    return curve_from_json(load_json(path))


def _load_class(path: str):
    return class_from_json(load_json(path), base_dir=os.path.dirname(path) or ".")


# ---------------------------------------------------------------------------
# command handlers: fill `inputs` as they parse (the echo survives error
# exits), return (result, witnesses, timings)
# ---------------------------------------------------------------------------

def _cmd_curve_validate(args, inputs):
    inputs["file"] = args.file
    curve = curve_from_json(load_json(args.file))
    result = {"status": "ok", "valid": True, "genus": curve.genus,
              "f_degree": curve.f.degree, "label": curve.label}
    return result, [], {}


def _cmd_rr_basis(args, inputs):
    inputs["curve"] = args.curve
    curve = _load_curve(args.curve)
    D = _inline_divisor(curve, args.divisor, "divisor", inputs, "divisor")
    B = rr_basis(curve, D)
    result = {"status": "ok", "dim": B.dim, "degree": D.degree,
              "pole_orders": list(B.pole_orders),
              "denominator": [curve.field.payload_to_json(v)
                              for v in B.denominator.coeffs],
              "basis": [function_to_json(fn) for fn in B.basis]}
    return result, [], {"dim": B.dim}


def _cmd_ext_det(args, inputs):
    inputs["file"] = args.file
    e = _load_class(args.file)
    F = e.datum.curve.field
    val = e.datum.det_payload(e.coords)
    nonzero = not F.is_zero(val)
    result = {"status": "ok", "det": F.payload_to_json(val),
              "nonzero": nonzero, "certifies_semistable": nonzero,
              "m": e.datum.m, "n": e.datum.n}
    return result, [], {"m": e.datum.m}


def _cmd_ext_prop1(args, inputs):
    inputs["file"] = args.file
    e = _load_class(args.file)
    curve = e.datum.curve
    Lp = Mp = None
    if args.L is not None:
        Lp = _inline_divisor(curve, args.L, "L divisor", inputs, "L")
    if args.M is not None:
        Mp = _inline_divisor(curve, args.M, "M divisor", inputs, "M")
    cert = prop1_certificate(e, Lp, Mp)
    result = {"status": "ok",
              "certificate": {"outcome": cert.status, "rank": cert.rank,
                              "rows": cert.rows, "cols": cert.cols,
                              "case_a": cert.case_a, "case_b": cert.case_b}}
    return result, [], {"rows": cert.rows, "cols": cert.cols}


def _cmd_ext_search(args, inputs):
    inputs["file"] = args.file
    obj = load_json(args.file)
    datum, V = subspace_from_json(obj, base_dir=os.path.dirname(args.file) or ".")
    sr = search_semistable(V)
    F = datum.curve.field
    witness = {"coefficients": list(sr.coefficients),
               "coords": [F.payload_to_json(v) for v in sr.witness.coords]}
    result = {"status": "ok", "found": True, "box": sr.box,
              "examined": sr.examined, "coefficients": list(sr.coefficients)}
    return result, [witness], {"examined": sr.examined}


def _cmd_ext_destab(args, inputs):
    inputs["file"] = args.file
    e = _load_class(args.file)
    points = None
    if args.points is not None:
        inputs["points"] = args.points
        pts = load_json(args.points)
        if not isinstance(pts, list):
            raise InputError("points file must hold a JSON list of points")
        points = [point_from_json(e.datum.curve, p) for p in pts]
    if args.max_degree is not None:
        inputs["max_degree"] = args.max_degree
    res = brute_force_destabilizer(e, max_degree=args.max_degree, points=points)
    result = {"status": "ok", "found": res.found, "examined": res.examined,
              "complete": res.complete, "max_degree": res.bound}
    witnesses = [divisor_to_json(res.witness)] if res.found else []
    return result, witnesses, {"examined": res.examined}


def _cmd_secant_member(args, inputs):
    inputs["file"] = args.file
    if args.d is not None:
        inputs["d"] = args.d
    e = _load_class(args.file)
    res = secant_member(e, args.d)
    result = {"status": "ok", "member": res.found, "d": res.bound,
              "examined": res.examined, "complete": res.complete}
    witnesses = [divisor_to_json(res.witness)] if res.found else []
    return result, witnesses, {"examined": res.examined}


def _cmd_secant_experiment(args, inputs):
    inputs.update({"curve": args.curve, "n": args.n, "dim": args.dim,
                   "trials": args.trials, "seed": args.seed})
    curve = _load_curve(args.curve)
    if args.n < 2 or args.n % 2:
        raise InputError(f"--n must be a positive even integer, got {args.n}")
    # canonical datum on the infinity class: N = n*inf, M = (n/2+g-1)*inf,
    # so 2M - N - K = 0 and the witness u is the constant 1
    N = curve.infinity_divisor(args.n)
    M = curve.infinity_divisor(args.n // 2 + curve.genus - 1)
    datum = make_datum(curve, N, M)
    # --threads is accepted and checked; the trials run serially, so it
    # changes neither the report nor the scheduling
    if args.threads < 1:
        raise InputError("need at least one thread")
    report = offsecant_experiment(datum, args.dim, args.trials, seed=args.seed)
    to_json = curve.field.payload_to_json
    result = {**vars(report), "status": "ok", "outcomes": [
        {**vars(t), "witness": t.witness and [to_json(v) for v in t.witness]}
        for t in report.outcomes]}
    return result, [], {"examined": report.examined_total,
                        "trials": report.trials}


def _cmd_bounds_m(args, inputs):
    inputs["curve"] = args.curve
    curve = _load_curve(args.curve)
    M = _inline_divisor(curve, args.divisor, "divisor", inputs, "divisor")
    m = _bounds.compute_m(curve, M)
    result = {"status": "ok", "m": m, "deg_M": M.degree, "genus": curve.genus}
    return result, [], {}


def _cmd_bounds_delta0(args, inputs):
    inputs.update({"n": args.n, "g": args.g, "m": args.m})
    v = _bounds.theorem1_delta0(args.n, args.g, args.m)
    return {"status": "ok", "delta0": v}, [], {}


def _cmd_bounds_theorem2(args, inputs):
    inputs.update({"n": args.n, "g": args.g, "m": args.m, "degF": args.degF,
                   "c1sq": args.c1sq, "k": args.k})
    b = _bounds.BoundInputs(n=args.n, g=args.g, m=args.m, degF=args.degF,
                            c1sq=args.c1sq, k=args.k)
    r = _bounds.theorem2_bound(b)
    result = {"status": "ok", "A": r.A, "bound": r.bound, "ulp": r.ulp,
              "A_rational_part": rational_text(r.A_rational),
              "bound_rational_part": rational_text(r.bound_rational),
              "log_argument": r.log_argument, "gate": b.gate}
    return result, [], {}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args fills a fresh namespace per call,
    # so no argument state carries over between calls
    p = _Parser(prog="curvext", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="group", required=True)

    curve = sub.add_parser("curve").add_subparsers(dest="cmd", required=True)
    cv = curve.add_parser("validate")
    cv.add_argument("file")
    cv.set_defaults(handler=_cmd_curve_validate, name="curve validate")

    rr = sub.add_parser("rr").add_subparsers(dest="cmd", required=True)
    rb = rr.add_parser("basis")
    rb.add_argument("curve")
    rb.add_argument("--divisor", required=True)
    rb.set_defaults(handler=_cmd_rr_basis, name="rr basis")

    ext = sub.add_parser("ext").add_subparsers(dest="cmd", required=True)
    ed = ext.add_parser("det")
    ed.add_argument("file")
    ed.set_defaults(handler=_cmd_ext_det, name="ext det")
    ep = ext.add_parser("prop1")
    ep.add_argument("file")
    ep.add_argument("--L")
    ep.add_argument("--M")
    ep.set_defaults(handler=_cmd_ext_prop1, name="ext prop1")
    es = ext.add_parser("search")
    es.add_argument("file")
    es.set_defaults(handler=_cmd_ext_search, name="ext search")
    eb = ext.add_parser("destab")
    eb.add_argument("file")
    grp = eb.add_mutually_exclusive_group()
    grp.add_argument("--max-degree", type=int, dest="max_degree")
    grp.add_argument("--points")
    eb.set_defaults(handler=_cmd_ext_destab, name="ext destab")

    sec = sub.add_parser("secant").add_subparsers(dest="cmd", required=True)
    sm = sec.add_parser("member")
    sm.add_argument("file")
    sm.add_argument("--d", type=int)
    sm.set_defaults(handler=_cmd_secant_member, name="secant member")
    se = sec.add_parser("experiment")
    se.add_argument("curve")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--dim", type=int, required=True)
    se.add_argument("--trials", type=int, required=True)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--threads", type=int, default=1)
    se.set_defaults(handler=_cmd_secant_experiment, name="secant experiment")

    bnd = sub.add_parser("bounds").add_subparsers(dest="cmd", required=True)
    bm = bnd.add_parser("m")
    bm.add_argument("curve")
    bm.add_argument("--divisor", required=True)
    bm.set_defaults(handler=_cmd_bounds_m, name="bounds m")
    bd = bnd.add_parser("delta0")
    bd.add_argument("--n", type=int, required=True)
    bd.add_argument("--g", type=int, required=True)
    bd.add_argument("--m", type=int, required=True)
    bd.set_defaults(handler=_cmd_bounds_delta0, name="bounds delta0")
    bt = bnd.add_parser("theorem2")
    bt.add_argument("--n", type=int, required=True)
    bt.add_argument("--g", type=int, required=True)
    bt.add_argument("--m", type=int, required=True)
    bt.add_argument("--degF", type=int, required=True)
    bt.add_argument("--c1sq", required=True)
    bt.add_argument("--k", type=int, required=True)
    bt.set_defaults(handler=_cmd_bounds_theorem2, name="bounds theorem2")
    return p


_encode_str = json.encoder.encode_basestring_ascii
# json.dumps's text for each exact scalar type; floats, which reports only
# echo from inline JSON, and str and int subclasses go to json.dumps itself
_SCALAR = {str: _encode_str, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _write_json(o, out: list, indent: str) -> list:
    """Append json.dumps(o, sort_keys=True, separators=(",", ": "),
    indent=1) to out, byte for byte, and return out.  indent is the
    newline and spaces before o's closing bracket.  json.dumps itself
    writes all but containers and exact scalars, or raises its TypeError.
    No type can subclass two of str, int, float, list, tuple and dict,
    so testing containers first changes nothing."""
    scalar = _SCALAR.get(type(o))
    if scalar is not None:
        out.append(scalar(o))
    elif isinstance(o, (list, tuple)):
        inner = indent + " "
        kinds = set(map(type, o))
        if o and kinds <= _SCALAR.keys():    # a list of scalars: one join
            texts = (map(_SCALAR[kinds.pop()], o) if len(kinds) == 1
                     else [_SCALAR[type(v)](v) for v in o])
            out.append("[" + inner + ("," + inner).join(texts) + indent + "]")
        else:
            sep = "[" + inner
            for v in o:
                out.append(sep)
                sep = "," + inner
                _write_json(v, out, inner)
            out.append(indent + "]" if o else "[]")
    elif isinstance(o, dict):
        inner = indent + " "
        sep = "{" + inner
        for key, v in sorted(o.items()):
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                key = json.dumps(key)
            # a scalar value joins its key's piece: no call per value
            scalar = _SCALAR.get(type(v))
            out.append(sep + _encode_str(key) + ": "
                       + ("" if scalar is None else scalar(v)))
            if scalar is None:
                _write_json(v, out, inner)
            sep = "," + inner
        out.append(indent + "}" if o else "{}")
    else:       # floats, str and int subclasses, or what JSON cannot hold
        out.append(json.dumps(o))
    return out


def _cell(val):
    """A list of more than 8 items as its length, other lists and dicts as JSON."""
    if isinstance(val, list) and len(val) > 8:
        return f"[{len(val)} items]"
    return json.dumps(val, sort_keys=True) if isinstance(val, (dict, list)) else val


def _human_table(report: dict, wall: float, stream) -> None:
    rows = [("command", report["command"])]
    for key in sorted(report["result"]):
        rows.append((key, _cell(report["result"][key])))
    if report["witnesses"]:
        rows.append(("witnesses", _cell(report["witnesses"])))
    rows.append(("wall_seconds", f"{wall:.3f}"))
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}", file=stream)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    start = time.perf_counter()
    name = "curvext"
    inputs = {}
    try:
        args = _build_parser().parse_args(argv)
        name = args.name
        result, witnesses, timings = args.handler(args, inputs)
        code = 0
    except CurvextError as exc:
        result = {"status": exc.status, "message": str(exc)}
        witnesses, timings, code = [], {}, exc.exit_code
    report = {"command": name, "inputs": inputs, "result": result,
              "witnesses": witnesses, "timings": timings}
    try:
        text = "".join(_write_json(report, [], "\n"))
    except ValueError:          # an int too long to write; inputs never hold one
        exc = too_many_digits()
        report.update(result={"status": exc.status, "message": str(exc)},
                      witnesses=[], timings={})
        code, text = exc.exit_code, "".join(_write_json(report, [], "\n"))
    sys.stdout.write(text + "\n")
    _human_table(report, time.perf_counter() - start, sys.stderr)
    return code

