"""End-to-end checks of the command line front end.

main() runs in process so exit codes and both streams can be asserted
exactly.  The process-boundary tests at the end shell out to
``python -m curvext``, the same program as the ``curvext`` console
script, so they run without an installed script; the script itself is
run only where it is on PATH.  Everything else stays in process because
subprocess startup would dominate the suite.
"""

import enum
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import curvext.__main__
import curvext.fields
import curvext.secant
from curvext import (Divisor, ExtensionClass, class_to_json, curve_to_json,
                     datum_to_json, det_test, divisor_to_json,
                     prop1_certificate)
from curvext.cli import _build_parser, _write_json, main
from helpers import (curve_g1_f5, datum_on_infinity, evaluation_class,
                     skew_reverification)

# the directory holding the curvext package this suite imported, so a
# child process runs the same tree whatever the working directory
SRC = str(Path(curvext.__file__).resolve().parent.parent)
MODULE = [sys.executable, "-m", "curvext"]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def assert_canonical(out, argv):
    """stdout is the stdlib's indented serialization of what it parses
    to, byte for byte, whitespace and `inputs` included."""
    assert out == stdlib_dumps(json.loads(out)) + "\n", argv


def _dead_line(datum):
    # m = 1 here, so det is linear in the coordinates and any single
    # nonzero class with det 0 spans a line the search cannot leave
    F = datum.curve.field
    for coords in product(list(F.iter_payloads()), repeat=datum.class_dim):
        if all(F.is_zero(v) for v in coords):
            continue
        if not det_test(ExtensionClass(datum, list(coords))):
            return list(coords)
    raise AssertionError("no singular class on a dim-2 space over F5")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """One directory of JSON fixtures shared by every test here."""
    root = tmp_path_factory.mktemp("cli")
    curve = curve_g1_f5()

    def dump(name, obj):
        path = root / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    d4 = datum_on_infinity(curve, 4)
    d2 = datum_on_infinity(curve, 2)
    paths = {
        "curve": dump("curve.json", curve_to_json(curve)),
        "cls": dump("cls.json", class_to_json(ExtensionClass(d4, [1, 0, 2, 3]))),
        "zero": dump("zero.json", class_to_json(ExtensionClass(d4, [0, 0, 0, 0]))),
        "subspace": dump("subspace.json",
                         {"datum": datum_to_json(d2), "V": [[1, 0], [0, 1]]}),
        "dead": dump("dead.json",
                     {"datum": datum_to_json(d2), "V": [_dead_line(d2)]}),
        "points": dump("points.json", ["infinity", {"x": 0, "y": 1}]),
        "root": str(root),
    }
    (root / "bad.json").write_text("{not json", encoding="utf-8")
    paths["bad"] = str(root / "bad.json")
    # class file whose datum names the curve by relative path
    rel = {"datum": {"curve": "curve.json",
                     "N": [{"point": "infinity", "mult": 4}],
                     "M": [{"point": "infinity", "mult": 2}]},
           "e": [1, 0, 2, 3]}
    paths["cls_rel"] = dump("cls_rel.json", rel)
    return paths


TOP_KEYS = ["command", "inputs", "result", "timings", "witnesses"]


def test_report_shape_and_serialization(tree, capsys):
    code, out, err = run(capsys, ["curve", "validate", tree["curve"]])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == TOP_KEYS
    assert report["command"] == "curve validate"
    assert report["inputs"] == {"file": tree["curve"]}
    assert report["result"]["status"] == "ok"
    assert report["result"]["valid"] is True
    assert report["result"]["genus"] == 1
    assert report["result"]["f_degree"] == 3
    assert report["witnesses"] == []
    # stdout is the canonical serialization, nothing more
    assert out == stdlib_dumps(report) + "\n"
    # the human table goes to stderr and never pollutes stdout
    assert "curve validate" in err
    assert "wall_seconds" in err
    assert "wall_seconds" not in out


class _Level(enum.IntEnum):
    HIGH = 7


# objects the report writer must serialize as the stdlib does, byte for
# byte: the float specials, big ints, escapes, tuples, empty containers,
# non-str keys (sorted as given, then converted) and subclasses
WRITER_CASES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 0.1, 10 ** 30,
    -10 ** 30, True, False, None, "", 0, [], {}, (),
    'quote " backslash \\ tab \t nul \x00 \x1f del \x7f',
    "non-ASCII é ∑ \U0001f600",
    (1, (2, "x"), [None, True, 1.5]),
    {"a": {}, "b": [[], {}]},
    [[[]], [{}], {"k": []}, {"k": {}}],
    {1: "int", 2: [1, {3: 4}]},
    {1.5: "f", float("nan"): "nan", -0.0: "neg zero", 1e400: "inf"},
    {True: 1, False: 0},
    {None: [None]},
    {"level": _Level.HIGH, "levels": [_Level.HIGH, 1]},
    {_Level.HIGH: "key", 3: "three"},
    {"z": 1, "a": [1, "two", 3.0, None, False], "m": {"y": (), "x": [[1]]}},
]


def test_report_writer_matches_the_stdlib():
    for obj in WRITER_CASES:
        assert "".join(_write_json(obj, [], "\n")) == stdlib_dumps(obj), obj
    for bad in [object(), {"k": {1, 2}}, [1, b"x"], {(1, 2): 0},
                {"k": [Fraction(1, 2)]}, {1: 0, "a": 1}]:
        with pytest.raises(TypeError) as want:
            stdlib_dumps(bad)
        with pytest.raises(TypeError) as got:
            _write_json(bad, [], "\n")
        assert str(got.value) == str(want.value)


def test_inline_specials_are_echoed_as_the_stdlib_writes_them(tree, capsys):
    """Inline JSON reaches `inputs` as parsed, so NaN, 1e400 (infinity),
    escapes and nested empty containers are written to stdout."""
    divisor = json.dumps([{"point": "infinity", "mult": float("nan"),
                           "note": 'é "q" \\ \n', "x": [[], {}],
                           "y": -float("inf")}], ensure_ascii=False)
    outs = []
    for argv in (["rr", "basis", tree["curve"], "--divisor", divisor],
                 ["bounds", "m", tree["curve"], "--divisor",
                  '[{"point": "infinity", "mult": 1e400}]'],
                 ["ext", "prop1", tree["cls"], "--L", '[{"a": [], "b": {}}]'],
                 ["curve", "validate", tree["curve"], "--no-such-option"]):
        code, out, _ = run(capsys, argv)
        assert code == 1, argv
        assert_canonical(out, argv)
        outs.append(out)
    assert "NaN" in outs[0] and "-Infinity" in outs[0]
    assert "Infinity" in outs[1]


def _command_matrix(tree):
    return [
        ["curve", "validate", tree["curve"]],
        ["rr", "basis", tree["curve"],
         "--divisor", '[{"point": "infinity", "mult": 5}]'],
        ["ext", "det", tree["cls"]],
        ["ext", "prop1", tree["cls"]],
        ["ext", "search", tree["subspace"]],
        ["ext", "destab", tree["zero"]],
        ["ext", "destab", tree["zero"], "--max-degree", "0"],
        ["ext", "destab", tree["cls"], "--points", tree["points"]],
        ["secant", "member", tree["zero"]],
        ["secant", "member", tree["cls"], "--d", "0"],
        ["secant", "experiment", tree["curve"], "--n", "4", "--dim", "2",
         "--trials", "2", "--seed", "7"],
        ["bounds", "m", tree["curve"],
         "--divisor", '[{"point": "infinity", "mult": 3}]'],
        ["bounds", "delta0", "--n", "6", "--g", "2", "--m", "3"],
        ["bounds", "theorem2", "--n", "4", "--g", "2", "--m", "2",
         "--degF", "1", "--c1sq", "3/7", "--k", "5"],
    ]


def test_every_command_is_byte_stable(tree, capsys):
    for argv in _command_matrix(tree):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first[0] == 0, (argv, first[1])
        assert second[0] == 0
        assert first[1] == second[1], argv
        assert_canonical(first[1], argv)
        report = json.loads(first[1])
        assert sorted(report) == TOP_KEYS
        assert report["result"]["status"] == "ok"


def test_rr_basis_payload(tree, capsys):
    code, report, _ = run_json(
        capsys, ["rr", "basis", tree["curve"],
                 "--divisor", '[{"point": "infinity", "mult": 5}]'])
    assert code == 0
    res = report["result"]
    assert res["dim"] == 5
    assert res["degree"] == 5
    assert res["pole_orders"] == [0, 2, 3, 4, 5]
    assert len(res["basis"]) == 5
    assert res["basis"][0]["a"] == [1]
    assert report["inputs"]["divisor"] == [{"point": "infinity", "mult": 5}]


def test_rr_basis_over_a_semiprime_place_is_quick(tmp_path, capsys):
    # validating x^2 - (10^9+7)(10^9+9) decides it has no rational root;
    # by trial division of the constant that took about 10^9 steps
    N = (10 ** 9 + 7) * (10 ** 9 + 9)
    path = tmp_path / "g1q.json"
    path.write_text(json.dumps({"field": "Q", "f": [1, 0, 0, 1]}),
                    encoding="utf-8")
    div = [{"point": {"xminpoly": [-N, 0, 1], "ybranch": None}, "mult": 1}]
    t0 = time.perf_counter()
    code, report, _ = run_json(
        capsys, ["rr", "basis", str(path), "--divisor", json.dumps(div)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert report["result"]["dim"] == report["result"]["degree"] == 4


def test_ext_det_and_prop1_agree(tree, capsys):
    code, det_rep, _ = run_json(capsys, ["ext", "det", tree["cls"]])
    assert code == 0
    res = det_rep["result"]
    assert (res["m"], res["n"]) == (2, 4)
    assert res["nonzero"] is (res["det"] != 0)
    assert res["certifies_semistable"] is res["nonzero"]

    code, p1, _ = run_json(capsys, ["ext", "prop1", tree["cls"]])
    assert code == 0
    cert = p1["result"]["certificate"]
    assert cert["outcome"] in ("certified-semistable", "inconclusive")
    if res["nonzero"]:
        assert cert["outcome"] == "certified-semistable"


def test_ext_prop1_reads_a_twist(tree, capsys):
    """`ext prop1 --L --M` on L' = L - D0 and M' = M - D0 for an effective
    D0, so M' - L' = M - L ~ N: the certificate is the library's for the
    same twist, not the untwisted one, and `inputs` echoes both divisors."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    e = ExtensionClass(datum, [1, 0, 2, 3])        # the class of tree["cls"]
    D0 = Divisor(curve, [(curve.point(0, 1), 1)])
    Lp, Mp = datum.L - D0, datum.M - D0
    L_text = json.dumps(divisor_to_json(Lp))
    M_text = json.dumps(divisor_to_json(Mp))
    code, report, _ = run_json(capsys, ["ext", "prop1", tree["cls"],
                                        "--L", L_text, "--M", M_text])
    assert code == 0
    cert = prop1_certificate(e, Lp, Mp)
    assert report["result"]["certificate"] == {
        "outcome": cert.status, "rank": cert.rank, "rows": cert.rows,
        "cols": cert.cols, "case_a": cert.case_a, "case_b": cert.case_b}
    default = prop1_certificate(e)
    assert (cert.rows, cert.cols) != (default.rows, default.cols)
    assert report["inputs"] == {"file": tree["cls"], "L": json.loads(L_text),
                                "M": json.loads(M_text)}


def test_search_reports_witness(tree, capsys):
    code, report, _ = run_json(capsys, ["ext", "search", tree["subspace"]])
    assert code == 0
    res = report["result"]
    assert res["found"] is True
    assert res["examined"] >= 1
    (witness,) = report["witnesses"]
    assert witness["coefficients"] == res["coefficients"]
    assert len(witness["coords"]) == 2
    assert max(abs(c) for c in res["coefficients"]) <= res["box"]


def test_destab_on_the_zero_class(tree, capsys):
    code, report, _ = run_json(capsys, ["ext", "destab", tree["zero"]])
    assert code == 0
    res = report["result"]
    assert res["found"] is True and res["complete"] is True
    # the zero class is destabilized by the empty divisor
    assert report["witnesses"] == [[]]

    code, capped, _ = run_json(
        capsys, ["ext", "destab", tree["zero"], "--max-degree", "0"])
    assert code == 0
    assert capped["result"]["complete"] is False
    assert capped["inputs"]["max_degree"] == 0


def test_secant_member_reports(tree, capsys):
    code, report, _ = run_json(capsys, ["secant", "member", tree["zero"]])
    assert code == 0
    res = report["result"]
    assert res["member"] is True and res["d"] == 1
    assert report["witnesses"] == [[]]

    code, report, _ = run_json(
        capsys, ["secant", "member", tree["cls"], "--d", "0"])
    assert code == 0
    res = report["result"]
    assert res["member"] is False and res["d"] == 0
    assert report["witnesses"] == []
    assert report["inputs"]["d"] == 0


def test_secant_member_scans_past_the_recursion_limit(tmp_path, capsys):
    """--d 6 walks divisors over 3 440 closed points, more than the
    recursion limit; it gives one report with --d 5's count and witness."""
    d8 = datum_on_infinity(curve_g1_f5(), 8)
    path = tmp_path / "cls8.json"
    path.write_text(json.dumps(class_to_json(
        ExtensionClass(d8, [1, 0, 2, 3, 1, 4, 0, 1]))), encoding="utf-8")
    code, report, err = run_json(
        capsys, ["secant", "member", str(path), "--d", "6"])
    assert code == 0 and "Traceback" not in err
    res = report["result"]
    assert res["complete"] is True and res["member"] is True
    assert res["examined"] == 243
    assert report["witnesses"] == [[{"mult": 1, "point": {
        "xminpoly": [4, 2, 1, 3, 1], "ybranch": [4, 0, 2, 3]}}]]


def test_failed_reverification_exits_three(tmp_path, monkeypatch, capsys):
    """A witness that fails its own re-verification gives one
    internal-error report and exit 3, not a traceback."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    e = evaluation_class(datum, curve.point(2, 2))
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(class_to_json(e)), encoding="utf-8")
    j = next(i for i, c in enumerate(e.coords) if c)
    skew_reverification(monkeypatch, j)
    for argv in (["secant", "member", str(path)], ["ext", "destab", str(path)]):
        code, out, _ = run(capsys, argv)
        assert code == 3
        report = json.loads(out)
        assert report["result"]["status"] == "internal-error"
        assert "re-verification" in report["result"]["message"]
        assert report["witnesses"] == [] and report["timings"] == {}


def test_experiment_thread_count_is_invisible(tree, capsys):
    base = ["secant", "experiment", tree["curve"], "--n", "4", "--dim", "3",
            "--trials", "3", "--seed", "11"]
    one = run(capsys, base + ["--threads", "1"])
    eight = run(capsys, base + ["--threads", "8"])
    assert one[0] == eight[0] == 0
    assert one[1] == eight[1]
    report = json.loads(one[1])
    assert "threads" not in report["inputs"]
    assert report["inputs"]["seed"] == 11
    res = report["result"]
    assert res["trials"] == 3 and res["violations"] == 0
    assert [o["trial"] for o in res["outcomes"]] == [0, 1, 2]


def test_experiment_trial_cap_is_inclusive(tree, capsys, monkeypatch):
    monkeypatch.setattr(curvext.secant, "MAX_TRIALS", 3)
    base = ["secant", "experiment", tree["curve"], "--n", "4", "--dim", "1",
            "--trials"]
    assert run(capsys, base + ["3"])[0] == 0
    code, report, _ = run_json(capsys, base + ["4"])
    assert code == 1
    assert report["result"]["status"] == "input-error"
    assert "limit of 3" in report["result"]["message"]


def test_stderr_table_counts_long_lists(tree, capsys):
    """A list of more than 8 items is its length in the stderr table, so
    1 000 outcomes fill stdout but not stderr; 8 are still written out."""
    base = ["secant", "experiment", tree["curve"], "--n", "4", "--dim", "2",
            "--trials"]
    for trials, cell in (("1000", lambda outs: "[1000 items]"),
                         ("8", lambda outs: json.dumps(outs, sort_keys=True))):
        code, out, err = run(capsys, base + [trials])
        assert code == 0
        outcomes = json.loads(out)["result"]["outcomes"]
        assert len(outcomes) == int(trials)
        rows = dict(line.split(None, 1) for line in err.splitlines())
        assert rows["outcomes"] == cell(outcomes)
        assert "wall_seconds" in rows
        assert len(err.encode()) < 2048


def test_experiment_needs_a_thread(tree, capsys):
    code, report, _ = run_json(capsys, [
        "secant", "experiment", tree["curve"], "--n", "4", "--dim", "3",
        "--trials", "3", "--threads", "0"])
    assert code == 1
    assert report["result"]["status"] == "input-error"
    assert report["result"]["message"] == "need at least one thread"


def test_benchmark_cli_goldens_replay(tmp_path, monkeypatch, capsys):
    """Every call of the benchmark's cli-mix catalog, run in process,
    gives its recorded exit code and report digest, and stdout is the
    stdlib's serialization of the report, so a change to any report
    byte fails here and not only in the benchmark.  The catalog
    and its argv and digest helpers are read from perfbench/ without
    writing there (no bytecode cache)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    catalog = workloads.load_goldens()["cli-mix"]
    for fname, obj in catalog["files"].items():
        (tmp_path / fname).write_text(json.dumps(obj), encoding="utf-8")
    differ = []
    for entry in catalog["entries"]:
        code, out, _ = run(capsys, workloads.cli_argv(entry, str(tmp_path)))
        assert_canonical(out, entry["argv"])
        got = (code, workloads.report_digest(json.loads(out)))
        if got != (entry["code"], entry["digest"]):
            differ.append(" ".join(entry["argv"]))
    assert catalog["entries"] and differ == []


def test_benchmark_tracer_counts_and_restores(monkeypatch):
    """The benchmark's tracer, installed on this suite's curvext modules,
    counts one rank (with its entries read off the Matrix argument), one
    Ben-Or test and one boundary determinant, and uninstalling puts back
    every attribute it rebound, so a refactor that breaks the traced
    pass fails here and not only in the benchmark's self-test.
    tracing.py and program.py are read from perfbench/ without writing
    there (no bytecode cache)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    layers = importlib.import_module("program").LAYERS
    modules = {name: importlib.import_module(f"curvext.{name}")
               for name in layers}
    modules["curvext"] = curvext
    F5 = curvext.PrimeField(5)
    datum = datum_on_infinity(curve_g1_f5(), 4)
    tracer = tracing.Tracer(modules)
    try:
        tracer.install()
        rebound = list(tracer._undo)
        assert all(getattr(holder, attr) is not old
                   for holder, attr, old in rebound)
        assert modules["linalg"].rank(
            curvext.Matrix(F5, [[1, 2], [3, 4], [0, 1]])) == 2
        assert curvext.Poly(F5, [2, 0, 1]).is_irreducible()
        datum.det_payload((1, 0, 0, 0))
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    rank = totals["linalg.rank"]
    assert (rank["calls"], rank["entries"]) == (1, 6)
    assert totals["polys.Poly.is_irreducible"]["calls"] == 1
    assert totals["extensions.ExtensionDatum.det_payload"]["calls"] == 1
    assert rebound and all(getattr(holder, attr) is old
                           for holder, attr, old in rebound)


# values a mutant puts where the catalog has another JSON type, and field
# specs that name no field; ints stay small, so no mutant asks for a size
# that only the allocation would refuse
WRONG_TYPES = ["x", None, True, 1.5, [], {}, [[]], {"k": 1}]
BAD_FIELDS = [{"Fp": 4}, {"Fp": "5"}, {"Fp": 2}, {"Fp": -5}, {"Fp": 5.0},
              {"Fpk": {"p": 5}}, {"Fpk": {"p": 5, "minpoly": [1, 1]}},
              {"Fpk": {"p": 4, "minpoly": [3, 0, 1]}}, "R", {}]


def _json_paths(obj, path=()):
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield from _json_paths(v, path + (k,))


def _mutate_json(obj, rng):
    """A deep copy of obj with one node given a wrong type, dropped, made
    a small negative int, or, under a "field" key, a bad field spec."""
    obj = json.loads(json.dumps(obj))
    path = rng.choice(list(_json_paths(obj)))
    if not path:
        return rng.choice(WRONG_TYPES)
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    op = "field" if path[-1] == "field" else rng.choice(["type", "drop", "neg"])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = (rng.choice(BAD_FIELDS) if op == "field"
                            else rng.choice(WRONG_TYPES) if op == "type"
                            else -rng.randint(1, 3))
    return obj


def _mutate_argv(argv, files, work, rng):
    """argv with one token mutated: an int becomes a small negative int
    or a non-int, inline JSON and the JSON file a path names are
    mutated, or a token is dropped."""
    argv = list(argv)
    i = rng.randrange(2, len(argv))
    tok = argv[i]
    name = tok.replace("{work}/", "")
    if name in files:
        path = work / f"mut_{rng.getrandbits(32):08x}_{name}"
        path.write_text(json.dumps(_mutate_json(files[name], rng)),
                        encoding="utf-8")
        argv[i] = str(path)
    elif tok[:1] in "[{":
        argv[i] = json.dumps(_mutate_json(json.loads(tok), rng))
    elif tok.lstrip("-").isdigit() and rng.random() < 0.7:
        argv[i] = str(-rng.randint(1, 3))
    elif tok.lstrip("-").isdigit():
        argv[i] = rng.choice(["x", "1.5", ""])
    else:
        del argv[i]
    return [a.replace("{work}", str(work)) for a in argv]


def test_cli_contract_on_seeded_mutants(tmp_path, capsys):
    """Seeded mutants of the benchmark's cli-mix catalog (wrong JSON
    types, missing keys, bad field specs, small negative ints) each give
    one JSON report on stdout, byte for byte as the stdlib writes it, and
    an exit code in {0, 1, 2, 3}, never a traceback; all of them run
    within 5 s."""
    catalog = json.loads((PERFBENCH / "goldens.json").read_text(
        encoding="utf-8"))["cli-mix"]
    files = catalog["files"]
    for fname, obj in files.items():
        (tmp_path / fname).write_text(json.dumps(obj), encoding="utf-8")
    rng = random.Random("cli-contract")
    statuses = {1: {"input-error"}, 2: {"not-applicable", "exhausted"},
                3: {"internal-error"}}
    start = time.perf_counter()
    seen = set()
    for entry in catalog["entries"]:
        for _ in range(4):
            argv = _mutate_argv(entry["argv"], files, tmp_path, rng)
            try:
                code, out, _ = run(capsys, argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{argv} escaped: {exc!r}")
            assert_canonical(out, argv)
            report = json.loads(out)
            assert set(report) == {"command", "inputs", "result",
                                   "witnesses", "timings"}, argv
            assert code in (0, 1, 2, 3), argv
            assert code == 0 or report["result"]["status"] in statuses[code]
            seen.add(code)
    assert time.perf_counter() - start < 5
    assert {0, 1} <= seen


def test_relative_curve_path_resolves_against_the_class_file(tree, capsys):
    code, report, _ = run_json(capsys, ["ext", "det", tree["cls_rel"]])
    assert code == 0
    direct = run_json(capsys, ["ext", "det", tree["cls"]])[1]
    assert report["result"] == direct["result"]


def test_bounds_commands(tree, capsys):
    code, report, _ = run_json(
        capsys, ["bounds", "m", tree["curve"],
                 "--divisor", '[{"point": "infinity", "mult": 3}]'])
    assert code == 0
    assert report["result"] == {"status": "ok", "m": 3, "deg_M": 3, "genus": 1}

    code, report, _ = run_json(
        capsys, ["bounds", "delta0", "--n", "6", "--g", "2", "--m", "3"])
    assert code == 0
    assert report["result"]["delta0"] == 6 - 3 + 2 - 1

    code, report, _ = run_json(
        capsys, ["bounds", "theorem2", "--n", "4", "--g", "2", "--m", "2",
                 "--degF", "1", "--c1sq", "0", "--k", "4"])
    assert code == 0
    res = report["result"]
    assert res["A"].startswith("2.552585092994045684")
    assert res["bound"] == "-" + res["A"]


def test_theorem2_gate_exits_two_with_inputs_echoed(tree, capsys):
    argv = ["bounds", "theorem2", "--n", "4", "--g", "2", "--m", "2",
            "--degF", "1", "--c1sq", "0", "--k", "3"]
    code, report, err = run_json(capsys, argv)
    assert code == 2
    assert report["result"]["status"] == "not-applicable"
    assert "message" in report["result"]
    assert report["inputs"]["k"] == 3
    assert report["inputs"]["n"] == 4
    assert "not-applicable" in err


def test_search_exhaustion_exits_two(tree, capsys):
    code, report, _ = run_json(capsys, ["ext", "search", tree["dead"]])
    assert code == 2
    assert report["result"]["status"] == "exhausted"
    assert report["inputs"]["file"] == tree["dead"]


F25_FIELD = {"Fpk": {"p": 5, "minpoly": [2, 0, 1]}}
MALFORMED_CURVES = [
    {"field": {"Fpk": {"p": "5", "minpoly": [2, 0, 1]}}, "f": [1, 0, 0, 1]},
    {"field": {"Fpk": {"p": 5, "minpoly": "x"}}, "f": [1, 0, 0, 1]},
    {"field": {"Fpk": {"p": 5, "minpoly": [2, "a", 1]}}, "f": [1, 0, 0, 1]},
    {"field": {"Fpk": {"p": 5, "minpoly": [2, 0.9, 1]}}, "f": [1, 0, 0, 1]},
    {"field": F25_FIELD, "f": [[1.5, 0], 0, 0, 1]},
    {"field": F25_FIELD, "f": [[True, 2], 0, 0, 1]},
    {"field": "Q", "f": ["abc", 0, 0, 1]},
    {"field": "Q", "f": ["1/0", 0, 0, 1]},
    {"field": {"Fp": 5}, "f": 5},
    {"field": {"Fp": 5}, "f": {"0": 1}},
    {"field": {"Fp": 5}, "f": [1, 0, 0, 1], "label": 7},
    {"field": {"Fp": 5}, "f": [1, 0, 0, 1], "label": ["g1"]},
]

# divisors on the y^2 = x^3+1 curve over F5 whose point JSON is malformed
MALFORMED_DIVISORS = [
    [{"point": {"xminpoly": 3}, "mult": 1}],
    [{"point": {"xminpoly": [0, 1], "ybranch": 1}, "mult": 1}],
    [{"point": {"xminpoly": "x"}, "mult": 1}],
]


def test_input_errors_exit_one(tree, capsys):
    root = Path(tree["root"])

    def dump(name, obj):
        (root / name).write_text(json.dumps(obj), encoding="utf-8")
        return str(root / name)

    cases = [
        ["curve", "validate", tree["root"] + "/missing.json"],
        ["curve", "validate", tree["bad"]],
        ["rr", "basis", tree["curve"], "--divisor", "{"],
        ["secant", "experiment", tree["curve"], "--n", "3", "--dim", "1",
         "--trials", "1"],
        ["secant", "member", tree["cls"], "--d", "-1"],
        ["ext", "destab", tree["cls"], "--max-degree", "-3"],
    ]
    for i, obj in enumerate(MALFORMED_CURVES):
        cases.append(["curve", "validate", dump(f"malformed{i}.json", obj)])
    for div in MALFORMED_DIVISORS:
        cases.append(["rr", "basis", tree["curve"], "--divisor", json.dumps(div)])
    # a class file whose curve path is missing or not JSON
    for curve in ("nowhere.json", "bad.json"):
        cls = {"datum": {"curve": curve,
                         "N": [{"point": "infinity", "mult": 4}],
                         "M": [{"point": "infinity", "mult": 2}]},
               "e": [1, 0, 2, 3]}
        cases.append(["ext", "det", dump(f"cls_{curve}", cls)])
    # a subspace whose V, or a row of it, is not a list
    datum = json.loads(Path(tree["subspace"]).read_text(encoding="utf-8"))["datum"]
    for i, V in enumerate((5, [5])):
        cases.append(["ext", "search",
                      dump(f"subspace_v{i}.json", {"datum": datum, "V": V})])
    for argv in cases:
        code, report, _ = run_json(capsys, argv)
        assert code == 1, argv
        assert report["result"]["status"] == "input-error"
        assert report["result"]["message"]
    # a --points file that holds one point, not a list of them
    code, report, _ = run_json(capsys, ["ext", "destab", tree["cls"], "--points",
                                        dump("one_point.json", {"point": "infinity"})])
    assert code == 1
    assert report["result"]["message"] == "points file must hold a JSON list of points"


def test_usage_errors_exit_one_with_a_report(tree, capsys):
    cases = [
        ["bogus"],
        ["bounds", "delta0", "--n", "6", "--g", "2"],
        ["ext", "destab", tree["zero"], "--max-degree", "0",
         "--points", tree["points"]],
        [],
    ]
    for argv in cases:
        code, out, _ = run(capsys, argv)
        assert code == 1, argv
        report = json.loads(out)
        assert report["result"]["status"] == "input-error"
        assert sorted(report) == TOP_KEYS


def test_one_parser_serves_every_call(tree, capsys):
    """The parser is built once per process; a capped call, then a usage
    error, then a plain call leave nothing behind in it: the plain report
    shows the default cap and equals the one a fresh parser gives."""
    assert _build_parser() is _build_parser()
    code, capped, _ = run_json(
        capsys, ["ext", "destab", tree["cls"], "--max-degree", "0"])
    assert code == 0 and capped["result"]["max_degree"] == 0
    code, out, _ = run(capsys, ["ext", "destab", tree["cls"], "--max-degree",
                                "0", "--points", tree["points"]])
    assert code == 1
    report = json.loads(out)
    assert sorted(report) == TOP_KEYS
    assert report["result"]["status"] == "input-error"
    code, plain, _ = run(capsys, ["ext", "destab", tree["cls"]])
    assert code == 0
    report = json.loads(plain)
    assert report["inputs"] == {"file": tree["cls"]}
    assert report["result"]["max_degree"] == 1 and report["result"]["complete"]
    _build_parser.cache_clear()
    assert run(capsys, ["ext", "destab", tree["cls"]])[1] == plain


def test_inputs_echo_survives_handler_errors(tree, capsys):
    # the divisor parses, then construction fails; both inputs come back
    argv = ["rr", "basis", tree["curve"],
            "--divisor", '[{"point": "infinity", "mult": "x"}]']
    code, report, _ = run_json(capsys, argv)
    assert code == 1
    assert report["inputs"]["curve"] == tree["curve"]
    assert report["inputs"]["divisor"] == [{"point": "infinity", "mult": "x"}]


def run_child(command, argv, timeout=60, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(command + argv, capture_output=True, text=True,
                          env=env, timeout=timeout, input=stdin)


DELTA0 = ["bounds", "delta0", "--n", "4", "--g", "1", "--m", "2"]

# the CLI in a child under a 1 GiB address-space cap, so a regression that
# allocates without bound fails fast instead of filling the host's memory
CAPPED = [sys.executable, "-c",
          "import resource, sys\n"
          "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
          "from curvext.cli import main\n"
          "sys.exit(main())\n"]


# main() over a JSON list of argv lists read from stdin, in one child under
# the same cap; prints a JSON list of [exit code, stdout] pairs
CAPPED_BATCH = [sys.executable, "-c",
                "import contextlib, io, json, resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from curvext.cli import main\n"
                "done = []\n"
                "for argv in json.load(sys.stdin):\n"
                "    out = io.StringIO()\n"
                "    with contextlib.redirect_stdout(out):\n"
                "        done.append([main(argv), out.getvalue()])\n"
                "print(json.dumps(done))\n"]


def _huge_variants(argv):
    """argv once per int token, that token set to +10**30 and to -10**30,
    and once per inline divisor, every mult in it set to 10**30."""
    for i, tok in enumerate(argv):
        if tok.lstrip("-").isdigit():
            values = [str(10 ** 30), str(-10 ** 30)]
        elif tok[:1] == "[":
            values = [json.dumps([dict(part, mult=10 ** 30)
                                  for part in json.loads(tok)])]
        else:
            continue
        for value in values:
            yield argv[:i] + [value] + argv[i + 1:]


P64 = 2 ** 64 - 59      # a prime; F_P64 has too many elements to list


def _past_the_limits(tmp_path):
    """(argv, exit code, message fragment or None) for inputs past a
    size limit: ints with more digits than the interpreter reads or
    writes, when it has such a limit, and a field too large to list,
    where only the scans that need no place answer."""
    def dump(name, obj):
        (tmp_path / name).write_text(obj if isinstance(obj, str)
                                     else json.dumps(obj), encoding="utf-8")
        return str(tmp_path / name)

    big = dump("c_p64.json", {"field": {"Fp": P64}, "f": [1, 1, 0, 0, 0, 1]})
    cls = dump("cls_p64.json", {"datum": {
        "curve": big, "N": [{"point": "infinity", "mult": 2}],
        "M": [{"point": "infinity", "mult": 2}]}, "e": [1, 0, 0]})
    listing = f"more than {curvext.fields.MAX_LISTED_ORDER} elements"
    cases = [(["secant", "member", cls], 0, None),
             (["ext", "destab", cls], 0, None),
             (["secant", "experiment", big, "--n", "2", "--dim", "1",
               "--trials", "1"], 1, listing),
             (["secant", "member", cls, "--d", "1"], 1, listing)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return cases
    long_int = "1" + "0" * limit        # limit + 1 digits
    cq = dump("c_q.json", {"field": "Q", "f": [1, 0, 0, 1]})
    return cases + [
        (["rr", "basis", cq, "--divisor",
          f'[{{"point": {{"x": {long_int}, "y": null}}, "mult": 1}}]'],
         1, f"({limit} digits)"),
        (["curve", "validate",
          dump("c_long.json", '{"field": "Q", "f": [1, 0, 0, %s]}' % long_int)],
         1, f"({limit} digits)"),
        (["rr", "basis", cq, "--divisor", json.dumps(
            [{"point": {"x": f"1e{limit}", "y": None}, "mult": 1}])],
         1, f"more than {limit} digits"),
        (["bounds", "theorem2", "--n", "4", "--g", "2", "--m", "2",
          "--degF", "1", "--c1sq", f"1e{limit + 1}", "--k", "4"],
         1, f"more than {limit} digits")]


def test_cli_contract_on_huge_ints(tmp_path):
    """Every call of the cli-mix catalog with one int token at +-10**30,
    or with mult 10**30 in its inline divisor, gives one canonical report
    and exits 0, 1 or 2: each size is refused before it allocates, or
    answered.  So do the inputs of _past_the_limits, each with its own
    exit code and message.  The calls run in one child under the 1 GiB
    cap and a timeout, so a size that slips past its refusal fails
    fast."""
    catalog = json.loads((PERFBENCH / "goldens.json").read_text(
        encoding="utf-8"))["cli-mix"]
    for fname, obj in catalog["files"].items():
        (tmp_path / fname).write_text(json.dumps(obj), encoding="utf-8")
    calls = []
    for entry in catalog["entries"]:
        for argv in _huge_variants(entry["argv"]):
            argv = [a.replace("{work}", str(tmp_path)) for a in argv]
            if argv not in calls:
                calls.append(argv)
    limits = _past_the_limits(tmp_path)
    calls += [argv for argv, _, _ in limits]
    proc = run_child(CAPPED_BATCH, [], timeout=30, stdin=json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    done = json.loads(proc.stdout)
    assert len(done) == len(calls) > 100
    for argv, (code, out) in zip(calls, done):
        assert code in (0, 1, 2), argv
        assert_canonical(out, argv)
        assert sorted(json.loads(out)) == TOP_KEYS, argv
    assert {0, 1, 2} == {code for code, _ in done}
    for (argv, code, message), (got, out) in zip(
            limits, done[len(done) - len(limits):]):
        result = json.loads(out)["result"]
        assert got == code, (argv, result)
        assert result["status"] == ("ok" if code == 0 else "input-error")
        assert message is None or message in result["message"], argv


THEOREM2 = ["bounds", "theorem2", "--n", "4", "--g", "2", "--m", "2",
            "--degF", "1", "--k", "4"]


def _point_divisor(x, mult=1):
    return json.dumps([{"point": {"x": x, "y": None}, "mult": mult}])


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no int digit limit")
def test_decimal_strings_past_the_digit_limit_are_refused_at_once(tmp_path,
                                                                  capsys):
    """A decimal string whose value, written out in full, takes more
    digits than the interpreter writes is refused before Fraction expands
    its exponent: each call gives one input-error report naming the
    limit and exits 1, in well under a second.  Before, 1e2000000 ended
    in a decimal.Overflow traceback, 1e999999 took 18 s and the two
    1e-2000000 inputs ran for minutes.  A string just inside the limit
    is read as it always was."""
    limit = sys.get_int_max_str_digits()
    cq = tmp_path / "c_q.json"
    cq.write_text(json.dumps({"field": "Q", "f": [1, 0, 0, 1]}),
                  encoding="utf-8")
    refused = [THEOREM2 + ["--c1sq", "1e2000000"],
               THEOREM2 + ["--c1sq", "1e999999"],
               THEOREM2 + ["--c1sq", "1e-2000000"],
               ["rr", "basis", str(cq), "--divisor",
                _point_divisor("1e-2000000")]]
    # one capped child with a timeout first, so a regression fails fast
    proc = run_child(CAPPED_BATCH, [], timeout=20, stdin=json.dumps(refused))
    assert proc.returncode == 0, proc.stderr
    assert [code for code, _ in json.loads(proc.stdout)] == [1] * 4
    for argv in refused:
        t0 = time.perf_counter()
        code, out, _ = run(capsys, argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 1, argv
        assert_canonical(out, argv)
        result = json.loads(out)["result"]
        assert result["status"] == "input-error"
        assert f"more than {limit} digits" in result["message"], argv

    inside = f"1e{limit - 1}"           # limit digits written out in full
    code, report, _ = run_json(capsys, THEOREM2 + ["--c1sq", inside])
    assert code == 0
    assert report["result"]["bound_rational_part"] == str(
        Fraction(10 ** (limit - 1), 8) - Fraction(1, 4))
    code, report, _ = run_json(capsys, ["rr", "basis", str(cq), "--divisor",
                                        _point_divisor(f"1e-{limit - 1}")])
    assert code == 0
    assert report["result"]["denominator"] == [f"-1/{10 ** (limit - 1)}", 1]


def test_rational_past_the_digit_limit_in_a_report_is_refused(tmp_path,
                                                              capsys):
    """A point x = 1e-2200 at multiplicity 2 is read, but its basis holds
    a coefficient with a 4 401-digit denominator.  Every rational becomes
    text through one guarded route, so the report is one input-error
    naming the digit limit, not a traceback with empty stdout.  At
    x = 1e2000 and multiplicity 3 the basis denominator (x - 10^2000)^3
    has an int constant of 6 001 digits, which the handler returns as it
    is; main's writer refuses it with the same report."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 4401:
        pytest.skip("the interpreter writes a 4 401-digit int")
    cq = tmp_path / "c_q.json"
    cq.write_text(json.dumps({"field": "Q", "f": [1, 0, 0, 1]}),
                  encoding="utf-8")
    for x, mult in (("1e-2200", 2), ("1e2000", 3)):
        argv = ["rr", "basis", str(cq), "--divisor", _point_divisor(x, mult)]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert_canonical(out, argv)
        report = json.loads(out)
        assert report["result"] == {
            "status": "input-error",
            "message": f"a number in the report has more than {limit} digits, "
                       "the interpreter's limit for writing an int"}
        assert report["inputs"]["divisor"] == json.loads(argv[-1])


def test_console_script_round_trip():
    proc = run_child(MODULE, DELTA0)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "bounds delta0"
    assert report["result"]["delta0"] == 2
    assert "wall_seconds" in proc.stderr

    # main()'s nonzero return code reaches the process unchanged
    proc = run_child(MODULE, ["bounds", "theorem2", "--n", "4", "--g", "2",
                              "--m", "2", "--degF", "1", "--c1sq", "0",
                              "--k", "3"])
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["result"]["status"] == "not-applicable"


def test_module_run_matches_in_process(tree, capsys):
    for argv in _command_matrix(tree):
        code, out, _ = run(capsys, argv)
        proc = run_child(MODULE, argv)
        assert proc.returncode == code, argv
        assert proc.stdout == out, argv


def test_oversized_divisors_are_refused_before_they_allocate(tree):
    """A divisor whose Riemann-Roch ansatz would pass MAX_ANSATZ_COLUMNS,
    or whose basis could pass MAX_BASIS_ENTRIES payloads (mult 10 000 at
    infinity, exactly at the column cap), is refused with exit 1 and one report before anything
    is built for it, and so is an experiment past MAX_TRIALS (10**6
    trials would otherwise run for minutes and need gigabytes).  The
    child runs under a 1 GiB address-space cap and a timeout, so a
    regression fails fast instead of filling the host's memory."""
    huge = json.dumps([{"point": "infinity", "mult": 10 ** 30}])
    at_cap = json.dumps([{"point": "infinity", "mult": 10 ** 4}])
    cases = [(["rr", "basis", tree["curve"], "--divisor", huge],
              "ansatz columns"),
             (["bounds", "m", tree["curve"], "--divisor", huge],
              "ansatz columns"),
             (["secant", "experiment", tree["curve"], "--n", str(10 ** 18),
               "--dim", "1", "--trials", "1"], "ansatz columns"),
             (["rr", "basis", tree["curve"], "--divisor", at_cap],
              "basis of L(D) may hold"),
             (["secant", "experiment", tree["curve"], "--n", "4",
               "--dim", "1", "--trials", str(10 ** 6)],
              f"limit of {curvext.secant.MAX_TRIALS}")]
    for argv, message in cases:
        proc = run_child(CAPPED, argv, timeout=20)
        assert proc.returncode == 1, (argv, proc.stderr)
        result = json.loads(proc.stdout)["result"]
        assert result["status"] == "input-error"
        assert message in result["message"]


def test_secant_member_reads_no_places_past_its_witness(tmp_path):
    """Places of a degree are built only when the scan reaches it: on
    the benchmark's g2/F5 member class (n = 6, a witness of degree 4
    after 312 divisors), --d 1000000 exits 0 within seconds under the
    1 GiB cap, with the report of --d 4 apart from the index itself."""
    files = json.loads((PERFBENCH / "goldens.json").read_text(
        encoding="utf-8"))["cli-mix"]["files"]
    for fname in ("cls_secant_member_f5_0.json", "c_g2_f5.json"):
        (tmp_path / fname).write_text(json.dumps(files[fname]),
                                      encoding="utf-8")
    reports = []
    for d in ("4", "1000000"):
        proc = run_child(CAPPED, ["secant", "member", str(
            tmp_path / "cls_secant_member_f5_0.json"), "--d", d], timeout=20)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["result"].pop("d") == report["inputs"].pop("d") == int(d)
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["result"]["member"]


def test_console_script_is_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]
    assert scripts["curvext"] == "curvext.cli:main"
    module, _, attr = scripts["curvext"].partition(":")
    assert getattr(importlib.import_module(module), attr) is curvext.__main__.main


@pytest.mark.skipif(shutil.which("curvext") is None,
                    reason="curvext console script not on PATH")
def test_installed_script_matches_module():
    script = run_child(["curvext"], DELTA0)
    assert script.returncode == 0
    assert script.stdout == run_child(MODULE, DELTA0).stdout
