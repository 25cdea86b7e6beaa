"""Collect sets of benchmark runs and compare them.

    # ten runs per workload of one checkout (seeds 1..10)
    python3 perfbench/compare.py collect --out runs.jsonl DIR
    # ten alternating pairs: parent and change, each pair on a fresh seed,
    # the side that runs first alternating from pair to pair
    python3 perfbench/compare.py collect --out pairs.jsonl PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py report runs.jsonl [--json]

Each DIR is a checkout; its own perfbench/run.py is run from its root.
``report`` reads the bounds from this checkout's BENCHMARK.json.  With
one side it prints each end-to-end metric's median, quartiles and
spread (interquartile distance over the median) against its bound.
With two sides it also prints, per workload and metric, the share of
pairs the change won and a verdict:

* better: the change won at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile distance;
* better, too, when the parent's own spread exceeds the bound but
  every run of the change beat every run of the parent;
* unresolved: otherwise, when the parent's own spread exceeds the
  bound;
* worse: the change's median is worse than the parent's by more than
  the bound;
* unchanged: anything else.

Runs with --trace 1 are summarized per per-layer metric by median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _spec():
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)


def collect(args):
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = list(zip(("base", "head"), args.dirs))
    with open(args.out, "a", encoding="utf-8") as out:
        for pair in range(args.runs):
            seed = pair + 1
            order = sides if pair % 2 == 0 else sides[::-1]
            for workload in workloads:
                for side, root in order:
                    cmd = [sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", str(args.trace)]
                    proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                          text=True, timeout=900, check=False)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        sys.stderr.write(proc.stderr)
                        raise SystemExit(f"{side} {workload} seed {seed} "
                                         f"exited {proc.returncode}")
                    record = {"side": side, "dir": os.path.abspath(root),
                              "workload": workload, "seed": seed,
                              "pair": pair, "first": order[0][0],
                              "trace": args.trace,
                              "result": json.loads(lines[-1])}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: "
                          f"correct={record['result']['correct']}",
                          file=sys.stderr)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better(a, b, direction):
    """True when value a is better than value b."""
    return a > b if direction == "higher" else a < b


def verdict(base, head, direction, bound, pairs):
    """Verdict for one metric on one workload; base and head are the
    per-run values, pairs the (base, head) values of each pair."""
    bq1, bmed, bq3 = _quartiles(base)
    _, hmed, _ = _quartiles(head)
    wins = sum(1 for b, h in pairs if _better(h, b, direction))
    if wins >= 0.9 * len(pairs) and abs(hmed - bmed) > bq3 - bq1:
        return "better"
    if (bq3 - bq1) / bmed > bound:
        if all(_better(h, b, direction) for h in head for b in base):
            return "better"
        return "unresolved"
    worse_by = (bmed - hmed if direction == "higher" else hmed - bmed) / bmed
    return "worse" if worse_by > bound else "unchanged"


def summarize(records):
    """{workload: {side: {...}}} from a list of run records."""
    spec = _spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for rec in records:
        ws = out.setdefault(rec["workload"], {})
        side = ws.setdefault(rec["side"] + ("-trace" if rec["trace"] else ""),
                             {"runs": 0, "attempted": 0, "failed": 0,
                              "seeds": [], "values": {}})
        res = rec["result"]
        side["runs"] += 1
        side["attempted"] += res["attempted"]
        side["failed"] += res["failed"]
        side["seeds"].append(rec["seed"])
        for name, m in res["metrics"].items():
            side["values"].setdefault(name, []).append(m["value"])
    for ws in out.values():
        for side in ws.values():
            side["error_rate"] = side["failed"] / max(side["attempted"], 1)
            side["metrics"] = {}
            for name, vals in side.pop("values").items():
                q1, med, q3 = _quartiles(vals)
                entry = {"unit": metrics[name]["unit"], "median": med,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
                if "bound" in metrics[name]:
                    entry["bound"] = metrics[name]["bound"]
                side["metrics"][name] = entry
    return out


def report(args):
    with open(args.runs_file, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    summary = summarize(records)
    if args.json:
        machine = {"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "platform": platform.platform()}
        print(json.dumps({"machine": machine, "workloads": summary},
                         indent=1, sort_keys=True))
        return
    spec = _spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    for workload, ws in summary.items():
        for side, s in sorted(ws.items()):
            print(f"{workload} [{side}] {s['runs']} runs, error_rate "
                  f"{s['error_rate']:.6f} ({s['failed']} of {s['attempted']})")
            for name, m in s["metrics"].items():
                flag = ""
                if "bound" in m:
                    flag = ("steady" if m["spread"] < m["bound"] / 3 else
                            "within bound" if m["spread"] <= m["bound"] else
                            "TOO NOISY")
                print(f"  {name:<48} median {m['median']:<12.6g} q1 "
                      f"{m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread "
                      f"{m['spread']:.4f} {flag}")
        if "base" in ws and "head" in ws:
            runs = [r for r in records if r["workload"] == workload
                    and not r["trace"]]
            print(f"{workload}: change against parent")
            for name, m in e2e.items():
                by_pair = {}
                for r in runs:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = \
                        r["result"]["metrics"][name]["value"]
                pairs = [(v["base"], v["head"]) for v in by_pair.values()
                         if len(v) == 2]
                base = [b for b, _ in pairs]
                head = [h for _, h in pairs]
                wins = sum(1 for b, h in pairs if _better(h, b, m["better"]))
                print(f"  {name:<14} parent {statistics.median(base):<12.6g} "
                      f"change {statistics.median(head):<12.6g} won "
                      f"{wins}/{len(pairs)}  "
                      f"{verdict(base, head, m['better'], m['bound'], pairs)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dirs", nargs="+", metavar="DIR")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("runs_file")
    r.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        if len(args.dirs) > 2:
            ap.error("collect takes one or two checkout directories")
        collect(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
