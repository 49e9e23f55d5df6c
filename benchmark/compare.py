#!/usr/bin/env python3
"""Compare two suite results files written by run.py.

    python3 benchmark/compare.py A.json B.json

A is the base (the parent commit), B the change. One row per workload
and end-to-end metric: each side's median and quartiles over its plain
passes, the ratio B/A with A's median as its base, and a verdict
against the metric's bound in BENCHMARK.json:

  ok          B is not worse than A by more than the bound
  regressed   B is worse than A by more than the bound
  unresolved  A's interquartile range is wider than the bound, so these
              runs cannot tell (unless every B run beats every A run)

Exact fields -- the model.* metrics and the output digests -- are
listed apart: a difference there is a behaviour change, not a
performance change, and must be explained. They are only compared when
both files used the same seed. Exits 1 when any metric regressed or is
unresolved, or any exact field changed.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, metric):
    q1, base, q3 = quartiles(a)
    changed = statistics.median(b)
    if metric["better"] == "higher":
        worse = (base - changed) / base
        all_better = min(b) > max(a)
    else:
        worse = (changed - base) / base
        all_better = max(b) < min(a)
    if (q3 - q1) / base > metric["bound"] and not all_better:
        return "unresolved"
    return "regressed" if worse > metric["bound"] else "ok"


def exact_fields(run):
    fields = {f"digest.{k}": v for k, v in run["digests"].items()}
    fields.update({k: m["value"] for k, m in run["metrics"].items()
                   if k.startswith("model.")})
    return fields


def compare(a, b, spec):
    """Verdict rows for every shared workload, and changed exact fields."""
    rows, changes = [], []
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        pa = a["workloads"][name]["plain"]
        pb = b["workloads"][name]["plain"]
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in pa]
            vb = [r["metrics"][m["name"]]["value"] for r in pb]
            rows.append({"workload": name, "metric": m, "a": va, "b": vb,
                         "verdict": verdict(va, vb, m)})
        if a["seed"] == b["seed"]:
            ea, eb = exact_fields(pa[0]), exact_fields(pb[0])
            for k in sorted(set(ea) | set(eb)):
                if ea.get(k) != eb.get(k):
                    changes.append((name, k, ea.get(k), eb.get(k)))
    return rows, changes


def host(results):
    m = results["host"]
    return (f"{m['config']['cpu_model']}, {m['threads']} threads, "
            f"{m['build']}, {m['simd_dispatch']}, git {m['git_sha']}")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        a = json.load(f)
    with open(argv[2]) as f:
        b = json.load(f)
    with open(SPEC) as f:
        spec = json.load(f)

    print(f"A: {host(a)}\nB: {host(b)}")
    if a["host"]["config"]["cpu_model"] != b["host"]["config"]["cpu_model"]:
        print("warning: A and B ran on different CPUs")
    rows, changes = compare(a, b, spec)
    print(f"\n{'workload':16s} {'metric':16s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'B/A':>7s}  verdict (bound)")
    for r in rows:
        cells = []
        for vals in (r["a"], r["b"]):
            q1, med, q3 = quartiles(vals)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        base = statistics.median(r["a"])
        m = r["metric"]
        print(f"{r['workload']:16s} {m['name']:16s} {cells[0]:>30s} "
              f"{cells[1]:>30s} {statistics.median(r['b']) / base:7.3f}  "
              f"{r['verdict']} ({m['bound']:.0%}, base {base:.4g} "
              f"{m['unit']})")

    print("\nBehaviour (exact fields):")
    if a["seed"] != b["seed"]:
        print(f"  not compared: seeds differ ({a['seed']} vs {b['seed']})")
    elif not changes:
        print("  unchanged")
    for w, k, va, vb in changes:
        print(f"  CHANGED {w} {k}: {va} -> {vb}")
    bad = changes or any(r["verdict"] != "ok" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
