#!/usr/bin/env python3
"""Build and run the FORMS repo benchmark (see README.md).

One workload, as BENCHMARK.json's command runs it:

    python3 benchmark/run.py --workload resnet_ideal --seed 1 \
        --seconds 15 --trace 0

prints every metric of the run by name with its unit, then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}
holding BENCHMARK.json's end-to-end metrics (--trace 0) or its
per-layer metrics (--trace 1). It exits 0 only when every check passed.

Without --workload it runs the whole suite: PASSES plain passes over
every workload, rotating the order each pass, then one traced pass. The
runs land in benchmark/build/results.json; compare.py diffs two such
files.

Either way it first configures a Release build of forms_bench into
benchmark/build/ (once) and brings it up to date, and it runs the
program with FORMS_THREADS set to the number of usable cores.
"""

import argparse
import json
import os
import subprocess
import sys

from compare import quartiles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, "build")
BINARY = os.path.join(BUILD_DIR, "forms_bench")
EXPECTED = os.path.join(BENCH_DIR, "expected_digests.json")
DIGEST_SEED = 1
PASSES = 3


def load_json(path):
    with open(path) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (first time only) and build forms_bench; False on failure."""
    try:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "forms_bench", "-j", str(nproc())],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: building forms_bench failed: {e}", file=sys.stderr)
        return False
    return True


def problems(result, exit_code, seed, trace_path):
    """Every reason this run's outputs cannot be trusted."""
    found = list(result["failures"])
    if exit_code != 0 and not found:
        found.append(f"forms_bench exited with {exit_code}")
    build_type = result["manifest"]["build"]
    if build_type != "Release":
        found.append(f"refusing a {build_type} build: timings need "
                     "Release (delete benchmark/build and rerun)")
    if seed == DIGEST_SEED:
        want = load_json(EXPECTED).get(result["workload"], {})
        for kind, digest in sorted(want.items()):
            got = result["digests"].get(kind)
            if got != digest:
                found.append(f"{kind} digest {got} != expected {digest}")
    if trace_path:
        try:
            doc = load_json(trace_path)
            if not doc.get("traceEvents"):
                found.append(f"{trace_path} holds no trace events")
        except (OSError, ValueError) as e:
            found.append(f"{trace_path} is not valid trace JSON: {e}")
    return found


def run_workload(name, seed, seconds, trace):
    """One forms_bench process; its result document plus "problems"."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_path = None
    if trace:
        trace_path = os.path.join(BUILD_DIR, f"trace_{name}.json")
        cmd += ["--trace", trace_path]
    env = dict(os.environ, FORMS_THREADS=str(nproc()))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=60 + 5 * seconds)
    result = json.loads(proc.stdout)
    result["problems"] = problems(result, proc.returncode, seed, trace_path)
    return result


def correct(result):
    return not result["problems"] and result["failed"] == 0


def describe(result):
    m = result["manifest"]
    c = m["config"]
    return (f"{result['workload']} seed {c['seed']}, {c['seconds']} s, "
            f"trace {c['trace']} | {m['build']}, {m['simd_dispatch']}, "
            f"{m['threads']} threads on {c['nproc']} cores, "
            f"{c['cpu_model']}, git {m['git_sha']}")


def print_metrics(result):
    print(describe(result))
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:44s} {value:>14s} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"digests {result['digests']}")
    for p in result["problems"]:
        print(f"  FAIL: {p}")


def single(args, spec):
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except (OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {args.workload} produced no result: {e}",
              file=sys.stderr)
        return 1
    metrics = {}
    for m in spec[kind]:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            result["problems"].append(f"metric {m['name']} missing or "
                                      "not finite")
        else:
            metrics[m["name"]] = got
    print_metrics(result)
    ok = correct(result)
    print(json.dumps({"correct": ok, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if ok else 1


def suite(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    runs = {n: {"plain": [], "trace": None} for n in names}
    try:
        for p in range(PASSES):
            k = p % len(names)
            for n in names[k:] + names[:k]:
                r = run_workload(n, args.seed, args.seconds, False)
                print(f"pass {p + 1}: {describe(r)}", file=sys.stderr)
                runs[n]["plain"].append(r)
        for n in names:
            runs[n]["trace"] = run_workload(n, args.seed, args.seconds, True)
    except (OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"run.py: a workload produced no result: {e}",
              file=sys.stderr)
        return 1

    # Tracing overhead: how much slower the traced pass ran than the
    # median plain pass.
    for n in names:
        plain_ips = quartiles([r["metrics"]["images_per_s"]["value"]
                               for r in runs[n]["plain"]])[1]
        traced = runs[n]["trace"]["metrics"]
        traced["obs.trace_overhead_frac"] = {
            "value": plain_ips / traced["images_per_s"]["value"] - 1,
            "unit": "fraction"}

    host = runs[names[0]]["plain"][0]["manifest"]
    with open(args.out, "w") as f:
        json.dump({"host": host, "seed": args.seed, "seconds": args.seconds,
                   "passes": PASSES, "workloads": runs}, f, indent=1)

    ok = True
    for n in names:
        plain, traced = runs[n]["plain"], runs[n]["trace"]
        print(f"\n{n}  ({PASSES} plain passes: median [q1, q3])")
        good = all(correct(r) for r in plain + [traced])
        for r in plain + [traced]:
            for p in r["problems"]:
                print(f"  FAIL: {p}")
        ok = ok and good
        if not good:
            continue
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in plain]
            q1, med, q3 = quartiles(vals)
            print(f"  {m['name']:36s} {med:12.6g} [{q1:.6g}, {q3:.6g}] "
                  f"{m['unit']}  (bound {m['bound']:.0%})")
        for name, m in plain[0]["metrics"].items():
            if name.startswith("model."):
                print(f"  {name:36s} {m['value']:12.9g} {m['unit']}  (exact)")
        print(f"  digests {plain[0]['digests']}")
        print("  traced pass:")
        for name in [m["name"] for m in spec["per_layer"]] + [
                "obs.trace_overhead_frac"]:
            got = traced["metrics"][name]
            print(f"    {name:34s} {got['value']:12.6g} {got['unit']}")
    print(f"\nwrote {args.out} ({'all checks passed' if ok else 'FAILED'})")
    return 0 if ok else 1


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"]
                                           for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=os.path.join(BUILD_DIR, "results.json"),
                    help="suite results file")
    args = ap.parse_args()
    if not build():
        return 2
    return single(args, spec) if args.workload else suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
