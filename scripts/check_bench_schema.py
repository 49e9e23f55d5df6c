#!/usr/bin/env python3
"""Validate the repo's machine-readable bench artifacts.

Every BENCH_*.json must parse, carry the current `schema_version`, a
complete provenance `manifest` (see docs/OBSERVABILITY.md and
src/obs/run_manifest.hh) and the per-bench required keys below — so a
refactor that drops a field CI dashboards read, or a bench that stops
stamping provenance, fails the docs job instead of silently shipping
an artifact nobody can attribute.

Usage: python3 scripts/check_bench_schema.py [file-or-dir ...]
Arguments are artifact files or directories to glob BENCH_*.json in;
with no arguments the current directory is globbed. Exits non-zero
listing every violation. Files for benches not listed in SCHEMAS are
still checked for the version + manifest envelope.

Compare mode: python3 scripts/check_bench_schema.py --compare A B
Two directories holding the same benches' outputs, run at different
FORMS_THREADS. Every deterministic artifact must be equal between them:
each BENCH_*.json apart from its `manifest` (which records the thread
count), trace_fig15.json's modeled events (pid != 0; pid 0 holds the
wall-clock host spans) and each captured `*.stdout` byte for byte.
BENCH_serving.json is skipped: its sweep is wall-clock by design
(docs/SERVING.md). Exits non-zero naming every file that differs.
"""

import glob
import json
import os
import sys

SCHEMA_VERSION = 1  # keep in sync with obs::kBenchSchemaVersion

MANIFEST_KEYS = ["bench", "git_sha", "build", "simd_dispatch",
                 "threads", "config"]

# Per-bench required top-level keys, plus (list key, required member
# keys) for the artifact's main array.
SCHEMAS = {
    "BENCH_runtime.json": {
        "bench": "fig13_runtime",
        "keys": ["images", "presentations", "model_time_us",
                 "model_energy_nj"],
    },
    "BENCH_graph.json": {
        "bench": "fig14_graph_runtime",
        "keys": ["networks"],
        "list": ("networks",
                 ["name", "images", "presentations", "crossbars",
                  "model_time_us", "model_energy_nj", "layers"]),
    },
    "BENCH_pipeline.json": {
        "bench": "fig15_multichip_pipeline",
        "keys": ["images", "micro_batch",
                 "replicate_threshold", "max_replicas", "networks"],
        "list": ("networks", ["name", "crossbars", "chip_counts"]),
    },
    "BENCH_calibration.json": {
        "bench": "fig16_calibration",
        "keys": ["network", "test_images", "fp_accuracy",
                 "idealized_accuracy", "points"],
        "list": ("points",
                 ["policy", "calib_images", "accuracy",
                  "delta_vs_idealized", "clip_fraction",
                  "table_entries"]),
    },
    "BENCH_serving.json": {
        "bench": "serving",
        "keys": ["max_batch", "max_delay_us",
                 "queue_capacity", "bit_identical", "knee_rps",
                 "sweep"],
        "list": ("sweep",
                 ["offered_rps", "achieved_rps", "completed",
                  "rejected", "p50_us", "p95_us", "p99_us",
                  "mean_batch"]),
    },
    "BENCH_resilience.json": {
        "bench": "resilience",
        "keys": ["network", "test_images", "fp_accuracy",
                 "clean_accuracy", "recovery", "fault_points",
                 "stuck_points", "hetero_points"],
        "list": ("fault_points",
                 ["column_kill_rate", "spare_xbars",
                  "accuracy_faulted", "accuracy_remapped",
                  "recovered_fraction"]),
    },
}

# BENCH_pipeline.json nests deeper than the generic one-level list
# check: every chip-count row carries one object per scheduler mode,
# and each of those carries the zero-skip activity fields plus a
# per-chip breakdown (see bench/fig15_multichip.cc's writeMode).
PIPELINE_MODES = ["contiguous", "tile_pipelined", "replicated_tile",
                  "eic_time"]
PIPELINE_MODE_KEYS = ["modeled_fps", "bubble_fraction", "stages",
                      "max_replicas", "adc_bit_cycles",
                      "adc_skipped_cycles", "eic_fraction",
                      "logits_match_graph_runtime", "per_chip"]
PIPELINE_CHIP_KEYS = ["chip", "stage", "replicas", "utilization",
                      "busy_us", "eic_fraction"]


def check_pipeline_depth(doc):
    errors = []
    networks = doc.get("networks")
    if not isinstance(networks, list):
        return errors  # already reported by the generic list check
    for ni, net in enumerate(networks):
        points = net.get("chip_counts")
        if not isinstance(points, list) or not points:
            errors.append(f"networks[{ni}] 'chip_counts' is missing"
                          f" or empty")
            continue
        for ci, point in enumerate(points):
            where = f"networks[{ni}].chip_counts[{ci}]"
            for mode in PIPELINE_MODES:
                mobj = point.get(mode)
                if not isinstance(mobj, dict):
                    errors.append(f"{where} missing mode object"
                                  f" {mode!r}")
                    continue
                for key in PIPELINE_MODE_KEYS:
                    if key not in mobj:
                        errors.append(f"{where}.{mode} missing"
                                      f" {key!r}")
                chips = mobj.get("per_chip")
                if not isinstance(chips, list) or not chips:
                    continue  # absence reported just above
                for pi, chip in enumerate(chips):
                    for key in PIPELINE_CHIP_KEYS:
                        if key not in chip:
                            errors.append(
                                f"{where}.{mode}.per_chip[{pi}]"
                                f" missing {key!r}")
    return errors


# BENCH_resilience.json carries a recovery-gate object and a
# heterogeneous-fleet sweep the generic list check cannot reach. The
# gate must not only be present but *passing*: a CI artifact recording
# a failed recovery gate or a fleet that changed the numerics is a
# regression even if the producing process was tricked into exit 0.
RESILIENCE_RECOVERY_KEYS = ["column_kill_rate", "spare_xbars",
                            "faulted_accuracy", "remapped_accuracy",
                            "recovered_fraction", "required_fraction",
                            "faulty_crossbars", "remapped_crossbars",
                            "pass"]
RESILIENCE_HETERO_KEYS = ["label", "chips", "modeled_fps",
                          "makespan_ns", "transfer_ns",
                          "bit_identical"]


def check_resilience_depth(doc):
    errors = []
    recovery = doc.get("recovery")
    if not isinstance(recovery, dict):
        errors.append("'recovery' is missing or not an object")
    else:
        for key in RESILIENCE_RECOVERY_KEYS:
            if key not in recovery:
                errors.append(f"recovery missing {key!r}")
        if recovery.get("pass") is not True:
            errors.append("recovery gate did not pass")
        frac = recovery.get("recovered_fraction")
        need = recovery.get("required_fraction")
        if isinstance(frac, (int, float)) and \
                isinstance(need, (int, float)) and frac < need:
            errors.append(f"recovered_fraction {frac} below required"
                          f" {need}")
    fleets = doc.get("hetero_points")
    if not isinstance(fleets, list) or not fleets:
        errors.append("'hetero_points' is missing or empty")
    else:
        for i, fleet in enumerate(fleets):
            for key in RESILIENCE_HETERO_KEYS:
                if key not in fleet:
                    errors.append(f"hetero_points[{i}] missing"
                                  f" {key!r}")
            if fleet.get("bit_identical") is not True:
                errors.append(f"hetero_points[{i}]"
                              f" ({fleet.get('label')!r}) changed the"
                              f" numerics")
    return errors


# Artifacts whose nesting the generic check cannot reach get a
# dedicated validator, run after the generic one.
DEEP_CHECKS = {
    "BENCH_pipeline.json": check_pipeline_depth,
    "BENCH_resilience.json": check_resilience_depth,
}


def check_artifact(path):
    errors = []
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable or invalid JSON: {e}"]
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]

    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version is {doc.get('schema_version')!r},"
                      f" expected {SCHEMA_VERSION}")
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        errors.append("missing manifest object")
    else:
        for key in MANIFEST_KEYS:
            if key not in manifest:
                errors.append(f"manifest missing {key!r}")
        for key in ("git_sha", "build", "simd_dispatch"):
            if not manifest.get(key):
                errors.append(f"manifest {key!r} is empty")

    schema = SCHEMAS.get(name)
    if schema is None:
        return errors
    if isinstance(manifest, dict) and \
            manifest.get("bench") != schema["bench"]:
        errors.append(f"manifest bench is {manifest.get('bench')!r},"
                      f" expected {schema['bench']!r}")
    for key in schema["keys"]:
        if key not in doc:
            errors.append(f"missing required key {key!r}")
    if "list" in schema:
        list_key, member_keys = schema["list"]
        rows = doc.get(list_key)
        if not isinstance(rows, list) or not rows:
            errors.append(f"{list_key!r} is missing or empty")
        else:
            for i, row in enumerate(rows):
                for key in member_keys:
                    if key not in row:
                        errors.append(
                            f"{list_key}[{i}] missing {key!r}")
    deep = DEEP_CHECKS.get(name)
    if deep is not None:
        errors.extend(deep(doc))
    return errors


def collect_paths(args):
    paths = []
    for arg in args or ["."]:
        if os.path.isdir(arg):
            paths.extend(sorted(glob.glob(
                os.path.join(arg, "BENCH_*.json"))))
        else:
            paths.append(arg)
    return paths


# Artifacts that are wall-clock by design, so compare mode skips them.
WALL_CLOCK_ARTIFACTS = {"BENCH_serving.json"}


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def comparable(path):
    """The thread-invariant part of one artifact, or its raw bytes."""
    name = os.path.basename(path)
    if name.startswith("BENCH_"):
        doc = load_json(path)
        doc.pop("manifest", None)
        return doc
    if name.endswith(".json"):  # a trace: keep the modeled events
        doc = load_json(path)
        doc["traceEvents"] = [e for e in doc.get("traceEvents", [])
                              if e.get("pid") != 0]
        return doc
    with open(path, "rb") as f:
        return f.read()


def compare_dirs(a, b):
    names = set()
    for d in (a, b):
        for pattern in ("BENCH_*.json", "trace_*.json", "*.stdout"):
            names.update(os.path.basename(p) for p in
                         glob.glob(os.path.join(d, pattern)))
    names -= WALL_CLOCK_ARTIFACTS
    if not names:
        print(f"no artifacts to compare in {a} or {b}")
        return 1
    failures = 0
    for name in sorted(names):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            print(f"DIFFERS {name}: present in only one directory")
            failures += 1
        elif comparable(pa) != comparable(pb):
            print(f"DIFFERS {name}")
            failures += 1
    if failures:
        print(f"{failures} of {len(names)} artifact(s) differ between"
              f" {a} and {b}")
        return 1
    print(f"{len(names)} artifact(s) identical between {a} and {b}")
    return 0


def main():
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            print("usage: check_bench_schema.py --compare DIR_A DIR_B")
            return 2
        return compare_dirs(sys.argv[2], sys.argv[3])
    paths = collect_paths(sys.argv[1:])
    if not paths:
        print("no BENCH_*.json artifacts found")
        return 1
    failures = 0
    for path in paths:
        for err in check_artifact(path):
            print(f"INVALID {path}: {err}")
            failures += 1
    if failures:
        print(f"{failures} schema violation(s)")
        return 1
    print(f"{len(paths)} bench artifact(s) conform to schema "
          f"v{SCHEMA_VERSION}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
