#!/usr/bin/env python3
"""Enforce the machine-readable performance gates in BENCH_*.json files.

The document envelope (schema_version, machine, gates, the number and
null rules) is specified in docs/OBSERVABILITY.md "Bench documents".
Each bench JSON carries a top-level "gates" array:

    "gates": [
      {"metric": "telemetry_on_overhead_pct", "max": 15.0},
      {"metric": "event_idle_speedup_x", "min": 1.0},
      {"metric": "incremental_equivalent", "equals": 1}
    ]

where "metric" names a numeric key in the same document — either
top-level or a dotted path into nested objects (fault_storm's
"slo.epoch_completion.burn" reaches doc["slo"]["epoch_completion"]
["burn"]; a literal top-level key wins over a path split). A gate
passes when the measured value is <= max, >= min, or == equals (exact
match, for boolean invariants like bit-identical equivalence flags). The
script prints a PASS/FAIL line per gate and exits non-zero if any gate
fails, any metric is missing, or a file has no gates at all (a bench
without gates is a bench CI silently stopped watching).

Usage: check_bench_gates.py BENCH_wormhole.json [BENCH_recovery.json ...]
"""

import json
import sys


def lookup(doc, metric):
    """Resolve a gate metric: literal top-level key, else dotted path."""
    if not isinstance(metric, str):
        return None
    if metric in doc:
        return doc[metric]
    node = doc
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_file(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    gates = doc.get("gates")
    if not gates:
        print(f"FAIL {path}: no gates array (refusing to pass silently)")
        return 1
    failures = 0
    for gate in gates:
        metric = gate.get("metric")
        measured = lookup(doc, metric)
        if not isinstance(measured, (int, float)) or isinstance(measured, bool):
            got = "missing" if measured is None else f"got {measured!r}"
            print(f"FAIL {path}: metric '{metric}' missing or non-numeric "
                  f"({got})")
            failures += 1
            continue
        # The miss distance, printed on failure so the log says HOW far
        # out of bounds the run was, not just that it was.
        margin = 0.0
        if "max" in gate:
            ok = measured <= gate["max"]
            bound = f"<= {gate['max']}"
            margin = measured - gate["max"]
        elif "min" in gate:
            ok = measured >= gate["min"]
            bound = f">= {gate['min']}"
            margin = gate["min"] - measured
        elif "equals" in gate:
            ok = measured == gate["equals"]
            bound = f"== {gate['equals']}"
            margin = measured - gate["equals"]
        else:
            print(f"FAIL {path}: gate for '{metric}' has no max/min/equals "
                  f"(measured {measured:g})")
            failures += 1
            continue
        status = "PASS" if ok else "FAIL"
        miss = "" if ok else f", off by {margin:g}"
        print(f"{status} {path}: {metric} = {measured:g} (gate {bound}{miss})")
        if not ok:
            failures += 1
    return failures


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in argv[1:]:
        try:
            total += check_file(path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path}: {exc}")
            total += 1
    if total:
        print(f"{total} gate failure(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
