#!/usr/bin/env python3
"""Compare two sets of benchmark results of the same code.

usage: selfcheck.py BENCHMARK.json SET_A.jsonl SET_B.jsonl

Each set holds one result line per workload, in the order BENCHMARK.json
lists them. The check fails unless every end-to-end median of set B is
within its bound of set A's, in either direction, and every count the
program makes (unit `count`, outside `host.*`) is identical. It prints the
observed differences, which is what the bounds in BENCHMARK.json are
justified by.
"""
import json
import sys


def main(manifest_path, a_path, b_path):
    with open(manifest_path) as f:
        manifest = json.load(f)
    workloads = [w["name"] for w in manifest["workloads"]]
    sets = []
    for path in (a_path, b_path):
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        if len(lines) != len(workloads):
            sys.exit(f"{path}: {len(lines)} results for {len(workloads)} workloads")
        sets.append(lines)

    exact = [
        m["name"]
        for m in manifest["per_layer"]
        if m["unit"] == "count" and not m["name"].startswith("host.")
    ]
    failures = []
    print(f"{'workload':<18}{'metric':<14}{'A':>12}{'B':>12}{'B vs A':>9}{'bound':>8}")
    for name, a, b in zip(workloads, *sets):
        for r, label in ((a, "A"), (b, "B")):
            if not r["correct"] or r["failed"]:
                failures.append(f"{name}: set {label} is not correct")
        for m in manifest["end_to_end"]:
            va, vb = (r["metrics"][m["name"]]["value"] for r in (a, b))
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            ok = abs(worse) <= m["bound"]
            print(
                f"{name:<18}{m['name']:<14}{va:>12.5g}{vb:>12.5g}"
                f"{100 * worse:>+8.2f}%{100 * m['bound']:>7.0f}%{'' if ok else '  FAIL'}"
            )
            if not ok:
                failures.append(f"{name}: {m['name']} differs by {100 * worse:+.2f} %")
        for metric in exact:
            va, vb = (r["metrics"].get(metric, {}).get("value") for r in (a, b))
            if va != vb:
                failures.append(f"{name}: count {metric} differs: {va} vs {vb}")
    print(f"exact counts compared per workload: {len(exact)}")
    for f in failures:
        print(f"FAIL {f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
