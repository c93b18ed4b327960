#!/usr/bin/env python3
"""CI perf-gate for the sorted-relation kernel (docs/kernel.md).

Compares a fresh BENCH_relation_ops.json (produced by
`bench_relation_ops --quick --out <current>`) against the committed baseline
and fails on per-bench kernel slowdowns.

Because CI machines differ wildly from the machines baselines were recorded
on, raw milliseconds are not comparable across runs. Every bench row also
times the retained hash-based reference kernel *on the same machine in the
same run*, so the gate compares the machine-neutral ratio

    normalized(row) = kernel_ms / reference_ms

and fails when normalized(current) > threshold * normalized(baseline) for
any (bench, n) present in both files. The same check is applied to the
morsel-parallel timing (parallel_ms): with a serial baseline this doubles as
"parallel execution must never be more than threshold-times slower than the
recorded serial kernel, relative to the reference".

Deterministic counts are gated exactly: when a baseline row and a current
row both carry one of EXACT_FIELDS (protocol rounds, makespan, bits, pages
and payload bits — simulated quantities, not timings), the two values must
be equal, so any cost-model drift fails the gate.

Usage:
  check_bench_regression.py BASELINE CURRENT [--threshold 1.5]
Exit status: 0 = pass, 1 = regression, 2 = usage/IO/coverage error.
"""

import argparse
import json
import sys


def load_rows(path):
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for row in rows:
        out[(row["bench"], row["n"])] = row
    return out


# Simulated protocol costs: exact functions of the bench inputs, identical
# on every machine and at every parallelism level.
EXACT_FIELDS = ("rounds", "makespan", "sync_bits", "async_bits", "pages",
                "peak_pages")
EXACT_PREFIXES = ("payload_bits_",)


def exact_fields(row):
    return [k for k in row
            if k in EXACT_FIELDS or k.startswith(EXACT_PREFIXES)]


def normalized(row, key):
    # Guard against degenerate timings (a 0.0 from clock resolution would
    # otherwise divide by zero); treat anything below 1µs as 1µs.
    return max(row[key], 1e-3) / max(row["reference_ms"], 1e-3)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("baseline", help="committed BENCH_relation_ops.json")
    p.add_argument("current", help="freshly produced bench JSON")
    p.add_argument("--threshold", type=float, default=1.5,
                   help="fail on > THRESHOLD x normalized slowdown")
    p.add_argument("--min-n", type=int, default=10000,
                   help="ignore bench rows below this size: microsecond-"
                        "scale timings are clock/microarch noise, not signal")
    p.add_argument("--speedup-floor", action="append", default=[],
                   metavar="BENCH[@N]=RATIO",
                   help="absolute floor on the current run's 'speedup' field "
                        "for the named bench, applied to rows with n >= N "
                        "(default: min-n); repeatable. Unlike the relative "
                        "gate, this cannot ratchet down across baseline "
                        "refreshes. CI uses it for the multiway triangle "
                        "(vs the pairwise plan) and for the columnar "
                        "scan/eliminate rows (vs the row-major layout / "
                        "hash reference) — see ci.yml.")
    args = p.parse_args()
    floor_specs = []
    for spec in args.speedup_floor:
        name, _, ratio = spec.partition("=")
        name, _, size = name.partition("@")
        try:
            floor_specs.append((name, int(size) if size else args.min_n,
                                float(ratio)))
        except ValueError:
            print(f"error: bad --speedup-floor {spec!r} "
                  f"(want BENCH[@N]=RATIO)", file=sys.stderr)
            return 2

    base = load_rows(args.baseline)
    cur = load_rows(args.current)
    common = sorted(k for k in set(base) & set(cur) if k[1] >= args.min_n)
    if not common:
        print("error: no common (bench, n) rows between baseline and current",
              file=sys.stderr)
        return 2

    failures = []
    print(f"{'bench':<14} {'n':>9} {'metric':<11} {'baseline':>9} "
          f"{'current':>9} {'ratio':>7}")
    for key in common:
        b, c = base[key], cur[key]
        for metric in ("kernel_ms", "parallel_ms"):
            if metric not in b or metric not in c:
                continue  # older baselines predate the parallel column
            nb, nc = normalized(b, metric), normalized(c, metric)
            ratio = nc / nb
            flag = " <-- REGRESSION" if ratio > args.threshold else ""
            print(f"{key[0]:<14} {key[1]:>9} {metric:<11} {nb:>9.4f} "
                  f"{nc:>9.4f} {ratio:>6.2f}x{flag}")
            if ratio > args.threshold:
                failures.append((key, metric, ratio))

    # Exact counts: every (bench, n) in both files, whatever its size.
    count_failures = []
    counts_checked = 0
    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        for field in exact_fields(b):
            if field not in c:
                continue
            counts_checked += 1
            if c[field] != b[field]:
                print(f"{key[0]:<14} {key[1]:>9} {field:<11} {b[field]!s:>9} "
                      f"{c[field]!s:>9} <-- COUNT CHANGED")
                count_failures.append((key, field, b[field], c[field]))

    # Absolute speedup floors: each spec is checked independently, and a spec
    # that matches no current row is an error, not a vacuous pass — renaming
    # a bench or shrinking the size list must not silently disable the gate.
    floor_failures = []
    for name, min_size, floor in floor_specs:
        matched = sorted((k, r) for k, r in cur.items()
                         if k[0] == name and k[1] >= min_size
                         and "speedup" in r)
        if not matched:
            print(f"error: --speedup-floor {name}@{min_size} matched no "
                  f"current rows; the absolute gate would be vacuous",
                  file=sys.stderr)
            return 2
        for (bench, n), row in matched:
            flag = " <-- BELOW FLOOR" if row["speedup"] < floor else ""
            print(f"{bench:<14} {n:>9} {'speedup':<11} {floor:>8.2f}x "
                  f"{row['speedup']:>8.2f}x{flag}")
            if row["speedup"] < floor:
                floor_failures.append((bench, n, row["speedup"], floor))

    if failures:
        print(f"\nFAIL: {len(failures)} bench(es) regressed more than "
              f"{args.threshold}x vs baseline:", file=sys.stderr)
        for (bench, n), metric, ratio in failures:
            print(f"  {bench} n={n} {metric}: {ratio:.2f}x", file=sys.stderr)
        print("If the slowdown is intended, refresh the baseline: run\n"
              "  ./build/bench_relation_ops --out BENCH_relation_ops.json\n"
              "  ./build/bench_multiway_join --out BENCH_multiway_join.json\n"
              "then merge both into the committed file with\n"
              "  tools/merge_bench_json.py BENCH_relation_ops.json \\\n"
              "      BENCH_multiway_join.json --out BENCH_relation_ops.json",
              file=sys.stderr)
    if floor_failures:
        print(f"\nFAIL: {len(floor_failures)} bench(es) below the absolute "
              f"speedup floor — refreshing the baseline cannot fix this, "
              f"the kernel itself regressed:", file=sys.stderr)
        for bench, n, speedup, floor in floor_failures:
            print(f"  {bench} n={n}: {speedup:.2f}x < required {floor:.2f}x",
                  file=sys.stderr)
    if count_failures:
        print(f"\nFAIL: {len(count_failures)} deterministic count(s) differ "
              f"from the baseline — the protocol cost model changed:",
              file=sys.stderr)
        for (bench, n), field, want, got in count_failures:
            print(f"  {bench} n={n} {field}: {got} != baseline {want}",
                  file=sys.stderr)
    if failures or floor_failures or count_failures:
        return 1
    print(f"\nOK: {len(common)} bench rows within {args.threshold}x of "
          f"baseline"
          + (f"; {len(floor_specs)} absolute floor(s) held"
             if floor_specs else "")
          + (f"; {counts_checked} exact count(s) matched"
             if counts_checked else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
