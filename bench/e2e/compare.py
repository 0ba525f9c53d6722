#!/usr/bin/env python3
"""Row files of the end-to-end bench.

  compare.py merge OUT ROW...
      Collects the per-workload rows e2e_bench wrote into one file,
      {"benchmark": "bench/e2e", "rows": [...]}.

  compare.py compare BASE NEW BENCHMARK.json
      Judges every (end-to-end metric, workload) pair of NEW's untraced rows
      against BASE with the metric's bound from BENCHMARK.json:

        improved    better by more than the bound
        regressed   worse by more than the bound
        unchanged   within the bound
        unresolved  the quartiles of either side's repetitions lie further
                    apart than the bound (unless every NEW repetition beats
                    every BASE one), or the pair is missing from a side

      Rows whose backends differ are not compared. Exits 1 when a pair
      regressed, 3 when rows could not be compared, 0 otherwise.
"""

import json
import statistics
import sys


def load_rows(path):
    with open(path) as f:
        return json.load(f)["rows"]


def merge(out, paths):
    rows = []
    for path in paths:
        with open(path) as f:
            rows.append(json.load(f))
    with open(out, "w") as f:
        json.dump({"benchmark": "bench/e2e", "rows": rows}, f, indent=1)
        f.write("\n")


def spread(reps):
    """Distance between the quartiles of the repetitions, as a share of
    their median."""
    if len(reps) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(reps, n=4, method="inclusive")
    return (q3 - q1) / abs(median) if median else 0.0


def judge(base, new, metric):
    """Verdict and signed change (positive = worse) of one pair."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b, n = base["value"], new["value"]
    change = sign * (n - b) / abs(b) if b else 0.0
    if max(spread(base["reps"]), spread(new["reps"])) > bound:
        all_better = all(sign * (x - y) < 0
                         for x in new["reps"] for y in base["reps"])
        return ("improved" if all_better else "unresolved"), change
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def compare(base_path, new_path, bench_path):
    with open(bench_path) as f:
        metrics = json.load(f)["end_to_end"]
    base = {r["workload"]: r for r in load_rows(base_path) if r["trace"] == 0}
    new = {r["workload"]: r for r in load_rows(new_path) if r["trace"] == 0}
    status = 0
    counts = {}
    print(f"{'workload':<14} {'metric':<18} {'base':>14} {'new':>14} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload), new.get(workload)
        if b is None or n is None:
            print(f"{workload:<14} missing from {'BASE' if b is None else 'NEW'}")
            counts["unresolved"] = counts.get("unresolved", 0) + len(metrics)
            continue
        if b["backend"] != n["backend"]:
            print(f"{workload:<14} not compared: backend {b['backend']} vs "
                  f"{n['backend']}")
            status = 3
            continue
        for metric in metrics:
            name = metric["name"]
            if name not in b["metrics"] or name not in n["metrics"]:
                verdict, change, bv, nv = "unresolved", 0.0, None, None
            else:
                bv, nv = b["metrics"][name], n["metrics"][name]
                verdict, change = judge(bv, nv, metric)
            counts[verdict] = counts.get(verdict, 0) + 1
            if verdict == "regressed" and status == 0:
                status = 1
            print(f"{workload:<14} {name:<18} "
                  f"{bv['value'] if bv else float('nan'):>14.6g} "
                  f"{nv['value'] if nv else float('nan'):>14.6g} "
                  f"{100 * change:>+7.2f}% {100 * metric['bound']:>5.0f}%  "
                  f"{verdict}")
    print(", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return status


def main(argv):
    if len(argv) >= 3 and argv[1] == "merge":
        merge(argv[2], argv[3:])
        return 0
    if len(argv) == 5 and argv[1] == "compare":
        return compare(argv[2], argv[3], argv[4])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
