#!/usr/bin/env python3
"""Sweep circuit size and record check cost.

For each (n, m) cell: generate a Clifford+T circuit, build a rewritten
equivalent, run the full 2n-check verdict, and record formula size plus
wall-clock.  Output is a CSV meant for plotting; a quick textual summary
goes to stdout.

    python3 scripts/scaling_sweep.py --out scaling.csv
    python3 scripts/scaling_sweep.py --qubits 4 8 16 --gates 50 100 200 400
"""

import argparse
import csv
import statistics
import sys
import time

sys.path.insert(0, "src")

from paulimc.bench import equivalent_variant, gen_random_clifford_t
from paulimc.driver import check_encoding, identity_encoding


def measure(n: int, m: int, seed: int) -> dict:
    u = gen_random_clifford_t(n, m, seed=seed)
    v = equivalent_variant(u, seed=seed + 1)
    t0 = time.perf_counter()
    enc = identity_encoding(u, v)  # the sizes below are of this encoding
    verdict = check_encoding(enc)
    elapsed = time.perf_counter() - t0
    assert verdict.status == "equivalent", (n, m, seed, verdict.status)
    per_check = [rec.seconds for rec in verdict.checks]
    return {
        "n": n,
        "gates": m,
        "seed": seed,
        "vars": enc.cnf.num_vars,
        "clauses": len(enc.cnf.clauses),
        "seconds": round(elapsed, 4),
        "max_check_seconds": round(max(per_check), 4),
        "median_check_seconds": round(statistics.median(per_check), 4),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qubits", type=int, nargs="+", default=[4, 8, 12, 16, 20])
    ap.add_argument("--gates", type=int, nargs="+",
                    default=[25, 50, 100, 200, 400])
    ap.add_argument("--reps", type=int, default=3, help="seeds per cell")
    ap.add_argument("--seed", type=int, default=2400)
    ap.add_argument("--out", default="scaling.csv")
    args = ap.parse_args()

    rows = []
    for n in args.qubits:
        for m in args.gates:
            for r in range(args.reps):
                row = measure(n, m, args.seed + 97 * len(rows) + r)
                rows.append(row)
            cell = [x for x in rows if x["n"] == n and x["gates"] == m]
            mean_s = statistics.mean(x["seconds"] for x in cell)
            print(f"n={n:3d} m={m:4d}  vars={cell[-1]['vars']:6d} "
                  f"clauses={cell[-1]['clauses']:6d}  "
                  f"mean {mean_s:.3f}s over {len(cell)} runs")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
