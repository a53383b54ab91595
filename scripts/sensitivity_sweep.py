#!/usr/bin/env python3
"""Detection rate of a single phase error as its magnitude shrinks.

Injects one delta phase shift into a random mixed-gate circuit and asks
the checker for a verdict across a log-spaced range of deltas and a few
tolerance settings.  The interesting readout is the cliff: the count
coefficient moves by roughly 2*sin(delta/2)^2, so detection dies around
delta ~ 2*sqrt(epsilon/2).  Each case is encoded and counted once; the
tolerances only decide which of its counts pass for 1.

    python3 scripts/sensitivity_sweep.py
    python3 scripts/sensitivity_sweep.py --cases 50 --out sens.csv
"""

import argparse
import csv
import math
import sys

sys.path.insert(0, "src")

from paulimc.bench import NoEligibleGateError, gen_random_universal, inject_error
from paulimc.counting import PreparedCnf, ResourceLimitError
from paulimc.driver import check_order, identity_encoding
from paulimc.encoder import PauliTerm, check_units
from paulimc.weights import value_is_one

DELTAS = [1e-2, 1e-3, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7]
EPSILONS = [1e-6, 1e-9, 1e-12]


def check_values(u, v) -> list:
    """The counts of all 2n checks of u against v; a check that runs out
    of time is left out, as a timeout never decides a verdict."""
    enc = identity_encoding(u, v)
    prepared = PreparedCnf(enc.cnf)
    n = enc.num_qubits
    values = []
    for pauli, qubit in check_order(n):
        units = check_units(enc, PauliTerm.single(n, qubit, pauli))
        try:
            values.append(prepared.count(units).value)
        except ResourceLimitError:
            pass
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=25, help="circuits per delta")
    ap.add_argument("--seed", type=int, default=9100)
    ap.add_argument("--out", default="sensitivity.csv")
    args = ap.parse_args()

    rows = []
    print(f"{'delta':>9}  " + "  ".join(f"eps={e:g}" for e in EPSILONS)
          + "   (detected / cases)")
    for delta in DELTAS:
        detected = {eps: 0 for eps in EPSILONS}
        total = 0
        made, seed = 0, args.seed
        while made < args.cases:
            n = 1 + made % 4
            m = 8 + (made * 5) % 12
            v = gen_random_universal(n, m, seed=seed)
            seed += 1
            try:
                u = inject_error(v, "phase_shift", seed=seed, delta=delta)
            except NoEligibleGateError:
                continue
            made += 1
            total += 1
            values = check_values(u, v)
            for eps in EPSILONS:
                # detected: some completed check does not count to 1
                if not all(value_is_one(val, eps) for val in values):
                    detected[eps] += 1
        dent = 2 * math.sin(delta / 2) ** 2
        print(f"{delta:9.0e}  "
              + "  ".join(f"{detected[e]:3d}/{total}" for e in EPSILONS)
              + f"   coefficient dent ~{dent:.1e}")
        for eps in EPSILONS:
            rows.append({
                "delta": delta,
                "epsilon": eps,
                "detected": detected[eps],
                "cases": total,
                "expected_dent": f"{dent:.3e}",
            })

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
