"""Hash the parser's and encoder's output and every check's unit literals.

A refactor of the QASM parser, the lowering or the encoder that must leave
the formulas unchanged can be checked by running this at the old and the
new commit and comparing the printed digests:

    PYTHONPATH=src python scripts/formula_hash.py [--seeds 400]

For each seed it writes `gen_random_universal(5, 30, seed)` and
`gen_random_clifford_t(5, 30, seed)` as QASM, parses and lowers them back
(`lower(parse_qasm(to_qasm(...)))`), encodes them, and feeds the mode,
`num_vars`, clauses, weights (with their Python types), frames and
`check_units` of every check in `check_order` into one SHA-256.
"""

from __future__ import annotations

import argparse
import hashlib

from paulimc.bench import gen_random_clifford_t, gen_random_universal
from paulimc.circuits import lower, parse_qasm, to_qasm
from paulimc.driver import check_order
from paulimc.encoder import PauliTerm, check_units, encode_circuit


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=400)
    ap.add_argument("--qubits", type=int, default=5)
    ap.add_argument("--gates", type=int, default=30)
    args = ap.parse_args()
    digest = hashlib.sha256()
    circuits = 0
    for gen in (gen_random_universal, gen_random_clifford_t):
        for seed in range(args.seeds):
            circuit = parse_qasm(to_qasm(gen(args.qubits, args.gates, seed)))
            enc = encode_circuit(lower(circuit))
            n = enc.num_qubits
            weights = sorted((lit, type(w).__name__, repr(w))
                             for lit, w in enc.cnf.weights.items())
            frames = [(f.xs, f.zs) for f in enc.frames]
            units = [check_units(enc, PauliTerm.single(n, j, p))
                     for p, j in check_order(n)]
            record = (enc.mode, enc.cnf.mode, enc.cnf.num_vars,
                      list(enc.cnf.clauses), weights, frames, units)
            digest.update(repr(record).encode())
            circuits += 1
    print(f"circuits: {circuits}")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
