"""Random circuit generation and error injection.

The generator draws gates i.i.d. with the Clifford+T mix
P(CX)=0.10, P(H)=0.35, P(S)=0.35, P(T)=0.20; the universal variant trades
some of that probability mass for rotations and Toffolis.  Randomness
comes from random.Random(seed) (Mersenne Twister), so a (generator,
seed, n, num_gates) tuple reproduces bit-for-bit on any platform.

Error injection mutates exactly one randomly chosen eligible gate:
 - remove_gate: delete it (any gate is eligible)
 - flip_cnot:   swap control and target (cx gates only)
 - phase_shift: add delta to the angle (rotation/phase gates only)

equivalent_variant() goes the other way: it inserts gate/adjoint pairs and
swaps adjacent gates on disjoint qubits, so the result is guaranteed equal
to the input circuit as a matrix (not merely up to phase).
"""

from __future__ import annotations

import random

from .circuits import Circuit, Gate, ROTATION_KINDS, adjoint

DEFAULT_DELTA = 1e-4

ERROR_KINDS = ("remove_gate", "flip_cnot", "phase_shift")


class NoEligibleGateError(ValueError):
    def __init__(self, kind: str):
        super().__init__(f"no gate eligible for {kind!r} in this circuit")
        self.kind = kind


def _pick_qubits(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), k))


def gen_random_clifford_t(
    num_qubits: int, num_gates: int, seed: int
) -> Circuit:
    """The 10/35/35/20 cx/h/s/t mix; needs >= 2 qubits for cx."""
    if num_qubits < 2:
        raise ValueError("need at least 2 qubits for the cx share of the mix")
    rng = random.Random(seed)
    gates = []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.10:
            gates.append(Gate("cx", _pick_qubits(rng, num_qubits, 2)))
        elif roll < 0.45:
            gates.append(Gate("h", _pick_qubits(rng, num_qubits, 1)))
        elif roll < 0.80:
            gates.append(Gate("s", _pick_qubits(rng, num_qubits, 1)))
        else:
            gates.append(Gate("t", _pick_qubits(rng, num_qubits, 1)))
    return Circuit(num_qubits, tuple(gates))


def gen_random_universal(
    num_qubits: int, num_gates: int, seed: int
) -> Circuit:
    """Clifford+T plus rx/rz at random angles and (from 3 qubits up) ccx.

    Mix: cx .10, h .25, s .20, t .15, rx .10, rz .10, ccx .10 — with the
    multi-qubit shares folded into h when the register is too small.
    """
    rng = random.Random(seed)
    gates = []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.10 and num_qubits >= 2:
            gates.append(Gate("cx", _pick_qubits(rng, num_qubits, 2)))
        elif roll < 0.35:
            gates.append(Gate("h", _pick_qubits(rng, num_qubits, 1)))
        elif roll < 0.55:
            gates.append(Gate("s", _pick_qubits(rng, num_qubits, 1)))
        elif roll < 0.70:
            gates.append(Gate("t", _pick_qubits(rng, num_qubits, 1)))
        elif roll < 0.80:
            angle = rng.uniform(0.0, 2.0 * 3.141592653589793)
            gates.append(Gate("rx", _pick_qubits(rng, num_qubits, 1), angle))
        elif roll < 0.90:
            angle = rng.uniform(0.0, 2.0 * 3.141592653589793)
            gates.append(Gate("rz", _pick_qubits(rng, num_qubits, 1), angle))
        elif num_qubits >= 3:
            gates.append(Gate("ccx", _pick_qubits(rng, num_qubits, 3)))
        else:
            gates.append(Gate("h", _pick_qubits(rng, num_qubits, 1)))
    return Circuit(num_qubits, tuple(gates))


def inject_error(
    c: Circuit, kind: str, seed: int, *, delta: float = DEFAULT_DELTA
) -> Circuit:
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}; pick from {ERROR_KINDS}")
    rng = random.Random(seed)
    if kind == "remove_gate":
        eligible = list(range(len(c.gates)))
    elif kind == "flip_cnot":
        eligible = [i for i, g in enumerate(c.gates) if g.kind == "cx"]
    else:
        eligible = [i for i, g in enumerate(c.gates) if g.kind in ROTATION_KINDS]
    if not eligible:
        raise NoEligibleGateError(kind)
    i = rng.choice(eligible)
    gates = list(c.gates)
    if kind == "remove_gate":
        del gates[i]
    elif kind == "flip_cnot":
        ctrl, tgt = gates[i].qubits
        gates[i] = Gate("cx", (tgt, ctrl))
    else:
        g = gates[i]
        gates[i] = Gate(g.kind, g.qubits, g.angle + delta)
    return Circuit(c.num_qubits, tuple(gates))


_INSERTABLE = ("h", "s", "sdg", "t", "tdg", "cz", "cx")


def equivalent_variant(
    c: Circuit,
    seed: int,
    *,
    insertions: int | None = None,
    commutations: int | None = None,
) -> Circuit:
    """A differently-written circuit with the exact same unitary."""
    rng = random.Random(seed)
    gates = list(c.gates)
    n = c.num_qubits
    if insertions is None:
        insertions = max(1, len(gates) // 10)
    if commutations is None:
        commutations = max(1, len(gates) // 10)
    for _ in range(insertions):
        kind = rng.choice(_INSERTABLE if n >= 2 else _INSERTABLE[:5])
        qs = _pick_qubits(rng, n, 2 if kind in ("cz", "cx") else 1)
        g = Gate(kind, qs)
        pos = rng.randrange(len(gates) + 1)
        pair = [g] + list(adjoint(Circuit(n, (g,))).gates)
        gates[pos:pos] = pair
    for _ in range(commutations):
        if len(gates) < 2:
            break
        for _attempt in range(4 * len(gates)):
            i = rng.randrange(len(gates) - 1)
            a, b = gates[i], gates[i + 1]
            if not set(a.qubits) & set(b.qubits):
                gates[i], gates[i + 1] = b, a
                break
    return Circuit(n, tuple(gates))
