"""Compilation of Pauli conjugation into weighted CNF.

A Pauli string over n qubits lives in 2n bits: per qubit the pair
(x_j, z_j) selects the letter (00=I, 10=X, 11=Y, 01=Z).  Pushing the
string through a circuit gate by gate gives a single output string for
Clifford gates and a weighted sum of strings for T/Tdg, rotations and the
Toffoli.  Each gate contributes clauses relating the bits before and after
it, branch variables whose positive-literal weights (1/sqrt2, cos/sin
theta, 1/2) carry the numeric factors, and one flip variable f that holds
exactly when the gate negates the string and weighs -1.  So the weighted
model count of

    input units  ∧  gate clauses  ∧  output projection units

is the sum over paths of branch weights times (-1)^flips: exactly the
coefficient of the projected string in the conjugated operator.  No sign
is carried from step to step, so two paths that reach the same letters
with opposite signs meet in the same residual.

Variable ids are handed out deterministically: step 0 takes
x(1), z(1), ..., x(n), z(n), and every gate then appends its fresh ids in
a fixed per-kind order.  Bits a gate does not touch keep their ids across
the step — sharing the id replaces an equality clause.  H touches both
bits of its qubit but permutes them, so it allocates only its flip
variable and swaps the two ids in the frame.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .circuits import Circuit, CircuitError
from .cnf import WeightedCnf
from .weights import EXACT, FLOAT, HALF, INV_SQRT2, MINUS_ONE

PAULI_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
BITS_FROM_PAULI = {v: k for k, v in PAULI_FROM_BITS.items()}


class NonNativeGateError(CircuitError):
    """The encoder only accepts kinds the gate tables cover; lower first."""


class PauliTermError(ValueError):
    pass


@dataclass(frozen=True)
class PauliTerm:
    """sigma[x_1,z_1] (x) ... (x) sigma[x_n,z_n], always unsigned: no
    variable holds an input sign, so a label with a leading - or + is
    rejected."""

    bits: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for pair in self.bits:
            if pair not in PAULI_FROM_BITS:
                raise PauliTermError(f"bad (x, z) pair {pair!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.bits)

    @property
    def label(self) -> str:
        return "".join(PAULI_FROM_BITS[p] for p in self.bits)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliTerm":
        if not 1 <= qubit <= n:
            raise PauliTermError(f"qubit {qubit} outside [1, {n}]")
        bits = [(0, 0)] * n
        bits[qubit - 1] = BITS_FROM_PAULI[letter]
        return cls(tuple(bits))

    @classmethod
    def from_label(cls, label: str) -> "PauliTerm":
        try:
            bits = tuple(BITS_FROM_PAULI[ch] for ch in label)
        except KeyError as exc:
            raise PauliTermError(f"bad Pauli label {label!r}") from exc
        return cls(bits)


@dataclass(frozen=True)
class Frame:
    """Variable ids holding the Pauli letters at one time step (the sign
    is not in the frame: each gate's flip variable scores it)."""

    xs: tuple[int, ...]
    zs: tuple[int, ...]


@dataclass(frozen=True)
class EncodedCircuit:
    num_qubits: int
    mode: str
    cnf: WeightedCnf  # gate clauses, branch and flip weights; no units
    frames: tuple[Frame, ...]  # one per time step, len(gates)+1 entries


# --------------------------------------------------------------------------
# Toffoli conjugation table.
#
# Row format "P1P2P3:+Q.. -Q.." lists the conjugated expansion of the input
# string (qubit order: control, control, target).  Rows with one output are
# the stabilizer-like cases (coefficient +1); rows with four outputs carry
# coefficient 1/2 each with the printed signs.  x1, x2 and z3 never change,
# which the loader checks.  Regenerate/verify against a brute-force 8x8
# conjugation if you ever need to touch this.

_TOFFOLI_ROWS = """\
III:+III
IIZ:+IIZ +IZZ +ZIZ -ZZZ
IIX:+IIX
IIY:+IIY +IZY +ZIY -ZZY
IZI:+IZI
IZZ:+IIZ +IZZ +ZZZ -ZIZ
IZX:+IZX
IZY:+IIY +IZY +ZZY -ZIY
IXI:+IXI +IXX +ZXI -ZXX
IXZ:+IXZ +ZXZ +ZYY -IYY
IXX:+IXI +IXX +ZXX -ZXI
IXY:+IXY +IYZ +ZXY -ZYZ
IYI:+IYI +IYX +ZYI -ZYX
IYZ:+IXY +IYZ +ZYZ -ZXY
IYX:+IYI +IYX +ZYX -ZYI
IYY:+IYY +ZXZ +ZYY -IXZ
ZII:+ZII
ZIZ:+IIZ +ZIZ +ZZZ -IZZ
ZIX:+ZIX
ZIY:+IIY +ZIY +ZZY -IZY
ZZI:+ZZI
ZZZ:+IZZ +ZIZ +ZZZ -IIZ
ZZX:+ZZX
ZZY:+IZY +ZIY +ZZY -IIY
ZXI:+IXI +ZXI +ZXX -IXX
ZXZ:+IXZ +IYY +ZXZ -ZYY
ZXX:+IXX +ZXI +ZXX -IXI
ZXY:+IXY +ZXY +ZYZ -IYZ
ZYI:+IYI +ZYI +ZYX -IYX
ZYZ:+IYZ +ZXY +ZYZ -IXY
ZYX:+IYX +ZYI +ZYX -IYI
ZYY:+IXZ +IYY +ZYY -ZXZ
XII:+XII +XIX +XZI -XZX
XIZ:+XIZ +XZZ +YZY -YIY
XIX:+XII +XIX +XZX -XZI
XIY:+XIY +XZY +YIZ -YZZ
XZI:+XII +XZI +XZX -XIX
XZZ:+XIZ +XZZ +YIY -YZY
XZX:+XIX +XZI +XZX -XII
XZY:+XIY +XZY +YZZ -YIZ
XXI:+XXI +XXX +YYI -YYX
XXZ:+XXZ +YYZ -XYY -YXY
XXX:+XXI +XXX +YYX -YYI
XXY:+XXY +XYZ +YXZ +YYY
XYI:+XYI +XYX +YXX -YXI
XYZ:+XXY +XYZ -YXZ -YYY
XYX:+XYI +XYX +YXI -YXX
XYY:+XYY +YYZ -XXZ -YXY
YII:+YII +YIX +YZI -YZX
YIZ:+XIY +YIZ +YZZ -XZY
YIX:+YII +YIX +YZX -YZI
YIY:+XZZ +YIY +YZY -XIZ
YZI:+YII +YZI +YZX -YIX
YZZ:+XZY +YIZ +YZZ -XIY
YZX:+YIX +YZI +YZX -YII
YZY:+XIZ +YIY +YZY -XZZ
YXI:+XYX +YXI +YXX -XYI
YXZ:+XXY +YXZ -XYZ -YYY
YXX:+XYI +YXI +YXX -XYX
YXY:+YXY +YYZ -XXZ -XYY
YYI:+XXI +YYI +YYX -XXX
YYZ:+XXZ +XYY +YXY +YYZ
YYX:+XXX +YYI +YYX -XXI
YYY:+XXY +YYY -XYZ -YXZ
"""


def _load_toffoli_table() -> tuple[tuple[str, tuple[tuple[int, str], ...]], ...]:
    rows = []
    for line in _TOFFOLI_ROWS.splitlines():
        inp, _, rhs = line.partition(":")
        terms = tuple(
            (1 if tok[0] == "+" else -1, tok[1:]) for tok in rhs.split()
        )
        if len(terms) not in (1, 4):
            raise RuntimeError(f"corrupt row {line!r}")
        for _, out in terms:
            # x on the controls and z on the target are invariant
            for pos in (0, 1):
                if BITS_FROM_PAULI[out[pos]][0] != BITS_FROM_PAULI[inp[pos]][0]:
                    raise RuntimeError(f"x{pos + 1} not preserved in {line!r}")
            if BITS_FROM_PAULI[out[2]][1] != BITS_FROM_PAULI[inp[2]][1]:
                raise RuntimeError(f"z3 not preserved in {line!r}")
        if len(terms) == 1 and (terms[0][1] != inp or terms[0][0] != 1):
            raise RuntimeError(f"bad singleton row {line!r}")
        rows.append((inp, terms))
    if len(rows) != 64:
        raise RuntimeError(f"expected 64 rows, got {len(rows)}")
    return tuple(rows)


TOFFOLI_TABLE = _load_toffoli_table()


# --------------------------------------------------------------------------
# Clause helpers.  "Guards" are conjunctions of literals that must hold for
# an implication to fire; inside a clause they appear negated.


def _lit(var: int, bit: int) -> int:
    return var if bit else -var


def _and_def(f: int, *guard: int) -> list[tuple[int, ...]]:
    """f <=> the conjunction of the guard literals."""
    return [(-f, g) for g in guard] + [(f,) + tuple(-g for g in guard)]


def _xor_def(a: int, b: int, c: int) -> list[tuple[int, ...]]:
    """a <=> b xor c."""
    return [(-a, b, c), (-a, -b, -c), (a, -b, c), (a, b, -c)]


class _Builder:
    def __init__(self, num_qubits: int, mode: str):
        self.n = num_qubits
        self.mode = mode
        self.clauses: list[tuple[int, ...]] = []
        self.weights: dict[int, object] = {}
        self.xs = [2 * j + 1 for j in range(num_qubits)]
        self.zs = [2 * j + 2 for j in range(num_qubits)]
        self.next_var = 2 * num_qubits + 1
        self.frames = [self.snapshot()]

    def snapshot(self) -> Frame:
        return Frame(tuple(self.xs), tuple(self.zs))

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def flip(self) -> int:
        """A fresh variable of weight -1: the gate's sign flip."""
        f = self.fresh()
        self.weights[f] = MINUS_ONE if self.mode == EXACT else -1.0
        return f

    def emit(self, cls: list[tuple[int, ...]]) -> None:
        self.clauses.extend(cls)

    def w_inv_sqrt2(self):
        return INV_SQRT2 if self.mode == EXACT else 1.0 / math.sqrt(2.0)

    def w_half(self):
        return HALF if self.mode == EXACT else 0.5

    # ---- gate emitters ----------------------------------------------------

    def gate_h(self, j: int) -> None:
        q = j - 1
        x, z = self.xs[q], self.zs[q]
        f = self.flip()
        self.emit(_and_def(f, x, z))  # Y -> -Y
        self.xs[q], self.zs[q] = z, x

    def gate_s(self, j: int, dagger: bool) -> None:
        q = j - 1
        x, z = self.xs[q], self.zs[q]
        z2 = self.fresh()
        f = self.flip()
        self.emit(_xor_def(z2, x, z))
        # Sdg: X -> -Y;  S: Y -> -X
        self.emit(_and_def(f, x, -z if dagger else z))
        self.zs[q] = z2

    def gate_t(self, j: int, dagger: bool) -> None:
        q = j - 1
        x, z = self.xs[q], self.zs[q]
        z2 = self.fresh()
        f = self.flip()
        u = self.fresh()
        self.emit([(-u, x), (u, -x)])  # u <=> x marks the branching inputs
        self.emit([(x, -z, z2), (x, z, -z2)])  # frame z when x=0
        if dagger:
            # Tdg X = (X - Y)/sqrt2, Tdg Y = (X + Y)/sqrt2
            self.emit(_and_def(f, x, -z, z2))
        else:
            # T X = (X + Y)/sqrt2, T Y = (Y - X)/sqrt2
            self.emit(_and_def(f, x, z, -z2))
        self.weights[u] = self.w_inv_sqrt2()
        self.zs[q] = z2

    def gate_cz(self, j: int, k: int) -> None:
        qj, qk = j - 1, k - 1
        xj, zj = self.xs[qj], self.zs[qj]
        xk, zk = self.xs[qk], self.zs[qk]
        zj2 = self.fresh()
        zk2 = self.fresh()
        f = self.flip()
        self.emit(_xor_def(zj2, zj, xk))
        self.emit(_xor_def(zk2, zk, xj))
        # the sign flips exactly when both x bits are set and z bits differ
        self.emit([(-f, xj), (-f, xk), (-f, zj, zk), (-f, -zj, -zk),
                   (f, -xj, -xk, -zj, zk), (f, -xj, -xk, zj, -zk)])
        self.zs[qj] = zj2
        self.zs[qk] = zk2

    def gate_rotation(self, j: int, theta: float, axis: str) -> None:
        """Rx or Rz: the bit o on the rotation's axis (x for Rx, z for Rz)
        gets a new id o2; the other bit k decides whether the letter
        branches."""
        q = j - 1
        own, other = (self.xs, self.zs) if axis == "x" else (self.zs, self.xs)
        o, k = own[q], other[q]
        o2 = self.fresh()
        f = self.flip()
        c = self.fresh()
        u = self.fresh()
        self.emit([(k, -o, o2), (k, o, -o2)])  # frame o when k=0
        # c <=> k & (o == o2);  u <=> k & (o != o2)
        self.emit([(-c, k), (-c, -o, o2), (-c, o, -o2),
                   (c, -k, -o, -o2), (c, -k, o, o2)])
        self.emit([(-u, k), (-u, o, o2), (-u, -o, -o2),
                   (u, -k, -o, o2), (u, -k, o, -o2)])
        # Rx(t): Z -> cos Z - sin Y, Y -> cos Y + sin Z  (flips on input x=0)
        # Rz(t): X -> cos X + sin Y, Y -> cos Y - sin X  (flips on input z=1)
        self.emit(_and_def(f, u, -o if axis == "x" else o))
        self.weights[c] = math.cos(theta)
        self.weights[u] = math.sin(theta)
        own[q] = o2

    def gate_ccx(self, c1: int, c2: int, t: int) -> None:
        x1, z1 = self.xs[c1 - 1], self.zs[c1 - 1]
        x2, z2 = self.xs[c2 - 1], self.zs[c2 - 1]
        x3, z3 = self.xs[t - 1], self.zs[t - 1]
        z1n = self.fresh()
        z2n = self.fresh()
        x3n = self.fresh()
        f = self.flip()
        h = self.fresh()
        invars = (x1, z1, x2, z2, x3, z3)
        outvars = (z1n, z2n, x3n)  # the only bits the gate can change
        for inp, terms in TOFFOLI_TABLE:
            inbits = []
            for letter in inp:
                inbits.extend(BITS_FROM_PAULI[letter])
            negcube = tuple(-_lit(v, b) for v, b in zip(invars, inbits))
            branches = []
            for sgn, out in terms:
                ob = [BITS_FROM_PAULI[letter] for letter in out]
                branches.append((sgn, (ob[0][1], ob[1][1], ob[2][0])))
            if len(branches) == 1:
                self.clauses.append(negcube + (-h,))
                sgn, bits = branches[0]
                for v, b in zip(outvars, bits):
                    self.clauses.append(negcube + (_lit(v, b),))
                self.clauses.append(negcube + (-f,))
                continue
            self.clauses.append(negcube + (h,))
            # The four branch bit-triples form an affine subspace of
            # dimension 2, so exactly one linear form alpha.x is constant
            # on them; block the assignments violating it.
            patterns = [bits for _, bits in branches]
            alpha = beta = None
            for cand in itertools.product((0, 1), repeat=3):
                if cand == (0, 0, 0):
                    continue
                vals = {
                    (p[0] & cand[0]) ^ (p[1] & cand[1]) ^ (p[2] & cand[2])
                    for p in patterns
                }
                if len(vals) == 1:
                    alpha, beta = cand, vals.pop()
                    break
            if alpha is None or len(set(patterns)) != 4:
                raise RuntimeError(f"table row {inp} is not an affine branch set")
            support = [i for i in range(3) if alpha[i]]
            for combo in itertools.product((0, 1), repeat=len(support)):
                parity = 0
                for b in combo:
                    parity ^= b
                if parity == beta:
                    continue
                block = tuple(
                    -_lit(outvars[i], b) for i, b in zip(support, combo)
                )
                self.clauses.append(negcube + block)
            for sgn, bits in branches:
                guard = negcube + tuple(
                    -_lit(v, b) for v, b in zip(outvars, bits)
                )
                self.clauses.append(guard + ((f,) if sgn < 0 else (-f,)))
        self.weights[h] = self.w_half()
        self.zs[c1 - 1] = z1n
        self.zs[c2 - 1] = z2n
        self.xs[t - 1] = x3n


def infer_mode(circuit: Circuit) -> str:
    """Exact ring arithmetic unless true rotation gates survive lowering."""
    for g in circuit.gates:
        if g.kind in ("rx", "rz"):
            return FLOAT
    return EXACT


def encode_circuit(circuit: Circuit) -> EncodedCircuit:
    """Encode the conjugation action of a native-kind circuit.

    The mode is always infer_mode(circuit): exact ring weights, or floats
    once rotation gates with arbitrary angles survive lowering.  The
    result holds the gate clauses, branch weights and the variable frames
    for every time step; input/output units are added separately so one
    encoding serves all 2n equivalence checks.
    """
    mode = infer_mode(circuit)
    b = _Builder(circuit.num_qubits, mode)
    for g in circuit.gates:
        if g.kind == "h":
            b.gate_h(g.qubits[0])
        elif g.kind == "s":
            b.gate_s(g.qubits[0], dagger=False)
        elif g.kind == "sdg":
            b.gate_s(g.qubits[0], dagger=True)
        elif g.kind == "t":
            b.gate_t(g.qubits[0], dagger=False)
        elif g.kind == "tdg":
            b.gate_t(g.qubits[0], dagger=True)
        elif g.kind == "cz":
            b.gate_cz(*g.qubits)
        elif g.kind in ("rx", "rz"):
            b.gate_rotation(g.qubits[0], g.angle, g.kind[1])
        elif g.kind == "ccx":
            b.gate_ccx(*g.qubits)
        else:
            raise NonNativeGateError(
                f"gate kind {g.kind!r} has no conjugation table; "
                "run lower() first"
            )
        b.frames.append(b.snapshot())
    cnf = WeightedCnf(
        num_vars=b.next_var - 1,
        clauses=b.clauses,
        weights=b.weights,
        mode=mode,
    )
    return EncodedCircuit(
        num_qubits=circuit.num_qubits,
        mode=mode,
        cnf=cnf,
        frames=tuple(b.frames),
    )


def check_units(
    enc: EncodedCircuit,
    p0: PauliTerm,
    project: PauliTerm | None = None,
) -> list[int]:
    """The 4n unit literals that make enc.cnf one check: the step-0 letter
    bits pinned to p0, then the final letter bits pinned to `project`.
    No variable holds a sign; each path's sign is scored by the flip
    weights.

    `project` defaults to p0 itself (the diagonal coefficient that must be
    1 for equivalence); pass a different string to read off any other
    coefficient of the conjugated operator.
    """
    if project is None:
        project = p0
    if not p0.num_qubits == project.num_qubits == enc.num_qubits:
        raise PauliTermError(
            f"Pauli terms on {p0.num_qubits} and {project.num_qubits} "
            f"qubits, circuit on {enc.num_qubits}"
        )
    units = []
    for frame, p in ((enc.frames[0], p0), (enc.frames[-1], project)):
        for x, z, (xb, zb) in zip(frame.xs, frame.zs, p.bits):
            units.append(_lit(x, xb))
            units.append(_lit(z, zb))
    return units


def assemble_check(
    enc: EncodedCircuit,
    p0: PauliTerm,
    project: PauliTerm | None = None,
) -> WeightedCnf:
    """Full formula for one count, enc.cnf with check_units as clauses:
    the initial units, the gate clauses, then the projection units."""
    units = [(lit,) for lit in check_units(enc, p0, project)]
    k = 2 * enc.num_qubits  # the initial units
    clauses = units[:k] + enc.cnf.clauses + units[k:]
    return WeightedCnf(enc.cnf.num_vars, clauses, dict(enc.cnf.weights),
                       enc.mode)
