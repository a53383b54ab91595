"""Compilation of Pauli conjugation into weighted CNF.

A signed Pauli string over n qubits lives in 2n+1 bits: per qubit the pair
(x_j, z_j) selects the letter (00=I, 10=X, 11=Y, 01=Z) and a single bit r
carries the sign (-1)^r.  Pushing the string through a circuit gate by gate
gives a single output string for Clifford gates and a weighted sum of
strings for T/Tdg, rotations and the Toffoli.  Each gate contributes
clauses relating the bits before and after it, plus branch variables whose
positive-literal weights (1/sqrt2, cos/sin theta, 1/2) carry the numeric
factors, so that the weighted model count of

    input units  ∧  gate clauses  ∧  output projection units

is exactly the coefficient of the projected string in the conjugated
operator (the sign of a model is folded in through the weight -1 on the
final sign bit).

Variable ids are handed out deterministically: step 0 takes
x(1), z(1), ..., x(n), z(n), r, and every gate then appends its fresh ids
in a fixed per-kind order.  Bits a gate does not touch keep their ids
across the step — sharing the id replaces an equality clause.  H touches
both bits of its qubit but permutes them, so it also allocates nothing and
just swaps the two ids in the frame.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .circuits import Circuit, CircuitError
from .cnf import WeightedCnf
from .weights import EXACT, FLOAT, HALF, INV_SQRT2, MINUS_ONE, ExactWeight

PAULI_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
BITS_FROM_PAULI = {v: k for k, v in PAULI_FROM_BITS.items()}


class NonNativeGateError(CircuitError):
    """The encoder only accepts kinds the gate tables cover; lower first."""


class PauliTermError(ValueError):
    pass


@dataclass(frozen=True)
class PauliTerm:
    """(-1)^sign * sigma[x_1,z_1] (x) ... (x) sigma[x_n,z_n]."""

    sign: int
    bits: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (0, 1):
            raise PauliTermError(f"sign bit must be 0/1, got {self.sign!r}")
        for pair in self.bits:
            if pair not in PAULI_FROM_BITS:
                raise PauliTermError(f"bad (x, z) pair {pair!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.bits)

    @property
    def label(self) -> str:
        body = "".join(PAULI_FROM_BITS[p] for p in self.bits)
        return ("-" if self.sign else "") + body

    @classmethod
    def identity(cls, n: int) -> "PauliTerm":
        return cls(0, ((0, 0),) * n)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliTerm":
        if not 1 <= qubit <= n:
            raise PauliTermError(f"qubit {qubit} outside [1, {n}]")
        bits = [(0, 0)] * n
        bits[qubit - 1] = BITS_FROM_PAULI[letter]
        return cls(0, tuple(bits))

    @classmethod
    def from_label(cls, label: str) -> "PauliTerm":
        sign = 0
        if label.startswith(("+", "-")):
            sign = 1 if label[0] == "-" else 0
            label = label[1:]
        try:
            bits = tuple(BITS_FROM_PAULI[ch] for ch in label)
        except KeyError as exc:
            raise PauliTermError(f"bad Pauli label {label!r}") from exc
        return cls(sign, bits)

    def unsigned(self) -> "PauliTerm":
        return self if self.sign == 0 else PauliTerm(0, self.bits)


def pauli_x(n: int, qubit: int) -> PauliTerm:
    return PauliTerm.single(n, qubit, "X")


def pauli_z(n: int, qubit: int) -> PauliTerm:
    return PauliTerm.single(n, qubit, "Z")


@dataclass(frozen=True)
class Frame:
    """Variable ids holding the Pauli string at one time step."""

    xs: tuple[int, ...]
    zs: tuple[int, ...]
    r: int


@dataclass(frozen=True)
class EncodedCircuit:
    num_qubits: int
    mode: str
    cnf: WeightedCnf  # gate clauses and branch weights only, no units
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


def _eq(guard: tuple[int, ...], r: int, r2: int) -> list[tuple[int, ...]]:
    neg = tuple(-g for g in guard)
    return [neg + (-r, r2), neg + (r, -r2)]


def _neq(guard: tuple[int, ...], r: int, r2: int) -> list[tuple[int, ...]]:
    neg = tuple(-g for g in guard)
    return [neg + (r, r2), neg + (-r, -r2)]


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
        self.r = 2 * num_qubits + 1
        self.next_var = 2 * num_qubits + 2
        self.frames = [self.snapshot()]

    def snapshot(self) -> Frame:
        return Frame(tuple(self.xs), tuple(self.zs), self.r)

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def emit(self, cls: list[tuple[int, ...]]) -> None:
        self.clauses.extend(cls)

    def w_inv_sqrt2(self):
        return INV_SQRT2 if self.mode == EXACT else 1.0 / math.sqrt(2.0)

    def w_half(self):
        return HALF if self.mode == EXACT else 0.5

    # ---- gate emitters ----------------------------------------------------

    def gate_h(self, j: int) -> None:
        q = j - 1
        x, z, r = self.xs[q], self.zs[q], self.r
        r2 = self.fresh()
        self.emit(_neq((x, z), r, r2))  # Y -> -Y
        self.emit(_eq((-x,), r, r2))
        self.emit(_eq((-z,), r, r2))
        self.xs[q], self.zs[q] = z, x
        self.r = r2

    def gate_s(self, j: int, dagger: bool) -> None:
        q = j - 1
        x, z, r = self.xs[q], self.zs[q], self.r
        z2 = self.fresh()
        r2 = self.fresh()
        self.emit(_xor_def(z2, x, z))
        self.emit(_eq((-x,), r, r2))
        if dagger:
            # Sdg: X -> -Y is the only flipping input
            self.emit(_eq((z,), r, r2))
            self.emit(_neq((x, -z), r, r2))
        else:
            # S: Y -> -X
            self.emit(_eq((-z,), r, r2))
            self.emit(_neq((x, z), r, r2))
        self.zs[q] = z2
        self.r = r2

    def gate_t(self, j: int, dagger: bool) -> None:
        q = j - 1
        x, z, r = self.xs[q], self.zs[q], self.r
        z2 = self.fresh()
        r2 = self.fresh()
        u = self.fresh()
        self.emit([(-u, x), (u, -x)])  # u <=> x marks the branching inputs
        self.emit([(x, -z, z2), (x, z, -z2)])  # frame z when x=0
        self.emit(_eq((-x,), r, r2))
        if dagger:
            # Tdg X = (X - Y)/sqrt2, Tdg Y = (X + Y)/sqrt2
            self.emit(_eq((z,), r, r2))
            self.emit(_eq((-z2,), r, r2))
            self.emit(_neq((x, -z, z2), r, r2))
        else:
            # T X = (X + Y)/sqrt2, T Y = (Y - X)/sqrt2
            self.emit(_eq((-z,), r, r2))
            self.emit(_eq((z2,), r, r2))
            self.emit(_neq((x, z, -z2), r, r2))
        self.weights[u] = self.w_inv_sqrt2()
        self.zs[q] = z2
        self.r = r2

    def gate_cz(self, j: int, k: int) -> None:
        qj, qk = j - 1, k - 1
        xj, zj = self.xs[qj], self.zs[qj]
        xk, zk = self.xs[qk], self.zs[qk]
        r = self.r
        zj2 = self.fresh()
        zk2 = self.fresh()
        r2 = self.fresh()
        self.emit(_xor_def(zj2, zj, xk))
        self.emit(_xor_def(zk2, zk, xj))
        # sign flips exactly when both x bits are set and z bits differ
        self.emit(_eq((-xj,), r, r2))
        self.emit(_eq((-xk,), r, r2))
        self.emit(_eq((xj, xk, zj, zk), r, r2))
        self.emit(_eq((xj, xk, -zj, -zk), r, r2))
        self.emit(_neq((xj, xk, zj, -zk), r, r2))
        self.emit(_neq((xj, xk, -zj, zk), r, r2))
        self.zs[qj] = zj2
        self.zs[qk] = zk2
        self.r = r2

    def gate_rx(self, j: int, theta: float) -> None:
        q = j - 1
        x, z, r = self.xs[q], self.zs[q], self.r
        x2 = self.fresh()
        r2 = self.fresh()
        c = self.fresh()
        u = self.fresh()
        self.emit([(z, -x, x2), (z, x, -x2)])  # frame x when z=0
        # c <=> z & (x == x2);  u <=> z & (x != x2)
        self.emit([(-c, z), (-c, -x, x2), (-c, x, -x2),
                   (c, -z, -x, -x2), (c, -z, x, x2)])
        self.emit([(-u, z), (-u, x, x2), (-u, -x, -x2),
                   (u, -z, -x, x2), (u, -z, x, -x2)])
        # Rx(t): Z -> cos Z - sin Y, Y -> cos Y + sin Z
        self.emit(_eq((-u,), r, r2))
        self.emit(_eq((x,), r, r2))
        self.emit(_neq((u, -x), r, r2))
        self.weights[c] = math.cos(theta)
        self.weights[u] = math.sin(theta)
        self.xs[q] = x2
        self.r = r2

    def gate_rz(self, j: int, theta: float) -> None:
        q = j - 1
        x, z, r = self.xs[q], self.zs[q], self.r
        z2 = self.fresh()
        r2 = self.fresh()
        c = self.fresh()
        u = self.fresh()
        self.emit([(x, -z, z2), (x, z, -z2)])
        self.emit([(-c, x), (-c, -z, z2), (-c, z, -z2),
                   (c, -x, -z, -z2), (c, -x, z, z2)])
        self.emit([(-u, x), (-u, z, z2), (-u, -z, -z2),
                   (u, -x, -z, z2), (u, -x, z, -z2)])
        # Rz(t): X -> cos X + sin Y, Y -> cos Y - sin X
        self.emit(_eq((-u,), r, r2))
        self.emit(_eq((-z,), r, r2))
        self.emit(_neq((u, z), r, r2))
        self.weights[c] = math.cos(theta)
        self.weights[u] = math.sin(theta)
        self.zs[q] = z2
        self.r = r2

    def gate_ccx(self, c1: int, c2: int, t: int) -> None:
        x1, z1 = self.xs[c1 - 1], self.zs[c1 - 1]
        x2, z2 = self.xs[c2 - 1], self.zs[c2 - 1]
        x3, z3 = self.xs[t - 1], self.zs[t - 1]
        r = self.r
        z1n = self.fresh()
        z2n = self.fresh()
        x3n = self.fresh()
        r2 = self.fresh()
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
                self.emit([negcube + (-r, r2), negcube + (r, -r2)])
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
                if sgn > 0:
                    self.emit([guard + (-r, r2), guard + (r, -r2)])
                else:
                    self.emit([guard + (r, r2), guard + (-r, -r2)])
        self.weights[h] = self.w_half()
        self.zs[c1 - 1] = z1n
        self.zs[c2 - 1] = z2n
        self.xs[t - 1] = x3n
        self.r = r2


def infer_mode(circuit: Circuit) -> str:
    """Exact ring arithmetic unless true rotation gates survive lowering."""
    for g in circuit.gates:
        if g.kind in ("rx", "rz"):
            return FLOAT
    return EXACT


def encode_circuit(circuit: Circuit, mode: str = "auto") -> EncodedCircuit:
    """Encode the conjugation action of a native-kind circuit.

    The result holds the gate clauses, branch weights and the variable
    frames for every time step; input/output units are added separately so
    one encoding serves all 2n equivalence checks.
    """
    if mode == "auto":
        mode = infer_mode(circuit)
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"bad mode {mode!r}")
    if mode == EXACT and infer_mode(circuit) == FLOAT:
        raise NonNativeGateError(
            "circuit has rotation gates with arbitrary angles; "
            "exact mode cannot represent cos/sin weights"
        )
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
        elif g.kind == "rx":
            b.gate_rx(g.qubits[0], g.angle)
        elif g.kind == "rz":
            b.gate_rz(g.qubits[0], g.angle)
        elif g.kind == "ccx":
            b.gate_ccx(*g.qubits)
        else:
            raise NonNativeGateError(
                f"gate kind {g.kind!r} has no conjugation table; "
                "run lower() first"
            )
        b.frames.append(b.snapshot())
    if mode == FLOAT:
        weights = {lit: float(w) for lit, w in b.weights.items()}
    else:
        weights = dict(b.weights)
    cnf = WeightedCnf(
        num_vars=b.next_var - 1,
        clauses=b.clauses,
        weights=weights,
        mode=mode,
    )
    return EncodedCircuit(
        num_qubits=circuit.num_qubits,
        mode=mode,
        cnf=cnf,
        frames=tuple(b.frames),
    )


def initial_units(enc: EncodedCircuit, p0: PauliTerm) -> list[tuple[int]]:
    """Unit clauses pinning the step-0 string (and its sign bit) to p0."""
    if p0.num_qubits != enc.num_qubits:
        raise PauliTermError(
            f"Pauli term is on {p0.num_qubits} qubits, circuit on {enc.num_qubits}"
        )
    frame = enc.frames[0]
    units = []
    for q in range(enc.num_qubits):
        xb, zb = p0.bits[q]
        units.append((_lit(frame.xs[q], xb),))
        units.append((_lit(frame.zs[q], zb),))
    units.append((_lit(frame.r, p0.sign),))
    return units


def projection_units(enc: EncodedCircuit, p: PauliTerm) -> list[tuple[int]]:
    """Unit clauses pinning the final string's letter bits (never its sign:
    the sign bit stays free and is scored by the weight -1 on r(m))."""
    if p.sign != 0:
        raise PauliTermError("projection must be an unsigned Pauli string")
    if p.num_qubits != enc.num_qubits:
        raise PauliTermError(
            f"Pauli term is on {p.num_qubits} qubits, circuit on {enc.num_qubits}"
        )
    frame = enc.frames[-1]
    units = []
    for q in range(enc.num_qubits):
        xb, zb = p.bits[q]
        units.append((_lit(frame.xs[q], xb),))
        units.append((_lit(frame.zs[q], zb),))
    return units


def assemble_check(
    enc: EncodedCircuit,
    p0: PauliTerm,
    project: PauliTerm | None = None,
) -> WeightedCnf:
    """Full formula for one count: units + gate clauses + projection.

    `project` defaults to p0 itself (the diagonal coefficient that must be
    1 for equivalence); pass a different string to read off any other
    coefficient of the conjugated operator.
    """
    if project is None:
        project = p0.unsigned()
    clauses = (
        initial_units(enc, p0)
        + list(enc.cnf.clauses)
        + projection_units(enc, project)
    )
    weights = dict(enc.cnf.weights)
    weights[enc.frames[-1].r] = MINUS_ONE if enc.mode == EXACT else -1.0
    return WeightedCnf(
        num_vars=enc.cnf.num_vars,
        clauses=clauses,
        weights=weights,
        mode=enc.mode,
    )
