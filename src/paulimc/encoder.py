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

Each native kind is one clause template, built once at import over local
variables: 1..2m are the frame bits the gate reads (x then z of each of
its m qubits, in gate order), the next ones its fresh ids in a fixed order.
A gate is encoded by renaming its kind's template: step 0 takes
x(1), z(1), ..., x(n), z(n), each gate appends its fresh ids, and each
frame bit it touches takes the id its template names.  Bits a gate does
not touch keep their ids across the step — sharing the id replaces an
equality clause; H permutes its qubit's two ids.  The Toffoli template is
compiled from its 64-row table: on each branching row the four new triples
(z1', z2', x3') are exactly the solutions of
x1 z1' + x2 z2' + z3 x3' = x1 z1 + x2 z2 + z3 x3 (mod 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter, neg

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


# --------------------------------------------------------------------------
# Clause templates, one per native kind.


class _Template:
    def __init__(self, fresh, clauses, weights, out):
        self.fresh = fresh
        # every clause has two or more literals, so each itemgetter returns
        # a tuple: one call renames a clause through a local-to-global table
        self.renames = tuple(itemgetter(*c) for c in clauses)
        self.weights = weights  # (local, constant name, or math.cos/sin)
        self.out = out  # per qubit, the locals its x and z become


def _t(dagger: bool) -> _Template:
    # x, z = 1, 2; fresh z2, f, u = 3, 4, 5.  u <=> x marks the branching
    # inputs; z2 = z when x=0.
    # T X = (X + Y)/sqrt2, T Y = (Y - X)/sqrt2
    # Tdg X = (X - Y)/sqrt2, Tdg Y = (X + Y)/sqrt2
    flip = _and_def(4, 1, -2, 3) if dagger else _and_def(4, 1, 2, -3)
    return _Template(3, [(-5, 1), (5, -1), (1, -2, 3), (1, 2, -3)] + flip,
                     [(4, "-1"), (5, "1/sqrt2")], [(1, 3)])


def _rotation(axis: str) -> _Template:
    """Rx or Rz: the bit o on the rotation's axis (x for Rx, z for Rz)
    becomes o2; the other bit k decides whether the letter branches."""
    o, k = (1, 2) if axis == "x" else (2, 1)
    o2, f, c, u = 3, 4, 5, 6
    clauses = [(k, -o, o2), (k, o, -o2),  # frame o when k=0
               # c <=> k & (o == o2);  u <=> k & (o != o2)
               (-c, k), (-c, -o, o2), (-c, o, -o2),
               (c, -k, -o, -o2), (c, -k, o, o2),
               (-u, k), (-u, o, o2), (-u, -o, -o2),
               (u, -k, -o, o2), (u, -k, o, -o2)]
    # Rx(t): Z -> cos Z - sin Y, Y -> cos Y + sin Z  (flips on input x=0)
    # Rz(t): X -> cos X + sin Y, Y -> cos Y - sin X  (flips on input z=1)
    clauses += _and_def(f, u, -o if axis == "x" else o)
    out = (o2, k) if axis == "x" else (k, o2)
    return _Template(4, clauses,
                     [(f, "-1"), (c, math.cos), (u, math.sin)], [out])


def _bits(label: str) -> tuple[int, ...]:
    """(x1, z1, x2, z2, x3, z3) of a three-letter string."""
    return tuple(b for letter in label for b in BITS_FROM_PAULI[letter])


_changed = itemgetter(1, 3, 4)  # (z1, z2, x3): the bits a Toffoli can change


def _toffoli_clauses() -> list[tuple[int, ...]]:
    """The ccx clauses, row by row in table order, over x1..z3 = 1..6 and
    fresh z1', z2', x3', f, h = 7..11.  A singleton row fixes the three
    new bits to the old ones with h and f false; a branching row sets h,
    blocks the new-bit triples off its parity constraint, and gives each
    branch's triple the flip of its sign."""
    new = (7, 8, 9)
    clauses = []
    for inp, terms in TOFFOLI_TABLE:
        x1, z1, x2, z2, x3, z3 = bits = _bits(inp)
        cube = tuple(-_lit(v, b) for v, b in zip(range(1, 7), bits))
        if len(terms) == 1:
            clauses.append(cube + (-11,))
            clauses += [cube + (_lit(v, b),) for v, b in zip(new, (z1, z2, x3))]
            clauses.append(cube + (-10,))
            continue
        clauses.append(cube + (11,))
        # The branch triples (z1', z2', x3') must be exactly the solutions
        # of x1 z1' + x2 z2' + z3 x3' = x1 z1 + x2 z2 + z3 x3 (mod 2).
        beta = x1 & z1 ^ x2 & z2 ^ z3 & x3
        branches = [(sgn, _changed(_bits(out))) for sgn, out in terms]
        solutions = {p for p in itertools.product((0, 1), repeat=3)
                     if x1 & p[0] ^ x2 & p[1] ^ z3 & p[2] == beta}
        if {p for _, p in branches} != solutions:
            raise RuntimeError(f"ccx row {inp} breaks the branch parity")
        support = [v for v, a in zip(new, (x1, x2, z3)) if a]
        for combo in itertools.product((0, 1), repeat=len(support)):
            if sum(combo) % 2 != beta:
                clauses.append(cube + tuple(
                    -_lit(v, b) for v, b in zip(support, combo)))
        for sgn, p in branches:
            guard = tuple(-_lit(v, b) for v, b in zip(new, p))
            clauses.append(cube + guard + ((10,) if sgn < 0 else (-10,)))
    return clauses


_TEMPLATES = {
    "h": _Template(1, _and_def(3, 1, 2), [(3, "-1")], [(2, 1)]),  # Y -> -Y
    # fresh z2, f = 3, 4
    "s": _Template(2, _xor_def(3, 1, 2) + _and_def(4, 1, 2),  # Y -> -X
                   [(4, "-1")], [(1, 3)]),
    "sdg": _Template(2, _xor_def(3, 1, 2) + _and_def(4, 1, -2),  # X -> -Y
                     [(4, "-1")], [(1, 3)]),
    "t": _t(False),
    "tdg": _t(True),
    # xj, zj, xk, zk = 1..4; fresh zj2, zk2, f = 5, 6, 7.  The sign flips
    # exactly when both x bits are set and the z bits differ.
    "cz": _Template(3, _xor_def(5, 2, 3) + _xor_def(6, 4, 1)
                    + [(-7, 1), (-7, 3), (-7, 2, 4), (-7, -2, -4),
                       (7, -1, -3, -2, 4), (7, -1, -3, 2, -4)],
                    [(7, "-1")], [(1, 5), (3, 6)]),
    "rx": _rotation("x"),
    "rz": _rotation("z"),
    "ccx": _Template(5, _toffoli_clauses(), [(10, "-1"), (11, "1/2")],
                     [(1, 7), (3, 8), (9, 6)]),
}

# The value of each constant a template names, per mode.
_CONSTANTS = {
    EXACT: {"-1": MINUS_ONE, "1/sqrt2": INV_SQRT2, "1/2": HALF},
    FLOAT: {"-1": -1.0, "1/sqrt2": 1.0 / math.sqrt(2.0), "1/2": 0.5},
}


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
    n = circuit.num_qubits
    xs = list(range(1, 2 * n, 2))
    zs = list(range(2, 2 * n + 1, 2))
    next_var = 2 * n + 1
    clauses: list[tuple[int, ...]] = []
    weights: dict[int, object] = {}
    constants = _CONSTANTS[mode]
    frames = [Frame(tuple(xs), tuple(zs))]
    for g in circuit.gates:
        t = _TEMPLATES.get(g.kind)
        if t is None:
            raise NonNativeGateError(
                f"gate kind {g.kind!r} has no conjugation table; "
                "run lower() first"
            )
        ids = []
        for q in g.qubits:
            ids += (xs[q - 1], zs[q - 1])
        ids += range(next_var, next_var + t.fresh)
        next_var += t.fresh
        lut = [0, *ids, *map(neg, reversed(ids))]  # lut[-l] == -lut[l]
        clauses += [rename(lut) for rename in t.renames]
        for v, w in t.weights:
            weights[lut[v]] = w(g.angle) if callable(w) else constants[w]
        for q, (x, z) in zip(g.qubits, t.out):
            xs[q - 1], zs[q - 1] = lut[x], lut[z]
        frames.append(Frame(tuple(xs), tuple(zs)))
    cnf = WeightedCnf(
        num_vars=next_var - 1,
        clauses=clauses,
        weights=weights,
        mode=mode,
    )
    return EncodedCircuit(
        num_qubits=n,
        mode=mode,
        cnf=cnf,
        frames=tuple(frames),
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
