"""Circuit intermediate representation, OpenQASM 2 subset parser, lowering.

Qubits are 1-based throughout.  The IR keeps whatever gates the input used;
:func:`lower` rewrites a circuit into the *native* gate set that the CNF
encoder understands::

    h  s  sdg  t  tdg  cz  ccx  rx(theta)  rz(theta)

Pauli gates and cx are expanded into H/S/CZ products, and rotation angles
that are (numerically) integer multiples of pi/4 are rewritten into S/T
ladders so exact-mode counting survives.  All rewrites preserve the unitary
up to global phase, which is the only notion of equality this package cares
about.  p(theta) and rz(theta) differ by global phase only, so both map to
the native ``rz``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

GATE_ARITY = {
    "h": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "x": 1, "y": 1, "z": 1,
    "rx": 1, "rz": 1, "p": 1,
    "cx": 2, "cz": 2, "ccx": 3,
}

ROTATION_KINDS = frozenset({"rx", "rz", "p"})

_SELF_ADJOINT = {"h", "x", "y", "z", "cx", "cz", "ccx"}
_ADJOINT_SWAP = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

#: absolute snap tolerance (radians) for treating an angle as a pi/4 multiple
PI4_SNAP_TOL = 1e-9


class CircuitError(ValueError):
    """Base class for circuit construction and parsing failures."""


class QasmParseError(CircuitError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedGateError(QasmParseError):
    pass


class MeasurementNotSupportedError(QasmParseError):
    pass


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise CircuitError(
                f"{self.kind} expects {arity} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"{self.kind} qubits must be distinct: {self.qubits}")
        if any(q < 1 for q in self.qubits):
            raise CircuitError(f"qubit indices are 1-based: {self.qubits}")
        if (self.kind in ROTATION_KINDS) != (self.angle is not None):
            raise CircuitError(
                f"angle must be given for rotation gates only (got {self})"
            )
        if self.angle is not None and not math.isfinite(self.angle):
            raise CircuitError(f"angle must be finite: {self.angle}")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) > self.num_qubits:
                raise CircuitError(
                    f"gate {g} out of range for {self.num_qubits} qubit(s)"
                )

    def __len__(self) -> int:
        return len(self.gates)


def gate(kind: str, *qubits: int, angle: float | None = None) -> Gate:
    return Gate(kind, tuple(qubits), angle)


def concat(a: Circuit, b: Circuit) -> Circuit:
    if a.num_qubits != b.num_qubits:
        raise CircuitError("cannot concatenate circuits of different width")
    return Circuit(a.num_qubits, a.gates + b.gates)


def adjoint(circuit: Circuit) -> Circuit:
    """Reverse the gate list and invert each gate."""
    out = []
    for g in reversed(circuit.gates):
        if g.kind in _SELF_ADJOINT:
            out.append(g)
        elif g.kind in _ADJOINT_SWAP:
            out.append(Gate(_ADJOINT_SWAP[g.kind], g.qubits))
        elif g.kind in ROTATION_KINDS:
            out.append(Gate(g.kind, g.qubits, -g.angle))
        else:  # pragma: no cover - kinds are closed under the maps above
            raise CircuitError(f"no adjoint rule for {g.kind}")
    return Circuit(circuit.num_qubits, tuple(out))


# -- lowering to the native gate set ------------------------------------

# diag(1, e^{i k pi/4}) as an S/T ladder, indexed by k mod 8.  Each entry is
# exactly the stated power of T as a matrix (not merely up to phase).
_T_POWER = {
    0: (),
    1: ("t",),
    2: ("s",),
    3: ("s", "t"),
    4: ("s", "s"),
    5: ("s", "s", "t"),
    6: ("sdg",),
    7: ("tdg",),
}


def _pi4_multiple(theta: float) -> int | None:
    k = round(theta / (math.pi / 4.0))
    if abs(theta - k * (math.pi / 4.0)) <= PI4_SNAP_TOL:
        return k
    return None


def lower(circuit: Circuit) -> Circuit:
    """Rewrite into native gates, preserving the unitary up to global phase."""
    out: list[Gate] = []

    def phase_ladder(q: int, k: int) -> None:
        for kind in _T_POWER[k % 8]:
            out.append(Gate(kind, (q,)))

    for g in circuit.gates:
        q = g.qubits
        if g.kind in ("h", "s", "sdg", "t", "tdg", "cz", "ccx"):
            out.append(g)
        elif g.kind == "z":
            phase_ladder(q[0], 4)
        elif g.kind == "x":
            out.append(Gate("h", q))
            phase_ladder(q[0], 4)
            out.append(Gate("h", q))
        elif g.kind == "y":
            # Y = S X Sdg; gate lists apply left to right
            out.append(Gate("sdg", q))
            out.append(Gate("h", q))
            phase_ladder(q[0], 4)
            out.append(Gate("h", q))
            out.append(Gate("s", q))
        elif g.kind == "cx":
            control, target = q
            out.append(Gate("h", (target,)))
            out.append(Gate("cz", (control, target)))
            out.append(Gate("h", (target,)))
        elif g.kind in ("rz", "p"):
            k = _pi4_multiple(g.angle)
            if k is None:
                out.append(Gate("rz", q, g.angle))
            else:
                phase_ladder(q[0], k)
        elif g.kind == "rx":
            k = _pi4_multiple(g.angle)
            if k is None:
                out.append(Gate("rx", q, g.angle))
            elif k % 8 != 0:
                out.append(Gate("h", q))
                phase_ladder(q[0], k)
                out.append(Gate("h", q))
        else:  # pragma: no cover
            raise CircuitError(f"no lowering rule for {g.kind}")
    return Circuit(circuit.num_qubits, tuple(out))


# -- OpenQASM 2 subset ---------------------------------------------------

_QASM_ALIASES = {"u1": "p"}

_TOKEN_RE = re.compile(
    r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|pi|[()*/+-]"
)


def _eval_angle(expr: str, line: int) -> float:
    """Evaluate an angle expression: numbers, pi, + - * /, parentheses."""
    tokens = _TOKEN_RE.findall(expr)
    # findall silently drops characters it cannot tokenize; reject those
    stripped = re.sub(r"\s+", "", expr)
    if "".join(tokens) != stripped:
        raise QasmParseError(f"bad angle expression {expr!r}", line)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> float:
        tok = peek()
        if tok is None:
            raise QasmParseError(f"bad angle expression {expr!r}", line)
        if tok == "(":
            take()
            v = addsub()
            if peek() != ")":
                raise QasmParseError(f"unbalanced parens in {expr!r}", line)
            take()
            return v
        if tok == "pi":
            take()
            return math.pi
        if tok in "+-":
            take()
            return atom() if tok == "+" else -atom()
        take()
        try:
            return float(tok)
        except ValueError:
            raise QasmParseError(f"bad number {tok!r} in angle", line) from None

    def muldiv() -> float:
        v = atom()
        while peek() in ("*", "/"):
            op = take()
            rhs = atom()
            if op == "*":
                v *= rhs
            else:
                if rhs == 0:
                    raise QasmParseError(f"division by zero in {expr!r}", line)
                v /= rhs
        return v

    def addsub() -> float:
        v = muldiv()
        while peek() in ("+", "-"):
            op = take()
            v = v + muldiv() if op == "+" else v - muldiv()
        return v

    value = addsub()
    if pos != len(tokens):
        raise QasmParseError(f"trailing tokens in angle {expr!r}", line)
    return value


_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_APP_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\(([^()]*(?:\([^()]*\)[^()]*)*)\))?\s*(.*)$")
_QUBIT_RE = re.compile(r"^([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")

_REJECTED_STATEMENTS = {
    "creg": "classical registers are not supported",
    "if": "classical conditionals are not supported",
    "reset": "reset is not supported",
    "gate": "gate definitions are not supported",
    "opaque": "opaque declarations are not supported",
}


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset: one quantum register, unitary gates only.

    Raises :class:`MeasurementNotSupportedError` on measure statements and
    :class:`UnsupportedGateError` on gates outside the supported set; both
    carry the offending line number.
    """
    # strip comments but keep newlines for line numbering
    cleaned = []
    for raw in text.split("\n"):
        cut = raw.find("//")
        cleaned.append(raw if cut < 0 else raw[:cut])
    stream = "\n".join(cleaned)

    statements: list[tuple[int, str]] = []
    lineno = 1
    buf: list[str] = []
    buf_line = 1
    buf_started = False  # first non-space char seen since the last ';'
    for ch in stream:
        if ch == "\n":
            lineno += 1
        if ch == ";":
            statements.append((buf_line, "".join(buf).strip()))
            buf = []
            buf_started = False
        else:
            if not buf_started and not ch.isspace():
                buf_line = lineno
                buf_started = True
            buf.append(ch)
    if "".join(buf).strip():
        raise QasmParseError("missing ';' at end of input", buf_line)

    reg_name: str | None = None
    num_qubits = 0
    gates: list[Gate] = []
    saw_version = False

    for line, stmt in statements:
        if not stmt:
            continue
        if stmt.startswith("OPENQASM"):
            version = stmt.split(None, 1)[1] if len(stmt.split()) > 1 else ""
            if version.strip() != "2.0":
                raise QasmParseError(f"unsupported OPENQASM version {version!r}", line)
            saw_version = True
            continue
        if stmt.startswith("include"):
            continue
        if stmt.startswith("barrier"):
            continue
        if "measure" in stmt.split() or stmt.startswith("measure"):
            raise MeasurementNotSupportedError("measurement is not supported", line)
        head = stmt.split(None, 1)[0]
        head = head.split("(")[0]
        if head in _REJECTED_STATEMENTS:
            raise QasmParseError(_REJECTED_STATEMENTS[head], line)
        m = _QREG_RE.match(stmt)
        if m is not None:
            if reg_name is not None:
                raise QasmParseError("only a single qreg is supported", line)
            reg_name = m.group(1)
            num_qubits = int(m.group(2))
            if num_qubits < 1:
                raise QasmParseError("qreg must have at least one qubit", line)
            continue

        m = _APP_RE.match(stmt)
        if m is None:
            raise QasmParseError(f"cannot parse statement {stmt!r}", line)
        name, angle_expr, args = m.group(1), m.group(2), m.group(3)
        name = name.lower()
        name = _QASM_ALIASES.get(name, name)
        if name not in GATE_ARITY:
            raise UnsupportedGateError(f"unsupported gate {name!r}", line)
        if reg_name is None:
            raise QasmParseError("gate application before qreg declaration", line)

        angle = None
        if name in ROTATION_KINDS:
            if angle_expr is None:
                raise QasmParseError(f"{name} requires an angle argument", line)
            angle = _eval_angle(angle_expr, line)
        elif angle_expr is not None:
            raise QasmParseError(f"{name} takes no angle argument", line)

        qubits = []
        for piece in args.split(","):
            piece = piece.strip()
            qm = _QUBIT_RE.match(piece)
            if qm is None:
                raise QasmParseError(f"cannot parse qubit reference {piece!r}", line)
            if qm.group(1) != reg_name:
                raise QasmParseError(f"unknown register {qm.group(1)!r}", line)
            idx = int(qm.group(2))
            if idx >= num_qubits:
                raise QasmParseError(f"qubit index {idx} out of range", line)
            qubits.append(idx + 1)  # QASM is 0-based, the IR is 1-based
        try:
            gates.append(Gate(name, tuple(qubits), angle))
        except CircuitError as exc:
            raise QasmParseError(str(exc), line) from None

    if not saw_version:
        raise QasmParseError("missing OPENQASM 2.0 header", 1)
    if reg_name is None:
        raise QasmParseError("no qreg declared", 1)
    return Circuit(num_qubits, tuple(gates))


def to_qasm(circuit: Circuit) -> str:
    """Serialize; angles are printed with repr so parsing round-trips."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for g in circuit.gates:
        args = ",".join(f"q[{q - 1}]" for q in g.qubits)
        if g.angle is not None:
            lines.append(f"{g.kind}({g.angle!r}) {args};")
        else:
            lines.append(f"{g.kind} {args};")
    return "\n".join(lines) + "\n"
