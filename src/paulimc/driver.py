"""Equivalence decision: 2n weighted counts over A = V-dagger U.

Two circuits agree up to global phase exactly when conjugation by
A = V^dag U fixes every X_j and Z_j, and each of those 2n conditions is one
weighted model count that must equal 1.  The checks run one after another
in check_order; the first count != 1 settles the verdict and ends the loop,
so the witness is the lowest failing check by construction.

A timeout never converts into a verdict: a check that hits its time budget
does not stop the loop, because a later check may still disprove
equivalence.  If none does, any timeout makes the result Unknown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuits import Circuit, adjoint, concat, lower
from .counting import ResourceLimitError, count
from .encoder import EncodedCircuit, PauliTerm, assemble_check, encode_circuit
from .weights import as_float, serialize_exact, value_is_one

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNKNOWN = "unknown"

DEFAULT_EPSILON = 1e-9


class QubitCountMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CheckConfig:
    """Settings for one equivalence run.

    epsilon is the float-mode tolerance for "count equals 1"; exact mode
    compares ring elements structurally and ignores it.  The default is
    set well above the engine's double-rounding noise (~1e-13 on desk-size
    circuits) and well below the ~5e-9 coefficient dent that a 1e-4 phase
    error leaves on a diagonal check — see the README for the arithmetic.
    """

    epsilon: float = DEFAULT_EPSILON
    count_timeout: float = 300.0

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.count_timeout <= 0:
            raise ValueError("count_timeout must be positive")


@dataclass(frozen=True)
class Witness:
    pauli: str  # "X" or "Z"
    qubit: int
    value: object  # the offending count (float or ExactWeight)


@dataclass
class CheckRecord:
    pauli: str
    qubit: int
    status: str  # "one" | "mismatch" | "timeout"
    value: object | None
    seconds: float
    decisions: int = 0

    def to_dict(self) -> dict:
        val = self.value
        out = {
            "pauli": self.pauli,
            "qubit": self.qubit,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "decisions": self.decisions,
        }
        if val is None:
            out["value"] = None
        elif isinstance(val, float):
            out["value"] = val
        else:
            out["value"] = serialize_exact(val)
            out["value_float"] = as_float(val)
        return out


@dataclass
class Verdict:
    """The answer for one encoded circuit.  `elapsed` covers the 2n checks
    (assembling and counting each formula); parsing, lowering and encoding
    are not in it."""

    status: str
    witness: Witness | None
    checks: list[CheckRecord]
    mode: str
    elapsed: float

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "mode": self.mode,
            "elapsed": round(self.elapsed, 6),
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.witness is None:
            out["witness"] = None
        else:
            val = self.witness.value
            out["witness"] = {
                "pauli": self.witness.pauli,
                "qubit": self.witness.qubit,
                "value": val if isinstance(val, float) else serialize_exact(val),
            }
        return out


def check_order(n: int) -> list[tuple[str, int]]:
    """X1, Z1, X2, Z2, ...: an error localized on any one qubit is met
    after at most two checks on that qubit."""
    order = []
    for j in range(1, n + 1):
        order.append(("X", j))
        order.append(("Z", j))
    return order


def _run_one(enc: EncodedCircuit, pauli: str, qubit: int, cfg) -> CheckRecord:
    p = PauliTerm.single(enc.num_qubits, qubit, pauli)
    formula = assemble_check(enc, p)
    t0 = time.perf_counter()
    try:
        res = count(formula, timeout=cfg.count_timeout)
    except ResourceLimitError:
        return CheckRecord(pauli, qubit, "timeout", None,
                           time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    ok = value_is_one(res.value, cfg.epsilon)
    return CheckRecord(pauli, qubit, "one" if ok else "mismatch",
                       res.value, elapsed, res.stats.decisions)


def identity_encoding(u: Circuit, v: Circuit) -> EncodedCircuit:
    """The encoding of A = V^dag U: each side lowered, then V's adjoint
    taken, so the gates are native without a second lowering pass."""
    if u.num_qubits != v.num_qubits:
        raise QubitCountMismatchError(
            f"{u.num_qubits}-qubit circuit vs {v.num_qubits}-qubit circuit"
        )
    return encode_circuit(concat(lower(u), adjoint(lower(v))))


def check_encoding(
    enc: EncodedCircuit, config: CheckConfig | None = None
) -> Verdict:
    """Decide whether an encoded circuit is the identity up to phase."""
    cfg = config or CheckConfig()
    t0 = time.perf_counter()
    checks: list[CheckRecord] = []
    for pauli, qubit in check_order(enc.num_qubits):
        rec = _run_one(enc, pauli, qubit, cfg)
        checks.append(rec)
        if rec.status == "mismatch":
            witness = Witness(rec.pauli, rec.qubit, rec.value)
            return Verdict(NOT_EQUIVALENT, witness, checks, enc.mode,
                           time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    if any(rec.status == "timeout" for rec in checks):
        return Verdict(UNKNOWN, None, checks, enc.mode, elapsed)
    return Verdict(EQUIVALENT, None, checks, enc.mode, elapsed)


def check_identity(a: Circuit, config: CheckConfig | None = None) -> Verdict:
    """Decide whether a circuit's unitary is the identity up to phase."""
    return check_encoding(encode_circuit(lower(a)), config)


def check_equivalence(
    u: Circuit, v: Circuit, config: CheckConfig | None = None
) -> Verdict:
    """Decide u == v up to global phase via the identity reduction."""
    return check_encoding(identity_encoding(u, v), config)
