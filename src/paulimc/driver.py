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
from .counting import PreparedCnf, ResourceLimitError
from .encoder import EncodedCircuit, PauliTerm, check_units, encode_circuit
from .weights import ExactWeight, as_float, serialize_exact, value_is_one

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
        # written so that nan fails both: an epsilon of 1 or more passes a
        # count of 0, and a nan budget never expires
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not self.count_timeout > 0:
            raise ValueError(
                f"count_timeout must be positive, got {self.count_timeout}")


def render_value(v):
    """A count as reported: a float as is, except that a zero prints as
    0.0 whatever its sign; an exact weight serialized; None stays None."""
    if isinstance(v, float):
        return 0.0 if v == 0 else v
    return None if v is None else serialize_exact(v)


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
    propagations: int = 0
    cache_hits: int = 0
    cache_stores: int = 0

    def to_dict(self) -> dict:
        out = {
            "pauli": self.pauli,
            "qubit": self.qubit,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "decisions": self.decisions,
            "propagations": self.propagations,
            "cache_hits": self.cache_hits,
            "cache_stores": self.cache_stores,
            "value": render_value(self.value),
        }
        if isinstance(self.value, ExactWeight):
            out["value_float"] = as_float(self.value)
        return out


@dataclass
class Verdict:
    """The answer for one encoded circuit.  `elapsed` covers one preparation
    of the shared check formula plus the 2n counts on it; parsing, lowering
    and encoding are not in it."""

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
            out["witness"] = {
                "pauli": self.witness.pauli,
                "qubit": self.witness.qubit,
                "value": render_value(self.witness.value),
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


def _run_one(prepared: PreparedCnf, units: list[int], pauli: str,
             qubit: int, cfg) -> CheckRecord:
    t0 = time.perf_counter()
    try:
        res = prepared.count(units, timeout=cfg.count_timeout)
    except ResourceLimitError:
        return CheckRecord(pauli, qubit, "timeout", None,
                           time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    ok = value_is_one(res.value, cfg.epsilon)
    s = res.stats
    return CheckRecord(pauli, qubit, "one" if ok else "mismatch",
                       res.value, elapsed, s.decisions, s.propagations,
                       s.cache_hits, s.cache_stores)


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
    n = enc.num_qubits
    t0 = time.perf_counter()
    prepared = PreparedCnf(enc.cnf)
    checks: list[CheckRecord] = []
    for pauli, qubit in check_order(n):
        units = check_units(enc, PauliTerm.single(n, qubit, pauli))
        rec = _run_one(prepared, units, pauli, qubit, cfg)
        checks.append(rec)
        if rec.status == "mismatch":
            witness = Witness(rec.pauli, rec.qubit, rec.value)
            return Verdict(NOT_EQUIVALENT, witness, checks, enc.mode,
                           time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    if any(rec.status == "timeout" for rec in checks):
        return Verdict(UNKNOWN, None, checks, enc.mode, elapsed)
    return Verdict(EQUIVALENT, None, checks, enc.mode, elapsed)


def check_equivalence(
    u: Circuit, v: Circuit, config: CheckConfig | None = None
) -> Verdict:
    """Decide u == v up to global phase via the identity reduction."""
    return check_encoding(identity_encoding(u, v), config)
