"""Brute-force dense-matrix reference semantics.

Everything here is deliberately dumb: build the full 2^n x 2^n unitary,
conjugate Pauli matrices, compare up to global phase.  It exists so the CNF
pipeline has something independent to be tested against, and it is the
ground truth the benchmark harness scores verdicts with.  Capped at small n
on purpose.

Index convention: qubit 1 is the leftmost tensor factor, i.e. the most
significant bit of the basis-state index.  A circuit's unitary is the
product of its gate matrices applied right-to-left (first gate rightmost).

numpy is imported on first use, not with the module: the package imports
the oracle, and `paulimc check`, `encode` and `count` never call it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING

from .circuits import Circuit

if TYPE_CHECKING:
    import numpy as np

MAX_UNITARY_QUBITS = 10
MAX_DECOMPOSE_QUBITS = 6


class OracleError(ValueError):
    pass


class TooManyQubitsError(OracleError):
    pass


class NotHermitianError(OracleError):
    pass


class DimensionMismatchError(OracleError):
    pass


class ImaginaryResidueError(OracleError):
    """A quantity that must be real came out with an imaginary part."""


@functools.cache
def _paulis() -> dict[str, np.ndarray]:
    import numpy as np

    return {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }


@functools.cache
def _fixed_gates() -> dict[str, np.ndarray]:
    import numpy as np

    pauli = _paulis()
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    t = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
    return {
        "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
        "s": s,
        "sdg": s.conj().T,
        "t": t,
        "tdg": t.conj().T,
        "x": pauli["X"],
        "y": pauli["Y"],
        "z": pauli["Z"],
    }


def single_qubit_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    fixed = _fixed_gates().get(kind)
    if fixed is not None:
        return fixed
    import numpy as np

    if kind == "rx":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "rz":
        return np.array(
            [[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]], dtype=complex
        )
    if kind == "p":
        return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)
    raise OracleError(f"no matrix for gate kind {kind!r}")


def pauli_label_matrix(label: str) -> np.ndarray:
    try:
        mats = [_paulis()[ch] for ch in label]
    except KeyError as exc:
        raise OracleError(f"bad Pauli label {label!r}") from exc
    import numpy as np

    m = mats[0]
    for factor in mats[1:]:
        m = np.kron(m, factor)
    return m


def _apply_single(u: np.ndarray, g: np.ndarray, j: int, n: int) -> np.ndarray:
    import numpy as np

    pre, post = 1 << (j - 1), 1 << (n - j)
    cols = u.shape[1]
    shaped = u.reshape(pre, 2, post * cols)
    return np.einsum("ab,pbq->paq", g, shaped).reshape(u.shape)


def unitary_of(circuit: Circuit) -> np.ndarray:
    import numpy as np

    n = circuit.num_qubits
    if n > MAX_UNITARY_QUBITS:
        raise TooManyQubitsError(
            f"refusing to build a dense unitary on {n} qubits "
            f"(cap {MAX_UNITARY_QUBITS})"
        )
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    for g in circuit.gates:
        if g.kind == "cz":
            a, b = g.qubits
            mask = ((idx >> (n - a)) & 1).astype(bool) & ((idx >> (n - b)) & 1).astype(
                bool
            )
            u[mask, :] *= -1.0
        elif g.kind == "cx":
            c, t = g.qubits
            src = idx ^ (((idx >> (n - c)) & 1) << (n - t))
            u = u[src, :]
        elif g.kind == "ccx":
            c1, c2, t = g.qubits
            both = ((idx >> (n - c1)) & 1) & ((idx >> (n - c2)) & 1)
            u = u[idx ^ (both << (n - t)), :]
        else:
            u = _apply_single(u, single_qubit_matrix(g.kind, g.angle), g.qubits[0], n)
    return u


def pauli_coefficient(a: np.ndarray, p_label: str, p0_label: str) -> float:
    """Coefficient of P in the Pauli expansion of A P0 A-dagger.

    Computes Tr(P . A P0 A^dag) / 2^n, which must be real for Pauli P, P0
    and unitary A; a non-negligible imaginary residue raises.
    """
    import numpy as np

    n = len(p_label)
    if len(p0_label) != n or a.shape != (1 << n, 1 << n):
        raise DimensionMismatchError("label/operator dimensions disagree")
    conj = a @ pauli_label_matrix(p0_label) @ a.conj().T
    val = np.trace(pauli_label_matrix(p_label) @ conj) / (1 << n)
    if abs(val.imag) >= 1e-10:
        raise ImaginaryResidueError(f"coefficient has imaginary part {val.imag:g}")
    return float(val.real)


def decompose_in_pauli_basis(m: np.ndarray, cutoff: float = 1e-12) -> dict[str, float]:
    """Expand a Hermitian matrix over Pauli strings; drops |c| <= cutoff."""
    import numpy as np

    dim = m.shape[0]
    n = dim.bit_length() - 1
    if m.shape != (dim, dim) or (1 << n) != dim:
        raise DimensionMismatchError(f"not a 2^n square matrix: {m.shape}")
    if n > MAX_DECOMPOSE_QUBITS:
        raise TooManyQubitsError(
            f"decomposition capped at {MAX_DECOMPOSE_QUBITS} qubits"
        )
    if not np.allclose(m, m.conj().T, atol=1e-10):
        raise NotHermitianError("matrix is not Hermitian")
    out: dict[str, float] = {}
    for labels in itertools.product("IXYZ", repeat=n):
        label = "".join(labels)
        c = np.trace(pauli_label_matrix(label) @ m) / dim
        if abs(c.imag) >= 1e-10:
            raise ImaginaryResidueError(f"{label}: imaginary coefficient {c.imag:g}")
        if abs(c.real) > cutoff:
            out[label] = float(c.real)
    return out


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff u = c*v entrywise for some unimodular scalar c."""
    import numpy as np

    if u.shape != v.shape:
        raise DimensionMismatchError(f"shape mismatch {u.shape} vs {v.shape}")
    flat_v = v.ravel()
    pivot = int(np.argmax(np.abs(flat_v)))
    if abs(flat_v[pivot]) <= tol:
        return bool(np.allclose(u, 0, atol=tol))
    c = u.ravel()[pivot] / flat_v[pivot]
    if abs(abs(c) - 1.0) > tol:
        return False
    return bool(np.allclose(u, c * v, atol=tol, rtol=0))
