import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import full_gateset_circuits
from paulimc.circuits import Circuit, gate
from paulimc.oracle import (
    DimensionMismatchError,
    NotHermitianError,
    OracleError,
    TooManyQubitsError,
    decompose_in_pauli_basis,
    equal_up_to_phase,
    pauli_coefficient,
    pauli_label_matrix,
    single_qubit_matrix,
    unitary_of,
)

S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=complex)


# -- unitary construction ----------------------------------------------------


def test_hh_is_identity():
    u = unitary_of(Circuit(1, (gate("h", 1), gate("h", 1))))
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_tt_equals_s():
    u = unitary_of(Circuit(1, (gate("t", 1), gate("t", 1))))
    assert np.allclose(u, S_MATRIX, atol=1e-12)


def test_bell_state_preparation():
    # H on both qubits, CZ, then H on qubit 2 maps |00> to (|00>+|11>)/sqrt2
    c = Circuit(2, (gate("h", 1), gate("h", 2), gate("cz", 1, 2), gate("h", 2)))
    state = unitary_of(c)[:, 0]
    expected = np.array([1, 0, 0, 1]) / math.sqrt(2.0)
    assert np.allclose(state, expected, atol=1e-12)


def test_qubit_one_is_most_significant():
    # x on qubit 1 of two flips the high bit: |00> -> |10> (index 2)
    u = unitary_of(Circuit(2, (gate("x", 1),)))
    assert u[2, 0] == pytest.approx(1)
    u = unitary_of(Circuit(2, (gate("x", 2),)))
    assert u[1, 0] == pytest.approx(1)


def test_cx_direction():
    # cx(control=1, target=2): |10> -> |11>, |01> stays
    u = unitary_of(Circuit(2, (gate("cx", 1, 2),)))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 1
    expected[3, 2] = expected[2, 3] = 1
    assert np.allclose(u, expected)
    # and the flipped gate is the transpose wiring, not the same matrix
    v = unitary_of(Circuit(2, (gate("cx", 2, 1),)))
    assert not np.allclose(u, v)


def test_ccx_truth_table():
    u = unitary_of(Circuit(3, (gate("ccx", 1, 2, 3),)))
    # |110> = index 6 maps to |111> = index 7 and vice versa
    assert u[7, 6] == pytest.approx(1)
    assert u[6, 7] == pytest.approx(1)
    assert u[5, 5] == pytest.approx(1)


def test_gate_order_is_left_to_right():
    # (h, s) means apply h first: U = S . H
    u = unitary_of(Circuit(1, (gate("h", 1), gate("s", 1))))
    h, s = single_qubit_matrix("h"), single_qubit_matrix("s")
    assert np.allclose(u, s @ h, atol=1e-12)


@given(full_gateset_circuits(max_qubits=3, max_gates=8))
def test_unitary_is_unitary(c):
    u = unitary_of(c)
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)


def test_qubit_cap():
    with pytest.raises(TooManyQubitsError):
        unitary_of(Circuit(11))


def test_unknown_gate_matrix():
    with pytest.raises(OracleError):
        single_qubit_matrix("swap")
    with pytest.raises(OracleError):
        pauli_label_matrix("XQ")


# -- Pauli coefficients ------------------------------------------------------


def test_tt_conjugation_coefficients():
    # (TT) X (TT)^dag = S X S^dag = Y
    a = unitary_of(Circuit(1, (gate("t", 1), gate("t", 1))))
    assert pauli_coefficient(a, "Y", "X") == pytest.approx(1)
    assert pauli_coefficient(a, "X", "X") == pytest.approx(0, abs=1e-12)
    assert pauli_coefficient(a, "Z", "Z") == pytest.approx(1)


def test_identity_diagonal_coefficients():
    a = np.eye(4, dtype=complex)
    for label in ("XI", "IZ", "YY"):
        assert pauli_coefficient(a, label, label) == pytest.approx(1)


def test_single_t_splits_x():
    a = single_qubit_matrix("t")
    inv = 1 / math.sqrt(2.0)
    assert pauli_coefficient(a, "X", "X") == pytest.approx(inv)
    assert pauli_coefficient(a, "Y", "X") == pytest.approx(inv)
    assert pauli_coefficient(a, "Z", "X") == pytest.approx(0, abs=1e-12)


def test_coefficient_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pauli_coefficient(np.eye(2, dtype=complex), "XX", "XX")
    with pytest.raises(DimensionMismatchError):
        pauli_coefficient(np.eye(2, dtype=complex), "X", "XY")


# -- Pauli-basis decomposition -----------------------------------------------


def test_decompose_frozen_2x2():
    m = np.array([[1, 4 + 1j], [4 - 1j, -5]], dtype=complex)
    assert decompose_in_pauli_basis(m) == pytest.approx(
        {"I": -2.0, "X": 4.0, "Y": -1.0, "Z": 3.0}
    )


def test_decompose_toffoli_conjugated_z():
    tof = unitary_of(Circuit(3, (gate("ccx", 1, 2, 3),)))
    m = tof @ pauli_label_matrix("IIZ") @ tof.conj().T
    got = decompose_in_pauli_basis(m)
    assert got == pytest.approx(
        {"IIZ": 0.5, "IZZ": 0.5, "ZIZ": 0.5, "ZZZ": -0.5}
    )


def test_decompose_identity():
    got = decompose_in_pauli_basis(np.eye(4, dtype=complex))
    assert got == pytest.approx({"II": 1.0})


def test_decompose_reconstructs():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = raw + raw.conj().T
    coeffs = decompose_in_pauli_basis(m)
    rebuilt = sum(c * pauli_label_matrix(lbl) for lbl, c in coeffs.items())
    assert np.allclose(rebuilt, m, atol=1e-10)


def test_decompose_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        decompose_in_pauli_basis(np.array([[0, 1], [0, 0]], dtype=complex))


def test_decompose_caps():
    with pytest.raises(DimensionMismatchError):
        decompose_in_pauli_basis(np.eye(3, dtype=complex))
    with pytest.raises(TooManyQubitsError):
        decompose_in_pauli_basis(np.eye(128, dtype=complex))


# -- up-to-phase comparison --------------------------------------------------


def test_equal_up_to_phase_basic():
    z = pauli_label_matrix("Z")
    assert equal_up_to_phase(-1j * z, z)
    assert equal_up_to_phase(z, z)
    assert not equal_up_to_phase(S_MATRIX, single_qubit_matrix("t"))
    assert not equal_up_to_phase(2.0 * z, z)  # modulus matters


def test_equal_up_to_phase_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        equal_up_to_phase(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


# -- structural invariants ---------------------------------------------------


@given(full_gateset_circuits(max_qubits=3, max_gates=8), st.data())
@settings(max_examples=40)
def test_conjugation_is_hermitian(c, data):
    a = unitary_of(c)
    j = data.draw(st.integers(1, c.num_qubits))
    letter = data.draw(st.sampled_from("XZ"))
    label = "".join(letter if q == j else "I" for q in range(1, c.num_qubits + 1))
    m = a @ pauli_label_matrix(label) @ a.conj().T
    assert np.allclose(m, m.conj().T, atol=1e-10)


@given(full_gateset_circuits(max_qubits=3, max_gates=8), st.data())
@settings(max_examples=40)
def test_conjugation_is_multiplicative(c, data):
    a = unitary_of(c)
    n = c.num_qubits
    j = data.draw(st.integers(1, n))
    x = pauli_label_matrix("".join("X" if q == j else "I" for q in range(1, n + 1)))
    z = pauli_label_matrix("".join("Z" if q == j else "I" for q in range(1, n + 1)))
    lhs = (a @ x @ a.conj().T) @ (a @ z @ a.conj().T)
    rhs = a @ (x @ z) @ a.conj().T
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(full_gateset_circuits(max_qubits=3, max_gates=8), st.data())
@settings(max_examples=40)
def test_diagonal_coefficient_bounded_and_tight(c, data):
    # |coeff(P <- P)| <= 1 always; == 1 exactly when conjugation fixes P
    # up to sign, which is the discrimination the equivalence check rides on
    a = unitary_of(c)
    n = c.num_qubits
    j = data.draw(st.integers(1, n))
    letter = data.draw(st.sampled_from("XZ"))
    label = "".join(letter if q == j else "I" for q in range(1, n + 1))
    coeff = pauli_coefficient(a, label, label)
    assert abs(coeff) <= 1 + 1e-12
    p = pauli_label_matrix(label)
    fixes = equal_up_to_phase(a @ p @ a.conj().T, p, tol=1e-9)
    assert (abs(abs(coeff) - 1.0) < 1e-9) == fixes
