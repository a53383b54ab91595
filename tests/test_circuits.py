import math

import numpy as np
import pytest
from hypothesis import example, given

from conftest import full_gateset_circuits
from paulimc.circuits import (
    Circuit,
    CircuitError,
    Gate,
    MeasurementNotSupportedError,
    QasmParseError,
    UnsupportedGateError,
    adjoint,
    concat,
    gate,
    lower,
    parse_qasm,
    to_qasm,
)
from paulimc.oracle import equal_up_to_phase, unitary_of

TT_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
t q[0];
t q[0];
"""


# -- IR validation -----------------------------------------------------------


def test_gate_arity_enforced():
    with pytest.raises(CircuitError):
        Gate("cz", (1,))
    with pytest.raises(CircuitError):
        Gate("h", (1, 2))


def test_gate_rejects_repeated_and_bad_qubits():
    with pytest.raises(CircuitError):
        Gate("cx", (2, 2))
    with pytest.raises(CircuitError):
        Gate("h", (0,))
    with pytest.raises(CircuitError):
        Gate("nonsense", (1,))


def test_angle_only_on_rotations():
    with pytest.raises(CircuitError):
        Gate("h", (1,), 0.5)
    with pytest.raises(CircuitError):
        Gate("rx", (1,))
    with pytest.raises(CircuitError):
        Gate("rz", (1,), math.inf)


def test_circuit_validation():
    with pytest.raises(CircuitError):
        Circuit(0)
    with pytest.raises(CircuitError):
        Circuit(1, (Gate("h", (2,)),))
    assert len(Circuit(2, (gate("h", 1), gate("cz", 1, 2)))) == 2


def test_concat_width_mismatch():
    with pytest.raises(CircuitError):
        concat(Circuit(1), Circuit(2))


# -- adjoint -----------------------------------------------------------------


def test_adjoint_reverses_and_swaps():
    c = Circuit(2, (gate("t", 1), gate("cz", 1, 2), gate("s", 2)))
    adj = adjoint(c)
    assert [g.kind for g in adj.gates] == ["sdg", "cz", "tdg"]


@given(full_gateset_circuits(max_qubits=3, max_gates=8))
def test_adjoint_involution(c):
    assert adjoint(adjoint(c)) == c


@given(full_gateset_circuits(max_qubits=3, max_gates=6))
def test_adjoint_matches_matrix_dagger(c):
    u = unitary_of(c)
    assert np.allclose(unitary_of(adjoint(c)), u.conj().T, atol=1e-10)


# -- lowering ----------------------------------------------------------------


@given(full_gateset_circuits(max_qubits=3, max_gates=8))
def test_lowering_preserves_unitary_up_to_phase(c):
    low = lower(c)
    native = {"h", "s", "sdg", "t", "tdg", "cz", "ccx", "rx", "rz"}
    assert {g.kind for g in low.gates} <= native
    assert equal_up_to_phase(unitary_of(low), unitary_of(c), tol=1e-10)


@given(full_gateset_circuits(max_qubits=3, max_gates=8))
def test_lowering_idempotent(c):
    low = lower(c)
    assert lower(low) == low


def test_pauli_gate_expansions_are_exact_matrices():
    # the S/T ladders reproduce X, Y, Z up to global phase only
    for kind in ("x", "y", "z"):
        c = Circuit(1, (gate(kind, 1),))
        assert equal_up_to_phase(unitary_of(lower(c)), unitary_of(c), tol=1e-12)


def test_cx_lowering_shape():
    low = lower(Circuit(2, (gate("cx", 1, 2),)))
    assert [g.kind for g in low.gates] == ["h", "cz", "h"]
    assert low.gates[0].qubits == (2,)  # hadamards on the target
    assert low.gates[1].qubits == (1, 2)


def test_pi4_multiples_become_ladders():
    low = lower(Circuit(1, (gate("rz", 1, angle=math.pi / 4),)))
    assert [g.kind for g in low.gates] == ["t"]
    low = lower(Circuit(1, (gate("p", 1, angle=-math.pi / 4),)))
    assert [g.kind for g in low.gates] == ["tdg"]
    low = lower(Circuit(1, (gate("rz", 1, angle=math.pi),)))
    assert [g.kind for g in low.gates] == ["s", "s"]
    # snapping tolerates representation noise near the multiple
    low = lower(Circuit(1, (gate("rz", 1, angle=math.pi / 4 + 1e-12),)))
    assert [g.kind for g in low.gates] == ["t"]


def test_rx_full_turn_drops_out():
    assert lower(Circuit(1, (gate("rx", 1, angle=2 * math.pi),))).gates == ()


def test_generic_angles_survive_lowering():
    low = lower(Circuit(1, (gate("rz", 1, angle=0.3),)))
    assert [g.kind for g in low.gates] == ["rz"]
    assert low.gates[0].angle == 0.3
    low = lower(Circuit(1, (gate("p", 1, angle=0.3),)))
    # p and rz differ by global phase only, so p maps onto native rz
    assert [g.kind for g in low.gates] == ["rz"]


# -- QASM parsing ------------------------------------------------------------


def test_parse_basic():
    c = parse_qasm(TT_QASM)
    assert c.num_qubits == 1
    assert [g.kind for g in c.gates] == ["t", "t"]


def test_parse_angles_and_aliases():
    c = parse_qasm(
        "OPENQASM 2.0;\nqreg q[2];\n"
        "rz(pi/4) q[0];\nrx(2*pi) q[1];\nu1(-pi/2) q[0];\np(1.5e-1) q[1];\n"
        "rz((pi+1)/2) q[0];\n"
    )
    kinds = [g.kind for g in c.gates]
    assert kinds == ["rz", "rx", "p", "p", "rz"]
    assert c.gates[0].angle == pytest.approx(math.pi / 4)
    assert c.gates[1].angle == pytest.approx(2 * math.pi)
    assert c.gates[2].angle == pytest.approx(-math.pi / 2)
    assert c.gates[3].angle == pytest.approx(0.15)
    assert c.gates[4].angle == pytest.approx((math.pi + 1) / 2)


def test_parse_multiqubit_and_zero_based_indexing():
    c = parse_qasm("OPENQASM 2.0;\nqreg r[3];\ncx r[0],r[2];\nccx r[2],r[1],r[0];\n")
    assert c.gates[0] == Gate("cx", (1, 3))
    assert c.gates[1] == Gate("ccx", (3, 2, 1))


def test_parse_ignores_comments_includes_barriers():
    c = parse_qasm(
        "// leading comment\nOPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
        "qreg q[1];\nbarrier q;\nh q[0]; // trailing\n"
    )
    assert [g.kind for g in c.gates] == ["h"]


def test_parse_statements_may_share_a_line():
    c = parse_qasm("OPENQASM 2.0; qreg q[1]; h q[0]; s q[0];")
    assert [g.kind for g in c.gates] == ["h", "s"]


@pytest.mark.parametrize(
    "body, exc, fragment",
    [
        ("qreg q[1];\nh q[0];", QasmParseError, "OPENQASM"),  # missing version
        ("OPENQASM 3.0;\nqreg q[1];", QasmParseError, "version"),
        ("OPENQASM 2.0;\nh q[0];", QasmParseError, "before qreg"),
        ("OPENQASM 2.0;\nqreg q[1];\nqreg p[1];", QasmParseError, "single qreg"),
        ("OPENQASM 2.0;\nqreg q[0];", QasmParseError, "at least one"),
        ("OPENQASM 2.0;\nqreg q[1];\nh q[1];", QasmParseError, "out of range"),
        ("OPENQASM 2.0;\nqreg q[1];\nh p[0];", QasmParseError, "unknown register"),
        ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];", QasmParseError, "distinct"),
        ("OPENQASM 2.0;\nqreg q[1];\nh(0.3) q[0];", QasmParseError, "no angle"),
        ("OPENQASM 2.0;\nqreg q[1];\nrz q[0];", QasmParseError, "angle"),
        ("OPENQASM 2.0;\nqreg q[1];\nh q[0]", QasmParseError, "missing ';'"),
        ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];", QasmParseError, "classical"),
        ("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];", UnsupportedGateError, "foo"),
        (
            "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];",
            MeasurementNotSupportedError,
            "measurement",
        ),
    ],
)
def test_parse_errors(body, exc, fragment):
    with pytest.raises(exc) as err:
        parse_qasm(body)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(QasmParseError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nfoo q[0];\n")
    assert err.value.line == 4
    assert str(err.value).startswith("line 4:")


def test_bad_angle_expressions():
    for expr in ("pi/", "(pi", "pi pi", "1..2", "", "1e"):
        with pytest.raises(QasmParseError):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")


@pytest.mark.parametrize("expr,value", [
    ("1e-05", 1e-05), ("-1e-07", -1e-07), (".5e1", 5.0), ("2E+1*pi", 20 * math.pi),
])
def test_exponent_angles_parse(expr, value):
    c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")
    assert c.gates[0].angle == value


@given(full_gateset_circuits(max_qubits=4, max_gates=10))
@example(Circuit(1, (gate("rz", 1, angle=1e-05),)))
@example(Circuit(1, (gate("rx", 1, angle=-1e-07),)))
@example(Circuit(1, (gate("p", 1, angle=.5e1),)))
def test_qasm_round_trip(c):
    assert parse_qasm(to_qasm(c)) == c
