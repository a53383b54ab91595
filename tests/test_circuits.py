import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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


@pytest.mark.parametrize("expr,value", [
    ("((pi))/2", math.pi / 2),
    ("pi*((1+1)*(2))", 4 * math.pi),
    ("-(((-(pi))))", math.pi),
    pytest.param("(" * 199 + "pi" + ")" * 199, math.pi, id="199-parens"),
])
def test_parse_angles_nested_at_any_depth(expr, value):
    c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")
    assert c.gates[0].angle == value


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
        # keywords match whole words: these are not skipped or measured
        ("OPENQASM 2.0;\nqreg q[1];\nbarrierx q[0];", UnsupportedGateError,
         "'barrierx'"),
        ("OPENQASM 2.0;\nqreg q[1];\nincludeh q[0];", UnsupportedGateError,
         "'includeh'"),
        ("OPENQASM 2.0;\nqreg q[1];\nmeasurex q[0];", UnsupportedGateError,
         "'measurex'"),
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
    for expr in ("pi/", "(pi", "pi pi", "1..2", "", "1e", "2**3", "2//3", "pi(1)"):
        with pytest.raises(QasmParseError):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")
    with pytest.raises(QasmParseError, match="nested too deeply"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(" + "-" * 5000 + "pi) q[0];\n")


_BINARY = {"+": (1, operator.add), "-": (1, operator.sub),
           "*": (2, operator.mul), "/": (2, operator.truediv)}


def _angle_leaf():
    number = st.from_regex(
        r"0{0,2}([0-9]{1,3}(\.[0-9]{0,2})?|\.[0-9]{1,3})([eE][+-]?0?[0-9]{1,2})?",
        fullmatch=True)
    pi = st.just((["pi"], 3, math.pi))
    return number.map(lambda tok: ([tok], 3, float(tok))) | pi


def _angle_node(children):
    """(tokens, precedence, value) with only the parentheses the grammar
    needs, plus random ones; the value comes from the same left-to-right
    float operations, and is None after a division by zero."""
    def unary(sign, child):
        tokens, prec, value = child
        if prec < 3:
            tokens = ["(", *tokens, ")"]
        return [sign, *tokens], 3, value if value is None or sign == "+" else -value

    def binary(op, left, right):
        prec, fn = _BINARY[op]
        (lt, lp, lv), (rt, rp, rv) = left, right
        if lp < prec:
            lt = ["(", *lt, ")"]
        if rp <= prec:  # left-associative
            rt = ["(", *rt, ")"]
        ok = lv is not None and rv is not None and not (op == "/" and rv == 0)
        return [*lt, op, *rt], prec, fn(lv, rv) if ok else None

    return (
        st.builds(lambda c: (["(", *c[0], ")"], 3, c[2]), children)
        | st.builds(unary, st.sampled_from("+-"), children)
        | st.builds(binary, st.sampled_from(sorted(_BINARY)), children, children)
    )


@st.composite
def _angle_expressions(draw):
    tokens, _, value = draw(st.recursive(_angle_leaf(), _angle_node, max_leaves=12))
    seps = draw(st.lists(st.sampled_from(["", " ", "\n"]),
                         min_size=len(tokens), max_size=len(tokens)))
    return "".join(t + sep for t, sep in zip(tokens, seps)), value


@given(_angle_expressions())
@example(("pi / (1 - 1)", None))
@example(("0 * -1", -0.0))
@example(("01 +\npi/04", 1 + math.pi / 4))
def test_angle_grammar_matches_left_associative_float_arithmetic(case):
    expr, value = case
    text = f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n"
    if value is None:
        with pytest.raises(QasmParseError, match="division by zero"):
            parse_qasm(text)
    elif not math.isfinite(value):
        with pytest.raises(QasmParseError, match="finite"):
            parse_qasm(text)
    else:
        assert parse_qasm(text).gates[0].angle.hex() == value.hex()


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
