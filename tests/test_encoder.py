import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import native_circuits
from paulimc.circuits import Circuit, gate
from paulimc.cnf import WeightedCnf
from paulimc.counting import count
from paulimc.encoder import (
    EncodedCircuit,
    NonNativeGateError,
    PauliTerm,
    PauliTermError,
    TOFFOLI_TABLE,
    assemble_check,
    encode_circuit,
    infer_mode,
    initial_units,
    pauli_x,
    pauli_z,
    projection_units,
)
from paulimc.oracle import pauli_coefficient, unitary_of
from paulimc.weights import EXACT, FLOAT, HALF, INV_SQRT2, MINUS_ONE, as_float

TTSDG = Circuit(1, (gate("t", 1), gate("t", 1), gate("sdg", 1)))


# -- PauliTerm ---------------------------------------------------------------


def test_pauli_term_labels():
    p = PauliTerm.from_label("XIZ")
    assert p.bits == ((1, 0), (0, 0), (0, 1))
    assert p.sign == 0
    assert p.label == "XIZ"
    assert PauliTerm.from_label("-YX").label == "-YX"
    assert PauliTerm.from_label("+Z").label == "Z"
    assert PauliTerm.from_label("-Y").unsigned().label == "Y"


def test_pauli_term_constructors():
    assert PauliTerm.identity(2).label == "II"
    assert pauli_x(3, 2).label == "IXI"
    assert pauli_z(2, 1).label == "ZI"
    assert PauliTerm.single(2, 2, "Y").label == "IY"


def test_pauli_term_validation():
    with pytest.raises(PauliTermError):
        PauliTerm.from_label("XQ")
    with pytest.raises(PauliTermError):
        PauliTerm(2, ((0, 0),))
    with pytest.raises(PauliTermError):
        PauliTerm(0, ((2, 0),))
    with pytest.raises(PauliTermError):
        PauliTerm.single(2, 3, "X")


# -- unit clauses ------------------------------------------------------------


def test_initial_units_x1_single_qubit():
    enc = encode_circuit(Circuit(1))
    assert initial_units(enc, pauli_x(1, 1)) == [(1,), (-2,), (-3,)]


def test_initial_units_z2_two_qubits():
    enc = encode_circuit(Circuit(2))
    assert initial_units(enc, pauli_z(2, 2)) == [
        (-1,), (-2,), (-3,), (4,), (-5,)
    ]


def test_initial_units_zx_pattern():
    enc = encode_circuit(Circuit(2))
    got = initial_units(enc, PauliTerm.from_label("ZX"))
    assert got == [(-1,), (2,), (3,), (-4,), (-5,)]


def test_initial_units_signed():
    enc = encode_circuit(Circuit(1))
    assert initial_units(enc, PauliTerm.from_label("-X")) == [(1,), (-2,), (3,)]


def test_projection_units_pin_letters_never_sign():
    enc = encode_circuit(TTSDG)
    units = projection_units(enc, pauli_x(1, 1))
    final = enc.frames[-1]
    assert units == [(final.xs[0],), (-final.zs[0],)]
    assert all(abs(lit[0]) != final.r for lit in units)


def test_projection_rejects_signed_terms():
    enc = encode_circuit(Circuit(1))
    with pytest.raises(PauliTermError):
        projection_units(enc, PauliTerm.from_label("-X"))


def test_unit_helpers_check_qubit_count():
    enc = encode_circuit(Circuit(2))
    with pytest.raises(PauliTermError):
        initial_units(enc, pauli_x(3, 1))
    with pytest.raises(PauliTermError):
        projection_units(enc, PauliTerm.identity(1))


# -- variable timeline -------------------------------------------------------


def test_frozen_variable_layout_ttsdg():
    # the id assignment is part of the external contract: emitted DIMACS
    # must be byte-stable, so pin it down completely for one circuit
    enc = encode_circuit(TTSDG)
    assert enc.mode == EXACT
    frames = enc.frames
    assert frames[0].xs == (1,) and frames[0].zs == (2,) and frames[0].r == 3
    assert frames[1].zs == (4,) and frames[1].r == 5
    assert frames[2].zs == (7,) and frames[2].r == 8
    assert frames[3].zs == (10,) and frames[3].r == 11
    assert all(f.xs == (1,) for f in frames)  # t/sdg never touch the x bit
    assert enc.cnf.num_vars == 11
    assert enc.cnf.weights == {6: INV_SQRT2, 9: INV_SQRT2}


@given(native_circuits(max_qubits=3, max_gates=10))
@settings(max_examples=60)
def test_ids_fresh_and_monotone(c):
    enc = encode_circuit(c)
    seen_max = 0
    prev_ids: set[int] = set()
    for frame in enc.frames:
        ids = set(frame.xs) | set(frame.zs) | {frame.r}
        assert len(ids) == 2 * c.num_qubits + 1
        for v in ids:
            # every id either survives from the previous step or is fresh,
            # i.e. larger than everything allocated so far
            assert v in prev_ids or v > seen_max
        seen_max = max(seen_max, *ids)
        prev_ids = ids
    # branch variables (the weighted u/c/h ids) live between frames, so the
    # frame maximum is a lower bound on the allocation counter
    assert enc.cnf.num_vars >= seen_max
    enc.cnf.validate()


@given(native_circuits(max_qubits=3, max_gates=8))
@settings(max_examples=30)
def test_encoding_deterministic(c):
    a, b = encode_circuit(c), encode_circuit(c)
    assert a.cnf.clauses == b.cnf.clauses
    assert a.cnf.weights == b.cnf.weights
    assert a.frames == b.frames


# -- modes -------------------------------------------------------------------


def test_infer_mode():
    assert infer_mode(TTSDG) == EXACT
    assert infer_mode(Circuit(3, (gate("ccx", 1, 2, 3),))) == EXACT
    assert infer_mode(Circuit(1, (gate("rz", 1, angle=0.3),))) == FLOAT


def test_exact_mode_refuses_rotations():
    c = Circuit(1, (gate("rx", 1, angle=0.3),))
    with pytest.raises(NonNativeGateError):
        encode_circuit(c, mode=EXACT)
    enc = encode_circuit(c)  # auto
    assert enc.mode == FLOAT
    assert all(isinstance(w, float) for w in enc.cnf.weights.values())


def test_non_native_kind_rejected():
    with pytest.raises(NonNativeGateError):
        encode_circuit(Circuit(2, (gate("cx", 1, 2),)))


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        encode_circuit(Circuit(1), mode="rational")


# -- pinned check formulas ---------------------------------------------------


def test_empty_circuit_counts_one():
    for p0 in (pauli_x(1, 1), pauli_z(1, 1)):
        f = assemble_check(encode_circuit(Circuit(1)), p0)
        assert count(f).value.is_one()


def test_ttsdg_both_checks_count_one():
    for p0 in (pauli_x(1, 1), pauli_z(1, 1)):
        f = assemble_check(encode_circuit(TTSDG), p0)
        value = count(f).value
        assert value.is_one()


def test_single_t_x_check_is_inv_sqrt2():
    enc = encode_circuit(Circuit(1, (gate("t", 1),)))
    f = assemble_check(enc, pauli_x(1, 1))
    assert count(f).value == INV_SQRT2


def test_signed_input_flips_the_count():
    enc = encode_circuit(Circuit(1, (gate("t", 1),)))
    f = assemble_check(enc, PauliTerm.from_label("-X"), pauli_x(1, 1))
    assert count(f).value == -INV_SQRT2


def test_assemble_weights_only_touch_final_sign():
    enc = encode_circuit(TTSDG)
    f = assemble_check(enc, pauli_x(1, 1))
    assert f.weights[enc.frames[-1].r] == MINUS_ONE
    assert set(f.weights) == {6, 9, 11}
    # the base encoding is not mutated by assembling checks from it
    assert enc.frames[-1].r not in enc.cnf.weights


def test_cz_maps_ix_to_zx():
    # the correct two-sided update: X on one side picks up Z on the other
    enc = encode_circuit(Circuit(2, (gate("cz", 1, 2),)))
    p0 = PauliTerm.from_label("IX")
    assert count(assemble_check(enc, p0, PauliTerm.from_label("ZX"))).value.is_one()
    assert count(assemble_check(enc, p0, PauliTerm.from_label("IX"))).value.is_zero()


def test_toffoli_stabilizer_row():
    enc = encode_circuit(Circuit(3, (gate("ccx", 1, 2, 3),)))
    p0 = PauliTerm.from_label("ZII")
    assert count(assemble_check(enc, p0, p0)).value.is_one()


def test_toffoli_branching_row_signs():
    enc = encode_circuit(Circuit(3, (gate("ccx", 1, 2, 3),)))
    p0 = PauliTerm.from_label("XXZ")
    expect = {"XXZ": HALF, "YYZ": HALF, "XYY": -HALF, "YXY": -HALF}
    for label, w in expect.items():
        got = count(assemble_check(enc, p0, PauliTerm.from_label(label))).value
        assert got == w
    # everything outside the four branches is zero
    assert count(assemble_check(enc, p0, PauliTerm.from_label("III"))).value.is_zero()


# -- the conjugation table itself --------------------------------------------


def test_toffoli_table_shape():
    assert len(TOFFOLI_TABLE) == 64
    singletons = [row for row, terms in TOFFOLI_TABLE if len(terms) == 1]
    assert len(singletons) == 8
    table = dict(TOFFOLI_TABLE)
    assert table["IIZ"] == ((1, "IIZ"), (1, "IZZ"), (1, "ZIZ"), (-1, "ZZZ"))


# -- exhaustive single-gate soundness ----------------------------------------

_GATE_CASES = [
    ("h", 1, None),
    ("s", 1, None),
    ("sdg", 1, None),
    ("t", 1, None),
    ("tdg", 1, None),
    ("cz", 2, None),
    ("rx", 1, 0.3),
    ("rx", 1, math.pi / 4),
    ("rx", 1, 1.7),
    ("rz", 1, 0.3),
    ("rz", 1, math.pi / 4),
    ("rz", 1, 1.7),
    ("ccx", 3, None),
]


@pytest.mark.parametrize(
    "kind,n,angle", _GATE_CASES, ids=lambda v: str(v).replace(" ", "")
)
def test_single_gate_conjugation_exhaustive(kind, n, angle):
    """Every input string against every output string, checked against the
    dense-matrix route.  This is the test that arbitrates the gate tables."""
    c = Circuit(n, (gate(kind, *range(1, n + 1), angle=angle),))
    enc = encode_circuit(c)
    a = unitary_of(c)
    tol = 1e-12
    for in_labels in itertools.product("IXYZ", repeat=n):
        p0 = PauliTerm.from_label("".join(in_labels))
        for out_labels in itertools.product("IXYZ", repeat=n):
            q = PauliTerm.from_label("".join(out_labels))
            got = as_float(count(assemble_check(enc, p0, q)).value)
            want = pauli_coefficient(a, q.label, p0.label)
            assert got == pytest.approx(want, abs=tol), (
                f"{kind}: {p0.label} -> {q.label}"
            )


def test_single_gate_placement_off_the_first_qubit():
    # same check with the gate away from qubit 1, catching index arithmetic
    c = Circuit(3, (gate("cz", 3, 1),))
    enc = encode_circuit(c)
    a = unitary_of(c)
    for in_labels in itertools.product("IXYZ", repeat=3):
        p0 = PauliTerm.from_label("".join(in_labels))
        for out_labels in itertools.product("IXYZ", repeat=3):
            q = PauliTerm.from_label("".join(out_labels))
            got = as_float(count(assemble_check(enc, p0, q)).value)
            want = pauli_coefficient(a, q.label, p0.label)
            assert got == pytest.approx(want, abs=1e-12)


# -- whole-circuit identities ------------------------------------------------


@given(native_circuits(max_qubits=2, max_gates=8), st.data())
@settings(max_examples=25)
def test_counts_match_trace_coefficients(c, data):
    enc = encode_circuit(c)
    a = unitary_of(c)
    j = data.draw(st.integers(1, c.num_qubits))
    p0 = data.draw(st.sampled_from([pauli_x, pauli_z]))(c.num_qubits, j)
    q_label = "".join(
        data.draw(st.sampled_from("IXYZ")) for _ in range(c.num_qubits)
    )
    q = PauliTerm.from_label(q_label)
    got = as_float(count(assemble_check(enc, p0, q)).value)
    want = pauli_coefficient(a, q.label, p0.label)
    assert got == pytest.approx(want, abs=1e-9)


@given(native_circuits(max_qubits=2, max_gates=6), st.data())
@settings(max_examples=15)
def test_conjugation_preserves_norm(c, data):
    # A P0 A^dag is a unit vector in the Pauli basis, so the squares of all
    # its coefficients must sum to one
    n = c.num_qubits
    enc = encode_circuit(c)
    j = data.draw(st.integers(1, n))
    p0 = data.draw(st.sampled_from([pauli_x, pauli_z]))(n, j)
    total = 0.0
    for labels in itertools.product("IXYZ", repeat=n):
        q = PauliTerm.from_label("".join(labels))
        total += as_float(count(assemble_check(enc, p0, q)).value) ** 2
    assert total == pytest.approx(1.0, abs=1e-9)


def test_encoded_circuit_is_reusable():
    # one encoding serves all checks: assembling must not mutate it
    enc = encode_circuit(TTSDG)
    before = (list(enc.cnf.clauses), dict(enc.cnf.weights))
    assemble_check(enc, pauli_x(1, 1))
    assemble_check(enc, pauli_z(1, 1), PauliTerm.from_label("Y"))
    assert (list(enc.cnf.clauses), dict(enc.cnf.weights)) == before
