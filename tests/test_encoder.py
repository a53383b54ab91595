import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
    check_units,
    encode_circuit,
    infer_mode,
)
from paulimc.oracle import pauli_coefficient, unitary_of
from paulimc.weights import EXACT, FLOAT, HALF, INV_SQRT2, MINUS_ONE, as_float

TTSDG = Circuit(1, (gate("t", 1), gate("t", 1), gate("sdg", 1)))


# -- PauliTerm ---------------------------------------------------------------


def test_pauli_term_labels():
    p = PauliTerm.from_label("XIZ")
    assert p.bits == ((1, 0), (0, 0), (0, 1))
    assert p.label == "XIZ"


def test_pauli_term_constructors():
    assert PauliTerm.single(3, 2, "X").label == "IXI"
    assert PauliTerm.single(2, 1, "Z").label == "ZI"
    assert PauliTerm.single(2, 2, "Y").label == "IY"


def test_pauli_term_validation():
    with pytest.raises(PauliTermError):
        PauliTerm.from_label("XQ")
    with pytest.raises(PauliTermError):
        PauliTerm(((2, 0),))
    with pytest.raises(PauliTermError):
        PauliTerm.single(2, 3, "X")


# -- unit literals -----------------------------------------------------------
# check_units gives the 2n initial units, then the 2n projection units


def test_initial_units_x1_single_qubit():
    enc = encode_circuit(Circuit(1))
    assert check_units(enc, PauliTerm.single(1, 1, "X"))[:2] == [1, -2]


def test_initial_units_z2_two_qubits():
    enc = encode_circuit(Circuit(2))
    assert check_units(enc, PauliTerm.single(2, 2, "Z"))[:4] == [-1, -2, -3, 4]


def test_initial_units_zx_pattern():
    enc = encode_circuit(Circuit(2))
    assert check_units(enc, PauliTerm.from_label("ZX")) == [-1, 2, 3, -4] * 2


def test_initial_units_signed():
    # terms are unsigned: no variable holds an input sign, so a signed
    # label is refused when it is parsed
    for label in ("-X", "+Z", "-YX"):
        with pytest.raises(PauliTermError):
            PauliTerm.from_label(label)


def test_projection_units_pin_letters_never_sign():
    enc = encode_circuit(TTSDG)
    units = check_units(enc, PauliTerm.from_label("Z"),
                        project=PauliTerm.from_label("X"))
    final = enc.frames[-1]
    assert units == [-1, 2, final.xs[0], -final.zs[0]]
    # the weighted branch and flip variables are never pinned
    assert all(abs(lit) not in enc.cnf.weights for lit in units)


def test_projection_rejects_signed_terms():
    # a signed projection term cannot be built, so it never reaches
    # check_units; the unsigned one pins only the letter variables
    enc = encode_circuit(Circuit(1))
    with pytest.raises(PauliTermError):
        check_units(enc, PauliTerm.from_label("X"),
                    project=PauliTerm.from_label("-X"))
    assert check_units(enc, PauliTerm.from_label("X"),
                       project=PauliTerm.from_label("X")) == [1, -2] * 2


def test_unit_helpers_check_qubit_count():
    enc = encode_circuit(Circuit(2))
    with pytest.raises(PauliTermError):
        check_units(enc, PauliTerm.single(3, 1, "X"))
    with pytest.raises(PauliTermError):
        check_units(enc, PauliTerm.from_label("XI"),
                    project=PauliTerm.from_label("I"))


# -- variable timeline -------------------------------------------------------


def test_frozen_variable_layout_ttsdg():
    # the id assignment is part of the external contract: emitted DIMACS
    # must be byte-stable, so pin it down completely for one circuit
    enc = encode_circuit(TTSDG)
    assert enc.mode == EXACT
    frames = enc.frames
    assert frames[0].xs == (1,) and frames[0].zs == (2,)
    assert frames[1].zs == (3,)
    assert frames[2].zs == (6,)
    assert frames[3].zs == (9,)
    assert all(f.xs == (1,) for f in frames)  # t/sdg never touch the x bit
    assert enc.cnf.num_vars == 10
    # each gate's flip variable weighs -1; each t's branch 1/sqrt2
    assert enc.cnf.weights == {
        4: MINUS_ONE, 5: INV_SQRT2, 7: MINUS_ONE, 8: INV_SQRT2, 10: MINUS_ONE
    }


@given(native_circuits(max_qubits=3, max_gates=10))
@settings(max_examples=60)
def test_ids_fresh_and_monotone(c):
    enc = encode_circuit(c)
    seen_max = 0
    prev_ids: set[int] = set()
    for frame in enc.frames:
        ids = set(frame.xs) | set(frame.zs)
        assert len(ids) == 2 * c.num_qubits
        for v in ids:
            # every id either survives from the previous step or is fresh,
            # i.e. larger than everything allocated so far
            assert v in prev_ids or v > seen_max
        seen_max = max(seen_max, *ids)
        prev_ids = ids
    # branch and flip variables (the weighted u/c/h/f ids) live between
    # frames, so the frame maximum is a lower bound on the allocation counter
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


def test_rotations_encode_with_float_weights():
    for kind in ("rx", "rz"):
        enc = encode_circuit(Circuit(1, (gate(kind, 1, angle=0.3),)))
        assert enc.mode == enc.cnf.mode == FLOAT
        assert all(type(w) is float for w in enc.cnf.weights.values())


def test_non_native_kind_rejected():
    with pytest.raises(NonNativeGateError):
        encode_circuit(Circuit(2, (gate("cx", 1, 2),)))


# -- pinned check formulas ---------------------------------------------------


def test_empty_circuit_counts_one():
    for p0 in (PauliTerm.single(1, 1, "X"), PauliTerm.single(1, 1, "Z")):
        f = assemble_check(encode_circuit(Circuit(1)), p0)
        assert count(f).value.is_one()


def test_ttsdg_both_checks_count_one():
    for p0 in (PauliTerm.single(1, 1, "X"), PauliTerm.single(1, 1, "Z")):
        f = assemble_check(encode_circuit(TTSDG), p0)
        value = count(f).value
        assert value.is_one()


def test_single_t_x_check_is_inv_sqrt2():
    enc = encode_circuit(Circuit(1, (gate("t", 1),)))
    f = assemble_check(enc, PauliTerm.single(1, 1, "X"))
    assert count(f).value == INV_SQRT2


def test_signed_input_flips_the_count():
    # a signed input string is refused, not folded in: no variable holds
    # it (negative counts stay covered by test_toffoli_branching_row_signs)
    enc = encode_circuit(Circuit(1, (gate("t", 1),)))
    with pytest.raises(PauliTermError):
        assemble_check(enc, PauliTerm.from_label("-X"),
                       PauliTerm.single(1, 1, "X"))


def test_assemble_weights_only_touch_final_sign():
    enc = encode_circuit(TTSDG)
    f = assemble_check(enc, PauliTerm.single(1, 1, "X"))
    # the weights are the branch and flip weights of the gates, nothing else
    assert f.weights == enc.cnf.weights
    assert set(f.weights) == {4, 5, 7, 8, 10}
    # the base encoding is not mutated by assembling checks from it
    f.weights[1] = MINUS_ONE
    assert 1 not in enc.cnf.weights


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


# -- one template per kind ---------------------------------------------------

_PLACEMENTS = {1: (3,), 2: (4, 2), 3: (5, 3, 1)}
_PREFIX = (gate("h", 2), gate("cz", 1, 4), gate("t", 3), gate("s", 5),
           gate("h", 3), gate("tdg", 1))


@pytest.mark.parametrize(
    "kind,n,angle", [case for case in _GATE_CASES if case[2] in (None, 0.3)]
)
def test_gate_clauses_are_one_template_renamed(kind, n, angle):
    """A gate's clauses after other gates and on other qubits are its
    clauses alone, renamed by one sign-preserving bijection of variables
    that also carries its weights and the frame bits before and after it."""
    alone = encode_circuit(Circuit(n, (gate(kind, *range(1, n + 1), angle=angle),)))
    qubits = _PLACEMENTS[n]
    before = encode_circuit(Circuit(5, _PREFIX))
    later = encode_circuit(
        Circuit(5, _PREFIX + (gate(kind, *qubits, angle=angle),)))
    ours = alone.cnf.clauses
    theirs = later.cnf.clauses[len(before.cnf.clauses):]
    assert len(theirs) == len(ours)
    rename = {}
    for a, b in zip(ours, theirs):
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            assert (la > 0) == (lb > 0)
            assert rename.setdefault(abs(la), abs(lb)) == abs(lb)
    assert sorted(rename) == list(range(1, alone.cnf.num_vars + 1))
    assert len(set(rename.values())) == len(rename)
    for fa, fb in ((alone.frames[0], later.frames[-2]),
                   (alone.frames[-1], later.frames[-1])):
        for j, q in enumerate(qubits):
            assert rename[fa.xs[j]] == fb.xs[q - 1]
            assert rename[fa.zs[j]] == fb.zs[q - 1]
    gate_weights = {lit: w for lit, w in later.cnf.weights.items()
                    if lit not in before.cnf.weights}
    assert gate_weights == {
        (rename[lit] if lit > 0 else -rename[-lit]): w
        for lit, w in alone.cnf.weights.items()
    }


def test_formula_hash_pins_every_kind():
    # scripts/formula_hash.py over its default 800 seeded circuits: any
    # change to a clause, weight, frame or check unit of any kind moves it
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "formula_hash.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "circuits: 800",
        "sha256: 169532c4644f86cf5085d7fb0199f823aa9ec6d666dae6f083034b114e5ab08a",
    ]


# -- whole-circuit identities ------------------------------------------------


@given(native_circuits(max_qubits=2, max_gates=8), st.data())
@settings(max_examples=25)
def test_counts_match_trace_coefficients(c, data):
    enc = encode_circuit(c)
    a = unitary_of(c)
    j = data.draw(st.integers(1, c.num_qubits))
    p0 = PauliTerm.single(c.num_qubits, j, data.draw(st.sampled_from("XZ")))
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
    p0 = PauliTerm.single(n, j, data.draw(st.sampled_from("XZ")))
    total = 0.0
    for labels in itertools.product("IXYZ", repeat=n):
        q = PauliTerm.from_label("".join(labels))
        total += as_float(count(assemble_check(enc, p0, q)).value) ** 2
    assert total == pytest.approx(1.0, abs=1e-9)


def test_encoded_circuit_is_reusable():
    # one encoding serves all checks: assembling must not mutate it
    enc = encode_circuit(TTSDG)
    before = (list(enc.cnf.clauses), dict(enc.cnf.weights))
    assemble_check(enc, PauliTerm.single(1, 1, "X"))
    assemble_check(enc, PauliTerm.single(1, 1, "Z"), PauliTerm.from_label("Y"))
    assert (list(enc.cnf.clauses), dict(enc.cnf.weights)) == before
