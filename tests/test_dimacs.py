import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import float_cnfs
from paulimc.circuits import Circuit, gate
from paulimc.cnf import WeightedCnf
from paulimc.counting import count
from paulimc.dimacs import (
    FormatError,
    emit,
    load_cnf,
    parse,
    save_cnf,
    sidecar_path,
)
from paulimc.encoder import PauliTerm, assemble_check, encode_circuit
from paulimc.weights import EXACT, FLOAT, INV_SQRT2, ONE, ExactWeight

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------- emission

def test_minimal_golden_bytes():
    f = WeightedCnf(num_vars=2, clauses=[(1, -2)], weights={1: -1.0})
    assert emit(f) == "p cnf 2 1\nc p weight 1 -1 0\n1 -2 0\n"


def test_worked_example_emission():
    f = WeightedCnf(
        num_vars=3,
        clauses=[(2,), (3,)],
        weights={1: -2.0, -1: 3.0, 2: 0.5, -2: 2.0},
        mode="float",
    )
    assert emit(f) == (
        "p cnf 3 2\n"
        "c p weight 1 -2 0\n"
        "c p weight -1 3 0\n"
        "c p weight 2 0.5 0\n"
        "c p weight -2 2 0\n"
        "2 0\n"
        "3 0\n"
    )


def test_weight_lines_sorted_by_variable_then_sign():
    f = WeightedCnf(num_vars=3, clauses=[], weights={-3: 0.25, 2: 2.0, -2: 0.125})
    assert emit(f) == (
        "p cnf 3 0\n"
        "c p weight 2 2 0\n"
        "c p weight -2 0.125 0\n"
        "c p weight -3 0.25 0\n"
    )


def test_unit_weights_are_omitted():
    f = WeightedCnf(num_vars=2, clauses=[(1,)], weights={1: 1.0, -2: 1.0})
    assert emit(f) == "p cnf 2 1\n1 0\n"
    g = WeightedCnf(num_vars=1, clauses=[], weights={1: ONE}, mode=EXACT)
    assert emit(g) == "p cnf 1 0\n"


def test_emit_validates_first():
    f = WeightedCnf(num_vars=1, clauses=[(2,)])
    with pytest.raises(ValueError, match="out of range"):
        emit(f)


def test_emit_is_deterministic_under_weight_dict_order():
    a = WeightedCnf(num_vars=2, clauses=[], weights={1: 0.5, -2: 3.0})
    b = WeightedCnf(num_vars=2, clauses=[], weights={-2: 3.0, 1: 0.5})
    assert emit(a) == emit(b)


# ----------------------------------------------------------------- parsing

def test_parse_ignores_plain_comments_and_blank_lines():
    text = "c free-form comment\n\np cnf 2 1\nc another note\n1 2 0\n"
    f = parse(text)
    assert f.num_vars == 2
    assert f.clauses == [(1, 2)]
    assert f.weights == {}
    assert f.mode == FLOAT


def test_parse_accepts_weight_heavy_file():
    f = parse("p cnf 2 0\nc p weight 1 0.5 0\nc p weight -1 2 0\n")
    assert f.weights == {1: 0.5, -1: 2.0}


@settings(max_examples=150)
@given(float_cnfs(max_vars=10, max_clauses=20))
def test_emit_parse_round_trip(f):
    g = parse(emit(f))
    assert g.num_vars == f.num_vars
    assert list(g.clauses) == [tuple(c) for c in f.clauses]
    for v in range(1, f.num_vars + 1):
        for lit in (v, -v):
            assert g.weight_of(lit) == f.weight_of(lit)


def test_seventeen_digit_floats_round_trip():
    ugly = {1: 1 / 3, -1: 0.1, 2: -2.5e17, -2: 1e-300, 3: 1 + 2**-52}
    f = WeightedCnf(num_vars=3, clauses=[], weights=ugly)
    g = parse(emit(f))
    assert g.weights == ugly


PARSE_ERRORS = [
    ("", "missing 'p cnf' header", None),
    ("p cnf 1 0\np cnf 1 0\n", "second header", 2),
    ("p dnf 1 0\n", "bad header", 1),
    ("p cnf 1\n", "bad header", 1),
    ("p cnf -1 0\n", "negative counts", 1),
    ("p cnf a 0\n", "invalid literal", 1),
    ("c p weight 1 0.5 0\np cnf 1 0\n", "weight line before header", 1),
    ("p cnf 1 0\nc p weight 1 0.5\n", "malformed weight line", 2),
    ("p cnf 1 0\nc p weight 1 abc 0\n", "could not convert", 2),
    ("p cnf 1 0\nc p weight 1 nan 0\n", "weight nan is not finite", 2),
    ("p cnf 1 0\nc p weight -1 inf 0\n", "weight inf is not finite", 2),
    ("p cnf 1 0\nc p weight 1 -inf 0\n", "weight -inf is not finite", 2),
    ("p cnf 1 0\nc p weight 2 0.5 0\n", "literal 2 out of range", 2),
    ("p cnf 1 0\nc p weight 0 0.5 0\n", "literal 0 out of range", 2),
    (
        "p cnf 1 0\nc p weight 1 0.5 0\nc p weight 1 0.25 0\n",
        "duplicate weight for literal 1",
        3,
    ),
    ("1 0\n", "clause before header", 1),
    ("p cnf 1 1\n1 x 0\n", "bad clause line", 2),
    ("p cnf 1 1\n1\n", "not 0-terminated", 2),
    ("p cnf 2 1\n1 0 2 0\n", "literal 0 inside clause", 2),
    ("p cnf 1 1\n1 2 0\n", "out of declared range", 2),
    ("p cnf 1 2\n1 0\n", "declares 2 clauses, found 1", None),
]


@pytest.mark.parametrize("text,fragment,line", PARSE_ERRORS)
def test_parse_rejects(text, fragment, line):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert err.value.line == line
    if line is not None:
        assert f"line {line}:" in str(err.value)


# ---------------------------------------------------------- files + sidecar

def test_sidecar_path_swaps_suffix():
    assert sidecar_path("out/f.cnf") == Path("out/f.weights.json")


def test_save_load_float_has_no_sidecar(tmp_path):
    f = WeightedCnf(num_vars=2, clauses=[(1, -2)], weights={1: -1.0})
    p = save_cnf(f, tmp_path / "f.cnf")
    assert p.read_text() == emit(f)
    assert not sidecar_path(p).exists()
    g = load_cnf(p)
    assert g.mode == FLOAT
    assert g.weights == {1: -1.0}


def test_save_load_exact_round_trips_ring_values(tmp_path):
    f = WeightedCnf(
        num_vars=2,
        clauses=[(1, 2)],
        weights={1: INV_SQRT2, -2: ExactWeight(-1, 2, 3)},
        mode=EXACT,
    )
    p = save_cnf(f, tmp_path / "f.cnf")
    assert sidecar_path(p).exists()
    g = load_cnf(p)
    assert g.mode == EXACT
    assert g.weights == {1: INV_SQRT2, -2: ExactWeight(-1, 2, 3)}
    assert list(g.clauses) == [(1, 2)]


def test_saving_floats_removes_stale_sidecar(tmp_path):
    exact = WeightedCnf(num_vars=1, clauses=[], weights={1: INV_SQRT2}, mode=EXACT)
    p = save_cnf(exact, tmp_path / "f.cnf")
    assert sidecar_path(p).exists()
    save_cnf(WeightedCnf(num_vars=1, clauses=[]), p)
    assert not sidecar_path(p).exists()
    assert load_cnf(p).mode == FLOAT


def test_load_rejects_bad_sidecar_json(tmp_path):
    # each message says what is wrong, not which Python exception it hit
    p = save_cnf(WeightedCnf(num_vars=1, clauses=[]), tmp_path / "f.cnf")
    for text, reason in [
        ("{not json", "Expecting property name enclosed in double quotes"),
        ('{"mode": "exact"}', "missing key 'weights'"),
        ('{"weights": {}}', "missing key 'mode'"),
        ("[]", "not a JSON object: []"),
        ('{"mode": "exact", "weights": {"x": [1, 0, 0]}}',
         "key 'x' is not a literal"),
        ('{"mode": "exact", "weights": {"1": 5}}',
         "weight of 1 is not three integers: 5"),
    ]:
        sidecar_path(p).write_text(text)
        with pytest.raises(FormatError) as err:
            load_cnf(p)
        assert str(err.value).startswith(f"bad weight sidecar f.weights.json: {reason}")


def test_load_rejects_sidecar_weights_not_an_object(tmp_path):
    p = save_cnf(WeightedCnf(num_vars=1, clauses=[]), tmp_path / "f.cnf")
    for weights in ("[1]", "[]"):
        sidecar_path(p).write_text(f'{{"mode": "exact", "weights": {weights}}}')
        with pytest.raises(FormatError) as err:
            load_cnf(p)
        assert str(err.value) == (
            f"bad weight sidecar f.weights.json: weights is not an object: {weights}")


def test_load_rejects_sidecar_missing_a_weighted_literal(tmp_path):
    f = WeightedCnf(num_vars=1, clauses=[], weights={1: INV_SQRT2}, mode=EXACT)
    p = save_cnf(f, tmp_path / "f.cnf")
    sidecar_path(p).write_text('{"mode": "exact", "weights": {}}')
    with pytest.raises(FormatError, match="sidecar does not"):
        load_cnf(p)


def test_load_rejects_sidecar_literal_out_of_range(tmp_path):
    p = save_cnf(WeightedCnf(num_vars=1, clauses=[]), tmp_path / "f.cnf")
    sidecar_path(p).write_text('{"mode": "exact", "weights": {"5": [1, 0, 1]}}')
    with pytest.raises(FormatError, match="out of range"):
        load_cnf(p)


def test_sidecar_has_one_weight_per_line_and_indented_ones_still_load(tmp_path):
    weights = {1: INV_SQRT2, -2: ExactWeight(-1, 2, 3)}
    f = WeightedCnf(num_vars=2, clauses=[(1, 2)], weights=weights, mode=EXACT)
    p = save_cnf(f, tmp_path / "f.cnf")
    assert sidecar_path(p).read_text() == (
        '{"mode": "exact", "weights": {\n'
        '"1": [0, 1, 1],\n'
        '"-2": [-1, 2, 3]\n'
        "}}\n"
    )
    # the layout written before one weight per line: same schema, indented
    payload = {"mode": "exact",
               "weights": {str(lit): [w.a, w.b, w.k] for lit, w in weights.items()}}
    sidecar_path(p).write_text(json.dumps(payload, indent=1) + "\n")
    assert load_cnf(p).weights == weights


def test_load_rejects_disagreeing_sidecar_value(tmp_path):
    f = WeightedCnf(num_vars=1, clauses=[], weights={1: INV_SQRT2}, mode=EXACT)
    p = save_cnf(f, tmp_path / "f.cnf")
    sidecar_path(p).write_text('{"mode": "exact", "weights": {"1": [1, 0, 1]}}')
    with pytest.raises(FormatError, match="disagrees"):
        load_cnf(p)


# ------------------------------------------------------------- golden files

@pytest.mark.parametrize("stem", ["x1", "z1"])
def test_golden_check_formulas_count_to_one(stem):
    f = load_cnf(GOLDEN / f"{stem}.cnf")
    assert f.mode == EXACT
    assert count(f).value == ONE


@pytest.mark.parametrize(
    "stem,p0",
    [("x1", PauliTerm.single(1, 1, "X")), ("z1", PauliTerm.single(1, 1, "Z"))],
)
def test_golden_files_match_current_encoder_bytes(stem, p0):
    # T . T . Sdg fixes both Pauli letters; the files freeze the encoder
    # layout and the emitter byte-for-byte
    a = Circuit(1, (gate("t", 1), gate("t", 1), gate("sdg", 1)))
    f = assemble_check(encode_circuit(a), p0)
    assert emit(f) == (GOLDEN / f"{stem}.cnf").read_text()


def test_golden_sidecars_match_current_encoder(tmp_path):
    a = Circuit(1, (gate("t", 1), gate("t", 1), gate("sdg", 1)))
    f = assemble_check(encode_circuit(a), PauliTerm.single(1, 1, "X"))
    p = save_cnf(f, tmp_path / "x1.cnf")
    assert sidecar_path(p).read_text() == (GOLDEN / "x1.weights.json").read_text()
