import json

import pytest
from hypothesis import given, settings

from conftest import native_circuits
from paulimc.bench import gen_random_universal, inject_error
from paulimc.circuits import Circuit, adjoint, concat, gate
from paulimc.driver import (
    DEFAULT_EPSILON,
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNKNOWN,
    CheckConfig,
    QubitCountMismatchError,
    check_equivalence,
    check_order,
)
from paulimc.oracle import equal_up_to_phase, unitary_of
from paulimc.weights import INV_SQRT2, MINUS_ONE, ONE


def witness_of(verdict):
    # the witness is the failing check itself, the last one counted
    w = verdict.witness
    assert w is verdict.checks[-1] and w.status == "mismatch"
    return w.pauli, w.qubit, w.value


def test_check_order_interleaves_x_and_z():
    assert check_order(3) == [
        ("X", 1), ("Z", 1), ("X", 2), ("Z", 2), ("X", 3), ("Z", 3),
    ]


def test_tt_equals_s():
    u = Circuit(1, (gate("t", 1), gate("t", 1)))
    v = Circuit(1, (gate("s", 1),))
    verdict = check_equivalence(u, v)
    assert verdict.status == EQUIVALENT
    assert verdict.witness is None
    assert verdict.mode == "exact"
    assert len(verdict.checks) == 2
    for rec in verdict.checks:
        assert rec.status == "one"
        assert rec.value == ONE
        assert rec.seconds >= 0
        assert rec.decisions >= 0


def test_verdict_serializes_to_json():
    u = Circuit(1, (gate("t", 1), gate("t", 1)))
    v = Circuit(1, (gate("s", 1),))
    d = check_equivalence(u, v).to_dict()
    json.dumps(d)  # must not raise
    assert d["status"] == "equivalent"
    assert d["witness"] is None
    assert d["mode"] == "exact"
    assert d["elapsed"] >= 0
    first = d["checks"][0]
    assert first["pauli"] == "X" and first["qubit"] == 1
    assert first["value"] == "(1+0*sqrt2)/2^0"
    assert first["value_float"] == 1.0


def test_single_t_is_not_identity():
    verdict = check_equivalence(Circuit(1, (gate("t", 1),)), Circuit(1))
    assert verdict.status == NOT_EQUIVALENT
    assert witness_of(verdict) == ("X", 1, INV_SQRT2)


def test_x_gate_vs_empty_fails_on_z():
    # conjugation by X fixes X but sends Z to -Z
    u = Circuit(1, (gate("x", 1),))
    verdict = check_equivalence(u, Circuit(1, ()))
    assert verdict.status == NOT_EQUIVALENT
    assert witness_of(verdict) == ("Z", 1, MINUS_ONE)
    # the report keeps the witness to these three fields
    assert verdict.to_dict()["witness"] == {
        "pauli": "Z", "qubit": 1, "value": "(-1+0*sqrt2)/2^0"}


def test_xy_equals_z_up_to_phase():
    # Y X = iZ: a global phase the checks must not see
    u = Circuit(1, (gate("x", 1), gate("y", 1)))
    v = Circuit(1, (gate("z", 1),))
    assert check_equivalence(u, v).status == EQUIVALENT
    assert equal_up_to_phase(unitary_of(u), unitary_of(v))


def test_empty_circuits_are_equivalent():
    verdict = check_equivalence(Circuit(2, ()), Circuit(2, ()))
    assert verdict.status == EQUIVALENT
    assert [r.status for r in verdict.checks] == ["one"] * 4


def test_idle_qubit_checks_count_exactly_one():
    # qubits 2 and 3 take no gate, so no gate clause mentions their bits;
    # the check's units pin them, and a pinned variable is not free: X3 and
    # Z3 count 1, not the 4 that a free factor of 2 per bit would give
    u = Circuit(3, (gate("h", 1), gate("t", 1), gate("t", 1)))
    v = Circuit(3, (gate("h", 1), gate("s", 1)))
    verdict = check_equivalence(u, v)
    assert verdict.status == EQUIVALENT
    assert verdict.mode == "exact"
    last = {f"{r.pauli}{r.qubit}": r.value for r in verdict.checks[-2:]}
    assert last == {"X3": ONE, "Z3": ONE}


def test_witness_localizes_to_qubit_two():
    u = Circuit(2, (gate("x", 2),))
    verdict = check_equivalence(u, Circuit(2, ()))
    assert verdict.status == NOT_EQUIVALENT
    assert witness_of(verdict) == ("Z", 2, MINUS_ONE)


def test_witness_is_lowest_failing_check_and_deterministic():
    # z on qubits 2 and 3 flips X2 and X3; the checks run in check_order
    # and stop at the first mismatch, so the witness is X2 on every run and
    # X3, which would also fail, is never counted
    u = Circuit(3, (gate("z", 2), gate("z", 3)))
    order = check_order(3)
    at = order.index(("X", 2))
    for _ in range(5):
        verdict = check_equivalence(u, Circuit(3, ()))
        assert verdict.status == NOT_EQUIVALENT
        assert witness_of(verdict) == ("X", 2, MINUS_ONE)
        assert len(verdict.checks) == at + 1
        assert [r.status for r in verdict.checks] == ["one"] * at + ["mismatch"]


def test_later_mismatch_is_reported_after_an_earlier_timeout():
    # qubit 1 carries an identity that needs branching to count, qubit 2 an
    # x that flips Z2.  The budget is read only before a decision, so the
    # qubit-1 checks always time out at this budget while the qubit-2
    # checks, settled by propagation alone, always finish.  A timeout must
    # neither end the loop nor hide the later disproof.
    w = Circuit(2, (gate("h", 1), gate("t", 1), gate("h", 1), gate("t", 1),
                    gate("h", 1)))
    a = concat(w, adjoint(w))
    a = Circuit(2, a.gates + (gate("x", 2),))
    verdict = check_equivalence(a, Circuit(a.num_qubits),
                                CheckConfig(count_timeout=1e-7))
    assert verdict.status == NOT_EQUIVALENT
    assert witness_of(verdict) == ("Z", 2, MINUS_ONE)
    assert [(r.pauli, r.qubit, r.status) for r in verdict.checks] == [
        ("X", 1, "timeout"),
        ("Z", 1, "timeout"),
        ("X", 2, "one"),
        ("Z", 2, "mismatch"),
    ]
    # with the default budget every check completes: the qubit-1 part is
    # the identity, so the same witness stands
    full = check_equivalence(a, Circuit(a.num_qubits))
    assert witness_of(full) == ("Z", 2, MINUS_ONE)
    assert [r.status for r in full.checks] == ["one"] * 3 + ["mismatch"]


def test_deep_chain_needs_no_recursion_limit():
    # (h; t) x 300 on one qubit: each check runs a search over 1190 and
    # 1194 decisions with about 600 open at once, deeper than a recursive
    # search can go under the interpreter's default recursion limit
    c = Circuit(1, tuple(gate(k, 1) for _ in range(300) for k in ("h", "t")))
    verdict = check_equivalence(c, c)
    assert verdict.status == EQUIVALENT
    assert [rec.decisions for rec in verdict.checks] == [1190, 1194]


def test_qubit_count_mismatch_raises():
    with pytest.raises(QubitCountMismatchError) as err:
        check_equivalence(Circuit(2, ()), Circuit(3, ()))
    assert "2-qubit circuit vs 3-qubit circuit" in str(err.value)


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        CheckConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        CheckConfig(epsilon=-1e-9)
    # a tolerance of 1 or more passes a count of 0; nan compares false
    for epsilon in (1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            CheckConfig(epsilon=epsilon)
    for timeout in (0.0, float("nan")):
        with pytest.raises(ValueError, match="count_timeout"):
            CheckConfig(count_timeout=timeout)
    assert CheckConfig().epsilon == DEFAULT_EPSILON


def test_timeout_yields_unknown_not_a_verdict():
    # identity by construction, but far too heavy to count in the budget:
    # no completed check can disprove equivalence, so the only honest
    # answer is unknown
    w = Circuit(
        3,
        (
            gate("ccx", 1, 2, 3),
            gate("ccx", 2, 3, 1),
            gate("ccx", 3, 1, 2),
            gate("h", 1),
            gate("ccx", 1, 2, 3),
            gate("ccx", 2, 3, 1),
        ),
    )
    a = concat(w, adjoint(w))
    verdict = check_equivalence(a, Circuit(a.num_qubits),
                                CheckConfig(count_timeout=1e-7))
    assert verdict.status == UNKNOWN
    assert verdict.witness is None
    statuses = {rec.status for rec in verdict.checks}
    assert "timeout" in statuses
    assert statuses <= {"one", "timeout"}
    d = verdict.to_dict()
    json.dumps(d)
    assert d["witness"] is None


def test_float_mode_when_rotations_survive_lowering():
    u = Circuit(1, (gate("rz", 1, angle=0.3),))
    v = Circuit(1, (gate("rz", 1, angle=0.3),))
    verdict = check_equivalence(u, v)
    assert verdict.status == EQUIVALENT
    assert verdict.mode == "float"
    for rec in verdict.checks:
        assert isinstance(rec.value, float)
        assert rec.value == pytest.approx(1.0, abs=1e-12)


def test_epsilon_separates_a_small_phase_error():
    # a 1e-4 phase shift dents a diagonal coefficient by about
    # 2 sin^2(5e-5) ~ 5e-9: invisible at epsilon 1e-6, caught at the
    # 1e-9 default
    v = gen_random_universal(2, 12, seed=2)
    u = inject_error(v, "phase_shift", seed=102, delta=1e-4)
    assert check_equivalence(u, v).status == NOT_EQUIVALENT
    assert (
        check_equivalence(u, v, CheckConfig(epsilon=1e-6)).status == EQUIVALENT
    )
    assert not equal_up_to_phase(unitary_of(u), unitary_of(v), tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(native_circuits(min_qubits=1, max_qubits=2, max_gates=8))
def test_circuit_is_equivalent_to_itself(c):
    assert check_equivalence(c, c).status == EQUIVALENT


def test_verdicts_agree_with_matrix_oracle_on_small_pairs():
    rng_cases = [
        (gen_random_universal(2, 8, seed=s), gen_random_universal(2, 8, seed=s + 50))
        for s in range(1, 7)
    ] + [
        (gen_random_universal(2, 8, seed=s), gen_random_universal(2, 8, seed=s))
        for s in (8, 9)
    ]
    for u, v in rng_cases:
        verdict = check_equivalence(u, v)
        expected = equal_up_to_phase(unitary_of(u), unitary_of(v))
        assert verdict.status == (EQUIVALENT if expected else NOT_EQUIVALENT)
