import math
from collections import Counter

import pytest

from paulimc.bench import (
    ERROR_KINDS,
    NoEligibleGateError,
    equivalent_variant,
    gen_random_clifford_t,
    gen_random_universal,
    inject_error,
)
from paulimc.circuits import Circuit, gate
from paulimc.oracle import equal_up_to_phase, unitary_of

import numpy as np


def test_clifford_t_generator_is_deterministic():
    a = gen_random_clifford_t(3, 40, seed=11)
    b = gen_random_clifford_t(3, 40, seed=11)
    assert a == b
    assert a != gen_random_clifford_t(3, 40, seed=12)


def test_clifford_t_mix_matches_declared_shares():
    c = gen_random_clifford_t(4, 10_000, seed=0)
    counts = Counter(g.kind for g in c.gates)
    assert set(counts) <= {"cx", "h", "s", "t"}
    assert counts["cx"] / 10_000 == pytest.approx(0.10, abs=0.02)
    assert counts["h"] / 10_000 == pytest.approx(0.35, abs=0.02)
    assert counts["s"] / 10_000 == pytest.approx(0.35, abs=0.02)
    assert counts["t"] / 10_000 == pytest.approx(0.20, abs=0.02)


def test_clifford_t_needs_two_qubits():
    with pytest.raises(ValueError, match="at least 2 qubits"):
        gen_random_clifford_t(1, 5, seed=0)


def test_clifford_t_qubits_in_range():
    c = gen_random_clifford_t(3, 200, seed=5)
    for g in c.gates:
        assert all(1 <= q <= 3 for q in g.qubits)
        assert len(set(g.qubits)) == len(g.qubits)


def test_universal_mix_and_angles():
    c = gen_random_universal(3, 10_000, seed=1)
    counts = Counter(g.kind for g in c.gates)
    assert set(counts) <= {"cx", "h", "s", "t", "rx", "rz", "ccx"}
    assert counts["ccx"] / 10_000 == pytest.approx(0.10, abs=0.02)
    assert counts["rx"] / 10_000 == pytest.approx(0.10, abs=0.02)
    assert counts["rz"] / 10_000 == pytest.approx(0.10, abs=0.02)
    for g in c.gates:
        if g.kind in ("rx", "rz"):
            assert 0.0 <= g.angle <= 2 * math.pi


def test_universal_single_qubit_folds_multiqubit_shares_into_h():
    c = gen_random_universal(1, 2000, seed=3)
    kinds = {g.kind for g in c.gates}
    assert "cx" not in kinds and "ccx" not in kinds
    counts = Counter(g.kind for g in c.gates)
    # the cx and ccx shares (0.10 each) both land on h: 0.25 + 0.20 = 0.45
    assert counts["h"] / 2000 == pytest.approx(0.45, abs=0.03)


def test_universal_two_qubits_has_no_toffoli():
    c = gen_random_universal(2, 2000, seed=4)
    assert all(g.kind != "ccx" for g in c.gates)


# ---------------------------------------------------------------- injection

def test_remove_gate_drops_exactly_one():
    c = gen_random_clifford_t(2, 10, seed=7)
    out = inject_error(c, "remove_gate", seed=1)
    assert len(out.gates) == 9
    # the survivor is a subsequence of the original
    it = iter(c.gates)
    assert all(any(g == h for h in it) for g in out.gates)


def test_flip_cnot_swaps_control_and_target():
    c = Circuit(2, (gate("h", 1), gate("cx", 1, 2), gate("t", 2)))
    out = inject_error(c, "flip_cnot", seed=0)
    assert out.gates[1].kind == "cx"
    assert out.gates[1].qubits == (2, 1)
    assert out.gates[0] == c.gates[0] and out.gates[2] == c.gates[2]
    assert not equal_up_to_phase(unitary_of(c), unitary_of(out))


def test_phase_shift_perturbs_one_angle():
    c = Circuit(1, (gate("rz", 1, angle=0.5), gate("h", 1)))
    out = inject_error(c, "phase_shift", seed=0, delta=1e-4)
    assert out.gates[0].angle == pytest.approx(0.5 + 1e-4, abs=0)
    assert out.gates[1] == c.gates[1]


def test_inject_error_is_seeded():
    c = gen_random_clifford_t(3, 30, seed=9)
    assert inject_error(c, "remove_gate", seed=4) == inject_error(
        c, "remove_gate", seed=4
    )


def test_inject_rejects_unknown_kind():
    c = gen_random_clifford_t(2, 5, seed=0)
    with pytest.raises(ValueError, match="unknown error kind"):
        inject_error(c, "swap_gates", seed=0)


@pytest.mark.parametrize(
    "kind,circuit",
    [
        ("remove_gate", Circuit(2, ())),
        ("flip_cnot", Circuit(2, (gate("h", 1),))),
        ("phase_shift", Circuit(2, (gate("h", 1), gate("cx", 1, 2)))),
    ],
)
def test_no_eligible_gate(kind, circuit):
    with pytest.raises(NoEligibleGateError) as err:
        inject_error(circuit, kind, seed=0)
    assert err.value.kind == kind
    assert kind in str(err.value)


# --------------------------------------------------------- equivalent pairs

@pytest.mark.parametrize("seed", range(6))
def test_equivalent_variant_preserves_the_unitary(seed):
    c = gen_random_clifford_t(2, 12, seed=seed)
    v = equivalent_variant(c, seed=seed + 100)
    assert v != c or len(v.gates) > len(c.gates)
    np.testing.assert_allclose(unitary_of(v), unitary_of(c), atol=1e-12)


def test_equivalent_variant_insertion_count():
    c = Circuit(2, (gate("h", 1),))
    v = equivalent_variant(c, seed=0, insertions=3, commutations=0)
    assert len(v.gates) == 1 + 2 * 3
    np.testing.assert_allclose(unitary_of(v), unitary_of(c), atol=1e-12)


def test_equivalent_variant_single_qubit_register():
    c = Circuit(1, (gate("t", 1), gate("h", 1)))
    v = equivalent_variant(c, seed=5, insertions=2, commutations=1)
    assert all(len(g.qubits) == 1 for g in v.gates)
    np.testing.assert_allclose(unitary_of(v), unitary_of(c), atol=1e-12)


def test_equivalent_variant_is_seeded():
    c = gen_random_clifford_t(3, 20, seed=2)
    assert equivalent_variant(c, seed=7) == equivalent_variant(c, seed=7)
