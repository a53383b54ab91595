import pytest
from hypothesis import example, given, settings

from conftest import exact_cnfs, float_cnfs
from paulimc.bench import (
    equivalent_variant,
    gen_random_clifford_t,
    gen_random_universal,
    inject_error,
)
from paulimc.circuits import adjoint, concat, lower
from paulimc.cnf import WeightedCnf
from paulimc.counting import (
    MAX_BRUTE_VARS,
    ResourceLimitError,
    TooManyVariablesError,
    brute_count,
    count,
)
from paulimc.driver import check_order
from paulimc.encoder import PauliTerm, assemble_check, encode_circuit
from paulimc.weights import (
    EXACT,
    INV_SQRT2,
    ExactWeight,
    ModeMismatchError,
    serialize_exact,
)
from util import enumerate_weighted_count, values_close

# the worked three-variable instance: F = b and c, a free with W(a) = -2,
# W(not a) = 3, W(b) = 1/2, W(not b) = 2, c unbiased
# count = (-2 * 1/2 * 1) + (3 * 1/2 * 1) = 1/2
EXAMPLE_F = WeightedCnf(
    num_vars=3,
    clauses=[(2,), (3,)],
    weights={1: -2.0, -1: 3.0, 2: 0.5, -2: 2.0},
    mode="float",
)


def test_worked_example_half():
    assert count(EXAMPLE_F).value == 0.5
    assert brute_count(EXAMPLE_F) == 0.5
    assert enumerate_weighted_count(EXAMPLE_F) == 0.5


def test_empty_formula_counts_all_assignments():
    f = WeightedCnf(num_vars=3)
    assert count(f).value == 8.0
    assert brute_count(f) == 8.0


def test_empty_formula_exact_mode():
    f = WeightedCnf(num_vars=3, mode=EXACT)
    assert count(f).value == ExactWeight.from_int(8)
    assert brute_count(f) == ExactWeight.from_int(8)


def test_unsat_counts_zero():
    f = WeightedCnf(num_vars=1, clauses=[(1,), (-1,)])
    assert count(f).value == 0.0
    assert brute_count(f) == 0.0


def test_empty_clause_means_zero():
    f = WeightedCnf(num_vars=2, clauses=[(1,), ()])
    assert count(f).value == 0.0


def test_free_weighted_variable_factor():
    # no clauses, W(u) = 1/sqrt2: both assignments contribute
    f = WeightedCnf(num_vars=1, weights={1: INV_SQRT2}, mode=EXACT)
    got = count(f).value
    assert got == ExactWeight(2, 1, 1)
    assert serialize_exact(got) == "(2+1*sqrt2)/2^1"
    assert brute_count(f) == got


def test_zero_variable_formula():
    f = WeightedCnf(num_vars=0)
    assert count(f).value == 1.0
    assert brute_count(f) == 1.0


def test_tautologies_and_duplicates_ignored():
    f = WeightedCnf(num_vars=2, clauses=[(1, -1), (2, 1, 2), (1, 2)])
    assert count(f).value == 3.0  # only (1 or 2) constrains anything
    assert brute_count(f) == 3.0


def test_weight_on_variable_outside_clauses():
    f = WeightedCnf(num_vars=2, clauses=[(1,)], weights={2: 0.25, -2: 0.5})
    assert count(f).value == pytest.approx(0.75)
    assert enumerate_weighted_count(f) == pytest.approx(0.75)


@pytest.mark.parametrize("nv", [1, 16])
def test_negative_weights_cancel(nv):
    # every variable is free, so the count is the product of the factors
    # W(v) + W(not v); odd variables weigh -1, and -1.0 + 1.0 is exactly
    # 0.0, so the product is exactly 0.0 whatever the other factors are
    weights = {v: -1.0 if v % 2 else 1.0 for v in range(1, nv + 1)}
    f = WeightedCnf(num_vars=nv, weights=weights)
    assert count(f).value == 0.0


# -- agreement with independent enumerations ---------------------------------


@given(float_cnfs())
@settings(max_examples=200)
def test_count_matches_brute_float(f):
    a = count(f).value
    b = brute_count(f)
    assert values_close(a, b, tol=1e-12)


@given(float_cnfs(max_vars=10, max_clauses=20))
@settings(max_examples=100)
def test_count_matches_definition_float(f):
    assert values_close(count(f).value, enumerate_weighted_count(f), tol=1e-12)


@given(exact_cnfs())
@settings(max_examples=150)
def test_count_matches_brute_exact(f):
    assert count(f).value == brute_count(f)


@given(exact_cnfs(max_vars=9, max_clauses=18))
@settings(max_examples=80)
def test_count_matches_definition_exact(f):
    assert count(f).value == enumerate_weighted_count(f)


@given(float_cnfs(max_vars=10))
@settings(max_examples=60)
def test_counting_is_deterministic(f):
    r1 = count(f)
    r2 = count(f)
    assert r1.value == r2.value
    assert r1.stats.decisions == r2.stats.decisions
    assert r1.stats.propagations == r2.stats.propagations


# -- stats and controls ------------------------------------------------------


def test_stats_populated():
    r = count(EXAMPLE_F)
    assert r.stats.seconds > 0
    assert r.stats.propagations >= 2  # the two unit clauses


def test_component_cache_reuses_reconverged_residuals():
    # a chain of four T gates is Z up to phase, so conjugating X yields -X
    # and the check formula counts to exactly -1.  Along the way the
    # step-to-step structure revisits the same residual subformula via
    # different branch prefixes, which must come out of the cache.
    from paulimc.circuits import Circuit, gate
    from paulimc.encoder import assemble_check, encode_circuit, pauli_x

    chain = Circuit(1, tuple(gate("t", 1) for _ in range(4)))
    f = assemble_check(encode_circuit(chain), pauli_x(1, 1))
    r = count(f)
    assert r.value == ExactWeight(-1, 0, 0)
    assert r.stats.cache_hits >= 1
    assert brute_count(f) == r.value


def test_disjoint_clauses_collapse_in_the_cache():
    # both branches on variable 1 leave the same residual, (3 or 4): the
    # second branch reaches it in the cache, so the decision count stays
    # one per clause instead of multiplying out the branch tree
    f = WeightedCnf(num_vars=4, clauses=[(1, 2), (3, 4)])
    r = count(f)
    assert r.value == 9.0
    assert r.stats.decisions <= 2
    assert r.stats.cache_hits >= 1


def test_timeout_raises():
    # a formula too hard to finish in a microsecond
    import random

    rng = random.Random(5)
    clauses = [
        tuple(
            rng.choice([1, -1]) * v
            for v in rng.sample(range(1, 21), 3)
        )
        for _ in range(85)
    ]
    f = WeightedCnf(num_vars=20, clauses=clauses)
    with pytest.raises(ResourceLimitError):
        count(f, timeout=1e-7)


def test_timeout_none_disables_deadline():
    assert count(EXAMPLE_F, timeout=None).value == 0.5


def test_brute_variable_cap():
    f = WeightedCnf(num_vars=MAX_BRUTE_VARS + 1)
    with pytest.raises(TooManyVariablesError):
        brute_count(f)


def test_validation_runs_before_counting():
    f = WeightedCnf(num_vars=1, clauses=[(2,)])
    with pytest.raises(ValueError):
        count(f)
    f = WeightedCnf(num_vars=1, weights={1: 0.5}, mode=EXACT)
    with pytest.raises(ModeMismatchError):
        count(f)


# -- the search itself, pinned -----------------------------------------------

# Every check formula of three seeded pairs, as
# (check, value, decisions, propagations, cache_hits, cache_stores).
# A change to the counter that is not meant to change the search must keep
# each row bit for bit; a change that is meant to must say so and re-record.
_ONE = "(1+0*sqrt2)/2^0"
_ZERO = "(0+0*sqrt2)/2^0"
PINNED_SEARCH = {
    "clifford_t_equivalent": [
        ("X1", _ONE, 1, 375, 0, 1),
        ("Z1", _ONE, 1, 300, 0, 1),
        ("X2", _ONE, 1, 353, 0, 1),
        ("Z2", _ONE, 0, 257, 0, 0),
        ("X3", _ONE, 1, 375, 0, 1),
        ("Z3", _ONE, 1, 300, 0, 1),
        ("X4", _ONE, 28, 984, 21, 28),
        ("Z4", _ONE, 0, 257, 0, 0),
        ("X5", _ONE, 0, 257, 0, 0),
        ("Z5", _ONE, 20, 1108, 13, 20),
        ("X6", _ONE, 12, 914, 5, 12),
        ("Z6", _ONE, 0, 257, 0, 0),
        ("X7", _ONE, 7, 806, 2, 7),
        ("Z7", _ONE, 1, 343, 0, 1),
    ],
    "clifford_t_flipped_cx": [
        ("X1", _ZERO, 0, 100, 0, 0),
        ("Z1", _ZERO, 0, 71, 0, 0),
        ("X2", _ONE, 1, 289, 0, 1),
        ("Z2", _ZERO, 0, 85, 0, 0),
        ("X3", _ONE, 0, 223, 0, 0),
        ("Z3", _ONE, 0, 223, 0, 0),
        ("X4", _ONE, 7, 628, 1, 7),
        ("Z4", _ONE, 6, 530, 1, 6),
        ("X5", _ONE, 10, 825, 5, 10),
        ("Z5", _ONE, 2, 371, 0, 2),
        ("X6", _ZERO, 0, 111, 0, 0),
        ("Z6", _ZERO, 0, 87, 0, 0),
    ],
    "float_ccx_phase_shift": [
        ("X1", 0.9999999999999998, 1, 130, 0, 1),
        ("Z1", 1.0, 0, 97, 0, 0),
        ("X2", 1.0, 7, 314, 0, 7),
        ("Z2", 1.0, 0, 97, 0, 0),
        ("X3", 1.0, 0, 97, 0, 0),
        ("Z3", 1.0, 3, 214, 0, 3),
        ("X4", 0.999999995, 1, 116, 0, 1),
        ("Z4", 0.9999999999009526, 8, 261, 1, 8),
        ("X5", 1.0, 0, 97, 0, 0),
        ("Z5", 1.0, 0, 97, 0, 0),
        ("X6", 0.9999999999999998, 7, 295, 0, 7),
        ("Z6", 1.0, 0, 97, 0, 0),
    ],
}


def _pinned_pairs():
    eq = gen_random_clifford_t(7, 56, 2)
    neq = gen_random_clifford_t(6, 48, 103)
    rot = gen_random_universal(6, 12, 217)  # one ccx, rx/rz at float angles
    return {
        "clifford_t_equivalent": (eq, equivalent_variant(eq, 3)),
        "clifford_t_flipped_cx": (neq, inject_error(neq, "flip_cnot", 4)),
        "float_ccx_phase_shift": (rot, inject_error(rot, "phase_shift", 218)),
    }


def test_search_statistics_are_pinned():
    for name, (u, v) in _pinned_pairs().items():
        enc = encode_circuit(concat(lower(u), adjoint(lower(v))))
        n = enc.num_qubits
        got = []
        for pauli, qubit in check_order(n):
            r = count(assemble_check(enc, PauliTerm.single(n, qubit, pauli)))
            s = r.stats
            value = (
                r.value if isinstance(r.value, float) else serialize_exact(r.value)
            )
            got.append((f"{pauli}{qubit}", value, s.decisions, s.propagations,
                        s.cache_hits, s.cache_stores))
        assert got == PINNED_SEARCH[name], name
