import pytest
from hypothesis import example, given, settings

from conftest import exact_cnfs, float_cnfs
from paulimc.cnf import WeightedCnf
from paulimc.counting import (
    MAX_BRUTE_VARS,
    ResourceLimitError,
    TooManyVariablesError,
    brute_count,
    count,
)
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


def test_negative_weights_cancel():
    f = WeightedCnf(num_vars=1, weights={1: -1.0})
    assert count(f).value == 0.0  # -1 + 1 over the two assignments


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


def test_disjoint_clauses_split_into_components():
    # two clauses over disjoint variables are solved as independent
    # components at the root: the decision count stays linear (one per
    # component) instead of multiplying out the branch tree
    f = WeightedCnf(num_vars=4, clauses=[(1, 2), (3, 4)])
    r = count(f)
    assert r.value == 9.0
    assert r.stats.decisions <= 2


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


# -- regression spot: alternating-sign accumulation --------------------------


def test_signed_branch_summation_is_stable():
    # many +w/-w pairs around a tiny residual; the compensated float path
    # must not lose the residual to rounding
    clauses = []
    weights = {}
    nv = 16
    for v in range(1, nv + 1):
        weights[v] = 1.0 if v % 2 else -1.0
    f = WeightedCnf(num_vars=nv, clauses=clauses, weights=weights)
    # every variable free: product over v of (W(v) + W(-v)) = 2^8 * 0^8 = 0
    assert count(f).value == 0.0
