"""End-to-end acceptance gate: nine criteria, one test each.

Every test prints a single `ACCEPTANCE <k> (<label>): PASS` line once its
assertions hold (visible under pytest -s; pytest -v shows the per-test
verdict either way).  Budgets are wall-clock seconds on one core and are
asserted, not advisory.  Tolerances sit next to the assertions they bound.
"""

import itertools
import math
import random
import time
from statistics import mean

from paulimc.bench import (
    NoEligibleGateError,
    equivalent_variant,
    gen_random_clifford_t,
    gen_random_universal,
    inject_error,
)
from paulimc.circuits import Circuit, concat, gate, lower
from paulimc.cnf import WeightedCnf
from paulimc.counting import brute_count, count
from paulimc.driver import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    CheckConfig,
    check_equivalence,
)
from paulimc.encoder import PauliTerm, assemble_check, encode_circuit
from paulimc.oracle import (
    decompose_in_pauli_basis,
    equal_up_to_phase,
    pauli_coefficient,
    pauli_label_matrix,
    unitary_of,
)
from paulimc.weights import ONE, ExactWeight, INV_SQRT2


def _labels(n):
    return ["".join(t) for t in itertools.product("IXYZ", repeat=n)]


def test_acceptance_1_worked_examples():
    t0 = time.perf_counter()

    # t . t vs s: both checks count to ring-exact 1
    u = Circuit(1, (gate("t", 1), gate("t", 1)))
    v = Circuit(1, (gate("s", 1),))
    verdict = check_equivalence(u, v)
    assert verdict.status == EQUIVALENT
    assert verdict.mode == "exact"
    assert [rec.value for rec in verdict.checks] == [ONE, ONE]

    # the three-variable weighted instance with a negative weight: count 1/2
    f = WeightedCnf(
        num_vars=3,
        clauses=[(2,), (3,)],
        weights={1: -2.0, -1: 3.0, 2: 0.5, -2: 2.0},
        mode="float",
    )
    assert count(f).value == 0.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"worked examples took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 (worked examples, {elapsed:.2f}s): PASS")


def test_acceptance_2_single_gate_conjugation():
    """Each supported gate against the dense-matrix oracle at 1e-12.

    Exhaustive input x projection grids for every gate except the Toffoli
    zeros: there the full 64 inputs are each compared on their entire
    nonzero support plus three seeded zero projections, which fits the
    time box on one core.  (tests/test_encoder.py runs the unabridged
    64 x 64 Toffoli grid without a budget.)
    """
    t0 = time.perf_counter()
    tol = 1e-12
    compared = 0

    small_cases = [
        ("h", 1, None), ("s", 1, None), ("sdg", 1, None),
        ("t", 1, None), ("tdg", 1, None), ("cz", 2, None),
        ("rx", 1, 0.3), ("rx", 1, math.pi / 4), ("rx", 1, 1.7),
        ("rz", 1, 0.3), ("rz", 1, math.pi / 4), ("rz", 1, 1.7),
    ]
    for kind, n, angle in small_cases:
        c = Circuit(n, (gate(kind, *range(1, n + 1), angle=angle),))
        enc = encode_circuit(c)
        a = unitary_of(c)
        for in_label in _labels(n):
            p0 = PauliTerm.from_label(in_label)
            for out_label in _labels(n):
                q = PauliTerm.from_label(out_label)
                got = float(count(assemble_check(enc, p0, q)).value)
                want = pauli_coefficient(a, out_label, in_label)
                assert abs(got - want) <= tol, (kind, in_label, out_label)
                compared += 1

    c = Circuit(3, (gate("ccx", 1, 2, 3),))
    enc = encode_circuit(c)
    a = unitary_of(c)
    rng = random.Random(220)
    support_total = 0
    for in_label in _labels(3):
        p0 = PauliTerm.from_label(in_label)
        conj = a @ pauli_label_matrix(in_label) @ a.conj().T
        coeffs = decompose_in_pauli_basis(conj)
        support = sorted(coeffs)
        support_total += len(support)
        zeros = [lab for lab in _labels(3) if lab not in coeffs]
        for out_label in support + rng.sample(zeros, 3):
            q = PauliTerm.from_label(out_label)
            got = float(count(assemble_check(enc, p0, q)).value)
            want = coeffs.get(out_label, 0.0)
            assert abs(got - want) <= tol, ("ccx", in_label, out_label)
            compared += 1
    # matrix-side structure: 8 fixed strings, 56 four-way branches
    assert support_total == 8 + 56 * 4

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"single-gate sweep took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2 (single-gate conjugation, {compared} comparisons, "
          f"{elapsed:.2f}s): PASS")


def test_acceptance_3_trace_coefficients():
    """500 seeded mixed-gate circuits (n <= 4, m <= 20): every diagonal
    check and two random projections per circuit match the trace
    coefficient to 1e-9."""
    t0 = time.perf_counter()
    tol = 1e-9
    checks = 0
    for i in range(500):
        n = 1 + i % 4
        m = 6 + (i * 5) % 15
        c = gen_random_universal(n, m, seed=3000 + i)
        enc = encode_circuit(lower(c))
        a = unitary_of(c)
        dim = 2 ** n
        for j in range(1, n + 1):
            for letter in "XZ":
                p0 = PauliTerm.single(n, j, letter)
                got = float(count(assemble_check(enc, p0)).value)
                p_mat = pauli_label_matrix(p0.label)
                want = (p_mat @ a @ p_mat @ a.conj().T).trace().real / dim
                assert abs(got - want) <= tol, (i, letter, j, got, want)
                checks += 1
        rng = random.Random(4000 + i)
        p0 = PauliTerm.single(n, rng.randint(1, n), rng.choice("XZ"))
        conj = a @ pauli_label_matrix(p0.label) @ a.conj().T
        coeffs = decompose_in_pauli_basis(conj)
        for _ in range(2):
            out_label = "".join(rng.choice("IXYZ") for _ in range(n))
            q = PauliTerm.from_label(out_label)
            got = float(count(assemble_check(enc, p0, q)).value)
            want = coeffs.get(out_label, 0.0)
            assert abs(got - want) <= tol, (i, p0.label, out_label)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"coefficient sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 (trace coefficients, {checks} checks, "
          f"{elapsed:.1f}s): PASS")


def test_acceptance_4_verdict_agreement():
    """300 seeded pairs (n in 2..4): half rewritten equivalents, half with
    an injected error; the verdict agrees with the dense-matrix oracle on
    every single pair."""
    t0 = time.perf_counter()
    kinds = ("equivalent", "remove_gate", "equivalent", "flip_cnot",
             "equivalent", "phase_shift")
    agree = 0
    for i in range(300):
        n = 2 + i % 3
        m = 6 + (i * 7) % 15
        case = kinds[i % 6]
        attempt = 0
        while True:
            seed = 8800 + 17 * i + attempt
            u = gen_random_universal(n, m, seed=seed)
            try:
                if case == "equivalent":
                    v = equivalent_variant(u, seed + 1)
                else:
                    v = inject_error(u, case, seed + 1, delta=1e-4)
                break
            except NoEligibleGateError:
                attempt += 1
        verdict = check_equivalence(u, v)
        assert verdict.status in (EQUIVALENT, NOT_EQUIVALENT), (i, case)
        same = equal_up_to_phase(unitary_of(u), unitary_of(v))
        expected = EQUIVALENT if same else NOT_EQUIVALENT
        assert verdict.status == expected, (i, case, verdict.status)
        agree += 1
    elapsed = time.perf_counter() - t0
    assert agree == 300
    print(f"ACCEPTANCE 4 (verdict agreement, {agree}/300, "
          f"{elapsed:.1f}s): PASS")


def test_acceptance_5_phase_sensitivity():
    """100 seeded pairs differing by a 1e-4 phase shift on one rotation:
    all flagged not_equivalent at the default epsilon of 1e-9.

    A 1e-4 shift moves a diagonal coefficient by about
    2 sin^2(5e-5) ~ 5e-9, so a 1e-6 tolerance cannot see it and a 1e-7
    shift (coefficient dent ~ 5e-15) is below any float tolerance; those
    two sweeps are reported here but not gated.
    """

    def pairs(delta):
        made, seed = 0, 5000
        while made < 100:
            n = 1 + made % 4
            m = 6 + (made * 7) % 15
            v = gen_random_universal(n, m, seed=seed)
            seed += 1
            try:
                u = inject_error(v, "phase_shift", seed=seed, delta=delta)
            except NoEligibleGateError:
                continue
            made += 1
            yield u, v

    t0 = time.perf_counter()
    detected = sum(
        check_equivalence(u, v).status == NOT_EQUIVALENT
        for u, v in pairs(1e-4)
    )
    assert detected == 100, f"only {detected}/100 detected at epsilon=1e-9"

    loose = CheckConfig(epsilon=1e-6)
    missed_loose = 0
    deviations = []
    for u, v in pairs(1e-4):
        verdict = check_equivalence(u, v, loose)
        if verdict.status == EQUIVALENT:
            missed_loose += 1
            deviations.append(
                max(abs(float(r.value) - 1.0) for r in verdict.checks)
            )
    detected_tiny = sum(
        check_equivalence(u, v).status == NOT_EQUIVALENT
        for u, v in pairs(1e-7)
    )
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 5 (phase sensitivity, 100/100 at epsilon=1e-9, "
          f"{elapsed:.1f}s): PASS")
    print(f"ACCEPTANCE 5 note: epsilon=1e-6 misses {missed_loose}/100 "
          f"of the same 1e-4 shifts "
          f"(max coefficient dent {max(deviations):.2e})")
    print(f"ACCEPTANCE 5 note: delta=1e-7 shifts detected in "
          f"{detected_tiny}/100 cases at epsilon=1e-9 "
          f"(dent ~5e-15 is below double rounding)")


def test_acceptance_6_counter_vs_brute_force():
    """1000 random weighted formulas (up to 20 variables, negative and
    ring-valued weights included): the counter and the enumeration oracle
    agree exactly in exact mode and to 1e-12 relative in float mode."""
    t0 = time.perf_counter()
    rng = random.Random(6000)
    exact_palette = [
        ExactWeight(-2, 0, 0), ExactWeight(-1, 0, 1), INV_SQRT2,
        ExactWeight(1, 1, 1), ExactWeight(3, -1, 2), ExactWeight(-1, 1, 0),
    ]
    for i in range(1000):
        exact_mode = i % 5 == 4
        nv = rng.randint(1, 12 if exact_mode else 20)
        ncl = rng.randint(0, min(2 * nv, 24))
        clauses = [
            tuple(rng.choice([1, -1]) * v
                  for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(ncl)
        ]
        weights = {}
        for v in range(1, nv + 1):
            if rng.random() < 0.4:
                if exact_mode:
                    weights[rng.choice([v, -v])] = rng.choice(exact_palette)
                else:
                    weights[rng.choice([v, -v])] = rng.choice(
                        [-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, rng.uniform(-2, 2)]
                    )
        f = WeightedCnf(
            num_vars=nv, clauses=clauses, weights=weights,
            mode="exact" if exact_mode else "float",
        )
        got = count(f).value
        want = brute_count(f)
        if exact_mode:
            assert got == want, (i, got, want)
        else:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (i, got, want)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 6 (counter vs brute force, 1000 formulas, "
          f"{elapsed:.1f}s): PASS")


def test_acceptance_7_encoding_size_linear():
    """Formula size is linear in gate count: least-squares slopes of mean
    variables and clauses over m = 10..200 (30 seeds per point, n = 3)
    agree between the two halves of the range to within 5%."""

    def ls_slope(xs, ys):
        mx, my = mean(xs), mean(ys)
        return (
            sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs)
        )

    t0 = time.perf_counter()
    ms = list(range(10, 201, 10))
    var_means, clause_means = [], []
    for m in ms:
        vs, cs = [], []
        for s in range(30):
            enc = encode_circuit(lower(gen_random_clifford_t(3, m, seed=7000 + s)))
            vs.append(enc.cnf.num_vars)
            cs.append(len(enc.cnf.clauses))
        var_means.append(mean(vs))
        clause_means.append(mean(cs))
    slopes = {}
    for label, ys in (("vars", var_means), ("clauses", clause_means)):
        full = ls_slope(ms, ys)
        lo = ls_slope(ms[:10], ys[:10])
        hi = ls_slope(ms[10:], ys[10:])
        rel = max(abs(lo - full), abs(hi - full)) / full
        assert rel <= 0.05, f"{label} slope drifts {rel:.1%} across the range"
        slopes[label] = full
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 7 (linear encoding size, "
          f"{slopes['vars']:.2f} vars/gate, "
          f"{slopes['clauses']:.2f} clauses/gate, {elapsed:.1f}s): PASS")


def test_acceptance_8_large_clifford_t():
    """n = 20, m = 200: a rewritten-equivalent pair settles all 40 checks
    inside 60s, and a flipped cnot is refuted inside 10s."""
    u = gen_random_clifford_t(20, 200, seed=88)
    v = equivalent_variant(u, seed=89)
    t0 = time.perf_counter()
    verdict = check_equivalence(u, v)
    same_elapsed = time.perf_counter() - t0
    assert verdict.status == EQUIVALENT
    assert verdict.mode == "exact"
    assert len(verdict.checks) == 40
    assert all(rec.status == "one" for rec in verdict.checks)
    assert same_elapsed < 60.0, f"equivalent pair took {same_elapsed:.1f}s"

    w = inject_error(u, "flip_cnot", seed=90)
    t0 = time.perf_counter()
    verdict = check_equivalence(u, w)
    flip_elapsed = time.perf_counter() - t0
    assert verdict.status == NOT_EQUIVALENT
    assert flip_elapsed < 10.0, f"flipped cnot took {flip_elapsed:.1f}s"
    print(f"ACCEPTANCE 8 (20 qubits x 200 gates, equivalent in "
          f"{same_elapsed:.1f}s, refuted in {flip_elapsed:.1f}s): PASS")


def _toffoli_compiled(a, b, c, t_on_a="t"):
    """The Toffoli with controls a, b and target c in 15 Clifford+T gates
    (Nielsen & Chuang, Fig. 4.9); t_on_a="tdg" breaks it on purpose."""
    return (
        gate("h", c), gate("cx", b, c), gate("tdg", c), gate("cx", a, c),
        gate("t", c), gate("cx", b, c), gate("tdg", c), gate("cx", a, c),
        gate("t", b), gate("t", c), gate("h", c), gate("cx", a, b),
        gate(t_on_a, a), gate("tdg", b), gate("cx", a, b),
    )


def test_acceptance_9_toffoli_compiled():
    """A native ccx against its Clifford+T compilation: alone on 3 qubits,
    and on permuted qubits inside a 5-qubit random Clifford+T circuit.  The
    faithful compilation is equivalent; with its `t` on the first control
    turned into `tdg` it is not.  Every label is confirmed by the dense
    oracle."""
    t0 = time.perf_counter()
    cases = []
    for t_on_a, want in (("t", EQUIVALENT), ("tdg", NOT_EQUIVALENT)):
        u = Circuit(3, (gate("ccx", 1, 2, 3),))
        v = Circuit(3, _toffoli_compiled(1, 2, 3, t_on_a))
        cases.append((u, v, want))
        before = gen_random_clifford_t(5, 12, seed=9090)
        after = gen_random_clifford_t(5, 12, seed=9091)
        u = concat(concat(before, Circuit(5, (gate("ccx", 4, 1, 5),))), after)
        v = concat(concat(before, Circuit(5, _toffoli_compiled(4, 1, 5, t_on_a))),
                   after)
        cases.append((u, v, want))
    for u, v, want in cases:
        same = equal_up_to_phase(unitary_of(u), unitary_of(v))
        assert same == (want == EQUIVALENT)
        verdict = check_equivalence(u, v)
        assert verdict.mode == "exact"
        assert verdict.status == want, (u.num_qubits, want, verdict.status)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"Toffoli-compiled pairs took {elapsed:.1f}s"
    print(f"ACCEPTANCE 9 (Toffoli against its Clifford+T form, "
          f"{len(cases)} pairs, {elapsed:.1f}s): PASS")
