"""Workloads of the verdict benchmark: pair generation, the timed ops and
the checks on their outputs.

A pair is two circuits handed to the program as OpenQASM text, with the
label its construction implies: `equivalent_variant` rewrites a circuit
without changing its unitary, and every error kind of `inject_error`
changes it.  Where the register is small enough for dense matrices, each
label is also confirmed once against the oracle while the pair is built,
so a wrong label can never pass for a wrong verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from paulimc.bench import (
    NoEligibleGateError,
    equivalent_variant,
    gen_random_clifford_t,
    gen_random_universal,
    inject_error,
)
from paulimc.circuits import adjoint, concat, lower, parse_qasm, to_qasm
from paulimc.counting import count
from paulimc.dimacs import load_cnf, save_cnf, sidecar_path
from paulimc.driver import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNKNOWN,
    CheckConfig,
    check_equivalence,
    check_order,
)
from paulimc.encoder import PauliTerm, assemble_check, encode_circuit
from paulimc.oracle import equal_up_to_phase, unitary_of
from paulimc.weights import value_is_one

ORACLE_MAX_QUBITS = 10
MAX_DRAWS = 10_000  # circuits drawn per pair before the generator is blamed

CLIFFORD_T_KINDS = ("equivalent", "remove_gate", "flip_cnot")
UNIVERSAL_KINDS = CLIFFORD_T_KINDS + ("phase_shift",)


class BenchmarkError(RuntimeError):
    """A wrong output: the run must fail rather than report numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    universal: bool  # gen_random_universal instead of gen_random_clifford_t
    qubits: int
    gates: int
    tail_pct: int  # the percentile reported as pair_tail_s
    encode_only: bool = False  # the `paulimc encode` path, no counting
    # (toffoli count, share) strata for universal circuits; empty = i.i.d.
    toffoli_mix: tuple[tuple[int, int], ...] = ()

    @property
    def kinds(self) -> tuple[str, ...]:
        return UNIVERSAL_KINDS if self.universal else CLIFFORD_T_KINDS

    def tiny(self) -> "Workload":
        """The same shape at a size that runs in well under a second."""
        mix = ((0, 1), (1, 1)) if self.toffoli_mix else ()
        return replace(self, qubits=3, gates=10, toffoli_mix=mix)


# Sizes are set so that a 25-second run completes 60 to 300 pairs; fewer
# pairs let the seed, not the program, decide the percentiles.  Each tail
# percentile left at least 14 ops beyond it in every such run measured.  The
# rotations workload draws its Toffoli counts from a fixed schedule: the
# count of ccx gates sets a pair's cost to within ~30% (each one doubles
# it), so i.i.d. draws would make the tail a lottery over seeds.  The
# shares are the generator's own: gen_random_universal makes each gate a
# ccx with probability 0.1, so at 12 gates the count is Binomial(12, 0.1),
# P = .282/.377/.230/.111 for 0/1/2/3-or-more, which is 5.9/7.9/4.8/2.3
# of 21, rounded to 6/8/5/2 with 3-or-more drawn as exactly 3.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clifft_deep", universal=False, qubits=7, gates=56,
                 tail_pct=80),
        Workload("rotations_float", universal=True, qubits=5, gates=12,
                 tail_pct=80,
                 toffoli_mix=((0, 6), (1, 8), (2, 5), (3, 2))),
        Workload("wide_shallow", universal=False, qubits=20, gates=40,
                 tail_pct=80),
        Workload("formula_io", universal=False, qubits=8, gates=48,
                 tail_pct=90, encode_only=True),
    )
}


@dataclass(frozen=True)
class Pair:
    index: int
    kind: str
    label: str  # EQUIVALENT or NOT_EQUIVALENT
    qubits: int
    u_qasm: str
    v_qasm: str


def _spread(mix: tuple[tuple[int, int], ...]) -> list[int]:
    """One cycle of the strata, interleaved so that every prefix of the
    cycle holds each stratum in close to its share."""
    total = sum(share for _, share in mix)
    taken = {value: 0 for value, _ in mix}
    out = []
    for i in range(1, total + 1):
        value = max(mix, key=lambda vs: i * vs[1] / total - taken[vs[0]])[0]
        taken[value] += 1
        out.append(value)
    return out


def pairs(w: Workload, seed: int):
    """Endless, deterministic stream of labelled pairs for one seed."""
    rng = random.Random(f"{w.name}:{seed}")
    generate = gen_random_universal if w.universal else gen_random_clifford_t
    toffolis = _spread(w.toffoli_mix) if w.toffoli_mix else None
    kinds = w.kinds
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        # every kind meets every stratum: the stratum advances per block
        want = toffolis[(i // len(kinds)) % len(toffolis)] if toffolis else None
        for _ in range(MAX_DRAWS):
            s = rng.getrandbits(48)
            u = generate(w.qubits, w.gates, s)
            if want is not None and sum(g.kind == "ccx" for g in u.gates) != want:
                continue
            try:
                if kind == "equivalent":
                    v = equivalent_variant(u, s + 1)
                else:
                    v = inject_error(u, kind, s + 1)
            except NoEligibleGateError:
                continue
            break
        else:
            raise BenchmarkError(f"{w.name}: no {kind} pair in {MAX_DRAWS} draws")
        label = EQUIVALENT if kind == "equivalent" else NOT_EQUIVALENT
        if w.qubits <= ORACLE_MAX_QUBITS:
            same = equal_up_to_phase(unitary_of(u), unitary_of(v))
            if same != (label == EQUIVALENT):
                raise BenchmarkError(
                    f"{w.name} pair {i}: the oracle contradicts label {label}"
                )
        yield Pair(i, kind, label, w.qubits, to_qasm(u), to_qasm(v))
        i += 1


def check_op(pair: Pair, span):
    """QASM text to Verdict, through the library's default CheckConfig."""
    with span("circuits.parse_qasm"):
        u = parse_qasm(pair.u_qasm)
        v = parse_qasm(pair.v_qasm)
    with span("driver.check_equivalence"):
        return check_equivalence(u, v)


def formula_paths(out_dir: Path, n: int) -> list[Path]:
    return [out_dir / f"{p.lower()}{q}.cnf" for p, q in check_order(n)]


def encode_op(pair: Pair, out_dir: Path, span):
    """The `paulimc encode` path: QASM text to 2n formula files, read back.
    Returns the lowered circuit and the (assembled, loaded) formulas in
    check order."""
    with span("circuits.parse_qasm"):
        u = parse_qasm(pair.u_qasm)
        v = parse_qasm(pair.v_qasm)
    with span("circuits.lower"):
        native = concat(lower(u), adjoint(lower(v)))
    with span("encoder.encode_circuit"):
        enc = encode_circuit(native)
    n = enc.num_qubits
    with span("encoder.assemble_check"):
        formulas = [
            assemble_check(enc, PauliTerm.single(n, q, p))
            for p, q in check_order(n)
        ]
    paths = formula_paths(out_dir, n)
    with span("dimacs.save_cnf"):
        for f, path in zip(formulas, paths):
            save_cnf(f, path)
    with span("dimacs.load_cnf"):
        loaded = [load_cnf(path) for path in paths]
    return native, formulas, loaded


def verdict_ok(pair: Pair, verdict) -> bool:
    """False for an unknown verdict; raises on a wrong one."""
    if verdict.status == UNKNOWN:
        return False
    if verdict.status != pair.label:
        raise BenchmarkError(
            f"pair {pair.index} ({pair.kind}): verdict {verdict.status}, "
            f"expected {pair.label}"
        )
    return True


def check_round_trip(pair: Pair, formulas, loaded) -> None:
    """Every formula read back must equal the one written, exactly."""
    for i, (f, g) in enumerate(zip(formulas, loaded, strict=True)):
        if (
            f.num_vars != g.num_vars
            or list(f.clauses) != list(g.clauses)
            or f.weights != g.weights
            or f.mode != g.mode
        ):
            raise BenchmarkError(
                f"pair {pair.index}: formula {i} changed in a save/load round trip"
            )


def replay(pair: Pair, verdict, tracer, out_dir: Path, stretches: list) -> None:
    """The pair again, serially, through each module's public functions:
    the encode path of `encode_op`, then `count` on each formula in turn.
    `verdict` is the driver's answer for the pair, or None when the op did
    not run the driver; then the replay runs it.  Appends to `stretches`
    each completed check's pooled seconds over its serial seconds."""
    add = tracer.add
    native, formulas, loaded = encode_op(pair, out_dir, tracer.span)
    check_round_trip(pair, formulas, loaded)
    n = pair.qubits
    add("circuits.native_gates", len(native.gates))
    for path in formula_paths(out_dir, n):
        side = sidecar_path(path)
        add("dimacs.bytes", path.stat().st_size
            + (side.stat().st_size if side.exists() else 0))
    epsilon = CheckConfig().epsilon
    serial_s = []
    all_one = True
    for f in formulas:
        add("encoder.literals", sum(map(len, f.clauses)))
        with tracer.span("counting.count") as s_cnt:
            res = count(f)
        serial_s.append(s_cnt.seconds)
        st = res.stats
        add("counting.decisions", st.decisions)
        add("counting.propagations", st.propagations)
        add("counting.cache_hits", st.cache_hits)
        add("counting.cache_stores", st.cache_stores)
        add("counting.zero_decision_counts", st.decisions == 0)
        all_one &= value_is_one(res.value, epsilon)
    if all_one != (pair.label == EQUIVALENT):
        raise BenchmarkError(
            f"pair {pair.index}: serial counts disagree with label {pair.label}"
        )
    if verdict is None:
        # under its own parent, so its parse does not add to the replay's
        with tracer.span("driver"):
            verdict = check_op(pair, tracer.span)
        if not verdict_ok(pair, verdict):
            add("failed_replays", 1)
            return
    if pair.label == EQUIVALENT:
        assembled = tracer.last("encoder.assemble_check").seconds
        add("driver.eq_serial_s", assembled + sum(serial_s))
        add("driver.eq_verdict_s", verdict.elapsed)
    witness_at = None
    if verdict.witness is not None:
        witness_at = check_order(n).index(
            (verdict.witness.pauli, verdict.witness.qubit)
        )
    for i, rec in enumerate(verdict.checks):
        if rec.status == "cancelled":
            add("driver.cancelled_checks", 1)
            continue
        if rec.status in ("one", "mismatch"):
            stretches.append(rec.seconds / serial_s[i])
        # a cancelled check reports no decisions, so this is a lower bound
        if witness_at is not None:
            add("driver.ne_decisions", rec.decisions)
            if i > witness_at:
                add("driver.wasted_decisions", rec.decisions)
