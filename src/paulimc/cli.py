"""Command-line entry point.

Subcommands:
  check   <u.qasm> <v.qasm>   equivalence verdict via 2n weighted counts
  count   <file.cnf>          weighted model count of a DIMACS file
  encode  <u.qasm> <v.qasm>   write the 2n check formulas as DIMACS
  oracle check <u> <v>        dense-matrix verdict (small circuits only)
  bench   gen|inject          random circuits and error injection

Exit codes: 0 equivalent (or command succeeded), 1 not equivalent,
2 unknown/timeout, 3 usage, input or internal errors.  All failures print
a single `error: <code>: <detail>` line on stderr; an unexpected exception
is reported as `error: internal: <ExceptionType>: <detail>`, so a crash can
never be read as a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench
from .circuits import CircuitError, QasmParseError, parse_qasm, to_qasm
from .counting import DEFAULT_TIMEOUT, ResourceLimitError, count
from .dimacs import FormatError, load_cnf, save_cnf
from .driver import (
    DEFAULT_EPSILON,
    EQUIVALENT,
    NOT_EQUIVALENT,
    CheckConfig,
    QubitCountMismatchError,
    Verdict,
    check_encoding,
    check_order,
    identity_encoding,
    render_value,
)
from .encoder import PauliTerm, assemble_check
from .oracle import OracleError, TooManyQubitsError, equal_up_to_phase, unitary_of
from .weights import EXACT, as_float


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"error: usage: {message}\n")


# Ordered subclass-before-base so the first match is the most specific.
_ERROR_CODES = (
    (QasmParseError, "qasm-parse"),
    (QubitCountMismatchError, "qubit-count-mismatch"),
    (CircuitError, "circuit"),
    (FormatError, "cnf-format"),
    (TooManyQubitsError, "oracle-limit"),
    (OracleError, "oracle"),
    (bench.NoEligibleGateError, "no-eligible-gate"),
    (OSError, "io"),
    (ValueError, "usage"),
)


def _fail(code: str, detail: str) -> int:
    print(f"error: {code}: {detail}", file=sys.stderr)
    return 3


def _load_circuit(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise OSError(f"{path}: {e.strerror or e}") from e
    try:
        return parse_qasm(text)
    except QasmParseError as e:
        raise QasmParseError(f"{path}: {e}", None) from e


def _format_value(v) -> str:
    return "-" if v is None else str(render_value(v))


def _verdict_exit(status: str) -> int:
    if status == EQUIVALENT:
        return 0
    if status == NOT_EQUIVALENT:
        return 1
    return 2


def _print_verdict(v: Verdict) -> None:
    print(f"verdict: {v.status}")
    print(f"mode: {v.mode}")
    done = sum(1 for c in v.checks if c.status == "one")
    print(f"checks: {done} of {len(v.checks)} counted 1")
    print(f"elapsed: {v.elapsed:.3f}s")
    if v.witness is not None:
        w = v.witness
        print(f"witness: {w.pauli}{w.qubit} value={_format_value(w.value)}")
    for c in v.checks:
        if c.status != "one":
            if c.status == "mismatch":
                print(
                    f"check: {c.pauli}{c.qubit} status=mismatch "
                    f"value={_format_value(c.value)}"
                )
            else:
                print(f"check: {c.pauli}{c.qubit} status={c.status}")


def _write_check_files(enc, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for pauli, j in check_order(enc.num_qubits):
        formula = assemble_check(enc, PauliTerm.single(enc.num_qubits, j, pauli))
        path = out_dir / f"{pauli.lower()}{j}.cnf"
        save_cnf(formula, path)
        written.append(path)
    return written


def _cmd_check(args) -> int:
    u = _load_circuit(args.u)
    v = _load_circuit(args.v)
    config = CheckConfig(epsilon=args.epsilon, count_timeout=args.timeout)
    enc = identity_encoding(u, v)
    verdict = check_encoding(enc, config)
    if args.emit_dimacs is not None:
        written = _write_check_files(enc, Path(args.emit_dimacs))
        print(f"emitted: {len(written)} files to {args.emit_dimacs}", file=sys.stderr)
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2))
    else:
        _print_verdict(verdict)
    return _verdict_exit(verdict.status)


def _cmd_count(args) -> int:
    if not args.timeout > 0:  # as CheckConfig: nan fails too
        raise ValueError(f"timeout must be positive, got {args.timeout}")
    formula = load_cnf(args.cnf)
    try:
        result = count(formula, timeout=args.timeout)
    except ResourceLimitError:
        print(f"error: timeout: exceeded {args.timeout}s", file=sys.stderr)
        return 2
    print(f"count: {_format_value(result.value)}")
    if formula.mode == EXACT:
        print(f"float: {as_float(result.value)!r}")
    if args.stats:
        s = result.stats
        print(f"decisions: {s.decisions}")
        print(f"propagations: {s.propagations}")
        print(f"seconds: {s.seconds:.6f}")
        print(f"cache_hits: {s.cache_hits}")
        print(f"cache_stores: {s.cache_stores}")
    return 0


def _cmd_encode(args) -> int:
    enc = identity_encoding(_load_circuit(args.u), _load_circuit(args.v))
    written = _write_check_files(enc, Path(args.out))
    for path in written:
        print(f"wrote: {path}")
    return 0


def _cmd_oracle_check(args) -> int:
    u = _load_circuit(args.u)
    v = _load_circuit(args.v)
    if u.num_qubits != v.num_qubits:
        raise QubitCountMismatchError(
            f"{u.num_qubits}-qubit circuit vs {v.num_qubits}-qubit circuit"
        )
    same = equal_up_to_phase(unitary_of(u), unitary_of(v))
    print(f"verdict: {EQUIVALENT if same else NOT_EQUIVALENT}")
    return 0 if same else 1


def _cmd_bench_gen(args) -> int:
    if args.universal:
        c = bench.gen_random_universal(args.qubits, args.gates, args.seed)
    else:
        c = bench.gen_random_clifford_t(args.qubits, args.gates, args.seed)
    Path(args.out).write_text(to_qasm(c))
    print(f"wrote: {args.out}")
    return 0


def _cmd_bench_inject(args) -> int:
    c = _load_circuit(args.circuit)
    mutated = bench.inject_error(c, args.kind, args.seed, delta=args.delta)
    Path(args.out).write_text(to_qasm(mutated))
    print(f"wrote: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="paulimc",
                     description="circuit equivalence via weighted model counting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide equivalence of two circuits")
    p.add_argument("u", help="first circuit (OpenQASM 2)")
    p.add_argument("v", help="second circuit (OpenQASM 2)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="float-mode tolerance for count == 1")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                   help="per-count time budget in seconds")
    p.add_argument("--json", action="store_true", help="full JSON report")
    p.add_argument("--emit-dimacs", metavar="DIR", default=None,
                   help="also write the 2n check formulas to DIR")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("count", help="weighted model count of a DIMACS file")
    p.add_argument("cnf", help="weighted DIMACS file (.weights.json honored)")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--stats", action="store_true", help="print engine counters")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("encode", help="write the check formulas without counting")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("oracle", help="dense-matrix reference commands")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    oc = oracle_sub.add_parser("check", help="matrix-level equivalence verdict")
    oc.add_argument("u")
    oc.add_argument("v")
    oc.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("bench", help="random circuits and error injection")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    bg = bench_sub.add_parser("gen", help="write a random circuit")
    bg.add_argument("--qubits", type=int, required=True)
    bg.add_argument("--gates", type=int, required=True)
    bg.add_argument("--seed", type=int, required=True)
    bg.add_argument("--universal", action="store_true",
                    help="include rotations and Toffolis")
    bg.add_argument("--out", required=True)
    bg.set_defaults(func=_cmd_bench_gen)

    bi = bench_sub.add_parser("inject", help="mutate one gate of a circuit")
    bi.add_argument("circuit")
    bi.add_argument("--kind", choices=bench.ERROR_KINDS, required=True)
    bi.add_argument("--seed", type=int, required=True)
    bi.add_argument("--delta", type=float, default=bench.DEFAULT_DELTA,
                    help="angle perturbation for phase_shift")
    bi.add_argument("--out", required=True)
    bi.set_defaults(func=_cmd_bench_inject)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        for cls, code in _ERROR_CODES:
            if isinstance(e, cls):
                return _fail(code, str(e))
        return _fail("internal", f"{type(e).__name__}: {e}")


if __name__ == "__main__":
    sys.exit(main())
