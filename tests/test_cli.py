import json
from pathlib import Path

import pytest

from paulimc.bench import gen_random_universal, inject_error
from paulimc.circuits import Circuit, gate, parse_qasm, to_qasm
from paulimc.cli import main

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def qasm_file(tmp_path, name, n, body=""):
    path = tmp_path / name
    path.write_text(f"{HEADER}qreg q[{n}];\n{body}")
    return str(path)


@pytest.fixture
def tt_and_s(tmp_path):
    u = qasm_file(tmp_path, "tt.qasm", 1, "t q[0];\nt q[0];\n")
    v = qasm_file(tmp_path, "s.qasm", 1, "s q[0];\n")
    return u, v


# ------------------------------------------------------------------- check

def test_check_equivalent(tt_and_s, capsys):
    u, v = tt_and_s
    assert main(["check", u, v]) == 0
    out = capsys.readouterr().out
    assert "verdict: equivalent" in out
    assert "mode: exact" in out
    assert "checks: 2 of 2 counted 1" in out


def test_check_not_equivalent_prints_witness(tmp_path, capsys):
    u = qasm_file(tmp_path, "x.qasm", 1, "x q[0];\n")
    v = qasm_file(tmp_path, "id.qasm", 1)
    assert main(["check", u, v]) == 1
    out = capsys.readouterr().out
    assert "verdict: not_equivalent" in out
    assert "witness: Z1 value=(-1+0*sqrt2)/2^0" in out
    assert "check: Z1 status=mismatch" in out


def test_check_json_report(tt_and_s, capsys):
    u, v = tt_and_s
    assert main(["check", u, v, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "equivalent"
    assert report["mode"] == "exact"
    assert report["witness"] is None
    assert len(report["checks"]) == 2
    assert {c["pauli"] for c in report["checks"]} == {"X", "Z"}


def test_check_emit_dimacs_writes_formulas(tt_and_s, tmp_path, capsys):
    u, v = tt_and_s
    out_dir = tmp_path / "formulas"
    assert main(["check", u, v, "--emit-dimacs", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert f"emitted: 2 files to {out_dir}" in captured.err
    assert (out_dir / "x1.cnf").exists()
    assert (out_dir / "z1.cnf").exists()
    # the emitted formula must itself count to 1
    assert main(["count", str(out_dir / "x1.cnf")]) == 0
    assert "count: (1+0*sqrt2)/2^0" in capsys.readouterr().out


def test_check_emit_dimacs_matches_encode(tmp_path, capsys):
    # `check` writes the formulas of the encoding it counted; they must be
    # the very files `encode` writes for the same pair
    u = qasm_file(tmp_path, "u.qasm", 3,
                  "h q[0];\nt q[1];\ncx q[0],q[2];\nccx q[0],q[1],q[2];\n")
    v = qasm_file(tmp_path, "v.qasm", 3, "h q[0];\ntdg q[1];\ncx q[0],q[2];\n")
    emitted = tmp_path / "emitted"
    encoded = tmp_path / "encoded"
    assert main(["check", u, v, "--emit-dimacs", str(emitted)]) == 1
    assert main(["encode", u, v, "--out", str(encoded)]) == 0
    names = sorted(p.name for p in encoded.iterdir())
    assert len(names) == 12  # six formulas, each with its exact-weight sidecar
    assert sorted(p.name for p in emitted.iterdir()) == names
    for name in names:
        assert (emitted / name).read_bytes() == (encoded / name).read_bytes()


def test_check_epsilon_flag_changes_the_verdict(tmp_path, capsys):
    v_circ = gen_random_universal(2, 12, seed=2)
    u_circ = inject_error(v_circ, "phase_shift", seed=102, delta=1e-4)
    u = tmp_path / "u.qasm"
    v = tmp_path / "v.qasm"
    u.write_text(to_qasm(u_circ))
    v.write_text(to_qasm(v_circ))
    assert main(["check", str(u), str(v)]) == 1
    capsys.readouterr()
    assert main(["check", str(u), str(v), "--epsilon", "1e-6"]) == 0


def test_check_timeout_exits_two(tmp_path, capsys):
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
    from paulimc.circuits import adjoint, concat

    a = concat(w, adjoint(w))
    u = tmp_path / "heavy.qasm"
    u.write_text(to_qasm(a))
    v = qasm_file(tmp_path, "id3.qasm", 3)
    assert main(["check", str(u), v, "--timeout", "1e-7"]) == 2
    out = capsys.readouterr().out
    assert "verdict: unknown" in out
    assert "status=timeout" in out


def test_check_qubit_count_mismatch(tmp_path, capsys):
    u = qasm_file(tmp_path, "one.qasm", 1)
    v = qasm_file(tmp_path, "two.qasm", 2)
    assert main(["check", u, v]) == 3
    err = capsys.readouterr().err
    assert "error: qubit-count-mismatch: 1-qubit circuit vs 2-qubit circuit" in err


def test_check_missing_file(tmp_path, capsys):
    v = qasm_file(tmp_path, "v.qasm", 1)
    assert main(["check", str(tmp_path / "absent.qasm"), v]) == 3
    assert "error: io: " in capsys.readouterr().err


def test_check_qasm_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text(f"{HEADER}qreg q[1];\nbogus q[0];\n")
    v = qasm_file(tmp_path, "v.qasm", 1)
    assert main(["check", str(bad), v]) == 3
    err = capsys.readouterr().err
    assert "error: qasm-parse: " in err
    assert "bad.qasm" in err
    assert "line 4" in err


# ------------------------------------------------------------------- count

def test_count_exact_golden(capsys):
    golden = Path(__file__).parent / "golden" / "x1.cnf"
    assert main(["count", str(golden)]) == 0
    out = capsys.readouterr().out
    assert "count: (1+0*sqrt2)/2^0" in out
    assert "float: 1.0" in out


def test_count_float_file(tmp_path, capsys):
    # the three-variable worked instance: count = 1/2
    path = tmp_path / "half.cnf"
    path.write_text(
        "p cnf 3 2\n"
        "c p weight 1 -2 0\n"
        "c p weight -1 3 0\n"
        "c p weight 2 0.5 0\n"
        "c p weight -2 2 0\n"
        "2 0\n"
        "3 0\n"
    )
    assert main(["count", str(path)]) == 0
    out = capsys.readouterr().out
    assert "count: 0.5" in out
    assert "float:" not in out


def test_count_stats_flag(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    assert main(["count", str(path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "count: 3.0" in out
    for field in ("decisions:", "propagations:", "seconds:",
                  "cache_hits:", "cache_stores:"):
        assert field in out


def test_count_timeout_exits_two(tmp_path, capsys):
    import random

    rng = random.Random(5)
    clauses = [
        tuple(rng.choice([1, -1]) * v for v in rng.sample(range(1, 21), 3))
        for _ in range(85)
    ]
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    path = tmp_path / "hard.cnf"
    path.write_text(f"p cnf 20 {len(clauses)}\n{body}")
    assert main(["count", str(path), "--timeout", "1e-7"]) == 2
    assert "error: timeout: exceeded" in capsys.readouterr().err


def test_count_bad_format(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 1 1\n1\n")
    assert main(["count", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error: cnf-format: " in err
    assert "not 0-terminated" in err


# ------------------------------------------------------------------ encode

def test_encode_writes_all_check_formulas(tmp_path, capsys):
    u = qasm_file(tmp_path, "u.qasm", 2, "cx q[0],q[1];\n")
    v = qasm_file(tmp_path, "v.qasm", 2, "cx q[0],q[1];\n")
    out_dir = tmp_path / "enc"
    assert main(["encode", u, v, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    names = ["x1.cnf", "z1.cnf", "x2.cnf", "z2.cnf"]
    for name in names:
        assert (out_dir / name).exists()
        assert f"wrote: {out_dir / name}" in out
    assert main(["count", str(out_dir / "z2.cnf")]) == 0
    assert "count: (1+0*sqrt2)/2^0" in capsys.readouterr().out


# ------------------------------------------------------------------ oracle

def test_oracle_check_equivalent(tt_and_s, capsys):
    u, v = tt_and_s
    assert main(["oracle", "check", u, v]) == 0
    assert "verdict: equivalent" in capsys.readouterr().out


def test_oracle_check_not_equivalent(tmp_path, capsys):
    u = qasm_file(tmp_path, "t.qasm", 1, "t q[0];\n")
    v = qasm_file(tmp_path, "id.qasm", 1)
    assert main(["oracle", "check", u, v]) == 1
    assert "verdict: not_equivalent" in capsys.readouterr().out


# ------------------------------------------------------------------- bench

def test_bench_gen_writes_parseable_circuit(tmp_path, capsys):
    out = tmp_path / "c.qasm"
    argv = ["bench", "gen", "--qubits", "2", "--gates", "12",
            "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    assert f"wrote: {out}" in capsys.readouterr().out
    c = parse_qasm(out.read_text())
    assert c.num_qubits == 2
    assert len(c.gates) == 12
    first = out.read_text()
    assert main(argv) == 0
    assert out.read_text() == first  # same seed, same file


def test_bench_inject_remove_gate(tmp_path, capsys):
    src = tmp_path / "c.qasm"
    main(["bench", "gen", "--qubits", "2", "--gates", "10",
          "--seed", "3", "--out", str(src)])
    capsys.readouterr()
    out = tmp_path / "mut.qasm"
    assert main(["bench", "inject", str(src), "--kind", "remove_gate",
                 "--seed", "1", "--out", str(out)]) == 0
    assert len(parse_qasm(out.read_text()).gates) == 9


def test_bench_inject_no_eligible_gate(tmp_path, capsys):
    src = qasm_file(tmp_path, "h.qasm", 2, "h q[0];\n")
    code = main(["bench", "inject", src, "--kind", "flip_cnot",
                 "--seed", "1", "--out", str(tmp_path / "o.qasm")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: no-eligible-gate: " in err
    assert "flip_cnot" in err


# -------------------------------------------------------------------- usage

def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
    assert "error: usage: " in capsys.readouterr().err


def test_unknown_subcommand_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_bad_flag_value_exits_three(tt_and_s, capsys):
    u, v = tt_and_s
    with pytest.raises(SystemExit) as exc:
        main(["check", u, v, "--timeout", "lots"])
    assert exc.value.code == 3


def test_internal_error_exits_three_not_a_verdict(tt_and_s, monkeypatch, capsys):
    # exit 1 means "not equivalent", so a crash must never surface as a
    # bare traceback with Python's default exit status
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("paulimc.cli.check_encoding", crash)
    u, v = tt_and_s
    assert main(["check", u, v]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: internal: RecursionError: maximum recursion depth exceeded"
    ]


def test_negative_epsilon_is_a_usage_error(tt_and_s, capsys):
    u, v = tt_and_s
    assert main(["check", u, v, "--epsilon", "-1"]) == 3
    assert "error: usage: " in capsys.readouterr().err
