"""The verdict path runs without numpy.

Importing the package, checking exact and float pairs and the `check`,
`encode` and `count` commands must leave numpy unloaded; only the dense
oracle and brute_count load it, when called.  The probe runs in a fresh
interpreter, since the test session itself has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'

PROBE = """
import sys

def assert_no_numpy(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"

import paulimc, paulimc.cli
assert_no_numpy("import paulimc, paulimc.cli")

from paulimc.circuits import parse_qasm
from paulimc.driver import check_equivalence

paths = sys.argv[1:]
exact_u, exact_v, float_u, float_v = (
    parse_qasm(open(p).read()) for p in paths
)
verdict = check_equivalence(exact_u, exact_v)
assert (verdict.status, verdict.mode) == ("equivalent", "exact"), verdict
assert_no_numpy("check_equivalence on an exact pair")
verdict = check_equivalence(float_u, float_v)
assert (verdict.status, verdict.mode) == ("equivalent", "float"), verdict
assert_no_numpy("check_equivalence on a float pair")

assert paulimc.cli.main(["check", paths[0], paths[1]]) == 0
assert_no_numpy("cli.main check")
assert paulimc.cli.main(["encode", paths[2], paths[3], "--out", "f"]) == 0
assert paulimc.cli.main(["count", "f/x1.cnf"]) == 0
assert_no_numpy("cli.main encode and count")

from paulimc.oracle import equal_up_to_phase, unitary_of
assert equal_up_to_phase(unitary_of(exact_u), unitary_of(exact_v))
assert "numpy" in sys.modules
print("probe ok")
"""


def test_verdict_path_never_loads_numpy(tmp_path):
    bodies = {
        "exact_u": "t q[0];\nt q[0];\ncx q[0],q[1];\nh q[1];\n",
        "exact_v": "s q[0];\ncx q[0],q[1];\nh q[1];\n",
        "float_u": "rz(0.3) q[0];\nrx(0.7) q[1];\ncz q[0],q[1];\n",
        "float_v": "rx(0.7) q[1];\nrz(0.3) q[0];\ncz q[0],q[1];\n",
    }
    paths = []
    for name, body in bodies.items():
        path = tmp_path / f"{name}.qasm"
        path.write_text(HEADER + body)
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *paths],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("probe ok")
