"""Circuit equivalence up to global phase, decided by weighted model counting.

The pipeline: parse/lower circuits to the native gate set (circuits),
compile conjugation semantics to weighted CNF (encoder), count models with
an exact DPLL engine (counting, weights), and wrap 2n counts into a verdict
(driver).  A dense-matrix oracle (oracle) provides the independent
small-scale reference, dimacs the file format, bench the random-circuit
and error-injection harness.
"""

from .circuits import (
    Circuit,
    CircuitError,
    Gate,
    MeasurementNotSupportedError,
    QasmParseError,
    UnsupportedGateError,
    adjoint,
    concat,
    gate,
    lower,
    parse_qasm,
    to_qasm,
)
from .cnf import WeightedCnf
from .counting import (
    CountResult,
    CountStats,
    ResourceLimitError,
    TooManyVariablesError,
    brute_count,
    count,
)
from .dimacs import FormatError, emit, load_cnf, parse, save_cnf
from .driver import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNKNOWN,
    CheckConfig,
    CheckRecord,
    QubitCountMismatchError,
    Verdict,
    Witness,
    check_equivalence,
    check_order,
)
from .encoder import (
    EncodedCircuit,
    NonNativeGateError,
    PauliTerm,
    assemble_check,
    encode_circuit,
)
from .oracle import (
    OracleError,
    TooManyQubitsError,
    decompose_in_pauli_basis,
    equal_up_to_phase,
    pauli_coefficient,
    unitary_of,
)
from .weights import (
    EXACT,
    FLOAT,
    ExactWeight,
    ModeMismatchError,
    as_float,
    parse_exact,
    serialize_exact,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitError",
    "Gate",
    "MeasurementNotSupportedError",
    "QasmParseError",
    "UnsupportedGateError",
    "adjoint",
    "concat",
    "gate",
    "lower",
    "parse_qasm",
    "to_qasm",
    "WeightedCnf",
    "CountResult",
    "CountStats",
    "ResourceLimitError",
    "TooManyVariablesError",
    "brute_count",
    "count",
    "FormatError",
    "emit",
    "load_cnf",
    "parse",
    "save_cnf",
    "EQUIVALENT",
    "NOT_EQUIVALENT",
    "UNKNOWN",
    "CheckConfig",
    "CheckRecord",
    "QubitCountMismatchError",
    "Verdict",
    "Witness",
    "check_equivalence",
    "check_order",
    "EncodedCircuit",
    "NonNativeGateError",
    "PauliTerm",
    "assemble_check",
    "encode_circuit",
    "OracleError",
    "TooManyQubitsError",
    "decompose_in_pauli_basis",
    "equal_up_to_phase",
    "pauli_coefficient",
    "unitary_of",
    "EXACT",
    "FLOAT",
    "ExactWeight",
    "ModeMismatchError",
    "as_float",
    "parse_exact",
    "serialize_exact",
    "__version__",
]
