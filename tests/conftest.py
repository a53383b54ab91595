import math

from hypothesis import HealthCheck, settings, strategies as st

from paulimc.circuits import Circuit, Gate
from paulimc.cnf import WeightedCnf
from paulimc.weights import EXACT, FLOAT, HALF, INV_SQRT2, ExactWeight

# Property tests run circuit encodings and exhaustive enumerations whose
# wall time varies a lot between examples; the per-example deadline is more
# noise than protection here.
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# --------------------------------------------------------------------------
# weighted CNF strategies


@st.composite
def float_cnfs(draw, max_vars=12, max_clauses=30):
    nv = draw(st.integers(1, max_vars))
    n_clauses = draw(st.integers(0, max_clauses))
    lits = st.integers(1, nv).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = [
        tuple(draw(st.lists(lits, min_size=1, max_size=4)))
        for _ in range(n_clauses)
    ]
    weight_values = st.one_of(
        st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, 1.0 / math.sqrt(2.0)]),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    weights = draw(st.dictionaries(lits, weight_values, max_size=2 * nv))
    return WeightedCnf(num_vars=nv, clauses=clauses, weights=weights, mode=FLOAT)


@st.composite
def exact_cnfs(draw, max_vars=10, max_clauses=24):
    nv = draw(st.integers(1, max_vars))
    n_clauses = draw(st.integers(0, max_clauses))
    lits = st.integers(1, nv).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = [
        tuple(draw(st.lists(lits, min_size=1, max_size=4)))
        for _ in range(n_clauses)
    ]
    ring_values = st.sampled_from(
        [
            ExactWeight(1),
            ExactWeight(-1),
            ExactWeight(2),
            HALF,
            ExactWeight(-1, 0, 1),
            INV_SQRT2,
            ExactWeight(0, -1, 1),
            ExactWeight(1, 1, 1),
        ]
    )
    weights = draw(st.dictionaries(lits, ring_values, max_size=2 * nv))
    return WeightedCnf(num_vars=nv, clauses=clauses, weights=weights, mode=EXACT)


# --------------------------------------------------------------------------
# circuit strategies (native kinds only; arbitrary circuits go through
# lower() in the tests themselves)

_ONE_Q = ("h", "s", "sdg", "t", "tdg")


@st.composite
def native_circuits(draw, min_qubits=1, max_qubits=3, max_gates=10):
    n = draw(st.integers(min_qubits, max_qubits))
    num_gates = draw(st.integers(0, max_gates))
    gates = []
    for _ in range(num_gates):
        choices = list(_ONE_Q) + ["rx", "rz"]
        if n >= 2:
            choices.append("cz")
        if n >= 3:
            choices.append("ccx")
        kind = draw(st.sampled_from(choices))
        if kind == "cz":
            qs = tuple(draw(st.permutations(range(1, n + 1)))[:2])
        elif kind == "ccx":
            qs = tuple(draw(st.permutations(range(1, n + 1)))[:3])
        else:
            qs = (draw(st.integers(1, n)),)
        angle = None
        if kind in ("rx", "rz"):
            angle = draw(
                st.floats(0.05, 6.2, allow_nan=False, allow_infinity=False)
            )
        gates.append(Gate(kind, qs, angle))
    return Circuit(n, tuple(gates))


@st.composite
def full_gateset_circuits(draw, min_qubits=1, max_qubits=3, max_gates=10):
    """Circuits over the whole parseable gate set, pre-lowering."""
    n = draw(st.integers(min_qubits, max_qubits))
    num_gates = draw(st.integers(0, max_gates))
    gates = []
    for _ in range(num_gates):
        choices = list(_ONE_Q) + ["x", "y", "z", "rx", "rz", "p"]
        if n >= 2:
            choices += ["cx", "cz"]
        if n >= 3:
            choices.append("ccx")
        kind = draw(st.sampled_from(choices))
        arity = {"cx": 2, "cz": 2, "ccx": 3}.get(kind, 1)
        qs = tuple(draw(st.permutations(range(1, n + 1)))[:arity])
        angle = None
        if kind in ("rx", "rz", "p"):
            # mix pi/4 multiples (exactly representable paths) with
            # arbitrary angles (float paths)
            if draw(st.booleans()):
                angle = draw(st.integers(-8, 8)) * math.pi / 4.0
            else:
                angle = draw(
                    st.floats(0.05, 6.2, allow_nan=False, allow_infinity=False)
                )
        gates.append(Gate(kind, qs, angle))
    return Circuit(n, tuple(gates))
