"""Helpers shared across the test suite.

enumerate_weighted_count() is a third, from-scratch weighted model counter
used to cross-check both paulimc.counting.count (the DPLL engine) and
paulimc.counting.brute_count (the vectorized enumerator).  It shares no
code with either: assignments come straight from itertools.product and the
weight of each model is multiplied out literal by literal, which is the
definition.  Slow, and that is fine -- tests keep it under ~16 variables.
"""

from __future__ import annotations

import itertools
import math

from paulimc.weights import EXACT, ExactWeight


def clause_satisfied(clause, bits) -> bool:
    for lit in clause:
        value = bits[abs(lit) - 1]
        if value if lit > 0 else not value:
            return True
    return False


def enumerate_weighted_count(f):
    """Sum of per-model weight products over every full assignment."""
    exact = f.mode == EXACT
    total = ExactWeight(0) if exact else None
    float_terms = []
    for bits in itertools.product((False, True), repeat=f.num_vars):
        if not all(clause_satisfied(c, bits) for c in f.clauses):
            continue
        if exact:
            w = ExactWeight(1)
            for v in range(1, f.num_vars + 1):
                w = w * f.weight_of(v if bits[v - 1] else -v)
            total = total + w
        else:
            w = 1.0
            for v in range(1, f.num_vars + 1):
                w *= float(f.weight_of(v if bits[v - 1] else -v))
            float_terms.append(w)
    return total if exact else math.fsum(float_terms)


def values_close(a, b, tol=1e-12) -> bool:
    """Tolerant comparison of two counts that may be exact or float."""
    fa = float(a)
    fb = float(b)
    return abs(fa - fb) <= tol * max(1.0, abs(fa), abs(fb))
