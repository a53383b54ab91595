"""Weighted CNF container shared by the encoder, the counters and the
DIMACS reader/writer.

Variables are positive ints 1..num_vars.  A clause is a tuple of nonzero
literals.  `weights` maps a *literal* (positive or negative int) to its
weight; any literal absent from the map weighs 1.  Weights are either all
floats or all ExactWeight values -- `mode` records which, and the counters
refuse mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .weights import EXACT, FLOAT, ONE, ExactWeight, ModeMismatchError

Weight = Union[float, ExactWeight]


@dataclass
class WeightedCnf:
    num_vars: int
    clauses: list[tuple[int, ...]] = field(default_factory=list)
    weights: dict[int, Weight] = field(default_factory=dict)
    mode: str = FLOAT

    def __post_init__(self) -> None:
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.num_vars < 0:
            raise ValueError("negative num_vars")

    def validate(self) -> None:
        """Check literal ranges and weight/mode consistency; raise on bad."""
        for clause in self.clauses:
            for lit in clause:
                v = abs(lit)
                if lit == 0 or v > self.num_vars:
                    raise ValueError(f"literal {lit} out of range in {clause}")
        for lit, w in self.weights.items():
            v = abs(lit)
            if lit == 0 or v > self.num_vars:
                raise ValueError(f"weighted literal {lit} out of range")
            if self.mode == EXACT and not isinstance(w, ExactWeight):
                raise ModeMismatchError(f"float weight {w!r} in exact formula")
            if self.mode == FLOAT and isinstance(w, ExactWeight):
                raise ModeMismatchError(f"exact weight {w!r} in float formula")

    def weight_of(self, lit: int) -> Weight:
        w = self.weights.get(lit)
        if w is not None:
            return w
        return ONE if self.mode == EXACT else 1.0
