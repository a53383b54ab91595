"""Weighted DIMACS text format, plus a JSON sidecar for exact weights.

Layout emitted:

    p cnf <num_vars> <num_clauses>
    c p weight <lit> <weight> 0        (one line per literal with weight != 1)
    <lit> <lit> ... 0                  (one clause per line)

Weight lines come before clauses, ordered by variable and positive literal
first; weights print with 17 significant digits so doubles round-trip.
The emission is byte-stable for a fixed formula, which the golden-file
tests rely on.

Exact (ring-valued) weights cannot survive a decimal rendering, so
save_cnf() writes `<stem>.weights.json` next to an exact formula with the
(a, b, k) integer triples, one per line; load_cnf() picks the sidecar up
again and rejects a sidecar whose mode is not "exact", a literal out of
range and an entry that is not three integers.  parse() alone always
yields a float-mode formula.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .cnf import WeightedCnf
from .weights import EXACT, FLOAT, ExactWeight


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _format_weight(w) -> str:
    return f"{float(w):.17g}"


def emit(f: WeightedCnf) -> str:
    f.validate()
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    nonunit = []
    for lit, w in f.weights.items():
        if isinstance(w, ExactWeight):
            if w.is_one():
                continue
        elif w == 1.0:
            continue
        nonunit.append(lit)
    nonunit.sort(key=lambda lit: (abs(lit), lit < 0))
    for lit in nonunit:
        lines.append(f"c p weight {lit} {_format_weight(f.weights[lit])} 0")
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse(text: str) -> WeightedCnf:
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    weights: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            fields = line.split()
            if len(fields) >= 2 and fields[1] == "p":
                # weight annotation, not a free-form comment
                if len(fields) != 6 or fields[2] != "weight" or fields[5] != "0":
                    raise FormatError(f"malformed weight line {raw!r}", lineno)
                try:
                    lit = int(fields[3])
                    w = float(fields[4])
                except ValueError as exc:
                    raise FormatError(str(exc), lineno) from exc
                if not math.isfinite(w):
                    raise FormatError(f"weight {fields[4]} is not finite", lineno)
                if num_vars is None:
                    raise FormatError("weight line before header", lineno)
                if lit == 0 or abs(lit) > num_vars:
                    raise FormatError(f"weighted literal {lit} out of range", lineno)
                if lit in weights:
                    raise FormatError(f"duplicate weight for literal {lit}", lineno)
                weights[lit] = w
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise FormatError("second header", lineno)
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise FormatError(f"bad header {raw!r}", lineno)
            try:
                num_vars = int(fields[2])
                declared_clauses = int(fields[3])
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from exc
            if num_vars < 0 or declared_clauses < 0:
                raise FormatError("negative counts in header", lineno)
            continue
        if num_vars is None:
            raise FormatError("clause before header", lineno)
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise FormatError(f"bad clause line {raw!r}", lineno) from exc
        if not lits or lits[-1] != 0:
            raise FormatError("clause line not 0-terminated", lineno)
        body = lits[:-1]
        if any(lit == 0 for lit in body):
            raise FormatError("literal 0 inside clause", lineno)
        if any(abs(lit) > num_vars for lit in body):
            raise FormatError("literal out of declared range", lineno)
        clauses.append(tuple(body))
    if num_vars is None:
        raise FormatError("missing 'p cnf' header")
    if len(clauses) != declared_clauses:
        raise FormatError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return WeightedCnf(
        num_vars=num_vars, clauses=clauses, weights=weights, mode=FLOAT
    )


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".weights.json")


def save_cnf(f: WeightedCnf, path) -> Path:
    """Write `path` (text format above); exact weights also get a sidecar.
    Returns the path written."""
    path = Path(path)
    path.write_text(emit(f), encoding="ascii")
    side = sidecar_path(path)
    if f.mode == EXACT:
        rows = ",\n".join(f'"{lit}": [{w.a}, {w.b}, {w.k}]'
                           for lit, w in f.weights.items())
        side.write_text('{"mode": "exact", "weights": {\n' + rows + "\n}}\n",
                        encoding="ascii")
    elif side.exists():
        os.remove(side)  # don't leave a stale sidecar lying next to floats
    return path


def load_cnf(path) -> WeightedCnf:
    path = Path(path)
    f = parse(path.read_text(encoding="ascii"))
    side = sidecar_path(path)
    if not side.exists():
        return f
    try:
        payload = json.loads(side.read_text(encoding="ascii"))
        if type(payload) is not dict:
            raise ValueError(f"not a JSON object: {payload!r:.40}")
        for key in ("mode", "weights"):
            if key not in payload:
                raise ValueError(f"missing key {key!r}")
        if payload["mode"] != EXACT:
            raise ValueError(f"mode is {payload['mode']!r}, not {EXACT!r}")
        if type(payload["weights"]) is not dict:
            raise ValueError(f"weights is not an object: {payload['weights']!r:.40}")
        exact_weights = {}
        for lit, abk in payload["weights"].items():
            if not lit.removeprefix("-").isdecimal():
                raise ValueError(f"key {lit!r} is not a literal")
            if type(abk) is not list or [type(v) for v in abk] != [int] * 3:
                raise ValueError(f"weight of {lit} is not three integers: {abk!r:.40}")
            exact_weights[int(lit)] = ExactWeight(*abk)
    except ValueError as exc:
        raise FormatError(f"bad weight sidecar {side.name}: {exc}") from exc
    for lit in f.weights:
        if lit not in exact_weights:
            raise FormatError(
                f"cnf file weights literal {lit} but the sidecar does not"
            )
    for lit, w in exact_weights.items():
        if lit == 0 or abs(lit) > f.num_vars:
            raise FormatError(f"sidecar literal {lit} out of range")
        approx = f.weights.get(lit, 1.0)
        if abs(float(w) - approx) > 1e-9 * max(1.0, abs(approx)):
            raise FormatError(
                f"sidecar weight for literal {lit} disagrees with the cnf file"
            )
    f.weights = dict(exact_weights)
    f.mode = EXACT
    return f
