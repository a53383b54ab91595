"""Exact weighted model counting with negative and irrational weights.

count() is a DPLL-style counter: unit propagation, branching on the
lowest unassigned variable, and a cache of residual-formula counts.  It
works on any WeightedCnf; on the layered formulas the encoder produces,
the residual cache is what turns the exponential branch tree over T/h
variables into a sweep over distinct reachable Pauli states.  The search
is one loop over an explicit stack of open decisions, so a deep circuit
is not limited by Python's recursion limit.

PreparedCnf(f) does once what depends on f alone: validation,
normalization, occurrence and weight tables.  Its count(units) runs one
search, with its own cache, statistics and deadline, on f plus the unit
literals `units`, queued ahead of f's own unit clauses; search and
statistics are those of count() on f with those unit clauses placed first.
The 2n equivalence checks differ only in 4n unit literals, so the driver
prepares one formula per verdict.  count(f) is PreparedCnf(f).count().

The residual is not split into connected components, as general-purpose
counters do.  Counts are exact either way; only the number of decisions
can differ.

The count is over *all* declared variables: a variable that drops out of
the residual without being assigned contributes the factor
W(v) + W(not v) (which is 2 for an unweighted variable, per the semantics
of counting over the full assignment space).  brute_count() enumerates
assignments directly and exists so the clever counter has something dumb
to be checked against.  Counting imports no numpy; brute_count() loads it
when called.

Pure-literal elimination is deliberately absent: with negative and
fractional weights, discarding one phase of a variable changes the count.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from hashlib import blake2b

from .cnf import WeightedCnf
from .weights import EXACT, ONE, ZERO, ExactWeight

MAX_BRUTE_VARS = 24
DEFAULT_TIMEOUT = 300.0
DEFAULT_CACHE_CAP = 400_000  # residual-count entries, cleared when exceeded


class ResourceLimitError(RuntimeError):
    """Timeout or memory budget exceeded; never a silently wrong count."""


class TooManyVariablesError(ValueError):
    pass


@dataclass
class CountStats:
    decisions: int = 0
    propagations: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    cache_stores: int = 0


@dataclass
class CountResult:
    value: object  # float or ExactWeight, matching the formula's mode
    stats: CountStats


def _normalize(f: WeightedCnf) -> tuple[list[tuple[int, ...]], bool]:
    """Sort/dedup literals per clause, drop tautologies and repeated
    clauses.  Returns (clauses, saw_empty_clause)."""
    seen = set()
    out = []
    empty = False
    for clause in f.clauses:
        lits = tuple(sorted(set(clause)))
        if not lits:
            empty = True
            continue
        taut = False
        for lit in lits:
            if -lit in clause:
                taut = True
                break
        if taut or lits in seen:
            continue
        seen.add(lits)
        out.append(lits)
    return out, empty


class PreparedCnf:
    """A formula made ready to count: validated and normalized, with its
    occurrence lists and weight table built.  count(units) counts it with
    extra unit literals; one preparation serves any number of counts."""

    def __init__(self, f: WeightedCnf):
        f.validate()
        self.num_vars = nv = f.num_vars
        exact = f.mode == EXACT
        if exact:
            self.one = one = ONE
            self.zero = ZERO
        else:
            self.one = one = 1.0
            self.zero = 0.0
        self.clauses, self.saw_empty = _normalize(f)
        occ_lists: list[list[int]] = [[] for _ in range(nv + 1)]
        for cid, clause in enumerate(self.clauses):
            for lit in clause:
                occ_lists[abs(lit)].append(cid)
        self.occ = [tuple(ids) for ids in occ_lists]
        # a normalized clause holds each variable at most once, so occn[v]
        # counts the clauses containing v
        self.occn = array("i", [len(ids) for ids in occ_lists])
        self.absent = [v for v in range(1, nv + 1) if self.occn[v] == 0]
        self.units = [c[0] for c in self.clauses if len(c) == 1]
        # The literals whose weight is not 1, with None marking weight 0.
        # nonunit.get(lit, one) returns the very object `one` for every
        # other literal, so an assignment of weight 1 costs no product.
        self.nonunit: dict[int, object] = {}
        for lit, w in f.weights.items():
            if w.is_zero() if exact else w == 0.0:
                self.nonunit[lit] = None
            elif w != one:
                self.nonunit[lit] = w
        weight = f.weights.get
        self.free_factor = [
            weight(v, one) + weight(-v, one) for v in range(nv + 1)
        ]

    def count(
        self, units: Sequence[int] = (), *,
        timeout: float | None = DEFAULT_TIMEOUT,
    ) -> CountResult:
        """count() of the formula with each literal of `units` added as a
        unit clause."""
        if timeout is not None and not timeout > 0:  # nan fails too
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        for lit in units:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"unit literal {lit} out of range")
        deadline = None if timeout is None else time.monotonic() + timeout
        solver = _Solver(self, deadline)
        t0 = time.perf_counter()
        value = solver.run(units)
        solver.stats.seconds = time.perf_counter() - t0
        return CountResult(value=value, stats=solver.stats)


def _lowest_active(occn: array) -> int:
    """The lowest variable v with occn[v] > 0: the first non-zero byte of
    the counts, at C speed, lies inside that variable's entry."""
    raw = occn.tobytes()
    return (len(raw) - len(raw.lstrip(b"\0"))) // occn.itemsize


def _residual_key(mask: bytearray, forms: dict) -> bytes:
    """The mask bytes identify the active set; the (small) dict of
    shortened forms identifies every modification.  Together they pin the
    residual formula exactly."""
    flat = array("q")
    for cid in sorted(forms):
        flat.append(cid)
        form = forms[cid]
        flat.append(len(form))
        flat.extend(form)
    return blake2b(bytes(mask) + flat.tobytes(), digest_size=16).digest()


class _Node:
    """An open decision: a residual that missed the cache, branching on
    its lowest active variable v, first as v and then as -v."""

    __slots__ = ("key", "mask", "forms", "occn", "v", "side", "wprod",
                 "total")

    def __init__(self, key, mask, forms, occn, v):
        self.key = key
        self.mask, self.forms, self.occn = mask, forms, occn
        self.v = v
        self.side = 0  # branches tried so far
        self.wprod = None  # weight product of the branch being counted
        self.total = None  # sum over the branches counted so far


class _Solver:
    """The search state of one count; the tables are the prepared form's."""

    def __init__(self, prep: PreparedCnf, deadline):
        self.prep = prep
        self.deadline = deadline
        self.stats = CountStats()
        self.one, self.zero = prep.one, prep.zero
        self.clauses, self.occ = prep.clauses, prep.occ
        self.nonunit = prep.nonunit
        self.free_factor = prep.free_factor
        self.cache: dict[bytes, object] = {}

    def run(self, units: Sequence[int]):
        prep = self.prep
        one = self.one
        if prep.saw_empty:
            return self.zero
        # Residual state: `mask` flags active clause ids (bytearray: C-speed
        # membership, memcpy copies, and its bytes feed the cache key
        # directly), `forms` holds shortened clauses for modified active
        # ids only, `occn[v]` counts active clauses containing unassigned v
        # (array('i'): memcpy copies, and its bytes give the branch
        # variable).
        mask = bytearray(b"\x01") * len(self.clauses)
        forms: dict[int, tuple[int, ...]] = {}
        occn = array("i", prep.occn)
        # Seed propagation with the given units, then the formula's own unit
        # clauses, as if the given units were clauses ahead of the formula's:
        # the queue order fixes where propagation meets a conflict.
        pending: dict[int, int] = {}
        queue: list[int] = []
        wprod = one
        for lit in itertools.chain(units, prep.units):
            v = abs(lit)
            prev = pending.get(v)
            if prev is None:
                w = self.nonunit.get(lit, one)
                if w is None:
                    return self.zero
                if w is not one:
                    wprod = wprod * w
                pending[v] = lit
                queue.append(lit)
            elif prev != lit:
                return self.zero
        # variables absent from every clause and not pinned by a unit are free
        outside = one
        for v in prep.absent:
            if v not in pending:
                outside = outside * self.free_factor[v]
        wprod = self._propagate(mask, forms, occn, pending, queue, wprod)
        if wprod is None:
            return self.zero
        return outside * wprod * self._search(mask, forms, occn)

    def _check_budget(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("weighted count timed out")

    def _propagate(self, mask, forms, occn, pending, queue, wprod):
        """Assign queued literals, shrinking the residual in place.
        Returns the accumulated weight product (assignments plus variables
        freed along the way), or None when a branch dies — by conflict or
        by a forced zero-weight assignment, which contributes nothing
        either way."""
        clauses = self.clauses
        occ = self.occ
        free_factor = self.free_factor
        forms_get = forms.get
        forms_pop = forms.pop
        pending_get = pending.get
        nonunit_get = self.nonunit.get
        one = self.one
        props = 0
        qi = 0
        while qi < len(queue):
            lit = queue[qi]
            qi += 1
            props += 1
            v = lit if lit > 0 else -lit
            occn[v] = 0
            for cid in occ[v]:
                if not mask[cid]:
                    continue
                form = forms_get(cid)
                if form is None:
                    form = clauses[cid]
                if lit in form:
                    mask[cid] = 0
                    forms_pop(cid, None)
                    for u in form:
                        uv = u if u > 0 else -u
                        if uv == v:
                            continue
                        c = occn[uv]
                        if c == 0:  # already assigned or freed
                            continue
                        if c == 1:
                            occn[uv] = 0
                            if uv not in pending:
                                wprod = wprod * free_factor[uv]
                        else:
                            occn[uv] = c - 1
                    continue
                if -lit not in form:
                    continue
                newform = tuple([x for x in form if x != -lit])
                if not newform:
                    self.stats.propagations += props
                    return None
                if len(newform) == 1:
                    l2 = newform[0]
                    v2 = l2 if l2 > 0 else -l2
                    prev = pending_get(v2)
                    if prev is None:
                        w2 = nonunit_get(l2, one)
                        if w2 is not one:
                            if w2 is None:
                                self.stats.propagations += props
                                return None
                            wprod = wprod * w2
                        pending[v2] = l2
                        queue.append(l2)
                    elif prev != l2:
                        self.stats.propagations += props
                        return None
                forms[cid] = newform
        self.stats.propagations += props
        return wprod

    def _search(self, mask, forms, occn):
        """Count the residual (mask, forms, occn): one loop over an explicit
        stack of open decisions, so the depth of the search is bounded by
        memory, not by the interpreter's recursion limit.  A residual with
        no active clause counts one; any other is looked up in the cache,
        and on a miss becomes an open decision, whose count is stored once
        both of its branches are counted."""
        cache = self.cache
        stats = self.stats
        stack: list[_Node] = []
        while True:
            if 1 not in mask:
                value = self.one
            else:
                key = _residual_key(mask, forms)
                value = cache.get(key)
                if value is not None:
                    stats.cache_hits += 1
                else:
                    self._check_budget()
                    # Branch on the lowest unassigned variable.  Variable
                    # ids are allocated in formula-construction order,
                    # which for the circuit encodings follows the gate
                    # timeline: propagation then pins a complete time
                    # frame before the next decision, so residuals that
                    # agree on the frame are identical and collapse in the
                    # cache.
                    stats.decisions += 1
                    stack.append(_Node(key, mask, forms, occn,
                                       _lowest_active(occn)))
            # hand each counted residual to its parent decision, until one
            # has a branch left to descend into
            while stack:
                node = stack[-1]
                if value is not None:
                    val = node.wprod * value
                    node.total = val if node.total is None else node.total + val
                child = self._next_branch(node)
                if child is not None:
                    mask, forms, occn = child
                    break
                stack.pop()
                value = self.zero if node.total is None else node.total
                if len(cache) >= DEFAULT_CACHE_CAP:
                    # dropping everything keeps behaviour deterministic and
                    # can only cost time, never correctness
                    cache.clear()
                cache[node.key] = value
                stats.cache_stores += 1
            else:
                return value

    def _next_branch(self, node: _Node):
        """Assign node's next live branch literal and propagate it.  Returns
        the branch's residual, with its weight product in node.wprod, or
        None when both branches are done."""
        v = node.v
        while node.side < 2:
            lit = v if node.side == 0 else -v
            node.side += 1
            w = self.nonunit.get(lit, self.one)
            if w is None:
                continue
            mask = bytearray(node.mask)
            forms = dict(node.forms)
            occn = array("i", node.occn)
            wprod = self._propagate(mask, forms, occn, {v: lit}, [lit], w)
            if wprod is not None:
                node.wprod = wprod
                return mask, forms, occn
        return None


def count(
    f: WeightedCnf,
    *,
    timeout: float | None = DEFAULT_TIMEOUT,
) -> CountResult:
    """Exact weighted model count of f over all its declared variables.

    `timeout` is wall-clock seconds, positive, or None to disable; it is
    checked between decisions.
    """
    return PreparedCnf(f).count(timeout=timeout)


def brute_count(f: WeightedCnf):
    """Enumerate all 2^num_vars assignments.  Independent of count(); the
    point is to have no shared machinery with the thing it validates."""
    f.validate()
    nv = f.num_vars
    if nv > MAX_BRUTE_VARS:
        raise TooManyVariablesError(
            f"{nv} variables is past the brute-force cap of {MAX_BRUTE_VARS}"
        )
    import numpy as np  # the counting path never loads numpy; this does

    size = 1 << nv
    sat = np.ones(size, dtype=bool)
    idx = np.arange(size, dtype=np.uint32)
    for clause in f.clauses:
        cmask = np.zeros(size, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            cmask |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        sat &= cmask
    weighted_vars = sorted(
        {abs(lit) for lit in f.weights}
    )
    exact = f.mode == EXACT
    one = ONE if exact else 1.0
    if not weighted_vars:
        n_models = int(np.count_nonzero(sat))
        if exact:
            return ExactWeight(n_models)
        return float(n_models)
    # group assignments by the weighted variables' bit pattern; everything
    # else contributes multiplicity only
    group = np.zeros(size, dtype=np.int64)
    for pos, v in enumerate(weighted_vars):
        group |= (((idx >> (v - 1)) & 1) != 0).astype(np.int64) << pos
    n_groups = 1 << len(weighted_vars)
    counts = np.bincount(group[sat], minlength=n_groups)
    if exact:
        total = ZERO
        for g in range(n_groups):
            c = int(counts[g])
            if c == 0:
                continue
            w = one
            for pos, v in enumerate(weighted_vars):
                lit = v if (g >> pos) & 1 else -v
                w = w * f.weight_of(lit)
            total = total + w * ExactWeight(c)
        return total
    terms = []
    for g in range(n_groups):
        c = int(counts[g])
        if c == 0:
            continue
        w = 1.0
        for pos, v in enumerate(weighted_vars):
            lit = v if (g >> pos) & 1 else -v
            w *= float(f.weight_of(lit))
        terms.append(w * c)
    return math.fsum(terms)
