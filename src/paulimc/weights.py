"""Weight arithmetic for the two counting modes.

Exact mode works in the ring of numbers of the form ``(a + b*sqrt(2)) / 2**k``
with integer ``a``, ``b`` and ``k >= 0``.  This ring is closed under the sums
and products that model counting produces for Clifford+T circuits (including
Toffoli), so counts such as ``1/sqrt(2)`` or ``-1/2`` are represented without
rounding.  Float mode uses ordinary doubles and is required as soon as a
circuit carries rotation angles that are not multiples of pi/4.

Mixing the two modes in one computation is a bug, never a coercion; any
attempt raises :class:`ModeMismatchError`.
"""

from __future__ import annotations

import math
from collections import namedtuple

EXACT = "exact"
FLOAT = "float"

_SQRT2 = math.sqrt(2.0)


class ModeMismatchError(TypeError):
    """Raised when exact and float weights meet in the same computation."""


def _reject(other):
    if isinstance(other, float):
        raise ModeMismatchError(
            "cannot mix float weights into an exact computation"
        )
    raise TypeError(f"ExactWeight does not combine with {type(other).__name__}")


def _unordered(self, other):
    raise TypeError("ExactWeight values are not ordered")


class ExactWeight(namedtuple("ExactWeight", "a b k")):
    """An element ``(a + b*sqrt(2)) / 2**k`` in canonical form.

    Canonical form means ``k`` is as small as possible: ``a`` and ``b`` are
    never both even while ``k > 0``, and zero is stored as ``(0, 0, 0)``.
    Two canonical values are equal as numbers iff they are equal as tuples,
    so tuple equality and hashing are the ring's.  Only another
    ExactWeight is an operand: an int, a float or a plain tuple raises,
    so tuple repetition and concatenation never stand in for ``*`` and ``+``.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int = 0, k: int = 0) -> ExactWeight:
        if k < 0:
            raise ValueError("denominator exponent must be >= 0")
        if a == 0 and b == 0:
            k = 0
        else:
            while k > 0 and a % 2 == 0 and b % 2 == 0:
                a //= 2
                b //= 2
                k -= 1
        return tuple.__new__(cls, (a, b, k))

    @classmethod
    def _make(cls, iterable) -> ExactWeight:
        # namedtuple's own _make (and _replace, which calls it) would skip
        # the canonical form
        return cls(*iterable)

    def __add__(self, other) -> ExactWeight:
        if not isinstance(other, ExactWeight):
            _reject(other)
        sa, sb, sk = self
        oa, ob, ok = other
        k = max(sk, ok)
        return ExactWeight((sa << (k - sk)) + (oa << (k - ok)),
                           (sb << (k - sk)) + (ob << (k - ok)), k)

    __radd__ = __add__

    def __mul__(self, other) -> ExactWeight:
        if not isinstance(other, ExactWeight):
            _reject(other)
        sa, sb, sk = self
        oa, ob, ok = other
        return ExactWeight(sa * oa + 2 * sb * ob, sa * ob + sb * oa, sk + ok)

    __rmul__ = __mul__

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0 and self.k == 0

    def __float__(self) -> float:
        return math.ldexp(float(self.a) + float(self.b) * _SQRT2, -self.k)

    def __repr__(self) -> str:
        return f"ExactWeight({self.a}, {self.b}, {self.k})"

    def __str__(self) -> str:
        return serialize_exact(self)


ZERO = ExactWeight(0)
ONE = ExactWeight(1)
MINUS_ONE = ExactWeight(-1)
HALF = ExactWeight(1, 0, 1)
INV_SQRT2 = ExactWeight(0, 1, 1)


def serialize_exact(w: ExactWeight) -> str:
    """Render ``w`` as ``(a+b*sqrt2)/2^k``."""
    return f"({w.a}{w.b:+d}*sqrt2)/2^{w.k}"


def value_is_one(w, epsilon: float = 0.0) -> bool:
    """Mode-aware test for count == 1 (structural in exact mode)."""
    if isinstance(w, ExactWeight):
        return w.is_one()
    return abs(w - 1.0) <= epsilon
