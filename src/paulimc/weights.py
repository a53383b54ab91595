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
import re

EXACT = "exact"
FLOAT = "float"

_SQRT2 = math.sqrt(2.0)


class ModeMismatchError(TypeError):
    """Raised when exact and float weights meet in the same computation."""


class ExactWeight:
    """An element ``(a + b*sqrt(2)) / 2**k`` in canonical form.

    Canonical form means ``k`` is as small as possible: ``a`` and ``b`` are
    never both even while ``k > 0``, and zero is stored as ``(0, 0, 0)``.
    Two canonical values are equal as numbers iff they are structurally
    equal, which makes ``__eq__``/``__hash__`` cheap and reliable.
    """

    __slots__ = ("a", "b", "k")

    def __init__(self, a: int, b: int = 0, k: int = 0) -> None:
        if k < 0:
            raise ValueError("denominator exponent must be >= 0")
        if a == 0 and b == 0:
            k = 0
        else:
            while k > 0 and a % 2 == 0 and b % 2 == 0:
                a //= 2
                b //= 2
                k -= 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactWeight is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, x: int) -> ExactWeight:
        return cls(x, 0, 0)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> ExactWeight:
        if isinstance(other, ExactWeight):
            return other
        if isinstance(other, int):
            return ExactWeight(other)
        if isinstance(other, float):
            raise ModeMismatchError(
                "cannot mix float weights into an exact computation"
            )
        return NotImplemented

    def __add__(self, other) -> ExactWeight:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = max(self.k, other.k)
        sa = self.a << (k - self.k)
        sb = self.b << (k - self.k)
        oa = other.a << (k - other.k)
        ob = other.b << (k - other.k)
        return ExactWeight(sa + oa, sb + ob, k)

    __radd__ = __add__

    def __neg__(self) -> ExactWeight:
        return ExactWeight(-self.a, -self.b, self.k)

    def __sub__(self, other) -> ExactWeight:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> ExactWeight:
        return (-self) + other

    def __mul__(self, other) -> ExactWeight:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a = self.a * other.a + 2 * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return ExactWeight(a, b, self.k + other.k)

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0 and self.k == 0

    # -- conversions ---------------------------------------------------

    def to_float(self) -> float:
        return math.ldexp(float(self.a) + float(self.b) * _SQRT2, -self.k)

    __float__ = to_float

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = ExactWeight(other)
        if not isinstance(other, ExactWeight):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.k))

    def __repr__(self) -> str:
        return f"ExactWeight({self.a}, {self.b}, {self.k})"

    def __str__(self) -> str:
        return serialize_exact(self)


ZERO = ExactWeight(0)
ONE = ExactWeight(1)
MINUS_ONE = ExactWeight(-1)
HALF = ExactWeight(1, 0, 1)
INV_SQRT2 = ExactWeight(0, 1, 1)


_EXACT_RE = re.compile(r"^\((-?\d+)([+-]\d+)\*sqrt2\)/2\^(\d+)$")


def serialize_exact(w: ExactWeight) -> str:
    """Render ``w`` as ``(a+b*sqrt2)/2^k``; inverse of :func:`parse_exact`."""
    return f"({w.a}{w.b:+d}*sqrt2)/2^{w.k}"


def parse_exact(text: str) -> ExactWeight:
    m = _EXACT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a serialized exact weight: {text!r}")
    return ExactWeight(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def as_float(w) -> float:
    return w.to_float() if isinstance(w, ExactWeight) else float(w)


def value_is_one(w, epsilon: float = 0.0) -> bool:
    """Mode-aware test for count == 1 (structural in exact mode)."""
    if isinstance(w, ExactWeight):
        return w.is_one()
    return abs(w - 1.0) <= epsilon
