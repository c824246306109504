"""Prime-field scalar arithmetic.

Residues are kept canonical (0 <= x < q) everywhere.  PrimeField carries the
integer-level routines (inverse, Legendre symbol, square roots, the additive
character) so hot loops can stay on plain ints; FieldElement wraps a residue
with operator syntax for scalar work.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Tuple, Union

MAX_MODULUS = 2**31

# This witness set is deterministic for every n < 3_215_031_751, which covers
# the whole supported modulus range.
_MR_WITNESSES = (2, 3, 5, 7)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for n <= 2**31."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers modulo an odd prime q, 3 <= q <= 2**31."""

    __slots__ = ("q", "_nonresidue")

    def __init__(self, q: int) -> None:
        if isinstance(q, bool) or not isinstance(q, int):
            raise TypeError(f"modulus must be an int, got {type(q).__name__}")
        if q < 3 or q > MAX_MODULUS or not is_prime(q):
            raise ValueError(f"modulus must be an odd prime in [3, 2**31], got {q}")
        self.q = q
        self._nonresidue = 0  # found lazily by the Tonelli-Shanks path

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        # q itself: fields key every table cache, so the hash builds no tuple
        return self.q

    # -- element construction -------------------------------------------------

    def element(self, value: Union[int, "FieldElement"]) -> "FieldElement":
        return FieldElement(self, self.residue(value))

    __call__ = element

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def residue(self, value: Union[int, "FieldElement"]) -> int:
        """Canonical representative in [0, q) of an int or element of this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError(
                    f"element of F_{value.field.q} used in F_{self.q}"
                )
            return value.value
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"expected an int or FieldElement, got {type(value).__name__}")
        return value % self.q

    def signed(self, value: Union[int, "FieldElement"]) -> int:
        """Representative of smallest absolute value, in (-q/2, q/2)."""
        a = self.residue(value)
        return a if 2 * a < self.q else a - self.q

    # -- integer-level arithmetic ---------------------------------------------

    def inv(self, value: Union[int, "FieldElement"]) -> int:
        a = self.residue(value)
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.q}")
        return pow(a, self.q - 2, self.q)

    def legendre(self, value: Union[int, "FieldElement"]) -> int:
        """Legendre symbol via Euler's criterion: 1, -1, or 0 for the zero residue."""
        a = self.residue(value)
        if a == 0:
            return 0
        return 1 if pow(a, (self.q - 1) // 2, self.q) == 1 else -1

    def sqrt(self, value: Union[int, "FieldElement"]) -> Optional[Tuple[int, ...]]:
        """All square roots of value, sorted ascending; None for a non-residue.

        Tonelli-Shanks, with the usual closed forms for q % 4 == 3 and
        q % 8 == 5 so the general loop only runs when q % 8 == 1.
        """
        a = self.residue(value)
        q = self.q
        if a == 0:
            return (0,)
        if self.legendre(a) != 1:
            return None
        if q % 4 == 3:
            r = pow(a, (q + 1) // 4, q)
        elif q % 8 == 5:
            r = pow(a, (q + 3) // 8, q)
            if r * r % q != a:
                r = r * pow(2, (q - 1) // 4, q) % q
        else:
            r = self._tonelli(a)
        return (r, q - r) if r < q - r else (q - r, r)

    def _tonelli(self, a: int) -> int:
        q = self.q
        s, e = q - 1, 0
        while s % 2 == 0:
            s //= 2
            e += 1
        if self._nonresidue == 0:
            z = 2
            while self.legendre(z) != -1:
                z += 1
            self._nonresidue = z
        c = pow(self._nonresidue, s, q)
        x = pow(a, (s + 1) // 2, q)
        t = pow(a, s, q)
        m = e
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % q
                i += 1
            b = pow(c, 1 << (m - i - 1), q)
            x = x * b % q
            t = t * b % q * b % q
            c = b * b % q
            m = i
        return x

    def chi(self, value: Union[int, "FieldElement"]) -> complex:
        """The canonical additive character chi(a) = e^{2 pi i a / q}."""
        return cmath.exp(2j * math.pi * self.residue(value) / self.q)


class FieldElement:
    """A canonical residue bound to its PrimeField.

    Arithmetic mixes freely with plain ints; elements of different fields
    are rejected.  Division by zero and inv(0) raise ZeroDivisionError.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int) -> None:
        self.field = field
        self.value = value % field.q

    # -- coercion -------------------------------------------------------------

    def _operand(self, other: object) -> Optional[int]:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(
                    f"cannot mix elements of F_{self.field.q} and F_{other.field.q}"
                )
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return other % self.field.q
        return None

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.value - v)

    def __rsub__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, v - self.value)

    def __mul__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.value)

    def __truediv__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.value * self.field.inv(v))

    def __rtruediv__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, v * self.field.inv(self.value))

    def __pow__(self, exponent: int) -> "FieldElement":
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            return NotImplemented
        base = self.value
        if exponent < 0:
            base = self.field.inv(base)
            exponent = -exponent
        return FieldElement(self.field, pow(base, exponent, self.field.q))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    # -- number theory --------------------------------------------------------

    def legendre(self) -> int:
        return self.field.legendre(self.value)

    def sqrt(self) -> Optional[Tuple["FieldElement", ...]]:
        roots = self.field.sqrt(self.value)
        if roots is None:
            return None
        return tuple(FieldElement(self.field, r) for r in roots)

    def chi(self) -> complex:
        return self.field.chi(self.value)

    def signed(self) -> int:
        return self.field.signed(self.value)

    # -- comparisons and plumbing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return other.field == self.field and other.value == self.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.q, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    __index__ = __int__

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.q})"
