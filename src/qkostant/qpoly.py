"""Integer polynomials in q graded by the number of positive roots used.

A graded partition value is stored as its coefficient vector (c_0, c_1, ...):
c_i counts the ways to reach the target weight using exactly i positive
roots.  The same class carries multiplicity polynomials, whose signed sums
may hold negative coefficients; nonnegativity is a theorem only when both
weights are dominant.

The partition kernels work on a packed form: a nonnegative coefficient
vector as one big integer, coefficient i in bits [i*bits, (i+1)*bits),
because bigint shift-and-add is far faster in CPython than per-coefficient
list arithmetic.  The limb width ``bits`` is not fixed here: each kernel
proves a bound on every value it will hold and passes that width to
:meth:`QPolynomial.from_packed` (see ``partition``).  A signed sum of
polynomials evaluated at q = 2**bits, whose coefficients are known to be
small, is decoded once in balanced digits by
:meth:`QPolynomial.from_balanced`.

Every signed sum the library prints is written by :func:`signed_sum`: the
four forms of a polynomial differ only in how they spell q^p, and a
``rootsys.Weight`` is rendered by the same function.  This module imports
nothing from the package, so ``rootsys`` may import from it.
"""

from __future__ import annotations

from numbers import Rational
from typing import Callable, Iterable, Iterator


def signed_sum(terms: Iterable[tuple[Rational, str]]) -> str:
    """The sum of ``c * unit`` over (c, unit) pairs with c nonzero, the
    signs joining the terms; a coefficient of one before a unit is left
    out, and the empty sum is "0".

    >>> signed_sum([(2, ""), (-1, "q"), (3, "q^2")])
    '2 - q + 3q^2'
    >>> signed_sum([])
    '0'
    """
    out = ""
    for c, unit in terms:
        body = unit if abs(c) == 1 and unit else f"{abs(c)}{unit}"
        if out:
            out += (" + " if c > 0 else " - ") + body
        else:
            out = body if c > 0 else "-" + body
    return out or "0"


class QPolynomial:
    """Immutable polynomial in q with integer coefficients.

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial is the empty coefficient vector.

    >>> QPolynomial([0, 0, 2, 1, 1]).text()
    '2q^2 + q^3 + q^4'
    >>> QPolynomial([0, 1, 0, 0, 0, 1]).compact_text()
    'q + q^5'
    >>> QPolynomial([1]).at_one()
    1
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPolynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPolynomial":
        return cls((0,) * power + (coeff,))

    @classmethod
    def from_packed(cls, packed: int, bits: int) -> "QPolynomial":
        """Decode a nonnegative coefficient vector packed ``bits`` per limb."""
        if packed < 0:
            raise ValueError("packed polynomials are nonnegative")
        mask = (1 << bits) - 1
        cs = []
        while packed:
            cs.append(packed & mask)
            packed >>= bits
        return cls(cs)

    @classmethod
    def from_balanced(cls, value: int, bits: int) -> "QPolynomial":
        """The polynomial whose coefficients lie in [-2**(bits-1),
        2**(bits-1)) and whose value at q = 2**bits is ``value``; it is
        unique, so this inverts that evaluation on every such polynomial.
        ``bits`` must be at least 2 (with one bit, 1 has no expansion).

        >>> QPolynomial.from_balanced(2 - 3 * 8 + 1 * 64, 3).coeffs
        (2, -3, 1)
        """
        if bits < 2:
            raise ValueError("balanced digits need at least 2 bits")
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        cs = []
        while value:
            c = ((value + half) & mask) - half
            cs.append(c)
            value = (value - c) >> bits
        return cls(cs)

    def pack(self, bits: int) -> int:
        """Inverse of :meth:`from_packed`; every coefficient must be
        nonnegative and below ``2**bits``."""
        n = 0
        for c in reversed(self.coeffs):
            if c < 0 or c.bit_length() > bits:
                raise ValueError(f"cannot pack coefficient {c} in {bits} bits")
            n = (n << bits) | c
        return n

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def at_one(self) -> int:
        """Evaluate at q = 1 (for a partition value: the plain count)."""
        return sum(self.coeffs)

    def __getitem__(self, power: int) -> int:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else 0

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (power, coefficient) for nonzero terms, ascending."""
        for p, c in enumerate(self.coeffs):
            if c:
                yield p, c

    def exponent_multiset(self) -> tuple[int, ...]:
        """Powers repeated with multiplicity, e.g. q + 2q^3 -> (1, 3, 3)."""
        out: list[int] = []
        for p, c in self.terms():
            if c < 0:
                raise ValueError("exponent multiset needs nonnegative coefficients")
            out.extend([p] * c)
        return tuple(out)

    def is_multiplicity_free(self) -> bool:
        return all(c in (0, 1) for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return QPolynomial(cs)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        cs = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            cs[i] -= c
        return QPolynomial(cs)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def shifted(self, k: int) -> "QPolynomial":
        """Multiply by q**k."""
        if not self.coeffs:
            return self
        return QPolynomial((0,) * k + self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"

    # -- rendering -----------------------------------------------------------

    def _render(self, power: Callable[[int], str]) -> str:
        """The nonzero terms, q^p spelled ``power(p)`` for p >= 1."""
        return signed_sum((c, power(p) if p else "") for p, c in self.terms())

    def text(self) -> str:
        """Plain form with explicit first power: "q^1 + 2q^2 + q^3"."""
        return self._render(lambda p: f"q^{p}")

    def compact_text(self) -> str:
        """Plain form writing q for q^1: "q + q^5 + q^11"."""
        return self._render(lambda p: "q" if p == 1 else f"q^{p}")

    def latex(self) -> str:
        """LaTeX cell form with braced exponents: "q^{1} + 2q^{2}"."""
        return self._render(lambda p: f"q^{{{p}}}")

    def compact_latex(self) -> str:
        """LaTeX summary form: "q + q^5 + q^{11}"."""
        return self._render(
            lambda p: "q" if p == 1 else f"q^{p}" if p < 10 else f"q^{{{p}}}"
        )

    def __str__(self) -> str:
        return self.text()
