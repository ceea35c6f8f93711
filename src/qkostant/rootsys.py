"""Root systems of the simple Lie algebras in exact simple-root coordinates.

Every weight is a vector of rational coefficients over the simple roots
alpha_1, ..., alpha_r (Bourbaki node numbering).  Positive roots are
generated from the Cartan matrix alone by height induction on root strings,
so no ambient coordinates, inner products or floating point appear anywhere.

Conventions, fixed once for the whole library:

* ``cartan[i][j] = 2(alpha_i, alpha_j)/(alpha_i, alpha_i)``, i.e. row i pairs
  against the coroot of alpha_i.  The simple reflection acts by
  ``s_i(alpha_j) = alpha_j - cartan[i][j] * alpha_i``.
* G2 has alpha_1 short: ``cartan = [[2, -3], [-1, 2]]``, so
  s_1(alpha_2) = 3 alpha_1 + alpha_2.
* B_r has alpha_r short, C_r has alpha_r long, D_r attaches node r to node
  r-2, and E_r attaches node 2 to node 4 of the chain 1-3-4-5-...-r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .qpoly import signed_sum

Matrix = tuple[tuple[int, ...], ...]
IntVec = tuple[int, ...]
Rational = Union[int, Fraction]  # an int equals and hashes as its Fraction

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class LieType:
    """A simple type: family A-G plus rank, admissibility enforced."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}; expected one of A-G")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ValueError(
                f"inadmissible type {self.family}{self.rank}: rank must be {bound}"
            )

    @classmethod
    def parse(cls, name: Union[str, "LieType"]) -> "LieType":
        """Parse "G2", "E8", "A10"; accepts an existing LieType unchanged."""
        if isinstance(name, LieType):
            return name
        s = name.strip().upper()
        if len(s) < 2 or not s[1:].isdigit():
            raise ValueError(f"cannot parse Lie type {name!r}; expected e.g. 'G2'")
        return cls(s[0], int(s[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _frac(x: Union[int, str, Fraction]) -> Rational:
    """An int or a Fraction as it is, anything else (such as "3/2") as a
    Fraction."""
    return x if type(x) is int or isinstance(x, Fraction) else Fraction(x)


class Weight:
    """Immutable vector of exact rational simple-root coefficients.

    Whether a weight can be partitioned into positive roots is asked once,
    by :meth:`nonnegative_ints`.

    >>> Weight([3, 2]) + Weight([1, 1])
    Weight(4, 3)
    >>> Weight(["1/2", 0]).height()
    Fraction(1, 2)
    >>> Weight([2, 0]).nonnegative_ints(), Weight([-1, 0]).nonnegative_ints()
    ((2, 0), None)
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Rational, ...]

    def __init__(self, coeffs: Iterable[Union[int, str, Fraction]]) -> None:
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Weight is immutable")

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> Rational:
        return self.coeffs[i]

    def _check(self, other: "Weight") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(
                f"rank mismatch: {len(self.coeffs)} vs {len(other.coeffs)}"
            )

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "Weight":
        return Weight(-a for a in self.coeffs)

    def __mul__(self, scalar: Union[int, Fraction]) -> "Weight":
        return Weight(a * scalar for a in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Weight({', '.join(str(c) for c in self.coeffs)})"

    def height(self) -> Fraction:
        """Sum of the coefficients."""
        return sum(self.coeffs, Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def nonnegative_ints(self) -> Optional[IntVec]:
        """The coefficients as ints when every one is a nonnegative integer,
        else None: only such a weight is a sum of positive roots."""
        if all(c >= 0 and c.denominator == 1 for c in self.coeffs):
            return tuple(int(c) for c in self.coeffs)
        return None

    # -- rendering ---------------------------------------------------------

    def _render(self, alpha: Callable[[int], str]) -> str:
        return signed_sum(
            (c, alpha(i)) for i, c in enumerate(self.coeffs, start=1) if c
        )

    def text(self) -> str:
        """Unicode form, "3α1 + 2α2"."""
        return self._render(lambda i: f"α{i}")

    def latex(self) -> str:
        """LaTeX form, "3\\alpha_{1} + 2\\alpha_{2}"."""
        return self._render(lambda i: f"\\alpha_{{{i}}}")


def cartan_matrix(t: Union[str, LieType]) -> Matrix:
    """Cartan matrix of ``t``, rows pairing against coroots (see module doc).

    >>> cartan_matrix("G2")
    ((2, -3), (-1, 2))
    """
    t = LieType.parse(t)
    r = t.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if t.family in "ABC":
        for i in range(r - 1):
            bond(i, i + 1)
        if t.family == "B" and r >= 2:
            bond(r - 2, r - 1, -1, -2)  # alpha_r short
        elif t.family == "C" and r >= 2:
            bond(r - 2, r - 1, -2, -1)  # alpha_r long
    elif t.family == "D":
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 3, r - 1)
    elif t.family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for u, v in zip(chain, chain[1:]):
            bond(u, v)
        bond(1, 3)
    elif t.family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_3, alpha_4 short
        bond(2, 3)
    else:  # G2
        bond(0, 1, -3, -1)  # alpha_1 short
    return tuple(tuple(row) for row in a)


def _positive_root_closure(cartan: Matrix) -> list[IntVec]:
    """Positive roots by height induction on root strings.

    A root beta of height h extends to beta + alpha_i (height h + 1) iff
    p - <beta, coroot_i> > 0, with p the largest k such that beta - k alpha_i
    is again a (positive) root.
    """
    r = len(cartan)
    roots: set[IntVec] = set()
    frontier: list[IntVec] = []
    for i in range(r):
        v = tuple(1 if j == i else 0 for j in range(r))
        roots.add(v)
        frontier.append(v)
    while frontier:
        new: set[IntVec] = set()
        for beta in frontier:
            for i in range(r):
                row = cartan[i]
                pairing = sum(row[j] * beta[j] for j in range(r))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in roots:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    new.add(tuple(up))
        roots |= new
        frontier = sorted(new)
    return sorted(roots, key=lambda v: (sum(v), tuple(-c for c in v)))


def weyl_group_order(t: Union[str, LieType]) -> int:
    """Order of the Weyl group, from the classical closed forms."""
    t = LieType.parse(t)
    r = t.rank
    if t.family == "A":
        return math.factorial(r + 1)
    if t.family in "BC":
        return (1 << r) * math.factorial(r)
    if t.family == "D":
        return (1 << (r - 1)) * math.factorial(r)
    return {
        ("E", 6): 51840,
        ("E", 7): 2903040,
        ("E", 8): 696729600,
        ("F", 4): 1152,
        ("G", 2): 12,
    }[(t.family, r)]


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data, all in simple-root coordinates.

    ``positive_roots`` is ordered by (height, reverse-lexicographic
    coefficients): the simple roots come first, in index order, and the
    highest root last.  ``root_vectors`` repeats the same list as plain
    integer tuples for the counting kernels.
    """

    lie_type: LieType
    cartan: Matrix
    positive_roots: tuple[Weight, ...]
    root_vectors: tuple[IntVec, ...]
    rho: Weight
    highest_root: Weight

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        return self.positive_roots[: self.rank]

    @property
    def weyl_order(self) -> int:
        return weyl_group_order(self.lie_type)

    def zero_weight(self) -> Weight:
        return Weight.zero(self.rank)

    def weight(self, coeffs: Iterable[Union[int, str, Fraction]]) -> Weight:
        w = Weight(coeffs)
        if len(w) != self.rank:
            raise ValueError(f"expected {self.rank} coefficients, got {len(w)}")
        return w

    def is_positive_root(self, w: Weight) -> bool:
        return w.nonnegative_ints() in set(self.root_vectors)

    def coroot_pairing(self, w: Weight, i: int) -> Rational:
        """<w, coroot of alpha_i> for 1-based i: an int for an all-int w."""
        row = self.cartan[i - 1]
        return sum(row[j] * c for j, c in enumerate(w.coeffs))

    def is_dominant(self, w: Weight) -> bool:
        return all(self.coroot_pairing(w, i) >= 0 for i in range(1, self.rank + 1))

    def omega_to_alpha(self, coeffs: Sequence[Union[int, str, Fraction]]) -> Weight:
        """Convert fundamental-weight coordinates to simple-root coordinates."""
        if len(coeffs) != self.rank:
            raise ValueError(f"expected {self.rank} coefficients, got {len(coeffs)}")
        inv = _cartan_inverse(self.cartan)
        m = [_frac(c) for c in coeffs]
        return Weight(
            sum((row[j] * m[j] for j in range(self.rank)), Fraction(0)) for row in inv
        )

    def alpha_to_omega(self, w: Weight) -> tuple[Rational, ...]:
        """Coroot pairings of ``w``, i.e. its fundamental-weight coordinates."""
        return tuple(self.coroot_pairing(w, i) for i in range(1, self.rank + 1))

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type}, {len(self.positive_roots)} positive roots)"


@lru_cache(maxsize=None)
def _cartan_inverse(cartan: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(cartan)
    aug = [[Fraction(cartan[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def build_root_system(t: Union[str, LieType]) -> RootSystem:
    """Construct (and cache) the full root-system data for ``t``.

    >>> rs = build_root_system("G2")
    >>> [w.text() for w in rs.positive_roots]
    ['α1', 'α2', 'α1 + α2', '2α1 + α2', '3α1 + α2', '3α1 + 2α2']
    >>> rs.rho.text()
    '5α1 + 3α2'
    """
    t = LieType.parse(t)
    cartan = cartan_matrix(t)
    vecs = _positive_root_closure(cartan)
    roots = tuple(Weight(v) for v in vecs)
    total = Weight([sum(v[j] for v in vecs) for j in range(t.rank)])
    rho = total * Fraction(1, 2)
    top_height = sum(vecs[-1])
    if len(vecs) > 1 and sum(vecs[-2]) == top_height:
        raise AssertionError(f"highest root of {t} is not unique")
    return RootSystem(
        lie_type=t,
        cartan=cartan,
        positive_roots=roots,
        root_vectors=tuple(vecs),
        rho=rho,
        highest_root=roots[-1],
    )
