"""Weyl-group elements acting on simple-root coordinates.

An element is an integer matrix M with (M w)_k = sum_j M[k][j] w_j; its
columns are the images of the simple roots, so every column is the
coefficient vector of a root (all entries of one sign).  Right
multiplication by a simple reflection s_i is a cheap column update, and i is
a right descent of M (length drops under M s_i) iff column i is negative.

Every element has one canonical reduced word: strip the smallest right
descent until the identity is reached and read the stripped letters in
reverse.  The canonical words form a tree rooted at the empty word
(Casselman, Invent. Math. 116 (1994); Stembridge, MSJ Memoirs 11 (2001)):
the children of M are the M s_i for which i is an ascent of M and no j < i
is a descent of M s_i.  :func:`_walk` searches that tree one length layer at
a time, so every element is met exactly once, in (length, canonical word)
order, carrying its word, with no visited set.  Enumerating the group,
counting it and finding an alternation set are all this one walk; the last
carries xi from parent to child in O(rank) and prunes each rejected child,
before building its matrix, together with its subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterator, Optional, Union

from .qpoly import QPolynomial
from .rootsys import IntVec, Matrix, RootSystem, Weight

DEFAULT_MAX_GROUP_ORDER = 1_000_000


class OrderExceededError(RuntimeError):
    """Raised when a full group enumeration would exceed the allowed order."""


@lru_cache(maxsize=None)
def _cartan_nonzeros(cartan: Matrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per row i, the pairs (j, a_ij) with a_ij != 0 (diagonal included)."""
    return tuple(
        tuple((j, a) for j, a in enumerate(row) if a) for row in cartan
    )


def _identity(rank: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def _rmul_simple(cartan: Matrix, m: Matrix, i: int) -> Matrix:
    """Matrix of m * s_{i+1}: column j becomes col_j - a_ij * col_i."""
    nz = _cartan_nonzeros(cartan)[i]
    rows = [list(row) for row in m]
    for k, row in enumerate(m):
        ci = row[i]
        if ci:
            rk = rows[k]
            for j, a in nz:
                rk[j] -= a * ci
    return tuple(tuple(row) for row in rows)


def _walk(
    rs: RootSystem,
    keep: Optional[Callable[[Matrix, Any, int], Any]] = None,
    payload: Any = None,
) -> Iterator[tuple[Matrix, tuple[int, ...], Any]]:
    """Yield (matrix, canonical word, payload) down the canonical-word tree,
    one length layer at a time, from the identity carrying ``payload``.

    ``keep(m, data, i)`` gets the matrix and payload of a node and the index
    of a child m s_{i+1}; it returns the child's payload, or None to drop
    the child together with its subtree.  A child's matrix is built only
    once it is kept.  Without ``keep`` every payload is None.
    """
    cartan, r = rs.cartan, rs.rank
    layer = [(_identity(r), (), payload)]
    while layer:
        yield from layer
        nxt = []
        for m, word, data in layer:
            # h[j] is the height of the root m(alpha_j), whose sign is that of
            # column j; m s_i sends alpha_j to a root of height h[j] - a_ij h[i].
            h = [sum(col) for col in zip(*m)]
            for i, a in enumerate(cartan):
                hi = h[i]
                if hi < 0 or any(h[j] < a[j] * hi for j in range(i)):
                    continue
                child = None
                if keep is not None:
                    child = keep(m, data, i)
                    if child is None:
                        continue
                nxt.append((_rmul_simple(cartan, m, i), word + (i + 1,), child))
        layer = nxt


def canonical_word(cartan: Matrix, m: Matrix) -> tuple[int, ...]:
    """Reduced word by greedy smallest-right-descent stripping (1-based)."""
    stripped: list[int] = []
    r = len(cartan)
    while True:
        for i in range(r):
            if any(row[i] < 0 for row in m):  # column i is a negative root
                stripped.append(i + 1)
                m = _rmul_simple(cartan, m, i)
                break
        else:
            break
    if m != _identity(r):
        raise ValueError("matrix is not a Weyl-group element for this Cartan matrix")
    return tuple(reversed(stripped))


def word_str(word: tuple[int, ...]) -> str:
    """Render a reduced word as "s_3s_4s_3s_1"; the identity is "1"."""
    return "".join(f"s_{i}" for i in word) if word else "1"


@dataclass(frozen=True)
class WeylElement:
    """A group element: its matrix, a reduced word for it, and the Cartan
    matrix it lives over."""

    cartan: Matrix
    matrix: Matrix
    word: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def __str__(self) -> str:
        return word_str(self.word)

    def __repr__(self) -> str:
        return f"WeylElement({word_str(self.word)}, length={self.length})"


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection s_i, 1 <= i <= rank."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"reflection index {i} out of range 1..{rs.rank}")
    m = _rmul_simple(rs.cartan, _identity(rs.rank), i - 1)
    return WeylElement(rs.cartan, m, (i,))


def apply(e: WeylElement, w: Weight) -> Weight:
    """Matrix action of ``e`` on a weight, exact over the rationals."""
    if len(w) != e.rank:
        raise ValueError(f"rank mismatch: element {e.rank}, weight {len(w)}")
    return Weight(
        sum((row[j] * w[j] for j in range(e.rank)), Fraction(0)) for row in e.matrix
    )


def _check_order(rs: RootSystem, max_order: int) -> None:
    if rs.weyl_order > max_order:
        raise OrderExceededError(
            f"|W({rs.lie_type})| = {rs.weyl_order} exceeds max_order = {max_order}"
        )


def enumerate_group(
    rs: RootSystem, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[WeylElement]:
    """The full Weyl group, in (length, canonical word) order, each element
    carrying its canonical word.  Refuses to start when the known group
    order exceeds ``max_order``."""
    _check_order(rs, max_order)
    return [WeylElement(rs.cartan, m, word) for m, word, _ in _walk(rs)]


def group_order_bfs(rs: RootSystem, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> int:
    """Count the group by walking it, holding one length layer at a time."""
    _check_order(rs, max_order)
    return sum(1 for _ in _walk(rs))


@dataclass(frozen=True)
class AlternationRecord:
    """One contributing Weyl element: sigma, xi = sigma(lam+rho)-(rho+mu),
    the sign (-1)^length, and (once filled) the graded partition value.

    ``pq`` is None when unset.  It may be given as a QPolynomial or as a
    function of no arguments that computes it, called on the first read
    only.  It is a function of xi, so it takes no part in equality.
    """

    element: WeylElement
    xi: Weight
    sign: int
    _pq: Union[QPolynomial, Callable[[], QPolynomial], None] = field(
        default=None, repr=False, compare=False
    )

    @property
    def pq(self) -> Optional[QPolynomial]:
        pq = self._pq
        if pq is None or isinstance(pq, QPolynomial):
            return pq
        pq = pq()
        object.__setattr__(self, "_pq", pq)
        return pq


def alternation_set(
    rs: RootSystem,
    lam: Optional[Weight] = None,
    mu: Optional[Weight] = None,
) -> list[AlternationRecord]:
    """All Weyl elements whose term in the multiplicity sum can be nonzero,
    in (length, canonical word) order; ``pq`` is left unset, so the search
    stands alone (:func:`compute_mq` fills it).

    lam must be dominant integral.  Then the admitted sigma, those whose
    xi = sigma(lam+rho)-(rho+mu) has nonnegative integer coefficients
    (:meth:`Weight.nonnegative_ints`), form a subtree of the canonical-word tree: stripping a right
    descent i adds <lam+rho, alpha_i^vee> > 0 times the positive root
    -sigma(alpha_i) to xi.  So the walk pruned by that test finds them all.
    """
    lam = rs.highest_root if lam is None else lam
    mu = rs.zero_weight() if mu is None else mu
    if len(lam) != rs.rank or len(mu) != rs.rank:
        raise ValueError("lambda/mu rank mismatch")
    pairings = [rs.coroot_pairing(lam, i) for i in range(1, rs.rank + 1)]
    if any(p < 0 or p.denominator != 1 for p in pairings):
        raise ValueError(
            f"lambda = {lam!r} is not dominant integral for {rs.lie_type}: its "
            f"coroot pairings ({', '.join(map(str, pairings))}) must be "
            "nonnegative integers"
        )
    # The admitted subtree is rooted at the identity, whose xi is lam - mu.
    # xi(sigma s_i) = xi(sigma) - <lam+rho, alpha_i^vee> sigma(alpha_i), read
    # off column i of sigma's matrix, is an integer step: integrality is
    # settled at the root, and a child needs only the sign test.
    root = (lam - mu).nonnegative_ints()
    if root is None:
        return []
    steps = [int(p) + 1 for p in pairings]  # <lam+rho, alpha_i^vee>

    def keep(m: Matrix, parent: IntVec, i: int) -> Optional[IntVec]:
        step = steps[i]
        child = tuple(x - step * row[i] for x, row in zip(parent, m))
        return child if min(child) >= 0 else None

    return [
        AlternationRecord(
            WeylElement(rs.cartan, m, word), Weight(v), -1 if len(word) % 2 else 1
        )
        for m, word, v in _walk(rs, keep, root)
    ]
