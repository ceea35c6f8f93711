"""Weyl-group elements acting on simple-root coordinates.

An element sigma is held as the tuple of its columns, columns[j] =
sigma(alpha_j) in simple-root coordinates, so it acts on a weight w by
sigma(w) = sum_j w_j columns[j], and every column is the coefficient vector
of a root (all entries of one sign).  Right multiplication by s_i takes
column j to col_j - a_ij col_i, a_ij != 0 in Cartan row i, and i is a right
descent of sigma (length drops under sigma s_i) iff column i is negative.

Every element has one canonical reduced word: strip the smallest right
descent until the identity is reached and read the stripped letters in
reverse.  The canonical words form a tree rooted at the empty word
(Casselman, Invent. Math. 116 (1994); Stembridge, MSJ Memoirs 11 (2001)):
the children of sigma are the sigma s_i for which i is an ascent of sigma
and no j < i is a descent of sigma s_i.  :func:`_walk` searches that tree
one length layer at a time, so every element is met exactly once, in
(length, canonical word) order, with no visited set.  Enumerating the
group and finding an alternation set are both this one walk; the second
carries xi from parent to child, off column i, and prunes each rejected
child, before building it, together with its subtree.

Packed layout.  The walk and :func:`canonical_word` hold column j as one
int, sum_k c_k 2^(b k), b bits per field, and the walk holds xi in the same
fields.  Packing is additive, so the column update is exact on ints.  The
entries of a root share one sign and are below 2^b in size, so the int has
the root's sign (a descent is ``c < 0``) and is the root's alone: one dict
lookup, :func:`_root_codes`, gives back the tuple.  The top bit of each
field is a guard.  With each xi_k and step * (root coefficient) below
2^(b-1), field k of (xi | guards) - step * c_i at an ascent i (c_i > 0) is
2^(b-1) + xi_k - step c_ik, in [1, 2^b): no field borrows, and its guard
stays set iff xi_k >= step c_ik, which admits the child.  So b is one more
than the bit length of the largest box coordinate or step * (largest root
coefficient), but at least 8, when xi decodes by ``int.to_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

from .qpoly import QPolynomial
from .rootsys import IntVec, Matrix, RootSystem, Weight, _positive_root_closure

DEFAULT_MAX_GROUP_ORDER = 1_000_000


class OrderExceededError(RuntimeError):
    """Raised when a full group enumeration would exceed the allowed order."""


@lru_cache(maxsize=None)
def _cartan_nonzeros(cartan: Matrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per row i, the pairs (j, a_ij) with a_ij != 0 (diagonal included)."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in cartan)


# Bits per packed field of roots alone.  A root coefficient is at most 6
# (E8), so a column update of roots has entries of at most 24: it and a
# root differ by less than 2^8 in each field, and pack equal only if equal.
_ROOT_BITS = 8


def _pack(v: IntVec, bits: int) -> int:
    return sum(c << (bits * k) for k, c in enumerate(v))


@lru_cache(maxsize=64)
def _root_codes(cartan: Matrix, bits: int) -> dict[int, IntVec]:
    """Every root, positive and negative, keyed by its packed int at ``bits``
    bits per field.  Keyed by the Cartan matrix: hashing a RootSystem costs
    more than the lookups it would serve."""
    codes = {}
    for v in _positive_root_closure(cartan):
        code = _pack(v, bits)
        codes[code], codes[-code] = v, tuple(-c for c in v)
    return codes


def _walk(
    cartan: Matrix, bits: int, xi: int = 0, steps: Optional[list[int]] = None
) -> Iterator[tuple[list[int], tuple[int, ...], int]]:
    """Yield (packed columns, canonical word, packed xi) down the tree, one
    length layer at a time, from the identity at ``xi``.  With ``steps``, a
    child sigma s_{i+1} and its subtree are kept only when xi - steps[i] *
    column i keeps every guard bit set; without, every element is kept."""
    r, nz = len(cartan), _cartan_nonzeros(cartan)
    guards = sum(1 << (bits * k + bits - 1) for k in range(r)) if steps else 0
    steps = steps or [0] * r
    # m s_i takes column j to c_j - a_ij c_i, still positive at an ascent j
    # when i is an ascent (a_ij <= 0): past m's first descent d only
    # neighbours of d can have every j < i an ascent of m s_i.
    layer = [([1 << (bits * k) for k in range(r)], (), xi)]
    while layer:
        nxt = []
        for g, word, x in layer:
            yield g, word, x
            x |= guards
            for d, col in enumerate(g):
                if col < 0:
                    break
            else:
                d = r
            for i, a in enumerate(cartan):
                ci = g[i]
                if ci < 0 or (i > d and not a[d]):
                    continue
                sub = x - steps[i] * ci
                if sub & guards != guards:
                    continue
                c = g[:]
                for j, aij in nz[i]:
                    c[j] -= aij * ci
                if i > d and min(c[:i]) < 0:
                    continue
                nxt.append((c, word + (i + 1,), sub ^ guards))
        layer = nxt


def canonical_word(cartan: Matrix, columns: Matrix) -> tuple[int, ...]:
    """Reduced word by greedy smallest-right-descent stripping (1-based).
    Columns that are not a group element raise ValueError: each strip must
    leave roots, and a group element strips to the identity in at most as
    many strips as there are positive roots."""
    nz, bits, r = _cartan_nonzeros(cartan), _ROOT_BITS, len(cartan)
    codes = _root_codes(cartan, bits)
    g = [_pack(col, bits) for col in columns]
    word: list[int] = []
    ok = len(g) == r and all(codes.get(c) == tuple(v) for c, v in zip(g, columns))
    while ok and len(word) <= len(codes) // 2:
        i = next((i for i, c in enumerate(g) if c < 0), r)
        if i == r:
            if g == [1 << (bits * k) for k in range(r)]:
                return tuple(reversed(word))
            break
        ci = g[i]
        for j, aij in nz[i]:
            g[j] -= aij * ci
        ok = all(g[j] in codes for j, _ in nz[i])
        word.append(i + 1)
    raise ValueError("columns are not a Weyl-group element for this Cartan matrix")


def word_str(word: tuple[int, ...]) -> str:
    """Render a reduced word as "s_3s_4s_3s_1"; the identity is "1"."""
    return "".join(f"s_{i}" for i in word) if word else "1"


@dataclass(frozen=True)
class WeylElement:
    """A group element sigma: its columns, columns[j] = sigma(alpha_j), and
    a reduced word for it."""

    columns: Matrix
    word: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def rank(self) -> int:
        return len(self.columns)

    def __str__(self) -> str:
        return word_str(self.word)

    def __repr__(self) -> str:
        return f"WeylElement({word_str(self.word)}, length={self.length})"


def apply(e: WeylElement, w: Weight) -> Weight:
    """The image sum_j w_j columns[j] of a weight, exact over the rationals."""
    if len(w) != e.rank:
        raise ValueError(f"rank mismatch: element {e.rank}, weight {len(w)}")
    return Weight(
        sum((c[k] * x for c, x in zip(e.columns, w)), Fraction(0))
        for k in range(e.rank)
    )


def enumerate_group(rs: RootSystem) -> list[WeylElement]:
    """The full Weyl group, in (length, canonical word) order, each element
    carrying its canonical word.  Refuses to start when the known group
    order exceeds ``DEFAULT_MAX_GROUP_ORDER``."""
    if rs.weyl_order > DEFAULT_MAX_GROUP_ORDER:
        raise OrderExceededError(
            f"|W({rs.lie_type})| = {rs.weyl_order} exceeds "
            f"DEFAULT_MAX_GROUP_ORDER = {DEFAULT_MAX_GROUP_ORDER}"
        )
    col = _root_codes(rs.cartan, _ROOT_BITS).__getitem__
    return [
        WeylElement(tuple(map(col, g)), w) for g, w, _ in _walk(rs.cartan, _ROOT_BITS)
    ]


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
    # off column i, is an integer step: integrality is settled at the root,
    # and a child needs only the sign test, on guarded fields (module notes).
    root = (lam - mu).nonnegative_ints()
    if root is None:
        return []
    steps = [int(p) + 1 for p in pairings]  # <lam+rho, alpha_i^vee>
    # the highest root has every root's largest coefficient
    cartan, r = rs.cartan, rs.rank
    top = max(max(root), max(steps) * max(rs.root_vectors[-1]))
    bits = max(_ROOT_BITS, top.bit_length() + 1)
    col = _root_codes(cartan, bits).__getitem__
    if bits == 8:
        unpack: Callable[[int], IntVec] = lambda x: tuple(x.to_bytes(r, "little"))
    else:
        mask, shifts = (1 << bits) - 1, range(0, r * bits, bits)
        unpack = lambda x: tuple([(x >> s) & mask for s in shifts])
    return [
        AlternationRecord(
            WeylElement(tuple(map(col, g)), word),
            Weight._of_ints(unpack(x)),
            -1 if len(word) % 2 else 1,
        )
        for g, word, x in _walk(cartan, bits, _pack(root, bits), steps)
    ]
