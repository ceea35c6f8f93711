"""Counting partitions of a weight into positive roots, graded by size.

Two independent algorithms produce the same graded count:

* the tree method: depth-first recursion over the positive roots in their
  canonical order, branching on how many copies of the current root to
  subtract while the residual stays nonnegative; a zero residual closes one
  successful branch, and identical (root index, residual) subproblems are
  shared through a per-type memo table;

* the generating-function method: the truncated expansion of the product of
  geometric series 1/(1 - q x_beta) over the positive roots, realised as a
  dynamic program over the exponent box [0, xi_1] x ... x [0, xi_r].

Both kernels hold graded counts packed into big integers, a coefficient per
limb of L bits (see qpoly).  L is proven, not guessed.  A partition of a
weight v into i roots is a multiset of i roots of total height ht(v), and
every value a kernel holds counts a subset of such partitions, so every
coefficient is at most the largest coefficient of
prod_beta 1/(1 - q t^ht(beta)) up to t^H, H the largest height in play;
:func:`_limb_bits` computes that coefficient's bit length.

Genfunc slab layout.  The box axes split into outer axes and an inner
suffix, the longest run of trailing axes with at most ``SLAB_CELLS`` cells.
Each outer position holds one bigint slab with every inner cell at a
uniform width of (H + 1) * L bits, H = ht(box), which fits any degree a
cell can reach.  A root with a nonzero outer part costs one masked
shift-add per outer position of its sub-box, in increasing order, so later
positions see earlier updates; a root inside the inner axes repeats its
masked shift within each slab until nothing is left.  The mask of a root
keeps the cells whose image stays in the box; masks are keyed by the
root's inner part.

Tree memo key.  The residual is one int with a fixed number of bits per
coordinate plus a guard bit, so subtracting a root is one subtraction and
the guard bits show whether a coordinate went negative; the memo key packs
it with the root index.  The field and the limb are kept per type and only
ever widen; a wider field clears that type's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from operator import lshift, mul
from typing import Callable, Optional, Sequence

from .qpoly import QPolynomial
from .rootsys import (
    IntVec,
    LieType,
    RootSystem,
    Weight,
    WeightClass,
    classify_weight,
)

# Cells per genfunc slab.  64 was fastest on the E8 adjoint box and on
# small boxes alike; 256 was two to three times slower on small boxes.
SLAB_CELLS = 64


class _TreeMemo:
    """Shared subtree results of one type: ``bits`` per residual coordinate
    (plus a guard bit), graded counts packed ``limb`` bits per coefficient.
    A plain class: a dataclass would add to every import of the library."""

    __slots__ = ("bits", "limb", "table")

    def __init__(self, bits: int, limb: int) -> None:
        self.bits = bits
        self.limb = limb
        self.table: dict[int, int] = {}


# Shared subtree results for the tree method, keyed by Lie type; a root
# system is canonical for its type, so the memo is safe to reuse across
# calls and grows with the weights actually visited.
_TREE_CACHES: dict[LieType, _TreeMemo] = {}
_TREE_CACHE_LIMIT = 4_000_000


def _limb_bits(heights: Sequence[int], top: int) -> int:
    """Bit length of the largest coefficient of prod_h 1/(1 - q t^h) up to
    t^top, for the root heights ``heights``: a limb this wide holds any
    graded count of a weight of height at most ``top`` exactly.

    The series is built as a packed 1-D DP over t.  Its own limb is proven
    by the cruder bound comb(n + top, top) on the multisets of at most top
    of the n roots.  Only the t^top term is read: when top > 0 some root
    has height 1, and adding it maps the multisets of each term injectively
    into the term one height up.
    """
    wide = comb(len(heights) + top, top).bit_length()
    series = [1] + [0] * top
    for h in heights:
        for k in range(h, top + 1):
            series[k] += series[k - h] << wide
    mask = (1 << wide) - 1
    x, largest = series[top], 1
    while x:
        largest = max(largest, x & mask)
        x >>= wide
    return largest.bit_length()


@dataclass(frozen=True)
class PartitionMultiset:
    """Multiplicities over ``rs.positive_roots``: mults[k] copies of root k."""

    mults: IntVec

    def roots_used(self) -> int:
        return sum(self.mults)

    def weight(self, rs: RootSystem) -> Weight:
        acc = [0] * rs.rank
        for k, m in enumerate(self.mults):
            if m:
                v = rs.root_vectors[k]
                for j in range(rs.rank):
                    acc[j] += m * v[j]
        return Weight(acc)

    def text(self, rs: RootSystem) -> str:
        parts = [
            f"{m}({rs.positive_roots[k].text()})"
            for k, m in enumerate(self.mults)
            if m
        ]
        return " + ".join(parts) if parts else "0"

    def latex(self, rs: RootSystem) -> str:
        parts = [
            f"{m}({rs.positive_roots[k].latex()})"
            for k, m in enumerate(self.mults)
            if m
        ]
        return " + ".join(parts) if parts else "0"


def _as_int_vec(rs: RootSystem, xi: Weight) -> Optional[IntVec]:
    """Integer coefficients of xi, or None when it cannot be partitioned."""
    if len(xi) != rs.rank:
        raise ValueError(f"expected rank {rs.rank}, got weight of length {len(xi)}")
    if classify_weight(xi) is not WeightClass.NONNEGATIVE_INTEGRAL:
        return None
    return xi.int_coeffs()


def _tree_memo(rs: RootSystem, target: IntVec) -> _TreeMemo:
    """The memo of the type, widened first if ``target`` needs more bits.

    The field also holds every root coordinate, so a root never borrows
    past a guard bit.  The limb is proven at the largest height the field
    can hold, rank * (2**bits - 1), which covers every residual in the memo.
    """
    bits = max(max(target), max(map(max, rs.root_vectors))).bit_length()
    memo = _TREE_CACHES.get(rs.lie_type)
    if memo is None or memo.bits < bits:
        heights = [sum(v) for v in rs.root_vectors]
        limb = _limb_bits(heights, rs.rank * ((1 << bits) - 1))
        memo = _TREE_CACHES[rs.lie_type] = _TreeMemo(bits, limb)
    elif len(memo.table) > _TREE_CACHE_LIMIT:
        memo.table.clear()
    return memo


def _tree_count_packed(rs: RootSystem, memo: _TreeMemo, target: IntVec) -> int:
    width = memo.bits + 1
    fields = range(0, rs.rank * width, width)
    guards = sum(1 << (f + memo.bits) for f in fields)
    roots = [sum(map(lshift, v, fields)) for v in rs.root_vectors]
    n = len(roots)
    index_bits = n.bit_length()
    limb = memo.limb
    cache = memo.table

    def rec(k: int, res: int) -> int:
        if not res:
            return 1
        if k == n:
            return 0
        key = (res << index_bits) | k
        hit = cache.get(key)
        if hit is not None:
            return hit
        root = roots[k]
        total = rec(k + 1, res)  # zero copies of this root
        shift = 0
        while True:
            res = (res | guards) - root
            if res & guards != guards:
                break  # a coordinate went negative
            res ^= guards
            shift += limb
            total += rec(k + 1, res) << shift
        cache[key] = total
        return total

    return rec(0, sum(map(lshift, target, fields)))


def partition_tree_count(rs: RootSystem, xi: Weight) -> QPolynomial:
    """Graded partition count of ``xi`` by the tree method.

    >>> from qkostant.rootsys import build_root_system
    >>> rs = build_root_system("G2")
    >>> partition_tree_count(rs, rs.weight([2, 2])).text()
    '2q^2 + q^3 + q^4'
    """
    target = _as_int_vec(rs, xi)
    if target is None:
        return QPolynomial.zero()
    memo = _tree_memo(rs, target)
    return QPolynomial.from_packed(_tree_count_packed(rs, memo, target), memo.limb)


def partition_tree_list(rs: RootSystem, xi: Weight) -> list[PartitionMultiset]:
    """The explicit partitions behind :func:`partition_tree_count`, in
    depth-first order (copies of each root tried in increasing number)."""
    target = _as_int_vec(rs, xi)
    if target is None:
        return []
    roots = rs.root_vectors
    n = len(roots)
    r = rs.rank
    zero = (0,) * r
    out: list[PartitionMultiset] = []
    mults = [0] * n

    def rec(k: int, res: IntVec) -> None:
        if res == zero:
            out.append(PartitionMultiset(tuple(mults)))
            return
        if k == n:
            return
        rec(k + 1, res)
        root = roots[k]
        cur = list(res)
        m = 0
        while True:
            ok = True
            for j in range(r):
                cur[j] -= root[j]
                if cur[j] < 0:
                    ok = False
            if not ok:
                break
            m += 1
            mults[k] = m
            rec(k + 1, tuple(cur))
        mults[k] = 0

    rec(0, target)
    return out


def _genfunc_table(
    rs: RootSystem, box: IntVec
) -> Callable[[IntVec], QPolynomial]:
    """DP table of graded counts for every weight in the box, as a reader
    from a weight of the box to its count.

    Cell v accumulates, root by root, the coefficient of the monomial of v
    in the truncated product of the series 1 + q x + q^2 x^2 + ... for each
    positive root x; truncation at the box loses nothing for any cell read.
    The slab layout and the limb bound are described in the module notes.
    """
    r = rs.rank
    dims = [b + 1 for b in box]
    split, inner_cells = r, 1
    while split and inner_cells * dims[split - 1] <= SLAB_CELLS:
        split -= 1
        inner_cells *= dims[split]
    strides = [0] * r  # outer strides count slabs, inner strides count cells
    for lo, hi in ((split, r), (0, split)):
        acc = 1
        for j in range(hi - 1, lo - 1, -1):
            strides[j] = acc
            acc *= dims[j]
    fitting = [v for v in rs.root_vectors if all(map(int.__le__, v, box))]
    limb = _limb_bits([sum(v) for v in fitting], sum(box))
    cell_bits = (sum(box) + 1) * limb
    cell_mask = (1 << cell_bits) - 1
    slabs = [0] * prod(dims[:split])
    slabs[0] = 1
    masks: dict[IntVec, int] = {}  # inner part of a root -> its mask
    for root in fitting:
        inner = root[split:]
        shift = sum(map(mul, inner, strides[split:])) * cell_bits + limb
        mask = masks.get(inner)
        if mask is None:
            # the cells c of a slab with c + inner still inside the box
            mask = cell_mask
            for j in range(r - 1, split - 1, -1):
                step, row = strides[j] * cell_bits, 0
                for c in range(dims[j] - root[j]):
                    row |= mask << (c * step)
                mask = row
            masks[inner] = mask
        off = sum(map(mul, root[:split], strides))
        if not off:
            # the root stays inside each slab: apply its whole series there
            for p, x in enumerate(slabs):
                t = x
                while True:
                    t = (t & mask) << shift
                    if not t:
                        break
                    x += t
                slabs[p] = x
            continue
        positions = [0]
        for j in range(split):
            step = strides[j]
            positions = [
                p + c * step for p in positions for c in range(dims[j] - root[j])
            ]
        if any(inner):
            for p in positions:
                slabs[p + off] += (slabs[p] & mask) << shift
        else:
            # every cell keeps its slot; a source cell's top limb is empty
            for p in positions:
                slabs[p + off] += slabs[p] << shift

    def read(v: IntVec) -> QPolynomial:
        p = sum(map(mul, v[:split], strides))
        c = sum(map(mul, v[split:], strides[split:]))
        cell = (slabs[p] >> (c * cell_bits)) & cell_mask
        return QPolynomial.from_packed(cell, limb)

    return read


def partition_genfunc(rs: RootSystem, xi: Weight) -> QPolynomial:
    """Graded partition count of ``xi`` by the generating-function method."""
    target = _as_int_vec(rs, xi)
    if target is None:
        return QPolynomial.zero()
    return _genfunc_table(rs, target)(target)


def partition_genfunc_batch(
    rs: RootSystem, xis: Sequence[Weight]
) -> list[QPolynomial]:
    """Graded counts for many weights from one table over their joint box.

    The box is the componentwise maximum of the partitionable inputs; every
    other input short-circuits to zero exactly as in the single-shot call.
    """
    targets = [_as_int_vec(rs, xi) for xi in xis]
    live = [t for t in targets if t is not None]
    if not live:
        return [QPolynomial.zero()] * len(targets)
    box = tuple(max(t[j] for t in live) for j in range(rs.rank))
    read = _genfunc_table(rs, box)
    return [QPolynomial.zero() if t is None else read(t) for t in targets]


def kostant_partition(rs: RootSystem, xi: Weight, method: str = "genfunc") -> int:
    """Number of ways to write ``xi`` as a nonnegative integral combination
    of positive roots (the graded count evaluated at q = 1)."""
    if method == "tree":
        return partition_tree_count(rs, xi).at_one()
    if method == "genfunc":
        return partition_genfunc(rs, xi).at_one()
    raise ValueError(f"unknown method {method!r}; expected 'tree' or 'genfunc'")
