"""Counting partitions of a weight into positive roots, graded by size.

Two independent algorithms produce the same graded count:

* the tree method: depth-first recursion over the positive roots in their
  canonical order, branching on how many copies of the current root to
  subtract while the residual stays nonnegative; a zero residual closes one
  successful branch, and identical (root index, residual) subproblems are
  shared through a per-type memo table, which skips the roots that do not
  fit the residual rather than storing their count (mostly zero);

* the generating-function method: the truncated expansion of the product of
  geometric series 1/(1 - q x_beta) over the positive roots, realised as a
  dynamic program over the exponent box [0, xi_1] x ... x [0, xi_r].

Both kernels hold graded counts packed into big integers, a coefficient per
limb of L bits (see qpoly).  L is proven, not guessed, by one bound.  Every
value a kernel holds in place of weight v counts a subset of the partitions
of v, so it is at most p(v), the number of partitions of v.  A partition of
v is a multiset of roots of total height ht(v), and adding a root of height
1 maps the multisets of one height one-to-one into those one higher; so
p(v) <= M(h) for every h >= ht(v), M(h) the number of multisets of roots of
total height h (:func:`_multisets_by_height`).

* Genfunc proves L per box from the exact count.  Every simple root
  alpha_j with box_j >= 1 fits the box, so adding the simple roots of
  box - v maps the partitions of v one-to-one into those of the box:
  p(v) <= p(box) for every cell v, and L = p(box).bit_length() holds every
  coefficient.  p(box) comes from a first, plain pass of the same kernel,
  one limb per cell and no q grading (24 bits on the E8 theta box, whose
  largest graded coefficient has 21); that pass's own limb is M(ht(box)).

* The tree memo takes L = M(H).bit_length(), H the largest height its
  residual field can hold, so L covers every residual in the memo.

Genfunc slab layout.  The box axes split into outer axes and an inner
suffix, the longest run of trailing axes with at most ``SLAB_CELLS`` cells.
Each outer position holds one bigint slab with every inner cell at a
uniform width: one limb in the plain pass, and (H + 1) * L bits in the
graded pass, H = ht(box), which fits any degree a cell can reach.  Both
passes follow one per-root plan of offsets, outer positions and inner
steps.  A root with a nonzero outer part costs one masked shift-add per
outer position of its sub-box, in increasing order, so later positions see
earlier updates; a root inside the inner axes repeats its masked shift
within each slab until nothing is left.  The mask of a root keeps the
cells whose image stays in the box; each pass keys its masks by the root's
inner part.

Tree memo key.  The residual is one int with a fixed number of bits per
coordinate plus a guard bit, so subtracting a root is one subtraction and
the guard bits show whether a coordinate went negative; the memo key packs
it with the root index.  The field and the limb are kept per type and only
ever widen; a wider field clears that type's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import lshift, mul
from typing import Callable, Optional, Sequence

from .qpoly import QPolynomial
from .rootsys import IntVec, LieType, RootSystem, Weight

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


@lru_cache(maxsize=256)
def _multisets_by_height(heights: tuple[int, ...], top: int) -> int:
    """The number of multisets of roots, of the heights ``heights``, with
    total height ``top``: the coefficient of t^top in prod_h 1/(1 - t^h)."""
    series = [1] + [0] * top
    for h in heights:
        for k in range(h, top + 1):
            series[k] += series[k - h]
    return series[top]


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

    def _render(self, rs: RootSystem, root: Callable[[Weight], str]) -> str:
        parts = [
            f"{m}({root(rs.positive_roots[k])})"
            for k, m in enumerate(self.mults)
            if m
        ]
        return " + ".join(parts) if parts else "0"

    def text(self, rs: RootSystem) -> str:
        return self._render(rs, Weight.text)

    def latex(self, rs: RootSystem) -> str:
        return self._render(rs, Weight.latex)


def _as_int_vec(rs: RootSystem, xi: Weight) -> Optional[IntVec]:
    """Integer coefficients of xi, or None when it cannot be partitioned."""
    if len(xi) != rs.rank:
        raise ValueError(f"expected rank {rs.rank}, got weight of length {len(xi)}")
    return xi.nonnegative_ints()


def _tree_memo(rs: RootSystem, target: IntVec) -> _TreeMemo:
    """The memo of the type, widened first if ``target`` needs more bits.

    The field also holds every root coordinate, so a root never borrows
    past a guard bit.  The limb is proven (module notes) at the largest
    height the field can hold, rank * (2**bits - 1).
    """
    bits = max(max(target), max(map(max, rs.root_vectors))).bit_length()
    memo = _TREE_CACHES.get(rs.lie_type)
    if memo is None or memo.bits < bits:
        heights, top = tuple(map(sum, rs.root_vectors)), rs.rank * ((1 << bits) - 1)
        limb = _multisets_by_height(heights, top).bit_length()
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
        # A root that does not fit leaves the count to the roots after it,
        # so it is skipped without a memo entry; a coordinate that went
        # negative shows as a cleared guard bit.
        while True:
            if k == n:
                return 0
            sub = (res | guards) - roots[k]
            if sub & guards == guards:
                break
            k += 1
        key = (res << index_bits) | k
        hit = cache.get(key)
        if hit is not None:
            return hit
        root = roots[k]
        total = rec(k + 1, res)  # zero copies of this root
        shift = 0
        while sub & guards == guards:
            res = sub ^ guards
            shift += limb
            total += rec(k + 1, res) << shift
            sub = (res | guards) - root
        cache[key] = total
        return total

    return rec(0, sum(map(lshift, target, fields)))


def _too_deep(rs: RootSystem) -> ValueError:
    """The tree kernels recurse up to once per positive root.  A memo entry
    is stored only once complete, so a failed call leaves the memo sound."""
    return ValueError(
        f"{rs.lie_type} has {len(rs.root_vectors)} positive roots, "
        "too many for the tree kernel's recursion"
    )


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
    try:
        packed = _tree_count_packed(rs, memo, target)
    except RecursionError:
        raise _too_deep(rs) from None
    return QPolynomial.from_packed(packed, memo.limb)


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

    try:
        rec(0, target)
    except RecursionError:
        raise _too_deep(rs) from None
    return out


class _GenfuncTable:
    """Graded counts of every weight in a box, by the slab kernel run twice
    over one per-root plan (module notes): ``table(v)`` is the graded count
    of v, ``table.count(v)`` its plain count and ``table.limb`` the limb of
    the graded pass.  A plain class, as for :class:`_TreeMemo`.

    Cell v accumulates, root by root, the coefficient of the monomial of v
    in the truncated product of the series 1 + q x + q^2 x^2 + ... for each
    positive root x; truncation at the box loses nothing for any cell read.
    """

    __slots__ = (
        "limb", "_split", "_dims", "_strides", "_wide", "_counts", "_cell_bits",
        "_slabs",
    )

    def __init__(self, rs: RootSystem, box: IntVec) -> None:
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
        self._split, self._dims, self._strides = split, dims, strides
        # Per fitting root: its inner part, the cells its inner part steps
        # over, the slabs its outer part steps over and, for a nonzero outer
        # part, the outer positions of its sub-box, shared by equal outer parts.
        plan: list[tuple[IntVec, int, int, Optional[list[int]]]] = []
        sub_boxes: dict[IntVec, list[int]] = {}
        for root in rs.root_vectors:
            if not all(map(int.__le__, root, box)):
                continue
            outer, inner = root[:split], root[split:]
            off = sum(map(mul, outer, strides))
            positions = sub_boxes.get(outer)
            if off and positions is None:
                positions = [0]
                for j in range(split):
                    step, n = strides[j], dims[j] - root[j]
                    positions = [p + c * step for p in positions for c in range(n)]
                sub_boxes[outer] = positions
            step = sum(map(mul, inner, strides[split:]))
            plan.append((inner, step, off, positions))
        top = sum(box)
        heights = tuple(map(sum, rs.root_vectors))
        self._wide = _multisets_by_height(heights, top).bit_length()
        self._counts = self._run(plan, self._wide, 0)
        self.limb = self.count(box).bit_length()
        self._cell_bits = (top + 1) * self.limb
        self._slabs = self._run(plan, self._cell_bits, self.limb)

    def _run(
        self,
        plan: list[tuple[IntVec, int, int, Optional[list[int]]]],
        cell_bits: int,
        qshift: int,
    ) -> list[int]:
        """One pass of the kernel with cells ``cell_bits`` wide; each copy of
        a root moves a count ``qshift`` bits up (one limb in the graded
        pass, none in the plain one)."""
        split, dims, strides = self._split, self._dims, self._strides
        r = len(dims)
        cell_mask = (1 << cell_bits) - 1
        slabs = [0] * prod(dims[:split])
        slabs[0] = 1
        masks: dict[IntVec, int] = {}  # inner part of a root -> its mask
        for inner, step, off, positions in plan:
            shift = step * cell_bits + qshift
            if not step:
                # every cell keeps its slot; a graded source cell's top limb
                # is empty, since its degree is below H
                for p in positions:
                    slabs[p + off] += slabs[p] << shift
                continue
            mask = masks.get(inner)
            if mask is None:
                # the cells c of a slab with c + inner still inside the box
                mask = cell_mask
                for j in range(r - 1, split - 1, -1):
                    row_step, row = strides[j] * cell_bits, 0
                    for c in range(dims[j] - inner[j - split]):
                        row |= mask << (c * row_step)
                    mask = row
                masks[inner] = mask
            if positions is None:
                # the root stays inside each slab: apply its whole series there
                for p, x in enumerate(slabs):
                    t = x
                    while True:
                        t = (t & mask) << shift
                        if not t:
                            break
                        x += t
                    slabs[p] = x
            else:
                for p in positions:
                    slabs[p + off] += (slabs[p] & mask) << shift
        return slabs

    def _cell(self, slabs: list[int], v: IntVec, cell_bits: int) -> int:
        split, strides = self._split, self._strides
        p = sum(map(mul, v[:split], strides))
        c = sum(map(mul, v[split:], strides[split:]))
        return (slabs[p] >> (c * cell_bits)) & ((1 << cell_bits) - 1)

    def count(self, v: IntVec) -> int:
        """The number of partitions of v, from the plain pass."""
        return self._cell(self._counts, v, self._wide)

    def __call__(self, v: IntVec) -> QPolynomial:
        cell = self._cell(self._slabs, v, self._cell_bits)
        return QPolynomial.from_packed(cell, self.limb)


def partition_genfunc(rs: RootSystem, xi: Weight) -> QPolynomial:
    """Graded partition count of ``xi`` by the generating-function method."""
    target = _as_int_vec(rs, xi)
    if target is None:
        return QPolynomial.zero()
    return _GenfuncTable(rs, target)(target)


def partition_genfunc_batch(
    rs: RootSystem, xis: Sequence[Weight]
) -> list[QPolynomial]:
    """Graded counts for many weights from one table over their joint box.

    The box is the componentwise maximum of the partitionable inputs; every
    other input gets the zero polynomial, one object shared by all of them.
    """
    targets = [_as_int_vec(rs, xi) for xi in xis]
    live = [t for t in targets if t is not None]
    zero = QPolynomial.zero()
    if not live:
        return [zero] * len(targets)
    box = tuple(max(t[j] for t in live) for j in range(rs.rank))
    read = _GenfuncTable(rs, box)
    return [zero if t is None else read(t) for t in targets]


def kostant_partition(rs: RootSystem, xi: Weight) -> int:
    """Number of ways to write ``xi`` as a nonnegative integral combination
    of positive roots: the generating-function count at q = 1."""
    return partition_genfunc(rs, xi).at_one()
