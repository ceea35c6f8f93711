"""Counting partitions of a weight into positive roots, graded by size.

Every count comes from the generating-function method: the truncated
expansion of the product of geometric series 1/(1 - q x_beta) over the
positive roots, realised as a dynamic program over the exponent box
[0, xi_1] x ... x [0, xi_r].  The lister, and :func:`partition_tree_count`,
kept only as the cross-check, walk the tree of partitions instead.

The walk.  The simple roots come first in ``rs.root_vectors`` and form a
basis, so they finish any nonnegative residual in exactly one way.  The walk
runs over the other roots from index ``rank``, skips a root that does not
fit the residual, and takes zero copies of a root first, then copies in
increasing number; when the roots run out, ht(res) simple roots finish the
residual res, so every leaf is a partition.  The lister sets
``mults[:rank] = res`` there and sorts its leaves by multiplicity tuple, the
depth-first order over all roots; the count returns q^ht(res), ht carried
down, with a per-type memo of (root index, residual).  The depth is at most
(non-simple roots fitting xi) + 1, bounded by the table budget.

Both counts hold graded counts packed into big integers, a coefficient per
limb of L bits (see qpoly).  L is proven, not guessed, by one bound.  Every
value a kernel holds in place of weight v counts a subset of the partitions
of v, so it is at most p(v), the number of partitions of v.  The simple
roots finish any residual in one way, so a partition of v is fixed by its
multiset of non-simple roots, of total height at most ht(v): p(v) <= N(h)
for every h >= ht(v), N(h) the number of multisets of non-simple roots of
total height at most h (:func:`_multisets_by_height` over their heights and
one more 1, :func:`_root_heights`).

* Genfunc proves L per box from the exact count.  Every simple root
  alpha_j with box_j >= 1 fits the box, so adding the simple roots of
  box - v maps the partitions of v one-to-one into those of the box:
  p(v) <= p(box) for every cell v, and L = p(box).bit_length() holds every
  coefficient.  p(box) comes from a first, plain pass of the same kernel,
  one limb per cell and no q grading (24 bits on the E8 theta box, whose
  largest graded coefficient has 21); that pass's own limb is N(ht(box)).

* The tree memo takes L = N(H).bit_length(), H the largest height its
  residual field can hold, so L covers every residual in the memo: 45 bits
  on E8 (H = 56), 19 on F4 and 17 on E6 at their highest roots.

Genfunc passes.  One kernel, ``_GenfuncTable._run``, makes two passes
that differ only in the cell width and in how far one copy of a root
moves a count (``qshift``); H = ht(box) is the largest degree a cell can
reach, since a partition of v uses at most ht(v) roots.

* The plain pass, on construction: q = 1, no shift, cells of
  N(H).bit_length() bits, 29 on the E8 theta box.  It gives every p(v)
  and L.
* The pass at q = 2^w (``_pass_at``): a shift of w bits.  The kernel is
  linear, so cell v ends at P_v(2^w), P_v the graded count of v, and every
  partial value of it sums over some partitions of v, so it is at most
  P_v(2^w) <= p(v) 2^(w ht(v)) < 2^(L + w H).  A partition of v is fixed by
  its multiset nu of non-simple roots and uses ht(v) - exc(nu) roots,
  exc(beta) = ht(beta) - 1, so also P_v(2^w) < 2^(w ht(v)) C_w: the product
  C_w of 1/(1 - 2^(-w exc(beta))) over the non-simple roots fitting the box
  sums 2^(-w exc(nu)) over every such nu.  So cells of H w + min(c_w, L)
  bits, c_w the least c with C_w < 2^c, never carry into a neighbour.  At
  w = L every coefficient is one limb: the graded pass (697-bit cells on
  the E8 theta box), run on the first read of a graded count.  A signed sum
  with coefficients in [0, B] takes w = B.bit_length() and plain digits,
  in [-B, B] one bit more (at least 2) and balanced digits: the sum of the
  cells is its value at 2^w, and its base-2^w digits are its coefficients
  (Kronecker substitution).  That w is only what the bound alone proves: a
  sum whose coefficients are nonnegative and add up to a known m may be
  read at w = 1, and kept when its binary digits add up to m, since a carry
  out of a coefficient of 2 or more lowers that sum (``multiplicity``).
  For m_q on the E8 theta box that is 42-bit cells against 117 at w = 4.

Table budget.  Before any work a count or listing is refused
(TableBudgetError) when the graded pass over its box would take more than
``TABLE_BUDGET_BITS``, cells * (H + 1) * N(H).bit_length() bits; a listing
also when its p(xi) entries, 8 bytes per positive root and ``_ENTRY_BYTES``
more each, would.

Genfunc slab layout.  The inner axes of a box are pairwise non-adjacent
nodes of the Dynkin diagram, taken widest box dimension first while their
cells number at most ``SLAB_CELLS`` (:func:`_inner_axes`); the other axes
are outer, and the layout puts them first.  Each outer position holds one
bigint slab with every inner cell at the pass's uniform width; the slabs
follow the outer axes in increasing row-major order.  Every pass follows
one per-root plan of offsets, outer positions and inner steps.  A root with
a nonzero outer part costs one masked shift-add per outer position of its
sub-box, in increasing order, so later positions see earlier updates; a
root inside the inner axes repeats its masked shift within each slab until
nothing is left.  The support of a root is connected (Bourbaki, Lie
Groups, ch. VI, 1.6), so a root on two or more nodes has two adjacent ones,
one of them outer: only simple roots run their series inside a slab.  The
mask of a root keeps the cells whose image stays in the box; each pass
keys its masks by the root's inner part.  On the E8 theta box the inner
axes are alpha_1, alpha_4 and alpha_6: 1,440 slabs of 105 cells and 52,220
outer shift-adds a pass.

Tree memo key.  The residual is one int with a fixed number of bits per
coordinate plus a guard bit, so subtracting a root is one subtraction and
the guard bits show whether a coordinate went negative; the memo key packs
it with the root index.  The field and the limb are kept per type and only
ever widen; a wider field clears that type's memo, and so does an insert
into a memo of ``_TREE_CACHE_LIMIT`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import lshift, mul, sub
from typing import Callable, Iterable, Optional, Sequence

from .qpoly import QPolynomial
from .rootsys import IntVec, LieType, Matrix, RootSystem, Weight, build_root_system

# Most inner cells of a genfunc slab, on pairwise non-adjacent inner axes
# (module notes, slab layout).
SLAB_CELLS = 128

# The largest graded genfunc table, in bits, that a computation may plan
# (2^33 bits is 1 GiB): the E8 adjoint box plans 1.3e8 and E8 at omega_1 4.6e9.
TABLE_BUDGET_BITS = 1 << 33

# Bytes a listed partition holds at the lister's peak besides 8 per positive
# root (its tuple's header and list slots, the sort's scratch and its
# PartitionMultiset: ~140 on CPython 3.11, more on 3.10), with room to spare.
_ENTRY_BYTES = 384


# A genfunc cell: its slab and its place in the slab.
Address = tuple[int, int]


class TableBudgetError(ValueError):
    """Raised, before any work, when a genfunc table would exceed
    :data:`TABLE_BUDGET_BITS`."""


class _TreeMemo:
    """Shared subtree results of one type: ``bits`` per residual coordinate
    (plus a guard bit), graded counts packed ``limb`` bits per coefficient.
    A plain class: a dataclass would add to every import of the library."""

    __slots__ = ("bits", "limb", "table")

    def __init__(self, bits: int, limb: int) -> None:
        self.bits = bits
        self.limb = limb
        self.table: dict[int, int] = {}


# The tree memo of each type; a root system is canonical for its type.
_TREE_CACHES: dict[LieType, _TreeMemo] = {}
_TREE_CACHE_LIMIT = 4_000_000


@lru_cache(maxsize=1024)
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


@lru_cache(maxsize=None)
def _root_heights(t: LieType) -> tuple[int, ...]:
    """The heights of the non-simple roots of ``t`` and one more 1, whose
    multisets of total height h number N(h) (module notes)."""
    return tuple(map(sum, build_root_system(t).root_vectors[t.rank :])) + (1,)


def check_table_budget(rs: RootSystem, box: IntVec) -> None:
    """TableBudgetError unless the graded table over ``box``, cells *
    (H + 1) * N(H).bit_length() bits with H = ht(box), fits
    :data:`TABLE_BUDGET_BITS`.  A cell takes at least one bit, so a box
    whose cells * (H + 1) alone is over the budget is refused before N(H)
    is computed."""
    cells, top = prod(b + 1 for b in box), sum(box)
    if cells * (top + 1) <= TABLE_BUDGET_BITS:
        wide = _multisets_by_height(_root_heights(rs.lie_type), top).bit_length()
        if cells * (top + 1) * wide <= TABLE_BUDGET_BITS:
            return
    raise TableBudgetError(
        f"{rs.lie_type}: a partition table of {cells} cells up to height {top} "
        f"is over the budget of {TABLE_BUDGET_BITS} bits"
    )


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
        top = rs.rank * ((1 << bits) - 1)
        limb = _multisets_by_height(_root_heights(rs.lie_type), top).bit_length()
        memo = _TREE_CACHES[rs.lie_type] = _TreeMemo(bits, limb)
    return memo


def _tree_count_packed(rs: RootSystem, memo: _TreeMemo, target: IntVec) -> int:
    width = memo.bits + 1
    fields = range(0, rs.rank * width, width)
    guards = sum(1 << (f + memo.bits) for f in fields)
    roots = [sum(map(lshift, v, fields)) for v in rs.root_vectors]
    heights = list(map(sum, rs.root_vectors))
    n = len(roots)
    index_bits = n.bit_length()
    limb = memo.limb
    cache, limit = memo.table, _TREE_CACHE_LIMIT

    def rec(k: int, res: int, ht: int) -> int:
        # Skip, without a memo entry, each root that does not fit (a cleared
        # guard bit shows a coordinate gone negative); past the last root,
        # ht simple roots finish the residual.
        while True:
            if k == n:
                return 1 << (ht * limb)
            sub = (res | guards) - roots[k]
            if sub & guards == guards:
                break
            k += 1
        key = (res << index_bits) | k
        hit = cache.get(key)
        if hit is not None:
            return hit
        root, h = roots[k], heights[k]
        total = rec(k + 1, res, ht)  # zero copies of this root
        shift = 0
        while sub & guards == guards:
            res = sub ^ guards
            ht -= h
            shift += limb
            total += rec(k + 1, res, ht) << shift
            sub = (res | guards) - root
        if len(cache) >= limit:
            cache.clear()
        cache[key] = total
        return total

    return rec(rs.rank, sum(map(lshift, target, fields)), sum(target))


def partition_tree_count(rs: RootSystem, xi: Weight) -> QPolynomial:
    """Graded partition count of ``xi`` by the walk, a cross-check.

    Past the table budget, TableBudgetError before any work, as for every
    count.  That also bounds the recursion, at most (non-simple roots
    fitting xi) + 1 deep: a search over runs of equal coordinates and
    27,000 random boxes on A45, B/C/D24-40, E7, E8 and F4 found at most 272
    roots fitting xi in budget (22 ones on D40; A45 253, E8 106), far under
    CPython's default recursion limit of 1,000.

    >>> from qkostant.rootsys import build_root_system
    >>> rs = build_root_system("G2")
    >>> partition_tree_count(rs, rs.weight([2, 2])).text()
    '2q^2 + q^3 + q^4'
    """
    target = _as_int_vec(rs, xi)
    if target is None:
        return QPolynomial.zero()
    check_table_budget(rs, target)
    memo = _tree_memo(rs, target)
    return QPolynomial.from_packed(_tree_count_packed(rs, memo, target), memo.limb)


def partition_tree_list(rs: RootSystem, xi: Weight) -> list[PartitionMultiset]:
    """The explicit partitions behind :func:`partition_tree_count`, from the
    same walk (module notes), sorted by multiplicity tuple.  A listing past
    the table budget, or whose p(xi) entries, priced at 8 bytes per positive
    root and ``_ENTRY_BYTES`` more, would take more than
    :data:`TABLE_BUDGET_BITS`, is refused (TableBudgetError) before work.
    """
    target = _as_int_vec(rs, xi)
    if target is None:
        return []
    roots = rs.root_vectors
    n = len(roots)
    count = kostant_partition(rs, xi)
    if count * (8 * n + _ENTRY_BYTES) * 8 > TABLE_BUDGET_BITS:
        raise TableBudgetError(
            f"{rs.lie_type}: a listing of {count} partitions into {n} roots "
            f"is over the budget of {TABLE_BUDGET_BITS} bits"
        )
    leaves: list[IntVec] = []
    mults = [0] * n

    def walk(k: int, res: IntVec) -> None:
        while k < n and not all(map(int.__ge__, res, roots[k])):
            k += 1
        if k == n:
            mults[: rs.rank] = res
            leaves.append(tuple(mults))
            return
        walk(k + 1, res)  # zero copies of this root
        while min(res := tuple(map(sub, res, roots[k]))) >= 0:
            mults[k] += 1
            walk(k + 1, res)
        mults[k] = 0

    walk(rs.rank, target)
    leaves.sort()
    return [PartitionMultiset(m) for m in leaves]


def _inner_axes(cartan: Matrix, dims: Sequence[int]) -> list[int]:
    """Pairwise non-adjacent nodes of the Dynkin diagram, taken widest box
    dimension first (ties by index) while their cells number at most
    ``SLAB_CELLS``, in increasing order: the inner axes of a box (module
    notes)."""
    chosen: list[int] = []
    cells = 1
    for j in sorted(range(len(dims)), key=lambda j: -dims[j]):
        if cells * dims[j] <= SLAB_CELLS and all(
            cartan[i][j] == cartan[j][i] == 0 for i in chosen
        ):
            chosen.append(j)
            cells *= dims[j]
    return sorted(chosen)


class _GenfuncTable:
    """Graded counts of every weight in a box, by the slab kernel run over
    one per-root plan (module notes): ``table.count(v)`` is the plain count
    of v, ``table.limb`` the limb of the graded pass, ``table(v)`` the graded
    count of v and :meth:`signed_sum` a signed sum of graded counts.  Many
    reads go through the cell addresses of :meth:`address`, found once.  The
    plain pass runs on construction, the graded pass on the first
    ``table(v)``.  A plain class, as for :class:`_TreeMemo`.

    Cell v accumulates, root by root, the coefficient of the monomial of v
    in the truncated product of the series 1 + q x + q^2 x^2 + ... for each
    positive root x; truncation at the box loses nothing for any cell read.
    """

    __slots__ = (
        "limb", "_plan", "_top", "_excess", "_axes", "_split", "_dims",
        "_strides", "_flat", "_plain_bits", "_counts", "_graded",
    )

    def __init__(self, rs: RootSystem, box: IntVec) -> None:
        check_table_budget(rs, box)
        r = rs.rank
        dims = [b + 1 for b in box]
        # lay the box out with its outer axes first
        inner_axes = _inner_axes(rs.cartan, dims)
        axes = [j for j in range(r) if j not in inner_axes] + inner_axes
        split = r - len(inner_axes)
        dims = [dims[j] for j in axes]
        inner_cells = prod(dims[split:])
        fitting = [
            tuple(v[j] for j in axes)
            for v in rs.root_vectors
            if all(map(int.__le__, v, box))
        ]
        # strides in layout order: outer strides count slabs, inner strides cells
        strides = [0] * r
        for lo, hi in ((split, r), (0, split)):
            acc = 1
            for j in range(hi - 1, lo - 1, -1):
                strides[j] = acc
                acc *= dims[j]
        self._axes, self._split, self._dims, self._strides = axes, split, dims, strides
        # v's cell number over the whole box, slab * inner_cells + cell, by
        # box axis
        flat = [x * inner_cells for x in strides[:split]] + strides[split:]
        self._flat = [flat[axes.index(j)] for j in range(r)], inner_cells
        # Per fitting root: its inner part, the cells its inner part steps
        # over, the slabs its outer part steps over and, for a nonzero outer
        # part, the outer positions of its sub-box, shared by equal outer parts.
        plan: list[tuple[IntVec, int, int, Optional[list[int]]]] = []
        sub_boxes: dict[IntVec, list[int]] = {}
        excess: dict[int, int] = {}  # ht - 1 -> fitting roots of that excess
        for root in fitting:
            if e := sum(root) - 1:
                excess[e] = excess.get(e, 0) + 1
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
        self._plan, self._top, self._excess = plan, sum(box), excess
        self._plain_bits = _multisets_by_height(
            _root_heights(rs.lie_type), self._top
        ).bit_length()
        self._counts = self._run(self._plain_bits, 0)
        self.limb = self.count(box).bit_length()
        self._graded: Optional[tuple[list[int], int]] = None

    def _run(self, cell_bits: int, qshift: int) -> list[int]:
        """One pass of the kernel with cells ``cell_bits`` wide; each copy of
        a root moves a count ``qshift`` bits up: none in the plain pass, w bits
        in the pass evaluated at q = 2^w."""
        split, dims, strides = self._split, self._dims, self._strides
        r = len(dims)
        cell_mask = (1 << cell_bits) - 1
        slabs = [0] * prod(dims[:split])
        slabs[0] = 1
        masks: dict[IntVec, int] = {}  # inner part of a root -> its mask
        for inner, step, off, positions in self._plan:
            shift = step * cell_bits + qshift
            if not step:
                # every cell keeps its slot, and its value times q^1 is part
                # of the target cell's, so it still fits the cell
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

    def address(self, v: IntVec) -> Address:
        """The slab holding cell v and the cell's place within it."""
        strides, inner_cells = self._flat
        return divmod(sum(map(mul, v, strides)), inner_cells)

    @staticmethod
    def _read(slabs: list[int], cell_bits: int, at: Iterable[Address]) -> list[int]:
        mask = (1 << cell_bits) - 1
        return [(slabs[p] >> (c * cell_bits)) & mask for p, c in at]

    def counts(self, at: Iterable[Address]) -> list[int]:
        """The numbers of partitions at the addresses ``at``, by the plain pass."""
        return self._read(self._counts, self._plain_bits, at)

    def count(self, v: IntVec) -> int:
        """The number of partitions of v, from the plain pass."""
        return self.counts([self.address(v)])[0]

    def _pass_at(self, w: int) -> tuple[list[int], int]:
        """The pass evaluated at q = 2^w, with its cell width (module notes)."""
        num = den = 1
        for e, n in self._excess.items():
            num <<= w * e * n
            den *= ((1 << w * e) - 1) ** n
        cell_bits = self._top * w + min((num // den).bit_length(), self.limb)
        return self._run(cell_bits, w), cell_bits

    def __call__(self, v: IntVec) -> QPolynomial:
        """The graded count of v, from the pass at q = 2^limb, run on first use."""
        if self._graded is None:
            self._graded = self._pass_at(self.limb)
        slabs, cell_bits = self._graded
        packed = self._read(slabs, cell_bits, [self.address(v)])[0]
        return QPolynomial.from_packed(packed, self.limb)

    def signed_sum(
        self, signs: Sequence[int], at: Sequence[Address], bound: int, signed=True
    ) -> QPolynomial:
        """Sum of signs[k] * (graded count at address at[k]), coefficients in
        [-bound, bound] ([0, bound] unless ``signed``): one pass at q = 2^w,
        decoded in balanced or plain digits (module notes)."""
        width = max(1 + signed, bound.bit_length() + signed)
        slabs, cell_bits = self._pass_at(width)
        total = sum(map(mul, signs, self._read(slabs, cell_bits, at)))
        if not signed and total < 0:
            raise RuntimeError(f"{total} < 0 at q = 2^{width} -- this indicates a bug")
        decode = QPolynomial.from_balanced if signed else QPolynomial.from_packed
        return decode(total, width)


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
    of positive roots: the plain pass of the generating-function kernel."""
    target = _as_int_vec(rs, xi)
    return 0 if target is None else _GenfuncTable(rs, target).count(target)
