"""Partition counting: tree and generating-function methods, listing, oracles."""

import itertools
import math
import tracemalloc
from collections import Counter
from random import Random

import pytest

from qkostant import (
    QPolynomial,
    TableBudgetError,
    Weight,
    build_root_system,
    kostant_partition,
    partition_genfunc,
    partition_genfunc_batch,
    partition_tree_count,
    partition_tree_list,
)
from qkostant.partition import (
    _ENTRY_BYTES,
    _TREE_CACHES,
    _GenfuncTable,
    _multisets_by_height,
    check_table_budget,
)
from support import brute_force_partitions, brute_force_pq

G2 = build_root_system("G2")

# Boxes checked against the brute-force oracle: (type, xi)
ORACLE_CASES = [
    ("G2", (2, 2)),
    ("G2", (3, 2)),
    ("A2", (2, 3)),
    ("B2", (3, 3)),
    ("B3", (1, 2, 2)),
    ("C3", (2, 2, 1)),
    ("A3", (2, 2, 2)),
    ("A1", (5,)),  # rank 1
    ("A1", (70,)),  # no inner axes: a slab per cell
    ("G2", (0, 4)),  # a zero coordinate
    ("B2", (7, 7)),  # the inner suffix is the whole box, 64 cells
    ("B3", (3, 4, 3)),  # 80 cells: one outer axis
    ("A3", (0, 0, 0)),  # the zero box: one cell, a 1-bit limb
]


class TestQPolynomial:
    def test_trimming_and_zero(self):
        assert QPolynomial([0, 1, 0, 0]).coeffs == (0, 1)
        assert QPolynomial([0, 0]).is_zero()
        assert QPolynomial().at_one() == 0

    def test_arithmetic(self):
        a = QPolynomial([0, 1, 2])
        b = QPolynomial([1, 0, 2])
        assert (a + b).coeffs == (1, 1, 4)
        assert (a - b).coeffs == (-1, 1)
        assert a.shifted(2).coeffs == (0, 0, 0, 1, 2)

    def test_pack_round_trip(self):
        p = QPolynomial([3, 0, 7, 1])
        assert QPolynomial.from_packed(p.pack(3), 3) == p
        assert QPolynomial.from_packed(0, 3).is_zero()
        with pytest.raises(ValueError):
            p.pack(2)

    def test_rendering(self):
        p = QPolynomial([0, 1, 2, 2, 1, 1])
        assert p.text() == "q^1 + 2q^2 + 2q^3 + q^4 + q^5"
        assert p.latex() == "q^{1} + 2q^{2} + 2q^{3} + q^{4} + q^{5}"
        assert QPolynomial([0, 1, 0, 0, 0, 1]).compact_text() == "q + q^5"
        assert QPolynomial([1]).text() == "1"
        assert QPolynomial().text() == "0"
        eleven = QPolynomial([0, 1] + [0] * 9 + [1])
        assert eleven.compact_latex() == "q + q^{11}"

    def test_exponent_multiset(self):
        assert QPolynomial([0, 1, 0, 2]).exponent_multiset() == (1, 3, 3)
        assert QPolynomial([0, 1, 1]).is_multiplicity_free()
        assert not QPolynomial([0, 2]).is_multiplicity_free()


class TestTreeCount:
    def test_g2_worked_example(self):
        assert partition_tree_count(G2, Weight([2, 2])).text() == "2q^2 + q^3 + q^4"

    def test_g2_highest_root(self):
        pq = partition_tree_count(G2, Weight([3, 2]))
        assert pq.text() == "q^1 + 2q^2 + 2q^3 + q^4 + q^5"

    def test_zero_weight(self):
        assert partition_tree_count(G2, Weight([0, 0])) == QPolynomial([1])

    def test_three_alpha1(self):
        assert partition_tree_count(G2, Weight([3, 0])) == QPolynomial.monomial(3)

    def test_rejects_negative_and_fractional(self):
        assert partition_tree_count(G2, Weight([-1, 0])).is_zero()
        assert partition_tree_count(G2, Weight(["1/2", 0])).is_zero()

    def test_f4_small(self):
        rs = build_root_system("F4")
        pq = partition_tree_count(rs, Weight([0, 3, 2, 0]))
        assert pq.text() == "2q^3 + q^4 + q^5"

    def test_memo_skips_roots_that_do_not_fit(self):
        rs = build_root_system("B3")
        partition_tree_count(rs, Weight([3, 4, 3]))
        memo = _TREE_CACHES[rs.lie_type]
        n = len(rs.root_vectors)
        index_bits, width = n.bit_length(), memo.bits + 1
        field = (1 << memo.bits) - 1
        assert memo.table
        for key in memo.table:
            k, res = key & ((1 << index_bits) - 1), key >> index_bits
            coords = [(res >> (j * width)) & field for j in range(rs.rank)]
            assert all(map(int.__ge__, coords, rs.root_vectors[k]))

    def test_e7_theta_memo_keys_no_simple_root(self, monkeypatch):
        # the walk starts past the simple roots, which finish every residual
        rs = build_root_system("E7")
        monkeypatch.delitem(_TREE_CACHES, rs.lie_type, raising=False)
        assert partition_tree_count(rs, rs.highest_root) == partition_genfunc(
            rs, rs.highest_root
        )
        table = _TREE_CACHES[rs.lie_type].table
        index_mask = (1 << len(rs.root_vectors).bit_length()) - 1
        assert 0 < len(table) < 10_000
        assert min(key & index_mask for key in table) >= rs.rank

    def test_a45_count_is_budgeted(self):
        # all-ones plans 2^45 cells: refused before the memo is even made
        rs = build_root_system("A45")
        _TREE_CACHES.pop(rs.lie_type, None)
        with pytest.raises(TableBudgetError, match="^A45: a partition table of"):
            partition_tree_count(rs, Weight([1] * 45))
        assert rs.lie_type not in _TREE_CACHES
        small = Weight([1, 2, 1] + [0] * 40 + [1, 1])
        assert partition_tree_count(rs, small) == partition_genfunc(rs, small)

    @pytest.mark.parametrize("name, most", [("A45", 253), ("D40", 272)])
    def test_budget_bounds_the_recursion(self, name, most):
        # the tree's depth is at most the number of roots that fit xi, plus
        # one; runs of ones fit the most roots of any in-budget weight found.
        # No count is run: the budget depends on the run's length alone.
        rs = build_root_system(name)
        r = rs.rank
        spans = [  # first and last simple root in each root of 0/1 coefficients
            (v.index(1), r - 1 - v[::-1].index(1))
            for v in rs.root_vectors
            if max(v) == 1
        ]

        def in_budget(k):
            try:
                check_table_budget(rs, (1,) * k + (0,) * (r - k))
            except TableBudgetError:
                return False
            return True

        longest = next(k for k in range(r + 1) if not in_budget(k + 1))
        assert not any(in_budget(k) for k in range(longest + 1, r + 1))
        fitted = max(
            sum(lo <= a and b < lo + k for a, b in spans)
            for k in range(1, longest + 1)
            for lo in range(r - k + 1)
        )
        assert fitted == most < 300


class TestGenfunc:
    def test_g2_worked_example(self):
        assert partition_genfunc(G2, Weight([2, 2])).text() == "2q^2 + q^3 + q^4"

    def test_zero_weight(self):
        assert partition_genfunc(G2, Weight([0, 0])) == QPolynomial([1])

    def test_e6_highest_root(self):
        rs = build_root_system("E6")
        pq = partition_genfunc(rs, rs.highest_root)
        assert pq.coeffs == (0, 1, 10, 45, 105, 150, 142, 97, 48, 18, 5, 1)

    def test_e8_theta_box_limb_covers_every_cell(self):
        rs = build_root_system("E8")
        box = tuple(int(c) for c in rs.highest_root)
        read = _GenfuncTable(rs, box)
        cells = list(itertools.product(*(range(b + 1) for b in box)))
        widest = max(c.bit_length() for v in cells for c in read(v).coeffs)
        assert widest == 21
        # genfunc proves its limb from p(theta), the plain count of the box
        assert read.limb == read(box).at_one().bit_length() == 24
        low = [v for v in cells if sum(v) <= 12]
        for v in Random(8).sample(low, 25):
            assert read(v) == partition_tree_count(rs, Weight(v))
        # the tree memo's limb: the multisets of roots at the largest height
        # its residual field holds
        memo = _TREE_CACHES[rs.lie_type]
        heights = tuple(sum(v) for v in rs.root_vectors)
        top = rs.rank * ((1 << memo.bits) - 1)
        assert memo.limb == _multisets_by_height(heights, top).bit_length() >= widest

    def test_limb_bound_past_32_bits(self):
        # E8 root heights up to t^56: the multiset count against graded lists
        heights = tuple(sum(v) for v in build_root_system("E8").root_vectors)
        top = 56
        series = [[1]] + [[] for _ in range(top)]
        for h in heights:
            for k in range(h, top + 1):
                low, cur = series[k - h], series[k]
                cur.extend([0] * (len(low) + 1 - len(cur)))
                for i, c in enumerate(low):
                    cur[i + 1] += c
        count = sum(series[top])
        assert count.bit_length() > 32
        assert _multisets_by_height(heights, top) == count

    def test_batch_matches_singles(self):
        rs = build_root_system("B3")
        xis = [
            Weight([1, 2, 2]),
            Weight([0, 0, 0]),
            Weight([-1, 0, 0]),
            Weight([2, 2, 2]),
            Weight(["1/2", 0, 0]),
        ]
        batch = partition_genfunc_batch(rs, xis)
        assert batch == [partition_genfunc(rs, xi) for xi in xis]


def random_boxes(name, count, seed, most=300):
    """``count`` seeded boxes over ``name``, each of at most ``most`` cells."""
    rng, rank, boxes = Random(seed), build_root_system(name).rank, []
    while len(boxes) < count:
        box = tuple(rng.randint(0, 3) for _ in range(rank))
        if math.prod(b + 1 for b in box) <= most:
            boxes.append((name, box))
    return boxes


# Boxes whose passes at q = 2^w are checked cell by cell: the highest roots
# of four types and seeded boxes over A4 and D5.
CELL_WIDTH_CASES = [
    (name, tuple(int(c) for c in build_root_system(name).highest_root))
    for name in ("G2", "B3", "F4", "E6")
] + random_boxes("A4", 3, 1701) + random_boxes("D5", 3, 1702)


class TestCellWidth:
    """The plain pass takes cells of N(H).bit_length() bits and the pass at
    q = 2^w cells of H w + min(c_w, L) bits, c_w from the non-simple roots
    fitting the box (module notes)."""

    def test_every_cell_is_its_graded_count_at_2_to_the_w(self):
        arms = set()
        for name, box in CELL_WIDTH_CASES:
            rs = build_root_system(name)
            table = _GenfuncTable(rs, box)
            cells = list(itertools.product(*(range(b + 1) for b in box)))
            graded = {v: partition_tree_count(rs, Weight(v)) for v in cells}
            # the plain slabs hold each p(v) in its own cell: none carried
            bits, slabs = table._plain_bits, [0] * len(table._counts)
            for v in cells:
                assert graded[v].at_one() < 1 << bits, (name, box, v)
                p, c = table.address(v)
                slabs[p] += graded[v].at_one() << (c * bits)
            assert slabs == table._counts, (name, box)
            for w in sorted({1, 2, 4, table.limb}):
                slabs, bits = table._pass_at(w)
                headroom = bits - sum(box) * w
                assert 1 <= headroom <= table.limb
                arms.add(headroom < table.limb)
                for v in cells:
                    value = sum(c << (w * k) for k, c in enumerate(graded[v].coeffs))
                    assert value < 1 << bits, (name, box, w, v)
                    got = table._read(slabs, bits, [table.address(v)])[0]
                    assert got == value, (name, box, w, v)
        # both arms of the min: c_w < L, and L <= c_w
        assert arms == {True, False}

    def test_e8_theta_widths(self, monkeypatch):
        rs = build_root_system("E8")
        box = tuple(int(c) for c in rs.highest_root)
        table = _GenfuncTable(rs, box)
        # N(H) = 287,793,629 multisets of non-simple roots of height <= 29
        assert table._plain_bits == 29
        monkeypatch.setattr(_GenfuncTable, "_run", lambda self, bits, w: [])
        widths = {w: table._pass_at(w)[1] for w in (4, 5, table.limb)}
        assert widths == {4: 117, 5: 146, 24: 697}


class TestTreeList:
    def test_g2_worked_example(self):
        parts = partition_tree_list(G2, Weight([2, 2]))
        assert len(parts) == 4
        assert sorted(p.roots_used() for p in parts) == [2, 2, 3, 4]
        # roots in canonical order: a1, a2, a1+a2, 2a1+a2, 3a1+a2, 3a1+2a2
        assert {p.mults for p in parts} == {
            (2, 2, 0, 0, 0, 0),
            (0, 0, 2, 0, 0, 0),
            (1, 1, 1, 0, 0, 0),
            (0, 1, 0, 1, 0, 0),
        }
        for p in parts:
            assert p.weight(G2) == Weight([2, 2])

    def test_zero_weight(self):
        parts = partition_tree_list(G2, Weight([0, 0]))
        assert len(parts) == 1
        assert parts[0].roots_used() == 0

    def test_simple_root(self):
        parts = partition_tree_list(G2, Weight([1, 0]))
        assert len(parts) == 1
        assert parts[0].mults == (1, 0, 0, 0, 0, 0)

    def test_list_agrees_with_count(self):
        rng = Random(11)
        for name in ["A2", "B2", "G2", "A3"]:
            rs = build_root_system(name)
            for _ in range(10):
                xi = Weight([rng.randint(0, 4) for _ in range(rs.rank)])
                parts = partition_tree_list(rs, xi)
                pq = partition_tree_count(rs, xi)
                assert len(parts) == pq.at_one()
                grades = Counter(p.roots_used() for p in parts)
                assert pq == QPolynomial(
                    grades.get(i, 0) for i in range(max(grades, default=-1) + 1)
                )

    def test_matches_brute_force_in_sorted_order(self):
        rng = Random(31)
        for name in ["A2", "A3", "B3", "C3", "G2"]:
            rs = build_root_system(name)
            for _ in range(8):
                xi = tuple(rng.randint(0, 8 // rs.rank) for _ in range(rs.rank))
                parts = partition_tree_list(rs, Weight(xi))
                assert [p.mults for p in parts] == brute_force_partitions(
                    rs.root_vectors, xi
                )

    @pytest.mark.parametrize(
        "name, xi",
        [("G2", (30, 20)), ("E6", None), ("E8", (1, 1, 1, 2, 1, 1, 1, 1))],
    )
    def test_listing_price_covers_its_bytes(self, name, xi):
        # the budget prices an entry at 8 bytes per positive root and
        # _ENTRY_BYTES more; the peak of a listing, once the type's caches
        # are warm, stays under that price per entry
        rs = build_root_system(name)
        w = rs.highest_root if xi is None else Weight(xi)
        partition_tree_list(rs, w)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            count = len(partition_tree_list(rs, w))
            held = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert count > 200
        assert held < count * (8 * len(rs.root_vectors) + _ENTRY_BYTES)

    def test_a45_listing_is_budgeted(self):
        # 1,035 positive roots, of which the walk opens only those fitting
        # xi; all-ones has 2^44 partitions and is refused before work
        rs = build_root_system("A45")
        parts = partition_tree_list(rs, Weight([1, 1] + [0] * 43))
        assert [p.text(rs) for p in parts] == ["1(α1 + α2)", "1(α1) + 1(α2)"]
        with pytest.raises(TableBudgetError, match="^A45: a partition table of"):
            partition_tree_list(rs, Weight([1] * 45))

    def test_listing_length_is_budgeted(self):
        # the table over theta is in budget, its p = 8,931,457 partitions
        # of 120 roots each are not
        rs = build_root_system("E8")
        with pytest.raises(TableBudgetError, match="^E8: a listing of 8931457 "):
            partition_tree_list(rs, rs.highest_root)

    def test_text(self):
        parts = partition_tree_list(G2, Weight([2, 2]))
        rendered = {p.text(G2) for p in parts}
        assert "2(α1) + 2(α2)" in rendered
        assert "1(α2) + 1(2α1 + α2)" in rendered


class TestAlgorithmAgreement:
    def test_methods_agree_randomized(self):
        rng = Random(23)
        for name in ["A2", "B2", "G2", "A3", "C3", "B4", "D4"]:
            rs = build_root_system(name)
            for _ in range(12):
                xi = Weight([rng.randint(-1, 5) for _ in range(rs.rank)])
                assert partition_tree_count(rs, xi) == partition_genfunc(rs, xi)

    def test_brute_force_oracle(self):
        for name, xi in ORACLE_CASES:
            rs = build_root_system(name)
            expected = QPolynomial(brute_force_pq(rs.root_vectors, xi))
            w = Weight(xi)
            assert partition_tree_count(rs, w) == expected
            assert partition_genfunc(rs, w) == expected

    def test_graded_pass_sums_to_plain_pass(self):
        # every cell's graded count at q = 1 is the plain pass's count, and
        # the limb is the bit length of the plain count of the whole box
        boxes = [(build_root_system(name), xi) for name, xi in ORACLE_CASES]
        e7 = build_root_system("E7")
        boxes.append((e7, tuple(int(c) for c in e7.highest_root)))
        for rs, box in boxes:
            table = _GenfuncTable(rs, box)
            assert table.limb == table.count(box).bit_length()
            for v in itertools.product(*(range(b + 1) for b in box)):
                assert table(v).at_one() == table.count(v)
        assert _GenfuncTable(build_root_system("A3"), (0, 0, 0)).limb == 1


class TestInvariants:
    def test_top_coefficient_is_one(self):
        rng = Random(5)
        for _ in range(40):
            name = rng.choice(["A2", "B2", "G2", "A3", "B3"])
            rs = build_root_system(name)
            xi = Weight([rng.randint(0, 5) for _ in range(rs.rank)])
            if xi.is_zero():
                continue
            pq = partition_tree_count(rs, xi)
            if pq.is_zero():
                continue
            assert pq.degree == xi.height()
            assert pq.coeffs[-1] == 1
            assert pq.coeffs[0] == 0

    def test_c1_iff_positive_root(self):
        for name in ["G2", "B3", "A3"]:
            rs = build_root_system(name)
            for v in rs.root_vectors:
                assert partition_tree_count(rs, Weight(v))[1] == 1
            assert partition_tree_count(rs, rs.highest_root + rs.simple_roots[0])[1] == 0

    def test_lowest_grade_bound(self):
        rng = Random(17)
        rs = build_root_system("B3")
        top_height = int(rs.highest_root.height())
        for _ in range(20):
            xi = Weight([rng.randint(0, 4) for _ in range(rs.rank)])
            pq = partition_genfunc(rs, xi)
            if pq.is_zero() or xi.is_zero():
                continue
            lowest = next(p for p, c in pq.terms())
            assert lowest >= math.ceil(int(xi.height()) / top_height)


class TestKostantPartition:
    def test_values(self):
        assert partition_tree_count(G2, Weight([2, 2])).at_one() == 4
        assert kostant_partition(G2, Weight([2, 2])) == 4
        assert kostant_partition(G2, Weight([0, 0])) == 1
        assert kostant_partition(G2, Weight([3, 0])) == 1
