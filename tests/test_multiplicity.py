"""Multiplicity polynomials, the full-group cross-check, graded oracles,
exponent reports."""

import itertools
from math import prod
from operator import mul
from random import Random

import pytest

import golden_tables as gt
from qkostant import (
    QPolynomial,
    Weight,
    alternation_set,
    apply,
    build_root_system,
    compute_m,
    compute_mq,
    enumerate_group,
    full_group_mq,
    partition_genfunc,
    reference_exponents,
    verify_exponents,
    weyl_group_order,
)
from qkostant.partition import _GenfuncTable
from support import (
    freudenthal_multiplicity,
    harmonic_dimensions,
    kostka_foulkes,
    random_dominant_pair,
    simple_reflection,
    weyl_dimension,
)


def freudenthal_pairs():
    """The random dominant pairs of ``test_matches_freudenthal``."""
    rng = Random(41)
    names = "A1 A2 A3 A4 A5 B2 B3 B4 B5 C3 C4 C5 D4 D5 G2 F4".split()
    for name in names:
        rs = build_root_system(name)
        for _ in range(8):
            yield (rs,) + random_dominant_pair(rs, rng, max_total=3)


class TestComputeMq:
    def test_g2_adjoint_zero(self):
        res = compute_mq(build_root_system("G2"))
        assert res.mq.compact_text() == "q + q^5"
        assert res.m == 2
        assert len(res.records) == 3
        assert all(rec.pq is not None for rec in res.records)

    def test_f4_adjoint_zero(self):
        res = compute_mq(build_root_system("F4"))
        assert res.mq == QPolynomial(gt.parse_qpoly_latex(gt.F4_MQ))
        assert res.m == 4

    def test_e6_adjoint_zero(self):
        res = compute_mq(build_root_system("E6"))
        assert res.mq == QPolynomial(gt.parse_qpoly_latex(gt.E6_MQ))
        assert res.m == 6

    def test_lambda_equals_mu(self):
        for name in ["A1", "A3", "B3", "G2", "F4"]:
            rs = build_root_system(name)
            for lam in [rs.highest_root, rs.zero_weight(), rs.omega_to_alpha([1] * rs.rank)]:
                res = compute_mq(rs, lam, lam)
                assert res.mq == QPolynomial([1])
                assert res.m == 1

    def test_a2_adjoint_zero(self):
        res = compute_mq(build_root_system("A2"))
        assert res.mq.compact_text() == "q + q^2"
        assert compute_m(build_root_system("A2")) == 2

    def test_empty_alternation_set_is_zero(self):
        rs = build_root_system("A2")
        lam = rs.omega_to_alpha([1, 0])
        res = compute_mq(rs, lam, rs.zero_weight())
        assert res.records == ()
        assert res.mq.is_zero()
        assert res.m == 0

    def test_methods_agree(self):
        rng = Random(3)
        for name in ["G2", "B3", "A3", "F4"]:
            rs = build_root_system(name)
            a = compute_mq(rs, method="tree")
            b = compute_mq(rs, method="genfunc")
            assert a.mq == b.mq
            assert [r.pq for r in a.records] == [r.pq for r in b.records]
            for _ in range(3):
                lam, mu = random_dominant_pair(rs, rng)
                assert compute_mq(rs, lam, mu, "tree").mq == compute_mq(
                    rs, lam, mu, "genfunc"
                ).mq

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            compute_mq(build_root_system("A2"), method="magic")

    def test_non_dominant_mu_may_be_negative(self):
        rs = build_root_system("A2")
        mu = rs.omega_to_alpha([-3, -3])
        res = compute_mq(rs, rs.zero_weight(), mu)
        assert res.mq.coeffs == (0, -1, 1, 1, -1, -1, 1)
        assert res.mq == full_group_mq(rs, rs.zero_weight(), mu)
        assert res.mq == signed_pq_sum(res)
        assert res.m == res.mq.at_one() == 0

    @pytest.mark.parametrize("name,lam", [("A2", [-1, 0]), ("A1", ["1/4"])])
    def test_lambda_not_dominant_integral(self, name, lam):
        # the alternating sum is no multiplicity there: A2 at -alpha_1 gave 1 - q
        rs = build_root_system(name)
        with pytest.raises(ValueError, match="not dominant integral"):
            compute_mq(rs, Weight(lam), Weight(lam))

    def test_adjoint_zero_multiplicity_is_rank(self):
        for name in ["A1", "A4", "B3", "C3", "D4", "G2", "F4", "E6"]:
            rs = build_root_system(name)
            assert compute_m(rs) == rs.rank

    def test_matches_freudenthal(self):
        # m and m_q(1) on random dominant pairs, A to G up to rank 5,
        # against Freudenthal's recursion, which counts no partitions
        nonzero = 0
        for rs, lam, mu in freudenthal_pairs():
            res = compute_mq(rs, lam, mu)
            beta = (lam - mu).nonnegative_ints()
            labels = tuple(int(sum(map(mul, row, lam.coeffs))) for row in rs.cartan)
            m = 0
            if beta is not None:
                m = freudenthal_multiplicity(rs.cartan, labels, beta)
            assert res.m == res.mq.at_one() == m, (rs.lie_type, lam, mu)
            nonzero += m > 0
        assert nonzero > 60


def signed_pq_sum(res):
    """The signed sum of the records' graded values, read one by one."""
    return sum(
        (rec.pq if rec.sign > 0 else -rec.pq for rec in res.records),
        QPolynomial.zero(),
    )


# (type, random pairs): A to G up to rank 5, groups small enough to enumerate
AGREEMENT_CASES = [
    ("A1", 3), ("A2", 4), ("A3", 3), ("A4", 2), ("A5", 1), ("B2", 4),
    ("B3", 2), ("C3", 2), ("C4", 1), ("D4", 2), ("G2", 4), ("F4", 1),
]


def comparable_pair(rs, rng):
    """A random dominant pair with mu <= lam, so that the identity, and so
    every simple reflection of mu, has a nonempty alternation set."""
    while True:
        lam, mu = random_dominant_pair(rs, rng)
        if (lam - mu).nonnegative_ints() is not None:
            return lam, mu


class TestEvaluatedPass:
    """m_q from one pass at q = 2^L against the graded values of the records
    and against the sum over the whole group."""

    def test_agrees_with_graded_values_and_full_group(self):
        rng = Random(1111)
        for name, pairs in AGREEMENT_CASES:
            rs = build_root_system(name)
            group = enumerate_group(rs)
            reflections = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
            for _ in range(pairs):
                lam, mu = comparable_pair(rs, rng)
                for nu in [mu] + [apply(s, mu) for s in reflections]:
                    res = compute_mq(rs, lam, nu)
                    assert res.mq == signed_pq_sum(res), (name, lam, nu)
                    assert res.mq == full_group_mq(rs, lam, nu, elements=group)
                    assert res.m == res.mq.at_one()

    @pytest.mark.parametrize(
        "name,lam,mu,coeffs",
        [
            # dominant mu: m = 3, so plain digits of w = 2 bits hold the
            # coefficient 2
            ("C3", (0, 2, 0), (0, 1, 0), (0, 0, 2, 0, 1)),
            # non-dominant mu: m = 0, the coefficient 2 needs the sum of p
            ("A2", (0, 0), (-2, -2), (-1, 2, -1, -1, 1)),
        ],
    )
    def test_width_holds_the_largest_coefficient(self, name, lam, mu, coeffs):
        rs = build_root_system(name)
        lam, mu = rs.omega_to_alpha(lam), rs.omega_to_alpha(mu)
        res = compute_mq(rs, lam, mu)
        assert res.mq.coeffs == coeffs
        assert res.mq == signed_pq_sum(res) == full_group_mq(rs, lam, mu)
        assert res.m == res.mq.at_one()

    def test_e8_evaluated_cells_fit(self):
        # every cell of the pass at q = 2^w, w = m.bit_length() for plain
        # digits, run with 16 spare bits per cell, is below 2^(H w + c_w), and
        # the narrow pass holds the same cells: no cell carries into its
        # neighbour
        rs = build_root_system("E8")
        box = tuple(int(c) for c in rs.highest_root)
        table = _GenfuncTable(rs, box)
        width = compute_mq(rs).m.bit_length()
        narrow = table._pass_at(width)[1]
        assert (width, narrow) == (4, 117)
        spare = narrow + 16
        fits, loose = table._run(narrow, width), table._run(spare, width)
        per_slab = prod(table._dims[table._split:])
        for tight, roomy in zip(fits, loose):
            assert roomy >> (per_slab * spare) == 0
            for c in range(per_slab):
                cell = (roomy >> (c * spare)) & ((1 << spare) - 1)
                assert cell < 1 << narrow
                assert cell == (tight >> (c * narrow)) & ((1 << narrow) - 1)

    def test_negative_plain_total_is_a_bug(self):
        # a sum whose coefficients are known to be nonnegative cannot read
        # below 0 at q = 2^w; if it does, that is a bug (RuntimeError), not
        # bad input (a ValueError, which the CLI reports as exit 2)
        rs = build_root_system("G2")
        box = tuple(int(c) for c in rs.highest_root)
        table = _GenfuncTable(rs, box)
        at = [table.address(box)]
        plain = table.signed_sum([1], at, 4, signed=False)
        assert plain.coeffs == (0, 1, 2, 2, 1, 1)
        with pytest.raises(RuntimeError, match="indicates a bug"):
            table.signed_sum([-1], at, 4, signed=False)
        # balanced digits read the same sum as it is
        assert table.signed_sum([-1], at, 4).coeffs == (0, -1, -2, -2, -1, -1)

    def test_e8_lazy_records_match_partition_genfunc(self):
        rs = build_root_system("E8")
        res = compute_mq(rs)
        assert res.m == res.mq.at_one() == 8
        for rec in Random(12).sample(res.records, 10):
            assert rec.pq == partition_genfunc(rs, rec.xi)
        assert res.mq == signed_pq_sum(res)


class TestNarrowRead:
    """For dominant mu with 1 < m <= H + 1, m_q is first read from the pass at
    q = 2 and kept when its binary digits sum to m; else the pass at
    w = m.bit_length() runs, as for every other dominant pair."""

    @pytest.fixture
    def widths(self, monkeypatch):
        calls = []
        run = _GenfuncTable._pass_at

        def spy(table, w):
            slabs, cell_bits = run(table, w)
            calls.append((w, cell_bits))
            return slabs, cell_bits

        monkeypatch.setattr(_GenfuncTable, "_pass_at", spy)
        return calls

    @pytest.mark.parametrize("name", ["E6", "E7", "E8", "A20"])
    def test_adjoint_reads_at_q_two(self, widths, name):
        rs = build_root_system(name)
        res = compute_mq(rs)
        assert res.mq.exponent_multiset() == reference_exponents(name)
        assert [w for w, _ in widths] == [1]
        if name == "E8":
            assert widths == [(1, 42)]

    @pytest.mark.parametrize(
        "name,coeffs",
        [("D4", (0, 1, 0, 2, 0, 1)), ("D6", (0, 1, 0, 1, 0, 2, 0, 1, 0, 1))],
    )
    def test_repeated_exponent_falls_back(self, widths, name, coeffs):
        # m <= H + 1, but the coefficient 2 carries at q = 2: the digits
        # sum to less than m, and the pass at w = m.bit_length() decides
        rs = build_root_system(name)
        res = compute_mq(rs)
        assert res.m <= sum(rs.highest_root.coeffs) + 1
        assert res.mq.coeffs == coeffs
        assert [w for w, _ in widths] == [1, res.m.bit_length()]

    def test_d4_binary_digits_without_the_test_are_wrong(self):
        # m_q(2) = 2 + 16 + 32 = 50 = 0b110010: read in binary digits it is
        # q + q^4 + q^5, whose digits sum to 3, not m = 4
        rs = build_root_system("D4")
        box = tuple(int(c) for c in rs.highest_root)
        res = compute_mq(rs)
        table = _GenfuncTable(rs, box)
        signs = [rec.sign for rec in res.records]
        at = [table.address(rec.xi.coeffs) for rec in res.records]
        binary = table.signed_sum(signs, at, 1, signed=False)
        assert binary.coeffs == (0, 1, 0, 0, 1, 1)
        assert binary.at_one() == 3 < res.m == 4

    def test_large_m_skips_q_two(self, widths):
        # m = 6 > H + 1 = 5: no polynomial of degree 4 with coefficients 0
        # and 1 sums to 6, so only the pass at w = 3 runs
        rs = build_root_system("C3")
        lam, mu = rs.omega_to_alpha((1, 1, 1)), rs.omega_to_alpha((1, 0, 1))
        res = compute_mq(rs, lam, mu)
        assert (res.m, sum((lam - mu).coeffs)) == (6, 4)
        assert res.mq.coeffs == (0, 1, 2, 2, 1)
        assert [w for w, _ in widths] == [3]

    def test_records_are_the_search_records(self):
        rs = build_root_system("F4")
        res = compute_mq(rs)
        assert res.records == tuple(alternation_set(rs))
        for rec in res.records:
            assert rec.pq == partition_genfunc(rs, rec.xi)

    def test_freudenthal_pairs_match_the_tree(self):
        tried = 0
        for rs, lam, mu in freudenthal_pairs():
            res = compute_mq(rs, lam, mu)
            assert res.mq == compute_mq(rs, lam, mu, method="tree").mq, (rs, lam, mu)
            tried += 1 < res.m <= sum((lam - mu).coeffs) + 1
        assert tried > 20


def padded_partitions(size, length, largest=None):
    """The partitions of ``size`` into at most ``length`` parts, each padded
    with zeros to ``length`` parts."""
    if length == 0:
        if size == 0:
            yield ()
        return
    top = size if largest is None else min(size, largest)
    for part in range(top, -1, -1):
        for rest in padded_partitions(size - part, length - 1, part):
            yield (part,) + rest


class TestGradedOracles:
    @pytest.mark.parametrize(
        "name, dims",
        [
            ("A2", [1, 8, 35, 111]),
            ("G2", [1, 14, 104]),
            ("B3", [1, 21, 230]),
            ("D4", [1, 28, 405]),
            ("F4", [1, 52, 1377]),
            ("E6", [1, 78, 3080]),
            ("E7", [1, 133, 8910]),
        ],
    )
    def test_harmonic_identity(self, name, dims):
        # The harmonic polynomials H^k on g hold V(lam) [q^k] m_q(lam, 0)
        # times (Kostant, Amer. J. Math. 85 (1963); Hesselink, Math. Ann. 252
        # (1980)), and every such lam is dominant, in the root lattice and at
        # most k theta: sum dim V(lam) [q^k] m_q(lam, 0) = dim H^k.
        rs = build_root_system(name)
        k_max = len(dims) - 1
        total = [0] * (k_max + 1)
        box = [range(k_max * int(c) + 1) for c in rs.highest_root.coeffs]
        for lam in itertools.product(*box):
            if min(sum(map(mul, row, lam)) for row in rs.cartan) >= 0:
                dim = weyl_dimension(rs.cartan, lam)
                coeffs = compute_mq(rs, Weight(lam)).mq.coeffs
                for k, c in enumerate(coeffs[: k_max + 1]):
                    total[k] += dim * c
        dim_g = rs.rank + 2 * len(rs.positive_roots)
        assert total == harmonic_dimensions(reference_exponents(name), dim_g, k_max)
        assert total == dims

    def test_type_a_is_kostka_foulkes(self):
        # m_q(lam, mu) = K_{lam mu}(q) in type A (Lusztig, Asterisque 101-102
        # (1983)): lam and mu are partitions of one size with at most n + 1
        # parts, read as weights of A_n by their Dynkin labels.  Pairs with
        # mu not below lam in dominance order check a zero.
        pairs = 0
        for n in range(1, 5):
            rs = build_root_system(f"A{n}")
            for size in range(7):
                shapes = list(padded_partitions(size, n + 1))
                for lam, mu in itertools.product(shapes, repeat=2):
                    lam_w, mu_w = (
                        rs.omega_to_alpha([p[i] - p[i + 1] for i in range(n)])
                        for p in (lam, mu)
                    )
                    mq = compute_mq(rs, lam_w, mu_w).mq
                    assert list(mq.coeffs) == kostka_foulkes(lam, mu), (n, lam, mu)
                    pairs += 1
        assert pairs == 495


class TestFullGroupCrossCheck:
    def test_matches_alternation_route(self):
        rng = Random(41)
        for name in ["A2", "B2", "B3", "G2"]:
            rs = build_root_system(name)
            elements = enumerate_group(rs)
            assert full_group_mq(rs, elements=elements) == compute_mq(rs).mq
            for _ in range(5):
                lam, mu = random_dominant_pair(rs, rng)
                assert (
                    full_group_mq(rs, lam, mu, elements=elements)
                    == compute_mq(rs, lam, mu).mq
                )


class TestExponents:
    def test_reference_tables(self):
        assert reference_exponents("A4") == (1, 2, 3, 4)
        assert reference_exponents("B4") == (1, 3, 5, 7)
        assert reference_exponents("C3") == (1, 3, 5)
        assert reference_exponents("D4") == (1, 3, 3, 5)
        assert reference_exponents("D5") == (1, 3, 4, 5, 7)
        assert reference_exponents("E8") == (1, 7, 11, 13, 17, 19, 23, 29)

    def test_reference_consistency_all_types(self):
        for name in ["A5", "B5", "C5", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]:
            rs = build_root_system(name)
            exps = reference_exponents(name)
            assert sum(exps) == len(rs.positive_roots)
            assert prod(e + 1 for e in exps) == weyl_group_order(name)

    def test_g2_report(self):
        report = verify_exponents(build_root_system("G2"))
        assert report.ok
        assert report.identity_holds
        assert report.exponents == (1, 5)
        assert report.alt_set_size == 3
        assert report.listed_alt_set_size == 2
        assert any("reference table lists 2" in note for note in report.notes)
        assert report.weyl_order == 12 and report.product_matches_group_order

    def test_e6_group_order_note(self):
        report = verify_exponents(build_root_system("E6"))
        assert report.ok
        assert report.weyl_order == 51840
        assert any("25920" in note for note in report.notes)

    def test_d4_multiset_identity(self):
        report = verify_exponents(build_root_system("D4"))
        assert report.ok
        assert not report.multiplicity_free
        assert report.exponents == (1, 3, 3, 5)
        assert report.mq == QPolynomial([0, 1, 0, 2, 0, 1])

    def test_f4_expected_alt_size(self):
        report = verify_exponents(build_root_system("F4"))
        assert report.ok
        assert report.alt_set_size == 25 == report.expected_alt_set_size

    def test_exceptional_multiplicity_free(self):
        for name in ["G2", "F4", "E6"]:
            report = verify_exponents(build_root_system(name))
            assert report.multiplicity_free
            assert report.mq.at_one() == build_root_system(name).rank

    def test_record_order_is_table_order(self):
        res = compute_mq(build_root_system("F4"))
        keys = [(r.element.length, r.element.word) for r in res.records]
        assert keys == sorted(keys)
        assert res.records[0].element.length == 0
