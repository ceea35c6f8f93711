"""Multiplicity polynomials, the full-group cross-check, exponent reports."""

from math import prod
from random import Random

import pytest

import golden_tables as gt
from qkostant import (
    QPolynomial,
    Weight,
    apply,
    build_root_system,
    compute_m,
    compute_mq,
    enumerate_group,
    full_group_mq,
    partition_genfunc,
    reference_exponents,
    simple_reflection,
    verify_exponents,
    weyl_group_order,
)
from qkostant.partition import _GenfuncTable
from support import random_dominant_pair


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
            # dominant mu: m = 3, so w = 3 holds the coefficient 2
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
        # every cell of the pass at q = 2^L, run with 16 spare bits per cell,
        # is below 2^(H L + limb), and the narrow pass holds the same cells:
        # no cell carries into its neighbour
        rs = build_root_system("E8")
        box = tuple(int(c) for c in rs.highest_root)
        table = _GenfuncTable(rs, box)
        width = compute_mq(rs).m.bit_length() + 1
        narrow = sum(box) * width + table.limb
        assert (width, narrow) == (5, 169)
        spare = narrow + 16
        fits, loose = table._run(narrow, width), table._run(spare, width)
        per_slab = prod(table._dims[table._split:])
        for tight, roomy in zip(fits, loose):
            assert roomy >> (per_slab * spare) == 0
            for c in range(per_slab):
                cell = (roomy >> (c * spare)) & ((1 << spare) - 1)
                assert cell < 1 << narrow
                assert cell == (tight >> (c * narrow)) & ((1 << narrow) - 1)

    def test_e8_lazy_records_match_partition_genfunc(self):
        rs = build_root_system("E8")
        res = compute_mq(rs)
        assert res.m == res.mq.at_one() == 8
        for rec in Random(12).sample(res.records, 10):
            assert rec.pq == partition_genfunc(rs, rec.xi)
        assert res.mq == signed_pq_sum(res)


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
        report = verify_exponents(build_root_system("G2"), enumerate_order_limit=100)
        assert report.ok
        assert report.identity_holds
        assert report.exponents == (1, 5)
        assert report.alt_set_size == 3
        assert report.listed_alt_set_size == 2
        assert any("reference table lists 2" in note for note in report.notes)
        assert report.enumerated_weyl_order == 12

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
