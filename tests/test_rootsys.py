"""Root-system construction: Cartan data, positive roots, rho, and the
nonnegative-integer test on weights."""

from fractions import Fraction

import pytest

from qkostant import (
    LieType,
    Weight,
    build_root_system,
    cartan_matrix,
    weyl_group_order,
)
from support import orbit_positive_roots

ALL_TYPES_RANK8 = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def positive_root_count(t: LieType) -> int:
    r = t.rank
    return {
        "A": lambda: r * (r + 1) // 2,
        "B": lambda: r * r,
        "C": lambda: r * r,
        "D": lambda: r * (r - 1),
        "E": lambda: {6: 36, 7: 63, 8: 120}[r],
        "F": lambda: 24,
        "G": lambda: 6,
    }[t.family]()


class TestLieType:
    def test_parse(self):
        assert LieType.parse("G2") == LieType("G", 2)
        assert LieType.parse("e8") == LieType("E", 8)
        assert LieType.parse("A10") == LieType("A", 10)

    @pytest.mark.parametrize(
        "bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "F5", "G3", "H4", "X2", "G"]
    )
    def test_inadmissible(self, bad):
        with pytest.raises(ValueError):
            LieType.parse(bad)

    def test_str(self):
        assert str(LieType.parse("F4")) == "F4"


class TestCartan:
    def test_g2(self):
        assert cartan_matrix("G2") == ((2, -3), (-1, 2))

    def test_a1_a2(self):
        assert cartan_matrix("A1") == ((2,),)
        assert cartan_matrix("A2") == ((2, -1), (-1, 2))

    def test_b2_c2(self):
        # alpha_r is short in B, long in C
        assert cartan_matrix("B2") == ((2, -1), (-2, 2))
        assert cartan_matrix("C2") == ((2, -2), (-1, 2))

    def test_f4(self):
        assert cartan_matrix("F4") == (
            (2, -1, 0, 0),
            (-1, 2, -1, 0),
            (0, -2, 2, -1),
            (0, 0, -1, 2),
        )

    def test_e6_adjacency(self):
        a = cartan_matrix("E6")
        edges = {
            (i, j) for i in range(6) for j in range(6) if i < j and a[i][j] != 0
        }
        assert edges == {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}

    @pytest.mark.parametrize("name", ALL_TYPES_RANK8)
    def test_shape(self, name):
        a = cartan_matrix(name)
        r = len(a)
        for i in range(r):
            assert a[i][i] == 2
            for j in range(r):
                if i != j:
                    assert a[i][j] in (0, -1, -2, -3)
                    assert (a[i][j] == 0) == (a[j][i] == 0)


class TestWeight:
    def test_arithmetic(self):
        w = Weight([3, 2]) - Weight([1, 1])
        assert w == Weight([2, 1])
        assert -w == Weight([-2, -1])
        assert 2 * w == Weight([4, 2])
        assert w * Fraction(1, 2) == Weight([1, "1/2"])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Weight([1, 2]) + Weight([1, 2, 3])

    def test_height(self):
        assert Weight([2, 2]).height() == 4
        assert Weight([0, 0]).height() == 0
        assert Weight([3, 2]).height() == 5
        assert Weight(["1/2", 1]).height() == Fraction(3, 2)

    def test_classify(self):
        # the one partitionability test: every coefficient a nonnegative integer
        assert Weight([2, 2]).nonnegative_ints() == (2, 2)
        assert Weight([0, 0]).nonnegative_ints() == (0, 0)
        assert Weight(["4/2", 0]).nonnegative_ints() == (2, 0)
        assert all(type(c) is int for c in Weight(["4/2", 1]).nonnegative_ints())
        assert Weight([-1, 0]).nonnegative_ints() is None
        assert Weight(["1/2", 0]).nonnegative_ints() is None
        assert Weight(["-1/2", -3]).nonnegative_ints() is None

    def test_text(self):
        assert Weight([3, 2]).text() == "3α1 + 2α2"
        assert Weight([0, 0]).text() == "0"
        assert Weight([1, 0, -2]).text() == "α1 - 2α3"
        assert Weight([3, 2]).latex() == "3\\alpha_{1} + 2\\alpha_{2}"

    def test_int_coeffs(self):
        # integer coefficients come back as ints; a fraction gives None
        assert Weight([1, 2]).nonnegative_ints() == (1, 2)
        assert Weight(["1/2", 1]).nonnegative_ints() is None


class TestRootSystems:
    def test_g2_roots_in_order(self):
        rs = build_root_system("G2")
        assert [w.coeffs for w in rs.positive_roots] == [
            (1, 0),
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 1),
            (3, 2),
        ]
        assert rs.highest_root == Weight([3, 2])
        assert rs.rho == Weight([5, 3])

    def test_a1(self):
        rs = build_root_system("A1")
        assert rs.positive_roots == (Weight([1]),)
        assert rs.rho == Weight(["1/2"])
        assert rs.highest_root == Weight([1])

    @pytest.mark.parametrize("name", ALL_TYPES_RANK8)
    def test_counts_match_closed_forms(self, name):
        rs = build_root_system(name)
        assert len(rs.positive_roots) == positive_root_count(rs.lie_type)

    @pytest.mark.parametrize("name", ALL_TYPES_RANK8)
    def test_simple_roots_first(self, name):
        rs = build_root_system(name)
        for i, w in enumerate(rs.simple_roots):
            assert w.coeffs == tuple(
                Fraction(1 if j == i else 0) for j in range(rs.rank)
            )

    @pytest.mark.parametrize("name", ALL_TYPES_RANK8)
    def test_rho_is_half_sum(self, name):
        rs = build_root_system(name)
        total = Weight.zero(rs.rank)
        for w in rs.positive_roots:
            total = total + w
        assert total * Fraction(1, 2) == rs.rho

    @pytest.mark.parametrize("name", ALL_TYPES_RANK8)
    def test_roots_match_orbit_closure(self, name):
        rs = build_root_system(name)
        assert set(rs.root_vectors) == orbit_positive_roots(rs.cartan)

    @pytest.mark.parametrize("name", ALL_TYPES_RANK8)
    def test_highest_root_dominates(self, name):
        rs = build_root_system(name)
        top = rs.highest_root
        assert rs.is_dominant(top)
        heights = [w.height() for w in rs.positive_roots]
        assert heights.count(max(heights)) == 1
        assert rs.positive_roots[-1] == top

    def test_e8_highest_root(self):
        rs = build_root_system("E8")
        assert len(rs.positive_roots) == 120
        assert all(c >= 2 for c in rs.highest_root.coeffs)
        assert rs.highest_root.height() == 29

    def test_rho_has_unit_fundamental_coordinates(self):
        for name in ["A3", "B3", "D4", "F4", "G2", "E6"]:
            rs = build_root_system(name)
            assert rs.alpha_to_omega(rs.rho) == (Fraction(1),) * rs.rank

    def test_int_weight_pairs_in_ints(self):
        rs = build_root_system("E8")
        pairings = rs.alpha_to_omega(rs.highest_root)
        assert pairings == (0, 0, 0, 0, 0, 0, 0, 1)
        assert {type(p) for p in pairings} == {int}

    def test_omega_alpha_round_trip(self):
        for name in ALL_TYPES_RANK8:
            rs = build_root_system(name)
            top = rs.highest_root
            assert rs.omega_to_alpha(rs.alpha_to_omega(top)) == top

    def test_is_positive_root(self):
        rs = build_root_system("G2")
        assert rs.is_positive_root(Weight([3, 1]))
        assert not rs.is_positive_root(Weight([2, 2]))
        assert not rs.is_positive_root(Weight(["1/2", 0]))
        assert not rs.is_positive_root(Weight([-1, 0]))

    def test_weyl_orders(self):
        assert weyl_group_order("A3") == 24
        assert weyl_group_order("B4") == 384
        assert weyl_group_order("D4") == 192
        assert weyl_group_order("E6") == 51840
        assert weyl_group_order("E8") == 696729600
