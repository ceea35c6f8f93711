"""Weyl elements: reflections, words, group enumeration, alternation sets."""

from random import Random

import pytest

from qkostant import (
    OrderExceededError,
    Weight,
    alternation_set,
    apply,
    build_root_system,
    canonical_word,
    enumerate_group,
    word_str,
)
from support import (
    compose,
    determinant,
    exhaustive_alternation,
    identity_element,
    image,
    length_by_negative_roots,
    random_dominant_pair,
    rmul_simple,
    simple_reflection,
)


class TestSimpleReflections:
    def test_g2_actions(self):
        rs = build_root_system("G2")
        s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
        a1, a2 = rs.simple_roots
        assert apply(s1, a1) == Weight([-1, 0])
        assert apply(s1, a2) == Weight([3, 1])
        assert apply(s2, a1) == Weight([1, 1])
        assert apply(s2, a2) == Weight([0, -1])

    def test_involution(self):
        for name in ["A2", "B3", "G2", "F4"]:
            rs = build_root_system(name)
            for i in range(1, rs.rank + 1):
                s = simple_reflection(rs, i)
                assert compose(rs.cartan, s, s).columns == identity_element(rs).columns

    def test_index_out_of_range(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            simple_reflection(rs, 0)
        with pytest.raises(ValueError):
            simple_reflection(rs, 3)

    def test_permutes_other_positive_roots(self):
        # s_i negates alpha_i and permutes the remaining positive roots.
        for name in ["A3", "B3", "G2", "F4"]:
            rs = build_root_system(name)
            positives = set(rs.root_vectors)
            for i in range(1, rs.rank + 1):
                s = simple_reflection(rs, i)
                alpha_i = rs.simple_roots[i - 1]
                images = set()
                for w in rs.positive_roots:
                    if w == alpha_i:
                        assert apply(s, w) == -w
                    else:
                        images.add(apply(s, w).nonnegative_ints())
                assert images == positives - {alpha_i.nonnegative_ints()}


class TestApplyCompose:
    def test_worked_g2_images(self):
        rs = build_root_system("G2")
        s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
        top_plus_rho = rs.highest_root + rs.rho
        assert top_plus_rho == Weight([8, 5])
        assert apply(s1, top_plus_rho) - rs.rho == Weight([2, 2])
        assert apply(s2, top_plus_rho) - rs.rho == Weight([3, 0])

    def test_identity(self):
        rs = build_root_system("B3")
        e = identity_element(rs)
        w = Weight([1, 2, "3/2"])
        assert apply(e, w) == w

    def test_dimension_mismatch(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            apply(identity_element(rs), Weight([1, 2, 3]))

    def test_self_inverse_compose(self):
        rs = build_root_system("G2")
        s1 = simple_reflection(rs, 1)
        assert compose(rs.cartan, s1, s1).length == 0
        assert compose(rs.cartan, s1, s1).word == ()

    def test_g2_longest_element(self):
        rs = build_root_system("G2")
        elements = enumerate_group(rs)
        assert max(e.length for e in elements) == 6
        s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
        w = s1
        for s in [s2, s1, s2, s1, s2]:
            w = compose(rs.cartan, w, s)
        assert w.length == 6

    def test_compose_across_types_rejected(self):
        # over A2, s_1 of A2 times s_1 of G2 sends alpha_2 to -2 alpha_1 + alpha_2
        a2 = build_root_system("A2")
        a = simple_reflection(a2, 1)
        g = simple_reflection(build_root_system("G2"), 1)
        with pytest.raises(ValueError):
            compose(a2.cartan, a, g)

    def test_det_sign_and_length(self):
        for name in ["G2", "B3"]:
            rs = build_root_system(name)
            for e in enumerate_group(rs):
                assert determinant(e.columns) == (-1) ** e.length
                assert length_by_negative_roots(rs, e) == e.length

    def test_canonical_words_reproduce_elements(self):
        for name in ["B3", "F4"]:
            rs = build_root_system(name)
            for e in enumerate_group(rs):
                word = canonical_word(rs.cartan, e.columns)
                assert e.word == word
                assert len(word) == e.length
                rebuilt = identity_element(rs)
                for i in word:
                    rebuilt = compose(rs.cartan, rebuilt, simple_reflection(rs, i))
                assert rebuilt.columns == e.columns

    @pytest.mark.parametrize(
        "cols",
        [
            ((-1, 0), (0, 1)),  # roots, but alpha_2 - alpha_1 is none
            ((0, 1), (1, 0)),  # the diagram flip, not in the group
            ((2, 0), (0, 1)),  # a column that is no root
            ((1, 0), (256, 0)),  # packs as the identity does at 8 bits
            ((1, 0),),  # one column at rank 2
        ],
    )
    def test_canonical_word_rejects_non_elements(self, cols):
        # the first hung stripping tuple columns, which never reached the
        # identity; every one must raise
        rs = build_root_system("A2")
        with pytest.raises(ValueError, match="not a Weyl-group element"):
            canonical_word(rs.cartan, cols)


class TestEnumerateGroup:
    def test_a1(self):
        rs = build_root_system("A1")
        elements = enumerate_group(rs)
        assert len(elements) == 2
        assert elements[0].word == () and elements[1].word == (1,)

    @pytest.mark.parametrize(
        "name,order",
        [("G2", 12), ("A3", 24), ("B3", 48), ("C4", 384), ("D4", 192), ("F4", 1152)],
    )
    def test_orders(self, name, order):
        rs = build_root_system(name)
        elements = enumerate_group(rs)
        assert len(elements) == order
        assert len({e.columns for e in elements}) == order
        # BFS returns elements in length order
        lengths = [e.length for e in elements]
        assert lengths == sorted(lengths)

    def test_columns_are_images_of_simple_roots(self):
        # columns[j] is alpha_j carried through the word, right to left, by
        # s_i(v) = v - <v, alpha_i^vee> alpha_i, <v, alpha_i^vee> = sum_k a_ik v_k
        for name in ["A3", "B3", "G2", "F4"]:
            rs = build_root_system(name)
            r = rs.rank
            for e in enumerate_group(rs):
                for j in range(r):
                    v = [int(k == j) for k in range(r)]
                    for i in reversed(e.word):
                        v[i - 1] -= sum(a * x for a, x in zip(rs.cartan[i - 1], v))
                    assert e.columns[j] == tuple(v), (name, e, j)
                assert apply(e, rs.rho) == Weight(image(e, rs.rho))

    def test_e6_order(self):
        rs = build_root_system("E6")
        assert len(enumerate_group(rs)) == rs.weyl_order == 51840

    def test_guard(self):
        for name in ["E7", "E8"]:
            with pytest.raises(OrderExceededError):
                enumerate_group(build_root_system(name))

    def test_enumeration_matches_closed_form_order(self):
        for name in ["A2", "B3", "G2"]:
            rs = build_root_system(name)
            assert len(enumerate_group(rs)) == rs.weyl_order


class TestAlternationSet:
    def test_g2_adjoint_zero(self):
        rs = build_root_system("G2")
        records = alternation_set(rs)
        assert [word_str(r.element.word) for r in records] == ["1", "s_1", "s_2"]
        assert [r.xi for r in records] == [
            Weight([3, 2]),
            Weight([2, 2]),
            Weight([3, 0]),
        ]
        assert [r.sign for r in records] == [1, -1, -1]
        assert all(r.pq is None for r in records)

    def test_lambda_equals_mu_zero(self):
        for name in ["A2", "B3", "G2", "F4"]:
            rs = build_root_system(name)
            records = alternation_set(rs, rs.zero_weight(), rs.zero_weight())
            assert len(records) == 1
            assert records[0].element.length == 0
            assert records[0].xi == rs.zero_weight()

    def test_a1_mu_highest_root(self):
        rs = build_root_system("A1")
        records = alternation_set(rs, mu=rs.highest_root)
        assert len(records) == 1
        assert records[0].element.word == ()
        assert records[0].xi == Weight([0])

    def test_fractional_xi_gives_empty_set(self):
        rs = build_root_system("A2")
        lam = rs.omega_to_alpha([1, 0])  # not in the root lattice
        assert lam == Weight(["2/3", "1/3"])
        assert alternation_set(rs, lam, rs.zero_weight()) == []

    def test_sorted_by_length_then_word(self):
        rs = build_root_system("F4")
        records = alternation_set(rs)
        keys = [(r.element.length, r.element.word) for r in records]
        assert keys == sorted(keys)

    def test_downward_closed(self):
        # every non-identity member arises from a member by one right factor
        for name in ["G2", "F4", "B3"]:
            rs = build_root_system(name)
            records = alternation_set(rs)
            members = {r.element.columns for r in records}
            for rec in records:
                if rec.element.length == 0:
                    continue
                parents = {
                    rmul_simple(rs.cartan, rec.element.columns, i)
                    for i in range(rs.rank)
                }
                assert parents & members

    def test_matches_exhaustive_filter(self):
        # each dominant mu, then a random Weyl conjugate of it
        rng, pick = Random(7), Random(8)
        for name in ["A2", "B2", "B3", "G2"]:
            rs = build_root_system(name)
            elements = enumerate_group(rs)
            for _ in range(8):
                lam, dominant_mu = random_dominant_pair(rs, rng)
                conjugate_mu = apply(pick.choice(elements), dominant_mu)
                for mu in (dominant_mu, conjugate_mu):
                    records = alternation_set(rs, lam, mu)
                    got = {r.element.columns for r in records}
                    expected = set(exhaustive_alternation(elements, lam, mu, rs.rho))
                    assert got == expected

    @pytest.mark.parametrize("m", [0, 1, 126, 127, 300])
    def test_guard_bit_boundary(self, m):
        # s_1 is admitted iff xi_1 >= <lam+rho, alpha_1^vee> = m + 1, the
        # step; at m = 126 the step and xi fill a whole byte field below its
        # guard bit, at m = 127 they need a ninth bit
        rs = build_root_system("A2")
        elements = enumerate_group(rs)
        lam, step = rs.omega_to_alpha([m, 0]), m + 1
        for x, admitted in ((step, True), (step - 1, False)):
            mu = lam - Weight([x, 0])
            records = alternation_set(rs, lam, mu)
            words = {r.element.word: r.xi for r in records}
            assert ((1,) in words) == admitted
            if admitted:
                assert words[(1,)] == rs.zero_weight()
            expected = exhaustive_alternation(elements, lam, mu, rs.rho)
            assert {r.element.columns: r.xi for r in records} == expected

    def test_wide_fields_match_exhaustive_filter(self):
        # lam up to 300 omega: every step past 127, so the walk packs xi in
        # fields wider than a byte and decodes it by shifts; mu sits a few
        # roots below a random sigma(lam + rho) - rho, so sigma and the path
        # down to it are admitted
        rng = Random(300)
        for name in ["G2", "A2", "B3"]:
            rs = build_root_system(name)
            elements = enumerate_group(rs)
            for _ in range(8):
                lam = rs.omega_to_alpha([rng.randint(127, 300) for _ in range(rs.rank)])
                sigma = rng.choice(elements)
                below = Weight([rng.randint(0, 3) for _ in range(rs.rank)])
                mu = apply(sigma, lam + rs.rho) - rs.rho - below
                records = alternation_set(rs, lam, mu)
                assert len(records) > sigma.length
                expected = exhaustive_alternation(elements, lam, mu, rs.rho)
                assert {r.element.columns: r.xi for r in records} == expected

    def test_matches_exhaustive_filter_rank_5(self):
        # the pruned search stays sound beyond the rank-4 sweep
        for name in ["A5", "D5"]:
            rs = build_root_system(name)
            records = alternation_set(rs)
            expected = exhaustive_alternation(
                enumerate_group(rs), rs.highest_root, rs.zero_weight(), rs.rho
            )
            assert {r.element.columns for r in records} == set(expected)

    def test_subset_of_group(self):
        rs = build_root_system("F4")
        group = {e.columns for e in enumerate_group(rs)}
        for rec in alternation_set(rs):
            assert rec.element.columns in group

    def test_rank_mismatch(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            alternation_set(rs, Weight([1]), rs.zero_weight())

    @pytest.mark.parametrize("name,lam", [("A2", [-1, 0]), ("A1", ["1/4"])])
    def test_lambda_not_dominant_integral(self, name, lam):
        rs = build_root_system(name)
        with pytest.raises(ValueError, match="not dominant integral"):
            alternation_set(rs, Weight(lam), Weight(lam))

    def test_type_a_adjoint_sizes_are_fibonacci(self):
        # |A(theta, 0)| in A_r is the Fibonacci number F_r (Harris, Insko and
        # Williams, J. Comb. 7 (2016))
        sizes = [
            len(alternation_set(build_root_system(f"A{r}"))) for r in range(1, 17)
        ]
        fib = [1, 1]
        while len(fib) < 16:
            fib.append(fib[-2] + fib[-1])
        assert sizes == fib
        assert sizes[-1] == 987

    def test_e8_records_rebuild_from_their_words(self):
        # each element is the product of simple reflections along its word,
        # from the identity, and each xi is sigma(lam + rho) - (rho + mu), in
        # exact arithmetic; records come by length, and every prefix of a
        # word is a record (the admitted set is a subtree), so each product
        # extends its prefix's by one factor
        rs = build_root_system("E8")
        records = alternation_set(rs)
        assert len(records) == 2318
        target, shift = rs.highest_root + rs.rho, rs.rho
        products = {(): identity_element(rs).columns}
        for rec in records:
            word = rec.element.word
            if word:
                i = word[-1] - 1
                products[word] = rmul_simple(rs.cartan, products[word[:-1]], i)
            assert rec.element.columns == products[word], rec.element
            assert rec.xi == apply(rec.element, target) - shift, rec.element
            assert rec.sign == (-1) ** rec.element.length


def test_root_coefficients_fit_the_packed_field():
    # the walk packs roots alone at _ROOT_BITS = 8 bits a field, and
    # canonical_word tells an updated column from every root there, both
    # only while no root coefficient exceeds 6
    for name in ["A1", "A30", "B30", "C30", "D30", "E6", "E7", "E8", "F4", "G2"]:
        assert max(build_root_system(name).highest_root) <= 6


def test_word_str():
    assert word_str(()) == "1"
    assert word_str((3, 4, 3, 1)) == "s_3s_4s_3s_1"
